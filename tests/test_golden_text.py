"""Byte-identity guard for the text reports.

``tests/text_expected.json`` maps each request ``<command> --catalog <name>``
(every command on every catalog model) to the sha256 of the stdout of
``akh <request> --format text`` and its exit code.  ``tests/test_golden.py``
pins the JSON output the same way.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from akh import cli

EXPECTED = json.loads(
    (Path(__file__).resolve().parent / "text_expected.json").read_text(encoding="utf-8"))


def test_every_command_on_every_catalog_model_is_recorded():
    assert set(EXPECTED) == {f"{command} --catalog {name}"
                             for command in cli.COMMANDS for name in cli.CATALOG_NAMES}


@pytest.mark.parametrize("request_line", sorted(EXPECTED))
def test_text_output_matches_recorded_digest(request_line, capsys):
    code = cli.main(shlex.split(request_line) + ["--format", "text"])
    stdout = capsys.readouterr().out
    assert code == EXPECTED[request_line]["exit"]
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == EXPECTED[request_line]["sha256"]
