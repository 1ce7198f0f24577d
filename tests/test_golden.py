"""Byte-identity guard: every request that the benchmark checks, replayed in
process.

``bench/expected.json`` maps each request (an ``akh`` command line without
``--format json``) to the sha256 of its JSON stdout and its exit code.  Any
change that alters one byte of that output, or an exit code, fails here
without running the benchmark.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from akh import cli

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = json.loads((ROOT / "bench" / "expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("request_line", sorted(EXPECTED))
def test_output_matches_recorded_digest(request_line, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # ladder requests name their models relative to the root
    code = cli.main(shlex.split(request_line) + ["--format", "json"])
    stdout = capsys.readouterr().out
    assert code == EXPECTED[request_line]["exit"]
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == EXPECTED[request_line]["sha256"]
