"""Byte-identity guard for ``akh report`` on the 8- and 10-dimensional ladder.

``tests/ladder_expected.json`` maps ``report <model> <format>`` to the
sha256 of the stdout of ``akh report --model <model JSON> --format
<format>`` and its exit code.  The models are the three ladder models under
``bench/models`` and three products of catalog models built with
``bench/models/make_ladder.py``: the 10-dimensional torus10 (torus6 x
torus4) and kt_x_h5_J (Kodaira-Thurston x h5_J), and the 12-dimensional
ktff (Kodaira-Thurston x filiform4_J x filiform4_Jprime), which is not
almost Kahler.  ``bench/expected.json`` pins only their Betti
numbers; this pins the identity ledger, the diamond, hard Lefschetz and the
obstructions as well.

Regenerate the digests, only when a change of these reports is intended,
with ``PYTHONPATH=src python tests/test_ladder_golden.py``.

The identity ledger of the two 12-dimensional products torus6 x torus6 and
Kodaira-Thurston x Kodaira-Thurston x torus4 is pinned the same way, by
the sha256 of its JSON (``sort_keys``) and of its text, kept inline below.
"""

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import tempfile
from pathlib import Path

import pytest

from akh import cli
from akh.model import catalog, save_model
from akh.operators import verify_identities

ROOT = Path(__file__).resolve().parents[1]
MODELS_DIR = ROOT / "bench" / "models"
EXPECTED_PATH = Path(__file__).resolve().parent / "ladder_expected.json"
COMMITTED = ("kt_x_kt", "h5_J_x_T2", "torus8")
PRODUCTS = {"torus10": ("torus6", "torus4"), "kt_x_h5_J": ("kodaira_thurston", "h5_J"),
            "ktff": ("kodaira_thurston", "filiform4_J", "filiform4_Jprime")}
NAMES = COMMITTED + tuple(PRODUCTS)
FORMATS = ("json", "text")

_SPEC = importlib.util.spec_from_file_location("bench_make_ladder", MODELS_DIR / "make_ladder.py")
make_ladder = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(make_ladder)


def _model_path(name: str, tmp: Path) -> str:
    if name in COMMITTED:
        return str(MODELS_DIR / f"{name}.json")
    factors = [catalog(factor) for factor in PRODUCTS[name]]
    path = tmp / f"{name}.json"
    save_model(functools.reduce(lambda a, b: make_ladder.product(name, a, b), factors),
               str(path))
    return str(path)


def record(name: str, tmp: Path) -> dict:
    """{'report <name> <format>': {'sha256': ..., 'exit': ...}} for one model."""
    path = _model_path(name, tmp)
    out = {}
    for fmt in FORMATS:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(["report", "--model", path, "--format", fmt])
        digest = hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()
        out[f"report {name} {fmt}"] = {"sha256": digest, "exit": code}
    return out


def _expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", NAMES)
def test_ladder_report_matches_recorded_digest(name, tmp_path):
    expected = {k: v for k, v in _expected().items() if k.split(" ")[1] == name}
    assert record(name, tmp_path) == expected


def test_every_ladder_model_and_format_is_recorded():
    assert set(_expected()) == {f"report {name} {fmt}" for name in NAMES for fmt in FORMATS}


# 12-dimensional product -> (sha256 of the ledger JSON, sha256 of its text)
TWELVE_DIM_LEDGERS = {
    "torus6_x_torus6": ("3f062e989cdcdbbd6f90f3ef3b698a14d5f5c3e45ab9397f3d8c5a153bf0dec2",
                        "273702b8c662d11177cd37fde0f76cb180314c8f0de1ed56ade53e729cfe4cfb"),
    "kt_x_kt_x_T4": ("0020d677b7dc0733a284ecddf9f3d9a0d80bcba5893b7c9d0fa2c1504c6f6573",
                     "9dfe910616d88c36b5e9403f3658bea6895a8cb35dcf0ae47129cc3683600857"),
}


def _twelve_dim_model(name: str):
    product = make_ladder.product
    if name == "torus6_x_torus6":
        return product(name, catalog("torus6"), catalog("torus6"))
    kt = catalog("kodaira_thurston")
    return product(name, product("kt_x_kt", kt, kt), catalog("torus4"))


@pytest.mark.parametrize("name", TWELVE_DIM_LEDGERS)
def test_twelve_dim_ledger_matches_recorded_digest(name):
    ledger = verify_identities(_twelve_dim_model(name))
    digests = tuple(hashlib.sha256(text.encode("utf-8")).hexdigest()
                    for text in (json.dumps(ledger.to_json(), sort_keys=True), ledger.to_text()))
    assert digests == TWELVE_DIM_LEDGERS[name]


if __name__ == "__main__":
    recorded = {}
    with tempfile.TemporaryDirectory() as tmp:
        for model_name in NAMES:
            recorded.update(record(model_name, Path(tmp)))
    EXPECTED_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
