"""Byte-identity guard for library results that the CLI never prints.

``tests/api_expected.json`` maps ``<model> <function> [<argument>]`` to the
sha256 of the JSON of that function's result on every block (every p for
``holomorphic_forms``), one entry per block in block order; a call that
raises records the exception's class and message instead.  The models are
the catalog and the three ladder models under ``bench/models``.

Regenerate the digests, only when a change of these results is intended,
with ``PYTHONPATH=src python tests/test_api_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from akh.exact import AkhError
from akh.forms import build, form_to_json
from akh.harmonic import (
    WHICH_CHOICES,
    harmonic_basis,
    hodge_riemann_check,
    holomorphic_forms,
    mu_bar_cohomology,
    primitive_decomposition,
)
from akh.model import CATALOG_NAMES, catalog, load_model

ROOT = Path(__file__).resolve().parents[1]
EXPECTED_PATH = Path(__file__).resolve().parent / "api_expected.json"
LADDER = ("kt_x_kt", "h5_J_x_T2", "torus8")
SOURCES = CATALOG_NAMES + LADDER


def _model(source):
    if source in LADDER:
        return load_model(str(ROOT / "bench" / "models" / f"{source}.json"))
    return catalog(source)


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except AkhError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    if hasattr(result, "to_json"):
        return result.to_json()
    if isinstance(result, tuple):  # harmonic_basis: a tuple of forms
        return [form_to_json(f) for f in result]
    return result


def _calls(model):
    """(key suffix, function, argument tuples) for one model."""
    alg = build(model)
    blocks = alg.block_order
    calls = [(f"harmonic_basis {which}",
              lambda *pq, which=which: harmonic_basis(model, which, *pq), blocks)
             for which in WHICH_CHOICES]
    calls += [(fn.__name__, lambda *pq, fn=fn: fn(model, *pq), blocks)
              for fn in (primitive_decomposition, hodge_riemann_check, mu_bar_cohomology)]
    calls.append(("holomorphic_forms", lambda p: holomorphic_forms(model, p),
                  [(p,) for p in range(alg.m + 1)]))
    return calls


def digests(source) -> dict:
    model = _model(source)
    out = {}
    for suffix, fn, arg_list in _calls(model):
        payload = json.dumps([_outcome(fn, *args) for args in arg_list],
                             sort_keys=True, ensure_ascii=False)
        out[f"{source} {suffix}"] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return out


def _expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("source", SOURCES)
def test_api_results_match_recorded_digests(source):
    expected = {k: v for k, v in _expected().items() if k.split(" ", 1)[0] == source}
    assert digests(source) == expected


def test_every_model_is_recorded():
    assert {key.split(" ", 1)[0] for key in _expected()} == set(SOURCES)


if __name__ == "__main__":
    recorded = {}
    for source in SOURCES:
        recorded.update(digests(source))
    EXPECTED_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
