"""Checks on the benchmark itself: the ladder models and the harness.

Run from the repository root with the package on the path:

    PYTHONPATH=src python3 -m pytest -q bench
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

from akh.harmonic import betti
from akh.model import catalog, load_model, validate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ladder = _load("bench_make_ladder", os.path.join(HERE, "models", "make_ladder.py"))
bench = _load("bench_run", os.path.join(HERE, "run.py"))


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


KUNNETH = {
    "kt_x_kt": (1, 6, 17, 30, 36, 30, 17, 6, 1),
    "h5_J_x_T2": (1, 6, 17, 30, 36, 30, 17, 6, 1),
    "torus8": (1, 8, 28, 56, 70, 56, 28, 8, 1),
}


def _model_path(name):
    return os.path.join(HERE, "models", f"{name}.json")


@pytest.mark.parametrize("name", sorted(ladder.LADDER))
def test_committed_ladder_model_is_the_product(name):
    assert load_model(_model_path(name)) == ladder.ladder_models()[name]


@pytest.mark.parametrize("name", sorted(ladder.LADDER))
def test_ladder_model_is_structure_ok_and_nilpotent(name):
    report = validate(load_model(_model_path(name)))
    assert report.dim == 8
    assert report.structure_ok and report.nilpotent


@pytest.mark.parametrize("name", sorted(ladder.LADDER))
def test_ladder_betti_numbers_follow_kunneth(name):
    first, second = ladder.LADDER[name]
    predicted = _convolve(betti(catalog(first)), betti(catalog(second)))
    assert predicted == KUNNETH[name]
    assert betti(load_model(_model_path(name))) == predicted


def test_every_request_has_a_recorded_digest():
    with open(bench.EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    keys = {bench.request_key(r) for rs in bench.WORKLOADS.values() for r in rs}
    keys |= {bench.request_key(r) for r in bench.SMOKE}
    assert keys == set(expected)


def test_every_hook_point_names_the_metrics_it_feeds():
    hooks = _load("bench_akh_hooks", os.path.join(HERE, "akh_hooks.py"))
    points = {f"{module}.{attr}" for module, attr, _ in hooks.STAGES}
    assert points | set(hooks.PRIMITIVES) == set(bench.HOOK_METRICS)
    assert {span for _, _, span in hooks.STAGES} | {"cli.main"} == set(bench.SPAN_METRICS)


def test_smoke_run_emits_every_named_metric():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(result["metrics"]) == names


def test_checkout_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog_cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
