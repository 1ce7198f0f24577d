"""Benchmark of the ``akh`` command line, run from the root of a checkout.

    python3 bench/run.py --workload catalog_cli --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --smoke     # one pass on torus2, every metric emitted?
    python3 bench/run.py --record    # rewrite bench/expected.json from this code

Every request is what a user of ``akh`` pays: one cold ``akh <command>
--format json`` process, spawn to exit, whose stdout digest and exit code
must match bench/expected.json.  Requests run in a closed loop with one
client, so the harness and the single request process fit two cores.  The
seed shuffles the order of the requests in each pass; the program only sees
the models and the command line.  A run keeps starting requests until the
next one would end after ``--seconds``; the first pass always completes.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` every request runs twice, once under bench/traced_akh.py,
which times the layers from outside, and once untraced; the run reports the
per-layer metrics and the tracing overhead.  Every timing summarizes the
whole run (see end_to_end_metrics() and typical()).  End-to-end times are
divided by the run's slowdown, measured with bench/calibrate.py (see
SetupProbe), so they read as seconds on the machine the baseline was taken
on.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 whenever that line is
printed; it is 2, with no result, when the checkout holds no akh sources.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
MODELS = os.path.relpath(os.path.join(HERE, "models"), ROOT).replace(os.sep, "/")

COMMANDS = ("validate", "identities", "diamond", "betti", "lefschetz",
            "obstructions", "report")
CATALOG = ("filiform4_J", "filiform4_Jprime", "h5_J", "kodaira_thurston",
           "torus2", "torus4", "torus6")


def _ladder(command, names):
    return [(command, "--model", f"{MODELS}/{name}.json") for name in names]


# BENCHMARK.json gates the first two.  ladder8_report is for traced runs
# only: its 8-20 s requests leave two or three samples in a run, too few
# for a median that repeats from run to run on a shared machine.
WORKLOADS = {
    "catalog_cli": [(c, "--catalog", n) for c in COMMANDS for n in CATALOG],
    "ladder8_betti": _ladder("betti", ("kt_x_kt", "h5_J_x_T2", "torus8")),
    "ladder8_report": _ladder("report", ("h5_J_x_T2", "torus8")),
}
SMOKE = [(c, "--catalog", "torus2") for c in COMMANDS]

END_TO_END = {
    "wall_s": "s", "req_p50_s": "s", "req_p90_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_ratio": "ratio",
}
PER_LAYER = {
    "cli.import_s": "s", "cli.main_self_s": "s",
    "model.load_s": "s", "model.validate_s": "s", "model.validate_calls": "count",
    "forms.build_s": "s", "forms.build_calls": "count",
    "forms.build_cache_hit_ratio": "ratio",
    "operators.ledger_s": "s", "operators.witness_s": "s",
    "exact.matmul_calls": "count", "exact.matmul_s": "s",
    "exact.matmul_dense_mults": "count", "exact.matmul_useful_ratio": "ratio",
    "harmonic.betti_s": "s", "harmonic.diamond_s": "s",
    "harmonic.lefschetz_s": "s", "harmonic.lefschetz_calls": "count",
    "harmonic.obstructions_s": "s",
    "exact.rref_calls": "count", "exact.rref_s": "s", "exact.rref_cells": "count",
    "exact.parampoly_mul_calls": "count",
    "trace.overhead_s": "s",
}
# span name -> per-layer metric of its self time (and of its call count)
SPAN_METRICS = {
    "cli.main": ("cli.main_self_s", None),
    "model.load": ("model.load_s", None),
    "model.validate": ("model.validate_s", "model.validate_calls"),
    "forms.build": ("forms.build_s", "forms.build_calls"),
    "operators.ledger": ("operators.ledger_s", None),
    "operators.witness": ("operators.witness_s", None),
    "harmonic.betti": ("harmonic.betti_s", None),
    "harmonic.diamond": ("harmonic.diamond_s", None),
    "harmonic.lefschetz": ("harmonic.lefschetz_s", "harmonic.lefschetz_calls"),
    "harmonic.obstructions": ("harmonic.obstructions_s", None),
}
# hook point (as akh_hooks names it) -> the per-layer metrics it feeds
HOOK_METRICS = {
    "akh.model.load_model": ("model.load_s",),
    "akh.model.catalog": ("model.load_s",),
    "akh.model.validate": ("model.validate_s", "model.validate_calls"),
    "akh.forms.build": ("forms.build_s", "forms.build_calls",
                        "forms.build_cache_hit_ratio"),
    "akh.operators.verify_identities": ("operators.ledger_s",),
    "akh.operators.laplacian_symmetry_witness": ("operators.witness_s",),
    "akh.harmonic.betti": ("harmonic.betti_s",),
    "akh.harmonic.ell_diamond": ("harmonic.diamond_s",),
    "akh.harmonic.hard_lefschetz": ("harmonic.lefschetz_s",
                                    "harmonic.lefschetz_calls"),
    "akh.harmonic.obstruction_report": ("harmonic.obstructions_s",),
    "akh.exact.rref": ("exact.rref_calls", "exact.rref_s", "exact.rref_cells"),
    "akh.exact.ExactMatrix.__matmul__": (
        "exact.matmul_calls", "exact.matmul_s", "exact.matmul_dense_mults",
        "exact.matmul_useful_ratio"),
    "akh.exact.ParamPoly.__mul__": ("exact.parampoly_mul_calls",),
}

CLI_CODE = "import sys; from akh.cli import main; sys.exit(main())"
SETUP_CODE = """\
import sys, akh
print(akh.__file__)
for flag, name in zip(sys.argv[1::2], sys.argv[2::2]):
    akh.catalog(name) if flag == "--catalog" else akh.load_model(name)
"""
SETUP_ROUNDS = 24
CALIBRATE = os.path.join(HERE, "calibrate.py")
CALIBRATION_DIGEST = "4cd918cba1761ea7d9f62d9ea80b1bce134818bb2c7688976930ea38c3029f64"
# Wall time of calibrate.py (the mean of the middle half of 233 runs) on the
# machine the baseline was taken on: 2 cores, Python 3.11.7.  It turns a
# run's time ratios back into seconds.
REFERENCE_CALIBRATION_S = 0.161
REQUEST_TIMEOUT = 120.0
TRACEBACK = b"Traceback (most recent call last)"


@dataclass
class Outcome:
    """One finished child process."""

    wall: float
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int
    timed_out: bool


@dataclass
class Sample:
    """One request: its outcome, whether it was correct, and in a traced
    run whether it ran traced and the spans and counters it left."""

    key: str
    outcome: Outcome
    ok: bool
    traced: bool = False
    trace: Optional[dict] = None


def run_process(argv, env, tmp) -> Outcome:
    """Run argv from the checkout root; wall time is spawn to exit."""
    out_path = os.path.join(tmp, "stdout")
    err_path = os.path.join(tmp, "stderr")
    timed_out = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(REQUEST_TIMEOUT, lambda: (timed_out.append(True), proc.kill()))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return Outcome(wall, proc.returncode, stdout, stderr, usage.ru_maxrss,
                   bool(timed_out))


def request_key(request) -> str:
    return " ".join(request)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def check(outcome: Outcome, expected) -> bool:
    """A request is correct when it ended by itself, wrote no traceback and
    matched the recorded stdout digest and exit code."""
    return (expected is not None and not outcome.timed_out
            and TRACEBACK not in outcome.stderr
            and outcome.code == expected["exit"]
            and hashlib.sha256(outcome.stdout).hexdigest() == expected["sha256"])


class SetupProbe:
    """Cold processes that start the interpreter, import akh and load the
    workload's models: the set-up that every request pays; and the
    calibration processes that measure the machine's speed.

    A round of one set-up process and one run of calibrate.py runs between
    requests once every seconds / SETUP_ROUNDS, so the rounds sample the
    whole run.  setup_s is the median over every set-up process;
    slowdown() is the calibration time, the midmean of the run's samples,
    over its reference.  A first, untimed set-up process compiles the
    bytecode, which an installed package does not redo on every call, and
    checks that akh is imported from this checkout.
    """

    def __init__(self, requests, env, tmp, seconds):
        sources = dict.fromkeys((flag, name) for _, flag, name in requests)
        self.argv = [sys.executable, "-c", SETUP_CODE,
                     *(x for pair in sources for x in pair)]
        self.env = env
        self.tmp = tmp
        self.interval = seconds / SETUP_ROUNDS
        self.next_round = 0.0
        self.walls = []
        self.calibration = []
        self._run()

    def _run(self) -> float:
        outcome = run_process(self.argv, self.env, self.tmp)
        if outcome.code != 0:
            sys.stderr.write(outcome.stderr.decode(errors="replace"))
            raise SystemExit("error: the set-up process failed")
        loaded = outcome.stdout.decode().splitlines()[0]
        if os.path.dirname(os.path.abspath(loaded)) != os.path.join(SRC, "akh"):
            raise SystemExit(f"error: akh was imported from {loaded}, not {SRC}")
        return outcome.wall

    def _calibrate(self) -> float:
        outcome = run_process([sys.executable, CALIBRATE], self.env, self.tmp)
        if outcome.code != 0 or outcome.stdout.decode().strip() != CALIBRATION_DIGEST:
            sys.stderr.write(outcome.stderr.decode(errors="replace"))
            raise SystemExit("error: the calibration process failed")
        return outcome.wall

    def round_if_due(self) -> None:
        if perf_counter() >= self.next_round:
            self.walls.append(self._run())
            self.calibration.append(self._calibrate())
            self.next_round = perf_counter() + self.interval

    def slowdown(self) -> float:
        """How much slower this machine ran than the reference machine."""
        return midmean(self.calibration) / REFERENCE_CALIBRATION_S


def run_traced(request, env, tmp) -> tuple:
    trace_path = os.path.join(tmp, "trace.json")
    if os.path.exists(trace_path):
        os.remove(trace_path)
    traced_env = dict(env, AKH_BENCH_TRACE_OUT=trace_path)
    argv = [sys.executable, os.path.join(HERE, "traced_akh.py"), *request,
            "--format", "json"]
    outcome = run_process(argv, traced_env, tmp)
    trace = None
    if os.path.exists(trace_path):
        with open(trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
    return outcome, trace


def closed_loop(requests, expected, env, tmp, rng, seconds, traced,
                setup=None) -> list:
    """Passes over the shuffled requests until the next one would end after
    the deadline.  In a traced run each request runs traced and untraced,
    in an order the seed decides.  A set-up round runs between requests
    when one is due."""
    deadline = perf_counter() + seconds
    cheapest = {}
    samples = []
    first_pass = True
    while True:
        order = list(requests)
        rng.shuffle(order)
        for request in order:
            key = request_key(request)
            if not first_pass and perf_counter() + cheapest[key] > deadline:
                return samples
            if setup is not None:
                setup.round_if_due()
            modes = [False, True] if traced else [False]
            rng.shuffle(modes)
            cost = 0.0
            for with_trace in modes:
                if with_trace:
                    outcome, trace = run_traced(request, env, tmp)
                else:
                    argv = [sys.executable, "-c", CLI_CODE, *request,
                            "--format", "json"]
                    outcome, trace = run_process(argv, env, tmp), None
                ok = check(outcome, expected.get(key))
                if with_trace and trace is None:
                    ok = False
                if not ok:
                    sys.stderr.write(f"failed: {key} (exit {outcome.code}"
                                     f"{', timed out' if outcome.timed_out else ''}"
                                     f"{', traced' if with_trace else ''})\n")
                samples.append(Sample(key, outcome, ok, with_trace, trace))
                cost += outcome.wall
            cheapest[key] = min(cheapest.get(key, cost), cost)
        first_pass = False


def midmean(values) -> float:
    """The mean of the middle half of the values: a time that moves less
    from run to run than a median, and ignores the outliers a mean keeps."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.mean(values[cut:len(values) - cut])


def _beta_cdf(a, b, x) -> float:
    """The regularized incomplete beta function I_x(a, b), by its continued
    fraction (modified Lentz), as in Numerical Recipes' betai."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _beta_cdf(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(1.0 - x)) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(400):
        m = i // 2
        if i == 0:
            term = 1.0
        elif i % 2:
            term = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            term = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 + term * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + term / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-14:
            break
    return front * (f - 1.0)


def harrell_davis(values, p) -> float:
    """The Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics, weighted by a Beta((n+1)p, (n+1)(1-p)) distribution.  A
    pass's latencies fall in clusters, and a quantile that reads one or two
    order statistics jumps across the gaps between them from run to run."""
    values = sorted(values)
    n = len(values)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum(v * (hi - lo) for v, lo, hi in zip(values, cdf, cdf[1:]))


def typical(samples) -> dict:
    """Each request's median sample in the run, by wall time.

    The machines this runs on switch between a fast and a slow speed every
    few seconds, as other tenants come and go.  A request's fastest sample
    depends on whether a fast spell happened to meet it, so it moves from
    run to run; the median of its samples repeats.  Failed samples, which
    may have stopped early, count only when the request has no correct one.
    """
    by_key = {}
    for s in samples:
        by_key.setdefault(s.key, []).append(s)
    chosen = {}
    for key, group in by_key.items():
        pool = [s for s in group if s.ok] or group
        pool.sort(key=lambda s: s.outcome.wall)
        chosen[key] = pool[(len(pool) - 1) // 2]
    return chosen


def end_to_end_metrics(samples, setup) -> dict:
    """Times in seconds on the reference machine: each measured time
    divided by the run's slowdown.  A pass's latencies are each request's
    midmean over the run: wall_s is their sum, and the percentiles are
    their Harrell-Davis estimates."""
    slowdown = setup.slowdown()
    by_key = {}
    for s in samples:
        by_key.setdefault(s.key, []).append(s.outcome.wall)
    latencies = [midmean(w) for w in by_key.values()]
    return {
        "wall_s": sum(latencies) / slowdown,
        "req_p50_s": harrell_davis(latencies, 0.5) / slowdown,
        "req_p90_s": harrell_davis(latencies, 0.9) / slowdown,
        "setup_s": statistics.median(setup.walls) / slowdown,
        "peak_rss_mb": max(s.outcome.maxrss_kb for s in samples) / 1024,
        "ok_ratio": sum(1 for s in samples if s.ok) / len(samples),
    }


def layer_values(trace) -> dict:
    """Per-layer figures of one traced request."""
    values = {name: 0 for name in PER_LAYER if name != "trace.overhead_s"}
    values["cli.import_s"] = trace["import_s"]
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    for (name, start, end, _), covered in zip(spans, child_time):
        time_metric, count_metric = SPAN_METRICS[name]
        values[time_metric] += end - start - covered
        if count_metric:
            values[count_metric] += 1
    c = trace["counters"]
    values.update({
        "exact.rref_calls": c["rref_calls"], "exact.rref_s": c["rref_s"],
        "exact.rref_cells": c["rref_cells"],
        "exact.matmul_calls": c["matmul_calls"], "exact.matmul_s": c["matmul_s"],
        "exact.matmul_dense_mults": c["matmul_dense_mults"],
        "exact.parampoly_mul_calls": c["parampoly_mul_calls"],
        # numerators and denominators of the ratios, summed before dividing
        "_matmul_nonzero_pairs": c["matmul_nonzero_pairs"],
        "_build_hits": (trace["build_cache"] or {}).get("hits", 0),
        "_build_lookups": sum((trace["build_cache"] or {}).values()),
    })
    return values


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else None


def per_layer_metrics(samples) -> dict:
    """Layer figures of each request's median traced sample, summed over a
    pass; ratios divide the summed numerators by the summed bases."""
    traced = typical([s for s in samples if s.trace is not None])
    if not traced:
        return dict.fromkeys(PER_LAYER), []
    totals = {}
    for s in traced.values():
        for name, value in layer_values(s.trace).items():
            totals[name] = totals.get(name, 0) + value
    metrics = {name: totals[name] for name in PER_LAYER if name in totals}
    metrics["exact.matmul_useful_ratio"] = _ratio(
        totals["_matmul_nonzero_pairs"], totals["exact.matmul_dense_mults"])
    metrics["forms.build_cache_hit_ratio"] = _ratio(
        totals["_build_hits"], totals["_build_lookups"])
    untraced = typical([s for s in samples if not s.traced])
    metrics["trace.overhead_s"] = (
        sum(s.outcome.wall for s in traced.values())
        - sum(s.outcome.wall for s in untraced.values()))
    missing = sorted({m for s in traced.values() for m in s.trace["missing"]})
    for hook in missing:
        for name in HOOK_METRICS.get(hook, ()):
            metrics[name] = None
    if any(s.trace["build_cache"] is None for s in traced.values()):
        metrics["forms.build_cache_hit_ratio"] = None
    return {name: metrics[name] for name in PER_LAYER}, missing


def describe(samples, metrics, missing) -> None:
    """Human-readable lines ahead of the result line: each request's median
    latency and, in a traced run, its median traced latency with its
    largest layers."""
    print(f"{len(samples)} requests over {len({s.key for s in samples})} kinds")
    untraced = typical([s for s in samples if not s.traced])
    traced = typical([s for s in samples if s.trace is not None])
    for key, s in sorted(untraced.items()):
        line = f"  {s.outcome.wall:8.3f} s  {key}"
        if key in traced:
            values = layer_values(traced[key].trace)
            top = sorted(((values[n], n) for n in PER_LAYER
                          if n.endswith("_s") and n in values), reverse=True)[:4]
            line += f"\n      traced {traced[key].outcome.wall:.3f} s: " + ", ".join(
                f"{n} {v:.3f}" for v, n in top)
        print(line)
    if missing:
        print("missing hook points: " + ", ".join(missing))
    for name, value in metrics.items():
        print(f"  {name} = {value}")


def result_line(samples, metrics, units) -> str:
    failed = sum(1 for s in samples if not s.ok)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def record(env, tmp) -> int:
    """Write bench/expected.json: stdout digest and exit code per request."""
    requests = {request_key(r): r for rs in WORKLOADS.values() for r in rs}
    expected = {}
    for key, request in sorted(requests.items()):
        argv = [sys.executable, "-c", CLI_CODE, *request, "--format", "json"]
        outcome = run_process(argv, env, tmp)
        if outcome.timed_out or TRACEBACK in outcome.stderr:
            raise SystemExit(f"error: {key} did not finish cleanly")
        expected[key] = {"exit": outcome.code,
                         "sha256": hashlib.sha256(outcome.stdout).hexdigest()}
        print(f"{outcome.code}  {key}")
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def smoke(env, tmp) -> int:
    """One traced-and-untraced pass on torus2; every named metric emitted?"""
    expected = load_expected()
    setup = SetupProbe(SMOKE, env, tmp, 0.0)
    samples = closed_loop(SMOKE, expected, env, tmp, random.Random(0), 0.0, True,
                          setup)
    e2e = end_to_end_metrics([s for s in samples if not s.traced], setup)
    layers, missing = per_layer_metrics(samples)
    describe(samples, layers, missing)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    # a metric whose hook point is gone reads null by design
    unhooked = {n for hook in missing for n in HOOK_METRICS.get(hook, ())}
    problems = []
    for section, emitted in (("end_to_end", e2e), ("per_layer", layers)):
        names = [m["name"] for m in spec[section]]
        if sorted(names) != sorted(emitted):
            problems.append(f"{section}: BENCHMARK.json names {sorted(names)}, "
                            f"the benchmark emits {sorted(emitted)}")
        problems += [f"{section}: {n} has no value" for n in names
                     if emitted.get(n) is None and n not in unhooked]
    problems += [f"failed: {s.key}" for s in samples if not s.ok]
    for p in problems:
        print(p, file=sys.stderr)
    print(result_line(samples, {**e2e, **layers}, {**END_TO_END, **PER_LAYER}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (args.smoke or args.record or args.workload):
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "akh", "cli.py")):
        print(f"error: no akh sources under {SRC}; run from an akh checkout",
              file=sys.stderr)
        return 2
    # a stopped harness must not leave a request process running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = child_env()
    with tempfile.TemporaryDirectory(prefix=".bench_tmp", dir=ROOT) as tmp:
        if args.record:
            return record(env, tmp)
        if args.smoke:
            return smoke(env, tmp)
        requests = WORKLOADS[args.workload]
        setup = SetupProbe(requests, env, tmp, args.seconds)
        rng = random.Random(args.seed)
        samples = closed_loop(requests, load_expected(), env, tmp, rng,
                              args.seconds, bool(args.trace),
                              None if args.trace else setup)
        if args.trace:
            metrics, missing = per_layer_metrics(samples)
            units = PER_LAYER
        else:
            metrics, missing = end_to_end_metrics(samples, setup), []
            units = END_TO_END
            print(f"calibration {midmean(setup.calibration):.4f} s "
                  f"over {len(setup.calibration)} runs: slowdown "
                  f"{setup.slowdown():.4f}, the divisor of every time below")
        describe(samples, metrics, missing)
        print(f"python {platform.python_version()} on {platform.platform()}, "
              f"nproc {len(os.sched_getaffinity(0))}")
        print(result_line(samples, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
