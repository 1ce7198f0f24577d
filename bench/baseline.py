"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/baseline.py --runs 10 [--workload NAME ...] [--trace-runs 3]
                              [--out bench/baseline.json]

For every workload this runs ``bench/run.py`` once per seed with tracing off
(and ``--trace-runs`` more times with tracing on), one run at a time, then
prints each metric's median, quartiles and quartile spread as a share of
the median next to the bound BENCHMARK.json gives it.  With ``--out`` it
writes the summary, the metric units, the workload descriptions and the
Python version, platform and processor count to a JSON file; workloads
already in that file and not run again are kept.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        if any(v is None for v in values):
            summary[name] = {"values": values}
            continue
        q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else (values[0],) * 3)
        med = statistics.median(values)
        summary[name] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "unit": results[0]["metrics"][name]["unit"],
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed,
                  args.first_seed + max(args.runs, args.trace_runs))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    report = {"workloads": {}}
    if args.out and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            report = json.load(fh)
    report.update({
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "run_seconds": spec["run_seconds"],
    })
    for workload in workloads:
        entry = report["workloads"][workload] = {
            "why": why.get(workload, "not gated by BENCHMARK.json"),
            "seeds": list(seeds)}
        for trace, runs in ((0, args.runs), (1, args.trace_runs)):
            if not runs:
                continue
            results = [run_once(workload, seed, spec["run_seconds"], trace)
                       for seed in seeds[:runs]]
            entry["attempted"] = entry.get("attempted", 0) + sum(
                r["attempted"] for r in results)
            entry["failed"] = entry.get("failed", 0) + sum(
                r["failed"] for r in results)
            summary = summarize(results)
            entry["per_layer" if trace else "end_to_end"] = summary
            for name, s in summary.items():
                if "median" not in s:
                    print(f"{workload:15s} {name:28s} missing")
                    continue
                bound = bounds.get(name)
                flag = "" if bound is None else f"  bound {bound}"
                if bound is not None and s["spread"] > bound:
                    flag += "  SPREAD OVER BOUND"
                print(f"{workload:15s} {name:28s} median {s['median']:.6g} "
                      f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                      f"spread {s['spread']:.3f}{flag}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
