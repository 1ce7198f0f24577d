"""Run one ``akh`` command line with the timing hooks of akh_hooks installed.

    PYTHONPATH=src AKH_BENCH_TRACE_OUT=trace.json \\
        python3 bench/traced_akh.py report --catalog h5_J --format json

Standard output and the exit code are those of ``akh`` itself; the spans and
counters go to the JSON file named by AKH_BENCH_TRACE_OUT.
"""

import sys
from time import perf_counter

_start = perf_counter()
import akh.cli  # noqa: E402  (the import is what cli.import_s times)
_import_s = perf_counter() - _start

import json  # noqa: E402
import os  # noqa: E402

from akh_hooks import Tracer  # noqa: E402


def main() -> int:
    out_path = os.environ["AKH_BENCH_TRACE_OUT"]
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.span("cli.main", akh.cli.main, sys.argv[1:])
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(_import_s), fh)


if __name__ == "__main__":
    sys.exit(main())
