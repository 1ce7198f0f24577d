#!/usr/bin/env python3
"""Run the pinned CLI requests of bench/expected.json under each given
interpreter, in JSON, and compare exit codes and stdout digests with the
pins.

akh supports Python 3.10 and later, and its rational parser follows the
standard library's, which reads more from 3.11 and from 3.12 on; the test
suite runs on one interpreter only.  This script checks that every
supported one prints the same bytes.  It reads bench/expected.json and
writes nothing: no interpreter leaves bytecode behind.

Run from anywhere, one argument per interpreter:

    python3 scripts/cross_python.py python3.10 python3.12 python3.13

Prints one line per interpreter and per mismatch; exits 1 on any mismatch.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(ROOT, "bench", "expected.json")


def mismatches(python: str, expected: dict) -> list:
    """The requests whose exit code or stdout digest differs from the pin."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    out = []
    for request, pin in sorted(expected.items()):
        # the pins are of --format json, as bench/run.py runs each request
        argv = [python, "-m", "akh.cli", *request.split(), "--format", "json"]
        proc = subprocess.run(argv, cwd=ROOT, env=env,
                              stdin=subprocess.DEVNULL, capture_output=True, timeout=300)
        digest = hashlib.sha256(proc.stdout).hexdigest()
        if (proc.returncode, digest) != (pin["exit"], pin["sha256"]):
            out.append(f"  {request}: exit {proc.returncode}, sha256 {digest[:12]}; "
                       f"pinned exit {pin['exit']}, sha256 {pin['sha256'][:12]}")
    return out


def main(pythons) -> int:
    if not pythons:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    failed = False
    for python in pythons:
        version = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                                 capture_output=True, text=True, check=True).stdout.strip()
        bad = mismatches(python, expected)
        print(f"{python} (Python {version}): {len(expected) - len(bad)} of {len(expected)} match")
        print("\n".join(bad), end="\n" if bad else "")
        failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
