"""A fixed reference job that measures how fast the machine is right now.

    python3 bench/calibrate.py

It does what an akh request does without touching akh: start the
interpreter, import the standard modules the CLI uses, then multiply and
row-reduce small matrices of Fractions.  run.py times it next to the
requests and divides their times by it, which cancels the drift of a shared
machine's speed.  Its work must never change: the benchmark's reference
time REFERENCE_CALIBRATION_S in run.py was measured on it.  It prints a
digest of its result, which run.py checks.
"""

import argparse  # noqa: F401  (imported for its start-up cost, as the CLI does)
import dataclasses  # noqa: F401
import hashlib
import json
from fractions import Fraction

N = 12


def matrix(seed):
    return [[Fraction((seed * 31 + 7 * i + 3 * j * j) % 11 - 5, (i + 2 * j) % 7 + 1)
             for j in range(N)] for i in range(N)]


def matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(N)), Fraction(0)) for j in range(N)]
            for i in range(N)]


def rref(rows):
    rows = [list(r) for r in rows]
    pivot_row = 0
    for col in range(N):
        pivot = next((r for r in range(pivot_row, N) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        lead = rows[pivot_row][col]
        rows[pivot_row] = [x / lead for x in rows[pivot_row]]
        for r in range(N):
            if r != pivot_row and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
    return rows


def main():
    results = []
    for seed in range(2):
        product = matmul(matrix(seed), matrix(seed + 1))
        results.append([[str(x) for x in row] for row in rref(product)])
    print(hashlib.sha256(json.dumps(results).encode()).hexdigest())


if __name__ == "__main__":
    main()
