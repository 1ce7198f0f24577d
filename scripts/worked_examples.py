#!/usr/bin/env python3
"""Walk every catalog model end to end and print what the library sees.

Covers the full pipeline on each model: structure validation, the
identity ledger, the harmonic diamond with Betti numbers, Lefschetz and
signature data where the fundamental form closes, and the obstruction
report where it does not.

Run from the repository root:

    python3 scripts/worked_examples.py            # everything
    python3 scripts/worked_examples.py h5_J       # one model
"""

import sys
import time

from akh.forms import build
from akh.harmonic import (
    ak_nonexistence_report,
    ell_diamond,
    hard_lefschetz,
    hodge_index,
    hodge_riemann_check,
    obstruction_report,
    primitive_decomposition,
)
from akh.model import CATALOG_NAMES, catalog
from akh.operators import verify_identities


def banner(text):
    print()
    print("=" * 68)
    print(text)
    print("=" * 68)


def show_model(name):
    banner(name)
    model = catalog(name)
    alg = build(model)
    report = alg.validation
    print(f"dim {model.dim}, integrable: {report.integrable}, "
          f"closed fundamental form: {report.almost_kahler}")

    gens = ", ".join(alg.generator_name(g) for g in range(alg.m))
    print(f"coframe generators: {gens}")
    for g in range(alg.m):
        df = alg.d.apply(alg.generator_form(g))
        print(f"  d {alg.generator_name(g)} = {alg.format_form(df)}")

    print()
    ledger = verify_identities(model)
    if ledger.all_hold:
        print(f"identity ledger: all {len(ledger.entries)} identities hold")
    else:
        print(ledger.to_text())

    print()
    print(ell_diamond(model).to_text())

    if report.almost_kahler:
        lefschetz = hard_lefschetz(model)
        print(f"hard Lefschetz: all_iso={lefschetz.all_iso}, "
              f"monotone={lefschetz.monotone_ok}")
        middle = alg.m - (alg.m % 2)
        pd = primitive_decomposition(model, middle // 2, middle // 2)
        print(f"primitive split at ({middle // 2},{middle // 2}): "
              f"{pd.summand_dims} summing to {pd.ell}")
        hr = hodge_riemann_check(model, 0, 0)
        print(f"signed pairing at (0,0): signature {hr.signature_signed}")
        if model.dim == 4:
            index = hodge_index(model)
            print(f"intersection form: b2+ = {index.b2_plus}, "
                  f"b2- = {index.b2_minus}, ell(1,1) = {index.ell11}, "
                  f"relation holds: {index.relation_ok}")
    else:
        obstructions = obstruction_report(model)
        hol1 = obstructions.hol_dims[1]
        print(f"holomorphic 1-forms: {hol1}, b1 = {obstructions.b1}, "
              f"bound 2*{hol1} <= {obstructions.b1}: "
              f"{obstructions.symplectic_bound_ok}")
        if obstructions.laplacian_witness is not None:
            print("Laplacian asymmetry witness: "
                  f"{alg.format_form(obstructions.laplacian_witness)}")
        ak = ak_nonexistence_report(model)
        print(f"nonexistence argument: {ak.verdict}")
        print(f"  {ak.detail}")


def main(argv):
    names = argv or list(CATALOG_NAMES)
    unknown = [n for n in names if n not in CATALOG_NAMES]
    if unknown:
        print(f"unknown models: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(CATALOG_NAMES)}", file=sys.stderr)
        return 1
    start = time.monotonic()
    for name in names:
        show_model(name)
    print()
    print(f"total {time.monotonic() - start:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
