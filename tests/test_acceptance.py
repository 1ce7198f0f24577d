"""Acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Every assertion is exact (integer or rational
equality); the only tolerances are the wall-clock budgets stated in the
individual tests.
"""

import itertools
import json
import time
from fractions import Fraction

from akh.cli import main as cli_main
from akh.exact import GaussScalar
from akh.forms import Form, build
from akh.harmonic import (
    AK_NONEXISTENCE_VERDICT,
    ak_nonexistence_report,
    betti,
    ell_diamond,
    hard_lefschetz,
    harmonic_basis,
    hodge_index,
    hodge_riemann_check,
    mu_bar_cohomology,
    primitive_decomposition,
)
from akh.model import CATALOG_NAMES, catalog, validate
from akh.operators import laplacian, verify_identities
from linalg_reference import in_span

AK_MODELS = ("torus2", "torus4", "torus6", "kodaira_thurston",
             "filiform4_Jprime")
ROUTES = ("d", "dbar+mu", "partial+mu_bar")


def gs(re, im=0):
    return GaussScalar(Fraction(re), Fraction(im))


def test_criterion_1_four_torus_bundle_reproduction():
    # harmonic diamond, Betti numbers, intersection form, and the small
    # cohomologies of the standard 4-dimensional nilmanifold model,
    # all exact and inside a 5 second budget
    start = time.monotonic()
    model = catalog("kodaira_thurston")

    diamond = ell_diamond(model)
    assert diamond.rows() == ((1,), (1, 1), (0, 3, 0), (1, 1), (1,))
    assert betti(model) == (1, 3, 4, 3, 1)

    index = hodge_index(model)
    assert (index.b2_plus, index.b2_minus) == (2, 2)
    assert index.ell11 == index.b2_minus + 1 == 3
    assert index.relation_ok
    assert not index.integrable
    assert index.ell20 == 0 and index.nonintegrable_20_vanishes

    assert mu_bar_cohomology(model, 0, 1) == 2
    assert mu_bar_cohomology(model, 1, 0) == 1

    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.2f}s"


def test_criterion_2_identity_ledger_exact_on_closed_models():
    # every ledger identity holds as an exact matrix equality on the torus
    # models and the 4-dim nilmanifold
    for name in ("torus2", "torus4", "torus6", "kodaira_thurston"):
        ledger = verify_identities(catalog(name))
        assert ledger.all_hold, (name, [e.id for e in ledger.failures()])
        assert len(ledger.entries) == 28


def test_criterion_3_nonclosed_integrable_failure_witness():
    # the 6-dimensional integrable model breaks the mixed Laplacian
    # identity at (1,0); the witness form a1 satisfies
    # d a1 = -1/2 a2^a3, all of it in the (1,0)-shift component, checked
    # coefficient by coefficient; the obstruction command exits 2
    model = catalog("h5_J")
    alg = build(model)
    assert validate(model).integrable

    entry = {e.id: e for e in verify_identities(model).entries}["lap_cross"]
    assert not entry.holds
    assert entry.first_failing_block == (1, 0)
    witness = entry.witness
    assert witness == alg.generator_form(0)

    da = alg.d.apply(witness)
    bc = alg.generator_form(1).wedge(alg.generator_form(2))
    assert da == bc.scale(gs(Fraction(-1, 2)))
    assert da == alg.partial.apply(witness)
    assert da.bidegrees() == ((2, 0),)
    assert da.block((2, 0)) == (gs(0), gs(0), gs(Fraction(-1, 2)))

    assert cli_main(["obstructions", "--catalog", "h5_J"]) == 2


def test_criterion_4_filiform_differentials_and_certificates():
    # printed coframe differentials byte-exact; the degenerate-family
    # argument returns the nonexistence verdict with a one-parameter
    # T2 and identically vanishing top power; the second structure on
    # the same algebra has the small diamond and equal middle Bettis
    start = time.monotonic()
    model = catalog("filiform4_J")
    alg = build(model)
    b = alg.generator_form(1)
    assert alg.format_form(alg.mu_bar.apply(b)) == "(-1/2*i)*a1~^a2~"
    assert alg.format_form(alg.dbar.apply(b)) == \
        "-i*a1^a1~ + (-1/2*i)*a1^a2~ + (1/2*i)*a2^a1~"
    assert alg.format_form(alg.partial.apply(b)) == "(-1/2*i)*a1^a2"

    report = ak_nonexistence_report(model)
    assert report.verdict == AK_NONEXISTENCE_VERDICT
    assert report.verdict.startswith("no invariant almost K")
    assert report.t1_is_full
    assert report.t2_dim == 1
    assert report.top_power_vanishes

    prime = catalog("filiform4_Jprime")
    diamond = ell_diamond(prime)
    assert diamond.rows() == ((1,), (0, 0), (0, 2, 0), (0, 0), (1,))
    b_numbers = betti(prime)
    assert b_numbers == (1, 2, 2, 2, 1)
    assert b_numbers[1] == b_numbers[2] == b_numbers[3] == 2

    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.2f}s"


def test_criterion_5_route_equivalence_with_containments():
    # on every model with closed fundamental form and every bidegree the
    # eightfold kernel and the two mixed Laplacian kernels have equal
    # dimension and each is contained in each of the others
    for name in AK_MODELS:
        model = catalog(name)
        alg = build(model)
        for pq in alg.block_order:
            spaces = {w: harmonic_basis(model, w, *pq) for w in ROUTES}
            dims = {w: len(v) for w, v in spaces.items()}
            assert len(set(dims.values())) == 1, (name, pq, dims)
            for wa, wb in itertools.permutations(ROUTES, 2):
                target = [list(f.block(pq)) for f in spaces[wb]]
                for f in spaces[wa]:
                    assert in_span(target, list(f.block(pq))), \
                        (name, pq, wa, wb)


def test_criterion_6_property_suites_all_models():
    # the full battery of structural properties, exact everywhere, under
    # a 60 second budget
    start = time.monotonic()

    for name in AK_MODELS:
        model = catalog(name)
        alg = build(model)
        m = alg.m
        diamond = ell_diamond(model)

        # diamond symmetries
        for p in range(m + 1):
            for q in range(m + 1):
                assert diamond.ell[p][q] == diamond.ell[q][p]
                assert diamond.ell[p][q] == diamond.ell[m - p][m - q]

        # degree sums bounded by Betti numbers; diagonal never empty
        for k in range(2 * m + 1):
            total = sum(diamond.ell[p][k - p]
                        for p in range(max(0, k - m), min(k, m) + 1))
            assert total <= diamond.betti[k]
        for k in range(m + 1):
            assert diamond.ell[k][k] >= 1

        # powers of the fundamental form are harmonic
        lap_d = laplacian(alg.d)
        power = Form(alg, {(): gs(1)})
        for _ in range(m + 1):
            assert lap_d.apply(power).is_zero()
            power = power.wedge(alg.fundamental_form)

        # hard Lefschetz isomorphisms and monotonicity
        lefschetz = hard_lefschetz(model)
        assert lefschetz.all_iso
        assert lefschetz.monotone_ok

        # primitive decomposition sums and orthogonality
        for pq in alg.block_order:
            decomposition = primitive_decomposition(model, *pq)
            assert decomposition.sum_ok, (name, pq)
            assert decomposition.orthogonal_ok, (name, pq)

        # positivity of the signed pairing on primitive harmonics
        for p in range(m + 1):
            for q in range(m + 1):
                if p + q <= m:
                    check = hodge_riemann_check(model, p, q)
                    assert check.positive_definite, (name, p, q)

    for name in CATALOG_NAMES:
        alg = build(catalog(name))
        m = alg.m

        # sl(2) relations with the counting operator eigenvalue p+q-m
        h = alg.weight_h
        for pq in alg.block_order:
            expected = gs(pq[0] + pq[1] - m)
            mat = h.block(pq, (0, 0))
            for i in range(alg.dim_block(pq)):
                for j in range(alg.dim_block(pq)):
                    assert mat[i, j] == (expected if i == j else gs(0))
        assert h.compose(alg.L) - alg.L.compose(h) == alg.L + alg.L
        assert h.compose(alg.lam) - alg.lam.compose(h) == \
            alg.lam.scale(gs(-2))
        assert alg.L.compose(alg.lam) - alg.lam.compose(alg.L) == h

        # adjoint cross-check through the star operator
        cand = alg.star.compose(alg.mu).compose(alg.star).scale(gs(-1))
        assert alg.mu_bar.adjoint() == cand

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.2f}s"


def test_criterion_7_reports_byte_identical(capsys):
    # two consecutive json report runs agree byte for byte on every
    # catalog model
    for name in CATALOG_NAMES:
        first_code = cli_main(["report", "--catalog", name,
                               "--format", "json"])
        first = capsys.readouterr().out
        second_code = cli_main(["report", "--catalog", name,
                                "--format", "json"])
        second = capsys.readouterr().out
        assert first_code == second_code
        assert first.encode("utf-8") == second.encode("utf-8"), name
        json.loads(first)
