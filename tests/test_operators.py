import itertools
import json
from fractions import Fraction

import pytest

from akh.exact import GaussScalar, kernel, vstack
from akh.forms import AlgebraError, build
from akh.model import catalog, validate
from akh.operators import (
    graded_commutator,
    laplacian,
    laplacian_symmetry_witness,
    star_conjugate,
    verify_identities,
)

ALL_HOLD_MODELS = ("torus2", "torus4", "torus6", "kodaira_thurston",
                   "filiform4_Jprime")


def gs(re, im=0):
    return GaussScalar(Fraction(re), Fraction(im))


# ---------------------------------------------------------------------------
# adjoints


def test_adjoint_is_involutive():
    alg = build(catalog("kodaira_thurston"))
    for op in (alg.dbar, alg.mu, alg.partial, alg.L, alg.d):
        assert op.adjoint().adjoint() == op


def test_adjoint_pairing():
    # <op a, b> = <a, op* b> for every basis pair
    alg = build(catalog("h5_J"))
    for op in (alg.dbar, alg.mu_bar, alg.L):
        ops = op.adjoint()
        for pq in alg.block_order:
            for i in range(alg.dim_block(pq)):
                a = alg.basis_form(pq, i)
                oa = op.apply(a)
                for bq in oa.bidegrees():
                    for j in range(alg.dim_block(bq)):
                        b = alg.basis_form(bq, j)
                        assert oa.inner(b) == a.inner(ops.apply(b))


def test_lam_is_adjoint_of_L():
    for name in ("torus4", "kodaira_thurston", "h5_J"):
        alg = build(catalog(name))
        assert alg.lam == alg.L.adjoint()


def test_component_adjoints_via_star():
    # delta* = -star . (conjugate partner of delta) . star
    for name in ("kodaira_thurston", "h5_J", "filiform4_J"):
        alg = build(catalog(name))
        pairs = (
            (alg.mu_bar, alg.mu),
            (alg.dbar, alg.partial),
            (alg.partial, alg.dbar),
            (alg.mu, alg.mu_bar),
        )
        for op, partner in pairs:
            cand = alg.star.compose(partner).compose(alg.star).scale(gs(-1))
            assert op.adjoint() == cand


def test_d_adjoint_sums_component_adjoints():
    alg = build(catalog("kodaira_thurston"))
    total = (alg.mu_bar.adjoint() + alg.dbar.adjoint()
             + alg.partial.adjoint() + alg.mu.adjoint())
    assert alg.d.adjoint() == total


# ---------------------------------------------------------------------------
# graded commutators


def test_graded_commutator_parities():
    alg = build(catalog("kodaira_thurston"))
    # odd with odd anticommutes
    assert graded_commutator(alg.dbar, alg.dbar) == \
        alg.dbar.compose(alg.dbar) + alg.dbar.compose(alg.dbar)
    # even with odd is a plain commutator
    assert graded_commutator(alg.L, alg.dbar) == \
        alg.L.compose(alg.dbar) - alg.dbar.compose(alg.L)


def test_graded_commutator_rejects_mixed_parity():
    alg = build(catalog("kodaira_thurston"))
    mixed = alg.d + alg.L  # degree 1 plus degree 2: no homogeneous parity
    with pytest.raises(AlgebraError):
        graded_commutator(mixed, alg.dbar)


def test_graded_jacobi_identity():
    # sum over cyclic permutations of signed nested brackets vanishes
    alg = build(catalog("kodaira_thurston"))
    ops = {
        "mu_bar": alg.mu_bar, "dbar": alg.dbar, "partial": alg.partial,
        "mu": alg.mu, "L": alg.L, "lam": alg.lam,
    }
    def deg(op):
        return op.parity
    names = list(ops)
    for na, nb, nc in itertools.combinations_with_replacement(names, 3):
        a, b, c = ops[na], ops[nb], ops[nc]
        pa, pb, pc = deg(a), deg(b), deg(c)
        term1 = graded_commutator(a, graded_commutator(b, c))
        term2 = graded_commutator(b, graded_commutator(c, a))
        term3 = graded_commutator(c, graded_commutator(a, b))
        sign1 = gs((-1) ** (pa * pc))
        sign2 = gs((-1) ** (pb * pa))
        sign3 = gs((-1) ** (pc * pb))
        total = term1.scale(sign1) + term2.scale(sign2) + term3.scale(sign3)
        assert total.is_zero(), (na, nb, nc)


def test_anticommutator_matches_odd_graded_commutator():
    alg = build(catalog("h5_J"))
    anticommutator = alg.dbar.compose(alg.partial) + alg.partial.compose(alg.dbar)
    assert anticommutator == graded_commutator(alg.dbar, alg.partial)


# ---------------------------------------------------------------------------
# Laplacians


def test_laplacian_is_self_adjoint():
    alg = build(catalog("kodaira_thurston"))
    for op in (alg.dbar, alg.mu, alg.d):
        lap = laplacian(op)
        assert lap.adjoint() == lap


def test_laplacian_kernel_is_kernel_intersection():
    # ker(delta delta* + delta* delta) = ker delta meet ker delta*
    for name in ("kodaira_thurston", "h5_J"):
        model = catalog(name)
        alg = build(model)
        for op in (alg.dbar, alg.mu_bar, alg.d):
            lap = laplacian(op)
            ops = op.adjoint()
            for pq in alg.block_order:
                lap_mats = [lap.block(pq, s) for s in lap.shifts]
                lap_ker = kernel(vstack(lap_mats)) if lap_mats else None
                both = [op.block(pq, s) for s in op.shifts]
                both += [ops.block(pq, s) for s in ops.shifts]
                pair_ker = kernel(vstack(both)) if both else None
                if lap_ker is None:
                    assert pair_ker is None
                    continue
                assert len(lap_ker) == len(pair_ker)


def test_star_conjugate_swaps_laplacians():
    for name in ("kodaira_thurston", "h5_J"):
        alg = build(catalog(name))
        assert alg.star.compose(laplacian(alg.dbar)) == \
            laplacian(alg.partial).compose(alg.star)
        assert alg.star.compose(laplacian(alg.mu)) == \
            laplacian(alg.mu_bar).compose(alg.star)


def test_star_conjugate_helper():
    alg = build(catalog("kodaira_thurston"))
    conj_d = star_conjugate(alg, alg.d)
    # conjugating twice is the identity on operators of pure odd degree
    assert star_conjugate(alg, conj_d) == alg.d


# ---------------------------------------------------------------------------
# the identity ledger


@pytest.mark.parametrize("name", ALL_HOLD_MODELS)
def test_ledger_all_green_on_almost_kahler_models(name):
    ledger = verify_identities(catalog(name))
    assert ledger.all_hold
    assert len(ledger.entries) == 28
    assert ledger.failures() == ()


def test_ledger_failures_on_nonclosed_model():
    ledger = verify_identities(catalog("h5_J"))
    assert not ledger.all_hold
    failing = {e.id for e in ledger.failures()}
    assert failing == {
        "L_dbar_commute", "L_partial_commute",
        "lam_dbar_adj_commute", "lam_partial_adj_commute",
        "L_dbar_adj", "L_partial_adj", "lam_dbar", "lam_partial",
        "lap_cross", "lap_d_expand", "L_lap_chain", "lam_lap_chain",
        "weil_star",
    }
    # the mu-only identities survive without the closedness assumption
    by_id = {e.id: e for e in ledger.entries}
    for eid in ("L_mubar_commute", "lam_mubar", "mubar_partial_adj",
                "partial_dbar_adj", "lap_mu_split"):
        assert by_id[eid].holds


def test_cross_laplacian_failure_witness():
    # on the nonclosed integrable model the Laplacian comparison first
    # fails on (1,0), witnessed by the pinned generator a1 with
    # d a1 = -1/2 a2^a3 concentrated in the (1,0)-shift component
    model = catalog("h5_J")
    alg = build(model)
    entry = {e.id: e for e in verify_identities(model).entries}["lap_cross"]
    assert not entry.holds
    assert entry.first_failing_block == (1, 0)
    witness = entry.witness
    assert alg.format_form(witness) == "a1"
    dw = alg.d.apply(witness)
    assert alg.format_form(dw) == "-1/2*a2^a3"
    assert dw == alg.partial.apply(witness)
    # and the two Laplacians genuinely disagree on it
    left = laplacian(alg.dbar) + laplacian(alg.mu)
    right = laplacian(alg.partial) + laplacian(alg.mu_bar)
    assert left.apply(witness) != right.apply(witness)


def test_ledger_entry_lookup_and_text():
    ledger = verify_identities(catalog("torus2"))
    entry = {e.id: e for e in ledger.entries}["weil_star"]
    assert entry.holds
    text = ledger.to_text()
    assert "all identities hold" in text
    assert "weil_star" in text


def test_ledger_json_shape():
    ledger = verify_identities(catalog("h5_J"))
    data = ledger.to_json()
    assert data["model"] == "h5_J"
    assert data["all_hold"] is False
    assert len(data["entries"]) == 28
    json.dumps(data)  # serializable
    by_id = {e["id"]: e for e in data["entries"]}
    assert by_id["lap_cross"]["status"] == "fails"
    assert by_id["lap_cross"]["first_failing_block"] == [1, 0]
    assert "witness" in by_id["lap_cross"]
    assert by_id["lap_mu_split"]["status"] == "holds"
    assert "witness" not in by_id["lap_mu_split"]


# ---------------------------------------------------------------------------
# Laplacian symmetry between conjugate bidegrees


def test_laplacian_symmetry_on_almost_kahler_models():
    for name in ALL_HOLD_MODELS:
        assert laplacian_symmetry_witness(catalog(name)) is None


def test_laplacian_symmetry_witness_on_h5():
    model = catalog("h5_J")
    alg = build(model)
    witness = laplacian_symmetry_witness(model)
    assert alg.format_form(witness) == "a1"


def test_laplacian_symmetry_witness_on_filiform():
    model = catalog("filiform4_J")
    alg = build(model)
    witness = laplacian_symmetry_witness(model)
    assert alg.format_form(witness) == "a1^a1~ + -2*a1^a2~ + a2^a2~"
    # the witness separates the two mixed Laplacian kernels
    side_a = laplacian(alg.dbar) + laplacian(alg.mu)
    side_b = laplacian(alg.partial) + laplacian(alg.mu_bar)
    assert side_a.apply(witness).is_zero()
    assert not side_b.apply(witness).is_zero()
