"""Complex conjugation C as one signed permutation, and the ledger entries
derived through it.

d and the fundamental form are real and the metric is invariant under
conjugation, so C swaps mu_bar with mu and dbar with partial, fixes d, L,
lam and the Hodge star, and commutes with adjoints.  The ledger reads each
of its eleven conjugate partners off C D C for its representative's
difference operators D; here every partner is also computed directly, as
the ledger did before, and the two must agree in status, first failing
block and witness.  The models are the catalog, the 8-dimensional ladder
and every product of two catalog models of total dimension at most 8
(``make_ladder.product``), which include failing entries on h5_J,
filiform4_J and their products.
"""

from pathlib import Path

import pytest

from akh.exact import GAUSS_I
from akh.forms import BlockOperator, Form, build, sort_with_sign
from akh.model import CATALOG_NAMES, catalog, load_model
from akh.operators import _adjoint, graded_commutator, verify_identities
from test_product_oracle import PAIRS, make_ladder

MODELS = Path(__file__).resolve().parents[1] / "bench" / "models"
LADDER = ("kt_x_kt", "h5_J_x_T2", "torus8")


def _model(source):
    if source in CATALOG_NAMES:
        return catalog(source)
    if source in LADDER:
        return load_model(str(MODELS / f"{source}.json"))
    first, second = source
    return make_ladder.product(f"{first}_x_{second}", catalog(first), catalog(second))


def _swap(alg, mono):
    """The conjugate of a_mono as (monomial, sign): bar every generator, then
    sort with the sign of the sorting permutation."""
    m = alg.m
    return sort_with_sign((g + m) if g < m else (g - m) for g in mono)


@pytest.mark.parametrize("source", CATALOG_NAMES + LADDER)
def test_conjugation_facts(source):
    alg = build(_model(source))
    for mono in alg.layout:
        swapped, sign = _swap(alg, mono)
        assert alg.C[alg.position[mono]] == (alg.position[swapped], sign)
        coeff = GAUSS_I + 2
        assert Form(alg, {mono: coeff}).conj() == Form(alg, {swapped: coeff.conj() * sign})
    mu_bar_s, dbar_s, partial_s, mu_s = (_adjoint(alg, name)
                                         for name in ("mu_bar", "dbar", "partial", "mu"))
    assert alg.mu_bar.conj() == alg.mu
    assert alg.dbar.conj() == alg.partial
    for op in (alg.d, alg.L, alg.lam, alg.star):
        assert op.conj() == op
    assert mu_bar_s.conj() == mu_s
    assert dbar_s.conj() == partial_s
    # the two commutators lap_d_expand takes as conjugates
    gc = graded_commutator
    assert gc(alg.mu_bar, partial_s).conj() == gc(alg.mu, dbar_s)
    assert gc(alg.partial, dbar_s).conj() == gc(alg.dbar, partial_s)
    for op in (alg.mu_bar, alg.dbar, alg.L, alg.star, dbar_s, alg.weight):
        assert op.conj().conj() == op
    # conj() is conjugate linear
    assert alg.dbar.scale(GAUSS_I).conj() == alg.partial.scale(-GAUSS_I)


def _direct_partners(alg):
    """The sides of the eleven conjugate partners, computed as themselves."""
    mubar, dbar, partial, mu, L, lam = (alg.mu_bar, alg.dbar, alg.partial, alg.mu,
                                        alg.L, alg.lam)
    mubar_s, dbar_s, partial_s, mu_s = (_adjoint(alg, name)
                                        for name in ("mu_bar", "dbar", "partial", "mu"))
    zero, gc, i = BlockOperator.zero(alg), graded_commutator, GAUSS_I
    return {
        "L_mu_commute": (gc(L, mu), zero),
        "lam_mu_adj_commute": (gc(lam, mu_s), zero),
        "L_partial_commute": (gc(L, partial), zero),
        "lam_partial_adj_commute": (gc(lam, partial_s), zero),
        "L_mu_adj": (gc(L, mu_s), mubar.scale(-i)),
        "lam_mu": (gc(lam, mu), mubar_s.scale(-i)),
        "L_partial_adj": (gc(L, partial_s), dbar.scale(i)),
        "lam_partial": (gc(lam, partial), dbar_s.scale(i)),
        "mu_mubar_adj": (gc(mu, mubar_s), zero),
        "mu_dbar_adj": (gc(mu, dbar_s), gc(partial, mubar_s)),
        "dbar_partial_adj": (gc(dbar, partial_s), gc(mu_s, partial) + gc(mubar, dbar_s)),
    }


def _outcome(alg, sides):
    """(holds, first failing block, witness) of sides[1] = sides[0]."""
    hit = (sides[1] - sides[0]).first_nonzero()
    if hit is None:
        return True, None, None
    return False, hit[0], alg.basis_form(*hit)


@pytest.mark.parametrize("source", CATALOG_NAMES + LADDER + tuple(PAIRS),
                         ids=lambda s: s if isinstance(s, str) else "_x_".join(s))
def test_derived_partners_match_the_direct_ones(source):
    model = _model(source)
    alg = build(model)
    ledger = verify_identities(model)
    direct = _direct_partners(alg)
    ids = [entry.id for entry in ledger.entries]
    for entry_id, sides in direct.items():
        entry = ledger.entry(entry_id)
        assert (entry.holds, entry.first_failing_block, entry.witness) == \
            _outcome(alg, sides), entry_id
        # each partner follows its representative
        assert ids.index(entry_id) % 2 == 1 and ids.index(entry_id) < 22


def test_derived_partners_include_failures():
    # the comparison above sees witnesses, not only "holds"
    for source in ("h5_J", "filiform4_J", ("h5_J", "torus2")):
        failing = {e.id for e in verify_identities(_model(source)).failures()}
        assert failing & set(_direct_partners(build(_model(source)))), source
