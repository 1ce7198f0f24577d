"""Complex conjugation C as one signed permutation, and the ledger entries
derived through conjugation and adjunction.

d and the fundamental form are real and the metric is invariant under
conjugation, so C swaps mu_bar with mu and dbar with partial, fixes d, L,
lam and the Hodge star, and commutes with adjoints.  The ledger reads each
of its seven conjugate partners off C D C for its representative's
difference operators D, and each of its nine lam-side entries off the
transpose of its L-side partner's D (its differences are -D*).  Here every
partner is also computed directly, as the ledger once did, and the two must
agree in status, first failing block and witness.  The models are the
catalog, the 8-dimensional ladder and every product of two catalog models
of total dimension at most 8 (``make_ladder.product``), which include
failing entries of both kinds on h5_J, filiform4_J and their products.
"""

from pathlib import Path

import pytest

from akh.exact import GAUSS_I
from akh.forms import BlockOperator, Form, build
from akh.model import CATALOG_NAMES, catalog, load_model
from akh.operators import _adjoint, graded_commutator, laplacian, verify_identities
from linalg_reference import sort_with_sign
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


# derived entry -> the computed entry it is read off
CONJUGATE = {
    "L_mu_commute": "L_mubar_commute",
    "L_partial_commute": "L_dbar_commute",
    "L_mu_adj": "L_mubar_adj",
    "L_partial_adj": "L_dbar_adj",
    "mu_mubar_adj": "mubar_mu_adj",
    "mu_dbar_adj": "mubar_partial_adj",
    "dbar_partial_adj": "partial_dbar_adj",
}
ADJOINT = {
    "lam_mubar_adj_commute": "L_mubar_commute",
    "lam_mu_adj_commute": "L_mu_commute",
    "lam_dbar_adj_commute": "L_dbar_commute",
    "lam_partial_adj_commute": "L_partial_commute",
    "lam_mubar": "L_mubar_adj",
    "lam_mu": "L_mu_adj",
    "lam_dbar": "L_dbar_adj",
    "lam_partial": "L_partial_adj",
    "lam_lap_chain": "L_lap_chain",
}


def _direct_partners(alg):
    """The sides of the sixteen derived entries, computed as themselves."""
    mubar, dbar, partial, mu, L, lam = (alg.mu_bar, alg.dbar, alg.partial, alg.mu,
                                        alg.L, alg.lam)
    mubar_s, dbar_s, partial_s, mu_s = (_adjoint(alg, name)
                                        for name in ("mu_bar", "dbar", "partial", "mu"))
    lap_mubar, lap_dbar, lap_partial, lap_mu = (laplacian(op) for op in (mubar, dbar, partial, mu))
    zero, gc, i = BlockOperator.zero(alg), graded_commutator, GAUSS_I
    return {
        "L_mu_commute": (gc(L, mu), zero),
        "lam_mubar_adj_commute": (gc(lam, mubar_s), zero),
        "lam_mu_adj_commute": (gc(lam, mu_s), zero),
        "L_partial_commute": (gc(L, partial), zero),
        "lam_dbar_adj_commute": (gc(lam, dbar_s), zero),
        "lam_partial_adj_commute": (gc(lam, partial_s), zero),
        "L_mu_adj": (gc(L, mu_s), mubar.scale(-i)),
        "lam_mubar": (gc(lam, mubar), mu_s.scale(i)),
        "lam_mu": (gc(lam, mu), mubar_s.scale(-i)),
        "L_partial_adj": (gc(L, partial_s), dbar.scale(i)),
        "lam_dbar": (gc(lam, dbar), partial_s.scale(-i)),
        "lam_partial": (gc(lam, partial), dbar_s.scale(i)),
        "mu_mubar_adj": (gc(mu, mubar_s), zero),
        "mu_dbar_adj": (gc(mu, dbar_s), gc(partial, mubar_s)),
        "dbar_partial_adj": (gc(dbar, partial_s), gc(mu_s, partial) + gc(mubar, dbar_s)),
        "lam_lap_chain": (gc(lam, lap_dbar), gc(lam, lap_mubar),
                          -gc(lam, lap_partial), -gc(lam, lap_mu),
                          gc(dbar_s, partial_s).scale(-i), gc(mubar_s, mu_s).scale(i)),
    }


def _outcome(alg, sides):
    """(holds, first failing block, witness) of sides[0] = sides[1] = ...,
    checked member by member against the first."""
    for other in sides[1:]:
        hit = (other - sides[0]).first_nonzero()
        if hit is not None:
            return False, hit[0], alg.basis_form(*hit)
    return True, None, None


@pytest.mark.parametrize("source", CATALOG_NAMES + LADDER + tuple(PAIRS),
                         ids=lambda s: s if isinstance(s, str) else "_x_".join(s))
def test_derived_partners_match_the_direct_ones(source):
    model = _model(source)
    alg = build(model)
    ledger = verify_identities(model)
    direct = _direct_partners(alg)
    assert set(direct) == set(CONJUGATE) | set(ADJOINT)
    ids = [entry.id for entry in ledger.entries]
    by_id = {e.id: e for e in ledger.entries}
    for entry_id, sides in direct.items():
        entry = by_id[entry_id]
        assert (entry.holds, entry.first_failing_block, entry.witness) == \
            _outcome(alg, sides), entry_id
        # each partner follows the entry it is read off
        representative = CONJUGATE.get(entry_id) or ADJOINT[entry_id]
        assert ids.index(representative) < ids.index(entry_id)


def test_derived_partners_include_failures():
    # the comparison above sees witnesses, not only "holds", for both rules
    for source in ("h5_J", "filiform4_J", ("h5_J", "torus2")):
        failing = {e.id for e in verify_identities(_model(source)).failures()}
        assert failing & set(CONJUGATE) and failing & set(ADJOINT), source


def test_warm_ledger_computes_twelve_entries(monkeypatch):
    # the sixteen partners cost no product and no adjoint: 50 products are
    # the twelve computed entries' commutators, Laplacians and star conjugate
    model = catalog("kodaira_thurston")
    verify_identities(model)  # adjoints, L, lam and star built once
    calls = {"compose": 0, "adjoint": 0}
    for name in calls:
        def counted(*args, name=name, method=getattr(BlockOperator, name)):
            calls[name] += 1
            return method(*args)
        monkeypatch.setattr(BlockOperator, name, counted)
    verify_identities(model)
    assert calls == {"compose": 50, "adjoint": 0}
