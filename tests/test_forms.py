import itertools
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from akh.exact import GAUSS_ONE, GAUSS_ZERO, ExactMatrix, GaussScalar, hermitian_signature
from akh.forms import (
    AlgebraError,
    BigradedAlgebra,
    BlockOperator,
    Form,
    build,
    d_squared_relations,
    form_from_coordinates,
    form_from_json,
    form_to_json,
)
from akh.harmonic import betti
from akh.model import CATALOG_NAMES, catalog, load_model, validate


def gs(re, im=0):
    return GaussScalar(Fraction(re), Fraction(im))


def half(n=1):
    return GaussScalar(Fraction(n, 2))


# ---------------------------------------------------------------------------
# algebra shape


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_block_dimensions_binomial(name):
    alg = build(catalog(name))
    m = alg.m
    for p in range(m + 1):
        for q in range(m + 1):
            assert alg.dim_block((p, q)) == comb(m, p) * comb(m, q)
    total = sum(alg.dim_block(pq) for pq in alg.block_order)
    assert total == 4 ** m


def test_block_order_by_total_degree():
    alg = build(catalog("torus4"))
    degrees = [p + q for (p, q) in alg.block_order]
    assert degrees == sorted(degrees)
    # within a degree, holomorphic count decreases
    for k in range(2 * alg.m + 1):
        ps = [p for (p, q) in alg.block_order if p + q == k]
        assert ps == sorted(ps, reverse=True)


def test_build_is_cached():
    model = catalog("torus2")
    assert build(model) is build(model)


LAZY_ATTRIBUTES = ("gram", "gram_conj_inv", "star", "weight", "weight_inv",
                   "_lefschetz")


def test_betti_leaves_the_metric_layer_unbuilt():
    path = Path(__file__).resolve().parents[1] / "bench" / "models" / "kt_x_kt.json"
    # a name of its own keeps build's cache from returning an algebra that
    # another test has already used
    model = load_model(str(path))._replace(name="kt_x_kt_lazy")
    assert betti(model) == (1, 6, 17, 30, 36, 30, 17, 6, 1)
    alg = build(model)
    assert not set(LAZY_ATTRIBUTES) & set(vars(alg))
    for name in LAZY_ATTRIBUTES + ("L", "lam", "weight_h"):
        assert getattr(alg, name) is getattr(alg, name), name
    assert set(LAZY_ATTRIBUTES) <= set(vars(alg))


def test_build_checks_eagerly(monkeypatch):
    # d a1 = a2^a3, d a2 = a1^a3, d a3 = a1^a1~ gives d d a1 = a1^a2^a1~
    broken_d = [{(1, 2): GAUSS_ONE}, {(0, 2): GAUSS_ONE}, {(0, 3): GAUSS_ONE},
                {}, {}, {}]
    with monkeypatch.context() as patch:
        patch.setattr(BigradedAlgebra, "_differential_on_generators",
                      lambda self: broken_d)
        with pytest.raises(AlgebraError, match="d squared"):
            BigradedAlgebra(catalog("h5_J"))
    # doubling omega makes omega^m/m! integrate to 2^m, not +-1
    original = BigradedAlgebra._build_fundamental_form
    monkeypatch.setattr(BigradedAlgebra, "_build_fundamental_form",
                        lambda self: original(self).scale(gs(2)))
    with pytest.raises(AlgebraError, match="expected"):
        BigradedAlgebra(catalog("kodaira_thurston"))


# ---------------------------------------------------------------------------
# printed coframe differentials


def test_filiform_coframe_differentials_exact():
    alg = build(catalog("filiform4_J"))
    a = alg.generator_form(0)
    b = alg.generator_form(1)
    assert alg.d.apply(a).is_zero()
    assert alg.format_form(alg.mu_bar.apply(b)) == "(-1/2*i)*a1~^a2~"
    assert alg.format_form(alg.dbar.apply(b)) == \
        "-i*a1^a1~ + (-1/2*i)*a1^a2~ + (1/2*i)*a2^a1~"
    assert alg.format_form(alg.partial.apply(b)) == "(-1/2*i)*a1^a2"
    assert alg.mu.apply(b).is_zero()


def test_h5_pinned_coframe_differential():
    # d a1 = -1/2 a2^a3, purely of type (2,0), so equal to its (1,0)-shift part
    alg = build(catalog("h5_J"))
    a1 = alg.generator_form(0)
    da = alg.d.apply(a1)
    assert alg.format_form(da) == "-1/2*a2^a3"
    assert da == alg.partial.apply(a1)
    a2a3 = alg.generator_form(1).wedge(alg.generator_form(2))
    assert da == a2a3.scale(gs(Fraction(-1, 2)))
    assert alg.dbar.apply(a1).is_zero()
    assert alg.mu.apply(a1).is_zero()
    assert alg.mu_bar.apply(a1).is_zero()


def test_torus_differential_vanishes():
    alg = build(catalog("torus6"))
    for g in range(alg.m):
        assert alg.d.apply(alg.generator_form(g)).is_zero()


# ---------------------------------------------------------------------------
# differential structure


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_d_squared_relations_hold(name):
    alg = build(catalog(name))
    relations = d_squared_relations(alg)
    assert len(relations) == 7
    for rel in relations:
        assert rel["holds"], rel["id"]
        assert rel["witness"] is None


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_d_splits_into_four_shifts(name):
    alg = build(catalog(name))
    recombined = alg.mu_bar + alg.dbar + alg.partial + alg.mu
    for pq in alg.block_order:
        for shift in ((-1, 2), (0, 1), (1, 0), (2, -1)):
            assert alg.d.block(pq, shift) == recombined.block(pq, shift)


# ---------------------------------------------------------------------------
# the operator layout: blocks, shifts and degree slices are views of one matrix

KT_X_KT = Path(__file__).resolve().parents[1] / "bench" / "models" / "kt_x_kt.json"


def _view_operators(alg):
    return {"d": alg.d, "mu_bar": alg.mu_bar, "dbar": alg.dbar,
            "partial": alg.partial, "mu": alg.mu, "L": alg.L, "lam": alg.lam,
            "star": alg.star, "weight": alg.weight, "weight_inv": alg.weight_inv,
            "dbar*": alg.dbar.adjoint()}


@pytest.mark.parametrize("source", CATALOG_NAMES + ("kt_x_kt",))
def test_block_views_agree_with_apply(source):
    model = load_model(str(KT_X_KT)) if source == "kt_x_kt" else catalog(source)
    alg = build(model)
    for name, op in _view_operators(alg).items():
        shifts = op.shifts
        for pq in alg.block_order:
            views = {}
            for r, s in shifts:
                tgt = (pq[0] + r, pq[1] + s)
                if tgt in alg.blocks:
                    views[tgt] = op.block(pq, (r, s))
                    # the same entries sit in the total-degree slice
                    k, k_tgt = sum(pq), sum(tgt)
                    rows = alg.block_range(tgt)
                    cols = alg.block_range(pq)
                    start, col_start = alg.degree_range(k_tgt).start, alg.degree_range(k).start
                    piece = op.degree_slice(k, k_tgt).submatrix(
                        range(rows.start - start, rows.stop - start),
                        range(cols.start - col_start, cols.stop - col_start))
                    assert piece == views[tgt], (name, pq, (r, s))
            for j in range(alg.dim_block(pq)):
                expected = Form(alg, {tgt: [mat[i, j] for i in range(mat.rows)]
                                      for tgt, mat in views.items()})
                assert op.apply(alg.basis_form(pq, j)) == expected, (name, pq, j)


def test_block_zero_shapes():
    alg = build(catalog("h5_J"))
    m = alg.m
    # a target block out of range gives a matrix with no rows
    assert alg.mu.block((m, 0), (2, -1)).shape == (0, alg.dim_block((m, 0)))
    assert alg.dbar.block((1, m), (0, 1)).shape == (0, alg.dim_block((1, m)))
    # an absent shift gives a zero matrix of the target's shape
    absent = alg.dbar.block((1, 0), (1, 0))
    assert absent.shape == (alg.dim_block((2, 0)), alg.dim_block((1, 0)))
    assert absent.is_zero()
    zero = BlockOperator.zero(alg)
    assert zero.shifts == () and zero.parity == 0
    assert zero.block((1, 1)) == ExactMatrix.zeros(alg.dim_block((1, 1)), alg.dim_block((1, 1)))


def test_first_nonzero_is_the_first_basis_form_with_a_nonzero_image():
    alg = build(catalog("kodaira_thurston"))
    src = alg.block_range((1, 0))
    grid = [[0] * alg.size for _ in range(alg.size)]
    grid[alg.block_range((1, 1))[0]][src[1]] = 1  # a2 under shift (0, 1)
    grid[alg.block_range((2, 0))[0]][src[0]] = 1  # a1 under shift (1, 0)
    op = BlockOperator(alg, ExactMatrix(grid))
    assert op.shifts == ((0, 1), (1, 0))
    assert op.parity == 1
    assert op.first_nonzero() == ((1, 0), 0)
    assert not op.apply(alg.basis_form((1, 0), 0)).is_zero()
    assert op.block((1, 0), (0, 1))[0, 1] == GAUSS_ONE


def test_component_shifts():
    alg = build(catalog("kodaira_thurston"))
    assert alg.mu_bar.shift == (-1, 2)
    assert alg.dbar.shift == (0, 1)
    assert alg.partial.shift == (1, 0)
    assert alg.mu.shift == (2, -1)


@pytest.mark.parametrize("name", ("kodaira_thurston", "h5_J", "filiform4_J"))
def test_leibniz_rule_for_d(name):
    alg = build(catalog(name))
    # check on all products of basis 1-forms with basis k-forms, k <= 2
    ones = [alg.basis_form(pq, i)
            for pq in ((1, 0), (0, 1))
            for i in range(alg.dim_block(pq))]
    others = [alg.basis_form(pq, i)
              for pq in alg.block_order if pq[0] + pq[1] <= 2
              for i in range(alg.dim_block(pq))]
    for alpha in ones:
        dalpha = alg.d.apply(alpha)
        for beta in others:
            lhs = alg.d.apply(alpha.wedge(beta))
            rhs = dalpha.wedge(beta) - alpha.wedge(alg.d.apply(beta))
            assert lhs == rhs


def test_conjugation_swaps_dbar_and_partial():
    for name in ("kodaira_thurston", "h5_J", "filiform4_J"):
        alg = build(catalog(name))
        for pq in alg.block_order:
            for i in range(alg.dim_block(pq)):
                f = alg.basis_form(pq, i)
                assert alg.partial.apply(f) == alg.dbar.apply(f.conj()).conj()
                assert alg.mu.apply(f) == alg.mu_bar.apply(f.conj()).conj()


def test_mu_components_vanish_iff_integrable():
    for name in CATALOG_NAMES:
        alg = build(catalog(name))
        integrable = validate(catalog(name)).integrable
        assert alg.mu.is_zero() is integrable, name
        assert alg.mu_bar.is_zero() is integrable, name


# ---------------------------------------------------------------------------
# metric, star, volume


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_gram_positive_definite(name):
    alg = build(catalog(name))
    for pq in alg.block_order:
        n = alg.dim_block(pq)
        sig = hermitian_signature(alg.gram[pq])
        assert sig == (n, 0, 0)


def test_star_defining_equation():
    # alpha wedge conj(star beta) integrates to the inner product
    for name in ("kodaira_thurston", "filiform4_J", "h5_J"):
        alg = build(catalog(name))
        for pq in alg.block_order:
            n = alg.dim_block(pq)
            for i in range(n):
                for j in range(n):
                    alpha = alg.basis_form(pq, i)
                    beta = alg.basis_form(pq, j)
                    wedge = alpha.wedge(alg.star.apply(beta).conj())
                    assert wedge.integrate() == alpha.inner(beta)


def test_star_is_isometry():
    alg = build(catalog("kodaira_thurston"))
    for pq in alg.block_order:
        n = alg.dim_block(pq)
        for i in range(n):
            for j in range(n):
                alpha = alg.basis_form(pq, i)
                beta = alg.basis_form(pq, j)
                lhs = alg.star.apply(alpha).inner(alg.star.apply(beta))
                assert lhs == beta.inner(alpha)


def test_star_maps_block_to_dual_block():
    for name in ("kodaira_thurston", "h5_J"):
        alg = build(catalog(name))
        m = alg.m
        for pq in alg.block_order:
            for i in range(alg.dim_block(pq)):
                sf = alg.star.apply(alg.basis_form(pq, i))
                target = (m - pq[1], m - pq[0])
                assert set(sf.components) <= {target}


def test_star_of_omega_powers():
    # star(omega^k / k!) = omega^(m-k) / (m-k)!
    for name in ("torus6", "kodaira_thurston", "h5_J"):
        alg = build(catalog(name))
        m = alg.m
        omega = alg.fundamental_form
        powers = [alg.form_from_monomials({(): GAUSS_ONE})]
        for _ in range(m):
            powers.append(powers[-1].wedge(omega))
        for k in range(m + 1):
            lhs = alg.star.apply(powers[k].scale(gs(Fraction(1, factorial(k)))))
            rhs = powers[m - k].scale(gs(Fraction(1, factorial(m - k))))
            assert lhs == rhs


def factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def test_volume_form_and_orientation():
    # the J-orientation of the KT frame is negative
    alg = build(catalog("kodaira_thurston"))
    assert alg.integrate(alg.volume_form) == GAUSS_ONE
    coords = alg.real_coordinates(alg.volume_form, 4)
    assert coords == (gs(-1),)
    # torus4 coframe is positively oriented
    alg4 = build(catalog("torus4"))
    assert alg4.real_coordinates(alg4.volume_form, 4) == (gs(1),)


def test_star_squared_sign():
    # on a 2m-dimensional space, star^2 = (-1)^k on k-forms
    alg = build(catalog("kodaira_thurston"))
    for pq in alg.block_order:
        k = pq[0] + pq[1]
        for i in range(alg.dim_block(pq)):
            f = alg.basis_form(pq, i)
            ss = alg.star.apply(alg.star.apply(f))
            assert ss == (f if k % 2 == 0 else f.scale(gs(-1)))


# ---------------------------------------------------------------------------
# Lefschetz triple


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_sl2_relations(name):
    alg = build(catalog(name))
    m = alg.m
    h = alg.weight_h
    # counting operator acts as (p+q-m) per block
    for pq in alg.block_order:
        n = alg.dim_block(pq)
        expected = gs(pq[0] + pq[1] - m)
        mat = h.block(pq, (0, 0))
        for i in range(n):
            for j in range(n):
                assert mat[i, j] == (expected if i == j else GAUSS_ZERO)
    # [h, L] = 2L and [h, lam] = -2 lam and [L, lam] = h
    hl = h.compose(alg.L) - alg.L.compose(h)
    assert hl == alg.L + alg.L
    hlam = h.compose(alg.lam) - alg.lam.compose(h)
    assert hlam == alg.lam.scale(gs(-2))
    llam = alg.L.compose(alg.lam) - alg.lam.compose(alg.L)
    assert llam == h


def test_L_is_wedge_with_omega():
    alg = build(catalog("kodaira_thurston"))
    omega = alg.fundamental_form
    for pq in alg.block_order:
        for i in range(alg.dim_block(pq)):
            f = alg.basis_form(pq, i)
            assert alg.L.apply(f) == f.wedge(omega)


def test_weight_operator_powers_of_i():
    alg = build(catalog("kodaira_thurston"))
    powers = {0: gs(1), 1: gs(0, 1), 2: gs(-1), 3: gs(0, -1)}
    for pq in alg.block_order:
        factor = powers[(pq[0] - pq[1]) % 4]
        f = alg.basis_form(pq, 0)
        assert alg.weight.apply(f) == f.scale(factor)
        assert alg.weight_inv.apply(alg.weight.apply(f)) == f


# ---------------------------------------------------------------------------
# forms as values


def test_form_arithmetic_and_pruning():
    alg = build(catalog("torus4"))
    f = alg.basis_form((1, 0), 0)
    g = alg.basis_form((1, 0), 1)
    s = f + g
    assert s - f == g
    assert (s - s).is_zero()
    assert not s.is_zero()
    assert (1, 0) not in (f - f).components


def test_form_unknown_block_rejected():
    alg = build(catalog("torus2"))
    with pytest.raises(AlgebraError):
        Form(alg, {(5, 5): (GAUSS_ONE,)})


def test_wedge_anticommutes_on_odd_forms():
    alg = build(catalog("kodaira_thurston"))
    f = alg.generator_form(0)
    g = alg.generator_form(1).conj()
    assert f.wedge(g) == g.wedge(f).scale(gs(-1))
    assert f.wedge(f).is_zero()


def test_real_coordinates_round_trip():
    alg = build(catalog("kodaira_thurston"))
    n = 4
    for degree in range(n + 1):
        monos = list(itertools.combinations(range(n), degree))
        for k, mono in enumerate(monos):
            comps = {mono: GAUSS_ONE}
            f = alg.form_from_real(comps, degree=degree)
            coords = alg.real_coordinates(f, degree)
            assert len(coords) == len(monos)
            assert all(c == (GAUSS_ONE if i == k else GAUSS_ZERO)
                       for i, c in enumerate(coords))


def test_form_json_round_trip():
    alg = build(catalog("filiform4_J"))
    f = alg.basis_form((1, 1), 0).scale(gs(Fraction(1, 2), Fraction(-3, 4)))
    f = f + alg.basis_form((2, 0), 0)
    data = form_to_json(f)
    back = form_from_json(alg, data)
    assert back == f
    # keys are "p,q" strings with name/coefficient maps inside
    assert set(data) == {"1,1", "2,0"}


def test_form_from_json_keeps_the_wedge_sign():
    alg = build(catalog("h5_J"))
    a1, a2, a3 = (alg.generator_form(g) for g in range(3))
    swapped = form_from_json(alg, {"2,0": {"a2^a1": "1"}})
    assert swapped == a2.wedge(a1)
    assert swapped == -form_from_json(alg, {"2,0": {"a1^a2": "1"}})
    # a 3-cycle is even, a transposition odd
    assert form_from_json(alg, {"3,0": {"a3^a1^a2": "2"}}) == \
        a1.wedge(a2).wedge(a3).scale(gs(2))
    assert form_from_json(alg, {"2,1": {"a1~^a2^a1": "i"}}) == \
        a1.wedge(a2).wedge(a1.conj()).scale(gs(0, -1))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_form_json_round_trips_every_monomial(name):
    alg = build(catalog(name))
    f = alg.zero_form()
    for k, pq in enumerate(alg.block_order):
        for j in range(alg.dim_block(pq)):
            f = f + alg.basis_form(pq, j).scale(gs(Fraction(k + 1, j + 2), -j))
    assert form_from_json(alg, form_to_json(f)) == f


def test_monomial_names():
    alg = build(catalog("h5_J"))
    assert alg.generator_name(0) == "a1"
    assert alg.format_form(alg.generator_form(0).conj()) == "a1~"
    f = alg.generator_form(0).wedge(alg.generator_form(1).conj())
    assert alg.format_form(f) == "a1^a2~"
