import itertools
import os
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from akh.exact import (GAUSS_I, GAUSS_ONE, GAUSS_ZERO, AkhError, ExactMatrix, GaussScalar,
                       ParamPoly, hermitian_signature, kernel, rank, rref, vstack)
from akh.forms import (
    AlgebraError,
    BigradedAlgebra,
    BlockOperator,
    Form,
    build,
    form_from_coordinates,
    form_from_json,
    form_to_json,
    merge_wedge,
)
from akh.harmonic import (_holomorphic_vectors, ak_nonexistence_report, betti, ell_diamond,
                          harmonic_basis, hodge_index, holomorphic_forms, mu_bar_cohomology,
                          obstruction_report, primitive_decomposition)
from akh.model import (CATALOG_NAMES, LieModel, catalog, load_model, model_to_json, save_model,
                       validate)
from akh.operators import _adjoint, verify_identities
from linalg_reference import (form_from_real, inverse, real_coordinates, real_expansion,
                              real_harmonic_basis, sort_with_sign, sparse)
from test_ladder_golden import PRODUCTS, make_ladder


def gs(re, im=0):
    return GaussScalar(re, im)


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


LAZY_ATTRIBUTES = ("norm_sq", "star", "weight", "weight_inv",
                   "L", "lam", "weight_h")


def test_betti_leaves_the_metric_layer_unbuilt():
    path = Path(__file__).resolve().parents[1] / "bench" / "models" / "kt_x_kt.json"
    # a name of its own keeps build's cache from returning an algebra that
    # another test has already used
    model = load_model(str(path))._replace(name="kt_x_kt_lazy")
    assert betti(model) == (1, 6, 17, 30, 36, 30, 17, 6, 1)
    alg = build(model)
    assert not set(LAZY_ATTRIBUTES) & set(vars(alg))
    for name in LAZY_ATTRIBUTES:
        assert getattr(alg, name) is getattr(alg, name), name
    assert set(LAZY_ATTRIBUTES) <= set(vars(alg))


def test_build_checks_eagerly(monkeypatch):
    # d a1 = a2^a3, d a2 = a1^a3, d a3 = a1^a1~ gives d d a1 = a1^a2^a1~
    broken_d = [{(1, 2): GAUSS_ONE}, {(0, 2): GAUSS_ONE}, {(0, 3): GAUSS_ONE},
                {}, {}, {}]
    with monkeypatch.context() as patch:
        patch.setattr(BigradedAlgebra, "_differential_on_generators",
                      lambda self, table: broken_d)
        with pytest.raises(AlgebraError, match="d squared"):
            BigradedAlgebra(catalog("h5_J"))
    # the coframe skewed to (a1 + a2, a2, ...) still holds +i eigenvectors,
    # but omega = i sum a_g ^ a_g~ / |a_g|^2 written from it is not g(J., .)
    original = BigradedAlgebra._resolve_coframe

    def skewed(self):
        first, second, *rest = original(self)
        return (tuple(x + y for x, y in zip(first, second)), second, *rest)

    monkeypatch.setattr(BigradedAlgebra, "_resolve_coframe", skewed)
    for name, pair in (("torus4", "X1, X2"), ("kodaira_thurston", "X1, X3")):
        with pytest.raises(AlgebraError, match=f"disagrees with J on {pair}$"):
            BigradedAlgebra(catalog(name))


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
                expected = sum((form_from_coordinates(
                    alg, tgt, sparse([mat[i, j] for i in range(mat.rows)]))
                    for tgt, mat in views.items()), alg.zero_form())
                assert op.apply(alg.basis_form(pq, j)) == expected, (name, pq, j)
        assert op.shifts is shifts, name  # scanned once per operator


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
    assert zero.block((1, 1), (0, 0)) == ExactMatrix.zeros(alg.dim_block((1, 1)),
                                                           alg.dim_block((1, 1)))


def _nonzero_rows(mat):
    return Counter(frozenset(mat.row_items(i)) for i in range(mat.rows) if mat.row_items(i))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_columns_have_the_kernel_of_the_dense_column_slice(name):
    alg = build(catalog(name))
    components = ("mu_bar", "dbar", "partial", "mu")
    ops = {"d": alg.d, "lam": alg.lam}
    ops.update({c: getattr(alg, c) for c in components})
    ops.update({c + "*": _adjoint(alg, c) for c in components})
    for label, op in ops.items():
        for pq in alg.block_order:
            cols = op.columns(pq)
            dense = op.matrix.submatrix(range(alg.size), alg.block_range(pq))
            assert cols.cols == alg.dim_block(pq)
            assert kernel(cols) == kernel(dense), (label, pq)
            # the same nonzero rows, in shift order rather than layout order
            assert _nonzero_rows(cols) == _nonzero_rows(dense), (label, pq)


def test_columns_of_the_zero_operator_have_no_rows():
    alg = build(catalog("torus4"))
    assert alg.mu.is_zero()
    for pq in alg.block_order:
        assert alg.mu.columns(pq).shape == (0, alg.dim_block(pq))


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
    assert alg.mu_bar.shifts == ((-1, 2),)
    assert alg.dbar.shifts == ((0, 1),)
    assert alg.partial.shifts == ((1, 0),)
    assert alg.mu.shifts == ((2, -1),)


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


def _gram(alg):
    """The Hermitian Gram matrix of the monomial basis: the diagonal of
    ``alg.norm_sq``."""
    return ExactMatrix._from_rows([{i: GaussScalar(w)} for i, w in enumerate(alg.norm_sq)],
                                  alg.size)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_gram_positive_definite(name):
    alg = build(catalog(name))
    gram = _gram(alg)
    for pq in alg.block_order:
        n = alg.dim_block(pq)
        sig = hermitian_signature(gram.submatrix(alg.block_range(pq), alg.block_range(pq)))
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
                assert set(sf.bidegrees()) <= {target}


@pytest.mark.parametrize("name", ("kodaira_thurston", "h5_J", "torus6"))
def test_form_power_is_the_iterated_wedge(name):
    # for omega, for a ParamPoly family s*omega + t*(a (1,1) monomial) and for
    # the zero form, power(0) is the constant 1, power(1) the form, power(k)
    # the k-fold wedge
    alg = build(catalog(name))
    names = ("s", "t")
    omega = alg.fundamental_form
    family = (omega.scale(ParamPoly.variable(names, "s"))
              + alg.basis_form((1, 1), 0).scale(ParamPoly.variable(names, "t")))
    zero = alg.zero_form()
    one = Form(alg, {(): GAUSS_ONE})
    for form in (omega, family, zero):
        assert form.power(0) == one
        assert form.power(1) == form
        wedge = form
        for k in range(2, alg.m + 2):
            wedge = wedge.wedge(form)
            assert form.power(k) == wedge, k
    assert not family.power(alg.m).is_zero()
    assert family.power(alg.m + 1).is_zero()
    # a family with no parameters is the zero form: every positive power is zero
    assert all(zero.power(k).is_zero() for k in range(1, alg.m + 2))


@pytest.mark.parametrize("name", ("kodaira_thurston", "h5_J", "torus6"))
def test_form_power_stops_at_the_first_zero_product(name, monkeypatch):
    # omega^(m+1) = 0, so a huge power of omega costs at most 2m+1 wedges;
    # a form with a constant term never reaches zero: (1 + a1)^k = 1 + k a1
    alg = build(catalog(name))
    one_plus_a1 = Form(alg, {(): GAUSS_ONE, (0,): GAUSS_ONE})
    assert one_plus_a1.power(5) == Form(alg, {(): GAUSS_ONE, (0,): gs(5)})
    calls = Counter()
    wedge = Form.wedge

    def counted(self, other):
        calls["wedge"] += 1
        return wedge(self, other)

    monkeypatch.setattr(Form, "wedge", counted)
    assert alg.fundamental_form.power(10 ** 6).is_zero()
    assert 0 < calls["wedge"] <= 2 * alg.m + 1


def test_star_of_omega_powers():
    # star(omega^k / k!) = omega^(m-k) / (m-k)!
    for name in ("torus6", "kodaira_thurston", "h5_J"):
        alg = build(catalog(name))
        m = alg.m
        omega = alg.fundamental_form
        powers = [Form(alg, {(): GAUSS_ONE})]
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
    assert alg.volume_form.integrate() == GAUSS_ONE
    coords = real_coordinates(alg, alg.volume_form, 4)
    assert coords == {0: gs(-1)}
    # torus4 coframe is positively oriented
    alg4 = build(catalog("torus4"))
    assert real_coordinates(alg4, alg4.volume_form, 4) == {0: gs(1)}


SOURCES = CATALOG_NAMES + ("kt_x_kt", "h5_J_x_T2", "torus8", "torus10", "kt_x_h5_J")


def _source_model(source):
    """A catalog model, the rotated h5_J, a product of ``PRODUCTS`` or a
    committed ladder model."""
    if source == "h5_J_rotated":
        return _rotated("h5_J")
    if source in CATALOG_NAMES:
        return catalog(source)
    if source in PRODUCTS:
        return make_ladder.product(source, *map(catalog, PRODUCTS[source]))
    return load_model(str(LADDER / f"{source}.json"))


@pytest.mark.parametrize("source", SOURCES)
def test_volume_form_is_omega_to_the_m_over_m_factorial(source):
    alg = build(_source_model(source))
    m = alg.m
    assert alg.volume_form == alg.fundamental_form.power(m).scale(gs(Fraction(1, factorial(m))))
    assert alg.volume_form.integrate() == GAUSS_ONE
    # over the orthonormal real frame it is +-x_1^...^x_2m
    assert real_coordinates(alg, alg.volume_form, 2 * m) in ({0: gs(1)}, {0: gs(-1)})


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
    for name in CATALOG_NAMES:
        alg = build(catalog(name))
        omega = alg.fundamental_form
        for pq in alg.block_order:
            for i in range(alg.dim_block(pq)):
                f = alg.basis_form(pq, i)
                assert alg.L.apply(f) == f.wedge(omega), name


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
    assert (1, 0) not in (f - f).bidegrees()


def test_form_unknown_monomial_rejected():
    alg = build(catalog("torus2"))
    # not a monomial, unsorted, a repeated generator, a generator out of range
    for mono in ((5, 5), (1, 0), (0, 0), (2,)):
        with pytest.raises(AlgebraError):
            Form(alg, {mono: GAUSS_ONE})
    with pytest.raises(AlgebraError):
        form_from_coordinates(alg, (1, 0), {0: GAUSS_ONE, 1: GAUSS_ONE})
    with pytest.raises(AlgebraError):
        form_from_coordinates(alg, (1, 0), {-1: GAUSS_ONE})
    with pytest.raises(AlgebraError):
        form_from_coordinates(alg, (5, 5), {0: GAUSS_ONE})


def _mixed_forms(alg):
    """Fixed forms of mixed degree, with GaussScalar and ParamPoly coefficients."""
    t = ParamPoly.variable(("t",), "t") + GAUSS_I
    full = alg.form_from_vector(sparse([gs(j % 5 - 2, j % 3) for j in range(alg.size)]))
    thin = alg.form_from_vector({j: gs(1, -j) for j in range(0, alg.size, 3)})
    return (full, thin, alg.fundamental_form + alg.generator_form(0).conj(),
            full.scale(t), thin.scale(t * t) - alg.volume_form.scale(t))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_layout_and_block_views_rebuild_the_form(name):
    alg = build(catalog(name))
    for f in _mixed_forms(alg):
        assert not f.is_zero()
        assert alg.form_from_vector(alg.coordinates(f)) == f
        assert sum((form_from_coordinates(alg, pq, sparse(f.block(pq))) for pq in f.bidegrees()),
                   alg.zero_form()) == f
        assert all(f.coefficient(mono) == c for mono, c in f.terms.items())
        # equal forms built different ways hash equal
        for g in (alg.form_from_vector(alg.coordinates(f)), f + alg.zero_form(), -(-f)):
            assert g == f and hash(g) == hash(f)
        assert hash(f - f) == hash(alg.zero_form())
    for zero in (0, GAUSS_ZERO, ParamPoly(("t",), {})):
        for mono in alg.layout:
            assert Form(alg, {mono: zero}).is_zero()


def test_wedge_anticommutes_on_odd_forms():
    alg = build(catalog("kodaira_thurston"))
    f = alg.generator_form(0)
    g = alg.generator_form(1).conj()
    assert f.wedge(g) == g.wedge(f).scale(gs(-1))
    assert f.wedge(f).is_zero()


@pytest.mark.parametrize("name", CATALOG_NAMES + ("h5_J_rotated",))
def test_real_coordinates_round_trip(name):
    # real -> coframe goes through the solved inverse of T, coframe -> real
    # through T; the rotated h5_J has an orthogonalized coframe, the catalog
    # h5_J a pinned one
    model = _rotated("h5_J") if name == "h5_J_rotated" else catalog(name)
    alg = build(model)
    n = model.dim
    for degree in range(n + 1):
        monos = list(itertools.combinations(range(n), degree))
        for k, mono in enumerate(monos):
            comps = {mono: GAUSS_ONE}
            f = form_from_real(alg, comps)
            assert real_coordinates(alg, f, degree) == {k: GAUSS_ONE}


def test_wedge_is_associative_with_the_shuffle_sign():
    # a^b and (a^b)^c == a^(b^c) carry the sign that sorts the concatenated
    # generators, over basis forms of degree <= 2, with a polynomial factor
    alg = build(catalog("h5_J"))
    t = ParamPoly.variable(("t",), "t") + GAUSS_I
    basis = [(mono, Form(alg, {mono: GAUSS_ONE}))
             for mono in alg.layout if len(mono) <= 2]

    def shuffled(*monos):
        mono, sign = sort_with_sign(sum(monos, ()))
        if len(set(mono)) < len(mono):
            return alg.zero_form()
        return Form(alg, {mono: GaussScalar(sign)})

    for (ma, a), (mb, b) in itertools.product(basis, repeat=2):
        assert a.wedge(b) == shuffled(ma, mb)
    for (ma, a), (mb, b), (mc, c) in itertools.product(basis, repeat=3):
        expected = shuffled(ma, mb, mc)
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c)) == expected
        if not expected.is_zero():
            at = a.scale(t)
            assert at.wedge(b).wedge(c) == at.wedge(b.wedge(c)) == expected.scale(t)


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


# a document that is not an object, a block that is not one, a coefficient
# or monomial that is not a string, and overlong generators and block keys
MALFORMED_FORMS = {
    "list document": [],
    "list block": {"1,0": []},
    "int coefficient": {"1,0": {"a1": 3}},
    "null coefficient": {"1,0": {"a1": None}},
    "int monomial": {"1,0": {5: "1"}},
    "long generator": {"1,0": {"b" + "x" * 5000: "1"}},
    "long generator index": {"1,0": {"a" + "9" * 5000: "1"}},
    "long block key": {"x" * 5000: {"a1": "1"}},
}


@pytest.mark.parametrize("case", MALFORMED_FORMS)
def test_form_from_json_refuses_malformed_input_in_one_short_line(case):
    alg = build(catalog("kodaira_thurston"))
    with pytest.raises(AlgebraError) as info:
        form_from_json(alg, MALFORMED_FORMS[case])
    message = str(info.value)
    assert "\n" not in message and len(message) <= 200, message[:300]


# an overlong harmonic space name, indices past the int digit limit (their
# repr cannot be formatted), indices that are not ints, wedge powers that
# are not nonnegative ints, vector indices off the layout, an overlong
# monomial and an overlong matrix entry; operands that are not a Form or
# BlockOperator, models that are not a LieModel, generator indices and block
# keys the layout does not hold, model paths that are not paths (an int is
# a closed file descriptor here) and matrices that are not ExactMatrices
HUGE = 10 ** 5000
NO_FD = 2 ** 20
LIBRARY_REFUSALS = {
    "long harmonic space": lambda model, alg: harmonic_basis(model, "x" * 5000, 0, 0),
    "huge p, harmonic_basis": lambda model, alg: harmonic_basis(model, "d", HUGE, 0),
    "str q, harmonic_basis": lambda model, alg: harmonic_basis(model, "d", 0, "x" * 5000),
    "huge q, primitive_decomposition": lambda model, alg: primitive_decomposition(model, 0, HUGE),
    "huge p, mu_bar_cohomology": lambda model, alg: mu_bar_cohomology(model, HUGE, 0),
    "huge block": lambda model, alg: form_from_coordinates(alg, (HUGE, 0), {}),
    "str coordinate index": lambda model, alg: form_from_coordinates(alg, (1, 0), {"x": 1}),
    "str p, holomorphic_forms": lambda model, alg: holomorphic_forms(model, "x"),
    "float p, holomorphic_forms": lambda model, alg: holomorphic_forms(model, 1.0),
    "list block, form_from_coordinates": lambda model, alg: form_from_coordinates(alg, [1, 0], {}),
    "list block, Form.block": lambda model, alg: alg.generator_form(0).block([1, 0]),
    "index past the block, basis_form": lambda model, alg: alg.basis_form((1, 0), 9),
    "negative index, basis_form": lambda model, alg: alg.basis_form((1, 0), -1),
    "str index, basis_form": lambda model, alg: alg.basis_form((1, 0), "a"),
    "no such block, basis_form": lambda model, alg: alg.basis_form((9, 0), 0),
    "list block, dim_block": lambda model, alg: alg.dim_block([1, 0]),
    "no such block, dim_block": lambda model, alg: alg.dim_block((9, 0)),
    "no such block, block_range": lambda model, alg: alg.block_range((9, 0)),
    "str degree, degree_range": lambda model, alg: alg.degree_range("x"),
    "bool p, holomorphic_forms": lambda model, alg: holomorphic_forms(model, True),
    "bool bidegree, harmonic_basis": lambda model, alg: harmonic_basis(model, "d", True, False),
    "bool block, form_from_coordinates":
        lambda model, alg: form_from_coordinates(alg, (True, 0), {}),
    "bool index, basis_form": lambda model, alg: alg.basis_form((1, 0), True),
    "float J entry, LieModel": lambda model, alg: model._replace(J=[[0.5] * 4] * 4),
    "str bracket constant, LieModel":
        lambda model, alg: model._replace(brackets=((0, 1, 2, "1"),)),
    "complex J entry, LieModel":
        lambda model, alg: model._replace(J=[[GaussScalar(0, 1)] * 4] * 4),
    "str coframe entry, LieModel": lambda model, alg: model._replace(coframe=[["1", 0, 0, 0]] * 2),
    "2 coframe rows at dim 6, LieModel":
        lambda model, alg: catalog("h5_J")._replace(coframe=catalog("h5_J").coframe[:2]),
    "5-entry coframe row, LieModel": lambda model, alg: catalog("h5_J")._replace(
        coframe=(catalog("h5_J").coframe[0][:5],) + catalog("h5_J").coframe[1:]),
    "int coframe, LieModel": lambda model, alg: model._replace(coframe=5),
    "negative power, Form.power": lambda model, alg: alg.fundamental_form.power(-1),
    "float power, Form.power": lambda model, alg: alg.fundamental_form.power(1.5),
    "bool power, Form.power": lambda model, alg: alg.fundamental_form.power(True),
    "index past the layout, form_from_vector": lambda model, alg: alg.form_from_vector({99: 1}),
    "negative index, form_from_vector": lambda model, alg: alg.form_from_vector({-1: 1}),
    "str start, form_from_vector": lambda model, alg: alg.form_from_vector({0: 1}, "x"),
    "long monomial": lambda model, alg: Form(alg, {tuple(range(3000)): GAUSS_ONE}),
    "long matrix entry": lambda model, alg: ExactMatrix([["x" * 5000]]),
    "int, Form.wedge": lambda model, alg: alg.fundamental_form.wedge(5),
    "int, Form +": lambda model, alg: alg.fundamental_form + 5,
    "int, Form.inner": lambda model, alg: alg.fundamental_form.inner(5),
    "None, Form -": lambda model, alg: alg.fundamental_form - None,
    "None, BlockOperator -": lambda model, alg: alg.d - None,
    "int, BlockOperator.apply": lambda model, alg: alg.d.apply(5),
    "int, BlockOperator.compose": lambda model, alg: alg.d.compose(5),
    "int, BlockOperator +": lambda model, alg: alg.d + 5,
    "None algebra, Form": lambda model, alg: Form(None, {}),
    "None algebra, BlockOperator": lambda model, alg: BlockOperator(None, alg.d.matrix),
    "str model, build": lambda model, alg: build("x"),
    "str model, betti": lambda model, alg: betti("x"),
    "None model, ell_diamond": lambda model, alg: ell_diamond(None),
    "tuple model, validate": lambda model, alg: validate(("a", 4, (), ())),
    "None model, hodge_index": lambda model, alg: hodge_index(None),
    "None model, model_to_json": lambda model, alg: model_to_json(None),
    "index past the generators, generator_name": lambda model, alg: alg.generator_name(99),
    "bool index, generator_name": lambda model, alg: alg.generator_name(True),
    "index past the generators, monomial_name": lambda model, alg: alg.monomial_name((99,)),
    "three-int block, Form.block": lambda model, alg: alg.fundamental_form.block((1, 1, 1)),
    "int path, load_model": lambda model, alg: load_model(NO_FD),
    "int path, save_model": lambda model, alg: save_model(model, NO_FD),
    "None path, load_model": lambda model, alg: load_model(None),
    "int, rref": lambda model, alg: rref(5),
    "str, kernel": lambda model, alg: kernel("x"),
    "None, rank": lambda model, alg: rank(None),
    "list, hermitian_signature": lambda model, alg: hermitian_signature([[1]]),
    "list of int, vstack": lambda model, alg: vstack([1]),
    "Form on another algebra, Form.wedge":
        lambda model, alg: alg.fundamental_form.wedge(build(catalog("torus4")).fundamental_form),
    "Form on another algebra, BlockOperator.apply":
        lambda model, alg: alg.d.apply(build(catalog("torus4")).fundamental_form),
    "BlockOperator on another algebra, compose":
        lambda model, alg: alg.d.compose(build(catalog("torus4")).d),
    # the model is built before the call, so a plain tuple equal to it
    # reaches the model check only if build's cache keys on the type
    "tuple equal to a built model, betti": lambda model, alg: betti(tuple(model)),
}


@pytest.mark.parametrize("case", LIBRARY_REFUSALS)
def test_library_refusals_are_one_short_line(case):
    model = catalog("kodaira_thurston")
    with pytest.raises(AkhError) as info:
        LIBRARY_REFUSALS[case](model, build(model))
    message = str(info.value)
    assert "\n" not in message and len(message) <= 200, message[:300]


def test_model_files_refuse_a_file_descriptor_and_leave_it_open():
    model = catalog("torus2")
    read_end, write_end = os.pipe()
    try:
        with pytest.raises(AkhError):
            save_model(model, write_end)
        with pytest.raises(AkhError):
            load_model(read_end)
        os.fstat(read_end), os.fstat(write_end)  # neither end was closed
    finally:
        os.close(read_end)
        os.close(write_end)


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


# ---------------------------------------------------------------------------
# the orthogonal coframe: closed forms against the constructions they
# replaced, and frame changes that need Gram-Schmidt

LADDER = Path(__file__).resolve().parents[1] / "bench" / "models"


def _cayley(n, entries):
    """The rational rotation (I - A)(I + A)^-1 of the skew matrix A whose
    entries above the diagonal are ``entries`` {(i, j): a}."""
    A = [[0] * n for _ in range(n)]
    for (i, j), a in entries.items():
        A[i][j], A[j][i] = a, -a
    I, A = ExactMatrix.identity(n), ExactMatrix(A)
    R = (I - A) @ inverse(I + A)
    return [[R[i, j].re for j in range(n)] for i in range(n)]


def _frame_change(model, P):
    """The same Lie algebra and almost complex structure written in the frame
    Y_a = sum_b P[b][a] X_b, declared orthonormal: J becomes P^-1 J P, the
    bracket's target index goes through P^-1, and the coframe is derived
    afresh.  A rotation P keeps the metric; a P that commutes with J keeps J
    and changes only the metric."""
    n = model.dim
    rng = range(n)
    inv = inverse(ExactMatrix(P))
    Q = [[inv[i, j].re for j in rng] for i in rng]
    J = [[sum(Q[a][i] * model.J[i][j] * P[j][b] for i in rng for j in rng) for b in rng]
         for a in rng]
    brackets = []
    for i, j, k, c in model.brackets:
        for a, b in itertools.combinations(rng, 2):
            f = P[i][a] * P[j][b] - P[j][a] * P[i][b]
            if f:
                brackets.extend((a, b, d, c * f * Q[d][k]) for d in rng if Q[d][k])
    return LieModel(name=model.name + "_rotated", dim=n, brackets=brackets, J=J)


ROTATIONS = {
    "kodaira_thurston": {(0, 1): Fraction(1, 2), (1, 2): Fraction(1, 3), (0, 3): 2},
    "filiform4_Jprime": {(0, 2): Fraction(1, 2), (1, 3): Fraction(-1, 3), (2, 3): 1},
    "h5_J": {(0, 1): Fraction(1, 2), (2, 4): Fraction(1, 3), (1, 5): 1, (3, 4): Fraction(-1, 2)},
}


def _rotated(name):
    model = catalog(name)
    return _frame_change(model, _cayley(model.dim, ROTATIONS[name]))


def _gram_schmidt_ran(alg):
    """Whether the coframe differs from the halved RREF of the +i
    eigenvectors, i.e. orthogonalization changed some row."""
    reduced, _ = rref(ExactMatrix(alg.coframe))
    return ExactMatrix(alg.coframe) != reduced * half()


def _assemble(alg, blocks):
    """Operator from (source block, target block, matrix) triples."""
    rows = [{} for _ in range(alg.size)]
    for pq, tgt, mat in blocks:
        r0, c0 = alg.offset[tgt], alg.offset[pq]
        for i in range(mat.rows):
            rows[r0 + i].update((c0 + j, a) for j, a in mat.row_items(i))
    return BlockOperator(alg, ExactMatrix._from_rows(rows, alg.size))


def _oracle_metric(alg):
    """Gram matrix, star and the adjoint map built the old way: Gram entries
    from products of real-monomial expansions, star by solving
    W star = B per block, adjoints as conj(G)^-1 A^H conj(G)."""
    top = tuple(range(2 * alg.m))
    vol_coeff = (alg.fundamental_form.power(alg.m).coefficient(top)
                 / gs(factorial(alg.m)))
    gram, gram_conj_inv, star = [], [], []
    for pq in alg.block_order:
        expansions = [real_expansion(alg, mono) for mono in alg.blocks[pq]]

        def pairing(exp_a, exp_b, conj):
            return sum((c * (exp_b[r].conj() if conj else exp_b[r])
                        for r, c in exp_a.items() if r in exp_b), GAUSS_ZERO)

        G = ExactMatrix([[pairing(ea, eb, True) for eb in expansions] for ea in expansions])
        gram.append((pq, pq, G))
        gram_conj_inv.append((pq, pq, inverse(G.conj())))
        dual = (alg.m - pq[1], alg.m - pq[0])
        pair_basis = alg.blocks[(pq[1], pq[0])]
        W = ExactMatrix([[gs(merged[1]) if (merged := merge_wedge(a, t)) and merged[0] == top
                          else GAUSS_ZERO for t in alg.blocks[dual]] for a in pair_basis])
        B = ExactMatrix([[pairing(real_expansion(alg, a), eg, False) * vol_coeff
                          for eg in expansions] for a in pair_basis])
        star.append((pq, dual, inverse(W) @ B))
    gram, gram_conj_inv, star = (_assemble(alg, b) for b in (gram, gram_conj_inv, star))

    def adjoint(op):
        return gram_conj_inv.matrix @ op.matrix.conj_transpose() @ gram.matrix.conj()

    return gram, star, adjoint


COFRAME_SOURCES = CATALOG_NAMES + ("kt_x_kt", "h5_J_x_T2", "torus8", "h5_J_rotated")


@pytest.mark.parametrize("source", COFRAME_SOURCES)
def test_closed_form_metric_matches_the_solved_one(source):
    alg = build(_source_model(source))
    gram, star, adjoint = _oracle_metric(alg)
    assert _gram(alg) == gram.matrix
    assert alg.star == star
    assert alg.lam.matrix == adjoint(alg.L)
    assert alg.dbar.adjoint().matrix == adjoint(alg.dbar)
    assert alg.d.adjoint().matrix == adjoint(alg.d)
    u = alg.form_from_vector(sparse([gs(j % 5 - 2, j % 3) for j in range(alg.size)]))
    v = alg.form_from_vector(sparse([gs(j % 4, 1 - j % 7) for j in range(alg.size)]))
    assert u.inner(v) == sum(
        (a * gram.matrix[i, j] * b.conj() for i, a in alg.coordinates(u).items()
         for j, b in alg.coordinates(v).items() if gram.matrix[i, j]),
        GAUSS_ZERO)
    if source == "h5_J_rotated":
        assert _gram_schmidt_ran(alg)


@pytest.mark.parametrize("source", COFRAME_SOURCES)
def test_d_on_generators_matches_the_real_frame_route(source):
    # build reads d a_g off the brackets of the dual frame; the real frame
    # route writes d a_g = -sum c T[g][k] x_i ^ x_j over the brackets
    # [X_i, X_j] = c X_k and rewrites it through the solved inverse of T
    model = _source_model(source)
    alg = build(model)
    for g in range(2 * alg.m):
        t = dict(alg.T.row_items(g))
        comps = {}
        for i, j, k, c in model.brackets:
            if k in t:
                comps[i, j] = comps.get((i, j), GAUSS_ZERO) - GaussScalar(c) * t[k]
        assert alg.generator_form(g).d() == form_from_real(alg, comps)


@pytest.mark.parametrize("name", sorted(ROTATIONS))
def test_frame_change_keeps_every_invariant(name):
    # a rational rotation of the orthonormal frame is an isometric
    # isomorphism, so nothing computed may change; the derived coframe of the
    # rotated model is not orthogonal until Gram-Schmidt has run
    model, rotated = catalog(name), _rotated(name)
    assert _gram_schmidt_ran(build(rotated))
    assert betti(rotated) == betti(model)
    assert ell_diamond(rotated) == ell_diamond(model)._replace(model_name=rotated.name)
    ledger = [(e.id, e.holds) for e in verify_identities(model).entries]
    assert [(e.id, e.holds) for e in verify_identities(rotated).entries] == ledger
    report, rotated_report = obstruction_report(model), obstruction_report(rotated)
    assert rotated_report.fires == report.fires
    assert rotated_report.hol_dims == report.hol_dims
    assert (rotated_report.laplacian_witness is None) == (report.laplacian_witness is None)
    assert rotated_report.ak_nonexistence == report.ak_nonexistence._replace(
        model_name=rotated.name)


# ---------------------------------------------------------------------------
# frame changes that commute with J: the same J under another metric


def _j_level(model):
    """What depends on J alone: the Betti numbers, the holomorphic
    dimensions and the almost Kahler nonexistence verdict."""
    alg = build(model)
    return (betti(model), tuple(len(_holomorphic_vectors(alg, p)) for p in range(alg.m + 1)),
            ak_nonexistence_report(model).verdict)


def test_sheared_kodaira_thurston_keeps_the_j_level_data():
    # Y2 = X2 + X3 and Y4 = X4 - X1 commute with J (X1 -> X3, X2 -> X4) but
    # are not orthogonal: the frame declares another metric for the same J
    P = [[1, 0, 0, -1], [0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
    model = catalog("kodaira_thurston")
    sheared = _frame_change(model, P)
    assert sheared.J == model.J
    assert _j_level(sheared) == _j_level(model)
    assert betti(sheared) == (1, 3, 4, 3, 1)
    assert _j_level(model)[1:] == ((1, 1, 0), "inconclusive")
    assert not obstruction_report(sheared).fires


def _commuting(J, A):
    """A - J A J, which commutes with J because J^2 = -1."""
    n = len(J)
    JAJ = [[sum(J[i][k] * A[k][l] * J[l][j] for k in range(n) for l in range(n))
            for j in range(n)] for i in range(n)]
    return [[A[i][j] - JAJ[i][j] for j in range(n)] for i in range(n)]


def _j_commuting_rotation(J, entries):
    """The Cayley transform of the J-commuting part of the skew matrix whose
    entries above the diagonal are ``entries`` {(i, j): a}.  That part is
    skew too, so the result is a rotation that commutes with J."""
    n = len(J)
    S = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), a in entries.items():
        S[i][j], S[j][i] = Fraction(a), -Fraction(a)
    K = _commuting(J, S)
    return _cayley(n, {(i, j): K[i][j] for i, j in itertools.combinations(range(n), 2)})


def _assert_omega_is_g_of_j(model):
    """omega(X_a, X_b) = g(J X_a, X_b) = J[b][a] over the orthonormal frame,
    read off the real expansion of the fundamental form, and the volume form
    integrates to 1."""
    alg = build(model)
    pairs = list(itertools.combinations(range(model.dim), 2))
    coords = real_coordinates(alg, alg.fundamental_form, 2)
    assert {pairs[i]: c for i, c in coords.items()} == \
        {(a, b): gs(model.J[b][a]) for a, b in pairs if model.J[b][a]}
    assert alg.volume_form.integrate() == GAUSS_ONE


@pytest.mark.parametrize("source", SOURCES)
def test_fundamental_form_is_g_of_j(source):
    _assert_omega_is_g_of_j(_source_model(source))


@st.composite
def rotated_models(draw):
    """A catalog model with J conjugated to Q^T J Q by a random rational
    rotation Q and its pinned coframe dropped, so the coframe is derived
    afresh, Gram-Schmidt included."""
    model = catalog(draw(st.sampled_from(CATALOG_NAMES)))
    J = ExactMatrix(model.J)
    pairs = list(itertools.combinations(range(J.rows), 2))
    entries = draw(st.lists(st.sampled_from((0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 3))),
                            min_size=len(pairs), max_size=len(pairs)))
    Q = ExactMatrix(_cayley(J.rows, dict(zip(pairs, entries))))
    R = Q.transpose() @ J @ Q
    return model._replace(name=model.name + "_conjugated", coframe=None,
                          J=[[R[i, j].re for j in range(J.rows)] for i in range(J.rows)])


@settings(max_examples=30, deadline=None, database=None)
@given(rotated_models())
def test_fundamental_form_is_g_of_j_under_conjugation(model):
    _assert_omega_is_g_of_j(model)


@settings(max_examples=40, deadline=None, database=None)
@given(rotated_models().map(lambda model: ExactMatrix(model.J)))
def test_plus_i_eigenvectors_reduce_to_the_rows_of_j_plus_i(J):
    # J^2 = -1 makes the +i eigenspace of J^T the row space of J + i, and
    # the reduced row echelon form of a subspace is unique
    n, i = J.rows, ExactMatrix.identity(J.rows) * GAUSS_I
    eigen = kernel(J.transpose() - i)
    reduced, pivots = rref(J + i)
    assert len(pivots) == len(eigen) == n // 2
    assert (reduced.submatrix(range(len(pivots)), range(n)), pivots) == \
        rref(ExactMatrix._from_rows(eigen, n))


@st.composite
def j_commuting_frames(draw):
    name = draw(st.sampled_from(CATALOG_NAMES))
    model = catalog(name)
    n = model.dim
    entries = st.lists(st.integers(-1, 1), min_size=n * n, max_size=n * n)
    A = draw(entries)
    P = _commuting(model.J, [A[i * n:(i + 1) * n] for i in range(n)])
    orthogonal = draw(st.booleans())
    if orthogonal:
        P = _j_commuting_rotation(model.J, {(i, j): A[i * n + j]
                                            for i, j in itertools.combinations(range(n), 2)})
    assume(rank(ExactMatrix(P)) == n)
    return model, P, orthogonal


@settings(max_examples=25, deadline=None)
@given(j_commuting_frames())
def test_j_commuting_frame_changes_keep_the_j_level_data(frame):
    model, P, orthogonal = frame
    changed = _frame_change(model, P)
    assert changed.J == model.J
    assert _j_level(changed) == _j_level(model)
    if orthogonal:
        assert ell_diamond(changed) == ell_diamond(model)._replace(model_name=changed.name)


@pytest.mark.parametrize("name", ("kodaira_thurston", "torus4", "filiform4_Jprime"))
def test_hodge_index_matches_the_real_intersection_form(name):
    # hodge_index takes the Hermitian signature of the complex harmonic
    # 2-forms; the reference pairs real harmonic 2-forms in real frame
    # coordinates.  A J-commuting rotation (and, where one is listed, a
    # rotation) of the frame gives another coframe, hence another complex
    # basis, of an isomorphic structure
    model = catalog(name)
    P = _j_commuting_rotation(model.J, {(0, 1): 1, (0, 2): Fraction(1, 2), (1, 3): -1})
    assert P != [[int(i == j) for j in range(4)] for i in range(4)]
    changed = [_frame_change(model, P)] + ([_rotated(name)] if name in ROTATIONS else [])
    report = hodge_index(model)
    for each in [model] + changed:
        alg = build(each)
        assert alg.validation.almost_kahler
        reps = real_harmonic_basis(alg, 2)
        real = ExactMatrix([[a.wedge(b).integrate() for b in reps] for a in reps])
        assert real == real.transpose() and real == real.conj()
        assert hermitian_signature(real) == (report.b2_plus, report.b2_minus, 0)
        assert hodge_index(each) == report
