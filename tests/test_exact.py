import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from akh.exact import (
    GAUSS_I,
    GAUSS_ONE,
    GAUSS_ZERO,
    ExactError,
    ExactMatrix,
    GaussScalar,
    ParamPoly,
    format_scalar,
    hermitian_signature,
    kernel,
    parse_rational,
    parse_scalar,
    rank,
    rref,
    vstack,
)
from linalg_reference import (dense, dense_hermitian_signature, dense_kernel, dense_rref, evaluate,
                              hstack, identity, in_span, inverse, solve, sparse, zeros)

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=7)
scalars = st.builds(GaussScalar, rationals, rationals)


def gs(re, im=0):
    return GaussScalar(Fraction(re), Fraction(im))


# ---------------------------------------------------------------------------
# scalars


def test_scalar_basics():
    z = gs(Fraction(1, 2), Fraction(-3, 4))
    assert z + z == gs(1, Fraction(-3, 2))
    assert z - z == GAUSS_ZERO
    assert GAUSS_I * GAUSS_I == gs(-1)
    assert z.conj().conj() == z
    assert (z * z.conj()).is_real()
    assert z.norm_sq() == Fraction(1, 4) + Fraction(9, 16)
    assert bool(GAUSS_ZERO) is False
    assert bool(GAUSS_I) is True


def test_scalar_division_exact():
    a = gs(Fraction(2, 3), 5)
    b = gs(-7, Fraction(1, 2))
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / GAUSS_ZERO


@given(scalars, scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_scalar_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert (a * b).conj() == a.conj() * b.conj()


@given(scalars)
@settings(max_examples=60, deadline=None)
def test_scalar_string_round_trip(z):
    assert parse_scalar(format_scalar(z)) == z


# Reference arithmetic on (re, im) pairs of Fractions, the representation
# GaussScalar had before it held one integer triple.

def _pair(x):
    if isinstance(x, GaussScalar):
        return (Fraction(x._a, x._d), Fraction(x._b, x._d))
    return (Fraction(x), Fraction(0))


def _pair_div(x, y):
    (a, b), (c, d) = x, y
    n = c * c + d * d
    return ((a * c + b * d) / n, (b * c - a * d) / n)


def _assert_scalar(z, pair):
    """z is a normalized GaussScalar with the given parts."""
    assert type(z) is GaussScalar
    assert z._d > 0 and gcd(z._a, z._b, z._d) == 1
    assert (z.re, z.im) == pair
    assert all(type(x) is GaussScalar and x.is_real() for x in (z.re, z.im))


mixed_scalars = st.one_of(scalars, st.builds(GaussScalar, st.integers(-9, 9), st.integers(-9, 9)))
operands = st.one_of(mixed_scalars, st.integers(-9, 9), rationals)


@given(mixed_scalars, operands)
@settings(max_examples=200, deadline=None)
def test_scalar_operations_match_fraction_pairs(z, w):
    (a, b), (c, d) = zp, wp = _pair(z), _pair(w)
    for got, pair in ((z + w, (a + c, b + d)), (w + z, (a + c, b + d)),
                      (z - w, (a - c, b - d)), (w - z, (c - a, d - b)),
                      (z * w, (a * c - b * d, a * d + b * c)),
                      (w * z, (a * c - b * d, a * d + b * c)),
                      (-z, (-a, -b)), (+z, zp), (z.conj(), (a, -b))):
        _assert_scalar(got, pair)
    if wp == (0, 0):
        with pytest.raises(ZeroDivisionError):
            z / w
    else:
        _assert_scalar(z / w, _pair_div(zp, wp))
    if zp != (0, 0):
        _assert_scalar(w / z, _pair_div(wp, zp))
    assert z.norm_sq() == a * a + b * b and z.norm_sq().is_real()
    assert z.is_real() is (b == 0) and bool(z) is (zp != (0, 0))
    assert (z == w) is (zp == wp) and (w == z) is (zp == wp)
    assert (z != w) is (zp != wp)
    assert (z == a) is (b == 0)
    assert not a or z != Fraction(a.numerator, a.denominator + 1)
    assert hash(GaussScalar(*zp)) == hash(z)
    assert b or hash(z) == hash(a)
    _assert_scalar(parse_scalar(format_scalar(z)), zp)


def test_scalar_parse_forms():
    assert parse_scalar("0") == GAUSS_ZERO
    assert parse_scalar("i") == GAUSS_I
    assert parse_scalar("-i") == -GAUSS_I
    assert parse_scalar("3i") == gs(0, 3)
    assert parse_scalar("1/2-3/4*i") == gs(Fraction(1, 2), Fraction(-3, 4))
    assert parse_scalar("-2/3") == gs(Fraction(-2, 3))
    with pytest.raises(ExactError):
        parse_scalar("one")
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("0.25") == Fraction(1, 4)
    # exponent notation is refused: Fraction("1e1000000") would build a
    # million-digit integer
    for text in ("1e5", "2E-3", "1e1000000"):
        for parse in (parse_rational, parse_scalar):
            with pytest.raises(ExactError):
                parse(text)
        with pytest.raises(ExactError):
            parse_scalar(f"1/2+{text}*i")


# parse_rational reads what the standard library's rationals read, exponent
# notation aside: texts built from the grammar's pieces, from its alphabet and
# from anywhere
_DIGIT_RUNS = st.text(st.sampled_from("0123456789_\u0663\u0665\u096b"), max_size=5)
_SPACES = st.sampled_from(("", " ", "  ", "\t", "\n", "\u00a0"))
_SIGNS = st.sampled_from(("", "+", "-", "--", "+-"))
rational_texts = st.one_of(
    st.builds(lambda *parts: "".join(parts), _SPACES, _SIGNS, _DIGIT_RUNS, _SPACES,
              st.sampled_from(("/", ".", "", "e", "E-", "/-")), _SPACES, _DIGIT_RUNS, _SPACES),
    st.text(st.sampled_from(" +-/._0123456789eEdD\u0663"), max_size=10),
    st.text(max_size=8),
)


@given(rational_texts)
@settings(max_examples=400, deadline=None)
@example("1/0")
@example(" -3 / 4 ")
@example("1_000.000_1")
@example("\u0663/\u0665")
@example("1e5")
@example(".5")
@example("5.")
@example(".")
def test_parse_rational_reads_what_fraction_reads(text):
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        expected = None
    try:
        got = parse_rational(text)
    except ExactError:
        got = None
    if "e" in text or "E" in text:
        assert got is None  # exponent notation is refused
        return
    assert (got is None) is (expected is None)
    if got is not None:
        assert got.is_real() and got == expected and str(got) == str(expected)


# rationals of every size, denominators past the hash modulus and multiples
# of it (whose hash is sys.hash_info.inf) among them
_MODULUS = sys.hash_info.modulus
wide_rationals = st.one_of(
    st.integers(),
    st.fractions(max_denominator=10 ** 30),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30).filter(bool),
              st.sampled_from((_MODULUS, 2 * _MODULUS, _MODULUS + 1, _MODULUS ** 2))),
)


@given(wide_rationals, wide_rationals)
@settings(max_examples=300, deadline=None)
def test_real_scalars_compare_and_hash_as_their_rationals(q, r):
    z, w = GaussScalar(q), GaussScalar(r)
    for a, b in ((z, q), (q, z), (z, Fraction(q)), (w, r)):
        assert a == b and hash(a) == hash(b)
    for a, b in ((z, r), (r, z), (z, w), (z, Fraction(r))):
        assert (a == b) is (q == r) and (a != b) is (q != r)
    assert q != r or hash(z) == hash(w) == hash(r)
    assert z != GaussScalar(q, 1) != q


# ---------------------------------------------------------------------------
# matrices


def test_kernel_spec_examples():
    zero3 = zeros(3, 3)
    assert kernel(zero3) == [{0: GAUSS_ONE}, {1: GAUSS_ONE}, {2: GAUSS_ONE}]
    m = ExactMatrix([[GAUSS_ONE, GAUSS_I], [GAUSS_ZERO, GAUSS_ZERO]])
    assert kernel(m) == [{0: -GAUSS_I, 1: GAUSS_ONE}]


def test_signature_spec_example():
    # a real symmetric matrix is Hermitian
    d = ExactMatrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    assert hermitian_signature(d) == (1, 1, 1)


def test_solve_basics():
    m = ExactMatrix([[1, 2], [0, 1]])
    x = solve(m, [gs(5), gs(2)])
    assert x == (gs(1), gs(2))
    inconsistent = ExactMatrix([[1, 1], [1, 1]])
    assert solve(inconsistent, [gs(0), gs(1)]) is None


def test_inverse_and_rank():
    m = ExactMatrix([[1, 1], [0, 2]])
    assert inverse(m) @ m == identity(2)
    assert rank(m) == 2
    with pytest.raises(ExactError):
        inverse(ExactMatrix([[1, 1], [1, 1]]))


small_entries = st.builds(GaussScalar, st.integers(-4, 4), st.integers(-4, 4))


@st.composite
def small_matrices(draw, max_dim=4):
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    data = draw(
        st.lists(
            st.lists(small_entries, min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
    return ExactMatrix(data)


@given(small_matrices())
@settings(max_examples=50, deadline=None)
def test_kernel_vectors_annihilate(m):
    vecs = kernel(m)
    assert len(vecs) == m.cols - rank(m)
    for v in vecs:
        assert m.apply(v) == {}


@given(small_matrices())
@settings(max_examples=40, deadline=None)
def test_rref_idempotent_and_deterministic(m):
    r1, p1 = rref(m)
    r2, p2 = rref(r1)
    assert r1 == r2 and p1 == p2
    again, pivots_again = rref(m)
    assert again == r1 and pivots_again == p1


@given(small_matrices(), st.lists(small_entries, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_solve_recovers_consistent_rhs(m, xs):
    x = (xs * m.cols)[: m.cols]
    b = m.apply(sparse(x))
    got = solve(m, dense(b, m.rows))
    assert got is not None
    assert m.apply(sparse(got)) == b


def test_kernel_intersection_is_stack_kernel():
    a = ExactMatrix([[1, 0, -1]])
    b = ExactMatrix([[0, 1, -1]])
    inter = kernel(vstack([a, b]))
    assert inter == [{0: GAUSS_ONE, 1: GAUSS_ONE, 2: GAUSS_ONE}]
    assert all(a.apply(v) == b.apply(v) == {} for v in inter)


def test_in_span():
    basis = [(GAUSS_ONE, GAUSS_ZERO), (GAUSS_ZERO, GAUSS_I)]
    assert in_span(basis, (gs(3), gs(0, -2)))
    assert not in_span([(GAUSS_ONE, GAUSS_ZERO)], (GAUSS_ZERO, GAUSS_ONE))
    assert in_span([], (GAUSS_ZERO, GAUSS_ZERO))
    assert not in_span([], (GAUSS_ONE, GAUSS_ZERO))


unitriangular_entries = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def invertible_matrices(draw, n=3, complex_entries=False):
    def entry():
        im = draw(unitriangular_entries) if complex_entries else 0
        return GaussScalar(draw(unitriangular_entries), im)

    lo = [[GAUSS_ZERO] * n for _ in range(n)]
    up = [[GAUSS_ZERO] * n for _ in range(n)]
    for i in range(n):
        lo[i][i] = GAUSS_ONE
        up[i][i] = GAUSS_ONE
        for j in range(i):
            lo[i][j] = entry()
            up[j][i] = entry()
    return ExactMatrix(lo) @ ExactMatrix(up)


@st.composite
def symmetric_matrices(draw, n=3):
    vals = [[GAUSS_ZERO] * n for _ in range(n)]
    for i in range(n):
        vals[i][i] = GaussScalar(draw(unitriangular_entries))
        for j in range(i + 1, n):
            x = GaussScalar(draw(unitriangular_entries))
            vals[i][j] = x
            vals[j][i] = x
    return ExactMatrix(vals)


@st.composite
def hermitian_matrices(draw, n=3):
    vals = [[GAUSS_ZERO] * n for _ in range(n)]
    for i in range(n):
        vals[i][i] = GaussScalar(draw(unitriangular_entries))
        for j in range(i + 1, n):
            x = GaussScalar(draw(unitriangular_entries), draw(unitriangular_entries))
            vals[i][j] = x
            vals[j][i] = x.conj()
    return ExactMatrix(vals)


@given(st.one_of(symmetric_matrices(), hermitian_matrices()),
       invertible_matrices(complex_entries=True))
@settings(max_examples=40, deadline=None)
def test_signature_congruence_invariant(s, p):
    direct = hermitian_signature(s)
    transformed = hermitian_signature(p.conj_transpose() @ s @ p)
    assert direct == transformed


def test_signature_rejects_bad_input():
    with pytest.raises(ExactError):
        hermitian_signature(ExactMatrix([[0, 1], [2, 0]]))
    with pytest.raises(ExactError):
        hermitian_signature(ExactMatrix([[GAUSS_I]]))
    with pytest.raises(ExactError):
        hermitian_signature(ExactMatrix([[0, 1, 0], [1, 0, 0]]))


def test_hermitian_signature_positive_definite():
    # A^H A + I is positive definite for any A
    a = ExactMatrix([[GAUSS_I, gs(2)], [gs(1, 1), GAUSS_ZERO]])
    h = a.conj_transpose() @ a + identity(2)
    assert h == h.conj_transpose()
    assert hermitian_signature(h) == (2, 0, 0)


def test_hermitian_signature_zero_diagonal():
    # antidiagonal hermitian pair, zero diagonal: one plus, one minus
    h = ExactMatrix([[GAUSS_ZERO, GAUSS_I], [-GAUSS_I, GAUSS_ZERO]])
    assert hermitian_signature(h) == (1, 1, 0)
    s = ExactMatrix([[0, 1], [1, 0]])
    assert hermitian_signature(s) == (1, 1, 0)


# mostly zeros, so the elimination meets empty rows and zero pivots
sparse_rationals = st.one_of(st.just(0), st.just(0), unitriangular_entries)


@st.composite
def sparse_hermitian_matrices(draw):
    """Hermitian matrices of size 0 to 6: complex, real symmetric, or with an
    all-zero diagonal, where the first pivot needs the 2 |a|^2 step."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("complex", "real", "zero_diagonal")))
    vals = [[GAUSS_ZERO] * n for _ in range(n)]
    for i in range(n):
        if kind != "zero_diagonal":
            vals[i][i] = GaussScalar(draw(sparse_rationals))
        for j in range(i + 1, n):
            x = GaussScalar(draw(sparse_rationals), 0 if kind == "real" else draw(sparse_rationals))
            vals[i][j], vals[j][i] = x, x.conj()
    return ExactMatrix(vals, cols=n)


@given(sparse_hermitian_matrices())
@example(ExactMatrix([], cols=0))
# zero diagonal, non-real off-diagonal entry: the 2 |c|^2 step must use c, not conj(c)
@example(ExactMatrix([[0, gs(1, 1)], [gs(1, -1), 0]]))
@settings(max_examples=300, deadline=None)
def test_signature_matches_dense_reference(h):
    assert hermitian_signature(h) == dense_hermitian_signature(h)


@st.composite
def sparse_rows_and_order(draw):
    """The rows of a mostly-zero r x c matrix, 0 x c and r x 0 included, its
    width, and a permutation of its rows."""
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = [[GaussScalar(draw(sparse_rationals), draw(sparse_rationals)) for _ in range(c)]
            for _ in range(r)]
    return rows, c, draw(st.permutations(range(r)))


@given(sparse_rows_and_order())
@example(([], 3, []))
@example(([[], []], 0, [1, 0]))
# the topmost holder of a column is denser than a lower one, so the pivot
# comes from a lower row, which must be normalized and moved up
@example(([[1, 2, 3], [2, 0, 0]], 3, [0, 1]))
@example(([[0, 1, 1, 1], [5, 1, 0, 7], [0, 3, 0, 0], [2, 0, 0, 0]], 4, [3, 2, 1, 0]))
@example(([[gs(1, 1), 1, 1], [0, 0, 0], [gs(0, 2), 0, 0], [1, 0, 4]], 3, [0, 1, 2, 3]))
@settings(max_examples=200, deadline=None)
def test_rref_does_not_depend_on_row_order(case):
    # R and its pivots are unique to the row space, which every comparison
    # of canonical kernel bases as subspaces relies on; whichever row rref
    # takes a pivot from, R is that of Gauss-Jordan on the topmost row
    rows, cols, order = case
    m = ExactMatrix(rows, cols=cols)
    work, pivots = dense_rref(m.data, cols)
    assert rref(m) == (ExactMatrix(work, cols=cols), pivots)
    assert kernel(m) == [sparse(v) for v in dense_kernel(m.data, cols)]
    assert rref(ExactMatrix([rows[i] for i in order], cols=cols)) == rref(m)


def test_stack_shape_errors():
    with pytest.raises(ExactError):
        vstack([ExactMatrix([[1]]), ExactMatrix([[1, 2]])])
    with pytest.raises(ExactError):
        hstack([ExactMatrix([[1]]), ExactMatrix([[1], [2]])])


# ---------------------------------------------------------------------------
# the sparse-aware kernels against a plain dense reference


def dense_matmul(a, b, ncols):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), GAUSS_ZERO)
             for j in range(ncols)] for i in range(len(a))]


# mostly zeros, like the bidegree blocks of d
sparse_entries = st.one_of(st.just(GAUSS_ZERO), st.just(GAUSS_ZERO),
                           st.just(GAUSS_ZERO), small_entries)


@st.composite
def sparse_matrices(draw, rows=None, cols=None):
    """Rows and columns from 0 up, so 0xn and nx0 shapes are drawn too."""
    r = draw(st.integers(0, 5)) if rows is None else rows
    c = draw(st.integers(0, 5)) if cols is None else cols
    data = draw(st.lists(st.lists(sparse_entries, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return ExactMatrix(data, cols=c)


@st.composite
def sparse_products(draw):
    a = draw(sparse_matrices())
    b = draw(sparse_matrices(rows=a.cols))
    return a, b, draw(sparse_matrices(rows=a.rows, cols=a.cols))


@given(sparse_products())
@settings(max_examples=60, deadline=None)
def test_sparse_product_and_sum_match_dense(case):
    a, b, c = case
    assert a @ b == ExactMatrix(dense_matmul(a.data, b.data, b.cols), cols=b.cols)
    assert a + c == ExactMatrix(
        [[x + y for x, y in zip(ra, rc)] for ra, rc in zip(a.data, c.data)],
        cols=a.cols)


@given(sparse_matrices())
@settings(max_examples=60, deadline=None)
def test_sparse_rref_and_kernel_match_dense(m):
    reduced, pivots = rref(m)
    work, dense_pivots = dense_rref(m.data, m.cols)
    assert pivots == dense_pivots
    assert reduced == ExactMatrix(work, cols=m.cols)
    assert kernel(m) == [sparse(v) for v in dense_kernel(m.data, m.cols)]
    # empty rows first, in the middle, last or everywhere change neither R
    # (beyond its zero rows at the bottom) nor the pivots
    zero, rows = (GAUSS_ZERO,) * m.cols, list(m.data)
    for padded in ([zero] + rows, rows[:1] + [zero] + rows[1:], rows + [zero],
                   [zero] + [r for row in rows for r in (row, zero)]):
        got, got_pivots = rref(ExactMatrix(padded, cols=m.cols))
        assert got.shape == (len(padded), m.cols)
        assert got_pivots == pivots
        assert got == ExactMatrix(list(reduced.data) + [zero] * (len(padded) - m.rows),
                                  cols=m.cols)


@given(st.integers(0, 4).flatmap(lambda n: sparse_matrices(rows=n, cols=n)),
       st.integers(-2, 2))
@settings(max_examples=60, deadline=None)
def test_sparse_inverse_matches_dense(m, k):
    n = m.rows
    eye = identity(n)
    m = m + eye * k  # a diagonal shift makes invertible draws common
    work, pivots = dense_rref([list(r) + list(e) for r, e in zip(m.data, eye.data)],
                              2 * n)
    if pivots[:n] != tuple(range(n)):
        with pytest.raises(ExactError):
            inverse(m)
        return
    inv = inverse(m)
    assert inv == ExactMatrix([row[n:] for row in work], cols=n)
    assert inv @ m == eye


@st.composite
def grids(draw, rows=None, cols=None):
    """A mostly-zero dense grid as plain lists, with its width (0 allowed)."""
    r = draw(st.integers(0, 5)) if rows is None else rows
    c = draw(st.integers(0, 5)) if cols is None else cols
    return draw(st.lists(st.lists(sparse_entries, min_size=c, max_size=c),
                         min_size=r, max_size=r)), c


def sparse_build(grid, cols, order):
    """The same matrix through the row-dict constructor, each row's dict
    filled in the drawn column order."""
    rows = []
    for dense_row in grid:
        row = {}
        for j in order:
            if j < cols and dense_row[j]:
                row[j] = dense_row[j]
        rows.append(row)
    return ExactMatrix._from_rows(rows, cols)


@given(grids(), st.permutations(range(5)))
@settings(max_examples=60, deadline=None)
def test_dense_and_sparse_builds_agree(case, order):
    grid, c = case
    m = ExactMatrix(grid, cols=c)
    built = sparse_build(grid, c, order)
    assert m == built and hash(m) == hash(built)
    assert m.shape == built.shape == (len(grid), c)
    assert m.data == tuple(tuple(row) for row in grid)
    for i, row in enumerate(grid):
        assert dict(m.row_items(i)) == {j: a for j, a in enumerate(row) if a}
        for j, a in enumerate(row):
            assert m[i, j] == a and m[i, j - c] == a
    assert m.is_zero() == all(not a for row in grid for a in row)


@given(grids(), st.data())
@settings(max_examples=60, deadline=None)
def test_submatrix_matches_dense_slice(case, data):
    grid, c = case
    m = ExactMatrix(grid, cols=c)
    r0 = data.draw(st.integers(0, len(grid)))
    r1 = data.draw(st.integers(r0, len(grid)))
    c0 = data.draw(st.integers(0, c))
    c1 = data.draw(st.integers(c0, c))
    piece = [row[c0:c1] for row in grid[r0:r1]]
    assert m.submatrix(range(r0, r1), range(c0, c1)) == ExactMatrix(piece, cols=c1 - c0)


@given(grids(), small_entries)
@settings(max_examples=60, deadline=None)
def test_sparse_unary_maps_match_dense(case, k):
    grid, c = case
    m = ExactMatrix(grid, cols=c)
    cols = [[row[j] for row in grid] for j in range(c)]
    assert m.transpose() == ExactMatrix(cols, cols=len(grid))
    assert m.transpose().shape == (c, len(grid))
    assert m.conj() == ExactMatrix([[a.conj() for a in row] for row in grid], cols=c)
    assert m.conj_transpose() == ExactMatrix(
        [[a.conj() for a in col] for col in cols], cols=len(grid))
    assert m * k == ExactMatrix([[a * k for a in row] for row in grid], cols=c)
    assert -m == ExactMatrix([[-a for a in row] for row in grid], cols=c)


@given(sparse_matrices(), st.one_of(small_entries, st.integers(-3, 3), rationals))
@settings(max_examples=60, deadline=None)
def test_scalar_times_matrix_commutes(m, k):
    # a GaussScalar hands a matrix operand on to ExactMatrix.__rmul__
    assert k * m == m * k


def test_scalar_operators_defer_on_foreign_operands():
    for op in (lambda k, x: k + x, lambda k, x: k - x, lambda k, x: k * x,
               lambda k, x: x + k, lambda k, x: x * k):
        with pytest.raises(TypeError):
            op(GAUSS_I, "1")


def test_matrix_operators_defer_on_foreign_operands():
    m = ExactMatrix([[1, 2], [3, 4]])
    for op in (lambda x: m + x, lambda x: m - x, lambda x: m @ x,
               lambda x: x + m, lambda x: x - m, lambda x: x @ m, lambda x: x / m):
        for x in (1, Fraction(1, 2), GAUSS_I):
            with pytest.raises(TypeError):
                op(x)


@given(st.integers(0, 5).flatmap(lambda r: st.integers(0, 5).flatmap(
    lambda c: st.tuples(grids(r, c), grids(r, c), grids(r, 3), grids(2, c)))),
    st.lists(small_entries, min_size=5, max_size=5))
@settings(max_examples=60, deadline=None)
def test_sparse_binary_maps_match_dense(case, vec):
    (ga, c), (gb, _), (gw, _), (gt, _) = case
    a, b = ExactMatrix(ga, cols=c), ExactMatrix(gb, cols=c)
    assert a - b == ExactMatrix(
        [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ga, gb)], cols=c)
    assert a.apply(sparse(vec[:c])) == sparse(
        [sum((x * v for x, v in zip(row, vec)), GAUSS_ZERO) for row in ga])
    # zero entries may be stored, and ParamPoly entries are allowed
    polys = [ParamPoly.variable(("t",), "t") * v for v in vec[:c]]
    assert a.apply(dict(enumerate(polys))) == sparse(
        [sum((x * p for x, p in zip(row, polys)), GAUSS_ZERO) for row in ga])
    for outside in (c, -1):
        with pytest.raises(ExactError):
            a.apply({outside: GAUSS_ONE})
    assert vstack([a, ExactMatrix(gt, cols=c)]) == ExactMatrix(ga + gt, cols=c)
    assert hstack([a, ExactMatrix(gw, cols=3)]) == ExactMatrix(
        [ra + rw for ra, rw in zip(ga, gw)], cols=c + 3)


@given(grids(), st.lists(sparse_entries, min_size=5, max_size=5))
@settings(max_examples=60, deadline=None)
def test_sparse_solve_matches_dense(case, rhs):
    grid, c = case
    rhs = rhs[:len(grid)]
    work, pivots = dense_rref([row + [b] for row, b in zip(grid, rhs)], c + 1)
    got = solve(ExactMatrix(grid, cols=c), rhs)
    if c in pivots:
        assert got is None
        return
    want = [GAUSS_ZERO] * c
    for r, p in enumerate(pivots):
        want[p] = work[r][c]
    assert got == tuple(want)


# ---------------------------------------------------------------------------
# parameter polynomials


NAMES = ("t1", "t2")


def var(n):
    return ParamPoly.variable(NAMES, n)


def test_parampoly_basics():
    t1, t2 = var("t1"), var("t2")
    p = (t1 + t2) * (t1 + -t2)
    q = t1 * t1 + -(t2 * t2)
    assert p == q
    assert not p + -q
    assert str(p) == "t1^2 + -t2^2" and repr(p) == "ParamPoly('t1^2 + -t2^2')"
    assert evaluate(p, {"t1": 3, "t2": 2}) == gs(5)
    assert not ParamPoly(NAMES, {})
    assert not t1 * 0
    assert ParamPoly.constant(NAMES, 3) == 3


def test_parampoly_scalar_mixing():
    t1 = var("t1")
    p = GAUSS_I * t1 + 1
    assert p == 1 + t1 * GAUSS_I
    assert evaluate(p, {"t1": 2, "t2": 0}) == gs(1, 2)
    with pytest.raises(ExactError):
        t1 + ParamPoly.variable(("other",), "other")


small_polys = st.builds(
    lambda c0, c1, c2, e: ParamPoly(
        NAMES, {(0, 0): c0, (1, 0): c1, (0, e): c2}
    ),
    small_entries,
    small_entries,
    small_entries,
    st.integers(1, 3),
)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=40, deadline=None)
def test_parampoly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert p * (q * r) == (p * q) * r


@given(small_polys, small_polys, rationals, rationals)
@settings(max_examples=40, deadline=None)
def test_parampoly_evaluation_is_homomorphism(p, q, a, b):
    point = {"t1": a, "t2": b}
    assert evaluate(p + q, point) == evaluate(p, point) + evaluate(q, point)
    assert evaluate(p * q, point) == evaluate(p, point) * evaluate(q, point)
    assert evaluate(-p, point) == -evaluate(p, point)


def _representations(re, im):
    """The value re + im*i as each type that can hold it: a GaussScalar and a
    constant ParamPoly, and when it is real a Fraction, and an int too when
    it is an integer."""
    z = GaussScalar(re, im)
    out = [z, ParamPoly.constant(NAMES, z)]
    if not im:
        out.append(re)
        if re.denominator == 1:
            out.append(int(re))
    return out


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@given(st.builds(_representations, small_rationals, small_rationals | st.just(Fraction(0)))
       .flatmap(lambda reps: st.tuples(st.sampled_from(reps), st.sampled_from(reps))))
@settings(max_examples=80, deadline=None)
def test_equal_scalars_hash_equal(pair):
    a, b = pair
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1 and {a: "a"}.get(b) == "a"
