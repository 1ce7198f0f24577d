"""Bigraded exterior algebra of an invariant almost Hermitian structure.

Everything is finite dimensional: invariant (p,q)-forms on the Lie model are
spanned by wedge monomials in a complex coframe a_1..a_m (the +i eigenvectors
of the dual almost complex structure) and its conjugates a_1~..a_m~.  The
Chevalley differential of the model decomposes into four pure bidegree
components, written mu_bar (-1,2), dbar (0,1), partial (1,0) and mu (2,-1).

Sign conventions, fixed once here; ``build`` refuses an algebra on which d
squared is nonzero, so a sign error cannot pass unnoticed:
  * evaluation of a wedge of 1-forms is the determinant (no 1/k! averaging),
  * d on 1-forms is alpha -> -alpha([.,.]), so d a_g(e_k, e_l) =
    -a_g([e_k, e_l]) on the frame e_k dual to the coframe,
  * d extends as a degree one derivation, d(a^b) = da^b + (-1)^|a| a^db.

The frame x_1..x_2m is orthonormal, and the coframe is Hermitian-orthogonal
(``akh.model``, which alone refuses models, derives it by exact Gram-Schmidt
over Q(i), rows left unnormalized so no square roots appear).  The metric is
then one positive rational |a_S|^2 per monomial, and the Gram matrix, the
Hodge star, the metric adjoints and Lambda all have closed forms, as does the
fundamental form omega = i sum_g a_g ^ a_g~ / |a_g|^2, checked against J once.  The
volume form is omega^m/m!, so integration follows the almost complex
structure rather than the frame order.

The invariant Betti numbers live here too (``betti``): they need only the
total-degree slices of d and their ranks, so ``akh betti`` loads no layer
above this one.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Dict, Mapping, Optional, Tuple

from .exact import (
    AkhError,
    ExactMatrix,
    GAUSS_I,
    GAUSS_ONE,
    GAUSS_ZERO,
    GaussScalar,
    _sparse_vector,
    as_gauss,
    format_scalar,
    parse_scalar,
    quote,
    rank,
    vstack,
)
from .model import LieModel, _bracket, _checked, _model

Mono = Tuple[int, ...]
BlockKey = Tuple[int, int]

MU_BAR_SHIFT = (-1, 2)
DBAR_SHIFT = (0, 1)
PARTIAL_SHIFT = (1, 0)
MU_SHIFT = (2, -1)
D_SHIFTS = (MU_BAR_SHIFT, DBAR_SHIFT, PARTIAL_SHIFT, MU_SHIFT)
I_POWERS = (GAUSS_ONE, GAUSS_I, GaussScalar(-1), -GAUSS_I)


class AlgebraError(AkhError):
    """Internal consistency failure while building the bigraded algebra."""


def merge_wedge(t1: Mono, t2: Mono):
    """Wedge two strictly increasing index tuples.

    Returns (merged_tuple, sign) or None when an index repeats.  The sign is
    the parity of the shuffle that sorts the concatenation.
    """
    if not t1:
        return t2, 1
    if not t2:
        return t1, 1
    if set(t1) & set(t2):
        return None
    inversions = 0
    for y in t2:
        inversions += sum(1 for x in t1 if x > y)
    merged = tuple(sorted(t1 + t2))
    return merged, (-1 if inversions % 2 else 1)


def wedge_sum(*pairs) -> dict:
    """The sum of left ^ right over the (left, right) pairs of
    {monomial: coefficient} dicts, zero sums dropped.  This is the one place
    wedge products of monomials are accumulated."""
    out: Dict[Mono, object] = {}
    for left, right in pairs:
        for m1, c1 in left.items():
            for m2, c2 in right.items():
                merged = merge_wedge(m1, m2)
                if merged is None:
                    continue
                mono, sign = merged
                term = c1 * c2 if sign > 0 else -(c1 * c2)
                prev = out.get(mono)
                out[mono] = term if prev is None else prev + term
    return {mono: c for mono, c in out.items() if c}


class Form:
    """An invariant form: ``terms`` maps each coframe monomial with a nonzero
    coefficient to that coefficient, the dict ``wedge_sum`` and d speak.

    Coefficients are GaussScalar in normal use; ParamPoly coefficients
    appear when a parametric family of forms is manipulated.  Every key must
    be a basis monomial of the algebra (a key of ``algebra.position``), and
    zero coefficients are dropped.  Coordinates on one bidegree block
    (``block``), the bidegrees present and single coefficients are views of
    ``terms``.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "BigradedAlgebra", terms: Mapping[Mono, object]):
        object.__setattr__(self, "algebra", _operand(None, algebra, BigradedAlgebra))
        if not isinstance(terms, Mapping):
            raise AlgebraError(f"form terms {quote(terms)} are not a mapping")
        for mono in terms:
            if mono not in algebra.position:
                raise AlgebraError(f"no monomial {quote(mono)} in this algebra")
        object.__setattr__(self, "terms", {mono: c for mono, c in terms.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("Form is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def bidegrees(self) -> tuple:
        alg = self.algebra
        return tuple(sorted({alg.block_at[alg.position[mono]] for mono in self.terms},
                            key=alg.offset.__getitem__))

    def block(self, pq: BlockKey) -> tuple:
        """The coordinates on block pq, in the order of ``algebra.blocks[pq]``;
        empty when pq is out of range."""
        return tuple(self.terms.get(mono, GAUSS_ZERO) for mono in _basis(self.algebra, pq) or ())

    def coefficient(self, mono: Mono):
        self.algebra.monomial_name(mono)  # refuses what is not a basis monomial
        return self.terms.get(mono, GAUSS_ZERO)

    def __add__(self, other: "Form") -> "Form":
        out = dict(self.terms)
        for mono, c in _operand(self.algebra, other, Form).terms.items():
            prev = out.get(mono)
            out[mono] = c if prev is None else prev + c
        return Form(self.algebra, out)

    def __sub__(self, other: "Form") -> "Form":
        return self + -_operand(self.algebra, other, Form)

    def __neg__(self) -> "Form":
        return Form(self.algebra, {mono: -c for mono, c in self.terms.items()})

    def scale(self, c) -> "Form":
        c = as_gauss(c)
        return Form(self.algebra, {mono: c * x for mono, x in self.terms.items()})

    def wedge(self, other: "Form") -> "Form":
        other = _operand(self.algebra, other, Form)
        return Form(self.algebra, wedge_sum((self.terms, other.terms)))

    def power(self, k: int) -> "Form":
        """The k-th wedge power, 1 for k = 0; the product stops once it is zero."""
        if type(k) is not int or k < 0:
            raise AlgebraError(f"wedge power {quote(k)} is not a nonnegative int")
        out = self if k else Form(self.algebra, {(): GAUSS_ONE})
        for factor in itertools.repeat(self, k - 1):  # no factor when k is 0 or 1
            if out.is_zero():
                break
            out = out.wedge(factor)
        return out

    def conj(self) -> "Form":
        alg = self.algebra
        out = {}
        for mono, c in self.terms.items():
            i, sign = alg.C[alg.position[mono]]
            out[alg.layout[i]] = c.conj() if sign > 0 else -c.conj()
        return Form(alg, out)

    def d(self) -> "Form":
        return self.algebra.d.apply(self)

    def inner(self, other: "Form") -> GaussScalar:
        """Hermitian inner product, conjugate linear in the second slot."""
        other = _operand(self.algebra, other, Form)
        w, at = self.algebra.norm_sq, self.algebra.position
        total = GAUSS_ZERO
        for mono, u in self.terms.items():
            v = other.terms.get(mono)
            if v is not None:
                total = total + u * w[at[mono]] * v.conj()
        return total

    def integrate(self) -> GaussScalar:
        """The top coefficient over that of the volume form."""
        (top, vol_coeff), = self.algebra.volume_form.terms.items()
        return self.coefficient(top) / vol_coeff

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if self.is_zero():
            return "Form(0)"
        return f"Form({self.algebra.format_form(self)})"


class BlockOperator:
    """A linear operator on invariant forms: one square matrix on the
    coordinates of all coframe monomials, laid out in the algebra's block
    order (``algebra.offset``).

    Column j of ``matrix`` is the image of the j-th monomial.  Bidegree
    blocks, shifts and total-degree slices are views of that one matrix:
    ``block(pq, shift)`` is the part sending A^{p,q} to A^{p+r,q+s}.
    Pure operators have a single shift; sums of shifts (the full
    differential, the d-Laplacian, the Hodge star) share the interface.
    """

    __slots__ = ("algebra", "matrix", "_shifts")

    def __init__(self, algebra: "BigradedAlgebra", matrix: ExactMatrix):
        matrix = _operand(None, matrix, ExactMatrix)
        if (_operand(None, algebra, BigradedAlgebra).size, algebra.size) != matrix.shape:
            raise AlgebraError(f"operator matrix has shape {matrix.shape}, "
                               f"expected {algebra.size} square")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("BlockOperator is immutable")

    @classmethod
    def zero(cls, algebra: "BigradedAlgebra") -> "BlockOperator":
        n = _operand(None, algebra, BigradedAlgebra).size
        return cls(algebra, ExactMatrix._zeros(n, n))

    @property
    def shifts(self) -> tuple:
        """The bidegree shifts of the nonzero entries, sorted; found by one
        scan of the matrix on first use."""
        try:
            return self._shifts
        except AttributeError:
            pass
        at = self.algebra.block_at
        found = set()
        for i in range(self.matrix.rows):
            p, q = at[i]
            found.update((p - at[j][0], q - at[j][1]) for j, _ in self.matrix.row_items(i))
        object.__setattr__(self, "_shifts", tuple(sorted(found)))
        return self._shifts

    @property
    def parity(self) -> Optional[int]:
        """0 or 1 when every shift has the same total-degree parity, else None.
        The zero operator counts as even."""
        ps = {(r + s) % 2 for (r, s) in self.shifts}
        if not ps:
            return 0
        if len(ps) > 1:
            return None
        return ps.pop()

    def block(self, pq: BlockKey, shift: tuple) -> ExactMatrix:
        """Matrix out of block pq for the given shift; it has no rows when
        the target block is out of range."""
        alg = self.algebra
        cols = alg.block_range(pq)
        _basis(alg, shift)  # a shift is a pair of ints too
        tgt = (pq[0] + shift[0], pq[1] + shift[1])
        return self.matrix.submatrix(alg.block_range(tgt) if tgt in alg.blocks else range(0), cols)

    def columns(self, pq: BlockKey) -> ExactMatrix:
        """Every image of A^{p,q}: the blocks out of pq for each shift,
        stacked; a matrix with no rows for the zero operator."""
        return vstack([ExactMatrix._zeros(0, self.algebra.dim_block(pq))]
                      + [self.block(pq, shift) for shift in self.shifts])

    def degree_slice(self, k_src: int, k_tgt: int) -> ExactMatrix:
        """Matrix from the total-degree k_src forms to the degree k_tgt ones."""
        alg = self.algebra
        return self.matrix.submatrix(alg.degree_range(k_tgt), alg.degree_range(k_src))

    def apply(self, form: Form) -> Form:
        form = _operand(self.algebra, form, Form)
        return self.algebra.form_from_vector(
            self.matrix.apply(self.algebra.coordinates(form)))

    def compose(self, other: "BlockOperator") -> "BlockOperator":
        """self after other."""
        other = _operand(self.algebra, other, BlockOperator)
        return BlockOperator(self.algebra, self.matrix @ other.matrix)

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        other = _operand(self.algebra, other, BlockOperator)
        return BlockOperator(self.algebra, self.matrix + other.matrix)

    def __sub__(self, other: "BlockOperator") -> "BlockOperator":
        return self + -_operand(self.algebra, other, BlockOperator)

    def __neg__(self) -> "BlockOperator":
        return BlockOperator(self.algebra, -self.matrix)

    def scale(self, c) -> "BlockOperator":
        return BlockOperator(self.algebra, self.matrix * c)

    def adjoint(self) -> "BlockOperator":
        """Metric adjoint, <A u, v> = <u, A* v>.  The Gram matrix is the
        diagonal D = diag(norm_sq), so A* = D^-1 A^H D, entry by entry
        A*[i, j] = conj(A[j, i]) w_j / w_i."""
        w = self.algebra.norm_sq
        rows = [{} for _ in range(self.algebra.size)]
        for j in range(self.matrix.rows):
            for i, a in self.matrix.row_items(j):
                rows[i][j] = a.conj() * (w[j] / w[i])
        return BlockOperator(self.algebra, ExactMatrix._from_rows(rows, self.algebra.size))

    def conj(self) -> "BlockOperator":
        """C A C for complex conjugation C (``algebra.C``), the operator
        x -> conj(A conj(x)): entry by entry (C A C)[i', j'] = s_i s_j
        conj(A[i, j]) for C[i] = (i', s_i) and C[j] = (j', s_j)."""
        C = self.algebra.C
        rows = [None] * self.matrix.rows
        for i in range(self.matrix.rows):
            i_bar, s = C[i]
            rows[i_bar] = {C[j][0]: a.conj() if s == C[j][1] else -a.conj()
                           for j, a in self.matrix.row_items(i)}
        return BlockOperator(self.algebra, ExactMatrix._from_rows(rows, self.algebra.size))

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockOperator):
            return NotImplemented
        return self.algebra is other.algebra and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def first_nonzero(self):
        """(block, basis index) of the first basis form with nonzero image,
        scanning blocks in the canonical order; None for the zero operator."""
        j = min((j for i in range(self.matrix.rows) for j, _ in self.matrix.row_items(i)),
                default=None)
        if j is None:
            return None
        pq = self.algebra.block_at[j]
        return pq, j - self.algebra.offset[pq]

    def __repr__(self) -> str:
        if self.is_zero():
            return "BlockOperator(0)"
        shifts = ", ".join(str(s) for s in self.shifts)
        return f"BlockOperator(shifts {shifts})"


def _operand(algebra: Optional["BigradedAlgebra"], other, kind: type):
    """``other``, or an AlgebraError unless it is a ``kind`` on ``algebra`` (on any
    algebra if that is None): every entry point's check of its algebra and operands."""
    if not isinstance(other, kind):
        raise AlgebraError(f"{quote(other)} is not a {kind.__name__}")
    if algebra is not None and other.algebra is not algebra:
        raise AlgebraError(f"{quote(other)} is not a {kind.__name__} on this algebra")
    return other


def memoized(fn):
    """Cache ``fn(alg, *args)`` in ``alg.memo``; the arguments must be
    hashable and the result is shared by every caller."""
    @functools.wraps(fn)
    def cached(alg: BigradedAlgebra, *args):
        key = (fn, args)
        if key not in alg.memo:
            alg.memo[key] = fn(alg, *args)
        return alg.memo[key]
    return cached


class BigradedAlgebra:
    """The full bigraded calculus of one model, built exactly.

    Attributes of note: blocks (basis monomials per bidegree), offset and
    size (the operator layout: every monomial gets one index, block after
    block in block_order), layout and position (the monomial at each index
    and back; the keys of position are the monomials a Form may hold),
    block_at (the bidegree at each index), the orthogonal coframe, norm_sq
    (the metric: |a_S|^2 per monomial in layout order), the four
    differential components mu_bar / dbar / partial / mu and their sum d,
    the Hodge star, the Lefschetz triple L / lam / weight_h, the parity
    operator weight (i^{p-q} per block), fundamental_form and volume_form
    (omega^m/m!).  d a_g(e_k, e_l) = -a_g([e_k, e_l]) on the dual frame e_k.

    __init__ builds on the report, bracket table and coframe of the gate
    akh.model._checked, which refuses every model akh does not compute on,
    and checks its own conventions: d squared, and that the fundamental form,
    written down from the coframe, agrees with J.  What cannot fail once those
    pass (norm_sq, star, C, the weights and the Lefschetz triple) is built on
    first use as a functools.cached_property, kept in the instance dict.
    Every other cached result, d of each monomial as well as what other
    modules derive, is kept in memo (see memoized).
    """

    def __init__(self, model: LieModel):
        self.validation, table, self.coframe = _checked(model)
        self.model = model
        self.m = m = model.m
        coframe = ExactMatrix(self.coframe)
        self.T = vstack([coframe, coframe.conj()])
        self._gen_norm = [sum((x.norm_sq() for x in row), GAUSS_ZERO) for row in self.coframe] * 2

        self.blocks: Dict[BlockKey, tuple] = {}
        for p in range(m + 1):
            for q in range(m + 1):
                basis = []
                for I in itertools.combinations(range(m), p):
                    for J in itertools.combinations(range(m), q):
                        basis.append(I + tuple(m + j for j in J))
                self.blocks[(p, q)] = tuple(basis)
        # by total degree, then by falling p
        self.block_order = tuple(sorted(self.blocks, key=lambda pq: (pq[0] + pq[1], -pq[0])))
        # operators index all monomials at once, block after block in
        # block_order, so each block and each total degree is a contiguous range
        self.offset: Dict[BlockKey, int] = {}
        at = []
        for pq in self.block_order:
            self.offset[pq] = len(at)
            at.extend([pq] * len(self.blocks[pq]))
        self.size = len(at)
        self.block_at = tuple(at)
        self.layout = tuple(mono for pq in self.block_order for mono in self.blocks[pq])
        self.position = {mono: i for i, mono in enumerate(self.layout)}
        self._degree_start = [self.offset[(k, 0) if k <= m else (m, k - m)]
                              for k in range(2 * m + 1)] + [self.size]

        self.memo: Dict[tuple, object] = {}

        self._dgen = self._differential_on_generators(table)
        comps = self._differential_components()
        self.mu_bar = comps[MU_BAR_SHIFT]
        self.dbar = comps[DBAR_SHIFT]
        self.partial = comps[PARTIAL_SHIFT]
        self.mu = comps[MU_SHIFT]
        self.d = self.mu_bar + self.dbar + self.partial + self.mu
        if not self.d.compose(self.d).is_zero():
            raise AlgebraError("d squared is nonzero; sign conventions broken")

        # the coframe is orthogonal, so omega = g(J., .) = i sum_g a_g^a_g~ / |a_g|^2,
        # real and (1,1); on X_a, X_b it is -2 sum_g Im(t_ga conj t_gb) / |t_g|^2,
        # which must be J[b][a]
        self.fundamental_form = Form(self, {(g, g + m): GAUSS_I / w
                                            for g, w in enumerate(self._gen_norm[:m])})
        real = {}
        for t, w in zip(self.coframe, self._gen_norm):
            nonzero = [(k, x) for k, x in enumerate(t) if x]
            for (a, x), (b, y) in itertools.combinations(nonzero, 2):
                real[a, b] = real.get((a, b), 0) - 2 * (x * y.conj()).im / w
        for a, b in itertools.combinations(range(model.dim), 2):
            if real.get((a, b), 0) != model.J[b][a]:
                raise AlgebraError(f"fundamental form disagrees with J on X{a + 1}, X{b + 1}")
        self.volume_form = self.fundamental_form.power(m).scale(GAUSS_ONE / math.factorial(m))

    # -- built on first use ----------------------------------------------------

    @functools.cached_property
    def norm_sq(self) -> tuple:
        """|a_S|^2 for every monomial a_S, in layout order.  The generators
        are orthogonal, so this is the product of |a_g|^2 over the
        generators of S (a conjugate generator has the norm of its own)."""
        return tuple(math.prod((self._gen_norm[g] for g in mono), start=GAUSS_ONE)
                     for mono in self.layout)

    @functools.cached_property
    def weight(self) -> BlockOperator:
        return self._diagonal(lambda p, q: I_POWERS[(p - q) % 4])

    @functools.cached_property
    def weight_inv(self) -> BlockOperator:
        return self._diagonal(lambda p, q: I_POWERS[(q - p) % 4])

    @functools.cached_property
    def star(self) -> BlockOperator:
        """The Hodge star, alpha ^ star(gamma) = g(alpha, gamma) vol, with g
        the bilinear extension of the frame metric.  g(alpha, a_S) is the
        Hermitian product of alpha with conj(a_S) = sign * a_T (``C``), so
        star(a_S) = sign * sign(T ^ K) * |a_S|^2 * vol_coeff * a_K for the
        complement K of T, vol_coeff being the one coefficient of
        ``volume_form``."""
        (top, vol_coeff), = self.volume_form.terms.items()
        w = self.norm_sq
        rows = [{} for _ in range(self.size)]
        for j, (i, sign) in enumerate(self.C):
            comp = tuple(g for g in top if g not in self.layout[i])
            sign *= merge_wedge(self.layout[i], comp)[1]
            rows[self.position[comp]][j] = vol_coeff * (sign * w[j])
        return BlockOperator(self, ExactMatrix._from_rows(rows, self.size))

    @functools.cached_property
    def C(self) -> tuple:
        """Complex conjugation, the only place a conjugate monomial is
        computed: C[j] = (i, sign) when conj(a_S) = sign * a_T for S =
        layout[j], T = layout[i].  For S = I ^ Jbar in block (p, q), conj(a_S)
        = a_Ibar ^ a_J sorts to T = J ^ Ibar with the sign (-1)^(pq)."""
        m = self.m
        out = []
        for mono, (p, q) in zip(self.layout, self.block_at):
            swapped = tuple(g - m for g in mono[p:]) + tuple(g + m for g in mono[:p])
            out.append((self.position[swapped], -1 if p * q % 2 else 1))
        return tuple(out)

    @functools.cached_property
    def L(self) -> BlockOperator:
        """Wedge with the fundamental form, one column per monomial."""
        omega = self.fundamental_form.terms
        rows = [{} for _ in range(self.size)]
        for j, mono in enumerate(self.layout):
            for tgt, c in wedge_sum((omega, {mono: 1})).items():
                rows[self.position[tgt]][j] = c
        return BlockOperator(self, ExactMatrix._from_rows(rows, self.size))

    @functools.cached_property
    def lam(self) -> BlockOperator:
        """Gram adjoint of L."""
        return self.L.adjoint()

    @functools.cached_property
    def weight_h(self) -> BlockOperator:
        """The counting operator [L, lam]: p+q-m on the (p,q) block."""
        return self._diagonal(lambda p, q: GaussScalar(p + q - self.m))

    # -- construction helpers ------------------------------------------------

    def _differential_on_generators(self, table: dict) -> list:
        """d of each coframe generator as a dict over 2-monomials, from the
        definition on the complex frame dual to the coframe.  The rows of T
        are Hermitian-orthogonal, so that frame is e_k = conj(T[k]) / |t_k|^2
        over the real one, and d a_g(e_k, e_l) = -a_g([e_k, e_l])."""
        rows = [dict(self.T.row_items(g)) for g in range(2 * self.m)]
        dual = [{j: x.conj() / w for j, x in t.items()}
                for t, w in zip(rows, self._gen_norm)]
        brackets = [(kl, v) for kl in itertools.combinations(range(2 * self.m), 2)
                    if (v := _bracket(table, dual[kl[0]], dual[kl[1]]))]
        return [{kl: c for kl, v in brackets
                 if (c := -sum((t[j] * x for j, x in v.items() if j in t), GAUSS_ZERO))}
                for t in rows]

    @memoized
    def _d_monomial(self, mono: Mono) -> dict:
        """d of a coframe monomial by Leibniz: d(g ^ rest) = dg ^ rest - g ^ d(rest)."""
        return {} if not mono else wedge_sum(
            (self._dgen[mono[0]], {mono[1:]: 1}),
            ({mono[:1]: -1}, self._d_monomial(mono[1:])))

    def _differential_components(self) -> dict:
        rows = {shift: [{} for _ in range(self.size)] for shift in D_SHIFTS}
        at = self.block_at
        for j, mono in enumerate(self.layout):
            for tgt, coeff in self._d_monomial(mono).items():
                i = self.position[tgt]
                shift = (at[i][0] - at[j][0], at[i][1] - at[j][1])
                if shift not in rows:
                    raise AlgebraError(f"differential produced illegal bidegree shift {shift}")
                rows[shift][i][j] = coeff
        return {
            shift: BlockOperator(self, ExactMatrix._from_rows(r, self.size))
            for shift, r in rows.items()
        }

    def _diagonal(self, value) -> BlockOperator:
        """Diagonal operator acting on the (p,q) block by the scalar value(p, q)."""
        rows = [{i: c} if (c := value(p, q)) else {} for i, (p, q) in enumerate(self.block_at)]
        return BlockOperator(self, ExactMatrix._from_rows(rows, self.size))

    # -- public helpers -------------------------------------------------------

    def dim_block(self, pq: BlockKey) -> int:
        return len(_block(self, pq))

    def block_range(self, pq: BlockKey) -> range:
        """Indices of the monomials of block pq in the operator layout."""
        n = len(_block(self, pq))
        return range(self.offset[pq], self.offset[pq] + n)

    def degree_range(self, k: int) -> range:
        """Indices of the monomials of total degree k (none out of range)."""
        if type(k) is not int:
            raise AlgebraError(f"degree {quote(k)} is not an int")
        if not 0 <= k <= 2 * self.m:
            return range(0)
        return range(self._degree_start[k], self._degree_start[k + 1])

    def coordinates(self, form: Form) -> dict:
        """The sparse vector {layout index: coefficient} of a form."""
        return {self.position[mono]: c for mono, c in _operand(self, form, Form).terms.items()}

    def form_from_vector(self, vec: Mapping, start: int = 0) -> Form:
        """Form whose coefficient at layout index start + j is vec[j]."""
        vec = _sparse_vector(vec, self.size, start)
        return Form(self, {self.layout[start + j]: c for j, c in vec.items()})

    def zero_form(self) -> Form:
        return Form(self, {})

    def basis_form(self, pq: BlockKey, idx: int) -> Form:
        """The idx-th basis monomial of block pq, as a form."""
        basis = _block(self, pq)
        _sparse_vector({0: GAUSS_ONE}, len(basis), idx)  # refuses what is not an index into it
        return Form(self, {basis[idx]: GAUSS_ONE})

    def generator_form(self, g: int) -> Form:
        self.generator_name(g)  # refuses what is not a generator index
        return Form(self, {(g,): GAUSS_ONE})

    def generator_name(self, g: int) -> str:
        if type(g) is not int or not 0 <= g < 2 * self.m:
            raise AlgebraError(f"generator index {quote(g)} is not an int in 0..{2 * self.m - 1}")
        if g < self.m:
            return f"a{g + 1}"
        return f"a{g - self.m + 1}~"

    def monomial_name(self, mono: Mono) -> str:
        """The name of a basis monomial (a key of ``position``), "1" for ()."""
        try:
            self.position[mono]
        except (KeyError, TypeError):  # TypeError: an unhashable mono
            raise AlgebraError(f"no monomial {quote(mono)} in this algebra") from None
        return "^".join(self.generator_name(g) for g in mono) or "1"

    def format_form(self, form: Form) -> str:
        if _operand(self, form, Form).is_zero():
            return "0"
        parts = []
        for mono in sorted(form.terms, key=self.position.__getitem__):
            c, name = form.terms[mono], self.monomial_name(mono)
            cs = format_scalar(c) if isinstance(c, GaussScalar) else str(c)
            if cs == "1":
                parts.append(name)
            elif cs == "-1":
                parts.append(f"-{name}")
            else:
                wrap = f"({cs})" if ("+" in cs or "-" in cs[1:] or "*" in cs) else cs
                parts.append(f"{wrap}*{name}")
        return " + ".join(parts)


def build(model: LieModel) -> BigradedAlgebra:
    """Construct (and cache) the bigraded calculus of a validated model.
    The model gate runs ahead of the cache, which would otherwise hash the
    argument first.  This is the only module-level cache: every other
    derived result lives on the algebra, in ``alg.memo`` or a cached
    property, so ``build.cache_clear()`` frees all of a model's work."""
    return _build(_model(model))


_build = functools.lru_cache(maxsize=None)(BigradedAlgebra)
build.cache_info, build.cache_clear = _build.cache_info, _build.cache_clear


def betti(model: LieModel) -> tuple:
    """Invariant Betti numbers b^0..b^{2m} (real cohomology for nilpotent
    models)."""
    return _betti(build(model))


@memoized
def _betti(alg: BigradedAlgebra) -> tuple:
    top = 2 * alg.m
    dims = [len(alg.degree_range(k)) for k in range(top + 1)]
    ranks = [rank(alg.d.degree_slice(k, k + 1)) for k in range(top + 1)]
    out = []
    for k in range(top + 1):
        closed = dims[k] - ranks[k]
        exact = ranks[k - 1] if k > 0 else 0
        out.append(closed - exact)
    return tuple(out)


def _basis(algebra: BigradedAlgebra, pq: BlockKey) -> Optional[tuple]:
    """The basis monomials of block pq, None when it is out of range."""
    if not (isinstance(pq, tuple) and len(pq) == 2 and all(type(x) is int for x in pq)):
        raise AlgebraError(f"bidegree {quote(pq)} is not a pair of ints")
    return algebra.blocks.get(pq)


def _block(algebra: BigradedAlgebra, pq: BlockKey) -> tuple:
    """The basis monomials of block pq, an AlgebraError when there is none."""
    basis = _basis(algebra, pq)
    if basis is None:
        raise AlgebraError(f"no block {quote(pq)} in this algebra")
    return basis


def form_from_coordinates(algebra: BigradedAlgebra, pq: BlockKey, vec: Mapping) -> Form:
    """Form with the sparse coordinate vector ``vec`` {index: coefficient} on
    block ``pq``, indices in the order of ``algebra.blocks[pq]``."""
    basis = _block(_operand(None, algebra, BigradedAlgebra), pq)
    return Form(algebra, {basis[j]: c for j, c in _sparse_vector(vec, len(basis)).items()})


# ---------------------------------------------------------------------------
# form serialization


def form_to_json(form: Form) -> dict:
    out = {}
    algebra = _operand(None, form, Form).algebra
    for mono in sorted(form.terms, key=algebra.position.__getitem__):
        c = form.terms[mono]
        if not isinstance(c, GaussScalar):
            raise AlgebraError("only scalar forms serialize to JSON")
        p, q = algebra.block_at[algebra.position[mono]]
        out.setdefault(f"{p},{q}", {})[algebra.monomial_name(mono)] = format_scalar(c)
    return out


def _parse_monomial(algebra: BigradedAlgebra, text: str) -> tuple:
    """(sorted monomial, sign of the permutation that sorts the generators)."""
    if not isinstance(text, str):
        raise AlgebraError(f"monomial {quote(text)} is not a string")
    text = text.strip()
    if text == "1":
        return (), 1
    gens = []
    for piece in text.split("^"):
        piece = piece.strip()
        barred = piece.endswith("~")
        if barred:
            piece = piece[:-1]
        if not piece.startswith("a"):
            raise AlgebraError(f"bad generator {quote(piece)}")
        try:
            idx = int(piece[1:]) - 1
        except ValueError:
            raise AlgebraError(f"bad generator index in {quote(piece)}") from None
        if not (0 <= idx < algebra.m):
            raise AlgebraError(f"generator index out of range in {quote(piece)}")
        gens.append(idx + algebra.m if barred else idx)
    mono, sign = (), 1
    for g in gens:
        merged = merge_wedge(mono, (g,))
        if merged is None:
            raise AlgebraError(f"repeated generator in monomial {quote(text)}")
        mono, shuffle = merged
        sign *= shuffle
    return mono, sign


def form_from_json(algebra: BigradedAlgebra, data: Mapping) -> Form:
    algebra = _operand(None, algebra, BigradedAlgebra)
    if not isinstance(data, Mapping):
        raise AlgebraError(f"form JSON {quote(data)} is not an object")
    comps: Dict[Mono, GaussScalar] = {}
    for block_key, entries in data.items():
        try:
            p_str, q_str = str(block_key).split(",")
            p, q = int(p_str), int(q_str)
        except ValueError:
            raise AlgebraError(f"bad block key {quote(block_key)}") from None
        if not isinstance(entries, Mapping):
            raise AlgebraError(f"block {quote(block_key)} holds {quote(entries)}, not an object")
        for mono_text, coeff_text in entries.items():
            mono, sign = _parse_monomial(algebra, mono_text)
            if algebra.block_at[algebra.position[mono]] != (p, q):
                raise AlgebraError(
                    f"monomial {quote(mono_text)} is not of bidegree {quote(block_key)}")
            if not isinstance(coeff_text, str):
                raise AlgebraError(f"coefficient {quote(coeff_text)} is not a string")
            coeff = parse_scalar(coeff_text)
            comps[mono] = comps.get(mono, GAUSS_ZERO) + (coeff if sign > 0 else -coeff)
    return Form(algebra, comps)
