"""Reference linear algebra over Q(i) that the tests check akh against.

``akh`` itself no longer needs a linear solve, an inverse or a span test:
the metric is diagonal and every subspace is compared through canonical
kernel bases.  These routines stay here, built on ``akh.exact.rref``, as
independent references for the tests, with ``hstack``, which only
``inverse`` uses.

``evaluate`` substitutes values for the parameters of a ``ParamPoly``, the
oracle that its ring operations are the ones of the values.

Nor does ``akh`` read forms in real frame coordinates after ``build``:
``real_expansion``, ``real_coordinates`` and ``real_harmonic_basis`` keep
that route here, as the reference for the Hodge index, which ``akh`` takes
on complex forms, and for the volume form.  ``form_from_real`` is the way
back, over the rows of the solved inverse of ``alg.T``: the route ``build``
once took to d, kept as the reference for d on the generators, which
``akh`` reads off the brackets of the dual frame.

``dense_hermitian_signature`` is the dense congruence diagonalization that
``akh.exact.hermitian_signature`` did before it eliminated on sparse rows.

``mu_bar_cohomology_by_rank`` counts ker/im of mu_bar by two ranks, the
reference for ``akh.harmonic.mu_bar_cohomology``, which counts the
mu_bar-harmonic forms instead.

``eightfold_d_kernel`` stacks the four components of d and their four
adjoints, the reference for the d-harmonic space, which ``akh`` takes as
the kernel of d and d* alone.

``sort_with_sign`` sorts a sequence of generators by counting inversions,
the reference for the shuffle sign of ``akh.forms.merge_wedge``.
"""

import functools
import itertools
from fractions import Fraction
from typing import Mapping, Sequence

from akh.exact import (GAUSS_ONE, GAUSS_ZERO, ExactError, ExactMatrix, GaussScalar, ParamPoly,
                       as_gauss, kernel, rank, rref, vstack)
from akh.forms import MU_BAR_SHIFT, Form, wedge_sum


def sparse(vec: Sequence) -> dict:
    """The sparse vector {index: entry} of a dense one, zeros dropped: the
    form ``akh.exact.kernel`` and ``ExactMatrix.apply`` use."""
    return {j: a for j, a in enumerate(vec) if a}


def dense(vec: Mapping, n: int) -> tuple:
    """The dense length-n vector of a sparse one."""
    return tuple(vec.get(j, GAUSS_ZERO) for j in range(n))


def solve(mat: ExactMatrix, rhs: Sequence):
    """One solution of mat @ x = rhs, or None when inconsistent.

    Free variables are set to zero, so the returned solution is canonical.
    """
    if len(rhs) != mat.rows:
        raise ExactError("rhs length mismatch")
    n = mat.cols
    aug = []
    for i, b in enumerate(rhs):
        row, b = dict(mat.row_items(i)), as_gauss(b)
        if b:
            row[n] = b
        aug.append(row)
    R, pivots = rref(ExactMatrix._from_rows(aug, n + 1))
    if n in pivots:
        return None
    x = [GAUSS_ZERO] * n
    for r, c in enumerate(pivots):
        x[c] = R[r, n]
    return tuple(x)


def hstack(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    """The matrices side by side: row i joins the rows i of all of them,
    each shifted past the columns of the ones before it."""
    mats = list(mats)
    if not mats:
        raise ExactError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ExactError("hstack row mismatch")
    out = [{} for _ in range(rows)]
    offset = 0
    for m in mats:
        for i, row in enumerate(out):
            row.update((offset + j, a) for j, a in m.row_items(i))
        offset += m.cols
    return ExactMatrix._from_rows(out, offset)


def inverse(mat: ExactMatrix) -> ExactMatrix:
    if mat.rows != mat.cols:
        raise ExactError("inverse of a non-square matrix")
    n = mat.rows
    R, pivots = rref(hstack([mat, ExactMatrix.identity(n)]))
    if len(pivots) < n or pivots[:n] != tuple(range(n)):
        raise ExactError("matrix is singular")
    return R.submatrix(range(n), range(n, 2 * n))


def in_span(basis: Sequence[Sequence], vec: Sequence) -> bool:
    """Whether vec lies in the span of the given vectors."""
    basis = list(basis)
    if not basis:
        return all(not as_gauss(v) for v in vec)
    return solve(ExactMatrix(basis).transpose(), list(vec)) is not None


def dense_hermitian_signature(mat: ExactMatrix) -> tuple:
    """(n_plus, n_minus, n_zero) of a Hermitian matrix by congruence
    diagonalization on a dense copy, with paired row and column operations."""
    if mat.rows != mat.cols:
        raise ExactError("signature of a non-square matrix")
    if mat != mat.conj_transpose():
        raise ExactError("matrix is not hermitian")
    n = mat.rows
    work = [list(row) for row in mat.data]

    def add_row_col(i, j, c):
        # row_i += c * row_j, then col_i += conj(c) * col_j
        work[i] = [a + c * b for a, b in zip(work[i], work[j])]
        cc = c.conj()
        for r in range(n):
            work[r][i] = work[r][i] + cc * work[r][j]

    def swap(i, j):
        work[i], work[j] = work[j], work[i]
        for r in range(n):
            work[r][i], work[r][j] = work[r][j], work[r][i]

    diag = []
    for k in range(n):
        if not work[k][k]:
            moved = False
            for j in range(k + 1, n):
                if work[j][j]:
                    swap(k, j)
                    moved = True
                    break
            if not moved:
                found = None
                for i in range(k, n):
                    for j in range(i + 1, n):
                        if work[i][j]:
                            found = (i, j)
                            break
                    if found:
                        break
                if found is None:
                    diag.extend([Fraction(0)] * (n - k))
                    break
                i, j = found
                # both diagonal entries are zero here, so this creates the
                # positive pivot 2 |work[i][j]|^2
                add_row_col(i, j, work[i][j])
                if i != k:
                    swap(k, i)
        pivot = work[k][k]
        if not pivot.is_real():
            raise ExactError("diagonal entry not real under congruence")
        for r in range(k + 1, n):
            if work[r][k]:
                add_row_col(r, k, -work[r][k] / pivot)
        diag.append(Fraction(pivot._a, pivot._d))
    plus = sum(1 for d in diag if d > 0)
    minus = sum(1 for d in diag if d < 0)
    return (plus, minus, n - plus - minus)


def real_expansion(alg, mono) -> dict:
    """A coframe monomial over the real frame monomials: the wedge, left to
    right, of the rows of ``alg.T`` that its generators index."""
    return functools.reduce(
        lambda acc, g: wedge_sum((acc, {(k,): c for k, c in alg.T.row_items(g)})),
        mono, {(): GAUSS_ONE})


def real_coordinates(alg, form, degree: int) -> dict:
    """The sparse vector {index: nonzero coefficient} of a pure-degree form
    over the real frame monomials of that degree, indexed in the order of
    itertools.combinations(range(2m), degree).  A coframe monomial expands
    over them through the rows of ``alg.T``."""
    index = {mono: i for i, mono in
             enumerate(itertools.combinations(range(2 * alg.m), degree))}
    out = {}
    for mono, c in form.terms.items():
        if len(mono) != degree:
            raise ExactError("form is not of the requested pure degree")
        for rmono, rc in real_expansion(alg, mono).items():
            out[index[rmono]] = out.get(index[rmono], GAUSS_ZERO) + c * rc
    return {i: c for i, c in out.items() if c}


def form_from_real(alg, comps: Mapping) -> Form:
    """The form with coefficients ``comps`` {real frame monomial: scalar}.
    A real generator x_i is sum_k inverse(T)[i][k] a_k, and a monomial is
    the wedge, left to right, of its generators."""
    t_inv = inverse(alg.T)
    gens = [{(k,): c for k, c in t_inv.row_items(i)} for i in range(t_inv.rows)]

    def expand(rmono):
        return functools.reduce(lambda acc, i: wedge_sum((acc, gens[i])), rmono, {(): GAUSS_ONE})

    return Form(alg, wedge_sum(*(({(): c}, expand(rmono)) for rmono, c in comps.items())))


def real_harmonic_basis(alg, degree: int) -> tuple:
    """Real forms spanning the d-harmonic forms of one total degree: the
    complex kernel of [d; d*] written in real frame coordinates, split into
    real and imaginary parts, row-reduced and read back as real forms."""
    vecs = kernel(vstack([alg.d.degree_slice(degree, degree + 1),
                          alg.d.adjoint().degree_slice(degree, degree - 1)]))
    rmonos = list(itertools.combinations(range(2 * alg.m), degree))
    start = alg.degree_range(degree).start
    rows = []
    for vec in vecs:
        coords = real_coordinates(alg, alg.form_from_vector(vec, start), degree)
        rows.append({j: GaussScalar(a.re) for j, a in coords.items() if a.re})
        rows.append({j: GaussScalar(a.im) for j, a in coords.items() if a.im})
    reduced, pivots = rref(ExactMatrix._from_rows(rows, len(rmonos)))
    if len(pivots) != len(vecs):
        raise ExactError("harmonic space is not conjugation-stable")
    return tuple(form_from_real(alg, {rmonos[j]: c for j, c in reduced.row_items(r)})
                 for r in range(len(pivots)))


def mu_bar_cohomology_by_rank(alg, p: int, q: int) -> int:
    """dim ker/im of mu_bar on the (p,q) block: its dimension minus the rank
    of mu_bar out of (p,q) and the rank of mu_bar into it, from (p+1,q-2)."""
    src = (p + 1, q - 2)
    into = rank(alg.mu_bar.block(src, MU_BAR_SHIFT)) if src in alg.blocks else 0
    return alg.dim_block((p, q)) - rank(alg.mu_bar.block((p, q), MU_BAR_SHIFT)) - into


def eightfold_d_kernel(alg, pq) -> tuple:
    """Canonical kernel on block pq of mu_bar, dbar, partial, mu and their
    adjoints, stacked."""
    ops = [getattr(alg, name) for name in ("mu_bar", "dbar", "partial", "mu")]
    ops += [op.adjoint() for op in ops]
    return tuple(kernel(vstack([op.columns(pq) for op in ops])))


def sort_with_sign(gens) -> tuple:
    """(sorted tuple, sign of the permutation that sorts ``gens``)."""
    gens = tuple(gens)
    inversions = sum(1 for a, b in itertools.combinations(gens, 2) if a > b)
    return tuple(sorted(gens)), (-1 if inversions % 2 else 1)


def evaluate(poly: ParamPoly, assignment: Mapping) -> GaussScalar:
    """The value of poly when each parameter takes its value in assignment
    {name: scalar}."""
    values = [as_gauss(assignment[name]) for name in poly.names]
    total = GAUSS_ZERO
    for expo, coeff in poly.terms.items():
        term = coeff
        for v, e in zip(values, expo):
            for _ in range(e):
                term = term * v
        total = total + term
    return total
