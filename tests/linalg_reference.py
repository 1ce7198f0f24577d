"""Reference linear algebra over Q(i) that the tests check akh against.

``akh`` itself no longer needs a linear solve, an inverse or a span test:
the metric is diagonal and every subspace is compared through canonical
kernel bases.  These routines stay here, built on ``akh.exact.rref``, as
independent references for the tests.
"""

from typing import Mapping, Sequence

from akh.exact import GAUSS_ZERO, ExactError, ExactMatrix, as_gauss, hstack, rref


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
