"""Exact arithmetic over the Gaussian rationals, plus sparse linear algebra.

Everything in this package reduces to linear algebra over Q(i).  A scalar is
one normalized integer triple (a, b, d) meaning (a + b*i)/d, so its arithmetic
is a few int products and one gcd.  It is the only rational type; a real one
equals and hashes like the int or standard library rational of its value, and
either is accepted wherever a scalar is.  Matrices store each row as a dict
from column to nonzero entry (the operators here are mostly zeros), and a
vector is the same kind of dict: ``kernel`` returns its basis vectors that
way, and ``ExactMatrix.apply`` takes and returns them.  Every routine is
deterministic: reduced row echelon form takes pivot columns leftmost first,
each from the sparsest unused row holding it, and R is the one reduced row
echelon form of the matrix for that column order whichever row supplies a
pivot, so kernel bases are canonical for a given input.

ParamPoly adds multivariate polynomials over Q(i) in named real parameters.
They express a family of forms (a 2-form whose coefficients are linear in
the parameters), and a wedge power of the family vanishes for every
parameter value exactly when all its coefficients do.  That power runs
products (with scalars on either side) and the truth value, and sums and
negation when two wedge terms meet on one monomial; equality, hashing and
printing serve only the tests.
"""

from __future__ import annotations

import sys
from math import gcd
from typing import Iterable, Mapping, Optional, Sequence, Union

# a GaussScalar, or any rational _lift reads
ScalarLike = Union["GaussScalar", int]


class AkhError(ValueError):
    """Base of every error class akh defines (bad input, unusable requests)."""


class ExactError(AkhError):
    """Raised for structural misuse: shape mismatches, singular inversion."""


class GaussScalar:
    """A Gaussian rational (a + b*i)/d held as three ints, with d > 0 and
    gcd(a, b, d) = 1, so that equal scalars have equal triples.  The value
    is fixed, from real rational parts: ``re`` and ``im`` read them back."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: ScalarLike = 0, im: ScalarLike = 0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        r, s = _lift(re), _lift(im)
        if r is None or s is None or r._b or s._b:
            raise ExactError(f"{quote(re if r is None or r._b else im)} is not a real rational")
        z = _make(r._a * s._d, s._a * r._d, r._d * s._d)
        self._a, self._b, self._d = z._a, z._b, z._d

    re = property(lambda self: _make(self._a, 0, self._d), doc="Real part.")
    im = property(lambda self: _make(self._b, 0, self._d), doc="Imaginary part.")

    # -- ring operations ---------------------------------------------------

    # An operand that is not a scalar (an ExactMatrix or a ParamPoly) gets
    # NotImplemented, so Python tries its reflected method: k * M works as
    # M * k does.

    def __add__(self, other):
        if type(other) is not GaussScalar and (other := _lift(other)) is None:
            return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == f:
            return _make(a + c, b + e, d)
        return _make(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other: ScalarLike) -> "GaussScalar":
        return (-self).__add__(other)

    def __mul__(self, other):
        if type(other) is not GaussScalar and (other := _lift(other)) is None:
            return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        return _make(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussScalar":
        if type(other) is not GaussScalar and (other := _lift(other)) is None:
            return NotImplemented
        # (a + bi)/d over (c + ei)/f is (a + bi)(c - ei) f / (d (c^2 + e^2))
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero GaussScalar")
        return _make((a * c + b * e) * f, (b * c - a * e) * f, d * n)

    def __rtruediv__(self, other: ScalarLike) -> "GaussScalar":
        other = _lift(other)
        return NotImplemented if other is None else other.__truediv__(self)

    def __neg__(self) -> "GaussScalar":
        return _raw(-self._a, -self._b, self._d)

    def __pos__(self) -> "GaussScalar":
        return self

    # -- structure ---------------------------------------------------------

    def conj(self) -> "GaussScalar":
        return _raw(self._a, -self._b, self._d)

    def norm_sq(self) -> "GaussScalar":
        """|z|^2 as an exact nonnegative real scalar."""
        return _make(self._a * self._a + self._b * self._b, 0, self._d * self._d)

    def is_real(self) -> bool:
        return self._b == 0

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other) -> bool:
        if type(other) is GaussScalar:
            return self._a == other._a and self._b == other._b and self._d == other._d
        other = _lift(other)
        return NotImplemented if other is None else self == other

    def __hash__(self):
        if self._b:
            return hash((self._a, self._b, self._d))
        # as Python hashes the rational a/d: a times 1/d modulo P, signed
        P, inf = sys.hash_info.modulus, sys.hash_info.inf
        if self._d % P == 0:
            return inf if self._a > 0 else -inf
        return hash(self._a * pow(self._d, -1, P))

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GaussScalar({format_scalar(self)!r})"


def _raw(a: int, b: int, d: int) -> GaussScalar:
    """(a + b*i)/d from a triple that is already normalized."""
    z = object.__new__(GaussScalar)
    z._a, z._b, z._d = a, b, d
    return z


def _make(a: int, b: int, d: int) -> GaussScalar:
    """(a + b*i)/d in lowest terms, for any d > 0."""
    g = gcd(a, b, d)
    if g == 1:
        return _raw(a, b, d)
    return _raw(a // g, b // g, d // g)


GAUSS_ZERO = GaussScalar(0)
GAUSS_ONE = GaussScalar(1)
GAUSS_I = GaussScalar(0, 1)


def _lift(x) -> Optional[GaussScalar]:
    """x as a GaussScalar when it is one or has int ``numerator`` and
    ``denominator`` (an int, a standard library rational), else None."""
    if type(x) is int:
        return _raw(x, 0, 1)
    if type(x) is GaussScalar:
        return x
    n, d = getattr(x, "numerator", None), getattr(x, "denominator", None)
    if isinstance(n, int) and isinstance(d, int) and d > 0:
        return _make(int(n), 0, int(d))
    return None


def as_gauss(x: ScalarLike) -> GaussScalar:
    if (z := _lift(x)) is None:
        raise ExactError(f"cannot coerce {quote(x)} to a GaussScalar")
    return z


def _sparse_vector(vec, n: int, start: int = 0) -> Mapping:
    """``vec``, or an ExactError unless it is a mapping whose keys j are ints
    (not bools) with 0 <= start + j < n: the one check of a sparse vector
    argument; its entries are the caller's to read."""
    if not (isinstance(vec, Mapping) and type(start) is int
            and all(type(j) is int and 0 <= start + j < n for j in vec)):
        raise ExactError(f"{quote(vec)} from index {quote(start)} is not a sparse vector "
                         f"on {n} coordinates")
    return vec


def format_scalar(z: GaussScalar) -> str:
    """Canonical string form: '0', '-1/2', 'i', '2/3*i', '1/2-3/4*i'."""
    a, b, d = z._a, z._b, z._d
    if not b:  # a real triple is a fraction in lowest terms
        return str(a) if d == 1 else f"{a}/{d}"
    imag = ("i" if b > 0 else "-i") if abs(b) == d else f"{z.im}*i"
    if not a:
        return imag
    return f"{z.re}{'+' if b > 0 else ''}{imag}"


def format_flag(value: Optional[bool]) -> str:
    """A report flag as text: 'true', 'false', or 'n/a' for None."""
    if value is None:
        return "n/a"
    return "true" if value else "false"


# the standard library's rationals read underscores between digits from
# Python 3.11 and whitespace around the slash from 3.12
_UNDERSCORES, _SPACED_SLASH = sys.version_info >= (3, 11), sys.version_info >= (3, 12)


def _digits(text: str) -> bool:
    """Whether text is decimal digits of any script, underscores between."""
    return all(part.isdecimal() for part in (text.split("_") if _UNDERSCORES else (text,)))


def parse_rational(text: str) -> GaussScalar:
    """[sign] n/d or [sign] n[.f] amid whitespace, read as the standard
    library's rationals read it, or an ExactError that says why not.
    Exponent notation is refused ('1e1000000' would build a million-digit
    integer, and akh never writes an exponent), and so is a numerator or
    denominator past the interpreter's limit on the digits of an int;
    neither refusal echoes the text, which may be thousands of characters
    long, and any other bad text is shown through ``quote``."""
    limit = sys.get_int_max_str_digits()
    if limit and any(sum(ch.isdecimal() for ch in part) > limit for part in text.split("/")):
        raise ExactError(f"rational with more than {limit} digits in its numerator "
                         "or denominator")
    if "e" in text or "E" in text:
        raise ExactError("exponent notation in rational")
    s = text.strip()
    body = s[1:] if s[:1] in ("+", "-") else s
    num, slash, den = body.partition("/")
    if slash:
        num, den = (num.rstrip(), den.lstrip()) if _SPACED_SLASH else (num, den)
        ok = _digits(num) and _digits(den) and int(den) != 0
    else:
        whole, _, frac = body.partition(".")
        ok = bool(whole or frac) and all(_digits(x) for x in (whole, frac) if x)
        frac = frac.replace("_", "")
        num, den = (whole or "0") + frac, 10 ** len(frac) if ok else 1
    if not ok:
        raise ExactError(f"bad rational {quote(text)}")
    return _make(-int(num) if s[:1] == "-" else int(num), 0, int(den))


def quote(value) -> str:
    """repr(value), or for a longer one its first 40 characters and its
    length: an error message never echoes a long input whole.  A value
    holding an int past the digit limit has no repr and is named as such."""
    try:
        text = repr(value)
    except ValueError:
        return f"a value holding an integer of more than {sys.get_int_max_str_digits()} digits"
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def parse_scalar(text: str) -> GaussScalar:
    """Inverse of format_scalar; also accepts '3i' without the '*'."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ExactError("empty scalar string")
    re_part, im_part = s, "0"
    if s.endswith("i"):
        body = s[:-1].removesuffix("*")
        # split off a real part if a sign occurs past position 0
        split = max(body.rfind("+"), body.rfind("-"))
        re_part, im_part = (body[:split], body[split:]) if split > 0 else ("0", body)
        im_part = {"": "1", "+": "1", "-": "-1"}.get(im_part, im_part)
    return GaussScalar(parse_rational(re_part), parse_rational(im_part))


# ---------------------------------------------------------------------------
# matrices


class ExactMatrix:
    """Immutable sparse matrix over GaussScalar.

    Each row is a dict {column: nonzero entry}; zeros are never stored and
    there is no dense copy.  ``data`` is a dense view built on access, for
    display.
    """

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, data: Iterable[Iterable[ScalarLike]], cols: Optional[int] = None):
        """``cols`` pins the width of a matrix with no rows (or no columns),
        where it cannot be inferred; required to keep shapes honest through
        degenerate blocks.  Zero entries are dropped."""
        sparse = []
        width = None
        for row in data:
            row = [as_gauss(x) for x in row]
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ExactError("ragged matrix rows")
            sparse.append({j: a for j, a in enumerate(row) if a})
        if width is None:
            width = 0 if cols is None else cols
        elif cols is not None and cols != width:
            raise ExactError(f"stated width {cols} contradicts rows of {width}")
        self._set(sparse, width)

    def _set(self, rows, cols: int) -> None:
        rows = tuple(rows)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols)

    @classmethod
    def _from_rows(cls, rows: Iterable[dict], cols: int) -> "ExactMatrix":
        """Wrap row dicts {column: nonzero GaussScalar} as they are.  The
        caller vouches that no entry is zero and every column is below
        ``cols``, and does not touch the dicts afterwards."""
        mat = object.__new__(cls)
        mat._set(rows, cols)
        return mat

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # private: the zero and the identity matrix take only sizes akh computes
    @classmethod
    def _zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls._from_rows([{} for _ in range(rows)], cols)

    @classmethod
    def _identity(cls, n: int) -> "ExactMatrix":
        return cls._from_rows([{i: GAUSS_ONE} for i in range(n)], n)

    def __getitem__(self, key) -> GaussScalar:
        i, j = key
        if not -self.cols <= j < self.cols:
            raise IndexError("matrix column index out of range")
        return self._rows[i].get(j % self.cols, GAUSS_ZERO)

    def row_items(self, i: int):
        """The (column, entry) pairs of the nonzero entries of row i."""
        return self._rows[i].items()

    @property
    def data(self) -> tuple:
        """Dense tuple-of-tuples view, zeros filled in."""
        return tuple(tuple(row.get(j, GAUSS_ZERO) for j in range(self.cols))
                     for row in self._rows)

    def submatrix(self, rows: range, cols: range) -> "ExactMatrix":
        """The entries in a contiguous range of rows and one of columns, as a
        matrix of their own."""
        c0, c1 = cols.start, cols.stop
        return ExactMatrix._from_rows([{j - c0: a for j, a in row.items() if c0 <= j < c1}
                                       for row in self._rows[rows.start:rows.stop]], len(cols))

    # An operand that is not a matrix gets NotImplemented, so M + 1 raises
    # TypeError like any unsupported operand.

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._same_shape(other)
        out = []
        for ra, rb in zip(self._rows, other._rows):
            acc = dict(ra)
            for j, b in rb.items():
                a = acc.get(j)
                s = b if a is None else a + b
                if s:
                    acc[j] = s
                else:
                    del acc[j]
            out.append(acc)
        return ExactMatrix._from_rows(out, self.cols)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix._from_rows(
            [{j: -a for j, a in row.items()} for row in self._rows], self.cols
        )

    def __mul__(self, scalar: ScalarLike) -> "ExactMatrix":
        c = as_gauss(scalar)
        if not c:
            return ExactMatrix._zeros(self.rows, self.cols)
        return ExactMatrix._from_rows(
            [{j: a * c for j, a in row.items()} for row in self._rows], self.cols
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ExactError(f"shape mismatch {self.shape} @ {other.shape}")
        # row i of the product sums a_ik * (row k of other) over the nonzero
        # a_ik, so only pairs of nonzero entries are multiplied
        right = other._rows
        out = []
        for row in self._rows:
            acc = {}
            for k, a in row.items():
                for j, b in right[k].items():
                    s = acc.get(j)
                    acc[j] = a * b if s is None else s + a * b
            out.append({j: s for j, s in acc.items() if s})
        return ExactMatrix._from_rows(out, other.cols)

    def apply(self, vec: Mapping) -> dict:
        """Matrix times a sparse column vector {column: entry}, returned as
        {row: entry} with no zero entry.  The vector entries may be zero, or
        any ring elements that multiply with GaussScalar (ParamPoly too)."""
        vec = _sparse_vector(vec, self.cols)
        out = {}
        for i, row in enumerate(self._rows):
            acc = None
            for j, a in row.items():
                x = vec.get(j)
                if x is not None:
                    acc = a * x if acc is None else acc + a * x
            if acc:
                out[i] = acc
        return out

    def transpose(self) -> "ExactMatrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._rows):
            for j, a in row.items():
                out[j][i] = a
        return ExactMatrix._from_rows(out, self.rows)

    def conj(self) -> "ExactMatrix":
        return ExactMatrix._from_rows(
            [{j: a.conj() for j, a in row.items()} for row in self._rows], self.cols
        )

    def conj_transpose(self) -> "ExactMatrix":
        return self.transpose().conj()

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.shape == other.shape and self._rows == other._rows

    def __hash__(self):
        return hash((self.cols, tuple(frozenset(row.items()) for row in self._rows)))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(format_scalar(a) for a in row) for row in self.data
        )
        return f"ExactMatrix[{self.rows}x{self.cols}]({body})"

    def _same_shape(self, other: "ExactMatrix") -> None:
        if self.shape != other.shape:
            raise ExactError(f"shape mismatch {self.shape} vs {other.shape}")


def vstack(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    mats = list(mats)
    if not mats or not all(isinstance(m, ExactMatrix) for m in mats):
        raise ExactError(f"vstack takes one or more ExactMatrices, got {quote(mats)}")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ExactError("vstack column mismatch")
    return ExactMatrix._from_rows([row for m in mats for row in m._rows], cols)


def _add_multiple(row: dict, f: GaussScalar, other: dict) -> None:
    """row += f * other, in place, zeros dropped."""
    for j, b in other.items():
        a = row.get(j, GAUSS_ZERO) + f * b
        if a:
            row[j] = a
        else:
            del row[j]


def rref(mat: ExactMatrix) -> tuple:
    """Reduced row echelon form.  Returns (R, pivot_columns).

    Scans columns left to right; the pivot of column c comes from the
    sparsest unused row holding c, the lowest such row on a tie, so fill-in
    stays small.  Which row supplies a pivot cannot change R: a matrix has
    one reduced row echelon form for a given column order.  Entries live in
    the field Q(i), so classical normalized elimination is exact; no
    fraction-free bookkeeping is needed.
    """
    if not isinstance(mat, ExactMatrix):
        raise ExactError(f"rref of {quote(mat)}, not an ExactMatrix")
    # elimination works on copies of the nonempty sparse rows, so a step
    # touches only the nonzero columns of the pivot row; holders[c] is the set
    # of rows holding column c, so a step visits only those rows.  Fill-in
    # lands only in columns the pivot row holds, so no column gains its first
    # holder and the columns no row holds are never visited.  An empty row
    # never holds a pivot and R is zero below its pivots, so the empty rows
    # return as padding at the bottom
    work = [dict(row) for row in mat._rows if row]
    holders = {}
    for i, row in enumerate(work):
        for c in row:
            holders.setdefault(c, set()).add(i)
    used, pivot_rows, pivots = set(), [], []
    for c in sorted(holders):
        if len(pivots) == len(work):  # every nonzero row holds a pivot
            break
        r = min((i for i in holders[c] if i not in used),
                key=lambda i: (len(work[i]), i), default=None)
        if r is None:
            continue
        inv = GAUSS_ONE / work[r][c]
        prow = work[r] = {j: a * inv for j, a in work[r].items()}
        for i in holders[c] - {r}:
            row, f = work[i], -work[i][c]
            for j, b in prow.items():
                a = row.get(j)
                if (s := f * b if a is None else a + f * b):
                    row[j] = s
                    holders[j].add(i)
                else:
                    del row[j]
                    holders[j].discard(i)
        used.add(r)
        pivot_rows.append(r)
        pivots.append(c)
    rows = [work[r] for r in pivot_rows] + [{} for _ in range(mat.rows - len(pivots))]
    return ExactMatrix._from_rows(rows, mat.cols), tuple(pivots)


def rank(mat: ExactMatrix) -> int:
    return len(rref(mat)[1])


def kernel(mat: ExactMatrix) -> list:
    """Canonical kernel basis: one sparse vector {column: entry} per free
    column, holding 1 there and no zero entry.

    The basis is ordered by free column index; with the deterministic rref
    this makes kernel output reproducible across runs and platforms.
    """
    R, pivots = rref(mat)
    basis = {f: {} for f in range(mat.cols)}
    for c in pivots:
        del basis[c]
    # besides its pivot, a reduced pivot row holds entries in free columns only
    for row, c in zip(R._rows, pivots):
        for f, a in row.items():
            if f != c:
                basis[f][c] = -a
    for f, vec in basis.items():
        vec[f] = GAUSS_ONE
    return list(basis.values())


def hermitian_signature(mat: ExactMatrix) -> tuple:
    """(n_plus, n_minus, n_zero) of a complex Hermitian matrix, a real
    symmetric one included: congruence-diagonalize it and count the signs
    of the (real) diagonal values.

    Sylvester's law makes the result independent of the congruence used.
    """
    if not isinstance(mat, ExactMatrix) or mat.rows != mat.cols:
        raise ExactError(f"signature of {quote(mat)}, not a square ExactMatrix")
    if mat != mat.conj_transpose():
        raise ExactError("matrix is not hermitian")
    # the nonzero rows of the block still to diagonalize; the block stays
    # Hermitian, so row i is the conjugate of column i and row operations
    # alone carry each step
    work = {i: dict(row) for i, row in enumerate(mat._rows) if row}
    positive = []
    while work:
        k = next((i for i, row in work.items() if i in row), None)
        if k is None:
            # every diagonal entry is zero: row_k += c row_j, then
            # col_k += conj(c) col_j with c = a_kj gives the pivot 2 |c|^2,
            # and the new column k is the conjugate of the new row k
            k, row = next(iter(work.items()))
            j, c = next(iter(row.items()))
            touched = set(row) | set(work[j])
            _add_multiple(row, c, work[j])
            row[k] = row.get(k, GAUSS_ZERO) + c.conj() * row[j]
            for r in touched - {k}:
                work[r].pop(k, None)
                if r in row:
                    work[r][k] = row[r].conj()
        # pivot on a_kk: subtracting a_rk / a_kk times row k from each row r
        # leaves the Schur complement, and a_kk is real
        row = work.pop(k)
        pivot = row[k]
        positive.append(pivot._a > 0)
        for r in row:
            if r != k:
                _add_multiple(work[r], -work[r][k] / pivot, row)
                if not work[r]:
                    del work[r]
    plus = sum(positive)
    return (plus, len(positive) - plus, mat.rows - len(positive))


# ---------------------------------------------------------------------------
# parameter polynomials


class ParamPoly:
    """Polynomial over Q(i) in a fixed tuple of named real parameters.

    Terms map exponent tuples to nonzero GaussScalar coefficients.  All
    arithmetic partners must share the same name tuple; scalars are lifted.
    """

    __slots__ = ("names", "terms")

    def __init__(self, names: Sequence[str], terms: Mapping[tuple, ScalarLike]):
        names = tuple(names)
        clean = {}
        for expo, coeff in terms.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != len(names):
                raise ExactError("exponent tuple length mismatch")
            c = as_gauss(coeff)
            if c:
                clean[expo] = c
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ParamPoly is immutable")

    @classmethod
    def constant(cls, names: Sequence[str], value: ScalarLike) -> "ParamPoly":
        return cls(names, {(0,) * len(tuple(names)): as_gauss(value)})

    @classmethod
    def variable(cls, names: Sequence[str], which: str) -> "ParamPoly":
        names = tuple(names)
        expo = [0] * len(names)
        expo[names.index(which)] = 1
        return cls(names, {tuple(expo): GAUSS_ONE})

    def _coerce(self, other) -> "ParamPoly":
        if isinstance(other, ParamPoly):
            if other.names != self.names:
                raise ExactError("parameter name mismatch")
            return other
        return ParamPoly.constant(self.names, as_gauss(other))

    def __add__(self, other) -> "ParamPoly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for expo, c in other.terms.items():
            terms[expo] = terms.get(expo, GAUSS_ZERO) + c
        return ParamPoly(self.names, terms)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly(self.names, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "ParamPoly":
        other = self._coerce(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                terms[expo] = terms.get(expo, GAUSS_ZERO) + c1 * c2
        return ParamPoly(self.names, terms)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, ParamPoly):
            return self.names == other.names and self.terms == other.terms
        if (z := _lift(other)) is None:
            return NotImplemented
        return self == ParamPoly.constant(self.names, z)

    def __hash__(self):
        # a constant equals its GaussScalar, so it hashes as that scalar
        constant = (0,) * len(self.names)
        if set(self.terms) <= {constant}:
            return hash(self.terms.get(constant, GAUSS_ZERO))
        return hash((self.names, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, reverse=True):
            coeff = self.terms[expo]
            factors = []
            for name, e in zip(self.names, expo):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            cs = format_scalar(coeff)
            if body:
                if cs == "1":
                    parts.append(body)
                elif cs == "-1":
                    parts.append(f"-{body}")
                else:
                    parts.append(f"({cs})*{body}")
            else:
                parts.append(f"({cs})" if ("+" in cs or "-" in cs[1:]) else cs)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ParamPoly({str(self)!r})"
