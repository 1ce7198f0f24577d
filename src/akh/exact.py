"""Exact arithmetic over the Gaussian rationals, plus sparse linear algebra.

Everything in this package reduces to linear algebra over Q(i).  A scalar is
one normalized integer triple (a, b, d) meaning (a + b*i)/d, so its arithmetic
is a few int products and one gcd, with no Fraction objects.  Matrices store
each row as a dict from column to nonzero entry (the operators here are mostly
zeros), and a vector is the same kind of dict: ``kernel`` returns its basis
vectors that way, and ``ExactMatrix.apply`` takes and returns them.  Every
routine is deterministic: reduced row echelon form always picks the leftmost
pivot column and the topmost unused row, so kernel bases are canonical for a
given input.

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
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence, Union

ScalarLike = Union["GaussScalar", Fraction, int]


class AkhError(ValueError):
    """Base of every error class akh defines (bad input, unusable requests)."""


class ExactError(AkhError):
    """Raised for structural misuse: shape mismatches, singular inversion."""


class GaussScalar:
    """A Gaussian rational (a + b*i)/d held as three ints, with d > 0 and
    gcd(a, b, d) = 1, so that equal scalars have equal triples.  The value
    is fixed: ``re`` and ``im`` are read-only Fraction views of the parts."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: Union[Fraction, int] = 0, im: Union[Fraction, int] = 0):
        if type(re) is int and type(im) is int:
            d = 1
        else:
            re, im = Fraction(re), Fraction(im)
            # over the lcm of two reduced denominators the triple is reduced
            d = lcm(re.denominator, im.denominator)
            re, im = re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)
        self._a, self._b, self._d = re, im, d

    re = property(lambda self: Fraction(self._a, self._d), doc="Real part.")
    im = property(lambda self: Fraction(self._b, self._d), doc="Imaginary part.")

    # -- ring operations ---------------------------------------------------

    # An operand that is not a scalar (an ExactMatrix or a ParamPoly) gets
    # NotImplemented, so Python tries its reflected method: k * M works as
    # M * k does.

    def __add__(self, other):
        if type(other) is not GaussScalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussScalar(other)
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == f:
            return _make(a + c, b + e, d)
        return _make(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (GaussScalar, int, Fraction)):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other: ScalarLike) -> "GaussScalar":
        return (-self).__add__(other)

    def __mul__(self, other):
        if type(other) is not GaussScalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussScalar(other)
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        return _make(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussScalar":
        if not isinstance(other, (GaussScalar, int, Fraction)):
            return NotImplemented
        other = as_gauss(other)
        # (a + bi)/d over (c + ei)/f is (a + bi)(c - ei) f / (d (c^2 + e^2))
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero GaussScalar")
        return _make((a * c + b * e) * f, (b * c - a * e) * f, d * n)

    def __rtruediv__(self, other: ScalarLike) -> "GaussScalar":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return GaussScalar(other).__truediv__(self)

    def __neg__(self) -> "GaussScalar":
        return _raw(-self._a, -self._b, self._d)

    def __pos__(self) -> "GaussScalar":
        return self

    # -- structure ---------------------------------------------------------

    def conj(self) -> "GaussScalar":
        return _raw(self._a, -self._b, self._d)

    def norm_sq(self) -> Fraction:
        """|z|^2 as an exact nonnegative rational."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def is_real(self) -> bool:
        return self._b == 0

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussScalar):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (Fraction, int)):
            return not self._b and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        # a real scalar equals an int or Fraction, so it hashes as one
        if not self._b:
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

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


def as_gauss(x: ScalarLike) -> GaussScalar:
    if isinstance(x, GaussScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussScalar(x)
    raise ExactError(f"cannot coerce {quote(x)} to a GaussScalar")


def format_scalar(z: GaussScalar) -> str:
    """Canonical string form: '0', '-1/2', 'i', '2/3*i', '1/2-3/4*i'."""
    if z.im == 0:
        return str(z.re)
    if abs(z.im) == 1:
        imag = "i" if z.im > 0 else "-i"
    else:
        imag = f"{z.im}*i"
    if z.re == 0:
        return imag
    sign = "+" if z.im > 0 else ""
    return f"{z.re}{sign}{imag}"


def format_flag(value: Optional[bool]) -> str:
    """A report flag as text: 'true', 'false', or 'n/a' for None."""
    if value is None:
        return "n/a"
    return "true" if value else "false"


def parse_rational(text: str) -> Fraction:
    """Fraction(text), or an ExactError that says why not.  Exponent notation
    is refused ('1e1000000' would build a million-digit integer, and akh
    never writes an exponent), and so is a numerator or denominator past the
    interpreter's limit on the digits of an int; neither refusal echoes the
    text, which may be thousands of characters long, and any other bad text
    is shown through ``quote``."""
    limit = sys.get_int_max_str_digits()
    if limit and any(sum(ch.isdecimal() for ch in part) > limit for part in text.split("/")):
        raise ExactError(f"rational with more than {limit} digits in its numerator "
                         "or denominator")
    if "e" in text or "E" in text:
        raise ExactError("exponent notation in rational")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ExactError(f"bad rational {quote(text)}") from None


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

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls._from_rows([{} for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
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
            return ExactMatrix.zeros(self.rows, self.cols)
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
        if any(not 0 <= j < self.cols for j in vec):
            raise ExactError("vector index out of range")
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
    if not mats:
        raise ExactError("vstack of nothing")
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

    Deterministic: scans columns left to right, picks the topmost nonzero
    entry as pivot.  Entries live in the field Q(i), so classical normalized
    elimination is exact; no fraction-free bookkeeping is needed.
    """
    # elimination works on copies of the nonempty sparse rows, so a step
    # touches only the nonzero columns of the pivot row; an empty row never
    # holds a pivot and R is zero below its pivots, so the empty rows return
    # as padding at the bottom
    work = [dict(row) for row in mat._rows if row]
    nrows, ncols = len(work), mat.cols
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if c in work[i]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = GAUSS_ONE / work[r][c]
        prow = work[r] = {j: a * inv for j, a in work[r].items()}
        for i, row in enumerate(work):
            f = row.get(c)
            if f is not None and i != r:
                _add_multiple(row, -f, prow)
        pivots.append(c)
        r += 1
    work.extend({} for _ in range(mat.rows - nrows))
    return ExactMatrix._from_rows(work, ncols), tuple(pivots)


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
    if mat.rows != mat.cols:
        raise ExactError("signature of a non-square matrix")
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
        positive.append(pivot.re > 0)
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
        if isinstance(other, (GaussScalar, int, Fraction)):
            return self == ParamPoly.constant(self.names, other)
        return NotImplemented

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
