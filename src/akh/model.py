"""Lie algebra models carrying an invariant almost Hermitian structure.

A model is a finite dimensional real Lie algebra given by structure constants
on an orthonormal frame X_1..X_2m, together with an orthogonal almost complex
structure J.  The frame metric is implicit: the frame is declared orthonormal,
so compatibility of J reduces to J being an orthogonal matrix.

Index convention: brackets are stored zero-based as (i, j, k, c) with i < j,
meaning [X_i, X_j] has coefficient c on X_k.  The JSON interchange format is
one-based; the loader converts.

The matrix J acts on frame vectors column-wise: column j holds the frame
coordinates of J X_j; J and the structure constants hold real GaussScalars,
a pinned coframe GaussScalars.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import combinations
from typing import NamedTuple, Optional

from .exact import (AkhError, ExactMatrix, GAUSS_I, GAUSS_ONE, GAUSS_ZERO,
                    GaussScalar, _add_multiple, as_gauss, format_flag, format_scalar,
                    parse_rational, parse_scalar, quote, rref)


class ModelError(AkhError):
    """Malformed model data: bad shapes, indices, or rationals."""


def _normalize_brackets(raw, dim: int):
    try:
        entries = [tuple(entry) for entry in raw]
    except TypeError:  # raw or an entry is not iterable
        raise ModelError(f"brackets must be (i, j, k, c) entries, got {quote(raw)}") from None
    table = {}
    for entry in entries:
        if len(entry) != 4:
            raise ModelError(f"bracket entry must be (i, j, k, c), got {quote(entry)}")
        i, j, k, c = entry
        if not all(type(x) is int for x in (i, j, k)):  # a bool is not an index
            raise ModelError(f"bracket indices must be ints: {quote(entry)}")
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ModelError(f"bracket index out of range: {quote(entry)}")
        c = GaussScalar(c)
        if i == j:
            if c:
                raise ModelError(f"[X,X] must vanish: {quote(entry)}")
            continue
        if i > j:
            i, j, c = j, i, -c
        key = (i, j, k)
        table[key] = table.get(key, GAUSS_ZERO) + c
    return tuple((i, j, k, c) for (i, j, k), c in sorted(table.items()) if c)


def _matrix(raw, rows: int, cols: int, read, refusal: str) -> tuple:
    """``raw`` as a tuple of rows of ``read(x)``; ModelError(refusal) unless
    it is ``rows`` rows of ``cols`` entries."""
    try:
        shaped = len(raw) == rows and all(len(row) == cols for row in raw)
    except TypeError:  # raw or a row has no length
        shaped = False
    if not shaped:
        raise ModelError(refusal)
    return tuple(tuple(read(x) for x in row) for row in raw)


class _LieModelFields(NamedTuple):
    name: str
    dim: int
    brackets: tuple
    J: tuple
    coframe: Optional[tuple] = None


class LieModel(_LieModelFields):
    """Structure constants plus an almost complex structure on the frame.

    coframe optionally overrides the normalization of the complex coframe
    used by the bigraded algebra: each row gives the x-coordinates of one
    coframe generator (a +i eigenvector of the dual structure), and the
    rows must be mutually orthogonal for the Hermitian product, since the
    metric is taken to be diagonal on coframe monomials.  Catalog models
    use it to pin printed normalizations; model JSON carries it as an
    optional "coframe" field.

    Construction, ``_replace`` too, is the one check of every field: a str
    name, an even int dim >= 2, J as dim rows of dim real rationals, the
    coframe None or dim/2 rows of dim Gaussian rationals (all stored as
    GaussScalars), brackets as (i, j, k, c) with int indices below dim and a
    real rational c, sorted to i < j.  Model JSON checks only the JSON.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        raw = _LieModelFields(*args, **kwargs)
        if not isinstance(raw.name, str):
            raise ModelError(f"model name must be a str, got {quote(raw.name)}")
        if type(raw.dim) is not int:  # a bool is not a dimension
            raise ModelError(f"dimension must be an int, got {quote(raw.dim)}")
        if raw.dim < 2 or raw.dim % 2 != 0:
            raise ModelError(f"dimension must be even and positive, got {quote(raw.dim)}")
        J = _matrix(raw.J, raw.dim, raw.dim, GaussScalar, "J must be a dim x dim matrix")
        coframe = None if raw.coframe is None else _matrix(
            raw.coframe, raw.dim // 2, raw.dim, as_gauss, "coframe must be a dim/2 x dim matrix")
        brackets = _normalize_brackets(raw.brackets, raw.dim)
        return super().__new__(cls, raw.name, raw.dim, brackets, J, coframe)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def m(self) -> int:
        return self.dim // 2


def _model(model) -> LieModel:
    """``model``, or a ModelError unless it is a LieModel (every entry point)."""
    if not isinstance(model, LieModel):
        raise ModelError(f"{quote(model)} is not a LieModel")
    return model


class StructureReport(NamedTuple):
    name: str
    dim: int
    jacobi_ok: bool
    acs_ok: bool
    compatible_ok: bool
    integrable: bool
    almost_kahler: bool
    nilpotent: bool
    jacobi_witness: Optional[tuple] = None

    @property
    def structure_ok(self) -> bool:
        """Whether the data defines an almost Hermitian Lie algebra at all."""
        return self.jacobi_ok and self.acs_ok and self.compatible_ok

    def to_json(self) -> dict:
        return {**self._asdict(), "structure_ok": self.structure_ok}

    def to_text(self) -> str:
        lines = [f"model: {self.name} (dim {self.dim})"]
        for key in ("jacobi_ok", "acs_ok", "compatible_ok", "integrable",
                    "almost_kahler", "nilpotent", "structure_ok"):
            lines.append(f"{key}: {format_flag(getattr(self, key))}")
        if self.jacobi_witness is not None:
            lines.append(f"jacobi fails on generators {self.jacobi_witness}")
        return "\n".join(lines)


# The structure checks run on sparse data built once per model: the bracket
# table {(i, j): {k: c}} over both orders of every nonzero bracket, J as an
# ExactMatrix, and vectors, each a dict {index: entry} of nonzero
# GaussScalars, which J acts on through ExactMatrix.apply.


def _bracket_table(model: LieModel) -> dict:
    table = {}
    for i, j, k, c in model.brackets:
        table.setdefault((i, j), {})[k] = c
        table.setdefault((j, i), {})[k] = -c
    return table


def _combine(terms) -> dict:
    """The sum of x * vec over (x, vec) pairs, zeros dropped."""
    out = {}
    for x, vec in terms:
        _add_multiple(out, x, vec)
    return out


def _bracket(table: dict, u: dict, v: dict) -> dict:
    return _combine((x * y, table[i, j]) for i, x in u.items() for j, y in v.items()
                    if (i, j) in table)


def _cyclic_triples(n: int):
    """The three cyclic rotations of each i < j < k, in lexicographic order."""
    return (((i, j, k), (j, k, i), (k, i, j)) for i, j, k in combinations(range(n), 3))


def _jacobi_check(table: dict, n: int):
    """(True, None), or (False, the first triple whose Jacobiator is nonzero)."""
    for rotations in _cyclic_triples(n):
        # [[X_a, X_b], X_c] is the sum of x [X_l, X_c] over [X_a, X_b]_l = x
        if _combine((x, table[l, c]) for a, b, c in rotations
                    for l, x in table.get((a, b), {}).items() if (l, c) in table):
            return False, rotations[0]
    return True, None


def _integrable(table: dict, jm: ExactMatrix) -> bool:
    """Whether N(X,Y) = [JX,JY] - J([JX,Y] + [X,JY]) - [X,Y] vanishes on every
    pair of frame vectors X_i, X_j with i < j; stops at the first nonzero."""
    jcols = [jm.apply({i: GAUSS_ONE}) for i in range(jm.rows)]
    for i, j in combinations(range(jm.rows), 2):
        jx, jy, x, y = jcols[i], jcols[j], {i: GAUSS_ONE}, {j: GAUSS_ONE}
        inner = _combine(((1, _bracket(table, jx, y)), (1, _bracket(table, x, jy))))
        if _combine(((1, _bracket(table, jx, jy)), (-1, jm.apply(inner)),
                     (-1, table.get((i, j), {})))):
            return False
    return True


def _domega_vanishes(table: dict, jm: ExactMatrix) -> bool:
    """d omega = 0: on every triple the cyclic sum of omega([X_a, X_b], X_c),
    that is of [X_a, X_b]_l J[c][l] over l, vanishes."""
    return not any(sum((x * jm[c, l] for a, b, c in rotations
                        for l, x in table.get((a, b), {}).items()), GAUSS_ZERO)
                   for rotations in _cyclic_triples(jm.rows))


def _is_nilpotent(table: dict, n: int) -> bool:
    """Lower central series test.  The series is nested, so the span dimension
    must drop at every step until it hits zero; stabilizing at a nonzero
    dimension means the algebra is not nilpotent."""
    basis = [{i: GAUSS_ONE} for i in range(n)]
    current = basis
    while True:
        generated = [w for b in basis for v in current if (w := _bracket(table, b, v))]
        if not generated:
            return True
        reduced, pivots = rref(ExactMatrix._from_rows(generated, n))
        if len(pivots) >= len(current):
            return False
        current = [dict(reduced.row_items(r)) for r in range(len(pivots))]


def validate(model: LieModel) -> StructureReport:
    """Exact structural checks; every flag is decided over the rationals.
    Unimodularity (tr ad X = 0 for every X) is not a flag here, though every
    verdict above this layer assumes it: ``forms.build`` refuses a model
    without it, and this report is all akh says of such a model."""
    n = _model(model).dim
    table, jm = _bracket_table(model), ExactMatrix(model.J)
    acs_ok = (jm @ jm) == (ExactMatrix.identity(n) * -1)
    compatible_ok = (jm.transpose() @ jm) == ExactMatrix.identity(n)
    jacobi_ok, witness = _jacobi_check(table, n)
    integrable = _integrable(table, jm)
    almost_kahler = bool(
        acs_ok and compatible_ok and jacobi_ok and _domega_vanishes(table, jm)
    )
    nilpotent = jacobi_ok and _is_nilpotent(table, n)
    return StructureReport(
        name=model.name,
        dim=model.dim,
        jacobi_ok=jacobi_ok,
        acs_ok=acs_ok,
        compatible_ok=compatible_ok,
        integrable=integrable,
        almost_kahler=almost_kahler,
        nilpotent=nilpotent,
        jacobi_witness=witness,
    )


# ---------------------------------------------------------------------------
# catalog


def _j_from_pairs(dim: int, pairs) -> list:
    """J sending X_a to X_b (and X_b to -X_a) for each one-based pair (a, b)."""
    J = [[0] * dim for _ in range(dim)]
    for a, b in pairs:
        J[b - 1][a - 1] = 1
        J[a - 1][b - 1] = -1
    return J


def _torus(m: int) -> LieModel:
    return LieModel(
        name=f"torus{2 * m}",
        dim=2 * m,
        brackets=(),
        J=_j_from_pairs(2 * m, [(2 * k + 1, 2 * k + 2) for k in range(m)]),
    )


def _kodaira_thurston() -> LieModel:
    # one bracket [X1,X2] = -X3; J pairs the bracket direction with the
    # center so that the fundamental form x1^x3 + x2^x4 is closed
    return LieModel(
        name="kodaira_thurston",
        dim=4,
        brackets=((0, 1, 2, -1),),
        J=_j_from_pairs(4, [(1, 3), (2, 4)]),
    )


def _filiform4(name: str, pairs) -> LieModel:
    return LieModel(
        name=name,
        dim=4,
        brackets=((0, 1, 2, 1), (0, 2, 3, 1)),
        J=_j_from_pairs(4, pairs),
    )


def _h5() -> LieModel:
    i_, one, zero = GAUSS_I, GAUSS_ONE, GAUSS_ZERO
    # explicit coframe: first generator dual to X5 + i X6, the other two are
    # twice the duals of X1 - i X2 and X3 + i X4; this normalization makes
    # the differential of the first generator come out with coefficient -1/2
    coframe = (
        (zero, zero, zero, zero, one / 2, -i_ / 2),
        (one, i_, zero, zero, zero, zero),
        (zero, zero, one, -i_, zero, zero),
    )
    return LieModel(
        name="h5_J",
        dim=6,
        brackets=(
            (0, 2, 4, 1),
            (1, 3, 4, 1),
            (0, 3, 5, 1),
            (1, 2, 5, -1),
        ),
        J=_j_from_pairs(6, [(1, 2), (4, 3), (6, 5)]),
        coframe=coframe,
    )


_CATALOG = {
    "torus2": lambda: _torus(1),
    "torus4": lambda: _torus(2),
    "torus6": lambda: _torus(3),
    "kodaira_thurston": _kodaira_thurston,
    "filiform4_J": lambda: _filiform4("filiform4_J", [(1, 2), (3, 4)]),
    "filiform4_Jprime": lambda: _filiform4("filiform4_Jprime", [(1, 4), (2, 3)]),
    "h5_J": _h5,
}

CATALOG_NAMES = tuple(sorted(_CATALOG))


def catalog(name: str) -> LieModel:
    """Built-in study models by name; see CATALOG_NAMES."""
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise ModelError(
            f"unknown catalog model {quote(name)}; available: {', '.join(CATALOG_NAMES)}"
        ) from None
    return builder()


# ---------------------------------------------------------------------------
# serialization (one-based indices on the wire)

FORMAT_VERSION = 1


def model_to_json(model: LieModel) -> dict:
    data = {
        "format": FORMAT_VERSION,
        "name": _model(model).name,
        "dim": model.dim,
        "brackets": [
            {"i": i + 1, "j": j + 1, "k": k + 1, "c": str(c)}
            for (i, j, k, c) in model.brackets
        ],
        "J": [[str(x) for x in row] for row in model.J],
    }
    if model.coframe is not None:
        data["coframe"] = [[format_scalar(x) for x in row] for row in model.coframe]
    return data


def _expect(value, kind, what: str):
    """``value`` if it has JSON type ``kind`` (a type or a tuple of types),
    else ModelError.  A bool is not an int here, and floats and strings are
    refused, never truncated."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if isinstance(value, bool) or not isinstance(value, kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise ModelError(f"{what} must be a JSON {names}, got {quote(value)}")
    return value


def _rational(value, what: str, kind=(str, int), parse=parse_rational) -> GaussScalar:
    """``parse`` of a JSON value of type ``kind``, by default a rational in a
    string or integer.  A float is refused: whether its digits parse would
    depend on Python's float repr."""
    _expect(value, kind, what)
    try:
        return parse(str(value))
    except ValueError as exc:  # str of an int past the digit limit raises too
        raise ModelError(f"bad {what}: {exc}") from exc


def _rows(raw, what: str, *reader) -> tuple:
    """A JSON list of lists as a tuple of rows, each entry read by
    ``_rational(entry, where, *reader)``; LieModel checks the shape."""
    return tuple(tuple(_rational(x, f"{what} entry at row {r}, column {c}", *reader)
                       for c, x in enumerate(_expect(row, list, f"{what} row {r}")))
                 for r, row in enumerate(_expect(raw, list, what)))


def model_from_json(data) -> LieModel:
    """The model a JSON document describes.  Only the JSON is checked here (its
    keys, value types, format and scalar strings); LieModel checks the model."""
    if not isinstance(data, dict):
        raise ModelError("model document must be a JSON object")
    version = data.get("format")
    # true and 1.0 compare equal to 1, but only the JSON integer is accepted
    if type(version) is not int or version != FORMAT_VERSION:
        raise ModelError(f"unsupported format {quote(version)}; expected {FORMAT_VERSION}")
    try:
        name, dim, raw_brackets, raw_j = (data[key] for key in ("name", "dim", "brackets", "J"))
    except KeyError as exc:
        raise ModelError(f"missing field {exc.args[0]!r}") from None
    brackets = []
    for pos, entry in enumerate(_expect(raw_brackets, list, "brackets")):
        what = f"bracket entry at index {pos}"
        _expect(entry, dict, what)
        try:
            i, j, k = (_expect(entry[key], int, key) - 1 for key in "ijk")
            c = entry["c"]
        except (KeyError, ModelError) as exc:
            raise ModelError(f"bad {what}: {quote(entry)}") from exc
        brackets.append((i, j, k, _rational(c, f"c of {what}")))
    coframe = data.get("coframe")
    return LieModel(name, _expect(dim, int, "dim"), tuple(brackets), _rows(raw_j, "J"),
                    None if coframe is None else _rows(coframe, "coframe", str, parse_scalar))


def _path(path):
    """``path``, or a ModelError unless it names a file: open() reads an int as a descriptor."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ModelError(f"model path {quote(path)} is not a str, bytes or os.PathLike")
    return path


def load_model(path) -> LieModel:
    path = _path(path)  # before the try: a ModelError is a ValueError too
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid JSON in {path}: line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ModelError(f"{path} is not UTF-8 text: {exc.reason}") from exc
    except RecursionError:
        raise ModelError(f"invalid JSON in {path}: nested too deeply") from None
    except ValueError as exc:
        # json's only other ValueError: an integer literal past the digit limit
        raise ModelError(f"invalid JSON in {path}: an integer literal is longer than "
                         f"{sys.get_int_max_str_digits()} digits") from exc
    return model_from_json(data)


def save_model(model: LieModel, path) -> None:
    text = json.dumps(model_to_json(model), indent=2, sort_keys=True) + "\n"
    with open(_path(path), "w", encoding="utf-8") as fh:
        fh.write(text)
