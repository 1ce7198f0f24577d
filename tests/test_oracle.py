"""An independent exact oracle: sympy's DomainMatrix ranks against akh.

Dev-only (sympy is in the dev extras); skipped when sympy is missing.  Three
checks per model, on the catalog and the 8-dimensional bench ladder:

- akh's total-degree matrices of d have the ranks that sympy computes for
  them over Q(i), and the Betti numbers built from sympy's ranks equal
  ``betti(model)``;
- each of the four components mu_bar, dbar, partial and mu of d has, on
  every bidegree block, the rank that sympy computes over Q(i);
- the real Chevalley-Eilenberg complex, built here from the structure
  constants alone and ranked by sympy over Q, gives the same Betti numbers,
  so the complex coframe and the bigraded assembly are checked as well.

Two checks of unimodularity (tr ad X = 0 for every X), which every verdict
of akh assumes, run on the catalog, the ladder and the solvable models
sol3 x R (unimodular) and aff(R) x aff(R) (not): the top Betti number of the
real complex is 1 exactly when the traces read off the brackets vanish, and
the adjoint of d is -star d star on the unimodular ones and not on
aff(R) x aff(R), built with the refusal patched out.

On the catalog models, the d-harmonic dimension of every bidegree block is
also checked: the nullity over Q(i) of d stacked on its adjoint
G^-1 d^H G, both assembled by sympy from ``alg.d`` and the diagonal metric
``alg.norm_sq`` alone, against the size of akh's harmonic basis.  The same
check covers the two mixed spaces and the four single-component ones.
"""

import itertools
from pathlib import Path

import pytest

pytest.importorskip("sympy")
from sympy import QQ, QQ_I  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from akh import model as akh_model  # noqa: E402
from akh.exact import rank  # noqa: E402
from akh.forms import (DBAR_SHIFT, MU_BAR_SHIFT, MU_SHIFT, PARTIAL_SHIFT,  # noqa: E402
                       BigradedAlgebra, build)
from akh.harmonic import betti  # noqa: E402
from akh.model import (CATALOG_NAMES, ModelError, _bracket_table, catalog,  # noqa: E402
                       load_model, model_from_json)
from akh.operators import _adjoint, _harmonic_vectors  # noqa: E402
from test_cli import AFF_X_AFF, SOL3_X_R  # noqa: E402

LADDER = sorted((Path(__file__).resolve().parents[1] / "bench" / "models").glob("*.json"))
MODELS = [("catalog", name) for name in CATALOG_NAMES] + [("ladder", p) for p in LADDER]
# two solvable models, neither nilpotent: sol3 x R is unimodular, aff(R) x aff(R) is not
SOL3 = ("json", SOL3_X_R)
AFF = ("json", AFF_X_AFF)


def _load(case):
    kind, what = case
    if kind == "json":
        return model_from_json(what)
    return catalog(what) if kind == "catalog" else load_model(str(what))


def _case_id(case):
    kind, what = case
    return what["name"] if kind == "json" else Path(str(what)).stem


def _qq(x):
    """A real GaussScalar as a sympy rational."""
    assert x.is_real()
    return QQ(x._a, x._d)


def _qi(a):
    return QQ_I(_qq(a.re), _qq(a.im))


def _sympy_rank(mat):
    """Rank over Q(i) of an akh ExactMatrix, computed by sympy."""
    if not mat.rows or not mat.cols:
        return 0
    rows = [[_qi(a) for a in row] for row in mat.data]
    return DomainMatrix(rows, mat.shape, QQ_I).rank()


def _betti_from_ranks(dims, ranks):
    return tuple(dims[k] - ranks[k] - (ranks[k - 1] if k else 0)
                 for k in range(len(dims)))


@pytest.mark.parametrize("case", MODELS, ids=_case_id)
def test_degree_matrix_ranks_match_sympy(case):
    model = _load(case)
    alg = build(model)
    dims, ranks = [], []
    for k in range(model.dim + 1):
        mat = alg.d.degree_slice(k, k + 1)
        oracle = _sympy_rank(mat)
        assert rank(mat) == oracle, k
        dims.append(mat.cols)
        ranks.append(oracle)
    assert _betti_from_ranks(dims, ranks) == betti(model)


@pytest.mark.parametrize("case", MODELS, ids=_case_id)
def test_component_block_ranks_match_sympy(case):
    alg = build(_load(case))
    for name, shift in (("mu_bar", MU_BAR_SHIFT), ("dbar", DBAR_SHIFT),
                        ("partial", PARTIAL_SHIFT), ("mu", MU_SHIFT)):
        for pq in alg.block_order:
            mat = getattr(alg, name).block(pq, shift)
            assert rank(mat) == _sympy_rank(mat), (name, pq)


def _wedge(a, b):
    """(sign, sorted monomial) of a ^ b, or None when they share a factor."""
    if set(a) & set(b):
        return None
    inversions = sum(1 for x in a for y in b if x > y)
    return (-1) ** inversions, tuple(sorted(a + b))


def _ce_betti(model):
    """Betti numbers of the real Chevalley-Eilenberg complex of the frame:
    d x^k = -sum c x^i ^ x^j over [X_i, X_j] = c X_k, extended by Leibniz."""
    n = model.dim
    dgen = [{} for _ in range(n)]
    for i, j, k, c in model.brackets:
        dgen[k][(i, j)] = dgen[k].get((i, j), 0) - c

    def d(mono):
        out = {}
        if not mono:
            return out
        head, rest = mono[:1], mono[1:]
        for m2, c in dgen[head[0]].items():
            w = _wedge(m2, rest)
            if w:
                out[w[1]] = out.get(w[1], 0) + w[0] * c
        for m2, c in d(rest).items():
            w = _wedge(head, m2)
            if w:
                out[w[1]] = out.get(w[1], 0) - w[0] * c
        return out

    bases = [list(itertools.combinations(range(n), k)) for k in range(n + 2)]
    mats = []
    for k in range(n + 1):
        tgt = {mono: r for r, mono in enumerate(bases[k + 1])}
        rows = {}
        for col, mono in enumerate(bases[k]):
            for t, c in d(mono).items():
                if c:
                    rows.setdefault(tgt[t], {})[col] = _qq(c)
        mats.append(DomainMatrix(rows, (len(tgt), len(bases[k])), QQ))
    for first, second in zip(mats, mats[1:]):
        assert (second * first).is_zero_matrix
    return _betti_from_ranks([len(b) for b in bases[:n + 1]], [m.rank() for m in mats])


@pytest.mark.parametrize("case", MODELS, ids=_case_id)
def test_chevalley_eilenberg_betti_match_sympy(case):
    model = _load(case)
    assert _ce_betti(model) == betti(model)


def _traces(model):
    """tr ad X_i = sum_k c_ik^k for every i, read off the brackets: an entry
    [X_i, X_j] = c X_k adds c to tr ad X_i when k = j and -c to tr ad X_j
    when k = i."""
    trace = [QQ(0)] * model.dim
    for i, j, k, c in model.brackets:
        if k == j:
            trace[i] += _qq(c)
        if k == i:
            trace[j] -= _qq(c)
    return trace


@pytest.mark.parametrize("case", MODELS + [SOL3, AFF], ids=_case_id)
def test_top_betti_number_is_one_exactly_when_unimodular(case):
    # H^2m of the Chevalley-Eilenberg complex is R exactly when every ad X
    # has trace zero, and 0 otherwise
    model = _load(case)
    ce, unimodular = _ce_betti(model), not any(_traces(model))
    assert ce[-1] == (1 if unimodular else 0)
    assert unimodular == (case != AFF)
    if case == SOL3:
        assert ce == (1, 2, 2, 2, 1)


def _minus_star_d_star(alg):
    return -alg.star.compose(alg.d).compose(alg.star)


@pytest.mark.parametrize("case", MODELS + [SOL3], ids=_case_id)
def test_adjoint_of_d_is_minus_star_d_star(case):
    alg = build(_load(case))
    assert _adjoint(alg, "d") == _minus_star_d_star(alg)


def test_adjoint_of_d_is_not_minus_star_d_star_without_unimodularity(monkeypatch):
    # the identity integrates d(alpha ^ star beta) to zero, which needs
    # tr ad X = 0; with the refusal patched out, aff(R) x aff(R) breaks it
    model = _load(AFF)
    with pytest.raises(ModelError, match="not unimodular: tr ad X1 = 1"):
        BigradedAlgebra(model)
    monkeypatch.setattr(akh_model, "_unimodular_table", _bracket_table)
    alg = BigradedAlgebra(model)
    assert _adjoint(alg, "d") != _minus_star_d_star(alg)


def _sympy_harmonic_dims(alg, names=("d",)):
    """{pq: nullity over Q(i) of [A; ...; G^-1 A^H G; ...] on the columns of
    block pq}, A running over the operators ``getattr(alg, name)`` for the
    names given and G = diag(norm_sq): the dimension of their joint harmonic
    space on each block."""
    n = alg.size
    g = DomainMatrix.diag([QQ_I(_qq(w), 0) for w in alg.norm_sq], QQ_I, (n, n))
    g_inv = DomainMatrix.diag([QQ_I(1 / _qq(w), 0) for w in alg.norm_sq], QQ_I, (n, n))
    ops = []
    for name in names:
        matrix = getattr(alg, name).matrix
        entries = {i: {j: _qi(a) for j, a in matrix.row_items(i)} for i in range(n)}
        # sympy's sparse rref refuses a stored row with no entries
        ops.append(DomainMatrix({i: row for i, row in entries.items() if row}, (n, n), QQ_I))
    adjoints = [g_inv * op.transpose().applyfunc(lambda z: QQ_I(z.x, -z.y), QQ_I) * g
                for op in ops]
    stack = DomainMatrix.vstack(*ops, *adjoints)
    return {pq: len(alg.block_range(pq))
            - stack.extract(range(stack.shape[0]), alg.block_range(pq)).rank()
            for pq in alg.block_order}


@pytest.mark.parametrize("case", MODELS, ids=_case_id)
def test_harmonic_block_dimensions_match_sympy(case):
    alg = build(_load(case))
    dims = {pq: len(_harmonic_vectors(alg, "d", pq)) for pq in alg.block_order}
    assert dims == _sympy_harmonic_dims(alg)


@pytest.mark.parametrize("case", MODELS, ids=_case_id)
def test_mixed_harmonic_block_dimensions_match_sympy(case):
    # ker(lap(A) + lap(B)) is the joint kernel of A, B and their adjoints;
    # "dbar+mu" gives the diamond's ell(p, q).  A single component's space
    # is the joint kernel of it and its adjoint.
    alg = build(_load(case))
    for which, names in (("dbar+mu", ("dbar", "mu")),
                         ("partial+mu_bar", ("partial", "mu_bar")),
                         ("dbar", ("dbar",)), ("mu", ("mu",)),
                         ("partial", ("partial",)), ("mu_bar", ("mu_bar",))):
        dims = {pq: len(_harmonic_vectors(alg, which, pq)) for pq in alg.block_order}
        assert dims == _sympy_harmonic_dims(alg, names), which
