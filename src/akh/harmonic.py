"""Harmonic diamonds, dualities, Lefschetz theory, and obstruction reports.

Every computation here is exact and concerns the invariant complex of a
Lie-algebra model: kernels, ranks, and signatures are taken over the
Gaussian rationals on the finite-dimensional bidegree blocks.  Reports say
"invariant" rather than claiming manifold-level statements; for nilpotent
models the Betti numbers do agree with the underlying nilmanifold.

Every verdict here assumes a unimodular Lie algebra, tr ad X = 0 for every
X, and ``build`` refuses any other.  Only a unimodular group has a lattice,
so a compact quotient for the verdicts to describe (J. Milnor, Adv. Math. 21
(1976)), and only then does the invariant complex have H^{2m} = R and the
Gram adjoint of d equal -*d*.

Harmonic spaces come in several flavours selected by a ``which`` string,
each the joint kernel of the operators it names and their adjoints:

* ``"d"``: d.  Its four components send a (p,q) block to four distinct
  blocks, so this is also the joint kernel of all four and their adjoints;
* one of ``"mu_bar"``, ``"dbar"``, ``"partial"``, ``"mu"``: that component;
* ``"dbar+mu"`` or ``"partial+mu_bar"``: the two components named.  This
  is the kernel of the sum of their Laplacians: the metric is positive
  definite, so <lap(D) x, x> = |D x|^2 + |D* x|^2, and such a sum kills x
  exactly when every component and every adjoint in it does.  No
  Laplacian is built for it.

Every basis here, harmonic, primitive or holomorphic, is a canonical
``kernel`` basis of sparse vectors {coordinate: entry}, taken as it is:
ranks stack the vectors as matrix rows, and the Lefschetz powers multiply
those rows by the transposed blocks of L.

The diamond dimension ``ell[p][q]`` is dim ker on the (p,q) block for
``"dbar+mu"``.  On almost Kahler models all flavours of ``"d"``,
``"dbar+mu"`` and ``"partial+mu_bar"`` agree; on other models their
differences are the interesting data and feed the obstruction reports.

Both wedge pairings are Hermitian matrices of integrals of f_j ^ conj(f_k)
^ tail over complex forms in coframe coordinates (``_pairing``), and one
``hermitian_signature`` reads each.  Hodge-Riemann pairs the primitive
harmonic (p,q)-forms with tail i^(p-q) w^(m-p-q); its signed signature
swaps the plus and the minus count when (-1)^(k(k-1)/2) = -1 for k = p+q.
The Hodge index pairs the canonical complex kernel of [d; d*] on total
degree 2 with tail 1.  d and d* commute with conjugation, so that kernel
is the complexification of the real harmonic 2-forms, and by Sylvester's
law the Hermitian matrix has the signature of the real intersection form.

The nonexistence argument writes each real (1,1)-form as R y for a real
vector y, R read off conjugation, so each of its families is the kernel of
a real matrix acting on y (:class:`AkNonexistenceReport`).

The Betti numbers come from :mod:`akh.forms`, next to d; ``betti`` is
re-exported here, and the diamond, the Hodge index and the obstruction
report read the memoized ``_betti``.

The reports the CLI prints (:class:`Diamond`, :class:`LefschetzReport`,
:class:`HodgeIndexReport` and :class:`ObstructionReport`) render
themselves: ``to_json()`` is their JSON payload and ``to_text()`` their
text, witness forms printed through ``form.algebra.format_form``.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .exact import (
    AkhError,
    GAUSS_I,
    GAUSS_ONE,
    ExactMatrix,
    GaussScalar,
    ParamPoly,
    format_flag,
    hermitian_signature,
    kernel,
    quote,
    rank,
    vstack,
)
from .forms import (
    DBAR_SHIFT,
    I_POWERS,
    BigradedAlgebra,
    Form,
    _betti,
    betti,
    build,
    form_from_coordinates,
    form_to_json,
    memoized,
)
from .model import LieModel, _model
from .operators import (_adjoint, _constraint_matrix, _harmonic_vectors,
                        laplacian_symmetry_witness)

__all__ = [
    "HarmonicError",
    "WHICH_CHOICES",
    "harmonic_basis",
    "Diamond",
    "ell_diamond",
    "betti",
    "LefschetzMap",
    "LefschetzReport",
    "hard_lefschetz",
    "PrimitiveDecomposition",
    "primitive_decomposition",
    "HodgeRiemannReport",
    "hodge_riemann_check",
    "HodgeIndexReport",
    "hodge_index",
    "HolomorphicReport",
    "holomorphic_forms",
    "mu_bar_cohomology",
    "AK_NONEXISTENCE_VERDICT",
    "AkNonexistenceReport",
    "ak_nonexistence_report",
    "ObstructionReport",
    "obstruction_report",
]


class HarmonicError(AkhError):
    pass


WHICH_CHOICES = ("d", "mu_bar", "dbar", "partial", "mu", "dbar+mu", "partial+mu_bar")


def _check_block(alg: BigradedAlgebra, p: int, q: int) -> None:
    if not (type(p) is int and type(q) is int and 0 <= p <= alg.m and 0 <= q <= alg.m):
        raise HarmonicError(f"bidegree ({quote(p)},{quote(q)}) out of range for m={alg.m}")


def _almost_kahler(model: LieModel, what: str) -> BigradedAlgebra:
    """build(model), or a HarmonicError unless the model is almost Kahler."""
    alg = build(model)
    if not alg.validation.almost_kahler:
        raise HarmonicError(f"{what} requires an almost Kahler model")
    return alg


def harmonic_basis(model: LieModel, which: str, p: int, q: int) -> tuple:
    """Deterministic basis of the chosen harmonic space as Forms."""
    if which not in WHICH_CHOICES:
        raise HarmonicError(
            f"unknown harmonic space {quote(which)}; choose one of {WHICH_CHOICES}")
    alg = build(model)
    _check_block(alg, p, q)
    return tuple(
        form_from_coordinates(alg, (p, q), vec)
        for vec in _harmonic_vectors(alg, which, (p, q)))


def _ell(alg: BigradedAlgebra, p: int, q: int) -> int:
    return len(_harmonic_vectors(alg, "dbar+mu", (p, q)))


# -- diamond -------------------------------------------------------------------


class Diamond(NamedTuple):
    """Grid of harmonic dimensions with Betti numbers and validity flags.

    ``ell[p][q]`` is the dimension of ker of the mixed Laplacian sum on the
    (p,q) block.  Flags are None on models that are not almost Kahler,
    where the dualities they express are not asserted.
    """

    model_name: str
    m: int
    ell: tuple
    betti: tuple
    duality_ok: Optional[bool]
    bounds_ok: Optional[bool]
    lefschetz_ok: Optional[bool]

    def rows(self) -> tuple:
        """The entries of each total degree k, holomorphic index descending."""
        m = self.m
        return tuple(tuple(self.ell[p][k - p] for p in range(min(k, m), max(0, k - m) - 1, -1))
                     for k in range(2 * m + 1))

    def to_json(self) -> dict:
        return {
            "scope": "invariant",
            "m": self.m,
            "ell": [list(r) for r in self.ell],
            "rows": [list(r) for r in self.rows()],
            "betti": list(self.betti),
            "flags": {
                "duality_ok": self.duality_ok,
                "bounds_ok": self.bounds_ok,
                "lefschetz_ok": self.lefschetz_ok,
            },
        }

    def to_text(self) -> str:
        """The rows as a staggered centered triangle between a header line
        and the Betti numbers and flags."""
        rows = self.rows()
        cell = max(len(str(v)) for row in rows for v in row)
        widest = max(len(row) for row in rows)
        lines = [f"model: {self.model_name} (invariant harmonic dimensions)"]
        for row in rows:
            pad = " " * (((cell + 1) * (widest - len(row))) // 2)
            lines.append(pad + " ".join(str(v).rjust(cell) for v in row))
        lines.append("betti: " + " ".join(str(b) for b in self.betti))
        lines.append(f"duality_ok: {format_flag(self.duality_ok)}  "
                     f"bounds_ok: {format_flag(self.bounds_ok)}  "
                     f"lefschetz_ok: {format_flag(self.lefschetz_ok)}")
        return "\n".join(lines)


def ell_diamond(model: LieModel) -> Diamond:
    """Full diamond with Betti numbers; flags evaluated on almost Kahler
    models only."""
    alg = build(model)
    m = alg.m
    grid = tuple(tuple(_ell(alg, p, q) for q in range(m + 1))
                 for p in range(m + 1))
    bett = _betti(alg)
    if not alg.validation.almost_kahler:
        return Diamond(model_name=model.name, m=m, ell=grid, betti=bett,
                       duality_ok=None, bounds_ok=None, lefschetz_ok=None)
    duality = all(
        grid[p][q] == grid[q][p] == grid[m - p][m - q]
        for p in range(m + 1) for q in range(m + 1))
    sums_ok = all(
        sum(grid[p][k - p] for p in range(max(0, k - m), min(k, m) + 1)) <= bett[k]
        for k in range(2 * m + 1))
    center_ok = all(grid[k][k] >= 1 for k in range(m + 1))
    # every power of the fundamental form is killed by d and its adjoint
    d_adj = _adjoint(alg, "d")
    powers_ok = all(alg.d.apply(w).is_zero() and d_adj.apply(w).is_zero()
                    for w in map(alg.fundamental_form.power, range(m + 1)))
    lef = _hard_lefschetz(alg)
    return Diamond(
        model_name=model.name, m=m, ell=grid, betti=bett,
        duality_ok=duality,
        bounds_ok=sums_ok and center_ok and powers_ok,
        lefschetz_ok=lef.all_iso and lef.monotone_ok,
    )


# -- hard Lefschetz ------------------------------------------------------------


class LefschetzMap(NamedTuple):
    p: int
    q: int
    power: int
    source_dim: int
    target_dim: int
    rank: int
    iso: bool

    def to_json(self) -> dict:
        return self._asdict()


class LefschetzReport(NamedTuple):
    model_name: str
    m: int
    maps: tuple
    monotone_ok: bool
    all_iso: bool

    def to_json(self) -> dict:
        return {
            "model": self.model_name,
            "maps": [entry.to_json() for entry in self.maps],
            "monotone_ok": self.monotone_ok,
            "all_iso": self.all_iso,
        }

    def to_text(self) -> str:
        lines = [f"model: {self.model_name} (hard Lefschetz on harmonics)"]
        for entry in self.maps:
            lines.append(
                f"L^{entry.power}: ({entry.p},{entry.q}) -> "
                f"({entry.p + entry.power},{entry.q + entry.power})  "
                f"rank {entry.rank} ({entry.source_dim} -> {entry.target_dim})  "
                f"iso: {format_flag(entry.iso)}")
        lines.append(f"all_iso: {format_flag(self.all_iso)}  "
                     f"monotone_ok: {format_flag(self.monotone_ok)}")
        return "\n".join(lines)


def _lefschetz_power(alg: BigradedAlgebra, pq: tuple, vecs, power: int) -> ExactMatrix:
    """The images under L^power of the sparse vectors vecs on pq, as the rows
    of a matrix.  A step multiplies by the transpose of one block of L, cut
    once for all of them, so each vector sums the columns it holds."""
    images = ExactMatrix._from_rows(vecs, alg.dim_block(pq))
    for step in range(power):
        images = images @ alg.L.block((pq[0] + step, pq[1] + step), (1, 1)).transpose()
    return images


def hard_lefschetz(model: LieModel) -> LefschetzReport:
    """Wedge powers of the fundamental form on harmonic spaces.

    For every bidegree (p,q) with p+q = k <= m the map sends the d-harmonic
    (p,q) space into the (p+m-k, q+m-k) one via the (m-k)-th power of the
    Lefschetz operator; each map is flagged iso when it is injective onto a
    target of the same dimension.
    """
    return _hard_lefschetz(_almost_kahler(model, "hard Lefschetz"))


@memoized
def _hard_lefschetz(alg: BigradedAlgebra) -> LefschetzReport:
    m = alg.m
    maps = []
    for k in range(m + 1):
        power = m - k
        for p in range(k + 1):
            q = k - p
            target = (p + power, q + power)
            src = _harmonic_vectors(alg, "d", (p, q))
            tgt = _harmonic_vectors(alg, "d", target)
            images = _lefschetz_power(alg, (p, q), src, power)
            rk = rank(images)
            # the images lie in the span of tgt iff d and d* kill them
            contained = (images @ _constraint_matrix(alg, "d", target).transpose()).is_zero()
            maps.append(LefschetzMap(
                p=p, q=q, power=power,
                source_dim=len(src), target_dim=len(tgt), rank=rk,
                iso=contained and rk == len(src) == len(tgt)))
    monotone = all(
        _ell(alg, p, q) <= _ell(alg, p + 1, q + 1)
        for p in range(m) for q in range(m) if p + q + 2 <= m)
    return LefschetzReport(model_name=alg.model.name, m=m, maps=tuple(maps),
                           monotone_ok=monotone, all_iso=all(x.iso for x in maps))


# -- primitive decomposition and the positivity pairing -------------------------


@memoized
def _primitive_vectors(alg: BigradedAlgebra, pq: tuple) -> tuple:
    """d-harmonic vectors on pq additionally killed by the contraction
    operator."""
    return tuple(kernel(vstack([_constraint_matrix(alg, "d", pq), alg.lam.columns(pq)])))


class PrimitiveDecomposition(NamedTuple):
    p: int
    q: int
    summand_dims: tuple
    ell: int
    sum_ok: bool
    orthogonal_ok: bool

    def to_json(self) -> dict:
        return self._asdict()


def primitive_decomposition(model: LieModel, p: int, q: int) -> PrimitiveDecomposition:
    """Split the harmonic (p,q) space into Lefschetz images of primitives.

    ``summand_dims[j]`` is the dimension of the image of the primitive
    harmonic (p-j, q-j) space under the j-th Lefschetz power.  The dims
    must add up to ell(p,q) and distinct summands must be orthogonal for
    the inner product; both facts are recorded as flags.
    """
    alg = _almost_kahler(model, "primitive decomposition")
    _check_block(alg, p, q)
    dims = []
    summands = []
    for j in range(min(p, q) + 1):
        base = (p - j, q - j)
        images = _lefschetz_power(alg, base, _primitive_vectors(alg, base), j)
        dims.append(rank(images))
        summands.append([form_from_coordinates(alg, (p, q), dict(images.row_items(i)))
                         for i in range(images.rows)])
    total = sum(dims)
    orthogonal = not any(fu.inner(fv) for first, second in itertools.combinations(summands, 2)
                         for fu in first for fv in second)
    ell = _ell(alg, p, q)
    return PrimitiveDecomposition(
        p=p, q=q, summand_dims=tuple(dims), ell=ell,
        sum_ok=total == ell, orthogonal_ok=orthogonal)


class HodgeRiemannReport(NamedTuple):
    p: int
    q: int
    prim_dim: int
    signature_unsigned: tuple
    signature_signed: tuple
    positive_definite: bool

    def to_json(self) -> dict:
        return self._asdict()


def hodge_riemann_check(model: LieModel, p: int, q: int) -> HodgeRiemannReport:
    """Sign-twisted wedge pairing on primitive harmonics, exact signature.

    The pairing sends (a, b) to the integral of a ^ conj(b) ^ w^(m-p-q)
    scaled by i^(p-q); ``signature_signed`` additionally applies the
    alternating degree sign, after which the form must be positive
    definite on almost Kahler models.
    """
    alg = _almost_kahler(model, "the positivity pairing")
    _check_block(alg, p, q)
    if p + q > alg.m:
        raise HarmonicError("the positivity pairing needs p+q <= m")
    prim = _primitive_vectors(alg, (p, q))
    n = len(prim)
    wpow = alg.fundamental_form.power(alg.m - p - q)
    forms = [form_from_coordinates(alg, (p, q), v) for v in prim]
    unsigned = hermitian_signature(_pairing(forms, wpow.scale(I_POWERS[(p - q) % 4])))
    k = p + q
    # the signed pairing is the unsigned one times (-1)^(k(k-1)/2), and a
    # factor -1 swaps the plus and the minus count
    plus, minus, zero = unsigned
    signed = (minus, plus, zero) if (k * (k - 1) // 2) % 2 else unsigned
    return HodgeRiemannReport(
        p=p, q=q, prim_dim=n,
        signature_unsigned=unsigned,
        signature_signed=signed,
        positive_definite=signed == (n, 0, 0))


def _pairing(forms: list, tail: Form) -> ExactMatrix:
    """The Hermitian matrix of integrals of f_j ^ conj(f_k) ^ tail."""
    conj = [f.conj() for f in forms]
    return ExactMatrix([[f.wedge(g).wedge(tail).integrate() for g in conj] for f in forms])


# -- intersection form on degree 2 ---------------------------------------------


class HodgeIndexReport(NamedTuple):
    b2_plus: int
    b2_minus: int
    ell11: int
    relation_ok: bool
    b2: int
    ell20: int
    integrable: bool
    nonintegrable_20_vanishes: Optional[bool]

    def to_json(self) -> dict:
        return self._asdict()

    def to_text(self) -> str:
        return (f"hodge index: b2+ = {self.b2_plus}, b2- = {self.b2_minus}, "
                f"ell(1,1) = {self.ell11}, relation_ok: {format_flag(self.relation_ok)}")


def hodge_index(model: LieModel) -> HodgeIndexReport:
    """Signature of the wedge pairing on invariant harmonic 2-forms, taken
    as the Hermitian pairing of a ^ conj(b) on their complex basis.

    Only defined for 4-dimensional almost Kahler models.  The relation
    flag records ell(1,1) = b2_minus + 1 together with b2_plus >= 1; for
    non-integrable structures the vanishing of ell(2,0) is recorded as
    well.
    """
    if _model(model).dim != 4:
        raise HarmonicError("the intersection form needs a 4-dimensional model")
    alg = _almost_kahler(model, "the intersection form")
    d_adj = _adjoint(alg, "d")
    vecs = kernel(vstack([alg.d.degree_slice(2, 3), d_adj.degree_slice(2, 1)]))
    b2 = _betti(alg)[2]
    if len(vecs) != b2:
        raise HarmonicError(
            f"harmonic 2-forms span dimension {len(vecs)}, expected b2={b2}")
    forms = [alg.form_from_vector(vec, alg.degree_range(2).start) for vec in vecs]
    # the kernel is the complexification of the real harmonic 2-forms (see
    # the module docstring) only if conjugation keeps it
    if any(not (alg.d.apply(f.conj()).is_zero() and d_adj.apply(f.conj()).is_zero())
           for f in forms):
        raise HarmonicError("harmonic space is not conjugation-stable")
    plus, minus, zero = hermitian_signature(_pairing(forms, alg.basis_form((0, 0), 0)))
    if zero:
        raise HarmonicError("intersection form is degenerate")
    ell11 = _ell(alg, 1, 1)
    ell20 = _ell(alg, 2, 0)
    return HodgeIndexReport(
        b2_plus=plus, b2_minus=minus, ell11=ell11,
        relation_ok=(ell11 == minus + 1 and plus >= 1),
        b2=b2, ell20=ell20,
        integrable=alg.validation.integrable,
        nonintegrable_20_vanishes=None if alg.validation.integrable else ell20 == 0)


# -- holomorphic forms and cohomology ------------------------------------------


class HolomorphicReport(NamedTuple):
    """Kernel of dbar on (p,0) plus the 1-form counting flags.

    ``symplectic_bound_ok`` records the necessary condition
    2*dim(holomorphic 1-forms) <= b1 for a compatible symplectic
    structure; ``free_rank_hypothesis`` records whether the 1-forms exceed
    the 2-forms by more than one, the input to the fundamental-group rank
    bound.
    """

    p: int
    dim: int
    basis: tuple
    matches_harmonic: Optional[bool]
    symplectic_bound_ok: bool
    free_rank_hypothesis: bool
    b1: int

    def to_json(self) -> dict:
        return {**self._asdict(), "basis": [form_to_json(f) for f in self.basis]}


def _holomorphic_vectors(alg: BigradedAlgebra, p: int) -> tuple:
    """The kernel of dbar on (p,0), read as the dbar-harmonic space: dbar*
    sends (p,0) to the empty (p,-1) block, so its constraint matrix is the
    dbar block alone."""
    return _harmonic_vectors(alg, "dbar", (p, 0)) if p <= alg.m else ()


def _one_form_flags(alg: BigradedAlgebra) -> dict:
    """The flags symplectic_bound_ok, 2 h^{1,0} <= b1, and
    free_rank_hypothesis, h^{1,0} > h^{2,0} + 1 (h^{2,0} = 0 when m < 2)."""
    h10, h20 = (len(_holomorphic_vectors(alg, p)) for p in (1, 2))
    return {"symplectic_bound_ok": 2 * h10 <= _betti(alg)[1],
            "free_rank_hypothesis": h10 > h20 + 1}


def holomorphic_forms(model: LieModel, p: int) -> HolomorphicReport:
    """Metric-free holomorphic p-forms with the obstruction flags."""
    alg = build(model)
    if not (type(p) is int and 0 <= p <= alg.m):
        raise HarmonicError(f"p={quote(p)} out of range 0..{alg.m}")
    vecs = _holomorphic_vectors(alg, p)
    basis = tuple(form_from_coordinates(alg, (p, 0), v) for v in vecs)
    matches = None
    if p == 1 and alg.validation.almost_kahler:
        harm = _harmonic_vectors(alg, "d", (1, 0))
        # kernel bases are canonical, so equal subspaces have equal bases
        matches = harm == vecs
    return HolomorphicReport(
        p=p, dim=len(vecs), basis=basis,
        matches_harmonic=matches,
        b1=_betti(alg)[1],
        **_one_form_flags(alg))


def mu_bar_cohomology(model: LieModel, p: int, q: int) -> int:
    """dim ker/im of the (-1,2) component mu_bar on the invariant (p,q)
    block, counted as the mu_bar-harmonic forms there.  mu_bar squares to
    zero (the (-2,4) part of d d = 0) and the metric is positive definite,
    so ker mu_bar = im mu_bar + (ker mu_bar meet ker mu_bar*), orthogonally,
    and ker/im is isomorphic to that joint kernel."""
    alg = build(model)
    _check_block(alg, p, q)
    return len(_harmonic_vectors(alg, "mu_bar", (p, q)))


# -- nonexistence of compatible almost Kahler structures ------------------------


AK_NONEXISTENCE_VERDICT = "no invariant almost Kähler structure compatible with J"


class AkNonexistenceReport(NamedTuple):
    """Outcome of the degenerate-family argument against compatible
    structures.

    The argument: any invariant almost Kahler form lives in the space W of
    d-closed real (1,1)-forms.  When wedging every candidate against every
    holomorphic 1-form is dbar-exact (t1_is_full), a compatible form must
    kill those wedges outright, cutting W down to the subfamily T2.  If
    the top power of the whole T2 family vanishes identically as an exact
    polynomial, every candidate is degenerate and no compatible structure
    exists.

    A candidate is R y for a real vector y (``_real_11_basis``): W is the y
    that the real and imaginary parts of d R kill, T1 adds those of the
    wedges with the holomorphic 1-forms modulo the image of dbar, and T2
    those of the wedges themselves.
    """

    model_name: str
    verdict: str
    detail: str
    closed_real_11_dim: int
    holomorphic_1_dim: int
    t1_is_full: Optional[bool] = None
    t2_dim: Optional[int] = None
    top_power_vanishes: Optional[bool] = None

    @property
    def nonexistence(self) -> bool:
        return self.verdict == AK_NONEXISTENCE_VERDICT

    def to_json(self) -> dict:
        payload = self._asdict()
        payload["model"] = payload.pop("model_name")
        return payload


def _real_rows(mat: ExactMatrix) -> ExactMatrix:
    """The real and the imaginary part of every row of mat: for real x,
    mat x = 0 exactly when these rows kill x."""
    rows = []
    for i in range(mat.rows):
        items = mat.row_items(i)
        rows.append({j: x for j, a in items if (x := a.re)})
        rows.append({j: x for j, a in items if (x := a.im)})
    return ExactMatrix._from_rows(rows, mat.cols)


def _real_11_basis(alg: BigradedAlgebra) -> list:
    """A real basis of the real (1,1)-forms as sparse vectors on the block,
    read off conjugation: for C[i] = (j, s) on the block, a pair i < j
    gives e_i + s e_j and i(e_i - s e_j), and a fixed i gives e_i if s = 1
    and i e_i if s = -1.  There are as many as the block has monomials."""
    n, start = alg.dim_block((1, 1)), alg.offset[(1, 1)]
    cols = []
    for i, (j, s) in enumerate(alg.C[start:start + n]):
        j -= start
        if i == j:
            cols.append({i: GAUSS_ONE if s == 1 else GAUSS_I})
        elif i < j:
            cols += [{i: GAUSS_ONE, j: GaussScalar(s)}, {i: GAUSS_I, j: GaussScalar(0, -s)}]
    return cols


def ak_nonexistence_report(model: LieModel) -> AkNonexistenceReport:
    """Run the degenerate-family argument on the invariant complex.

    The verdict claims nonexistence only when the final certificate (the
    identically vanishing top power over the surviving family) is in hand;
    anything short of that reports "inconclusive" or, without holomorphic
    1-forms, "vacuous".
    """
    return _ak_nonexistence(build(model))


@memoized
def _ak_nonexistence(alg: BigradedAlgebra) -> AkNonexistenceReport:
    model = alg.model
    m = alg.m
    basis = _real_11_basis(alg)
    R = ExactMatrix._from_rows(basis, len(basis)).transpose()
    closed = alg.d.columns((1, 1)) @ R
    dim_w = len(kernel(_real_rows(closed)))
    hol = _holomorphic_vectors(alg, 1)
    if not hol:
        return AkNonexistenceReport(
            model_name=model.name, verdict="vacuous",
            detail="no holomorphic 1-forms; the wedge obstruction has nothing to act on",
            closed_real_11_dim=dim_w, holomorphic_1_dim=0)
    if dim_w == 0:
        return AkNonexistenceReport(
            model_name=model.name, verdict=AK_NONEXISTENCE_VERDICT,
            detail="no d-closed real (1,1)-forms at all",
            closed_real_11_dim=0, holomorphic_1_dim=len(hol),
            t1_is_full=True, t2_dim=0, top_power_vanishes=True)
    # X[s] has in column c the (2,1) coordinates of r_c ^ alpha_s, for the
    # columns r_c of R and the holomorphic 1-forms alpha_s.  For m = 1 the
    # (2,1) block is empty, every wedge vanishes, and both cuts are trivial.
    r_forms = [form_from_coordinates(alg, (1, 1), r) for r in basis]
    block21 = alg.block_range((2, 1)) if m > 1 else range(0)
    X = [ExactMatrix._from_rows([alg.coordinates(r.wedge(alpha)) for r in r_forms], alg.size)
         .submatrix(range(R.cols), block21).transpose()
         for alpha in (form_from_coordinates(alg, (1, 0), a) for a in hol)]
    # T1: closed candidates whose wedges are all dbar-exact.  Membership in
    # the image is cut out by the kernel of the transpose.
    image = alg.dbar.block((2, 0), DBAR_SHIFT) if m > 1 else ExactMatrix.zeros(0, 0)
    cokernel = ExactMatrix._from_rows(kernel(image.transpose()), len(block21))
    t1_basis = kernel(_real_rows(vstack([closed] + [cokernel @ x for x in X])))
    if len(t1_basis) < dim_w:
        return AkNonexistenceReport(
            model_name=model.name, verdict="inconclusive",
            detail=("wedging with holomorphic 1-forms is not always "
                    f"dbar-exact; only a {len(t1_basis)}-dimensional "
                    "subfamily qualifies"),
            closed_real_11_dim=dim_w, holomorphic_1_dim=len(hol),
            t1_is_full=False)
    # T2: closed candidates killing every wedge outright.
    t2_basis = kernel(_real_rows(vstack([closed] + X)))
    t2_dim = len(t2_basis)
    # Top power of the family R (sum of t_j tau_j) over the T2 basis, one
    # real parameter t_j per tau_j; with none it is the zero form, whose
    # top power is zero.
    names = tuple(f"t{j + 1}" for j in range(t2_dim))
    params = {j: ParamPoly.variable(names, name) for j, name in enumerate(names)}
    taus = ExactMatrix._from_rows(t2_basis, R.cols).transpose()
    family = form_from_coordinates(alg, (1, 1), (R @ taus).apply(params))
    if family.power(m).is_zero():
        return AkNonexistenceReport(
            model_name=model.name, verdict=AK_NONEXISTENCE_VERDICT,
            detail=(f"every candidate wedges holomorphic 1-forms dbar-exactly; "
                    f"the surviving {t2_dim}-parameter family has identically "
                    f"vanishing top power"),
            closed_real_11_dim=dim_w, holomorphic_1_dim=len(hol),
            t1_is_full=True, t2_dim=t2_dim, top_power_vanishes=True)
    return AkNonexistenceReport(
        model_name=model.name, verdict="inconclusive",
        detail=(f"a {t2_dim}-parameter family survives with nonvanishing "
                f"top power"),
        closed_real_11_dim=dim_w, holomorphic_1_dim=len(hol),
        t1_is_full=True, t2_dim=t2_dim, top_power_vanishes=False)


# -- combined obstruction report -------------------------------------------------


class ObstructionReport(NamedTuple):
    """Everything this library can say against a compatible symplectic
    form."""

    model_name: str
    hol_dims: tuple
    b1: int
    symplectic_bound_ok: bool
    free_rank_hypothesis: bool
    laplacian_witness: Optional[Form]
    ak_nonexistence: AkNonexistenceReport
    integrable: bool

    @property
    def fires(self) -> bool:
        return (not self.symplectic_bound_ok
                or self.laplacian_witness is not None
                or self.ak_nonexistence.nonexistence)

    def to_json(self) -> dict:
        return {
            "scope": "invariant",
            "model": self.model_name,
            "holomorphic_dims": list(self.hol_dims),
            "b1": self.b1,
            "symplectic_bound_ok": self.symplectic_bound_ok,
            "free_rank_hypothesis": self.free_rank_hypothesis,
            "laplacian_witness": (
                None if self.laplacian_witness is None
                else form_to_json(self.laplacian_witness)),
            "ak_nonexistence": self.ak_nonexistence.to_json(),
            "integrable": self.integrable,
            "fires": self.fires,
        }

    def to_text(self) -> str:
        hol1 = self.hol_dims[1]
        ok = self.symplectic_bound_ok
        witness = self.laplacian_witness
        return "\n".join([
            f"model: {self.model_name} (invariant obstruction report)",
            "holomorphic form dims (p = 0..m): " + " ".join(map(str, self.hol_dims)),
            f"symplectic bound: 2*{hol1} = {2 * hol1} {'<=' if ok else '>'} "
            f"b1 = {self.b1} ({'ok' if ok else 'violated'})",
            f"free_rank_hypothesis: {format_flag(self.free_rank_hypothesis)}",
            "laplacian symmetry: symmetric" if witness is None
            else f"laplacian symmetry witness: {witness.algebra.format_form(witness)}",
            f"almost Kahler nonexistence: {self.ak_nonexistence.verdict}",
            f"  {self.ak_nonexistence.detail}",
            f"integrable: {format_flag(self.integrable)}",
            f"obstruction fires: {format_flag(self.fires)}",
        ])


def obstruction_report(model: LieModel) -> ObstructionReport:
    """Holomorphic-form counts, Laplacian asymmetry, and the degeneracy
    argument in one report."""
    alg = build(model)
    return ObstructionReport(
        model_name=model.name,
        hol_dims=tuple(len(_holomorphic_vectors(alg, p)) for p in range(alg.m + 1)),
        b1=_betti(alg)[1],
        **_one_form_flags(alg),
        laplacian_witness=laplacian_symmetry_witness(model),
        ak_nonexistence=_ak_nonexistence(alg),
        integrable=alg.validation.integrable)
