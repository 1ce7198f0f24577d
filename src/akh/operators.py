"""Graded operator calculus and the almost Kahler identity ledger.

Everything here works on :class:`~akh.forms.BlockOperator` instances drawn
from a single :class:`~akh.forms.BigradedAlgebra`.  The central entry point
is :func:`verify_identities`, which evaluates the complete catalogue of
commutation identities that hold for an invariant almost Kahler structure
and reports, for each one, either "holds" or the first basis form on which
it breaks.  On models that are not almost Kahler the failing entries are
the interesting output: they certify which parts of the Kahler package
survive and which do not.  :meth:`IdentityLedger.to_text` renders the
ledger as ``akh identities`` prints it, a witness form for every failure.

Conventions:

* the graded commutator is ``[A, B] = A B - (-1)^{|A||B|} B A`` with ``|A|``
  the parity of the total degree shift;
* adjoints are taken with respect to the inner product induced by the
  orthonormal frame (see ``BlockOperator.adjoint``);
* the Laplacian of an operator ``D`` is ``D D* + D* D``; only the ledger
  builds Laplacians.  Every harmonic space (``_harmonic_vectors``) is the
  joint kernel of components and their adjoints, stacked block by block.

Sixteen ledger entries are derived, each from one computed entry, so that
status, first failing block and witness are those of the direct
computation:

* by conjugation C: d and the fundamental form are real and the metric is
  conjugation-invariant, so C mubar C = mu, C dbar C = partial, C fixes L
  and lam, C A* C = (C A C)* and C i C = -i.  A partner's differences are
  C D C for its representative's differences D (``BlockOperator.conj``);
* by adjunction: L* = lam, (c A)* = conj(c) A* and (A B)* = B* A*, so each
  side of a lam-side identity is -(the matching L-side side)*, and its
  differences are -D*.  The Gram matrix is diagonal and positive, so -D*
  moves the j-th basis form exactly when row j of D is nonzero, which D's
  transpose shows with no arithmetic.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .exact import GAUSS_I, ExactMatrix, kernel, vstack
from .forms import (
    AlgebraError,
    BigradedAlgebra,
    BlockOperator,
    Form,
    build,
    form_from_coordinates,
    form_to_json,
    memoized,
)
from .model import LieModel

__all__ = [
    "graded_commutator",
    "laplacian",
    "star_conjugate",
    "LedgerEntry",
    "IdentityLedger",
    "verify_identities",
    "laplacian_symmetry_witness",
]


def graded_commutator(a: BlockOperator, b: BlockOperator) -> BlockOperator:
    """``a b - (-1)^{|a||b|} b a`` where ``|.|`` is total-degree parity.

    Raises :class:`~akh.forms.AlgebraError` when either operator mixes
    even and odd shifts, since the sign is then undefined.
    """
    pa = a.parity
    pb = b.parity
    if pa is None or pb is None:
        raise AlgebraError("graded commutator requires operators of pure parity")
    ab = a.compose(b)
    ba = b.compose(a)
    if pa == 1 and pb == 1:
        return ab + ba
    return ab - ba


def laplacian(op: BlockOperator) -> BlockOperator:
    """``op op* + op* op``; degree zero whenever ``op`` has a pure shift."""
    return _laplacian(op, op.adjoint())


def _laplacian(op: BlockOperator, star: BlockOperator) -> BlockOperator:
    return op.compose(star) + star.compose(op)


_COMPONENTS = ("mu_bar", "dbar", "partial", "mu")


@memoized
def _adjoint(alg: BigradedAlgebra, name: str) -> BlockOperator:
    """The adjoint of the operator ``getattr(alg, name)``, built once."""
    return getattr(alg, name).adjoint()


@memoized
def _constraint_matrix(alg: BigradedAlgebra, which: str, pq: tuple) -> ExactMatrix:
    """The images of A^{p,q} under the operators named by ``which`` (one of
    ``akh.harmonic.WHICH_CHOICES``, which the caller has checked) and their
    adjoints, stacked: "d" names d, "dbar+mu" and "partial+mu_bar" two
    components.

    Its kernel is the harmonic space ``which`` on pq.  The metric is
    positive definite, so <lap(D) x, x> = |D x|^2 + |D* x|^2, and a sum of
    component Laplacians kills x exactly when each component and each
    adjoint in it does."""
    names = which.split("+")
    return vstack([op.columns(pq) for op in [getattr(alg, name) for name in names]
                   + [_adjoint(alg, name) for name in names]])


@memoized
def _harmonic_vectors(alg: BigradedAlgebra, which: str, pq: tuple) -> tuple:
    """Canonical coordinate basis of the harmonic space ``which`` on pq."""
    return tuple(kernel(_constraint_matrix(alg, which, pq)))


def star_conjugate(algebra: BigradedAlgebra, op: BlockOperator) -> BlockOperator:
    """Conjugate ``op`` by the Hodge star twisted with the parity weight.

    Returns ``star . weight_inv . op . weight . star``.  For the exterior
    differential this produces ``[lam, d]`` up to sign conventions, and on
    each Dolbeault-type component it reproduces the adjoint up to a factor
    of ``i`` (checked in the test suite).
    """
    return algebra.star.compose(algebra.weight_inv).compose(op).compose(
        algebra.weight).compose(algebra.star)


# -- identity ledger ----------------------------------------------------------


class LedgerEntry(NamedTuple):
    """Outcome of checking one operator identity on one model."""

    id: str
    statement: str
    holds: bool
    first_failing_block: Optional[tuple] = None
    witness: Optional[Form] = None

    @property
    def status(self) -> str:
        return "holds" if self.holds else "fails"

    def to_json(self) -> dict:
        payload = {
            "id": self.id,
            "statement": self.statement,
            "status": self.status,
        }
        if not self.holds:
            payload["first_failing_block"] = list(self.first_failing_block)
            payload["witness"] = form_to_json(self.witness)
        return payload


class IdentityLedger(NamedTuple):
    """All identity outcomes for one model, in catalogue order."""

    model_name: str
    entries: tuple

    @property
    def all_hold(self) -> bool:
        return all(entry.holds for entry in self.entries)

    def failures(self) -> tuple:
        return tuple(entry for entry in self.entries if not entry.holds)

    def to_json(self) -> dict:
        return {
            "model": self.model_name,
            "all_hold": self.all_hold,
            "entries": [entry.to_json() for entry in self.entries],
        }

    def to_text(self) -> str:
        """One line per entry, a verdict line, then a witness line for every
        failing entry."""
        lines = [f"identity ledger for {self.model_name}"]
        for entry in self.entries:
            mark = "ok  " if entry.holds else "FAIL"
            line = f"  [{mark}] {entry.id}: {entry.statement}"
            if not entry.holds:
                line += f"  (first failure at block {entry.first_failing_block})"
            lines.append(line)
        failures = self.failures()
        lines.append("all identities hold" if not failures
                     else f"{len(failures)} of {len(self.entries)} identities fail")
        for entry in failures:
            lines.append(f"  witness for {entry.id}: "
                         f"{entry.witness.algebra.format_form(entry.witness)}")
        return "\n".join(lines)


def _first_failure(algebra: BigradedAlgebra, entry_id: str, statement: str,
                   diffs: Sequence[BlockOperator]) -> LedgerEntry:
    """The entry of an identity whose sides differ by ``diffs``: it fails on
    the first basis form that the first nonzero difference moves."""
    for diff in diffs:
        hit = diff.first_nonzero()
        if hit is not None:
            pq, col = hit
            return LedgerEntry(entry_id, statement, False, pq, algebra.basis_form(pq, col))
    return LedgerEntry(entry_id, statement, True)


def _adjoint_pattern(diff: BlockOperator) -> BlockOperator:
    """D's transpose: nonzero exactly where -D* is (see the module docstring)."""
    return BlockOperator(diff.algebra, diff.matrix.transpose())


def verify_identities(model: LieModel) -> IdentityLedger:
    """Evaluate the full almost Kahler identity catalogue on ``model``.

    The catalogue covers the Lefschetz commutators of all four differential
    components and their adjoints, the cross relations among the components,
    the Laplacian comparison and expansion identities, the two six-member
    commutator chains tying ``L`` and ``lam`` to the Laplacians, and the
    star-conjugation description of ``[lam, d]``.  Chains are verified
    member by member against their first expression, so ``witness`` always
    exhibits a concrete form on which the earliest failing member differs.
    Twelve entries are computed; the sixteen conjugate and adjoint partners
    are derived from them (see the module docstring).
    """
    alg = build(model)
    mubar, dbar, partial, mu = alg.mu_bar, alg.dbar, alg.partial, alg.mu
    L, lam, d = alg.L, alg.lam, alg.d
    i = GAUSS_I
    gc = graded_commutator

    adjoints = [_adjoint(alg, name) for name in _COMPONENTS]
    mubar_s, dbar_s, partial_s, mu_s = adjoints
    lap_mubar, lap_dbar, lap_partial, lap_mu = (
        _laplacian(getattr(alg, name), star) for name, star in zip(_COMPONENTS, adjoints))
    # lap_d_expand also takes their conjugates [mu, dbar*] and [dbar, partial*]
    mubar_partial_s, partial_dbar_s = gc(mubar, partial_s), gc(partial, dbar_s)
    zero = BlockOperator.zero(alg)

    conj, adj = BlockOperator.conj, _adjoint_pattern
    # (id, statement, sides), or for a derived entry (derive, representative id)
    checks = [
        # Lefschetz operators commute with the non-Dolbeault components...
        ("L_mubar_commute", "[L, mubar] = 0", (gc(L, mubar), zero)),
        ("L_mu_commute", "[L, mu] = 0", (conj, "L_mubar_commute")),
        ("lam_mubar_adj_commute", "[lam, mubar*] = 0", (adj, "L_mubar_commute")),
        ("lam_mu_adj_commute", "[lam, mu*] = 0", (adj, "L_mu_commute")),
        # ...and with the Dolbeault components.
        ("L_dbar_commute", "[L, dbar] = 0", (gc(L, dbar), zero)),
        ("L_partial_commute", "[L, partial] = 0", (conj, "L_dbar_commute")),
        ("lam_dbar_adj_commute", "[lam, dbar*] = 0", (adj, "L_dbar_commute")),
        ("lam_partial_adj_commute", "[lam, partial*] = 0", (adj, "L_partial_commute")),
        # Mixed Lefschetz commutators rotate components into adjoints.
        ("L_mubar_adj", "[L, mubar*] = i mu", (gc(L, mubar_s), mu.scale(i))),
        ("L_mu_adj", "[L, mu*] = -i mubar", (conj, "L_mubar_adj")),
        ("lam_mubar", "[lam, mubar] = i mu*", (adj, "L_mubar_adj")),
        ("lam_mu", "[lam, mu] = -i mubar*", (adj, "L_mu_adj")),
        ("L_dbar_adj", "[L, dbar*] = -i partial", (gc(L, dbar_s), partial.scale(-i))),
        ("L_partial_adj", "[L, partial*] = i dbar", (conj, "L_dbar_adj")),
        ("lam_dbar", "[lam, dbar] = -i partial*", (adj, "L_dbar_adj")),
        ("lam_partial", "[lam, partial] = i dbar*", (adj, "L_partial_adj")),
        # Cross relations among the four components.
        ("mubar_mu_adj", "[mubar, mu*] = 0", (gc(mubar, mu_s), zero)),
        ("mu_mubar_adj", "[mu, mubar*] = 0", (conj, "mubar_mu_adj")),
        ("mubar_partial_adj", "[mubar, partial*] = [dbar, mu*]",
         (mubar_partial_s, gc(dbar, mu_s))),
        ("mu_dbar_adj", "[mu, dbar*] = [partial, mubar*]", (conj, "mubar_partial_adj")),
        ("partial_dbar_adj", "[partial, dbar*] = [mubar*, dbar] + [mu, partial*]",
         (partial_dbar_s, gc(mubar_s, dbar) + gc(mu, partial_s))),
        ("dbar_partial_adj", "[dbar, partial*] = [mu*, partial] + [mubar, dbar*]",
         (conj, "partial_dbar_adj")),
        # Laplacian identities.
        ("lap_mu_split", "lap(mubar + mu) = lap(mubar) + lap(mu)",
         (_laplacian(mubar + mu, mubar_s + mu_s), lap_mubar + lap_mu)),
        ("lap_cross", "lap(dbar) + lap(mu) = lap(partial) + lap(mubar)",
         (lap_dbar + lap_mu, lap_partial + lap_mubar)),
        ("lap_d_expand",
         "lap(d) = 2(lap(dbar) + lap(mu) + [mubar, partial*] + [mu, dbar*]"
         " + [partial, dbar*] + [dbar, partial*])",
         (_laplacian(d, _adjoint(alg, "d")),
          (lap_dbar + lap_mu + mubar_partial_s + mubar_partial_s.conj()
           + partial_dbar_s + partial_dbar_s.conj()).scale(2))),
        # Commutator chains tying the Lefschetz operators to the Laplacians.
        ("L_lap_chain",
         "[L, lap(dbar)] = [L, lap(mubar)] = -[L, lap(partial)]"
         " = -[L, lap(mu)] = -i[dbar, partial] = i[mubar, mu]",
         (gc(L, lap_dbar), gc(L, lap_mubar),
          gc(L, lap_partial).scale(-1), gc(L, lap_mu).scale(-1),
          gc(dbar, partial).scale(-i), gc(mubar, mu).scale(i))),
        ("lam_lap_chain",
         "[lam, lap(dbar)] = [lam, lap(mubar)] = -[lam, lap(partial)]"
         " = -[lam, lap(mu)] = -i[dbar*, partial*] = i[mubar*, mu*]",
         (adj, "L_lap_chain")),
        # The weighted star conjugate of d computes [lam, d].
        ("weil_star", "[lam, d] = star . weight_inv . d . weight . star",
         (gc(lam, d), star_conjugate(alg, d))),
    ]

    diffs, entries = {}, []
    for entry_id, statement, sides in checks:
        if callable(sides[0]):
            derive, representative = sides
            diffs[entry_id] = [derive(diff) for diff in diffs[representative]]
        else:
            diffs[entry_id] = [other - sides[0] for other in sides[1:]]
        entries.append(_first_failure(alg, entry_id, statement, diffs[entry_id]))
    return IdentityLedger(model_name=model.name, entries=tuple(entries))


def laplacian_symmetry_witness(model: LieModel) -> Optional[Form]:
    """First basis-ordered form separating the two mixed Laplacian kernels.

    Compares ``ker(lap(dbar) + lap(mu))`` with ``ker(lap(partial) +
    lap(mubar))`` block by block and returns a pure-bidegree form lying
    in one kernel but not the other, or None when the kernels agree
    everywhere (as they must on an almost Kahler model).  The model is
    unimodular, since ``build`` refuses any other: only then is the Gram
    adjoint of d equal to -*d*, and without it a Kahler model can have a
    witness.  A witness shows that (J, g) as given, with the metric of the
    orthonormal frame, is not almost Kahler; it says nothing about other
    invariant metrics compatible with J.
    """
    alg = build(model)
    for pq in alg.block_order:
        ker_a = _harmonic_vectors(alg, "dbar+mu", pq)
        ker_b = _harmonic_vectors(alg, "partial+mu_bar", pq)
        if ker_a == ker_b:  # canonical bases: the same subspace
            continue
        # a vector lies in the other kernel exactly when the other side's
        # components and adjoints all kill it
        for vecs, other in ((ker_a, "partial+mu_bar"), (ker_b, "dbar+mu")):
            constraints = _constraint_matrix(alg, other, pq)
            for vec in vecs:
                if constraints.apply(vec):
                    return form_from_coordinates(alg, pq, vec)
    return None
