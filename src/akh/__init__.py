"""Exact bigraded calculus for invariant almost Hermitian structures.

The package computes, in exact rational arithmetic, the bidegree
decomposition of the Chevalley-Eilenberg differential on a Lie algebra
with a compatible almost complex structure and inner product, verifies
the operator identities that hold in the almost Kahler case, and derives
harmonic dimension diamonds, Lefschetz maps, signature data, and
obstructions to compatible symplectic structures.

Most callers want:

    from akh import catalog, build, verify_identities, ell_diamond

and then the report helpers in :mod:`akh.harmonic`.

The names below are loaded on first access (PEP 562), so ``import akh``
costs almost nothing and ``akh.catalog`` loads only :mod:`akh.exact` and
:mod:`akh.model`.  Every error class the package defines derives from
:class:`AkhError`, a ``ValueError``.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "AkhError": "exact",
    "ExactError": "exact",
    "ExactMatrix": "exact",
    "GaussScalar": "exact",
    "ParamPoly": "exact",
    "hermitian_signature": "exact",
    "kernel": "exact",
    "rank": "exact",
    "rref": "exact",
    "AlgebraError": "forms",
    "BigradedAlgebra": "forms",
    "BlockOperator": "forms",
    "Form": "forms",
    "betti": "forms",
    "build": "forms",
    "form_from_coordinates": "forms",
    "form_from_json": "forms",
    "form_to_json": "forms",
    "AK_NONEXISTENCE_VERDICT": "harmonic",
    "AkNonexistenceReport": "harmonic",
    "Diamond": "harmonic",
    "HarmonicError": "harmonic",
    "HodgeIndexReport": "harmonic",
    "HodgeRiemannReport": "harmonic",
    "HolomorphicReport": "harmonic",
    "LefschetzReport": "harmonic",
    "ObstructionReport": "harmonic",
    "PrimitiveDecomposition": "harmonic",
    "ak_nonexistence_report": "harmonic",
    "ell_diamond": "harmonic",
    "hard_lefschetz": "harmonic",
    "harmonic_basis": "harmonic",
    "hodge_index": "harmonic",
    "hodge_riemann_check": "harmonic",
    "holomorphic_forms": "harmonic",
    "mu_bar_cohomology": "harmonic",
    "obstruction_report": "harmonic",
    "primitive_decomposition": "harmonic",
    "CATALOG_NAMES": "model",
    "LieModel": "model",
    "ModelError": "model",
    "StructureReport": "model",
    "catalog": "model",
    "load_model": "model",
    "model_from_json": "model",
    "model_to_json": "model",
    "save_model": "model",
    "validate": "model",
    "IdentityLedger": "operators",
    "LedgerEntry": "operators",
    "graded_commutator": "operators",
    "laplacian": "operators",
    "laplacian_symmetry_witness": "operators",
    "star_conjugate": "operators",
    "verify_identities": "operators",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _EXPORTS.values():
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
