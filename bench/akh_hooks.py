"""Outside-in timing hooks for one ``akh`` process.

The hooks wrap public functions of the ``akh`` modules after they are
imported; nothing under ``src/`` changes.  Two kinds of hook exist:

* Stage spans around the entry points of each layer.  A span records its
  name, start, end and the span that was open when it began, so a stage's
  self time is its duration minus the time its child stage spans cover.
* Counters on the exact-arithmetic primitives (``rref``, dense
  ``ExactMatrix.__matmul__`` and ``ParamPoly.__mul__``).  They are called
  thousands of times per request, so they add to totals instead of
  recording spans.  Their time is included in the self time of the stage
  that called them.

A module attribute bound to a wrapped function is replaced in every
``akh`` module that imported it by name, so ``from .harmonic import
betti`` call sites are traced as well.  A hook point that no longer
exists is listed in ``missing`` and the request still runs.
"""

import sys
from time import perf_counter

# (module, attribute, span name); two attributes may share a span name
STAGES = (
    ("akh.model", "load_model", "model.load"),
    ("akh.model", "catalog", "model.load"),
    ("akh.model", "validate", "model.validate"),
    ("akh.forms", "build", "forms.build"),
    ("akh.operators", "verify_identities", "operators.ledger"),
    ("akh.operators", "laplacian_symmetry_witness", "operators.witness"),
    ("akh.harmonic", "betti", "harmonic.betti"),
    ("akh.harmonic", "ell_diamond", "harmonic.diamond"),
    ("akh.harmonic", "hard_lefschetz", "harmonic.lefschetz"),
    ("akh.harmonic", "obstruction_report", "harmonic.obstructions"),
)

PRIMITIVES = ("akh.exact.rref", "akh.exact.ExactMatrix.__matmul__",
              "akh.exact.ParamPoly.__mul__")

COUNTERS = ("rref_calls", "rref_s", "rref_cells", "matmul_calls", "matmul_s",
            "matmul_dense_mults", "matmul_nonzero_pairs", "parampoly_mul_calls")


def _rebind(original, replacement) -> None:
    """Point every akh module attribute bound to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "akh" or name.startswith("akh.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """Spans and counters of one process; install() once, then dump()."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.stack = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing = []
        self.build_cache = None

    def install(self) -> None:
        for module_name, attr, span in STAGES:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if span == "forms.build" and hasattr(original, "cache_info"):
                self.build_cache = original
            _rebind(original, self._stage(span, original))
        exact = sys.modules.get("akh.exact")
        self._hook_rref(exact)
        self._hook_matmul(getattr(exact, "ExactMatrix", None))
        self._hook_parampoly(getattr(exact, "ParamPoly", None))

    def span(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span called ``name``."""
        return self._stage(name, fn)(*args)

    def _stage(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), None,
                          stack[-1] if stack else None])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook_rref(self, exact) -> None:
        original = getattr(exact, "rref", None)
        if original is None:
            self.missing.append(PRIMITIVES[0])
            return
        counters = self.counters

        def rref(mat, *args, **kwargs):
            counters["rref_calls"] += 1
            counters["rref_cells"] += mat.rows * mat.cols
            start = perf_counter()
            try:
                return original(mat, *args, **kwargs)
            finally:
                counters["rref_s"] += perf_counter() - start

        _rebind(original, rref)

    def _hook_matmul(self, cls) -> None:
        original = getattr(cls, "__matmul__", None)
        if original is None:
            self.missing.append(PRIMITIVES[1])
            return
        counters = self.counters

        def matmul(a, b):
            counters["matmul_calls"] += 1
            counters["matmul_dense_mults"] += a.rows * a.cols * b.cols
            # products with both factors nonzero: column k of a meets row k of b
            col_nnz = [0] * a.cols
            for row in a.data:
                for k, x in enumerate(row):
                    if x:
                        col_nnz[k] += 1
            counters["matmul_nonzero_pairs"] += sum(
                n * sum(1 for y in b_row if y)
                for n, b_row in zip(col_nnz, b.data) if n)
            start = perf_counter()
            try:
                return original(a, b)
            finally:
                counters["matmul_s"] += perf_counter() - start

        cls.__matmul__ = matmul

    def _hook_parampoly(self, cls) -> None:
        original = getattr(cls, "__mul__", None)
        if original is None:
            self.missing.append(PRIMITIVES[2])
            return
        counters = self.counters

        def mul(a, b):
            counters["parampoly_mul_calls"] += 1
            return original(a, b)

        cls.__mul__ = mul
        if cls.__dict__.get("__rmul__") is original:
            cls.__rmul__ = mul

    def dump(self, import_s: float) -> dict:
        cache = None
        if self.build_cache is not None:
            info = self.build_cache.cache_info()
            cache = {"hits": info.hits, "misses": info.misses}
        return {"import_s": import_s, "spans": self.spans,
                "counters": self.counters, "build_cache": cache,
                "missing": self.missing}
