"""Direct products as an exact oracle for the harmonic spaces.

On a product M1 x M2 with block-diagonal J (``make_ladder.product`` under
``bench/models``), each component D of d is D1 (x) 1 + e (x) D2 with e the
parity sign.  The cross terms of D D* + D* D cancel, so the Laplacian of D
is that of D1 plus that of D2, both positive semidefinite and of bidegree
zero, and its kernel is the tensor product of the factors' kernels.  Hence
on every pair of catalog models of total dimension at most 8:

- for every harmonic flavour, the dimension on the (p,q) block is the
  convolution of the factors' dimensions over p1 + p2 = p, q1 + q2 = q;
- the dimensions of the holomorphic p-forms convolve the same way;
- the Betti numbers follow Kunneth;
- the product is almost Kahler exactly when both factors are, and then its
  "d", "dbar+mu" and "partial+mu_bar" spaces have the same dimensions and
  every identity of its ledger holds.

The convolutions alone hold for any consistent change of one flavour (a
single component convolves as well), so the last check is what ties the
diamond's flavour to d.

The pairs include the three 8-dimensional ladder models of the benchmark.
"""

import importlib.util
import itertools
from pathlib import Path

import pytest

from akh.forms import betti, build
from akh.harmonic import WHICH_CHOICES, _holomorphic_vectors
from akh.model import CATALOG_NAMES, catalog, validate
from akh.operators import _harmonic_vectors, verify_identities

MAKE_LADDER = Path(__file__).resolve().parents[1] / "bench" / "models" / "make_ladder.py"
_SPEC = importlib.util.spec_from_file_location("bench_make_ladder", MAKE_LADDER)
make_ladder = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(make_ladder)

PAIRS = [(a, b) for a, b in itertools.combinations_with_replacement(CATALOG_NAMES, 2)
         if catalog(a).dim + catalog(b).dim <= 8]
AK_PAIRS = [(a, b) for a, b in PAIRS
            if validate(catalog(a)).almost_kahler and validate(catalog(b)).almost_kahler]


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _convolve_blocks(a, b):
    out = {}
    for (p1, q1), x in a.items():
        for (p2, q2), y in b.items():
            out[(p1 + p2, q1 + q2)] = out.get((p1 + p2, q1 + q2), 0) + x * y
    return out


def _harmonic_dims(alg, which):
    return {pq: len(_harmonic_vectors(alg, which, pq)) for pq in alg.block_order}


def _holomorphic_dims(alg):
    return tuple(len(_holomorphic_vectors(alg, p)) for p in range(alg.m + 1))


def test_pairs_cover_the_ladder():
    assert len(PAIRS) == 17
    assert {("kodaira_thurston", "kodaira_thurston"), ("h5_J", "torus2"),
            ("torus4", "torus4")} <= set(PAIRS)


@pytest.mark.parametrize("first,second", PAIRS, ids=lambda name: name)
def test_product_dimensions_are_convolutions(first, second):
    alg1, alg2 = build(catalog(first)), build(catalog(second))
    prod = build(make_ladder.product(f"{first}_x_{second}", catalog(first), catalog(second)))
    for which in WHICH_CHOICES:
        assert _harmonic_dims(prod, which) == _convolve_blocks(
            _harmonic_dims(alg1, which), _harmonic_dims(alg2, which)), which
    assert _holomorphic_dims(prod) == _convolve(_holomorphic_dims(alg1),
                                                _holomorphic_dims(alg2))
    assert betti(prod.model) == _convolve(betti(alg1.model), betti(alg2.model))
    assert prod.validation.almost_kahler == (alg1.validation.almost_kahler
                                             and alg2.validation.almost_kahler)
    if prod.validation.almost_kahler:
        assert (_harmonic_dims(prod, "dbar+mu") == _harmonic_dims(prod, "partial+mu_bar")
                == _harmonic_dims(prod, "d"))


def test_almost_kahler_pairs():
    assert len(AK_PAIRS) == 11


@pytest.mark.parametrize("first,second", AK_PAIRS, ids=lambda name: name)
def test_almost_kahler_products_satisfy_the_ledger(first, second):
    product = make_ladder.product(f"{first}_x_{second}", catalog(first), catalog(second))
    assert build(product).validation.almost_kahler
    ledger = verify_identities(product)
    assert ledger.all_hold, [entry.id for entry in ledger.failures()]
