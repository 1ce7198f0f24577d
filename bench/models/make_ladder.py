"""Write the 8-dimensional ladder models of the benchmark as model JSON.

Each ladder model is the direct product of two catalog models: the Lie
bracket is the block sum of the factors' brackets (the second factor's
frame indices shifted past the first's) and J is block diagonal.  A product
of nilpotent algebras is nilpotent and a product of orthogonal almost
complex structures is orthogonal, so every model passes ``akh validate``
with structure_ok and nilpotent true.

The model JSON format does not carry a pinned coframe, so ``h5_J_x_T2``
uses the coframe the algebra derives from J, not the normalization pinned
on the catalog model ``h5_J``.  Betti numbers do not depend on it.

Run from the repository root to regenerate the files next to this script:

    PYTHONPATH=src python3 bench/models/make_ladder.py
"""

import os
import sys

from akh.model import LieModel, catalog, save_model

HERE = os.path.dirname(os.path.abspath(__file__))

# ladder model name -> its two catalog factors
LADDER = {
    "kt_x_kt": ("kodaira_thurston", "kodaira_thurston"),
    "h5_J_x_T2": ("h5_J", "torus2"),
    "torus8": ("torus4", "torus4"),
}


def product(name: str, first: LieModel, second: LieModel) -> LieModel:
    """Direct product with block-diagonal J; the first factor's coframe
    override is dropped because the JSON format cannot carry it."""
    shift = first.dim
    dim = first.dim + second.dim
    brackets = tuple(first.brackets) + tuple(
        (i + shift, j + shift, k + shift, c) for i, j, k, c in second.brackets)
    J = [[0] * dim for _ in range(dim)]
    for r in range(first.dim):
        for c in range(first.dim):
            J[r][c] = first.J[r][c]
    for r in range(second.dim):
        for c in range(second.dim):
            J[r + shift][c + shift] = second.J[r][c]
    return LieModel(name=name, dim=dim, brackets=brackets, J=tuple(map(tuple, J)))


def ladder_models() -> dict:
    return {name: product(name, catalog(a), catalog(b))
            for name, (a, b) in LADDER.items()}


def main() -> int:
    for name, model in ladder_models().items():
        path = os.path.join(HERE, f"{name}.json")
        save_model(model, path)
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
