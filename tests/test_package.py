import ast
import inspect
import os
import re
import subprocess
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import akh
from akh.cli import CliInputError
from akh.exact import AkhError, ExactError, GaussScalar
from akh.forms import AlgebraError, build
from akh.harmonic import (
    HarmonicError,
    ell_diamond,
    hard_lefschetz,
    hodge_index,
    hodge_riemann_check,
    holomorphic_forms,
    obstruction_report,
    primitive_decomposition,
)
from akh.model import (
    CATALOG_NAMES,
    LieModel,
    ModelError,
    catalog,
    model_from_json,
    model_to_json,
    validate,
)
from akh.operators import verify_identities

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# the lazy package namespace


def test_every_exported_name_is_its_submodules_object():
    assert akh.__all__ == sorted(set(akh.__all__))
    for name in akh.__all__:
        module = import_module(f"akh.{akh._EXPORTS[name]}")
        value = getattr(akh, name)
        assert value is getattr(module, name), name
        if callable(value):
            assert value.__module__ == module.__name__, name


def test_namespace_dir_star_import_and_unknown_names():
    assert set(akh.__all__) <= set(dir(akh))
    with pytest.raises(AttributeError):
        akh.no_such_name
    assert not hasattr(akh, "no_such_name")
    namespace = {}
    exec("from akh import *", namespace)
    assert set(akh.__all__) <= set(namespace)
    assert namespace["build"] is build
    assert akh.operators is sys.modules["akh.operators"]


def _resolve(dotted):
    """The object ``akh.x.y`` names: each part an attribute of the one
    before, or else its submodule."""
    obj = import_module("akh")
    for part in dotted.split(".")[1:]:
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = import_module(f"{obj.__name__}.{part}")
    return obj


def test_readme_names_only_what_exists():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    alg = build(catalog("kodaira_thurston"))
    alg_names = set(re.findall(r"\balg\.(\w+)", text))
    akh_names = set(re.findall(r"\bakh(?:\.\w+)+", text))
    assert alg_names and akh_names
    assert sorted(name for name in alg_names if not hasattr(alg, name)) == []
    for name in sorted(akh_names):
        _resolve(name)


# ---------------------------------------------------------------------------
# immutable value records


def _records():
    """One instance of every output record, from small catalog models."""
    kt, fil = catalog("kodaira_thurston"), catalog("filiform4_J")
    ledger = verify_identities(fil)
    lefschetz = hard_lefschetz(kt)
    obstructions = obstruction_report(fil)
    assert ledger.failures() and obstructions.laplacian_witness is not None
    return (validate(kt), ledger, ledger.failures()[0], ell_diamond(kt),
            lefschetz, lefschetz.maps[0], primitive_decomposition(kt, 1, 1),
            hodge_riemann_check(kt, 0, 0), hodge_index(kt),
            holomorphic_forms(fil, 1), obstructions, obstructions.ak_nonexistence,
            kt)


def test_records_refuse_assignment_and_compare_by_value():
    records = _records()
    assert len({type(r) for r in records}) == len(records)
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = 1
        copy = type(record)(*record)
        assert copy is not record
        assert copy == record and hash(copy) == hash(record)


def test_equal_models_share_one_cache_entry():
    model = catalog("kodaira_thurston")
    twin = model_from_json(model_to_json(model))
    assert twin is not model and twin == model and hash(twin) == hash(model)
    assert build(twin) is build(model)
    assert model._replace(name="other") != model


def test_lie_model_normalizes_and_checks_at_construction():
    model = LieModel("swapped", 2, [(1, 0, 0, 1), (0, 0, 1, 0)], [[0, -1], [1, 0]])
    assert model.brackets == ((0, 1, 0, Fraction(-1)),)
    assert all(type(x) is GaussScalar and x.is_real() for row in model.J for x in row)
    assert model._replace(J=[[0, 1], [-1, 0]]).J == ((0, 1), (-1, 0))
    with pytest.raises(ModelError):
        LieModel("odd", 3, (), ((0,) * 3,) * 3)
    with pytest.raises(ModelError):
        LieModel("ragged", 2, (), ((0, -1), (1,)))
    with pytest.raises(ModelError):
        model._replace(dim=4)


@pytest.mark.parametrize("not_a_model", (None, "x", ("a", 4, (), ()),
                                         tuple(catalog("kodaira_thurston"))))
def test_every_entry_point_taking_a_model_refuses_anything_else(not_a_model, tmp_path):
    # the other parameters are filled by name with values a model accepts,
    # so the refusal can only come from the model; the model equal to the
    # plain tuple is built first, so build's cache cannot answer for it
    build(catalog("kodaira_thurston"))
    values = {"p": 0, "q": 0, "which": "d", "path": tmp_path / "m.json"}
    walked = []
    for name in akh.__all__:
        fn = getattr(akh, name)
        if inspect.isclass(fn) or not callable(fn):
            continue
        first, *rest = inspect.signature(fn).parameters
        if first != "model":
            continue
        walked.append(name)
        with pytest.raises(AkhError) as info:
            fn(not_a_model, *(values[p] for p in rest))
        message = str(info.value)
        assert "\n" not in message and len(message) <= 200, (name, message[:300])
    assert {"build", "validate", "model_to_json", "save_model", "hodge_index"} <= set(walked)
    assert not (tmp_path / "m.json").exists()


def test_every_error_is_an_akh_error_and_a_value_error():
    assert akh.AkhError is AkhError
    for error in (ExactError, ModelError, AlgebraError, HarmonicError,
                  CliInputError):
        assert issubclass(error, AkhError) and issubclass(error, ValueError)


# ---------------------------------------------------------------------------
# the public-API walk-through script


def test_worked_examples_script_runs_clean():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "worked_examples.py")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    for name in CATALOG_NAMES:
        assert f"\n{name}\n" in proc.stdout
    assert proc.stdout.splitlines()[-1].startswith("total ")


# ---------------------------------------------------------------------------
# the source tree


def _imported_names(tree):
    """(bound name, line) for every import in the module, ``__future__``
    imports excepted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _read_names(tree) -> set:
    """The names the module loads, and those its ``__all__`` re-exports."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return read


def test_src_has_no_unused_imports():
    unused = []
    for path in sorted((ROOT / "src" / "akh").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = _read_names(tree)
        unused += [f"{path.name}:{line}: {name}" for name, line in _imported_names(tree)
                   if name not in read]
    assert unused == []


def test_src_has_no_unused_private_helpers():
    # a module-level _name function or class, a _name method of a class, or
    # a self._name attribute that src/ assigns is dead when no name, loaded
    # attribute or import anywhere in src/ refers to it; a string constant
    # counts too, for getattr and object.__setattr__
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "akh").glob("*.py"))}
    referenced, members = set(), []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                referenced.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                referenced |= {alias.name for alias in node.names}
            if isinstance(node, ast.ClassDef):
                members += [(name, item.lineno, item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)]
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self"):
                members.append((name, node.lineno, node.attr))
    members += [(name, node.lineno, node.name) for name, tree in trees.items()
                for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    private = [(name, line, member) for name, line, member in members
               if member.startswith("_") and not member.startswith("__")]
    assert private
    assert [f"{name}:{line}: {member}" for name, line, member in private
            if member not in referenced] == []
