import ast
import inspect
import json
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
from akh.exact import AkhError, ExactError, ExactMatrix, GaussScalar
from akh.forms import AlgebraError, BigradedAlgebra, BlockOperator, Form, build
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
    load_model,
    model_from_json,
    model_to_json,
    save_model,
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


# one value an entry point accepts for each parameter name akh uses; the
# walk fails on a name missing here, so a new parameter must be added
def _valid_arguments(model, path):
    alg = build(model)
    return {
        "model": model, "name": model.name, "path": path, "data": {}, "dim": model.dim,
        "brackets": model.brackets, "J": model.J, "coframe": None,
        "algebra": alg, "form": alg.fundamental_form, "terms": {},
        "op": alg.d, "a": alg.d, "b": alg.d, "matrix": alg.d.matrix,
        "mat": ExactMatrix([[1, 0], [0, 1]]), "vec": {0: 1}, "start": 0,
        "pq": (1, 0), "shift": (0, 1), "p": 0, "q": 0, "which": "d",
        "k": 1, "k_src": 1, "k_tgt": 2, "g": 0, "idx": 0, "mono": (0, 2), "c": 2,
    }


NOT_ARGUMENTS = (None, 5, "x", [1], 1.5, True, object(), {"a": 1}, (), -1, 10**6)


def _public_surface(alg) -> list:
    """Every function in ``akh.__all__``, the constructors of the model and
    the three operand classes, and every public method of an algebra, a
    form, an operator, an ``ExactMatrix`` and a ``GaussScalar``."""
    surface = [getattr(akh, name) for name in akh.__all__
               if inspect.isfunction(getattr(akh, name))]
    surface += [LieModel, BigradedAlgebra, Form, BlockOperator]
    for owner in (alg, alg.fundamental_form, alg.d, alg.d.matrix, GaussScalar(1, 2)):
        surface += [method for name in dir(owner) if not name.startswith("_")
                    and inspect.isroutine(method := getattr(owner, name))]
    return surface


HOT_ACCESSORS = {"ExactMatrix.row_items", "ExactMatrix.submatrix"}


def _walk(entry_points, valid, not_arguments) -> list:
    """Call each entry point once per parameter and value in
    ``not_arguments``, that value in that parameter and ``valid[name]`` in
    every other (``other`` is the instance the method belongs to); return
    the (entry point, parameter) pairs walked.  Each call must return or
    raise one AkhError line of at most 200 characters."""
    walked = []
    for fn in entry_points:
        params = inspect.signature(fn).parameters
        unknown = sorted(params.keys() - valid.keys() - {"other"})
        assert not unknown, f"{fn.__qualname__}: no valid value for {unknown}"
        for param in params:
            walked.append((fn.__qualname__, param))
            for bad in not_arguments:
                args = {name: bad if name == param else fn.__self__ if name == "other"
                        else valid[name] for name in params}
                try:
                    fn(**args)
                except AkhError as exc:
                    message = str(exc)
                    assert "\n" not in message and len(message) <= 200, \
                        (fn.__qualname__, param, message[:300])
                except OSError:  # see the walk's test for this one exception
                    assert (fn.__name__, param) == ("load_model", "path"), fn.__qualname__
    return walked


def test_every_public_entry_point_returns_or_refuses_in_one_line(tmp_path, monkeypatch):
    """The walk of the whole public surface, with every value of
    NOT_ARGUMENTS and a plain tuple equal to a model that build has cached,
    so that the cache cannot answer for a non-model.

    Excluded: ``ExactMatrix.row_items`` and ``submatrix`` (HOT_ACCESSORS).
    Every operator loop runs them per row or per block, with ints and ranges
    akh computes through the gated ``block_range`` and ``degree_range``, so
    a check there would be paid in every loop; Python's own IndexError,
    TypeError or AttributeError is their answer to a bad index.

    Allowed besides an AkhError: the OSError of ``open()`` from
    ``load_model`` of a str, bytes or os.PathLike that names no file that
    opens ("x" here).  The path is well formed and the file system answers
    for it, errno and file name intact; the CLI reports an OSError as it
    does an AkhError, as one ``error:`` line with exit code 1.  A path of
    any other type is a ModelError.
    """
    monkeypatch.chdir(tmp_path)  # save_model writes "x" to the working directory
    model, path = catalog("kodaira_thurston"), tmp_path / "m.json"
    save_model(model, path)
    alg = build(model)
    surface = [fn for fn in _public_surface(alg) if fn.__qualname__ not in HOT_ACCESSORS]
    assert len(surface) == len(_public_surface(alg)) - len(HOT_ACCESSORS)
    walked = _walk(surface, _valid_arguments(model, path), NOT_ARGUMENTS + (tuple(model),))
    assert {("build", "model"), ("catalog", "name"), ("load_model", "path"),
            ("BlockOperator.block", "shift"), ("Form.coefficient", "mono"),
            ("Form.scale", "c"), ("ExactMatrix.apply", "vec"), ("Form", "terms"),
            ("BigradedAlgebra.basis_form", "idx"), ("Form.inner", "other")} <= set(walked)
    assert load_model(path) == model  # no refused save_model touched the file


@pytest.mark.parametrize("not_a_model", (None, "x", ("a", 4, (), ()),
                                         tuple(catalog("kodaira_thurston"))))
def test_every_entry_point_taking_a_model_refuses_anything_else(not_a_model, tmp_path):
    # stricter than the walk, which lets a call return: a non-model in the
    # model parameter must be refused; the other parameters get values a
    # model accepts, and the model equal to the plain tuple is built first,
    # so build's cache cannot answer for it
    values = _valid_arguments(catalog("kodaira_thurston"), tmp_path / "m.json")
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


@pytest.mark.parametrize("not_an_operand", (None, 5, "x"))
def test_every_entry_point_taking_an_algebra_form_or_operator_refuses_anything_else(
        not_an_operand, tmp_path):
    # the twin of the model test, over every akh function and every public
    # method of an algebra, a form and an operator: one parameter naming an
    # algebra, a form or an operator at a time gets ``not_an_operand`` and
    # must be refused, the others get values they accept
    model = catalog("kodaira_thurston")
    alg = build(model)
    values = _valid_arguments(model, tmp_path / "m.json")
    entry_points = [getattr(akh, name) for name in akh.__all__
                    if inspect.isfunction(getattr(akh, name))]
    for owner in (alg, alg.fundamental_form, alg.d):
        entry_points += [method for name in dir(owner) if not name.startswith("_")
                         and inspect.ismethod(method := getattr(owner, name))]
    walked = []
    for fn in entry_points:
        params = inspect.signature(fn).parameters
        for operand in params.keys() & {"algebra", "form", "op", "a", "b", "other"}:
            walked.append(fn.__name__)
            args = {name: not_an_operand if name == operand else fn.__self__
                    if name == "other" else values[name] for name in params}
            with pytest.raises(AkhError) as info:
                fn(**args)
            message = str(info.value)
            assert "\n" not in message and len(message) <= 200, (fn.__name__, message[:300])
    assert {"form_from_coordinates", "form_from_json", "form_to_json", "star_conjugate",
            "laplacian", "graded_commutator", "coordinates", "format_form", "zero", "apply",
            "compose", "wedge"} <= set(walked)


def test_the_walk_fails_on_a_parameter_it_has_no_value_for():
    def entry_point(model, unheard_of):
        return model

    with pytest.raises(AssertionError, match="unheard_of"):
        _walk([entry_point], {"model": None}, NOT_ARGUMENTS)


def test_every_error_is_an_akh_error_and_a_value_error():
    assert akh.AkhError is AkhError
    for error in (ExactError, ModelError, AlgebraError, HarmonicError,
                  CliInputError):
        assert issubclass(error, AkhError) and issubclass(error, ValueError)


# ---------------------------------------------------------------------------
# the scripts


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


def test_cross_python_script_matches_every_pin_on_this_interpreter():
    # the script runs the pinned requests of bench/expected.json under each
    # interpreter it is given; run here on this one, so it cannot go stale
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cross_python.py"), sys.executable],
        capture_output=True, text=True, timeout=600)
    pins = len(json.loads((ROOT / "bench" / "expected.json").read_text(encoding="utf-8")))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith(f": {pins} of {pins} match\n"), proc.stdout


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
