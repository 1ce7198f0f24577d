import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import akh
from akh.cli import (
    CliInputError,
    main,
    parse_args,
    run,
)
from akh.harmonic import ell_diamond
from akh.model import catalog, model_to_json, save_model


# ---------------------------------------------------------------------------
# configuration plumbing


def test_parse_args_round_trip():
    config = parse_args(["diamond", "--catalog", "torus4", "--format", "json"])
    assert vars(config) == {"command": "diamond", "catalog": "torus4",
                            "model_path": None, "format": "json"}
    config = parse_args(["report", "--model", "foo.json"])
    assert config.model_path == "foo.json"


def test_parse_args_rejects_bad_flags():
    for flag in ("--bogus", "-v", "--verbose"):
        with pytest.raises(CliInputError):
            parse_args(["diamond", "--catalog", "torus2", flag])
    for argv in (["diamond"],
                 ["diamond", "--catalog", "torus2", "--model", "x.json"],
                 ["not_a_command", "--catalog", "torus2"],
                 ["diamond", "--catalog", "torus2", "--format", "yaml"]):
        with pytest.raises(CliInputError):
            parse_args(argv)


# ---------------------------------------------------------------------------
# diamond rendering


def test_diamond_text_triangle():
    dia = ell_diamond(catalog("kodaira_thurston"))
    assert dia.to_text().splitlines() == [
        "model: kodaira_thurston (invariant harmonic dimensions)",
        "  1",
        " 1 1",
        "0 3 0",
        " 1 1",
        "  1",
        "betti: 1 3 4 3 1",
        "duality_ok: true  bounds_ok: true  lefschetz_ok: true",
    ]


def test_diamond_text_torus4_middle_row():
    dia = ell_diamond(catalog("torus4"))
    lines = dia.to_text().splitlines()
    assert lines[3].strip() == "1 4 1"


def test_diamond_json_grid():
    dia = ell_diamond(catalog("filiform4_Jprime"))
    data = dia.to_json()
    assert data["rows"][2] == [0, 2, 0]
    assert data["flags"]["lefschetz_ok"] is True


# ---------------------------------------------------------------------------
# exit codes


def test_validate_clean_model_exits_zero(capsys):
    assert main(["validate", "--catalog", "torus4"]) == 0
    out = capsys.readouterr().out
    assert "structure_ok: true" in out
    assert "jacobi_ok: true" in out


def test_identities_clean_exits_zero(capsys):
    assert main(["identities", "--catalog", "kodaira_thurston"]) == 0
    assert "all identities hold" in capsys.readouterr().out


def test_identities_on_nonclosed_model_exits_zero(capsys):
    # failures are findings, not errors, when the model never claimed
    # a closed fundamental form
    assert main(["identities", "--catalog", "h5_J"]) == 0
    out = capsys.readouterr().out
    assert "lap_cross" in out
    assert "FAIL" in out


def test_obstructions_exit_two_on_h5(capsys):
    assert main(["obstructions", "--catalog", "h5_J"]) == 2
    out = capsys.readouterr().out
    assert "2*3 = 6 > b1 = 4" in out
    assert "witness: a1" in out
    assert "obstruction fires: true" in out


def test_obstructions_exit_two_on_filiform(capsys):
    assert main(["obstructions", "--catalog", "filiform4_J"]) == 2
    out = capsys.readouterr().out
    assert "no invariant almost K" in out


def test_obstructions_clean_exits_zero(capsys):
    assert main(["obstructions", "--catalog", "kodaira_thurston"]) == 0
    out = capsys.readouterr().out
    assert "obstruction fires: false" in out


def test_report_exit_codes(capsys):
    assert main(["report", "--catalog", "kodaira_thurston"]) == 0
    assert main(["report", "--catalog", "h5_J"]) == 2
    assert main(["report", "--catalog", "filiform4_J"]) == 2
    capsys.readouterr()


def test_unknown_catalog_exits_one(capsys):
    assert main(["diamond", "--catalog", "nope"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "nope" in err


def test_bad_flags_exit_one(capsys):
    assert main(["diamond", "--bogus"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_missing_file_exits_one(capsys):
    assert main(["diamond", "--model", "/nonexistent/m.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_json_exits_one_with_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"format": 1,\n  "name": ', encoding="utf-8")
    assert main(["validate", "--model", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line" in err


def test_missing_field_exits_one_with_field_name(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text('{"format": 1, "name": "x", "dim": 4}', encoding="utf-8")
    assert main(["validate", "--model", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


J_ROWS = [["0", "0", "-1", "0"], ["0", "0", "0", "-1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]]


@pytest.mark.parametrize("change, says", [
    ({"J": 5}, None),
    ({"brackets": 5}, None),
    ({"J": [["0", "-1", "0", "0"], 7, ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]}, None),
    ({"brackets": ["[X1,X2] = -X3"]}, None),
    ({"brackets": [{"i": 1.7, "j": 2, "k": 3, "c": "-1"}]}, None),
    ({"brackets": [{"i": True, "j": 2, "k": 3, "c": "-1"}]}, None),
    ({"name": [[1]]}, None),
    ({"name": 7}, None),
    # exponent notation: Fraction("1e1000000") would build a million-digit int
    ({"J": J_ROWS[:2] + [["1e5", "0", "0", "0"]] + J_ROWS[3:]},
     "J entry at row 2, column 0: exponent notation"),
    ({"brackets": [{"i": 1, "j": 2, "k": 3, "c": "1e5"}]}, "exponent notation"),
    # a JSON float is refused whatever its repr: 1e-07 and 0.1 alike
    ({"brackets": [{"i": 1, "j": 2, "k": 3, "c": 1e-07}]}, "must be a JSON str or int"),
    ({"brackets": [{"i": 1, "j": 2, "k": 3, "c": True}]}, "must be a JSON str or int"),
    ({"J": J_ROWS[:2] + [[0.1, "0", "0", "0"]] + J_ROWS[3:]},
     "J entry at row 2, column 0 must be a JSON str or int, got 0.1"),
    # only the JSON integer 1, though true and 1.0 compare equal to it
    ({"format": True}, "unsupported format True"),
    ({"format": 1.0}, "unsupported format 1.0"),
], ids=["J_int", "brackets_int", "J_row_int", "bracket_string",
        "index_float", "index_bool", "name_list", "name_int", "J_exponent",
        "bracket_exponent", "bracket_float", "bracket_bool", "J_float",
        "format_bool", "format_float"])
def test_malformed_model_shape_exits_one_without_traceback(tmp_path, change, says):
    data = model_to_json(catalog("kodaira_thurston"))
    data.update(change)
    err = _assert_cli_refuses(tmp_path, data, "validate")
    assert says is None or says in err


@pytest.mark.parametrize("raw, says", [
    ('{"format": 1, "name": "café"}'.encode("latin-1"), None),
    (b"[" * 200000, None),
    # past the interpreter's limit on the digits of an int literal
    (b'{"format": 1, "dim": ' + b"1" * 5000 + b"}",
     f"an integer literal is longer than {sys.get_int_max_str_digits()} digits"),
], ids=["latin1", "nested_too_deeply", "huge_integer"])
def test_unreadable_model_file_exits_one_without_traceback(tmp_path, raw, says):
    err = _assert_cli_refuses(tmp_path, raw, "validate")
    assert says is None or says in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("coframe", [
    "1 i 0 0 0 0",
    [["0", "0", "0", "0", "1/2", "-1/2*i"]],
    [["0", "0", "0", "0", "1/2", "-1/2*q"], ["1", "i", "0", "0", "0", "0"],
     ["0", "0", "1", "-i", "0", "0"]],
    # well formed, but the first row is a -i eigenvector
    [["0", "0", "0", "0", "1/2", "1/2*i"], ["1", "i", "0", "0", "0", "0"],
     ["0", "0", "1", "-i", "0", "0"]],
    # +i eigenvectors, but row 2 is the old row 2 plus row 3
    [["0", "0", "0", "0", "1/2", "-1/2*i"], ["1", "i", "1", "-i", "0", "0"],
     ["0", "0", "1", "-i", "0", "0"]],
    # orthogonal +i eigenvectors, but row 2 is zero
    [["0", "0", "0", "0", "1/2", "-1/2*i"], ["0", "0", "0", "0", "0", "0"],
     ["0", "0", "1", "-i", "0", "0"]],
    [["0", "0", "0", "0", "1/2", "-1/2*i"], ["1e5", "i", "0", "0", "0", "0"],
     ["0", "0", "1", "-i", "0", "0"]],
], ids=["string", "one_row", "bad_scalar", "wrong_eigenvalue", "not_orthogonal",
        "zero_row", "exponent"])
def test_malformed_coframe_exits_one_without_traceback(tmp_path, coframe):
    # every computing layer reaches the model through one gate, so each
    # refuses the model with the same line
    data = model_to_json(catalog("h5_J"))
    data["coframe"] = coframe
    assert len({_assert_cli_refuses(tmp_path, data, command)
                for command in ("betti", "identities", "diamond", "report")}) == 1


def _python(code, *args):
    """Run ``python -c code args`` in a fresh interpreter on this akh."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(akh.__file__)))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))


HUGE = "1" * 5000
DIGIT_LIMIT = f"more than {sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize("source, where, literal, says", [
    ("h5_J", ("coframe", 1, 0), "1e5", "exponent notation"),
    ("h5_J", ("coframe", 1, 0), HUGE, DIGIT_LIMIT),
    ("kodaira_thurston", ("J", 0, 0), HUGE, DIGIT_LIMIT),
    ("kodaira_thurston", ("brackets", 0, "c"), HUGE, DIGIT_LIMIT),
    # a long malformed value is quoted by its head and its length
    ("kodaira_thurston", ("J", 0, 0), "1/" + "x" * 5000, "bad rational '1/xxx"),
    ("kodaira_thurston", ("dim",), "9" * 5000, "dim must be a JSON int, got '999"),
    ("kodaira_thurston", ("format",), "x" * 5000, "unsupported format 'xxx"),
    ("kodaira_thurston", ("brackets", 0, "k"), "9" * 5000,
     "bad bracket entry at index 0: {'i': 1"),
    ("kodaira_thurston", ("brackets", 0, "k"), 10 ** 4000,
     "bracket index out of range: (0, 1, 999"),
    ("kodaira_thurston", ("dim",), 10 ** 4000 + 1,
     "dimension must be even and positive, got 1000"),
    # the dimension is checked before the coframe's shape
    ("h5_J", ("dim",), 10 ** 4000 + 1, "dimension must be even and positive, got 1000"),
    # no model file: the literal is the --catalog name
    (None, None, "x" * 5000, "unknown catalog model 'xxx"),
], ids=["coframe_exponent", "coframe_huge", "J_huge", "bracket_huge",
        "J_long_malformed", "dim_long_string", "format_long_string", "bracket_long_string",
        "bracket_index_huge", "dim_huge", "dim_huge_with_coframe", "catalog_long_name"])
def test_refused_number_literal_names_its_reason(tmp_path, source, where, literal, says):
    # the reason survives every wrapper, and the literal is not echoed whole
    if source is None:
        err = _assert_refuses("validate", "--catalog", literal)
    else:
        data = model_to_json(catalog(source))
        *path, last = where
        target = data
        for key in path:
            target = target[key]
        target[last] = literal
        err = _assert_cli_refuses(tmp_path, data, "validate")
    line, = err.splitlines()
    assert says in line
    assert len(line) < 200


def _assert_cli_refuses(tmp_path, data, command):
    """``data`` is a JSON value, or the raw bytes of the model file.  Returns
    the error output."""
    path = tmp_path / "malformed.json"
    path.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode("utf-8"))
    return _assert_refuses(command, "--model", str(path))


def _assert_refuses(*args):
    """Run the CLI on args and check that it refuses them with exit 1 and an
    error line, no traceback.  Returns the error output."""
    proc = _python("import sys; from akh.cli import main; sys.exit(main())", *args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    return proc.stderr


def test_saved_pinned_coframe_reports_like_the_catalog(tmp_path, capsys):
    path = tmp_path / "h5.json"
    save_model(catalog("h5_J"), str(path))
    assert main(["identities", "--catalog", "h5_J"]) == 0
    from_catalog = capsys.readouterr().out
    assert "witness for weil_star: a2^a3" in from_catalog
    assert main(["identities", "--model", str(path)]) == 0
    assert capsys.readouterr().out == from_catalog


def test_lefschetz_on_nonclosed_model_exits_one(capsys):
    assert main(["lefschetz", "--catalog", "h5_J"]) == 1
    assert "almost Kahler" in capsys.readouterr().err


# aff(R) x aff(R), [X1, X2] = X2 and [X3, X4] = X4, is Kahler as given but not
# unimodular (tr ad X1 = 1), so it has no compact quotient; sol3 x R,
# [X1, X2] = X2 and [X1, X3] = -X3, is unimodular, almost Kahler and neither
# nilpotent nor integrable
AFF_X_AFF = {"format": 1, "name": "aff_x_aff", "dim": 4,
             "brackets": [{"i": 1, "j": 2, "k": 2, "c": "1"}, {"i": 3, "j": 4, "k": 4, "c": "1"}],
             "J": [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]}
SOL3_X_R = {"format": 1, "name": "sol3_x_R", "dim": 4,
            "brackets": [{"i": 1, "j": 2, "k": 2, "c": "1"}, {"i": 1, "j": 3, "k": 3, "c": "-1"}],
            "J": [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]}


def test_non_unimodular_model_validates_and_every_other_command_refuses(tmp_path, capsys):
    path = tmp_path / "aff_x_aff.json"
    path.write_text(json.dumps(AFF_X_AFF))
    assert main(["validate", "--model", str(path), "--format", "json"]) == 0
    flags = json.loads(capsys.readouterr().out)
    assert flags["structure_ok"] and flags["almost_kahler"] and not flags["nilpotent"]
    for command in sorted(set(akh.cli.COMMANDS) - {"validate"}):
        error = _assert_cli_refuses(tmp_path, AFF_X_AFF, command)
        assert error.count("\n") == 1 and "not unimodular: tr ad X1 = 1" in error, command


def test_unimodular_solvable_model_runs_every_command(tmp_path, capsys):
    path = tmp_path / "sol3_x_R.json"
    path.write_text(json.dumps(SOL3_X_R))
    out = {}
    for command in akh.cli.COMMANDS:
        assert main([command, "--model", str(path), "--format", "json"]) == 0, command
        out[command] = json.loads(capsys.readouterr().out)
    assert out["validate"]["almost_kahler"] and not out["validate"]["nilpotent"]
    assert out["betti"]["betti"] == [1, 2, 2, 2, 1]
    assert out["identities"]["all_hold"] is True
    assert all(value is True for value in out["diamond"]["flags"].values())
    assert len(out["diamond"]["flags"]) == 3
    assert out["obstructions"]["fires"] is False
    assert out["report"]["betti"] == [1, 2, 2, 2, 1]


# ---------------------------------------------------------------------------
# output content


def test_model_file_round_trip_through_cli(tmp_path, capsys):
    path = tmp_path / "kt.json"
    save_model(catalog("kodaira_thurston"), str(path))
    assert main(["diamond", "--model", str(path)]) == 0
    out = capsys.readouterr().out
    assert "0 3 0" in out
    assert "betti: 1 3 4 3 1" in out


def test_report_json_is_deterministic(capsys):
    assert main(["report", "--catalog", "kodaira_thurston",
                 "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["report", "--catalog", "kodaira_thurston",
                 "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["identities"]["all_hold"] is True
    assert payload["diamond"]["rows"][2] == [0, 3, 0]
    assert payload["betti"] == [1, 3, 4, 3, 1]
    assert payload["hodge_index"]["b2_plus"] == 2
    assert payload["hodge_index"]["b2_minus"] == 2
    assert payload["obstructions"]["fires"] is False
    assert payload["lefschetz"]["all_iso"] is True


def test_json_outputs_parse_for_all_commands(capsys):
    for command in ("validate", "identities", "diamond", "betti",
                    "lefschetz", "obstructions", "report"):
        assert main([command, "--catalog", "torus4",
                     "--format", "json"]) == 0, command
        json.loads(capsys.readouterr().out)


def test_report_text_sections(capsys):
    assert main(["report", "--catalog", "kodaira_thurston"]) == 0
    out = capsys.readouterr().out
    assert "identity ledger" in out
    assert "hodge index: b2+ = 2, b2- = 2" in out
    assert "hard Lefschetz" in out
    assert "obstruction fires: false" in out


def test_run_function_directly(capsys):
    config = parse_args(["betti", "--catalog", "torus6", "--format", "json"])
    assert run(config) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["betti"] == [1, 6, 15, 20, 15, 6, 1]


# ---------------------------------------------------------------------------
# start-up cost: what a cold process loads


# modules a start-up path of akh must not load: the standard library's
# rationals pull in decimal and numbers
_UNLOADED = ("fractions", "decimal", "numbers", "dataclasses")


def test_cli_import_does_not_load_dataclasses():
    proc = _python("import json, sys; before = set(sys.modules); import akh.cli; "
                   "print(json.dumps(sorted(set(sys.modules) - before)))")
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "akh.cli" in loaded and "dataclasses" not in loaded
    # every command, run in turn in one process, and loading a model file
    # through the namespace leave the unloaded modules unloaded
    proc = _python(
        "import contextlib, io, json, sys, akh.cli\n"
        "found = {}\n"
        "for command in akh.cli.COMMANDS:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        akh.cli.main([command, '--catalog', 'kodaira_thurston'])\n"
        "    found[command] = [m for m in sys.argv[1:] if m in sys.modules]\n"
        "print(json.dumps(found))", *_UNLOADED)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert len(found) == 7 and not any(found.values()), found
    kt_x_kt = Path(__file__).resolve().parents[1] / "bench" / "models" / "kt_x_kt.json"
    proc = _python("import json, sys, akh; akh.load_model(sys.argv[1]); "
                   "print(json.dumps([m for m in sys.argv[2:] if m in sys.modules]))",
                   str(kt_x_kt), *_UNLOADED)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_catalog_through_the_namespace_loads_no_algebra_layer():
    proc = _python("import json, sys, akh; akh.catalog('torus2'); "
                   "print(json.dumps([m for m in sys.modules if m.startswith('akh')]))")
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "akh.model" in loaded
    assert not {"akh.forms", "akh.harmonic", "akh.operators", "akh.cli"} & set(loaded)


_BASE_LAYERS = {"akh", "akh.cli", "akh.exact", "akh.model"}
_ALL_LAYERS = _BASE_LAYERS | {"akh.forms", "akh.operators", "akh.harmonic"}
_LAYERS_RUN = {
    "validate": _BASE_LAYERS,
    "betti": _BASE_LAYERS | {"akh.forms"},
    "identities": _BASE_LAYERS | {"akh.forms", "akh.operators"},
    "diamond": _ALL_LAYERS,
    "lefschetz": _ALL_LAYERS,
    "obstructions": _ALL_LAYERS,
    "report": _ALL_LAYERS,
}


@pytest.mark.parametrize("command", sorted(_LAYERS_RUN))
def test_each_command_executes_only_the_layers_it_runs(command):
    # a lazily bound module that has not run yet is not a plain ModuleType
    proc = _python(
        "import contextlib, io, json, sys, types, akh.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = akh.cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(n for n, m in sys.modules.items()\n"
        "    if n.split('.')[0] == 'akh' and type(m) is types.ModuleType)]))",
        command, "--catalog", "torus2", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    code, executed = json.loads(proc.stdout)
    assert code == 0
    assert set(executed) == _LAYERS_RUN[command]


def _traced_run(tmp_path, *argv) -> dict:
    """The trace bench/traced_akh.py writes for one ``akh`` request."""
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "trace.json"
    src = os.path.dirname(os.path.dirname(os.path.abspath(akh.__file__)))
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "traced_akh.py"), *argv],
        capture_output=True, text=True, timeout=60, cwd=root,
        env=dict(os.environ, PYTHONPATH=src, AKH_BENCH_TRACE_OUT=str(out)))
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text(encoding="utf-8"))


def _assert_trace_is_readable(trace, label):
    """No missing hook point, every span closed after it opened, every
    counter finite: bench/run.py prints a metric as null or non-finite
    JSON otherwise."""
    assert trace["missing"] == [], label
    for name, start, end, _ in trace["spans"]:
        assert end is not None and math.isfinite(start) and math.isfinite(end), (label, name)
        assert end >= start, (label, name)
    assert all(math.isfinite(value) for value in trace["counters"].values()), label


def test_bench_hooks_find_every_layer_of_the_lazy_cli(tmp_path):
    # bench/akh_hooks.py wraps functions through sys.modules after
    # `import akh.cli`; the lazily bound layers must still be reachable
    trace = _traced_run(tmp_path, "betti", "--catalog", "torus2", "--format", "json")
    _assert_trace_is_readable(trace, "torus2")
    assert {"forms.build", "harmonic.betti"} <= {span[0] for span in trace["spans"]}
    # every traced ladder8_betti request must feed the bases of the
    # benchmark's ratios forms.build_cache_hit_ratio and
    # exact.matmul_useful_ratio, which bench/run.py prints as null when they
    # are 0 over a pass
    for model in ("kt_x_kt", "h5_J_x_T2", "torus8"):
        trace = _traced_run(tmp_path, "betti", "--model", f"bench/models/{model}.json",
                            "--format", "json")
        _assert_trace_is_readable(trace, model)
        assert trace["build_cache"] is not None, model
        assert trace["build_cache"]["hits"] + trace["build_cache"]["misses"] >= 1, model
        assert trace["counters"]["matmul_calls"] >= 1, model


def test_bench_hooks_find_every_layer_of_a_catalog_report(tmp_path):
    # catalog_cli runs report on the catalog; its traced requests must reach
    # every layer report calls, and make the ParamPoly product that feeds
    # exact.parampoly_mul_calls
    trace = _traced_run(tmp_path, "report", "--catalog", "torus2", "--format", "json")
    _assert_trace_is_readable(trace, "torus2")
    assert {"operators.ledger", "operators.witness", "harmonic.diamond", "harmonic.lefschetz",
            "harmonic.obstructions"} <= {span[0] for span in trace["spans"]}
    assert trace["counters"]["parampoly_mul_calls"] >= 1
