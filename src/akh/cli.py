"""Command line front end for the invariant bigraded calculus.

Subcommands
-----------
validate      structure flags for a model (Jacobi, J^2 = -1, compatibility)
identities    run the operator identity ledger
diamond       harmonic dimension diamond with Betti numbers
betti         invariant Betti numbers only
lefschetz     hard Lefschetz maps on harmonic spaces
obstructions  obstructions to a compatible symplectic structure
report        all of the above in one document

Exactly one model source is required: ``--catalog NAME`` for a built-in
model or ``--model PATH`` for a model JSON file.

Exit codes: 0 success; 1 malformed input or an unusable request; 2 a
mathematical obstruction fired, or an identity failed on a model whose
structure flags claim it is almost Kahler (so the tool works as a
checker in scripts).

Each command loads only the layers it runs: ``validate`` needs
:mod:`akh.exact` and :mod:`akh.model`, ``betti`` adds :mod:`akh.forms`,
``identities`` adds :mod:`akh.operators`, and the other commands load
:mod:`akh.harmonic` as well.  ``forms``, ``operators`` and ``harmonic`` are
bound here as lazy modules: they sit in ``sys.modules`` from the start, and
the first attribute read from one executes it.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from typing import NamedTuple, Optional, Sequence

from .exact import AkhError
from .model import (
    CATALOG_NAMES,
    LieModel,
    catalog,
    load_model,
    validate,
)


def _lazy(name: str):
    """The submodule ``akh.<name>``, registered now and executed on its first
    attribute access (the LazyLoader recipe of the importlib docs); a module
    already in ``sys.modules`` is returned as it is."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


forms = _lazy("forms")
operators = _lazy("operators")
harmonic = _lazy("harmonic")

COMMANDS = ("validate", "identities", "diamond", "betti", "lefschetz",
            "obstructions", "report")
FORMATS = ("text", "json")


class CliInputError(AkhError):
    """Bad command line or model input; maps to exit code 1."""


class _RunConfigFields(NamedTuple):
    command: str
    catalog: Optional[str] = None
    model_path: Optional[str] = None
    format: str = "text"
    verbosity: int = 0


class RunConfig(_RunConfigFields):
    """One resolved CLI invocation."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.command not in COMMANDS:
            raise CliInputError(f"unknown command {self.command!r}")
        if self.format not in FORMATS:
            raise CliInputError(f"unknown format {self.format!r}")
        if (self.catalog is None) == (self.model_path is None):
            raise CliInputError(
                "exactly one of --catalog and --model is required")
        return self


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)


def _flag(value) -> str:
    if value is None:
        return "n/a"
    return "true" if value else "false"


def render_diamond(diamond: harmonic.Diamond, format: str = "text") -> str:
    """Staggered centered triangle in text; dense grid in json."""
    if format == "json":
        return _json_text(diamond.to_json())
    rows = diamond.rows()
    cell = max(len(str(v)) for row in rows for v in row)
    widest = max(len(row) for row in rows)
    lines = []
    for row in rows:
        pad = " " * (((cell + 1) * (widest - len(row))) // 2)
        lines.append(pad + " ".join(str(v).rjust(cell) for v in row))
    return "\n".join(lines)


def _load_model(config: RunConfig) -> LieModel:
    if config.catalog is not None:
        return catalog(config.catalog)
    return load_model(config.model_path)


# -- per-command payloads and text renderings ------------------------------------


def _validate_text(report) -> str:
    lines = [f"model: {report.name} (dim {report.dim})"]
    for key in ("jacobi_ok", "acs_ok", "compatible_ok", "integrable",
                "almost_kahler", "nilpotent"):
        lines.append(f"{key}: {_flag(getattr(report, key))}")
    lines.append(f"structure_ok: {_flag(report.structure_ok)}")
    if report.jacobi_witness is not None:
        lines.append(f"jacobi fails on generators {report.jacobi_witness}")
    return "\n".join(lines)


def _identities_text(model: LieModel, ledger) -> str:
    alg = forms.build(model)
    lines = [operators.ledger_to_text(ledger)]
    for entry in ledger.failures():
        lines.append(f"  witness for {entry.id}: "
                     f"{alg.format_form(entry.witness)}")
    return "\n".join(lines)


def _diamond_text(model: LieModel, diamond: harmonic.Diamond) -> str:
    lines = [f"model: {model.name} (invariant harmonic dimensions)"]
    lines.append(render_diamond(diamond, "text"))
    lines.append("betti: " + " ".join(str(b) for b in diamond.betti))
    lines.append(f"duality_ok: {_flag(diamond.duality_ok)}  "
                 f"bounds_ok: {_flag(diamond.bounds_ok)}  "
                 f"lefschetz_ok: {_flag(diamond.lefschetz_ok)}")
    return "\n".join(lines)


def _betti_payload(model: LieModel) -> dict:
    return {"model": model.name, "betti": list(forms.betti(model))}


def _betti_text(model: LieModel) -> str:
    return (f"model: {model.name}\n"
            "betti: " + " ".join(str(b) for b in forms.betti(model)))


def _lefschetz_text(report) -> str:
    lines = [f"model: {report.model_name} (hard Lefschetz on harmonics)"]
    for entry in report.maps:
        target = (entry.p + entry.power, entry.q + entry.power)
        lines.append(
            f"L^{entry.power}: ({entry.p},{entry.q}) -> "
            f"({target[0]},{target[1]})  rank {entry.rank} "
            f"({entry.source_dim} -> {entry.target_dim})  "
            f"iso: {_flag(entry.iso)}")
    lines.append(f"all_iso: {_flag(report.all_iso)}  "
                 f"monotone_ok: {_flag(report.monotone_ok)}")
    return "\n".join(lines)


def _obstructions_text(model: LieModel, report) -> str:
    alg = forms.build(model)
    hol1 = report.hol_dims[1]
    dims = " ".join(str(d) for d in report.hol_dims)
    lines = [f"model: {report.model_name} (invariant obstruction report)"]
    lines.append(f"holomorphic form dims (p = 0..m): {dims}")
    relation = "<=" if report.symplectic_bound_ok else ">"
    verdictw = "ok" if report.symplectic_bound_ok else "violated"
    lines.append(
        f"symplectic bound: 2*{hol1} = {2 * hol1} {relation} "
        f"b1 = {report.b1} ({verdictw})")
    lines.append(
        f"free_rank_hypothesis: {_flag(report.free_rank_hypothesis)}")
    if report.laplacian_witness is None:
        lines.append("laplacian symmetry: symmetric")
    else:
        lines.append("laplacian symmetry witness: "
                     f"{alg.format_form(report.laplacian_witness)}")
    ak = report.ak_nonexistence
    lines.append(f"almost Kahler nonexistence: {ak.verdict}")
    lines.append(f"  {ak.detail}")
    lines.append(f"integrable: {_flag(report.integrable)}")
    lines.append(f"obstruction fires: {_flag(report.fires)}")
    return "\n".join(lines)


# -- command dispatch -------------------------------------------------------------


def _run_command(config: RunConfig, model: LieModel):
    """Return (exit_code, output_text) for one subcommand."""
    fmt = config.format
    if config.command == "validate":
        report = validate(model)
        code = 0 if report.structure_ok else 1
        text = _json_text(report.to_json()) if fmt == "json" \
            else _validate_text(report)
        return code, text

    if config.command == "identities":
        structure = forms.build(model).validation
        ledger = operators.verify_identities(model)
        code = 2 if (structure.almost_kahler and not ledger.all_hold) else 0
        text = _json_text(ledger.to_json()) if fmt == "json" \
            else _identities_text(model, ledger)
        return code, text

    if config.command == "diamond":
        diamond = harmonic.ell_diamond(model)
        text = render_diamond(diamond, "json") if fmt == "json" \
            else _diamond_text(model, diamond)
        return 0, text

    if config.command == "betti":
        text = _json_text(_betti_payload(model)) if fmt == "json" \
            else _betti_text(model)
        return 0, text

    if config.command == "lefschetz":
        try:
            report = harmonic.hard_lefschetz(model)
        except harmonic.HarmonicError as exc:
            raise CliInputError(str(exc)) from exc
        text = _json_text(report.to_json()) if fmt == "json" \
            else _lefschetz_text(report)
        return 0, text

    if config.command == "obstructions":
        report = harmonic.obstruction_report(model)
        code = 2 if report.fires else 0
        text = _json_text(report.to_json()) if fmt == "json" \
            else _obstructions_text(model, report)
        return code, text

    # report: everything, one document
    structure = forms.build(model).validation
    ledger = operators.verify_identities(model)
    diamond = harmonic.ell_diamond(model)
    obstructions = harmonic.obstruction_report(model)
    lefschetz = None
    if structure.almost_kahler:
        lefschetz = harmonic.hard_lefschetz(model)
    index = None
    if structure.almost_kahler and model.dim == 4:
        index = harmonic.hodge_index(model)
    code = 0
    if obstructions.fires or (structure.almost_kahler and not ledger.all_hold):
        code = 2
    if fmt == "json":
        payload = {
            "model": model.name,
            "structure": structure.to_json(),
            "identities": ledger.to_json(),
            "diamond": diamond.to_json(),
            "betti": list(diamond.betti),
            "lefschetz": None if lefschetz is None else lefschetz.to_json(),
            "hodge_index": None if index is None else index.to_json(),
            "obstructions": obstructions.to_json(),
        }
        return code, _json_text(payload)
    sections = [
        _validate_text(structure),
        _identities_text(model, ledger),
        _diamond_text(model, diamond),
    ]
    if lefschetz is not None:
        sections.append(_lefschetz_text(lefschetz))
    if index is not None:
        sections.append(
            f"hodge index: b2+ = {index.b2_plus}, b2- = {index.b2_minus}, "
            f"ell(1,1) = {index.ell11}, relation_ok: {_flag(index.relation_ok)}")
    sections.append(_obstructions_text(model, obstructions))
    rule = "-" * 60
    return code, ("\n" + rule + "\n").join(sections)


def run(config: RunConfig) -> int:
    """Execute one invocation, writing the report to stdout."""
    model = _load_model(config)
    if config.verbosity >= 1:
        print(f"loaded model {model.name} (dim {model.dim})", file=sys.stderr)
    code, text = _run_command(config, model)
    print(text)
    return code


# -- argument parsing -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; remap to input error."""

    def error(self, message):
        raise CliInputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="akh",
        description="Exact bigraded calculus on almost Hermitian Lie models.")
    parser.add_argument("command", choices=COMMANDS,
                        help="what to compute")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--catalog", metavar="NAME",
                        help="built-in model: " + ", ".join(CATALOG_NAMES))
    source.add_argument("--model", metavar="PATH", dest="model_path",
                        help="path to a model JSON file")
    parser.add_argument("--format", choices=FORMATS, default="text",
                        help="output format (default: text)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        dest="verbosity", help="progress notes on stderr")
    return parser


def parse_args(argv: Sequence[str]) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    return RunConfig(command=ns.command, catalog=ns.catalog,
                     model_path=ns.model_path, format=ns.format,
                     verbosity=ns.verbosity)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_args(argv)
        return run(config)
    except (AkhError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
