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

Every command computes one report and prints its ``to_text()`` or, with
``--format json``, its ``to_json()``.  ``report`` is the other commands
composed: one ordered list of (key, report) sections renders both formats,
and its exit code is the largest of the sections' codes.

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
    StructureReport,
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

FORMATS = ("text", "json")


class CliInputError(AkhError):
    """A bad command line; maps to exit code 1."""


# -- the reports the commands print ------------------------------------------------


class _BettiReport(NamedTuple):
    model_name: str
    betti: tuple

    def to_json(self) -> dict:
        return {"model": self.model_name, "betti": list(self.betti)}

    def to_text(self) -> str:
        return (f"model: {self.model_name}\n"
                "betti: " + " ".join(str(b) for b in self.betti))


class _FullReport(NamedTuple):
    """The reports of the other commands as ordered (key, report) sections;
    a section whose report is None reads null in JSON and is left out of
    the text."""

    model_name: str
    betti: tuple
    sections: tuple

    def to_json(self) -> dict:
        payload = {"model": self.model_name, "betti": list(self.betti)}
        for key, report in self.sections:
            payload[key] = None if report is None else report.to_json()
        return payload

    def to_text(self) -> str:
        rule = "\n" + "-" * 60 + "\n"
        return rule.join(report.to_text() for _, report in self.sections
                         if report is not None)


# -- commands: each returns (exit_code, report) ------------------------------------


def _structure(report: StructureReport):
    return (0 if report.structure_ok else 1), report


def _identities(model: LieModel):
    structure = forms.build(model).validation
    ledger = operators.verify_identities(model)
    return (2 if structure.almost_kahler and not ledger.all_hold else 0), ledger


def _obstructions(model: LieModel):
    report = harmonic.obstruction_report(model)
    return (2 if report.fires else 0), report


def _report(model: LieModel):
    structure = forms.build(model).validation
    closed = structure.almost_kahler
    diamond = harmonic.ell_diamond(model)
    absent = (0, None)
    scored = (
        ("structure", _structure(structure)),
        ("identities", _identities(model)),
        ("diamond", (0, diamond)),
        ("lefschetz", (0, harmonic.hard_lefschetz(model)) if closed else absent),
        ("hodge_index", (0, harmonic.hodge_index(model))
         if closed and model.dim == 4 else absent),
        ("obstructions", _obstructions(model)),
    )
    sections = tuple((key, report) for key, (_, report) in scored)
    return (max(code for _, (code, _) in scored),
            _FullReport(model.name, diamond.betti, sections))


_COMMANDS = {
    "validate": lambda model: _structure(validate(model)),
    "identities": _identities,
    "diamond": lambda model: (0, harmonic.ell_diamond(model)),
    "betti": lambda model: (0, _BettiReport(model.name, forms.betti(model))),
    "lefschetz": lambda model: (0, harmonic.hard_lefschetz(model)),
    "obstructions": _obstructions,
    "report": _report,
}
COMMANDS = tuple(_COMMANDS)


def run(args: argparse.Namespace) -> int:
    """Print the report of one invocation as :func:`parse_args` read it; return its exit code."""
    model = catalog(args.catalog) if args.catalog is not None else load_model(args.model_path)
    code, report = _COMMANDS[args.command](model)
    if args.format == "json":
        print(json.dumps(report.to_json(), sort_keys=True, indent=2, ensure_ascii=False))
    else:
        print(report.to_text())
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
    return parser


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """argparse's namespace of ``argv``: ``command``, ``catalog``,
    ``model_path`` and ``format``.  The parser is the one check of the
    command line: an unknown command or format, or anything but exactly
    one of ``--catalog`` and ``--model``, raises CliInputError."""
    return _build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run(parse_args(argv))
    except (AkhError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
