"""Command-line interface.

Subcommands: ``classify`` an exchange triple, evaluate a design
``efficiency``, print the design catalog ``bounds`` table, run a full
``sweep`` from a JSON config, and print the ``table2`` boundary summary.

Exit status: 0 on success, 1 on validation errors (bad arguments or
physically inadmissible inputs), 2 on I/O errors.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from dataclasses import astuple, fields
from typing import Optional, Sequence

from .designs import (
    _FAR_LIMIT,
    _PAIRS,
    QtmDesign,
    alpha_bounds,
    carnot_efficiency,
    efficiency,
)
from .errors import EmitIOError, ValidationError
from .media import PhysicalConstants
from .regions import (
    DEFAULT_CLASSIFY_TOL,
    ExchangeTriple,
    _pair_ratio,
    classify_region,
)
from .sweep import (
    MediumKind,
    SweepSpec,
    boundary_report,
    default_rho_grid,
    efficiency_curves,
    emit,
    emit_curves,
    run_sweep,
)

_CONSTANTS_KEYS = tuple(f.name for f in fields(PhysicalConstants))
_SPEC_KEYS = tuple(f.name for f in fields(SweepSpec))


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit status 1, no flag
    abbreviation, and negative numbers in exponent notation (``-1e-3``)
    taken as values, not flags (subcommands inherit all three via
    parser_class)."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="qtmkit",
        description="Thermal-machine region classification, efficiency "
        "bounds, and Otto-cycle sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify an energy-exchange triple")
    p.set_defaults(run=_cmd_classify)
    p.add_argument("--e-high", type=float, required=True,
                   help="signed energy exchanged with the hot reservoir")
    p.add_argument("--e-low", type=float, required=True,
                   help="signed energy exchanged with the cold reservoir")
    p.add_argument("--theta-sq", type=float, required=True,
                   help="reservoir temperature ratio (> 1)")
    p.add_argument("--tol", type=float, default=DEFAULT_CLASSIFY_TOL,
                   help="relative boundary band (default %(default)g)")

    p = sub.add_parser("efficiency", help="evaluate one design's efficiency")
    p.set_defaults(run=_cmd_efficiency)
    p.add_argument("--design", required=True,
                   choices=[d.value for d in QtmDesign])
    p.add_argument("--alpha-sq", type=float, required=True,
                   help="thermal high-low energy ratio")
    p.add_argument("--theta-sq", type=float, default=None,
                   help="also print the Carnot value at this ratio")

    p = sub.add_parser("bounds", help="print the full design catalog")
    p.set_defaults(run=_cmd_bounds)
    p.add_argument("--theta-sq", type=float, required=True)

    p = sub.add_parser("sweep", help="run a compression-ratio sweep")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--out", default=None,
                   help="records output file (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--curves-out", default=None,
                   help="also write per-design efficiency curves here")

    p = sub.add_parser("table2", help="print the region-boundary summary")
    p.set_defaults(run=_cmd_table2)
    p.add_argument("--theta-sq", type=float, required=True)
    p.add_argument("--paper-style", action="store_true",
                   help="round to two decimals instead of six")

    return parser


def _cmd_classify(args: argparse.Namespace) -> int:
    triple = ExchangeTriple(args.e_high, args.e_low)
    region = classify_region(triple, args.theta_sq, args.tol)
    print(f"region: {region.value}")
    # The ratio the classifier accepted; it may overflow to inf.
    print(f"alpha_sq: {_pair_ratio(triple):.12g}")
    print(f"e_out: {triple.e_out:.12g}")
    if region.is_boundary:
        print("designs: (boundary; none admissible)")
    else:
        print("designs: " + ", ".join(d.value for d in _PAIRS[region]))
    return 0


def _cmd_efficiency(args: argparse.Namespace) -> int:
    design = QtmDesign(args.design)
    lines = [f"efficiency: {efficiency(design, args.alpha_sq):.12g}"]
    if args.theta_sq is not None:
        lines.append(f"carnot: {carnot_efficiency(design, args.theta_sq):.12g}")
    print("\n".join(lines))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    theta_sq = args.theta_sq
    header = (
        f"{'design':<7}{'region':<18}{'target':<18}{'source':<17}"
        f"{'alpha_sq_min':>13}{'alpha_sq_max':>13}{'eff_at_min':>12}"
        f"{'eff_at_max':>12}{'carnot':>10}  limit"
    )
    lines = [f"design catalog at theta_sq = {theta_sq:.12g}", header,
             "-" * len(header)]
    for design in QtmDesign:
        bounds = alpha_bounds(design, theta_sq)
        carnot = carnot_efficiency(design, theta_sq)
        far = _FAR_LIMIT[design]
        at_min = bounds.carnot_alpha_sq == bounds.alpha_sq_min
        eff_min, eff_max = (carnot, far) if at_min else (far, carnot)
        lines.append(
            f"{design.value:<7}{design.region.value:<18}"
            f"{design.target.value:<18}{design.source.value:<17}"
            f"{bounds.alpha_sq_min:>13.6g}{bounds.alpha_sq_max:>13.6g}"
            f"{eff_min:>12.6g}{eff_max:>12.6g}{carnot:>10.6g}  "
            f"{bounds.carnot_limit_kind.value}"
        )
    print("\n".join(lines))
    return 0


def _load_json(path: str, keys: Sequence[str]) -> dict:
    """The JSON object in ``path``; a key outside ``keys`` is an error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.loads(handle.read())
    except OSError as exc:
        raise EmitIOError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # also a UnicodeDecodeError from the read
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path} must contain a JSON object")
    unknown = set(doc) - set(keys)
    if unknown:
        raise ValidationError(
            f"unknown config keys in {path}: {', '.join(sorted(unknown))}"
        )
    return doc


def _load_sweep_config(path: str) -> tuple[SweepSpec, PhysicalConstants]:
    if os.environ.get("QTM_CONSTANTS"):
        raise ValidationError(
            "QTM_CONSTANTS is no longer read; set "
            f"{', '.join(_CONSTANTS_KEYS)} in the sweep config instead")
    values = _load_json(path, _SPEC_KEYS + _CONSTANTS_KEYS)
    # Each constructor checks a config value as it checks an API caller's.
    constants = PhysicalConstants(**{k: values.pop(k) for k in _CONSTANTS_KEYS if k in values})
    if "theta_sq" not in values or "t_low" not in values:
        raise ValidationError(f"{path} must define t_low and theta_sq")
    if "medium_kind" in values:  # by value; SweepSpec names a value that matches none
        kind = values["medium_kind"]
        values["medium_kind"] = next((m for m in MediumKind if m.value == kind), kind)
    if "rho_grid" not in values:
        values["rho_grid"] = default_rho_grid(values["theta_sq"])
    return SweepSpec(**values), constants


def _target(path: Optional[str]) -> str:
    """Where an output option writes: ``-`` for standard output, else the
    file's resolved path."""
    return "-" if path in (None, "-") else os.path.realpath(path)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.curves_out is not None and _target(args.out) == _target(args.curves_out):
        where = ("standard output" if args.curves_out == "-"
                 else f"the file {args.curves_out}")
        raise ValidationError(
            f"--out and --curves-out cannot both write to {where}; "
            "give each its own file")
    spec, constants = _load_sweep_config(args.config)
    records, boundaries = run_sweep(spec, constants)
    emit(records, format=args.format, destination=args.out)
    if args.curves_out is not None:
        emit_curves(efficiency_curves(spec), format=args.format,
                    destination=args.curves_out)
    # The summary goes to stdout, so only when no output does.
    if args.out is not None and "-" not in (args.out, args.curves_out):
        print(f"wrote {len(records)} records to {args.out}")
        rhos = astuple(boundaries)[:3]
        print("boundaries (rho): " + ", ".join(f"{r:.6f}" for r in rhos))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    report = boundary_report(args.theta_sq)
    digits = 2 if args.paper_style else 6
    print(
        "reconstructed region boundaries "
        f"(theta_sq = {args.theta_sq:.12g}, rho = sqrt(alpha_sq)):"
    )
    labels = ("2Acq_out / 2Acq_high", "2Acquirers / OutTransfers",
              "OutTransfers / Pumpers")
    values = astuple(report)
    for label, rho, alpha_sq in zip(labels, values[:3], values[3:]):
        print(f"  {label:<26} rho = {rho:.{digits}f}   alpha_sq = "
              f"{alpha_sq:.{digits}f}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, dispatch, and map errors to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except EmitIOError as exc:
        print(f"qtmkit: i/o error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ValueError) as exc:
        print(f"qtmkit: error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Console-script entry point."""
    code = main()
    gc.freeze()  # so shutdown skips the cycle collector's passes over the heap
    sys.exit(code)


if __name__ == "__main__":
    run()
