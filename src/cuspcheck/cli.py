"""Command-line front end.

Every subcommand reads and writes the JSON formats from ``jsonio`` and is
deterministic for fixed input.  Exit codes: 0 success, 2 a verification stage
or verdict failed, 3 malformed input.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Sequence

from . import jsonio
from .enumeration import vectors_of_square
from .errors import InputError, StageFailure
from .fibration import analyze_fibration
from .isometry import classify_isometry
from .period import is_generic, solve_period
from .pipeline import DEFAULT_CONFIG, canonical_root, run_criterion, run_pipeline
from .surface import (
    blow_down,
    boundary_complement,
    interior_blowup,
    is_boundary_complement,
    surface_invariants,
    toric_from_sequence,
)


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return jsonio.loads(text)


def _read_surface(path: str):
    return jsonio.surface_from_dict(_read_json(path), context=path)


def _read_period(path: str):
    return jsonio.period_from_dict(_read_json(path), context=path)


def _read_surface_and_period(args):
    """The surface and a period point on its boundary complement."""
    surface = _read_surface(args.surface)
    phi = _read_period(args.period)
    if not is_boundary_complement(surface, phi.domain):
        raise InputError(
            f"{args.period}: period domain is not the boundary complement of {args.surface}"
        )
    return surface, phi


def _render_text(data: Any, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(data, dict):
        items = [(f"{key}:", value) for key, value in data.items()]
    elif isinstance(data, list):
        items = [("-", item) for item in data]
    else:
        return [f"{pad}{_flat(data)}"]
    lines: list[str] = []
    for label, value in items:
        if isinstance(value, (dict, list)) and value and not _is_flat(value):
            lines.append(f"{pad}{label}")
            lines.extend(_render_text(value, indent + 1))
        else:
            lines.append(f"{pad}{label} {_flat(value)}")
    return lines


def _is_flat(value: Any) -> bool:
    if isinstance(value, list):
        return all(not isinstance(x, (dict, list)) for x in value)
    return not isinstance(value, (dict, list))


def _flat(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, list):
        return "[" + ", ".join(_flat(x) for x in value) + "]"
    return str(value)


def _emit(data: Any, output: str) -> None:
    if output == "text":
        print("\n".join(_render_text(data)))
    else:
        sys.stdout.write(jsonio.canonical_dumps(data))


def _parse_sequence(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse sequence {text!r}") from exc


def _resolve_class(token: str, surface) -> tuple[int, ...]:
    """Class tokens: 'D' boundary sum, 'E' last exceptional, 'beta' canonical root, or 'a,b,...'."""
    word = token.strip()
    if word == "D":
        return surface.boundary_sum()
    if word == "E":
        if not surface.history:
            raise InputError("surface has no recorded exceptional class")
        return surface.history[-1][1]
    if word == "beta":
        comp = boundary_complement(surface)
        return comp.sublattice.embed(canonical_root(comp.roots))
    try:
        return tuple(int(part) for part in word.split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse class token {token!r}") from exc


# ------------------------------------------------------------- subcommands

def _cmd_toric(args) -> int:
    surface = toric_from_sequence(_parse_sequence(args.sequence))
    _emit(jsonio.surface_to_dict(surface), args.output)
    return 0


def _cmd_blowup(args) -> int:
    surface = interior_blowup(_read_surface(args.surface), args.component)
    _emit(jsonio.surface_to_dict(surface), args.output)
    return 0


def _cmd_blowdown(args) -> int:
    surface = _read_surface(args.surface)
    cls = _resolve_class(args.cls, surface)
    _emit(jsonio.surface_to_dict(blow_down(surface, cls)), args.output)
    return 0


def _cmd_invariants(args) -> int:
    _emit(surface_invariants(_read_surface(args.surface)), args.output)
    return 0


def _cmd_complement(args) -> int:
    comp = boundary_complement(_read_surface(args.surface))
    _emit(
        {
            "sublattice": jsonio.sublattice_to_dict(comp.sublattice),
            "kernel_rank": comp.kernel_rank,
        },
        args.output,
    )
    return 0


def _cmd_roots(args) -> int:
    surface = _read_surface(args.surface)
    lam = boundary_complement(surface).sublattice
    result = vectors_of_square(lam.as_lattice(), args.square)
    _emit(jsonio.enumeration_to_dict(result), args.output)
    return 0


def _cmd_period_solve(args) -> int:
    surface = _read_surface(args.surface)
    lam = boundary_complement(surface).sublattice
    constraints = []
    for token in args.zero or []:
        constraints.append((_resolve_class(token, surface), "zero"))
    for token in args.nonzero or []:
        constraints.append((_resolve_class(token, surface), "nonzero"))
    modulus: int | str = args.modulus
    if modulus != "search":
        try:
            modulus = int(modulus)
        except ValueError as exc:
            raise InputError(f"modulus must be an integer or 'search', got {args.modulus!r}") from exc
    phi = solve_period(lam, constraints, modulus=modulus, modulus_bound=args.modulus_bound)
    _emit(jsonio.period_to_dict(phi), args.output)
    return 0


def _cmd_period_check(args) -> int:
    surface, phi = _read_surface_and_period(args)
    out: dict[str, Any] = {"modulus": phi.modulus}
    if args.cls is not None:
        cls = _resolve_class(args.cls, surface)
        out["class"] = list(cls)
        out["value"] = phi.evaluate(cls)
    if args.generic:
        roots = vectors_of_square(phi.domain.as_lattice(), -2)
        out["generic"] = is_generic(phi, roots)
    if args.cls is None and not args.generic:
        raise InputError("period check needs --cls and/or --generic")
    _emit(out, args.output)
    return 0


def _cmd_fibration(args) -> int:
    surface, phi = _read_surface_and_period(args)
    fib = analyze_fibration(surface, phi)
    _emit(jsonio.fibration_to_dict(fib), args.output)
    return 0


def _cmd_isometry_classify(args) -> int:
    g = jsonio.isometry_from_dict(_read_json(args.isometry), context=args.isometry)
    _emit(jsonio.isometry_type_to_dict(classify_isometry(g)), args.output)
    return 0


def _cmd_criterion_check(args) -> int:
    surface = _read_surface(args.surface)
    phi = _read_period(args.period)
    report = run_criterion(surface, phi, witness_count=args.witness_count)
    _emit(jsonio.criterion_to_dict(report), args.output)
    return 0 if report.verdict else 2


def _cmd_verify_paper(args) -> int:
    overrides: dict[str, Any] = {}
    if args.config is not None:
        loaded = _read_json(args.config)
        if not isinstance(loaded, dict):
            raise InputError("config file must contain a JSON object")
        overrides.update(loaded)
    if args.modulus_bound is not None:
        overrides["modulus_bound"] = args.modulus_bound
    if args.witness_count is not None:
        overrides["witness_count"] = args.witness_count
    if args.force_trivial_beta:
        overrides["force_trivial_beta"] = True
    report = run_pipeline(overrides)
    _emit(report, args.output)
    return 0 if report["all_pass"] else 2


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspcheck",
        description="Exact lattice certificates for anticanonical-cycle surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, parent=sub, **kwargs):
        p = parent.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--output", choices=("json", "text"), default="json")
        return p

    def group(name: str, help: str):
        return sub.add_parser(name, help=help).add_subparsers(dest=f"{name}_command", required=True)

    p = add("toric", _cmd_toric, help="build a toric surface from a self-intersection sequence")
    p.add_argument("--sequence", required=True)

    p = add("blowup", _cmd_blowup, help="blow up an interior point of a boundary component")
    p.add_argument("--surface", required=True)
    p.add_argument("--component", type=int, required=True)

    p = add("blowdown", _cmd_blowdown, help="contract a (-1)-class meeting the boundary once")
    p.add_argument("--surface", required=True)
    p.add_argument("--cls", required=True)

    p = add("invariants", _cmd_invariants, help="print rank, boundary squares, and definiteness")
    p.add_argument("--surface", required=True)

    p = add("complement", _cmd_complement, help="boundary-orthogonal sublattice")
    p.add_argument("--surface", required=True)

    p = add("roots", _cmd_roots, help="enumerate fixed-square classes in the complement")
    p.add_argument("--surface", required=True)
    p.add_argument("--square", type=int, default=-2)

    period = group("period", "period-point operations")
    p = add("solve", _cmd_period_solve, period, help="find a period point satisfying constraints")
    p.add_argument("--surface", required=True)
    p.add_argument("--zero", action="append")
    p.add_argument("--nonzero", action="append")
    p.add_argument("--modulus", default="search")
    p.add_argument("--modulus-bound", type=int, default=DEFAULT_CONFIG["modulus_bound"])

    p = add("check", _cmd_period_check, period, help="evaluate a period point or test genericity")
    p.add_argument("--surface", required=True)
    p.add_argument("--period", required=True)
    p.add_argument("--cls")
    p.add_argument("--generic", action="store_true")

    p = add("fibration", _cmd_fibration, help="fibration data from the boundary cycle")
    p.add_argument("--surface", required=True)
    p.add_argument("--period", required=True)

    isom = group("isometry", "isometry operations")
    p = add("classify", _cmd_isometry_classify, isom, help="elliptic / parabolic / hyperbolic")
    p.add_argument("--isometry", required=True)

    crit = group("criterion", "non-arithmeticity criterion")
    p = add("check", _cmd_criterion_check, crit, help="run the criterion on a surface and period")
    p.add_argument("--surface", required=True)
    p.add_argument("--period", required=True)
    p.add_argument("--witness-count", type=int, default=DEFAULT_CONFIG["witness_count"])

    p = add(
        "verify-paper",
        _cmd_verify_paper,
        help="replay the full construction and emit the certified report",
    )
    p.add_argument("--modulus-bound", type=int, default=None)
    p.add_argument("--witness-count", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--force-trivial-beta", action="store_true")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except StageFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
