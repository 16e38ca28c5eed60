"""Command-line front end.

Every subcommand reads and writes the JSON formats from ``jsonio`` and is
deterministic for fixed input.  Each handler returns the data it prints and
whether the run passed; ``main`` alone writes that data (canonical JSON, or
plain text under ``--output text``) and picks the exit code: 0 success, 2 a
false verdict or a failed verification stage, 3 malformed input.  A run
builds the parser of its own subcommand alone and imports ``pipeline`` and
``fibration`` only in the handlers that use them, so help and usage errors
load neither.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Sequence

from . import jsonio
from .checker import WITNESS_COUNT
from .enumeration import canonical_root, vectors_of_square
from .errors import InputError, StageFailure
from .isometry import classify_isometry
from .period import MODULUS_BOUND, is_generic, solve_period
from .surface import (
    blow_down,
    boundary_complement,
    complement_period,
    interior_blowup,
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
    """The surface and a period point, read on its boundary complement's basis."""
    surface = _read_surface(args.surface)
    phi = complement_period(surface, _read_period(args.period))
    if phi is None:
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

def _cmd_toric(args) -> tuple[Any, bool]:
    surface = toric_from_sequence(_parse_sequence(args.sequence))
    return jsonio.surface_to_dict(surface), True


def _cmd_blowup(args) -> tuple[Any, bool]:
    surface = interior_blowup(_read_surface(args.surface), args.component)
    return jsonio.surface_to_dict(surface), True


def _cmd_blowdown(args) -> tuple[Any, bool]:
    surface = _read_surface(args.surface)
    cls = _resolve_class(args.cls, surface)
    return jsonio.surface_to_dict(blow_down(surface, cls)), True


def _cmd_invariants(args) -> tuple[Any, bool]:
    return surface_invariants(_read_surface(args.surface)), True


def _cmd_complement(args) -> tuple[Any, bool]:
    comp = boundary_complement(_read_surface(args.surface))
    sub = jsonio.sublattice_to_dict(comp.sublattice)
    return {"sublattice": sub, "kernel_rank": comp.kernel_rank}, True


def _cmd_roots(args) -> tuple[Any, bool]:
    surface = _read_surface(args.surface)
    lam = boundary_complement(surface).sublattice
    result = vectors_of_square(lam.as_lattice(), args.square)
    return jsonio.enumeration_to_dict(result), True


def _cmd_period_solve(args) -> tuple[Any, bool]:
    surface = _read_surface(args.surface)
    lam = boundary_complement(surface).sublattice
    constraints = [(_resolve_class(token, surface), "zero") for token in args.zero or []]
    constraints += [(_resolve_class(token, surface), "nonzero") for token in args.nonzero or []]
    modulus: int | str = args.modulus
    if modulus != "search":
        try:
            modulus = int(modulus)
        except ValueError as exc:
            raise InputError(f"modulus must be an integer or 'search', got {args.modulus!r}") from exc
    phi = solve_period(lam, constraints, modulus=modulus, modulus_bound=args.modulus_bound)
    return jsonio.period_to_dict(phi), True


def _cmd_period_check(args) -> tuple[Any, bool]:
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
    return out, True


def _cmd_fibration(args) -> tuple[Any, bool]:
    from .fibration import analyze_fibration
    surface, phi = _read_surface_and_period(args)
    fib = analyze_fibration(surface, phi)
    return jsonio.fibration_to_dict(fib), True


def _cmd_isometry_classify(args) -> tuple[Any, bool]:
    g = jsonio.isometry_from_dict(_read_json(args.isometry), context=args.isometry)
    return jsonio.isometry_type_to_dict(classify_isometry(g)), True


def _cmd_criterion_check(args) -> tuple[Any, bool]:
    from .pipeline import run_criterion
    surface = _read_surface(args.surface)
    phi = _read_period(args.period)
    report = run_criterion(surface, phi, witness_count=args.witness_count)
    return jsonio.criterion_to_dict(report), report.verdict


def _cmd_verify_paper(args) -> tuple[Any, bool]:
    from .pipeline import run_pipeline
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
    return report, report["all_pass"]


# ------------------------------------------------------------------ parser

_SURFACE = ("--surface", {"required": True})
_PERIOD = ("--period", {"required": True})

# (path, handler, help, arguments) of every subcommand, in help order; each
# takes ``--output`` before its arguments.
COMMANDS = (
    (("toric",), _cmd_toric, "build a toric surface from a self-intersection sequence",
     [("--sequence", {"required": True})]),
    (("blowup",), _cmd_blowup, "blow up an interior point of a boundary component",
     [_SURFACE, ("--component", {"type": int, "required": True})]),
    (("blowdown",), _cmd_blowdown, "contract a (-1)-class meeting the boundary once",
     [_SURFACE, ("--cls", {"required": True})]),
    (("invariants",), _cmd_invariants, "print rank, components, boundary squares and blow-ups",
     [_SURFACE]),
    (("complement",), _cmd_complement, "boundary-orthogonal sublattice", [_SURFACE]),
    (("roots",), _cmd_roots, "enumerate fixed-square classes in the complement",
     [_SURFACE, ("--square", {"type": int, "default": -2})]),
    (("period", "solve"), _cmd_period_solve, "find a period point satisfying constraints",
     [_SURFACE, ("--zero", {"action": "append"}), ("--nonzero", {"action": "append"}),
      ("--modulus", {"default": "search"}),
      ("--modulus-bound", {"type": int, "default": MODULUS_BOUND})]),
    (("period", "check"), _cmd_period_check, "evaluate a period point or test genericity",
     [_SURFACE, _PERIOD, ("--cls", {}), ("--generic", {"action": "store_true"})]),
    (("fibration",), _cmd_fibration, "fibration data from the boundary cycle",
     [_SURFACE, _PERIOD]),
    (("isometry", "classify"), _cmd_isometry_classify, "elliptic / parabolic / hyperbolic",
     [("--isometry", {"required": True})]),
    (("criterion", "check"), _cmd_criterion_check, "run the criterion on a surface and period",
     [_SURFACE, _PERIOD, ("--witness-count", {"type": int, "default": WITNESS_COUNT})]),
    (("verify-paper",), _cmd_verify_paper,
     "replay the full construction and emit the certified report",
     [("--modulus-bound", {"type": int}), ("--witness-count", {"type": int}),
      ("--config", {}), ("--force-trivial-beta", {"action": "store_true"})]),
)
GROUPS = {"period": "period-point operations", "isometry": "isometry operations",
          "criterion": "non-arithmeticity criterion"}


def _add_arguments(parser: argparse.ArgumentParser, arguments) -> None:
    parser.add_argument("--output", choices=("json", "text"), default="json")
    for flag, kwargs in arguments:
        parser.add_argument(flag, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree, built from ``COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="cuspcheck",
        description="Exact lattice certificates for anticanonical-cycle surfaces.",
    )
    parents = {(): parser.add_subparsers(dest="command", required=True)}
    for path, handler, summary, arguments in COMMANDS:
        group = path[:-1]
        if group not in parents:
            grp = parents[()].add_parser(group[0], help=GROUPS[group[0]])
            parents[group] = grp.add_subparsers(dest=f"{group[0]}_command", required=True)
        p = parents[group].add_parser(path[-1], help=summary)
        p.set_defaults(handler=handler)
        _add_arguments(p, arguments)
    return parser


def parse_args(argv: Sequence[str] | None = None) -> argparse.Namespace:
    """Parse with the named subcommand's parser alone, under the prog the
    full tree gives it.  Top-level help, an unknown command, a bare group and
    arguments the subcommand does not take go to ``build_parser()``."""
    argv = sys.argv[1:] if argv is None else list(argv)
    for path, handler, _, arguments in COMMANDS:
        if tuple(argv[: len(path)]) == path:
            parser = argparse.ArgumentParser(prog=" ".join(("cuspcheck", *path)))
            _add_arguments(parser, arguments)
            args, extra = parser.parse_known_args(argv[len(path):])
            if not extra:
                args.handler = handler
                return args
    return build_parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        data, passed = args.handler(args)
    except StageFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.output == "text":
        print("\n".join(_render_text(data)))
    else:
        sys.stdout.write(jsonio.canonical_dumps(data))
    return 0 if passed else 2


if __name__ == "__main__":
    raise SystemExit(main())
