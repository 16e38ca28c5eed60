"""JSON encoding and decoding for every type the CLI reads or writes.

Only integers, strings, booleans, lists, and objects appear in the encoded
forms — never floats.  ``canonical_dumps`` sorts keys and terminates with a
newline so that identical data is byte-identical on every run.

Decoders raise InputError naming the offending field, so malformed input
surfaces as a schema error rather than a traceback.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from .checker import CriterionReport
from .enumeration import EnumerationResult
from .errors import InputError
from .fibration import EllipticFibration, FiberConfiguration
from .isometry import Isometry, IsometryType, isometry_from_matrix
from .lattice import GramLattice, Sublattice, gram_lattice, sublattice_from_rows
from .period import PeriodPoint
from .surface import LooijengaSurface


def canonical_dumps(data: Any) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def loads(text: str) -> Any:
    # ValueError covers JSONDecodeError and integers past the digit limit;
    # RecursionError, arrays or objects nested too deep to decode
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"malformed JSON: {exc}") from exc


def _field(d: Any, name: str, kind: type, context: str) -> Any:
    if not isinstance(d, dict):
        raise InputError(f"{context}: expected an object")
    if name not in d:
        raise InputError(f"{context}: missing field '{name}'")
    value = d[name]
    if kind is int and isinstance(value, bool):
        raise InputError(f"{context}: field '{name}' must be an integer")
    if not isinstance(value, kind):
        raise InputError(f"{context}: field '{name}' must be {kind.__name__}")
    return value


def _int_vector(value: Any, context: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise InputError(f"{context}: expected a list of integers")
    return tuple(value)


def _int_matrix(value: Any, context: str) -> list[list[int]]:
    if not isinstance(value, list):
        raise InputError(f"{context}: expected a list of rows")
    return [list(_int_vector(row, context)) for row in value]


# ---------------------------------------------------------------- encoders

def lattice_to_dict(lat: GramLattice) -> dict:
    out = {"rank": lat.rank, "gram": [list(r) for r in lat.gram]}
    out["basis_labels"] = list(lat.basis_labels) if lat.basis_labels else None
    return out


def sublattice_to_dict(sub: Sublattice) -> dict:
    return {
        "ambient": lattice_to_dict(sub.ambient),
        "basis": [list(b) for b in sub.basis],
        "induced_gram": [list(r) for r in sub.induced_gram()],
    }


def surface_to_dict(surface: LooijengaSurface) -> dict:
    return {
        "picard": lattice_to_dict(surface.picard),
        "boundary": [list(b) for b in surface.boundary],
        "self_intersections": list(surface.self_intersections()),
        "history": [
            {"component": comp, "class": list(cls)} for comp, cls in surface.history
        ],
    }


def period_to_dict(phi: PeriodPoint) -> dict:
    return {
        "modulus": phi.modulus,
        "values": list(phi.values),
        "domain": sublattice_to_dict(phi.domain),
    }


def isometry_to_dict(g: Isometry) -> dict:
    return {
        "ambient": lattice_to_dict(g.ambient),
        "matrix": [list(r) for r in g.matrix],
    }


def isometry_type_to_dict(t: IsometryType) -> dict:
    return {
        "tag": t.tag,
        "order": t.order,
        "fixed_isotropic": list(t.fixed_isotropic) if t.fixed_isotropic else None,
    }


def enumeration_to_dict(res: EnumerationResult) -> dict:
    return {
        "radical": [list(v) for v in res.radical],
        "representatives": [list(v) for v in res.representatives],
        "complete": res.complete,
    }


def configuration_to_dict(cfg: FiberConfiguration) -> dict:
    return {
        "classes": [list(c) for c in cfg.classes],
        "multiplicities": list(cfg.multiplicities),
        "kodaira_type": cfg.kodaira_type,
        "component_count": cfg.component_count,
    }


def fibration_to_dict(fib: EllipticFibration) -> dict:
    return {
        "fiber_class": list(fib.fiber_class),
        "multiple": fib.multiple,
        "has_section": fib.has_section,
        "zero_section": list(fib.zero_section) if fib.zero_section else None,
        "reducible_fibers": [configuration_to_dict(c) for c in fib.reducible_fibers],
        "mw_rank": fib.mw_rank,
    }


def criterion_to_dict(report: CriterionReport) -> dict:
    return dataclasses.asdict(report)


# ---------------------------------------------------------------- decoders

def lattice_from_dict(d: Any, context: str = "lattice") -> GramLattice:
    gram = _int_matrix(_field(d, "gram", list, context), f"{context}.gram")
    rank = _field(d, "rank", int, context)
    if rank != len(gram):
        raise InputError(f"{context}: field 'rank' disagrees with the gram matrix")
    labels = d.get("basis_labels")
    if labels is not None and (
        not isinstance(labels, list) or not all(isinstance(s, str) for s in labels)
    ):
        raise InputError(f"{context}: field 'basis_labels' must be a list of strings")
    return gram_lattice(gram, labels)


def sublattice_from_dict(d: Any, context: str = "sublattice") -> Sublattice:
    ambient = lattice_from_dict(_field(d, "ambient", dict, context), f"{context}.ambient")
    basis = _int_matrix(_field(d, "basis", list, context), f"{context}.basis")
    sub = sublattice_from_rows(ambient, basis)
    if "induced_gram" in d:
        declared = _int_matrix(d["induced_gram"], f"{context}.induced_gram")
        if declared != sub.induced_gram():
            raise InputError(f"{context}: field 'induced_gram' disagrees with the basis")
    return sub


def surface_from_dict(d: Any, context: str = "surface") -> LooijengaSurface:
    picard = lattice_from_dict(_field(d, "picard", dict, context), f"{context}.picard")
    boundary = tuple(
        _int_vector(row, f"{context}.boundary")
        for row in _field(d, "boundary", list, context)
    )
    history = []
    entries = d.get("history", [])
    if not isinstance(entries, list):
        raise InputError(f"{context}.history: expected a list")
    for i, entry in enumerate(entries):
        comp = _field(entry, "component", int, f"{context}.history[{i}]")
        cls = _int_vector(
            _field(entry, "class", list, f"{context}.history[{i}]"),
            f"{context}.history[{i}].class",
        )
        history.append((comp, cls))
    surface = LooijengaSurface(picard=picard, boundary=boundary, history=tuple(history))
    # Noether's formula with K = -D, and the Hodge index theorem
    n = picard.rank
    if n + surface.boundary_self_intersection() != 10 or picard.signature != (1, n - 1, 0):
        raise InputError(f"{context}.picard: not the Picard lattice of a rational surface")
    return surface


def period_from_dict(d: Any, context: str = "period") -> PeriodPoint:
    domain = sublattice_from_dict(_field(d, "domain", dict, context), f"{context}.domain")
    modulus = _field(d, "modulus", int, context)
    values = _int_vector(_field(d, "values", list, context), f"{context}.values")
    return PeriodPoint(domain=domain, modulus=modulus, values=values)


def isometry_from_dict(d: Any, context: str = "isometry") -> Isometry:
    matrix = _int_matrix(_field(d, "matrix", list, context), f"{context}.matrix")
    ambient = lattice_from_dict(_field(d, "ambient", dict, context), f"{context}.ambient")
    return isometry_from_matrix(ambient, matrix)

