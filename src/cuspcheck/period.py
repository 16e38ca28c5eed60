"""Period points: homomorphisms from the boundary complement to Z/m.

The geometric period point takes values in the dual torus of the boundary
cycle; everything this package certifies only ever needs its torsion part, so
a period point is stored as a homomorphism Lambda -> Z/m given by its values
on the sublattice basis.

``solve_period`` finds such a homomorphism subject to vanishing and
non-vanishing constraints by Smith normal form over Z/m: the vanishing
constraints become diagonal congruences in transformed coordinates, whose
solution set is walked in a fixed order until a point satisfies every
non-vanishing constraint.  With ``modulus="search"`` the smallest feasible
modulus wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .enumeration import EnumerationResult
from .errors import InputError
from .intlinalg import matvec, snf_transform
from .lattice import Sublattice, Vector


@dataclass(frozen=True)
class PeriodPoint:
    domain: Sublattice
    modulus: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise InputError("modulus must be >= 1")
        if len(self.values) != self.domain.rank:
            raise InputError("period values must match the domain rank")
        for v in self.values:
            if not (0 <= v < self.modulus):
                raise InputError("period values must be reduced mod the modulus")

    def evaluate_coords(self, coords: Sequence[int]) -> int:
        if len(coords) != self.domain.rank:
            raise InputError("coordinate vector length differs from domain rank")
        return sum(c * v for c, v in zip(coords, self.values)) % self.modulus

    def evaluate(self, ambient_vector: Sequence[int]) -> int:
        """Value on an ambient class; errors if it lies outside the domain."""
        coords = self.domain.coords_of(ambient_vector)
        return self.evaluate_coords(coords)


Constraint = tuple[Sequence[int], str]  # (ambient vector, "zero" | "nonzero")


def _candidate_values(
    domain_rank: int, zero_rows: list[list[int]], m: int
) -> Iterable[tuple[int, ...]]:
    """All value tuples x with zero_rows . x = 0 (mod m), in a fixed order."""
    n = domain_rank
    if not zero_rows:
        v = None
        diag: list[int] = []
    else:
        dm, _u, v = snf_transform(zero_rows)
        diag = [dm[i][i] for i in range(min(len(zero_rows), n))]
    ranges: list[list[int]] = []
    for i in range(n):
        di = diag[i] if i < len(diag) else 0
        g = gcd(di, m)
        # solutions of di * y = 0 mod m: y in (m//g) * {0..g-1}
        step = m // g
        ranges.append([step * t for t in range(g)])

    def emit(i: int, y: list[int]):
        if i == n:
            if v is None:
                yield tuple(y)
            else:
                yield tuple(c % m for c in matvec(v, y))
            return
        for val in ranges[i]:
            y[i] = val
            yield from emit(i + 1, y)

    yield from emit(0, [0] * n)


def solve_period(
    domain: Sublattice,
    constraints: Sequence[Constraint],
    modulus: int | str = "search",
    modulus_bound: int = 64,
) -> PeriodPoint:
    """Find a homomorphism satisfying vanishing/non-vanishing constraints.

    ``modulus`` is either a fixed integer (>= 2, or 1 when nothing is
    required to be nonzero) or "search", which returns the smallest feasible
    modulus up to ``modulus_bound``.  Search order is deterministic, so the
    result is canonical for fixed input.
    """
    zero_rows: list[list[int]] = []
    nonzero_rows: list[list[int]] = []
    for vec, kind in constraints:
        coords = list(domain.coords_of(vec))
        if kind == "zero":
            zero_rows.append(coords)
        elif kind == "nonzero":
            nonzero_rows.append(coords)
        else:
            raise InputError(f"unknown constraint kind: {kind!r}")

    def attempt(m: int) -> PeriodPoint | None:
        for values in _candidate_values(domain.rank, zero_rows, m):
            if all(
                sum(c * x for c, x in zip(row, values)) % m != 0
                for row in nonzero_rows
            ):
                return PeriodPoint(domain=domain, modulus=m, values=values)
        return None

    if modulus == "search":
        if modulus_bound < 1:
            raise InputError("modulus bound must be >= 1")
        start = 1 if not nonzero_rows else 2
        for m in range(start, modulus_bound + 1):
            found = attempt(m)
            if found is not None:
                return found
        raise InputError(f"no feasible modulus <= {modulus_bound}")
    if not isinstance(modulus, int) or isinstance(modulus, bool):
        raise InputError("modulus must be an integer or 'search'")
    if modulus < 1 or (modulus == 1 and nonzero_rows):
        raise InputError("modulus 1 admits no nonzero constraints")
    found = attempt(modulus)
    if found is None:
        raise InputError(f"no homomorphism satisfies the constraints at modulus {modulus}")
    return found


def is_generic(phi: PeriodPoint, roots: EnumerationResult) -> bool:
    """True when phi kills no root coset.

    Roots come from enumeration on the domain lattice, so their vectors are
    domain coordinates.  A coset rep + radical is killed iff the rep's value
    lies in the subgroup generated by the radical values.
    """
    d = phi.modulus
    for rad in roots.radical:
        d = gcd(d, phi.evaluate_coords(rad))
    for rep in roots.representatives:
        if phi.evaluate_coords(rep) % d == 0:
            return False
    return True


def section_residue_bound(phi: PeriodPoint) -> int:
    """Order of the image subgroup of phi inside Z/m.

    This bounds the index of 'sections with a fixed residue' among all
    translates: finitely many residue classes, each infinite.
    """
    g = phi.modulus
    for v in phi.values:
        g = gcd(g, v)
    return phi.modulus // g


def extend_over_blowup(
    phi: PeriodPoint,
    new_domain: Sublattice,
    reference_section: Sequence[int],
) -> PeriodPoint:
    """Extend a period point across one interior blow-up.

    The blown-up Picard lattice must be phi's ambient plus one final
    exceptional coordinate.  The extension declares the strict transform of
    the reference section (reference - E) to restrict trivially to the
    boundary: that is the lattice form of "the blown-up point is the marked
    point of the reference section", and it determines the value on every
    class of the larger boundary complement.
    """
    old_rank = phi.domain.ambient.rank
    amb = new_domain.ambient
    if amb.rank != old_rank + 1:
        raise InputError("new domain must live in a one-step blow-up of the old ambient")
    ref = list(reference_section)
    if len(ref) != old_rank:
        raise InputError("reference section must be an old-ambient class")
    values = []
    for b in new_domain.basis:
        t = -b[-1]
        lam = [bi - t * ri for bi, ri in zip(b[:-1], ref)]
        # b = lam + t*(ref - E); the last coordinate of lam vanishes by design
        values.append(phi.evaluate(lam))
    return PeriodPoint(domain=new_domain, modulus=phi.modulus, values=tuple(values))
