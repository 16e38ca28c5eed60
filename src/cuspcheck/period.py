"""Period points: homomorphisms from the boundary complement to Z/m.

The geometric period point takes values in the dual torus of the boundary
cycle; everything this package certifies only ever needs its torsion part, so
a period point is stored as a homomorphism Lambda -> Z/m given by its values
on the sublattice basis.

``solve_period`` finds such a homomorphism subject to vanishing and
non-vanishing constraints.  One Smith normal form of the vanishing rows turns
them into diagonal congruences d_i y_i = 0 (mod m) in transformed coordinates
y, so their solution set H is a box of multiples of m / gcd(d_i, m).  Each
non-vanishing constraint becomes a linear functional on that box, taken up to
sign.  A functional with no coefficient left nonzero mod m vanishes on all of
H, and the modulus is reported infeasible at once.  Otherwise H is searched
depth first in lexicographic order of y for its first point.  Two cuts keep
that search small without changing its answer.  H is a Z/m-module and no
functional's vanishing changes under multiplication by a unit of Z/m, so the
first point's leading nonzero coordinate divides its box size, and only
those values are tried there.  Each functional is decided at its last
nonzero coefficient, by a table of bit masks that gives, for the partial sum
so far, every value of that coordinate making it vanish; a node ORs one
lookup per functional and walks the values left.  With ``modulus="search"``
the smallest feasible modulus wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .enumeration import EnumerationResult
from .errors import InputError
from .intlinalg import combination, identity_matrix, matvec, sign_normalized, snf_transform
from .lattice import Sublattice


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


def _first_point(
    sizes: Sequence[int], functionals: Sequence[Sequence[int]], m: int
) -> list[int] | None:
    """Lexicographically first t, 0 <= t_i < sizes[i], on which no functional
    sum(w_i t_i) vanishes mod m; None if there is none.  Each size must
    divide m and each coefficient w_i must be reduced mod m with
    w_i * sizes[i] = 0 (mod m), so that the functionals are homomorphisms on
    the box H = prod Z/sizes[i], a Z/m-module.

    Unit orbits: for a unit u of Z/m the point u.t (each u t_i taken mod
    sizes[i]) satisfies every functional's condition exactly when t does,
    and u can carry the first nonzero coordinate t_k to gcd(t_k, sizes[k])
    (units of Z/m map onto those of Z/sizes[k]).  So the first solution has
    t_k dividing sizes[k], and while the prefix is all zero only 0 and the
    proper divisors of sizes[k] are tried.

    Masks: depth first over t_0, t_1, ..., each functional is decided at
    its closing index, the last coordinate where its coefficient c is
    nonzero.  ``tab[s]`` holds, as a bit mask over t, the values with
    s + c t = 0 (mod m), built once per (size, c); a node ORs one lookup per
    functional closing there and walks the remaining bits in increasing
    order.  Only solution-free subtrees are cut, so the first leaf reached is
    the first point of the full lexicographic walk.
    """
    n = len(sizes)
    # per depth: (index, coefficient) of the functionals that stay open, and
    # (index, forbidden-value table) of those that close there
    opened: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    closed: list[list[tuple[int, list[int]]]] = [[] for _ in range(n)]
    tables: dict[tuple[int, int], list[int]] = {}
    for j, w in enumerate(functionals):
        support = [i for i in range(n) if w[i]]
        if not support:
            return None  # vanishes on every point
        for i in support[:-1]:
            opened[i].append((j, w[i]))
        k = support[-1]
        key = (sizes[k], w[k])
        if key not in tables:
            tab = tables[key] = [0] * m
            for t in range(sizes[k]):
                tab[-w[k] * t % m] |= 1 << t
        closed[k].append((j, tables[key]))
    every = [(1 << g) - 1 for g in sizes]
    leading = [1 | sum(1 << d for d in range(1, g) if g % d == 0) for g in sizes]
    point = [0] * n

    def search(i: int, sums: list[int], zero_prefix: bool) -> bool:
        if i == n:
            return True
        forbidden = 0
        for j, tab in closed[i]:
            forbidden |= tab[sums[j]]
        free = (leading[i] if zero_prefix else every[i]) & ~forbidden
        while free:
            low = free & -free
            free ^= low
            t = low.bit_length() - 1
            deeper = sums
            if opened[i]:
                deeper = sums.copy()
                for j, c in opened[i]:
                    deeper[j] = (deeper[j] + c * t) % m
            point[i] = t
            if search(i + 1, deeper, zero_prefix and not t):
                return True
        return False

    return point if search(0, [0] * len(functionals), True) else None


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
    seen = set()
    for vec, kind in constraints:
        # w and -w vanish together at every modulus: one of each is kept
        if kind == "nonzero":
            if sign_normalized(vec) in seen:
                continue
            seen.add(sign_normalized(vec))
        coords = list(domain.coords_of(vec))
        if kind == "zero":
            zero_rows.append(coords)
        elif kind == "nonzero":
            nonzero_rows.append(coords)
        else:
            raise InputError(f"unknown constraint kind: {kind!r}")

    n = domain.rank
    # U.Z.V = D: values x = V.y solve Z.x = 0 mod m iff d_i y_i = 0 mod m
    if zero_rows:
        dm, _u, v = snf_transform(zero_rows)
        diag = [dm[i][i] for i in range(min(len(zero_rows), n))]
    else:
        v, diag = identity_matrix(n), []
    diag += [0] * (n - len(diag))
    # each non-vanishing constraint as a functional on y: r.V
    y_rows = [combination(row, v) for row in nonzero_rows]

    def attempt(m: int) -> PeriodPoint | None:
        # y_i = step_i * t_i with 0 <= t_i < gcd(d_i, m)
        sizes = [gcd(d, m) for d in diag]
        steps = [m // g for g in sizes]
        functionals = set()
        for row in y_rows:
            w = tuple(c * s % m for c, s in zip(row, steps))
            functionals.add(min(w, tuple(-c % m for c in w)))  # w, -w vanish together
        point = _first_point(sizes, sorted(functionals), m)
        if point is None:
            return None
        y = [s * t for s, t in zip(steps, point)]
        values = tuple(c % m for c in matvec(v, y))
        return PeriodPoint(domain=domain, modulus=m, values=values)

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
    if modulus < 1:
        raise InputError("modulus must be >= 1")
    if modulus == 1 and nonzero_rows:
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
