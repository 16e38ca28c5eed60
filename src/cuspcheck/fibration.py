"""Genus-one fibrations read off from the boundary cycle.

When every boundary component is a (-2)-class the cycle supports a fibration
whose fiber class is the smallest multiple of the cycle sum killed by the
period point.  This module classifies reducible fiber configurations by their
intersection graphs, computes Mordell-Weil rank through the rank bookkeeping
formula, and realizes the translation action of orthogonal classes as
transvections on the Picard lattice.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import gcd
from typing import Iterator, Sequence

from .enumeration import EnumerationResult
from .errors import InputError
from .intlinalg import (
    combination,
    dot,
    rank_int,
    right_kernel,
    ring_points,
    saturation,
    sign_normalized,
    transpose,
)
from .isometry import Isometry, isometry_from_matrix
from .lattice import (
    GramLattice,
    Sublattice,
    Vector,
    complement_basis_within,
    gram_lattice,
    quotient_presentation,
    signature,
)
from .period import PeriodPoint, is_generic
from .surface import LooijengaSurface, boundary_complement


@dataclass(frozen=True)
class FiberConfiguration:
    classes: tuple[Vector, ...]
    multiplicities: tuple[int, ...]
    kodaira_type: str

    @property
    def component_count(self) -> int:
        return len(self.classes)


def _kodaira_label(mults: Sequence[int]) -> str:
    n = len(mults)
    key = tuple(sorted(mults))
    if all(m == 1 for m in mults):
        return f"I{n}"
    ones = key.count(1)
    twos = key.count(2)
    if ones == 4 and twos == n - 4 and n >= 5:
        return f"I*{n - 5}"
    if key == (1, 1, 1, 2, 2, 2, 3):
        return "IV*"
    if key == (1, 1, 2, 2, 2, 3, 3, 4):
        return "III*"
    if key == (1, 2, 2, 3, 3, 4, 4, 5, 6):
        return "II*"
    raise ArithmeticError(f"unrecognized affine multiplicity pattern {key}")


def classify_configuration(
    lattice: GramLattice, classes: Sequence[Sequence[int]]
) -> FiberConfiguration:
    """Recognize a full reducible fiber from its component classes.

    The classes must be (-2)-classes pairing non-negatively with each other;
    the configuration must be connected and negative semidefinite with a
    one-dimensional radical.  Multiplicities are the primitive positive
    radical vector, and the type label follows the standard affine tables.
    """
    cls = [lattice.check_vector(c) for c in classes]
    n = len(cls)
    if n == 0:
        raise InputError("empty configuration")
    b = lattice.gram_of(cls)
    for i in range(n):
        if b[i][i] != -2:
            raise InputError("fiber components must be (-2)-classes")
        for j in range(i + 1, n):
            if b[i][j] < 0:
                raise InputError("distinct fiber components must meet non-negatively")
    # connectivity of the dual graph
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if j not in seen and b[i][j] > 0:
                seen.add(j)
                frontier.append(j)
    if len(seen) != n:
        raise InputError("fiber configuration is disconnected")
    sig = signature(gram_lattice(b))
    if sig.positive > 0:
        raise InputError("configuration pairing is not negative semidefinite")
    if sig.null == 0:
        raise InputError("not a full fiber: configuration is negative definite")
    if sig.null != 1:
        raise InputError("configuration radical has rank > 1")
    ker = right_kernel(b)
    mult = list(sign_normalized(ker[0]))
    if any(m <= 0 for m in mult):
        raise ArithmeticError("affine radical vector is not strictly positive")
    return FiberConfiguration(
        classes=tuple(cls),
        multiplicities=tuple(mult),
        kodaira_type=_kodaira_label(mult),
    )


@dataclass(frozen=True)
class EllipticFibration:
    """Fibration data at the lattice level.

    ``fiber_class`` is the class of a full (possibly multiple) fiber, equal to
    ``multiple`` times the boundary sum.  ``zero_section`` is set only when a
    section exists, in which case it is the most recent exceptional class.
    """

    fiber_class: Vector
    multiple: int
    zero_section: Vector | None
    reducible_fibers: tuple[FiberConfiguration, ...]
    mw_rank: int

    @property
    def has_section(self) -> bool:
        return self.zero_section is not None


def shioda_tate_rank(picard_rank: int, fibers: Sequence[FiberConfiguration]) -> int:
    """Rank of the translation group: rho - 2 - sum (components - 1)."""
    rank = picard_rank - 2 - sum(f.component_count - 1 for f in fibers)
    if rank < 0:
        raise ArithmeticError("fiber components exceed the available rank")
    return rank


def fiber_from_boundary(surface: LooijengaSurface, phi: PeriodPoint) -> EllipticFibration:
    """Base fibration whose reducible fibers are just the boundary cycle.

    Requires every boundary component to be a (-2)-class.  The fiber multiple
    is the order of the period value on the boundary sum; a section exists
    exactly when that value vanishes, and then the most recent exceptional
    class is the zero section.
    """
    if any(a != -2 for a in surface.self_intersections()):
        raise InputError("boundary is not of fiber type: a component is not a (-2)-class")
    d = surface.boundary_sum()
    val = phi.evaluate(d)
    m = phi.modulus // gcd(phi.modulus, val)
    f = tuple(m * x for x in d)
    zero_section: Vector | None = None
    if m == 1:
        if not surface.history:
            raise InputError("no exceptional class recorded to serve as the zero section")
        zero_section = surface.history[-1][1]
        if surface.picard.square(zero_section) != -1:
            raise ArithmeticError("recorded section class is not a (-1)-class")
        if surface.picard.pair(zero_section, f) != 1:
            raise ArithmeticError("recorded section class does not meet the fiber once")
    boundary_fiber = classify_configuration(surface.picard, surface.boundary)
    mw = shioda_tate_rank(surface.picard_rank, [boundary_fiber])
    return EllipticFibration(
        fiber_class=f,
        multiple=m,
        zero_section=zero_section,
        reducible_fibers=(boundary_fiber,),
        mw_rank=mw,
    )


def extra_reducible_fibers(
    lam: Sublattice,
    fib: EllipticFibration,
    phi: PeriodPoint,
    roots: EnumerationResult,
) -> tuple[FiberConfiguration, ...]:
    """Reducible fibers beyond the boundary cycle, found from root cosets.

    A period that kills no root coset (``is_generic``) gives no extra fiber,
    whatever the root system.  Otherwise only the corank-one, single-pair
    shape is implemented: the killed +/- pair of cosets mod the radical
    contributes a two-component fiber, the killed representative and its
    complement in the full fiber class.
    """
    if is_generic(phi, roots):
        return ()
    if len(roots.radical) != 1:
        raise InputError("only corank-one root radicals are supported")
    rad = list(roots.radical[0])
    reps = [list(r) for r in roots.representatives]
    if len(reps) != 2 or rank_int([rad, [x + y for x, y in zip(*reps)]]) > 1:
        raise InputError("unsupported root system: expected a single +/- coset pair")
    beta = list(sign_normalized(reps[0]))
    m = phi.modulus
    r_val = phi.evaluate_coords(rad)
    beta_val = phi.evaluate_coords(beta)
    shift = next(k for k in range(m) if (beta_val + k * r_val) % m == 0)
    c1 = lam.embed(combination([1, shift], [beta, rad]))
    c2 = tuple(fx - cx for fx, cx in zip(fib.fiber_class, c1))
    if phi.evaluate(c2) != 0:
        raise ArithmeticError("complementary fiber component is not killed by the period")
    return (classify_configuration(lam.ambient, (c1, c2)),)


def eichler_transvection(
    lattice: GramLattice, f: Sequence[int], e: Sequence[int]
) -> Isometry:
    """Transvection x -> x + (x.f)e - (x.e)f - (e.e/2)(x.f)f.

    Needs f isotropic, e orthogonal to f, and e of even square; then the map
    is an isometry fixing f, and composing two transvections with the same f
    adds their e-vectors (exactly, with no correction term).
    """
    fv = lattice.check_vector(f)
    ev = lattice.check_vector(e)
    gf = lattice.pairing_row(fv)
    ge = lattice.pairing_row(ev)
    if dot(gf, fv) != 0:
        raise InputError("transvection axis must be isotropic")
    if dot(gf, ev) != 0:
        raise InputError("transvection vector must be orthogonal to the axis")
    e_sq = dot(ge, ev)
    if e_sq % 2 != 0:
        raise InputError("transvection vector must have even square")
    half = e_sq // 2
    # I + e (Gf)^T - f (Ge)^T - (e.e/2) f (Gf)^T, column j the image of e_j
    n = lattice.rank
    matrix = [
        [(i == j) + ev[i] * gf[j] - fv[i] * (ge[j] + half * gf[j]) for j in range(n)]
        for i in range(n)
    ]
    return isometry_from_matrix(lattice, matrix)


def translation_vectors(surface: LooijengaSurface, fib: EllipticFibration) -> list[Vector]:
    """Classes generating the translation group, in ambient coordinates.

    The fiber is a multiple of the boundary cycle, so the whole boundary
    complement is orthogonal to it.  Strip from the complement everything that
    translates trivially: its radical (which holds every boundary combination
    inside it) and the components of any extra reducible fibers.  A canonical
    complement of that degenerate part is returned; its size always matches
    the computed translation rank, which ``translation_group`` asserts.
    """
    lam = boundary_complement(surface).sublattice
    n = lam.rank
    bad = right_kernel(lam.induced_gram())
    for config in fib.reducible_fibers[1:]:
        for cls in config.classes:
            bad.append(list(lam.coords_of(cls)))
    pres = quotient_presentation(n, saturation([r for r in bad if any(r)], n))
    return [lam.embed(r) for r in transpose(pres.section)]



def translation_combinations(vecs: Sequence[Sequence[int]], radius: int) -> Iterator[list[int]]:
    """Combinations of the translation vectors, ring by ring out to ``radius``
    in the max norm: the order of every translation witness search."""
    if vecs:
        for coeffs in ring_points(len(vecs), radius):
            yield combination(coeffs, vecs)


def move_section(lattice: GramLattice, fib: EllipticFibration, e: Sequence[int]) -> Vector:
    """The zero section translated by e, by the transvection along the fiber."""
    return eichler_transvection(lattice, fib.fiber_class, e).apply(fib.zero_section)

def mw_translation_group(
    surface: LooijengaSurface, fib: EllipticFibration
) -> list[Isometry]:
    """One transvection per translation generator, acting on Picard."""
    return translation_group(surface, fib, translation_vectors(surface, fib))


def translation_group(
    surface: LooijengaSurface, fib: EllipticFibration, vecs: Sequence[Vector]
) -> list[Isometry]:
    """One transvection per given translation vector, acting on Picard."""
    if len(vecs) != fib.mw_rank:
        raise ArithmeticError(
            f"translation generators ({len(vecs)}) disagree with the rank formula ({fib.mw_rank})"
        )
    group = [eichler_transvection(surface.picard, fib.fiber_class, e) for e in vecs]
    for g in group:
        for d in surface.boundary:
            if g.apply(d) != d:
                raise ArithmeticError("translation fails to fix a boundary component")
    return group


def isotropic_transvection_group(sub: Sublattice, f_ambient: Sequence[int]) -> list[Isometry]:
    """Transvection generators along an isotropic class, acting on a sublattice.

    The class must lie in the sublattice and be isotropic there.  One
    transvection is returned per basis vector of a canonical complement of the
    class inside its orthogonal in the sublattice; since transvections with a
    common axis compose by adding their vectors, these generate a free abelian
    group of that rank.
    """
    lat = sub.as_lattice()
    f = list(sub.coords_of(f_ambient))
    if lat.square(f) != 0:
        raise InputError("transvection axis must be isotropic")
    if not any(f):
        raise InputError("transvection axis must be nonzero")
    w_rows = right_kernel([lat.pairing_row(f)])
    gens = complement_basis_within(w_rows, saturation([f], lat.rank))
    return [eichler_transvection(lat, f, e) for e in gens]


def analyze_fibration(surface: LooijengaSurface, phi: PeriodPoint) -> EllipticFibration:
    """Full fibration: boundary fiber, fibers of the complement's kept root cosets, and rank."""
    fib = fiber_from_boundary(surface, phi)
    comp = boundary_complement(surface)
    lam = comp.sublattice
    # read phi in the complement's own basis, in which the roots are enumerated
    phi = PeriodPoint(lam, phi.modulus, tuple(phi.evaluate(b) for b in lam.basis))
    extras = extra_reducible_fibers(lam, fib, phi, comp.roots)
    fibers = fib.reducible_fibers + extras
    mw = shioda_tate_rank(surface.picard_rank, fibers)
    return dataclasses.replace(fib, reducible_fibers=fibers, mw_rank=mw)
