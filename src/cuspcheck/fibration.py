"""Genus-one fibrations read off from the boundary cycle.

When every boundary component is a (-2)-class the cycle supports a fibration
whose fiber class is the smallest multiple of the cycle sum killed by the
period point.  This module classifies reducible fiber configurations by their
intersection graphs, computes Mordell-Weil rank through the rank bookkeeping
formula, and realizes the translation action of orthogonal classes as
transvections on the Picard lattice.
A period comes on the complement's basis, in which the roots are enumerated
(``surface.complement_period``), and a fact a formula proves is not re-checked.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, Sequence

from .enumeration import EnumerationResult
from .errors import InputError
from .intcore import check_vector, dot, rank_int, sign_normalized
from .intlinalg import combination, ring_points, saturation
from .isometry import Isometry
from .lattice import (
    GramLattice,
    Sublattice,
    Vector,
    _unchecked,
    orthogonal_complement,
    saturated_complement,
)
from .period import PeriodPoint, is_generic
from .surface import LooijengaSurface, boundary_complement


@dataclass(frozen=True)
class FiberConfiguration:
    """A reducible fiber: its component classes, their multiplicities and its Kodaira type."""

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
    cls = [check_vector(lattice.gram, c) for c in classes]
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
    config = _unchecked(GramLattice, gram=tuple(map(tuple, b)))
    sig = config.signature
    if sig.positive > 0:
        raise InputError("configuration pairing is not negative semidefinite")
    if sig.null == 0:
        raise InputError("not a full fiber: configuration is negative definite")
    if sig.null != 1:
        raise InputError("configuration radical has rank > 1")
    mult = list(sign_normalized(config.radical[0]))
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


def fiber_multiple(squares: Iterable[int], d: Vector, phi: PeriodPoint, has_section: bool) -> int:
    """The multiple m = modulus / gcd(modulus, phi(d)) of a boundary cycle of
    component squares ``squares`` and sum d as a fiber: every square is -2,
    and m = 1 needs a recorded exceptional class (``has_section``) as the
    zero section.  phi reads d only once the squares pass."""
    if any(a != -2 for a in squares):
        raise InputError("boundary is not of fiber type: a component is not a (-2)-class")
    m = phi.modulus // gcd(phi.modulus, phi.evaluate(d))
    if m == 1 and not has_section:
        raise InputError("no exceptional class recorded to serve as the zero section")
    return m


def fiber_from_boundary(surface: LooijengaSurface, phi: PeriodPoint) -> EllipticFibration:
    """Base fibration whose reducible fibers are just the boundary cycle.

    Requires every boundary component to be a (-2)-class.  The fiber multiple
    is the order of the period value on the boundary sum; a section exists
    exactly when that value vanishes, and then the most recent exceptional
    class is the zero section.

    The boundary fiber is I_r with every multiplicity 1, read off without
    ``classify_configuration``: every surface's boundary is a cycle of r >= 3
    classes (its constructor checks it, and a blow-up or blow-down formula
    keeps it), so with every square -2 its Gram matrix is minus the Cartan
    matrix of the affine diagram A~_{r-1}.  That matrix is negative
    semidefinite, since x^T B x = -sum_i (x_i - x_{i+1})^2 over the cycle,
    and vanishes exactly on the constant vectors: its radical is spanned by
    (1, ..., 1), the primitive positive multiplicity vector of I_r.
    """
    d = surface.boundary_sum()
    m = fiber_multiple(surface.self_intersections(), d, phi, bool(surface.history))
    f = tuple(m * x for x in d)
    # the surface checks that its last exceptional class is a (-1)-class meeting D = f once
    zero_section = surface.history[-1][1] if m == 1 else None
    boundary_fiber = FiberConfiguration(surface.boundary, (1,) * surface.r, f"I{surface.r}")
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
    # phi kills f by the fiber multiple and c1 by the choice of shift, so c2 too
    c2 = tuple(fx - cx for fx, cx in zip(fib.fiber_class, c1))
    return (classify_configuration(lam.ambient, (c1, c2)),)


def eichler_transvection(
    lattice: GramLattice, f: Sequence[int], e: Sequence[int]
) -> Isometry:
    """Transvection x -> x + (x.f)e - (x.e)f - (e.e/2)(x.f)f.

    Needs f isotropic, e orthogonal to f, and e of even square; then the map
    is an isometry fixing f, and composing two transvections with the same f
    adds their e-vectors (exactly, with no correction term).  Those three
    checks prove the formula an isometry, built with no Gram check.

    The formula also proves the fixed isotropic line, which the result
    carries for ``classify_isometry``: N = T - 1 has N f = 0, N e = -(e.e) f
    and so N^2 x = -(e.e)(x.f) f.  When e.e != 0 and f pairs nonzero with
    some x (Gf != 0), N^2 != 0 = N^3 and its image is Q f, so the line is
    the primitive, sign-normalized f that ``checker.unipotent_line`` reads
    off the matrix.  Otherwise N^2 = 0 and T carries no line (T = 1 when e
    lies in Q f).
    """
    fv = check_vector(lattice.gram, f)
    ev = check_vector(lattice.gram, e)
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
    matrix = tuple(
        tuple((i == j) + ev[i] * gf[j] - fv[i] * (ge[j] + half * gf[j]) for j in range(n))
        for i in range(n)
    )
    line = tuple(saturation([list(fv)], n)[0]) if e_sq and any(gf) else None
    return _unchecked(Isometry, ambient=lattice, matrix=matrix, _line=line)


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
    bad = [list(r) for r in lam.as_lattice().radical]
    for config in fib.reducible_fibers[1:]:
        for cls in config.classes:
            bad.append(list(lam.coords_of(cls)))
    trivial = saturation(bad, lam.rank)  # saturated by construction
    return [lam.embed(r) for r in saturated_complement(lam.as_lattice(), trivial)]


def translation_combinations(vecs: Sequence[Sequence[int]], radius: int) -> Iterator[list[int]]:
    """Combinations of the translation vectors, ring by ring out to ``radius``
    in the max norm: the order of every translation witness search."""
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
    """One transvection per given translation vector, acting on Picard; each
    fixes every boundary component d_i, as e lies in D^perp and f = mD has
    D.d_i = 0 on a cycle of r >= 3 (-2)-classes."""
    if len(vecs) != fib.mw_rank:
        raise ArithmeticError(
            f"translation generators ({len(vecs)}) disagree with the rank formula ({fib.mw_rank})"
        )
    return [eichler_transvection(surface.picard, fib.fiber_class, e) for e in vecs]


def isotropic_transvection_group(sub: Sublattice, f_ambient: Sequence[int]) -> list[Isometry]:
    """Transvection generators along an isotropic class, acting on a sublattice.

    The class must lie in the sublattice; both callers pass a fiber class,
    and ``eichler_transvection`` checks that it is isotropic.  One
    transvection is returned per basis vector of a canonical complement of the
    class inside its orthogonal in the sublattice; since transvections with a
    common axis compose by adding their vectors, these generate a free abelian
    group of that rank.
    """
    lat = sub.as_lattice()
    f = list(sub.coords_of(f_ambient))
    w = orthogonal_complement(lat, [f])
    gens = saturated_complement(w.as_lattice(), saturation([list(w.coords_of(f))], w.rank))
    return [eichler_transvection(lat, f, w.embed(e)) for e in gens]


def analyze_fibration(surface: LooijengaSurface, phi: PeriodPoint) -> EllipticFibration:
    """Full fibration: boundary fiber, fibers of the complement's kept root cosets, and rank."""
    fib = fiber_from_boundary(surface, phi)
    comp = boundary_complement(surface)
    lam = comp.sublattice
    if phi.domain.basis != lam.basis:
        raise InputError("period domain is not on the boundary complement's basis")
    extras = extra_reducible_fibers(lam, fib, phi, comp.roots)
    fibers = fib.reducible_fibers + extras
    mw = shioda_tate_rank(surface.picard_rank, fibers)
    return dataclasses.replace(fib, reducible_fibers=fibers, mw_rank=mw)
