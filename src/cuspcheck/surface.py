"""Rational surfaces carrying an anticanonical cycle of rational curves.

A surface is modeled entirely by lattice data: its Picard lattice (a Gram
lattice), the classes of the boundary cycle components, and the exceptional
classes of any interior blow-ups performed along the way.  Geometry enters
only through the operations:

* ``toric_from_sequence`` builds the smooth complete toric surface whose
  boundary cycle has prescribed self-intersections, presenting Pic as the
  quotient of Z^r by the two character relations of the fan.  The fan has
  v_1 = e_1 and v_2 = e_2, so the relations read D_1 = -sum_{j>2} x_j D_j
  and D_2 = -sum_{j>2} y_j D_j, with v_j = (x_j, y_j): D_3, ..., D_r are a
  basis of Pic, and no elimination is needed.
* ``interior_blowup`` adds an exceptional class orthogonal to everything,
  replacing the chosen boundary component by its strict transform.
* ``blow_down`` contracts a (-1)-class meeting the cycle once, projecting
  Picard onto the saturated orthogonal complement.

Every surface is rational by type, as every value holds its invariant where
it enters (``lattice``): the public ``LooijengaSurface(...)``, which the JSON
decoder calls, checks that the boundary classes form a cycle, that each
history class is a (-1)-class meeting its recorded component once and no
other, and that Pic is the Picard lattice of a rational surface with
K = -D: Noether's n + D.D = 10 and the Hodge index signature (1, n - 1).
Every other surface is derived by a formula that proves those facts
(``_derived``).  The toric seed's fan relations annihilate the cycle Gram,
and its fan winds once (``toric_from_sequence``).  Blowing up adds E
orthogonal to the old lattice, so every old pairing stays, save that the
blown-up component's square drops by 1 and it meets E once.  Blowing down
a (-1)-class v that meets one component once maps b to b + (v.b) v, which
changes only that component's square; a kept history class lies in v^perp
(else its coordinates are refused), so its pairings stay too.  A (-1)-class
v splits off Zv, so the rank and the signature's negative part move by
one, and D.D by one the other way.

A blow-down at v needs no elimination when the last nonzero entry p_l of
v's Gram row p is a unit: the canonical (Hermite) kernel basis of v^perp is
then e_i - p_l p_i e_l for i != l, a class in v^perp has as coordinates its
entries other than l, and the new Gram is G_ij - p_l (p_i G_lj + p_j G_il) +
p_i p_j G_ll.  Undoing the last blow-up, v = e_n with p_n = v.v = -1, is
one such case.

The boundary cycle has self-intersection sum 12 - 3r on a toric seed (an
exact-winding certificate for the fan) and drops by one per interior blow-up.
Everything downstream is read off the boundary complement, which each surface
works out once and keeps (``boundary_complement``).  Each exceptional class
E pairs with its own component alone, to +1, so a blown-up surface's
boundary pairing rows end in unit columns, and ``orthogonal_complement``
reads the complement off them with no Hermite form of Pic.  Pic's Gram is
nondegenerate, so the boundary's span rank is read off the complement's
rank, not eliminated.  A cycle of (-2)-classes, or a negative definite one
(``_cycle_shape``), proves the signature and radical of the complement,
which its induced lattice is handed (``boundary_complement``).  That
lattice keeps its root system, enumerated once (``BoundaryComplement.roots``),
and a period from outside is read on its basis once, where it enters
(``complement_period``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .enumeration import EnumerationResult, vectors_of_square
from .errors import InputError
from .intcore import check_vector, dot, transpose
from .intlinalg import combination, saturation
from .lattice import (
    GramLattice,
    Signature,
    Sublattice,
    Vector,
    _unchecked,
    definiteness,
    orthogonal_complement,
    signature,
)
from .period import PeriodPoint

NOT_RATIONAL = "not the Picard lattice of a rational surface"


@dataclass(frozen=True)
class LooijengaSurface:
    """Lattice model of a pair (surface, anticanonical cycle)."""

    picard: GramLattice
    boundary: tuple[Vector, ...]
    history: tuple[tuple[int, Vector], ...] = ()
    # filled by boundary_complement on first use, like GramLattice._signature
    _complement: BoundaryComplement | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # one Gram matrix of the boundary and history classes answers every check
        gram = self.picard.gram_of([*self.boundary, *(cls for _, cls in self.history)])
        r = len(self.boundary)
        if r < 3:
            raise InputError("boundary cycle needs at least three components")
        for i in range(r):
            for j in range(i + 1, r):
                expected = 1 if (j - i == 1 or j - i == r - 1) else 0
                if gram[i][j] != expected:
                    raise InputError("boundary classes do not form a cycle")
        for k, (comp, _) in enumerate(self.history, start=r):
            if not (1 <= comp <= r):
                raise InputError("history component index out of range")
            if gram[k][k] != -1:
                raise InputError("history class is not a (-1)-class")
            if gram[k][:r] != [int(j == comp - 1) for j in range(r)]:
                raise InputError("history class does not meet its recorded component once")
        # Noether's formula with K = -D, and the Hodge index theorem
        n = self.picard.rank
        if n + self.boundary_self_intersection() != 10 or self.picard.signature != (1, n - 1, 0):
            raise InputError(NOT_RATIONAL)
        object.__setattr__(self, "_complement", None)

    @property
    def r(self) -> int:
        return len(self.boundary)

    @property
    def picard_rank(self) -> int:
        return self.picard.rank

    def self_intersections(self) -> tuple[int, ...]:
        return tuple(self.picard.square(b) for b in self.boundary)

    def boundary_sum(self) -> Vector:
        return tuple(combination([1] * self.r, self.boundary))

    def boundary_self_intersection(self) -> int:
        return self.picard.square(self.boundary_sum())


def fan_from_sequence(self_ints: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Rays of the smooth complete fan with the given boundary squares.

    v_1 = (1,0), v_2 = (0,1), v_{i+1} = -a_i v_i - v_{i-1}; the sequence must
    close up cyclically (v_{r+1} = v_1, v_{r+2} = v_2) and wind exactly once,
    which for smooth complete fans is the identity sum(a_i) = 12 - 3r.
    """
    a = [int(x) for x in self_ints]
    r = len(a)
    if r < 3:
        raise InputError("need at least three boundary components")
    rays = [(1, 0), (0, 1)]
    for i in range(1, r + 1):
        vi = rays[i]
        vim1 = rays[i - 1]
        ai = a[i % r]  # a_{i+1} in 1-based terms
        rays.append((-ai * vi[0] - vim1[0], -ai * vi[1] - vim1[1]))
    if rays[r] != rays[0] or rays[r + 1] != rays[1]:
        raise InputError("self-intersection sequence does not close into a fan")
    if sum(a) != 12 - 3 * r:
        raise InputError(
            "sequence closes but winds more than once; not a complete fan"
        )
    return tuple(rays[:r])


def _cycle_gram(a: Sequence[int]) -> list[list[int]]:
    r = len(a)
    g = [[0] * r for _ in range(r)]
    for i in range(r):
        g[i][i] = a[i]
        g[i][(i + 1) % r] += 1
        g[(i + 1) % r][i] += 1
    return g


def toric_from_sequence(self_ints: Sequence[int]) -> LooijengaSurface:
    """Toric surface with boundary the torus-invariant cycle.

    Pic is presented as Z^r modulo the two relations sum_i <m, v_i> D_i = 0
    (m the character basis); the quotient is free of rank r - 2 and carries
    the cycle pairing, which the relations annihilate.  With v_1 = e_1 and
    v_2 = e_2 the relations read D_1 = -sum_{j>2} x_j D_j and
    D_2 = -sum_{j>2} y_j D_j, v_j = (x_j, y_j), so D_3, ..., D_r are a basis:
    Pic's Gram is the cycle Gram's trailing (r-2) x (r-2) block, D_1 and D_2
    have coordinates (-x_3, ..., -x_r) and (-y_3, ..., -y_r), and D_j is the
    unit vector e_{j-2}.  With the relations checked, D_i.D_j is the cycle
    Gram's entry, so the classes form a cycle: no ``LooijengaSurface`` check.
    The fan winds once, so D.D = sum(a_i) + 2r = 12 - r meets Noether's
    formula on rank r - 2, and a smooth complete toric surface is rational.
    """
    a = [int(x) for x in self_ints]
    rays = fan_from_sequence(a)
    r = len(a)
    cycle = _cycle_gram(a)
    for rel in transpose(rays):
        if any(dot(row, rel) for row in cycle):
            raise ArithmeticError("fan relations do not annihilate the cycle pairing")
    rho = r - 2
    labels = tuple(f"T{k + 1}" for k in range(rho))
    # a symmetric block of the symmetric cycle Gram
    gram = tuple(tuple(row[2:]) for row in cycle[2:])
    boundary = (
        tuple(-x for x, _ in rays[2:]),
        tuple(-y for _, y in rays[2:]),
        *(tuple(int(i == j) for i in range(rho)) for j in range(rho)),
    )
    return _derived(gram, labels, boundary, ())


def interior_blowup(surface: LooijengaSurface, component: int) -> LooijengaSurface:
    """Blow up an interior point of the given boundary component (1-based).

    The Picard lattice gains an orthogonal (-1)-class E; the component's class
    becomes its strict transform (old class minus E), dropping its square by 1.
    """
    if not (1 <= component <= surface.r):
        raise InputError(f"component index must be in 1..{surface.r}")
    old = surface.picard
    n = old.rank
    gram = tuple(tuple(row) + (0,) for row in old.gram) + ((0,) * n + (-1,),)
    k = len(surface.history) + 1
    labels = tuple(old.basis_labels or (f"B{i + 1}" for i in range(n))) + (f"E{k}",)
    boundary = tuple(
        tuple(b) + (-1 if i == component - 1 else 0,) for i, b in enumerate(surface.boundary)
    )
    history = tuple((comp, tuple(cls) + (0,)) for comp, cls in surface.history)
    return _derived(gram, labels, boundary, history + ((component, (0,) * n + (1,)),))


class BlowDownResult(NamedTuple):
    surface: LooijengaSurface
    embedding: tuple[Vector, ...]  # rows: new basis vectors in old coordinates


def blow_down(surface: LooijengaSurface, cls: Sequence[int]) -> LooijengaSurface:
    return blow_down_with_embedding(surface, cls).surface


def contraction_meets(surface: LooijengaSurface, v: Sequence[int]) -> list[int]:
    """The pairings of v with the boundary components, once v is checked to be
    a (-1)-class meeting exactly one of them, with multiplicity 1."""
    if surface.picard.square(v) != -1:
        raise InputError("blow-down class must have square -1")
    meets = [surface.picard.pair(v, b) for b in surface.boundary]
    if [t for t in meets if t] != [1]:
        raise InputError(
            "blow-down class must meet exactly one boundary component with multiplicity 1"
        )
    return meets


def blow_down_with_embedding(
    surface: LooijengaSurface, cls: Sequence[int]
) -> BlowDownResult:
    """Contract a (-1)-class meeting the boundary cycle transversally once.

    Picard becomes v^perp on the canonical ``right_kernel`` basis of v's Gram
    row p, read off in closed form when p's last nonzero entry is a unit
    (module docstring) and as ``orthogonal_complement(picard, [v])`` otherwise.
    Boundary components map to b + (v.b) v, so the met one gains +1
    self-intersection.  When v is the last recorded exceptional class and
    the last basis vector, as ``interior_blowup`` leaves it, the result is
    the exact inverse of the blow-up, keeping the labels and popping the
    history; for any other class it has no labels and no history.  The
    embedding rows are the new basis in old coordinates.
    """
    picard = surface.picard
    v = check_vector(picard.gram, cls)
    meets = contraction_meets(surface, v)
    n = picard.rank
    p = picard.pairing_row(v)
    projections = [combination([1, t], [b, v]) for b, t in zip(surface.boundary, meets)]
    l = max(i for i, x in enumerate(p) if x)  # p.v = -1, so p is not zero
    if p[l] not in (1, -1):
        perp = orthogonal_complement(picard, [v])
        boundary = tuple(map(perp.coords_of, projections))
        gram = perp.as_lattice().gram
        return BlowDownResult(_derived(gram, None, boundary, ()), perp.basis)
    labels, history = None, ()
    if surface.history and surface.history[-1][1] == v == tuple([0] * (n - 1) + [1]):
        # l = n - 1: the labels and the older history classes drop their last
        # entry; a kept class has coordinates only on v^perp (coords_of's refusal)
        if any(dot(p, c) for _, c in surface.history[:-1]):
            raise InputError("vector does not lie in the sublattice")
        labels = picard.basis_labels and picard.basis_labels[:l]
        history = tuple((comp, tuple(c[:l])) for comp, c in surface.history[:-1])
    # the basis e_i - p_l p_i e_l for i != l, on which a class in v^perp drops entry l
    keep = [i for i in range(n) if i != l]
    g, c = picard.gram, p[l]
    gram = tuple(
        tuple(g[i][j] - c * (p[i] * g[l][j] + p[j] * g[i][l]) + p[i] * p[j] * g[l][l] for j in keep)
        for i in keep
    )
    boundary = tuple(tuple(x[:l] + x[l + 1:]) for x in projections)
    embedding = tuple(tuple(int(j == i) - c * p[i] * (j == l) for j in range(n)) for i in keep)
    return BlowDownResult(_derived(gram, labels, boundary, history), embedding)


def _derived(gram, labels, boundary, history) -> LooijengaSurface:
    """A toric, blown-up or blown-down surface and its Gram lattice, built
    without the checks its formula has proven, and handed the signature
    (1, n - 1) that it proves too (module docstring)."""
    sig = Signature(1, len(gram) - 1, 0)
    picard = _unchecked(GramLattice, gram=gram, basis_labels=labels, _signature=sig)
    return _unchecked(LooijengaSurface, picard=picard, boundary=boundary, history=history)


@dataclass(frozen=True)
class BoundaryComplement:
    """D^perp in Picard.  ``roots``, its square -2 classes in sublattice
    coordinates, reads the enumeration its induced lattice keeps."""

    sublattice: Sublattice
    kernel_rank: int  # rank of the kernel of Z^r -> Pic sending e_i to D_i

    @property
    def roots(self) -> EnumerationResult:
        return vectors_of_square(self.sublattice.as_lattice(), -2)


def boundary_complement(surface: LooijengaSurface) -> BoundaryComplement:
    """Sublattice of Picard orthogonal to every boundary component.

    Also reports the kernel rank s of the span map.  Pic's Gram is
    nondegenerate (``LooijengaSurface``), so the boundary classes B and their
    pairing rows B.G have one rank: the span rank is n - k for a complement
    of rank k, and s = r - n + k, which Noether's n + D.D = 10 makes the
    rank formula k = 10 - D.D - r + s.  The result is kept on the surface,
    so every later call returns the same object.

    Pic has signature (1, n - 1), so the two cycle shapes of the paper's
    surfaces (Y and Y2, and S~) prove the form of the complement M
    (Looijenga 1981; Gross-Hacking-Keel 2015), and its induced lattice is
    built with that signature and radical (``_hand_cycle_facts``):

    * every square -2 and D != 0: D_i.D = D_i^2 + 2 = 0 on a cycle, so the
      nonzero isotropic D lies in M and pairs to zero with all of it.  In a
      (1, n - 1) space D^perp is negative semidefinite with radical Q.D, so
      M has signature (0, k - 1, 1) and radical spanned by the primitive,
      sign-normalized coordinates of D, the basis a rank-one
      ``right_kernel`` gives;
    * every square <= -2 and one <= -3: -x^T B x = sum (-a_i - 2) x_i^2 +
      sum (x_i - x_{i+1})^2 over the cycle vanishes only at x = 0, so the
      boundary span is negative definite of rank r, and M, its orthogonal
      complement over Q, has signature (1, k - 1, 0) and no radical.

    Any other surface works both out on first use.
    """
    if surface._complement is None:
        sub = orthogonal_complement(surface.picard, surface.boundary)
        _hand_cycle_facts(surface, sub)
        s = surface.r - surface.picard_rank + sub.rank
        object.__setattr__(surface, "_complement", BoundaryComplement(sub, s))
    return surface._complement


def _cycle_shape(squares: Sequence[int]) -> str | None:
    """The definiteness a cycle of component squares ``squares`` proves for
    its Gram: a (-2)-cycle is semidefinite with a radical, and squares <= -2
    with one <= -3 are negative definite (``boundary_complement``)."""
    if max(squares) == min(squares) == -2:
        return "negative_semidefinite_degenerate"
    if max(squares) <= -2 and min(squares) <= -3:
        return "negative_definite"
    return None


def _hand_cycle_facts(surface: LooijengaSurface, sub: Sublattice) -> None:
    """Build the induced lattice of ``sub``, the boundary complement, with
    the signature and radical of its cycle's shape (``boundary_complement``);
    any other shape leaves both lazy."""
    k = sub.rank
    shape = _cycle_shape(surface.self_intersections())
    if shape == "negative_semidefinite_degenerate" and any(d := surface.boundary_sum()):
        rad = saturation([list(sub.coords_of(d))], k)
        sub.as_lattice(Signature(0, k - 1, 1), tuple(map(tuple, rad)))
    elif shape == "negative_definite":
        sub.as_lattice(Signature(1, k - 1, 0), ())


def complement_period(surface: LooijengaSurface, phi: PeriodPoint) -> PeriodPoint | None:
    """phi read on the basis of the boundary complement of ``surface``, or
    None when phi's domain is not that complement on any basis.  Two surfaces
    can share a Picard Gram matrix and still have different boundaries, hence
    different complements."""
    domain, lam = phi.domain, boundary_complement(surface).sublattice
    # both sublattices are saturated: equal rank and containment make them equal
    if domain.ambient.gram != surface.picard.gram or domain.rank != lam.rank:
        return None
    if not all(map(lam.contains, domain.basis)):
        return None
    return PeriodPoint(lam, phi.modulus, tuple(map(phi.evaluate, lam.basis)))


@dataclass(frozen=True)
class BoundaryClassification:
    """``boundary_definiteness``'s reading of the boundary Gram and its combinatorial cross-check."""

    classification: str
    radical_rank: int
    criterion_applicable: bool
    criterion_agrees: bool | None


def boundary_definiteness(surface: LooijengaSurface) -> BoundaryClassification:
    """Definiteness of the boundary Gram, cross-checked combinatorially.

    The combinatorial rule is ``_cycle_shape``, valid when no component is
    a (-1)-curve; where it names no shape, the Gram must not be negative
    definite.
    """
    squares = surface.self_intersections()
    gram = surface.picard.gram_of(surface.boundary)
    lat = _unchecked(GramLattice, gram=tuple(map(tuple, gram)))
    classification = definiteness(lat)
    applicable = all(q != -1 for q in squares)
    agrees: bool | None = None
    if applicable:
        verdict = _cycle_shape(squares)
        agrees = verdict == classification if verdict else classification != "negative_definite"
    return BoundaryClassification(classification, signature(lat).null, applicable, agrees)


def surface_invariants(surface: LooijengaSurface) -> dict:
    return {
        "picard_rank": surface.picard_rank,
        "components": surface.r,
        "self_intersections": list(surface.self_intersections()),
        "boundary_square": surface.boundary_self_intersection(),
        "blowups": len(surface.history),
    }
