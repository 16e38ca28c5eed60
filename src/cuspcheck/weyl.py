"""Reflection groups, chamber walks, and the non-arithmeticity certificate.

The headline check is ``totaro_check``: given a hyperbolic lattice M of
signature (1, m) with m >= 3, a commuting family of m-1 independent parabolic
isometries, an infinite reflection group witnessed by two roots with pairing
at least 2 in absolute value, and a second parabolic whose fixed isotropic
line differs from the family's, the symmetry group certified by these
witnesses cannot be commensurable with an arithmetic group.  That criterion
is an axiom of the checker; everything this module does is verify its
hypotheses by exact integer computation and package the witnesses.

Infinitude of the reflection group is made finite-size checkable by a chamber
walk: words in two reflections applied to a base point of positive square,
whose sign vectors against the orbit's wall list are pairwise distinct.  Each
new sign vector is a chamber no shorter word reaches, so N distinct vectors
certify at least N distinct group elements.  The base point is constructed,
not searched for, and only pairs generating an infinite group are walked.
A certificate holds only the witnesses (walls, points, requested count);
``totaro_check`` alone computes their sign vectors and counts the chambers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError
from .fibration import EllipticFibration, eichler_transvection
from .intlinalg import combination, dot, rank_int, ring_points, snf_transform, solve_int
from .isometry import Isometry, classify_isometry, isometry_from_matrix
from .lattice import GramLattice, Sublattice, Vector, signature
from .period import PeriodPoint
from .surface import LooijengaSurface, boundary_complement


def reflect(lattice: GramLattice, alpha: Sequence[int], x: Sequence[int]) -> Vector:
    """Reflection in a (-2)-root: x -> x + (x.alpha) alpha."""
    a = lattice.check_vector(alpha)
    if lattice.square(a) != -2:
        raise InputError("reflection requires a root of square -2")
    xv = lattice.check_vector(x)
    c = lattice.pair(xv, a)
    return tuple(xi + c * ai for xi, ai in zip(xv, a))


def reflection_isometry(lattice: GramLattice, alpha: Sequence[int]) -> Isometry:
    """The reflection in a (-2)-root as the matrix I + alpha (G alpha)^T."""
    a = lattice.check_vector(alpha)
    ga = lattice.pairing_row(a)
    if dot(ga, a) != -2:
        raise InputError("reflection requires a root of square -2")
    n = lattice.rank
    matrix = [[(i == j) + a[i] * ga[j] for j in range(n)] for i in range(n)]
    return isometry_from_matrix(lattice, matrix)


def dihedral_order(
    lattice: GramLattice, alpha: Sequence[int], beta: Sequence[int]
) -> int | float:
    """Order of the composite of the two root reflections.

    Proportional roots give the identity (order 1).  Otherwise the composite
    acts on the rank-2 span with trace (alpha.beta)^2 - 2, so pairings 0 and 1
    give orders 2 and 3, and |pairing| >= 2 gives infinite order (trace >= 2
    means unipotent-or-hyperbolic on the span, and the unipotent part is
    nontrivial).
    """
    a = lattice.check_vector(alpha)
    b = lattice.check_vector(beta)
    for v in (a, b):
        if lattice.square(v) != -2:
            raise InputError("dihedral order requires roots of square -2")
    if b == a or b == tuple(-x for x in a):
        return 1
    p = abs(lattice.pair(a, b))
    if p == 0:
        return 2
    if p == 1:
        return 3
    return math.inf


def chamber_sign(
    lattice: GramLattice, x: Sequence[int], roots: Sequence[Sequence[int]]
) -> tuple[int, ...]:
    """Sign vector of a positive-square class against an ordered wall list."""
    gx = lattice.pairing_row(x)
    if dot(gx, x) <= 0:
        raise InputError("vector is not in the positive cone")
    for r in roots:
        if len(r) != lattice.rank:
            lattice.check_vector(r)  # raises, naming both lengths
    out = []
    for r in roots:
        p = dot(gx, r)
        out.append(1 if p > 0 else (-1 if p < 0 else 0))
    return tuple(out)


@dataclass(frozen=True)
class ChamberCertificate:
    """A finite witness that two reflections generate an infinite group.

    ``roots`` are the walls crossed by the alternating word, ``points`` the
    base point followed by its reflection in each wall in turn, and
    ``requested`` the number of walls asked for.  The chambers of the points
    are not stored: ``totaro_check`` computes them.
    """

    roots: tuple[Vector, ...]
    points: tuple[Vector, ...]
    requested: int


def _wedge_point(lattice: GramLattice, alpha: Sequence[int], beta: Sequence[int]) -> Vector:
    """Positive-square point pairing strictly positively with alpha and +-beta.

    The roots must generate an infinite dihedral group; beta is negated if
    needed so that p = alpha.beta >= 2.  For p > 2, alpha+beta has square
    2p - 4 and pairs p - 2 with each root.  For p = 2 it is isotropic
    and orthogonal to both; a y with y.alpha = y.beta = d > 0 exists for d the
    larger invariant factor of the two Gram rows, and c(alpha+beta) + y has
    square 4cd + y.y > 0.
    """
    p = lattice.pair(alpha, beta)
    if p < 0:
        p, beta = -p, tuple(-b for b in beta)
    s = tuple(a + b for a, b in zip(alpha, beta))
    if p > 2:
        return s
    rows = [lattice.pairing_row(alpha), lattice.pairing_row(beta)]
    d = snf_transform(rows)[0][1][1]
    y = solve_int(rows, [d, d])
    c = -lattice.square(y) // (4 * d) + 1
    return tuple(c * si + yi for si, yi in zip(s, y))


def chamber_certificate(
    lattice: GramLattice,
    alpha: Sequence[int],
    beta: Sequence[int],
    witness_count: int = 100,
) -> ChamberCertificate:
    """Walk the alternating word in two reflections, starting in the wedge.

    The walls follow the reflection recurrence w_0 = alpha, w_1 = s_alpha(beta),
    w_{k+1} = -s_{w_k}(w_{k-1}): wall k is the k-th letter moved by the word
    of the k letters before it.  Point k+1 is point k reflected in wall k.
    Only the walk is built here; that its sign vectors avoid every wall and
    are pairwise distinct is checked by ``totaro_check``, not assumed.  The
    lattice must be hyperbolic: with a radical present, an infinite dihedral
    pair can act by translations along it, which the pairing (and hence every
    sign vector) cannot see.
    """
    if witness_count < 1:
        raise InputError("witness count must be at least 1")
    sig = signature(lattice)
    if sig.positive != 1 or sig.null != 0:
        raise InputError("chamber walks need a nondegenerate lattice of signature (1, n)")
    if dihedral_order(lattice, alpha, beta) != math.inf:
        raise InputError("chamber walks need two roots generating an infinite dihedral group")
    walls = [tuple(alpha), reflect(lattice, alpha, beta)]
    while len(walls) < witness_count:
        walls.append(tuple(-c for c in reflect(lattice, walls[-1], walls[-2])))
    del walls[witness_count:]
    # A base in the fundamental wedge meets no mirror of the group, so the
    # k-th point is separated from the start by exactly the first k walls.
    points = [_wedge_point(lattice, alpha, beta)]
    for w in walls:
        points.append(reflect(lattice, w, points[-1]))
    return ChamberCertificate(roots=tuple(walls), points=tuple(points), requested=witness_count)


@dataclass(frozen=True)
class WeylCertificate:
    """Two sections through one boundary point, turned into hyperbolic roots.

    ``root1``/``root2`` are the strict transforms of the two sections in the
    coordinates of the boundary complement of the blown-up surface, and
    ``chamber`` is the walk of their alternating word.  Their pairing and
    dihedral order are read off the roots, not stored.
    """

    root1: Vector
    root2: Vector
    chamber: ChamberCertificate


def _translation_witness(
    lattice: GramLattice, phi: PeriodPoint, translations: Sequence[Sequence[int]]
) -> list[int]:
    """First combination e with e.e <= -8 and phi(e) = 0, ring by ring.

    Every e is nonzero modulo the radical of an even negative semidefinite
    lattice, so e.e <= -2 and m*e (2*e when m = 1) is a hit: the rings up to
    max(m, 2) always hold one.
    """
    for coeffs in ring_points(len(translations), max(phi.modulus, 2)):
        e = combination(coeffs, translations)
        if lattice.square(e) <= -8 and phi.evaluate(e) == 0:
            return e
    raise InputError("certificate search exhausted: translation classes must have square <= -2")


def weyl_infiniteness_certificate(
    surface: LooijengaSurface,
    phi: PeriodPoint,
    fib: EllipticFibration,
    translations: Sequence[Sequence[int]],
    witness_count: int = 100,
) -> WeylCertificate:
    """Certify an infinite reflection group on the blown-up boundary complement.

    ``surface`` is the blow-up of the fibration's surface at the point where
    the zero section meets the boundary, with the exceptional class last in
    the history.  The second section is the image of the zero section under a
    translation combination e with residue phi(e) = 0 (so the moved section
    still passes through the blown-up point) and square at most -8 (so the two
    strict transforms pair to at least 2).
    """
    if not surface.history:
        raise InputError("blown-up surface must record its exceptional class")
    n = surface.picard.rank
    e_p = surface.history[-1][1]
    if e_p != tuple([0] * (n - 1) + [1]):
        raise InputError("exceptional class must be the final basis vector")
    c0 = fib.zero_section
    if c0 is None:
        raise InputError("certificate needs a fibration with a section")
    if len(c0) != n - 1:
        raise InputError("fibration does not match the surface being blown up")
    if not translations:
        raise InputError("certificate needs at least one translation class")
    old = phi.domain.ambient
    mover = eichler_transvection(old, fib.fiber_class, _translation_witness(old, phi, translations))
    c2 = mover.apply(c0)
    if old.square(c2) != -1 or phi.evaluate([a - b for a, b in zip(c2, c0)]) != 0:
        raise ArithmeticError("moved section is not a section through the blown-up point")

    m_sub = boundary_complement(surface).sublattice
    a1 = tuple(list(c0) + [-1])
    a2 = tuple(list(c2) + [-1])
    for a in (a1, a2):
        if surface.picard.square(a) != -2:
            raise ArithmeticError("strict transform of a section is not a root")
        if not m_sub.contains(a):
            raise InputError(
                "blown-up point does not lie on the zero section's boundary component"
            )
    m_lat = m_sub.as_lattice()
    r1 = m_sub.coords_of(a1)
    r2 = m_sub.coords_of(a2)
    if abs(m_lat.pair(r1, r2)) < 2:
        raise ArithmeticError("certificate roots pair below the infinite-order threshold")
    chamber = chamber_certificate(m_lat, r1, r2, witness_count=witness_count)
    return WeylCertificate(root1=r1, root2=r2, chamber=chamber)


@dataclass(frozen=True)
class CriterionReport:
    signature_ok: bool
    rank_ok: bool
    zmminus1_ok: bool
    weyl_infinite_ok: bool
    disjoint_parabolics_ok: bool
    verdict: bool
    witnesses: dict


ASSUMPTIONS = (
    "identifying the symmetry group with its image in the isometry group "
    "uses virtual torsion-freeness of the latter; recorded, not checked",
    "square -2 classes with trivial period residue are taken to be classes "
    "of actual curves; the lattice-level certificate is valid regardless",
)


def _parabolic_lines(
    lat: GramLattice, family: Sequence[Isometry], member: str
) -> list[Vector] | None:
    """Fixed isotropic lines of a family, or None once a member is not parabolic."""
    lines = []
    for g in family:
        if g.ambient.gram != lat.gram:
            raise InputError(f"{member} does not act on the criterion lattice")
        kind = classify_isometry(g)
        if kind.tag != "parabolic":
            return None
        lines.append(kind.fixed_isotropic)
    return lines


def _walk_chambers(lat: GramLattice, r1: Vector, r2: Vector, cert: ChamberCertificate) -> int:
    """Distinct chambers the walk visits; 0 unless it is the alternating word
    in the roots r1, r2 with every point of positive square and off every wall."""
    walls, points = cert.roots, cert.points
    if not walls or len(points) != len(walls) + 1:
        return 0
    if any(len(v) != lat.rank for v in (*walls, *points)):
        return 0
    if any(lat.square(w) != -2 for w in walls):
        return 0
    if walls[0] != tuple(r1) or (len(walls) > 1 and walls[1] != reflect(lat, r1, r2)):
        return 0
    for k in range(1, len(walls) - 1):
        if walls[k + 1] != tuple(-c for c in reflect(lat, walls[k], walls[k - 1])):
            return 0
    if any(points[k + 1] != reflect(lat, w, points[k]) for k, w in enumerate(walls)):
        return 0
    signs = set()
    for p in points:
        if lat.square(p) <= 0:
            return 0
        sv = chamber_sign(lat, p, walls)
        if 0 in sv:
            return 0
        signs.add(sv)
    return len(signs)


def totaro_check(
    m: Sublattice | GramLattice,
    g_family: Sequence[Isometry],
    h_family: Sequence[Isometry],
    weyl_cert: WeylCertificate | None,
) -> CriterionReport:
    """Verify the hypotheses of the non-arithmeticity criterion on M.

    (a) M has signature (1, m) with m >= 3; (b) the G family consists of
    exactly m-1 commuting independent parabolics with a common fixed isotropic
    line (independence read off the rank of the combined (g - 1)-image);
    (c) the reflection group of the certificate is infinite and moves a
    chamber through >= N distinct sign vectors, so it meets the translation
    family's group in nothing but the identity; (d) the H family supplies a
    parabolic whose fixed line differs, so the G family has infinite index in
    the full symmetry group.  The verdict is the conjunction; every check
    records its witnesses.  Failures produce a false verdict, never an
    exception, so near-miss inputs can be reported.
    """
    lat = m.as_lattice() if isinstance(m, Sublattice) else m
    witnesses: dict = {"assumptions": list(ASSUMPTIONS)}
    sig = signature(lat)
    witnesses["signature"] = [sig.positive, sig.negative, sig.null]
    signature_ok = sig.positive == 1 and sig.null == 0
    m_val = sig.negative
    rank_ok = signature_ok and m_val >= 3
    witnesses["m"] = m_val

    zmminus1_ok = False
    common_line: Vector | None = None
    if signature_ok and rank_ok:
        witnesses["generator_count"] = len(g_family)
        # m_val >= 3 here, so a family of the right size is not empty
        lines = _parabolic_lines(lat, g_family, "generator") if len(g_family) == m_val - 1 else None
        if (
            lines is not None
            and all(a.commutes_with(b) for a, b in itertools.combinations(g_family, 2))
            and len(set(lines)) == 1
        ):
            common_line = lines[0]
            image_rows: list[list[int]] = []
            for g in g_family:
                mat = g.matrix
                for j in range(lat.rank):
                    col = [mat[i][j] - (1 if i == j else 0) for i in range(lat.rank)]
                    image_rows.append(col)
            image_rank = rank_int(image_rows)
            witnesses["image_rank"] = image_rank
            witnesses["fixed_line"] = list(common_line)
            zmminus1_ok = image_rank == m_val

    weyl_infinite_ok = False
    if weyl_cert is not None and signature_ok:
        r1, r2 = weyl_cert.root1, weyl_cert.root2
        cert = weyl_cert.chamber
        roots_ok = (
            lat.square(r1) == -2
            and lat.square(r2) == -2
            and abs(lat.pair(r1, r2)) >= 2
            and dihedral_order(lat, r1, r2) == math.inf
        )
        if roots_ok:
            chambers = _walk_chambers(lat, r1, r2, cert)
            witnesses["root_pairing"] = lat.pair(r1, r2)
            witnesses["distinct_chambers"] = chambers
            witnesses["requested_chambers"] = cert.requested
            # one chamber per point, so the points are pairwise distinct; a
            # rejected walk counts 0
            weyl_infinite_ok = 0 < chambers == len(cert.points) and chambers >= cert.requested

    disjoint_parabolics_ok = False
    h_lines = _parabolic_lines(lat, h_family, "witness") if signature_ok and h_family else None
    if h_lines is not None:
        witnesses["h_fixed_lines"] = [list(v) for v in h_lines]
        disjoint_parabolics_ok = common_line is not None and any(
            line != common_line for line in h_lines
        )

    verdict = (
        signature_ok
        and rank_ok
        and zmminus1_ok
        and weyl_infinite_ok
        and disjoint_parabolics_ok
    )
    return CriterionReport(
        signature_ok=signature_ok,
        rank_ok=rank_ok,
        zmminus1_ok=zmminus1_ok,
        weyl_infinite_ok=weyl_infinite_ok,
        disjoint_parabolics_ok=disjoint_parabolics_ok,
        verdict=verdict,
        witnesses=witnesses,
    )
