"""The checker of the non-arithmeticity certificate, on lattice arithmetic alone.

The headline check is ``totaro_check``: given a hyperbolic lattice M of
signature (1, m) with m >= 3, a commuting family of m-1 independent parabolic
isometries, an infinite reflection group witnessed by two roots with pairing
at least 2 in absolute value, and a second parabolic whose fixed isotropic
line differs from the family's, the symmetry group certified by these
witnesses cannot be commensurable with an arithmetic group.  That criterion
is the checker's first axiom; everything this module does is verify its
hypotheses by exact integer computation, importing only ``lattice``,
``intlinalg``, ``isometry`` and ``errors``, so that checking a certificate
never loads the code that produced it.

Infinitude of the reflection group is made finite-size checkable by a chamber
walk: the alternating word in two reflections applied to a base point of
positive square, with one wall per letter.  The checker's second axiom is the
inversion-set theorem for a reduced word s_1 ... s_k in a Coxeter group: the
walls separating the fundamental chamber C from s_1 ... s_k C are exactly
a_1, s_1(a_2), ..., s_1 ... s_{k-1}(a_k), each a positive root (Humphreys,
*Reflection Groups and Coxeter Groups* 5.6; Bourbaki, *Lie Groups* V.4).
Two roots with |alpha.beta| >= 2 generate an infinite dihedral group, in which
every alternating word is reduced.  So once the base pairs strictly
positively with alpha and with eps*beta, eps the sign of alpha.beta, point k
is on the negative side of walls 0..k-1 and the positive side of the rest (up
to the sign eps^j of wall j): the N + 1 points lie in N + 1 distinct chambers,
and N distinct chambers certify at least N distinct group elements.  The walk
is therefore never built: a certificate is the two roots, the base point and
N, and ``totaro_check`` verifies the wedge (a constant number of pairings,
whatever N) and reads the count off the theorem.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError
from .intlinalg import dot, rank_int
from .isometry import Isometry, classify_isometry
from .lattice import GramLattice, Sublattice, Vector, signature


@dataclass(frozen=True)
class WeylCertificate:
    """A finite witness that two root reflections generate an infinite group.

    ``root1``/``root2`` are two roots with |root1.root2| >= 2, ``base`` a
    point of positive square strictly inside the wedge of root1 and
    eps*root2 (eps the sign of their pairing), and ``requested`` the number N
    of walls of the alternating word.  By the inversion-set theorem that is a
    walk through N + 1 distinct chambers; ``totaro_check`` verifies it.  For
    the criterion the roots are the strict transforms of two sections in the
    coordinates of the boundary complement of the blown-up surface.
    """

    root1: Vector
    root2: Vector
    base: Vector
    requested: int


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
    (c) the certificate's two roots generate an infinite reflection group and
    its base lies strictly inside their wedge, so by the inversion-set theorem
    the walk of N walls visits N + 1 distinct chambers, and the reflection
    group meets the translation family's group in nothing but the identity;
    (d) the H family supplies a parabolic whose fixed line differs, so the G
    family has infinite index in the full symmetry group.  The verdict is the
    conjunction; every check records its witnesses.

    A hypothesis that fails gives a false verdict, so near-miss inputs can be
    reported.  A malformed shape raises ``InputError``: a root or base whose
    length is not the rank of M, or a family member acting on another
    lattice.
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
        r1, r2, base = weyl_cert.root1, weyl_cert.root2, weyl_cert.base
        x = lat.pairing_row(base)
        # both squares before dihedral_order, which raises on a non-root; it
        # is infinite exactly for non-proportional roots with |r1.r2| >= 2
        squares = (lat.square(r1), lat.square(r2))
        if squares == (-2, -2) and dihedral_order(lat, r1, r2) == math.inf:
            pairing = lat.pair(r1, r2)
            eps = 1 if pairing > 0 else -1
            # the base strictly inside the wedge of r1 and eps*r2; the
            # inversion-set theorem gives the N + 1 chambers of the walk
            weyl_infinite_ok = (
                weyl_cert.requested >= 1
                and dot(x, base) > 0
                and dot(x, r1) > 0
                and eps * dot(x, r2) > 0
            )
            witnesses["root_pairing"] = pairing
            witnesses["distinct_chambers"] = weyl_cert.requested + 1 if weyl_infinite_ok else 0
            witnesses["requested_chambers"] = weyl_cert.requested

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
