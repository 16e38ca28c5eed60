"""The checker of the non-arithmeticity certificate, on lattice arithmetic alone.

The headline check is ``totaro_check``: given a hyperbolic lattice M of
signature (1, m) with m >= 3, a commuting family of m-1 independent unipotent
parabolic isometries (g != 1, (g - 1)^3 = 0), an infinite reflection group
witnessed by two roots with pairing at least 2 in absolute value, and a
second parabolic whose fixed isotropic line differs from the family's, the
symmetry group certified by these witnesses cannot be commensurable with an
arithmetic group.  The family is unipotent because only then does the rank
of its (g - 1)-image count translations: a parabolic times a finite-order
isometry fixing its line has a larger image, but adds torsion.  That
criterion is the checker's first axiom; everything this module does is
verify its hypotheses by exact integer computation, importing only
``intcore`` and ``errors``, so that checking a certificate never loads the
code that produced it.  That holds at run time: a fresh
``import cuspcheck.checker`` loads the package and these three modules only,
which ``test_a_fresh_checker_import_loads_only_its_trusted_base`` in
``tests/test_layers.py`` holds.  It reads a lattice by its ``.gram`` alone
and an isometry by its ``.matrix`` and ``.ambient.gram``.

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
from .intcore import check_matrix, check_vector, dot, gram_of, inertia, matmul, pairing_row
from .intcore import rank_int, sign_normalized, transpose


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

    root1: tuple[int, ...]
    root2: tuple[int, ...]
    base: tuple[int, ...]
    requested: int


# the default N: ``verify-paper``'s config and ``criterion check`` read it
WITNESS_COUNT = 100


@dataclass(frozen=True)
class CriterionReport:
    """``totaro_check``'s flag for each hypothesis, their conjunction and the witnesses."""

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


def dihedral_order(lattice, alpha: Sequence[int], beta: Sequence[int]) -> int | float:
    """Order of the composite of the two root reflections.

    Proportional roots give the identity (order 1).  Otherwise the composite
    acts on the rank-2 span with trace (alpha.beta)^2 - 2, so pairings 0 and 1
    give orders 2 and 3, and |pairing| >= 2 gives infinite order (trace >= 2
    means unipotent-or-hyperbolic on the span, and the unipotent part is
    nontrivial).  ``lattice`` is read through its Gram matrix alone.
    """
    gram = lattice.gram
    a = check_vector(gram, alpha)
    b = check_vector(gram, beta)
    (aa, ab), (_, bb) = gram_of(gram, [a, b])
    if aa != -2 or bb != -2:
        raise InputError("dihedral order requires roots of square -2")
    if b == a or b == tuple(-x for x in a):
        return 1
    p = abs(ab)
    if p == 0:
        return 2
    if p == 1:
        return 3
    return math.inf


def minus_one(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Matrix of g - 1."""
    return [[x - (i == j) for j, x in enumerate(r)] for i, r in enumerate(matrix)]


def commute(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> bool:
    return matmul(a, b) == matmul(b, a)


def preserves_gram(gram: Sequence[Sequence[int]], matrix: Sequence[Sequence[int]]) -> bool:
    """Whether the images of the basis vectors, the columns of ``matrix``,
    have the Gram matrix ``gram``; ``matrix`` is square of its rank."""
    return gram_of(gram, transpose(matrix)) == [list(r) for r in gram]


def unipotent_line(matrix: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """Fixed isotropic line of g: the primitive, sign-normalized image of
    (g - 1)^2 when g != 1 and (g - 1)^3 = 0, else None.  g must preserve the
    pairing; a caller with a matrix from outside checks that first.  In
    signature (1, m) such a g has one Jordan block of size 3, the rest of
    size 1 (Ratcliffe, Foundations of Hyperbolic Manifolds), so (g - 1)^2 has
    rank 1; its image is the fixed isotropic line, as f = (g - 1)^2 x has
    (g - 1) f = (g - 1)^3 x = 0 and f.f = x.g^-2 (g - 1)^4 x = 0.  So g - 1
    must kill the columns of (g - 1)^2, or just the line when all lie on it."""
    nil = minus_one(matrix)
    image = [col for col in transpose(matmul(nil, nil)) if any(col)]
    if not image:
        return None
    d = math.gcd(*image[0])
    line = [x // d for x in image[0]]
    p = next(i for i, x in enumerate(line) if x)
    on_line = all(c[p] * x == line[p] * y for c in image for x, y in zip(line, c))
    if any(dot(row, c) for c in ([line] if on_line else image) for row in nil):
        return None
    return sign_normalized(line)


def _parabolic_lines(
    gram, family: Sequence, member: str
) -> tuple[list[tuple[int, ...]], list[list[int]]] | None:
    """Each member's ``unipotent_line`` and the columns of every g - 1, or None if one
    has none or does not preserve the pairing (the one check of a family from outside)."""
    if any(g.ambient.gram != gram for g in family):
        raise InputError(f"{member} does not act on the criterion lattice")
    matrices = [check_matrix(gram, g.matrix) for g in family]
    lines = [unipotent_line(a) if preserves_gram(gram, a) else None for a in matrices]
    if None in lines:
        return None
    return lines, [col for a in matrices for col in transpose(minus_one(a))]


def totaro_check(
    lat,
    g_family: Sequence,
    h_family: Sequence,
    weyl_cert: WeylCertificate | None,
) -> CriterionReport:
    """Verify the hypotheses of the non-arithmeticity criterion on M = ``lat``.

    (a) M has signature (1, m) with m >= 3; (b) the G family consists of
    exactly m-1 commuting independent unipotent parabolic isometries
    (g != 1, (g - 1)^3 = 0) with a common fixed isotropic line (independence
    read off the rank of the combined (g - 1)-image, which counts
    translations only for unipotent members); (c) the certificate's two roots
    generate an infinite reflection group and its base lies strictly inside
    their wedge, so by the inversion-set theorem the walk of N walls visits
    N + 1 distinct chambers; (d) the H family consists of unipotent parabolic
    isometries, one with another fixed line, so the G family has infinite
    index in the full symmetry group.  The verdict is the conjunction; every
    check records its witnesses.

    A hypothesis that fails gives a false verdict, so near-miss inputs can be
    reported.  A malformed shape raises ``InputError``: a root or base whose
    length is not the rank of M, a family member acting on another lattice,
    or one whose matrix is not square of that rank.
    """
    gram = lat.gram
    witnesses: dict = {"assumptions": list(ASSUMPTIONS)}
    positive, m_val, null = inertia(gram)
    witnesses["signature"] = [positive, m_val, null]
    signature_ok = positive == 1 and null == 0
    rank_ok = signature_ok and m_val >= 3
    witnesses["m"] = m_val

    zmminus1_ok = False
    common_line: tuple[int, ...] | None = None
    if signature_ok and rank_ok:
        witnesses["generator_count"] = len(g_family)
        # m_val >= 3 here, so a family of the right size is not empty
        found = _parabolic_lines(gram, g_family, "generator") if len(g_family) == m_val - 1 else None
        if (
            found is not None
            and all(commute(a.matrix, b.matrix) for a, b in itertools.combinations(g_family, 2))
            and len(set(found[0])) == 1
        ):
            common_line = found[0][0]
            image_rank = rank_int(found[1])
            witnesses["image_rank"] = image_rank
            witnesses["fixed_line"] = list(common_line)
            zmminus1_ok = image_rank == m_val

    weyl_infinite_ok = False
    if weyl_cert is not None and signature_ok:
        r1, r2, base = weyl_cert.root1, weyl_cert.root2, weyl_cert.base
        x = pairing_row(gram, check_vector(gram, base))
        # both squares before dihedral_order, which raises on a non-root; it
        # is infinite exactly for non-proportional roots with |r1.r2| >= 2
        (s1, pairing), (_, s2) = gram_of(gram, [check_vector(gram, r1), check_vector(gram, r2)])
        if (s1, s2) == (-2, -2) and dihedral_order(lat, r1, r2) == math.inf:
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
    h_found = _parabolic_lines(gram, h_family, "witness") if signature_ok and h_family else None
    if h_found is not None:
        witnesses["h_fixed_lines"] = [list(v) for v in h_found[0]]
        disjoint_parabolics_ok = common_line is not None and any(
            line != common_line for line in h_found[0]
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
