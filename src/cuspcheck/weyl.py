"""Producers of the Weyl certificate that ``checker.totaro_check`` verifies.

A certificate is two roots generating an infinite dihedral group, a base
point strictly inside their wedge, and N.  The base point is constructed,
not searched for, and only pairs generating an infinite group are certified.
The certificate's producer checks what its caller hands in and nothing its
formulas prove: the checker verifies the certificate independently.
"""

from __future__ import annotations

import math
from typing import Sequence

# totaro_check stays reachable as weyl.totaro_check, which bench/tracing.py wraps
from .checker import WeylCertificate, dihedral_order, totaro_check  # noqa: F401
from .errors import InputError
from .fibration import EllipticFibration, move_section, translation_combinations
from .intcore import check_vector, dot
from .intlinalg import snf_transform, solve_int
from .lattice import GramLattice, Vector, signature
from .period import PeriodPoint
from .surface import LooijengaSurface, boundary_complement


def chamber_sign(
    lattice: GramLattice, x: Sequence[int], roots: Sequence[Sequence[int]]
) -> tuple[int, ...]:
    """Sign vector of a positive-square class against an ordered wall list."""
    gx = lattice.pairing_row(x)
    if dot(gx, x) <= 0:
        raise InputError("vector is not in the positive cone")
    for r in roots:
        if len(r) != lattice.rank:
            check_vector(lattice.gram, r)  # raises, naming both lengths
    out = []
    for r in roots:
        p = dot(gx, r)
        out.append(1 if p > 0 else (-1 if p < 0 else 0))
    return tuple(out)


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
    witness_count: int,
) -> WeylCertificate:
    """Certify a walk of ``witness_count`` walls for the alternating word in
    the reflections of alpha and beta, starting strictly inside their wedge.

    The walk is not built: ``totaro_check`` checks the wedge and the
    inversion-set theorem gives the chambers.  The lattice must be
    hyperbolic: with a radical present, an infinite dihedral pair can act by
    translations along it, which the pairing (and hence every sign vector)
    cannot see.
    """
    if witness_count < 1:
        raise InputError("witness count must be at least 1")
    sig = signature(lattice)
    if sig.positive != 1 or sig.null != 0:
        raise InputError("chamber walks need a nondegenerate lattice of signature (1, n)")
    if dihedral_order(lattice, alpha, beta) != math.inf:
        raise InputError("chamber walks need two roots generating an infinite dihedral group")
    base = _wedge_point(lattice, alpha, beta)
    return WeylCertificate(tuple(alpha), tuple(beta), base, witness_count)


def _translation_witness(
    lattice: GramLattice, phi: PeriodPoint, translations: Sequence[Sequence[int]]
) -> list[int]:
    """First combination e with e.e <= -8 and phi(e) = 0, ring by ring.

    Every e is nonzero modulo the radical of an even negative semidefinite
    lattice, so e.e <= -2 and m*e (2*e when m = 1) is a hit: the rings up to
    max(m, 2) always hold one.
    """
    for e in translation_combinations(translations, max(phi.modulus, 2)):
        if lattice.square(e) <= -8 and phi.evaluate(e) == 0:
            return e
    raise InputError("certificate search exhausted: translation classes must have square <= -2")


def weyl_infiniteness_certificate(
    surface: LooijengaSurface,
    phi: PeriodPoint,
    fib: EllipticFibration,
    translations: Sequence[Sequence[int]],
    witness_count: int,
) -> WeylCertificate:
    """Certify an infinite reflection group on the blown-up boundary complement.

    ``surface`` is the blow-up of the fibration's surface at the point where
    the zero section meets the boundary, with the exceptional class last in
    the history.  The second section is the image of the zero section under a
    translation combination e with residue phi(e) = 0 (so the moved section
    still passes through the blown-up point) and square at most -8 (so the two
    strict transforms pair to at least 2).

    ``run_criterion`` checks that the surface records a history.  A
    transvection keeps c0.c0 = -1, and phi(c2 - c0) is a combination of
    phi(e) = 0 and phi(f) = 0; c2 - c0 lies in D^perp, so a2 lies in M with a1.
    """
    n = surface.picard.rank
    if surface.history[-1][1] != tuple([0] * (n - 1) + [1]):
        raise InputError("exceptional class must be the final basis vector")
    c0 = fib.zero_section
    if c0 is None:
        raise InputError("certificate needs a fibration with a section")
    if not translations:
        raise InputError("certificate needs at least one translation class")
    old = phi.domain.ambient
    c2 = move_section(old, fib, _translation_witness(old, phi, translations))

    m_sub = boundary_complement(surface).sublattice
    a1 = tuple(c0) + (-1,)
    if not m_sub.contains(a1):
        raise InputError("blown-up point does not lie on the zero section's boundary component")
    # two roots pairing to at least 2, as chamber_certificate checks
    r1, r2 = m_sub.coords_of(a1), m_sub.coords_of(tuple(c2) + (-1,))
    return chamber_certificate(m_sub.as_lattice(), r1, r2, witness_count=witness_count)
