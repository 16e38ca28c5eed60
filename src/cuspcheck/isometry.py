"""Isometries of Gram lattices and their dynamical classification.

An isometry is an integer matrix (columns are images of basis vectors) that
preserves the pairing exactly.  On a lattice of signature (1, n) every
isometry is elliptic (finite order), parabolic (infinite order, all
eigenvalues on the unit circle, a unique fixed isotropic line) or hyperbolic
(a real eigenvalue pair off the unit circle).

The trichotomy is decided with no numerics: by Kronecker's theorem a monic
integer polynomial all of whose roots lie on the unit circle is a product of
cyclotomic polynomials, so stripping every cyclotomic factor from the
characteristic polynomial either exhausts it (elliptic or parabolic, split by
testing a concrete power against the identity) or leaves a witness of an
eigenvalue off the circle (hyperbolic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import InputError
from .intlinalg import (
    charpoly,
    cyclotomic_polynomial,
    euler_phi,
    identity_matrix,
    invert_unimodular,
    matmul,
    matvec,
    poly_degree,
    poly_divmod_monic,
    right_kernel,
    sign_normalized,
    transpose,
)
from .lattice import GramLattice, Signature, Sublattice, Vector, sublattice_from_rows


@dataclass(frozen=True)
class Isometry:
    ambient: GramLattice
    matrix: tuple[tuple[int, ...], ...]
    # filled by classify_isometry on first use, like GramLattice._signature
    _kind: "IsometryType | None" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.ambient.rank
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise InputError("isometry matrix shape does not match lattice rank")
        object.__setattr__(self, "_kind", None)

    def is_gram_preserving(self) -> bool:
        # the images of the basis vectors (the columns) have the original Gram
        images = transpose(self.matrix)
        return self.ambient.gram_of(images) == [list(r) for r in self.ambient.gram]

    def apply(self, v: Sequence[int]) -> Vector:
        return tuple(matvec(self.matrix, self.ambient.check_vector(v)))

    def compose(self, other: "Isometry") -> "Isometry":
        if other.ambient.gram != self.ambient.gram:
            raise InputError("cannot compose isometries of different lattices")
        prod = matmul(self.matrix, other.matrix)
        return Isometry(self.ambient, tuple(tuple(r) for r in prod))

    def inverse(self) -> "Isometry":
        inv = invert_unimodular(self.matrix)
        return Isometry(self.ambient, tuple(tuple(r) for r in inv))

    def power(self, k: int) -> "Isometry":
        if k < 0:
            return self.inverse().power(-k)
        result = identity_isometry(self.ambient)
        base = self
        while k:
            if k & 1:
                result = result.compose(base)
            base = base.compose(base)
            k >>= 1
        return result

    def is_identity(self) -> bool:
        return [list(r) for r in self.matrix] == identity_matrix(self.ambient.rank)

    def commutes_with(self, other: "Isometry") -> bool:
        return matmul(self.matrix, other.matrix) == matmul(other.matrix, self.matrix)


def identity_isometry(lattice: GramLattice) -> Isometry:
    return Isometry(lattice, tuple(tuple(r) for r in identity_matrix(lattice.rank)))


def isometry_from_matrix(lattice: GramLattice, matrix: Sequence[Sequence[int]]) -> Isometry:
    """Checked constructor: products, inverses and restrictions need no check."""
    g = Isometry(lattice, tuple(tuple(int(x) for x in r) for r in matrix))
    if not g.is_gram_preserving():
        raise InputError("matrix does not preserve the pairing")
    return g


@dataclass(frozen=True)
class IsometryType:
    tag: str  # "elliptic" | "parabolic" | "hyperbolic"
    order: int | None = None
    fixed_isotropic: Vector | None = None


def _strip_cyclotomic(p: list[int]) -> tuple[list[int], list[int]]:
    """Remove all cyclotomic factors; return (orders found, leftover poly).

    phi is not monotone (phi(5) = 4 > phi(6) = 2), so every d up to 2 deg^2 is
    tried: phi(d) >= sqrt(d / 2) puts every Phi_d of degree <= deg there.
    """
    deg = poly_degree(p)
    orders: list[int] = []
    rest = list(p)
    for d in range(1, 2 * deg * deg + 1):
        if euler_phi(d) > deg:
            continue
        phi_d = cyclotomic_polynomial(d)
        while poly_degree(rest) >= poly_degree(phi_d):
            quot, rem = poly_divmod_monic(rest, phi_d)
            if rem == [0]:
                rest = quot
                orders.append(d)
            else:
                break
    return orders, rest


def fixed_sublattice(g: Isometry) -> Sublattice:
    """Saturated sublattice of vectors fixed by g."""
    n = g.ambient.rank
    m = [list(r) for r in g.matrix]
    for i in range(n):
        m[i][i] -= 1
    ker = right_kernel(m)
    return sublattice_from_rows(g.ambient, ker)


def classify_isometry(g: Isometry) -> IsometryType:
    """Elliptic / parabolic / hyperbolic trichotomy on a (1, n) lattice,
    worked out once per isometry."""
    if g._kind is None:
        object.__setattr__(g, "_kind", _classify(g))
    return g._kind


def _classify(g: Isometry) -> IsometryType:
    sig = g.ambient.signature
    if sig != Signature(1, g.ambient.rank - 1, 0) or g.ambient.rank < 2:
        raise InputError(
            "classification requires a nondegenerate lattice of signature (1, n), n >= 1"
        )
    p = charpoly(g.matrix)
    orders, rest = _strip_cyclotomic(p)
    if poly_degree(rest) > 0:
        return IsometryType(tag="hyperbolic")
    # a g of finite order is diagonalizable, so its order is the lcm of the
    # orders of its eigenvalues, the roots of unity found above
    n_power = math.lcm(*orders)
    if g.power(n_power).is_identity():
        return IsometryType(tag="elliptic", order=n_power)
    fixed = fixed_sublattice(g)
    rad = fixed.radical()
    if not rad:
        raise InputError(
            "parabolic isometry fixes no isotropic vector; "
            "it does not preserve the positive cone"
        )
    if len(rad) > 1:
        raise ArithmeticError("totally isotropic fixed radical of rank > 1 in (1, n)")
    line = sign_normalized(rad[0])
    if g.ambient.square(line) != 0:
        raise ArithmeticError("fixed radical vector is not isotropic")
    return IsometryType(tag="parabolic", fixed_isotropic=line)


def log_unipotent(g: Isometry) -> list[list[Fraction]]:
    """Exact matrix logarithm of a unipotent isometry (nilpotent N = g - I)."""
    n = g.ambient.rank
    nil = [[Fraction(g.matrix[i][j]) - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    term = [row[:] for row in nil]
    out = [row[:] for row in nil]
    k = 1
    while any(any(x != 0 for x in row) for row in term):
        k += 1
        if k > n:
            raise InputError("matrix is not unipotent")
        term = [
            [sum(term[i][t] * nil[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        sign = Fraction((-1) ** (k + 1), k)
        for i in range(n):
            for j in range(n):
                out[i][j] += sign * term[i][j]
    return out
