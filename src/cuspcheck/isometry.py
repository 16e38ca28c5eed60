"""Isometries of Gram lattices and their dynamical classification.

An isometry is an integer matrix (columns are images of basis vectors) that
preserves the pairing exactly.  ``isometry_from_matrix`` (so the JSON
decoder), ``classify_isometry`` and the certificate checker check that of a
matrix from outside; ``compose`` and ``fibration.eichler_transvection``
preserve it by construction.  On a lattice of signature (1, n) every
isometry is elliptic (finite order), parabolic (infinite order, all
eigenvalues on the unit circle, a unique fixed isotropic line) or hyperbolic
(a real eigenvalue pair off the unit circle).

A unipotent g (g != 1, (g - 1)^3 = 0) is classified by matrix products:
``unipotent_line`` reads its fixed isotropic line off the image of
(g - 1)^2.  The translations and transvections the pipeline builds are all
of this kind, and the certificate checker reads its lines the same way.

Every other g is classified by the signature of F = Fix(g^2), with no
numerics (Ratcliffe, Foundations of Hyperbolic Manifolds, 6.1).  The square
g^2 keeps each sheet of the light cone.  If g has finite order, the sum of
the g^2-orbit of a positive vector is a positive vector in F.  Conversely,
the stabiliser of a positive vector is finite, since its orthogonal is
negative definite, so a positive vector in F makes g elliptic.  Vectors fixed
by g^2 are orthogonal to its eigenvectors of eigenvalue other than 1, so for
hyperbolic g, F lies in the orthogonal of a real eigenplane of signature
(1, 1) and is negative definite.  Otherwise F is negative semidefinite and
its radical is the isotropic line g^2 fixes; g commutes with g^2, so it
sends that line to itself or to its negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError
from .intlinalg import (
    identity_matrix,
    matmul,
    matvec,
    right_kernel,
    sign_normalized,
    transpose,
)
from .lattice import GramLattice, Signature, Sublattice, Vector, sublattice_from_rows


@dataclass(frozen=True)
class Isometry:
    ambient: GramLattice
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.ambient.rank
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise InputError("isometry matrix shape does not match lattice rank")

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

    def minus_one(self) -> list[list[int]]:
        """Matrix of g - 1."""
        return [[x - (i == j) for j, x in enumerate(r)] for i, r in enumerate(self.matrix)]

    def is_identity(self) -> bool:
        return [list(r) for r in self.matrix] == identity_matrix(self.ambient.rank)

    def commutes_with(self, other: "Isometry") -> bool:
        return matmul(self.matrix, other.matrix) == matmul(other.matrix, self.matrix)


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


def fixed_sublattice(g: Isometry) -> Sublattice:
    """Saturated sublattice of vectors fixed by g."""
    return sublattice_from_rows(g.ambient, right_kernel(g.minus_one()))


def unipotent_line(g: Isometry) -> Vector | None:
    """Fixed isotropic line of g: the primitive, sign-normalized image of
    (g - 1)^2 when g != 1 and (g - 1)^3 = 0, else None.  g must preserve the
    pairing; a caller with a matrix from outside checks that first.  In
    signature (1, m) such a g has one Jordan block of size 3, the rest of
    size 1 (Ratcliffe, Foundations of Hyperbolic Manifolds), so (g - 1)^2 has
    rank 1; its image is the fixed isotropic line, as f = (g - 1)^2 x has
    (g - 1) f = (g - 1)^3 x = 0 and f.f = x.g^-2 (g - 1)^4 x = 0."""
    nil = g.minus_one()
    nil2 = matmul(nil, nil)
    image = [col for col in transpose(nil2) if any(col)]
    if not image or any(map(any, matmul(nil2, nil))):
        return None
    d = math.gcd(*image[0])
    return sign_normalized([x // d for x in image[0]])


def classify_isometry(g: Isometry) -> IsometryType:
    """Elliptic / parabolic / hyperbolic trichotomy on a (1, n) lattice."""
    sig = g.ambient.signature
    if sig != Signature(1, g.ambient.rank - 1, 0) or g.ambient.rank < 2:
        raise InputError(
            "classification requires a nondegenerate lattice of signature (1, n), n >= 1"
        )
    line = unipotent_line(g) if g.is_gram_preserving() else None
    if line is not None:
        return IsometryType(tag="parabolic", fixed_isotropic=line)
    return _classify_by_fixed_lattice(g)


def _classify_by_fixed_lattice(g: Isometry) -> IsometryType:
    """The trichotomy read off the signature of Fix(g^2), for any g on a (1, n)
    lattice; a g with a positive vector in Fix(g^2) must preserve the pairing."""
    fixed = fixed_sublattice(g.compose(g))
    fixed_lat = fixed.as_lattice()
    fixed_sig = fixed_lat.signature
    if fixed_sig.positive:
        # an isometry that fixes a positive vector has finite order, so
        # stepping through its powers ends; a matrix off the pairing may not
        if not g.is_gram_preserving():
            raise InputError("matrix does not preserve the pairing")
        h, order = g, 1
        while not h.is_identity():
            h, order = h.compose(g), order + 1
        return IsometryType(tag="elliptic", order=order)
    if not fixed_sig.null:
        return IsometryType(tag="hyperbolic")
    rad = fixed_lat.radical
    if len(rad) > 1:
        raise ArithmeticError("totally isotropic fixed radical of rank > 1 in (1, n)")
    line = sign_normalized(fixed.embed(rad[0]))
    if g.apply(line) != line:
        raise InputError(
            "parabolic isometry fixes no isotropic vector; "
            "it does not preserve the positive cone"
        )
    return IsometryType(tag="parabolic", fixed_isotropic=line)
