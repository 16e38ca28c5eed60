"""Isometries of Gram lattices and their dynamical classification.

An isometry is an integer matrix (columns are images of basis vectors) that
preserves the pairing exactly.  ``isometry_from_matrix`` (so the JSON
decoder), ``classify_isometry`` and the certificate checker check that of a
matrix from outside, by the checker's ``preserves_gram``; ``compose`` and
``fibration.eichler_transvection`` preserve it by construction.  On a
lattice of signature (1, n) every isometry is elliptic (finite order),
parabolic (infinite order, all eigenvalues on the unit circle, a unique
fixed isotropic line) or hyperbolic (a real eigenvalue pair off the unit
circle).

A unipotent g (g != 1, (g - 1)^3 = 0) is classified by one matrix product:
the checker's ``unipotent_line`` reads its fixed isotropic line off the
image of (g - 1)^2, and applies g - 1 to that line alone when the image is
rank one (as for every such isometry of a (1, n) lattice).  The pipeline's
translations and transvections are all unipotent, read the same way.

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

from dataclasses import dataclass
from typing import Sequence

from .checker import minus_one, preserves_gram, unipotent_line
from .errors import InputError
from .intcore import check_matrix, check_vector, matmul, sign_normalized
from .intlinalg import identity_matrix, matvec, right_kernel
from .lattice import GramLattice, Signature, Sublattice, Vector, sublattice_from_rows


@dataclass(frozen=True)
class Isometry:
    """A matrix on ``ambient``'s coordinates; ``isometry_from_matrix`` checks the pairing too."""

    ambient: GramLattice
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        check_matrix(self.ambient.gram, self.matrix)

    def is_gram_preserving(self) -> bool:
        return preserves_gram(self.ambient.gram, self.matrix)

    def apply(self, v: Sequence[int]) -> Vector:
        return tuple(matvec(self.matrix, check_vector(self.ambient.gram, v)))

    def compose(self, other: "Isometry") -> "Isometry":
        if other.ambient.gram != self.ambient.gram:
            raise InputError("cannot compose isometries of different lattices")
        prod = matmul(self.matrix, other.matrix)
        return Isometry(self.ambient, tuple(tuple(r) for r in prod))

    def minus_one(self) -> list[list[int]]:
        return minus_one(self.matrix)

    def is_identity(self) -> bool:
        return [list(r) for r in self.matrix] == identity_matrix(self.ambient.rank)


def isometry_from_matrix(lattice: GramLattice, matrix: Sequence[Sequence[int]]) -> Isometry:
    """Checked constructor: products, inverses and restrictions need no check."""
    g = Isometry(lattice, tuple(tuple(int(x) for x in r) for r in matrix))
    if not g.is_gram_preserving():
        raise InputError("matrix does not preserve the pairing")
    return g


@dataclass(frozen=True)
class IsometryType:
    """The trichotomy of ``classify_isometry``, with an elliptic order or a parabolic line."""

    tag: str  # "elliptic" | "parabolic" | "hyperbolic"
    order: int | None = None
    fixed_isotropic: Vector | None = None


def fixed_sublattice(g: Isometry) -> Sublattice:
    """Saturated sublattice of vectors fixed by g."""
    return sublattice_from_rows(g.ambient, right_kernel(g.minus_one()))


def classify_isometry(g: Isometry) -> IsometryType:
    """Elliptic / parabolic / hyperbolic trichotomy on a (1, n) lattice."""
    sig = g.ambient.signature
    if sig != Signature(1, g.ambient.rank - 1, 0) or g.ambient.rank < 2:
        raise InputError(
            "classification requires a nondegenerate lattice of signature (1, n), n >= 1"
        )
    line = unipotent_line(g.matrix) if g.is_gram_preserving() else None
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
