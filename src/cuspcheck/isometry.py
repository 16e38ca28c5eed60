"""Isometries of Gram lattices and their dynamical classification.

An isometry is an integer matrix (columns are images of basis vectors) that
preserves the pairing exactly, an invariant ``Isometry`` holds by type
(``lattice`` module docstring): ``Isometry(...)``, so the JSON decoder,
checks a matrix from outside by the checker's ``preserves_gram``, and
``compose`` and ``fibration.eichler_transvection``, whose formulas preserve
it, build through ``lattice._unchecked``.  ``classify_isometry`` checks no
matrix; the certificate checker checks each member it is handed.  On a
lattice of signature (1, n) every isometry is elliptic (finite order),
parabolic (infinite order, all eigenvalues on the unit circle, a unique
fixed isotropic line) or hyperbolic (a real eigenvalue pair off the unit
circle).

A unipotent g (g != 1, (g - 1)^3 = 0) is parabolic, with its fixed
isotropic line the image of (g - 1)^2.  Every translation and transvection
the pipeline builds is an Eichler transvection, whose formula proves that
line to be its axis (``fibration.eichler_transvection``), and it carries
the line (``Isometry._line``).  Any other g, from outside, from ``compose``
or a transvection with (g - 1)^2 = 0, is read by one matrix product: the
checker's ``unipotent_line`` takes the image of (g - 1)^2, and applies
g - 1 to that line alone when the image is rank one (as for every such
isometry of a (1, n) lattice).

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

from dataclasses import dataclass, field
from typing import Sequence

from .checker import minus_one, preserves_gram, unipotent_line
from .errors import InputError
from .intcore import check_matrix, check_vector, matmul, sign_normalized
from .intlinalg import identity_matrix, matvec, right_kernel
from .lattice import GramLattice, Signature, Sublattice, Vector, _unchecked, sublattice_from_rows


@dataclass(frozen=True)
class Isometry:
    """A matrix on ``ambient``'s coordinates that preserves its pairing."""

    ambient: GramLattice
    matrix: tuple[tuple[int, ...], ...]
    # the fixed isotropic line a formula proves (fibration.eichler_transvection),
    # else None and classify_isometry reads it off the matrix
    _line: Vector | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gram = self.ambient.gram
        matrix = tuple(tuple(int(x) for x in r) for r in check_matrix(gram, self.matrix))
        if not preserves_gram(gram, matrix):
            raise InputError("matrix does not preserve the pairing")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_line", None)

    def apply(self, v: Sequence[int]) -> Vector:
        return tuple(matvec(self.matrix, check_vector(self.ambient.gram, v)))

    def compose(self, other: "Isometry") -> "Isometry":
        if other.ambient.gram != self.ambient.gram:
            raise InputError("cannot compose isometries of different lattices")
        prod = matmul(self.matrix, other.matrix)
        return _unchecked(Isometry, ambient=self.ambient, matrix=tuple(map(tuple, prod)))

    def is_identity(self) -> bool:
        return [list(r) for r in self.matrix] == identity_matrix(self.ambient.rank)


@dataclass(frozen=True)
class IsometryType:
    """The trichotomy of ``classify_isometry``, with an elliptic order or a parabolic line."""

    tag: str  # "elliptic" | "parabolic" | "hyperbolic"
    order: int | None = None
    fixed_isotropic: Vector | None = None


def fixed_sublattice(g: Isometry) -> Sublattice:
    """Saturated sublattice of vectors fixed by g."""
    return sublattice_from_rows(g.ambient, right_kernel(minus_one(g.matrix)))


def classify_isometry(g: Isometry) -> IsometryType:
    """Elliptic / parabolic / hyperbolic trichotomy on a (1, n) lattice.

    A g that carries its fixed isotropic line (an Eichler transvection with
    (g - 1)^2 != 0) is parabolic on it; any other g goes through
    ``unipotent_line`` and, when that finds no line, Fix(g^2)."""
    sig = g.ambient.signature
    if sig != Signature(1, g.ambient.rank - 1, 0) or g.ambient.rank < 2:
        raise InputError(
            "classification requires a nondegenerate lattice of signature (1, n), n >= 1"
        )
    line = g._line or unipotent_line(g.matrix)
    if line is not None:
        return IsometryType(tag="parabolic", fixed_isotropic=line)
    return _classify_by_fixed_lattice(g)


def _classify_by_fixed_lattice(g: Isometry) -> IsometryType:
    """The trichotomy read off the signature of Fix(g^2), for any g on a (1, n)
    lattice.  A positive vector in Fix(g^2) makes g elliptic, and the loop
    over its powers ends because g preserves the pairing: ``Isometry`` holds
    that by type, and an isometry that fixes a positive vector has finite
    order."""
    fixed = fixed_sublattice(g.compose(g))
    fixed_lat = fixed.as_lattice()
    fixed_sig = fixed_lat.signature
    if fixed_sig.positive:
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
