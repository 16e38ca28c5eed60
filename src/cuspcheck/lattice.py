"""Gram lattices: finitely generated free Z-modules with an integer pairing.

A lattice is presented by its Gram matrix in a fixed basis; vectors are plain
integer tuples in that basis.  Sublattices are always saturated (the basis
spans the full intersection of its Q-span with the ambient lattice), which is
what makes orthogonal complements, radicals and quotients well behaved.

``GramLattice`` pairs vectors and takes ``intcore``'s Gram rows and Gram
matrices of vector lists.  The classes it pairs have few nonzero
coordinates, so ``pair`` and ``pairing_row`` touch only the Gram rows of
those.  Each value type checks its invariant where it enters (``GramLattice``
a square symmetric Gram, ``Isometry`` the pairing, ``LooijengaSurface`` the
cycle and a rational Pic); only a formula that proves it, such as a Gram
product, builds a value unchecked (``_unchecked``), and nothing checks it
again.  The parsers and ``gram_lattice`` make every entry an integer and
``check_vector`` checks only a length, so the inner loops never re-check
integrality.

Signatures come from an exact congruence elimination of the Gram matrix over
the integers (``intcore.inertia``): each step replaces the form by a
congruent one of smaller size, and Sylvester's law of inertia says congruence
keeps the counts of positive, negative and null directions.  No rationals and
no floating point enter.  Each lattice works its signature (unless a formula
hands it one) and radical out once and keeps ``vectors_of_square``'s results,
each sublattice its induced lattice, and a checked one a Hermite form
U.B^T = H of its k basis columns: they are independent iff H has k nonzero
rows, and then saturated iff H = [I_k; 0], since the pivots multiply to the
gcd of B's k x k minors.  Then U[:k] is the coordinate map and the rows U[k:] vanish
exactly on the members.  Only ``saturated_complement`` takes a Smith form
U'.B^T.V' = [I_k; 0] of rows saturated by construction: the columns of
U'^-1 past the rank span the canonical complement, which a Hermite U would
not give.

An orthogonal complement is the kernel of the pairing rows P (r x n).  When
P ends in a run of unit columns, columns f..n-1 each with one nonzero entry,
equal to 1, as the exceptional columns of a blown-up surface's boundary are,
the kernel is read off P (``_unit_column_complement``).  Unit column c
belongs to one row i; let last(i) be that row's last unit column.  The rows
with no unit column bound the leading f coordinates alone, and their small
canonical kernel (``right_kernel``) has a row tau for each leading solution:
the basis is each tau with x_last(i) = -P_i.tau, then e_c - e_last(i) for
each other unit column c, in increasing c.  That is the canonical Hermite
basis ``right_kernel`` gives: each e_c - e_last(i) has pivot 1 at c, the
tau rows vanish at those pivots and form a Hermite basis on the leading
columns, and the unit columns last(i) hold no pivot.  A member's coordinates
are the small kernel's on its leading entries, then its entries at those c,
and P itself is the membership test.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError
from .intcore import IntMatrix, check_vector, dot, gram_of, inertia, pairing_row
from .intlinalg import combination, hnf_transform, identity_matrix, matvec, right_kernel
from .intlinalg import snf_transform

Vector = tuple[int, ...]


class Signature(NamedTuple):
    positive: int
    negative: int
    null: int


@dataclass(frozen=True)
class GramLattice:
    """A free Z-module with basis e_1..e_rank and symmetric integer pairing."""

    gram: tuple[tuple[int, ...], ...]
    basis_labels: tuple[str, ...] | None = None
    # filled on first use; set to None in __post_init__ so that every instance
    # has the same attributes.  Not functools.cached_property: that fills
    # __dict__ after __init__, and a method reading one field then ran about
    # 1.5x slower (0.08 vs 0.055 us per call, Python 3.11.7, best of 15 x 10^6).
    _signature: Signature | None = field(init=False, repr=False, compare=False)
    _radical: tuple[Vector, ...] | None = field(init=False, repr=False, compare=False)
    _vectors: dict | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.gram)
        if any(len(row) != n for row in self.gram):
            raise InputError("gram matrix must be square")
        if any(row[j] != self.gram[j][i] for i, row in enumerate(self.gram) for j in range(n)):
            raise InputError("gram matrix must be symmetric")
        if self.basis_labels is not None and len(self.basis_labels) != n:
            raise InputError("basis_labels length must equal rank")
        object.__setattr__(self, "_signature", None)
        object.__setattr__(self, "_radical", None)
        object.__setattr__(self, "_vectors", None)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def pair(self, u: Sequence[int], v: Sequence[int]) -> int:
        """u.v as the sum of u_i (gram[i] . v) over the nonzero u_i."""
        gram = self.gram
        u = check_vector(gram, u)
        v = check_vector(gram, v)
        return sum(ui * sum(map(mul, gram[i], v)) for i, ui in enumerate(u) if ui)

    def square(self, v: Sequence[int]) -> int:
        return self.pair(v, v)

    def pairing_row(self, v: Sequence[int]) -> list[int]:
        return pairing_row(self.gram, check_vector(self.gram, v))

    def gram_of(self, vectors: Sequence[Sequence[int]]) -> IntMatrix:
        return gram_of(self.gram, [check_vector(self.gram, u) for u in vectors])

    @property
    def signature(self) -> Signature:
        """Exact (positive, negative, null) inertia, computed once per lattice.

        ``inertia`` eliminates the Gram matrix by integer congruences, which
        by Sylvester's law of inertia keep the three counts; every step stays
        in the integers.
        """
        if self._signature is None:
            object.__setattr__(self, "_signature", Signature(*inertia(self.gram)))
        return self._signature

    @property
    def radical(self) -> tuple[Vector, ...]:
        """Canonical basis of {v : v.x = 0 for all x}, the kernel of the Gram,
        computed once per lattice."""
        if self._radical is None:
            rows = right_kernel([list(r) for r in self.gram])
            object.__setattr__(self, "_radical", tuple(tuple(r) for r in rows))
        return self._radical


def _unchecked(cls, **values):
    """``cls``, a frozen dataclass, without the check of its ``__post_init__``,
    which a formula has proven; a field not given, such as a cache, is None."""
    obj = object.__new__(cls)
    for f in fields(cls):
        object.__setattr__(obj, f.name, values.get(f.name))
    return obj


def gram_lattice(gram: Iterable[Iterable[int]], labels: Sequence[str] | None = None) -> GramLattice:
    g = tuple(tuple(int(x) for x in row) for row in gram)
    return GramLattice(g, tuple(labels) if labels is not None else None)


def diagonal_lattice(entries: Sequence[int]) -> GramLattice:
    n = len(entries)
    return gram_lattice(
        [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )


def hyperbolic_plane() -> GramLattice:
    return gram_lattice([[0, 1], [1, 0]])


def direct_sum(*lattices: GramLattice) -> GramLattice:
    n = sum(lat.rank for lat in lattices)
    g = [[0] * n for _ in range(n)]
    off = 0
    for lat in lattices:
        for i in range(lat.rank):
            for j in range(lat.rank):
                g[off + i][off + j] = lat.gram[i][j]
        off += lat.rank
    return gram_lattice(g)


def signature(lattice: GramLattice) -> Signature:
    """Exact (positive, negative, null) inertia of the pairing."""
    return lattice.signature


def definiteness(lattice: GramLattice) -> str:
    sig = signature(lattice)
    if sig.positive == 0 and sig.negative == 0:
        return "zero"
    if sig.positive > 0 and sig.negative > 0:
        return "indefinite"
    if sig.null == 0:
        return "positive_definite" if sig.positive else "negative_definite"
    return (
        "positive_semidefinite_degenerate"
        if sig.positive
        else "negative_semidefinite_degenerate"
    )


@dataclass(frozen=True)
class Sublattice:
    """A saturated sublattice, stored as basis rows in ambient coordinates,
    and the free quotient of the ambient lattice by it."""

    ambient: GramLattice
    basis: tuple[Vector, ...]
    # coordinate map: row i gives the i-th coordinate of a member vector
    _coord_rows: IntMatrix = field(init=False, repr=False, compare=False)
    # x lies in the sublattice iff every row dots x to zero
    _quotient_rows: IntMatrix = field(init=False, repr=False, compare=False)
    _lattice: GramLattice | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = len(self.basis)
        rows = [check_vector(self.ambient.gram, b) for b in self.basis]
        h, u = hnf_transform([[b[i] for b in rows] for i in range(self.ambient.rank)])  # U.B^T = H
        if sum(map(any, h)) < k:
            raise InputError("sublattice basis rows are linearly dependent")
        if h[:k] != identity_matrix(k):
            raise InputError("sublattice basis does not span a saturated sublattice")
        # H = [I; 0], so B^T = U^-1[:, :k]: x = B^T.c iff U[k:].x = 0, and then c = U[:k].x
        object.__setattr__(self, "_coord_rows", u[:k])
        object.__setattr__(self, "_quotient_rows", u[k:])
        object.__setattr__(self, "_lattice", None)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def as_lattice(
        self, signature: Signature | None = None, radical: tuple[Vector, ...] | None = None
    ) -> GramLattice:
        """The induced pairing on the basis, one shared lattice per sublattice
        so that its signature and radical are worked out once.  The first
        call may hand it both, where a theorem proves them
        (``surface.boundary_complement``)."""
        if self._lattice is None:
            gram = tuple(map(tuple, self.ambient.gram_of(self.basis)))
            lattice = _unchecked(GramLattice, gram=gram, _signature=signature, _radical=radical)
            object.__setattr__(self, "_lattice", lattice)
        return self._lattice

    def embed(self, coords: Sequence[int]) -> Vector:
        if len(coords) != self.rank:
            raise InputError("coordinate vector length differs from sublattice rank")
        if not self.basis:
            return (0,) * self.ambient.rank
        return tuple(combination(coords, self.basis))

    def coords_of(self, v: Sequence[int]) -> Vector:
        """Coordinates of an ambient vector in this basis; error if outside."""
        v = check_vector(self.ambient.gram, v)
        if not self.contains(v):
            raise InputError("vector does not lie in the sublattice")
        return tuple(matvec(self._coord_rows, v))

    def contains(self, v: Sequence[int]) -> bool:
        return len(v) == self.ambient.rank and not any(matvec(self._quotient_rows, v))


def saturated_complement(lattice: GramLattice, rows: Sequence[Sequence[int]]) -> tuple[Vector, ...]:
    """Canonical complement of the span of independent rows, saturated by
    construction (no Hermite form re-checks them): the columns past the rank
    of U^-1 for the Smith form U.B^T.V = [I; 0]."""
    u_inv = snf_transform([[b[i] for b in rows] for i in range(lattice.rank)], inverse=True)[3]
    return tuple(zip(*u_inv))[len(rows):]


def sublattice_from_rows(
    lattice: GramLattice, rows: Iterable[Sequence[int]]
) -> Sublattice:
    return Sublattice(lattice, tuple(tuple(r) for r in rows))


def orthogonal_complement(
    lattice: GramLattice, vectors: Iterable[Sequence[int]]
) -> Sublattice:
    """Saturated sublattice {x : x.v = 0 for every given v}.

    Integer kernels are automatically saturated, so the basis is primitive.
    Pairing rows that end in unit columns take ``_unit_column_complement``;
    any others take ``right_kernel`` and the checked ``Sublattice``.
    """
    rows = [lattice.pairing_row(v) for v in vectors]
    if not rows:
        return Sublattice(lattice, tuple(map(tuple, identity_matrix(lattice.rank))))
    f = len(rows[0])
    while f and _is_unit_column(rows, f - 1):
        f -= 1
    if f < lattice.rank:
        return _unit_column_complement(lattice, rows, f)
    ker = right_kernel(rows)
    return Sublattice(lattice, tuple(tuple(r) for r in ker))


def _is_unit_column(rows: IntMatrix, c: int) -> bool:
    """Whether column c of ``rows`` has one nonzero entry, equal to 1."""
    col = [row[c] for row in rows]
    return col.count(0) == len(col) - 1 and 1 in col


def _unit_column_complement(lattice: GramLattice, rows: IntMatrix, f: int) -> Sublattice:
    """The kernel of pairing rows P whose columns from f on are unit columns,
    read off P (module docstring), and its coordinate and membership rows."""
    n = lattice.rank
    owner = [[row[c] for row in rows].index(1) for c in range(f, n)]
    last = {i: c for c, i in enumerate(owner, start=f)}
    # the rows with no unit column bound the leading coordinates alone
    free = [row[:f] for i, row in enumerate(rows) if i not in last]
    small = right_kernel(free) if free and f else identity_matrix(f)
    tail = [0] * (n - f)
    basis = []
    for tau in small:
        x = [*tau, *tail]
        for i, c in last.items():
            x[c] = -dot(rows[i][:f], tau)  # so that P_i.x = 0
        basis.append(tuple(x))
    # the small kernel's coordinates, from the Hermite form of its columns as
    # in Sublattice, then a unit selector for each e_c - e_last(i)
    small_coords = small
    if free and small:
        small_coords = hnf_transform([list(col) for col in zip(*small)])[1][: len(small)]
    coords = [[*row, *tail] for row in small_coords]
    for c, i in enumerate(owner, start=f):
        if c != last[i]:
            row, select = [0] * n, [0] * n
            row[c], row[last[i]], select[c] = 1, -1, 1
            basis.append(tuple(row))
            coords.append(select)
    return _unchecked(
        Sublattice, ambient=lattice, basis=tuple(basis), _coord_rows=coords, _quotient_rows=rows
    )
