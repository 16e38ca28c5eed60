"""Enumerating lattice vectors of a fixed negative square.

For a negative definite Gram matrix the list is finite and is produced by an
exact Fincke-Pohst walk over the integers.  A fraction-free (Bareiss) LDL^T
of the form writes x^T q x as a sum of squares of integer linear forms over
products of leading minors; scaled by the lcm of those products, every bound
is an integer and each coordinate range is an integer square root and two
floor divisions.  No ``Fraction`` is involved.

Every negative (semi)definite lattice takes the same one walk: the solutions
form whole cosets modulo the radical (possibly empty), the representatives
are enumerated in the negative definite quotient and lifted through the
canonical complement of the radical, so output is deterministic.  A kernel
basis, the radical is saturated: one Smith form gives that complement
(``lattice.saturated_complement``), whose columns are taken once to lift
every representative.  A boundary complement is handed its signature and
radical where its cycle proves them (``surface.boundary_complement``), so
its enumeration eliminates neither.  Each lattice keeps its results by square.

The number of vectors of square s grows like |s|^(rank/2), so the walk
counts its nodes (the root and each value one level gives its coordinate)
and refuses, with ``InputError``, an enumeration that would walk more than
``NODE_BUDGET`` of them; a refusal keeps nothing.  On the E6 complement square -2 walks 185 nodes
and square -50 walks 487,751.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, lcm

from .errors import InputError
from .intcore import dot, sign_normalized, transpose
from .intlinalg import matvec
from .lattice import GramLattice, Vector, definiteness, saturated_complement


# the nodes one enumeration may walk before it is refused
NODE_BUDGET = 10**6


@dataclass(frozen=True)
class EnumerationResult:
    """Vectors of a fixed square, possibly up to the radical.

    If ``radical`` is empty, ``representatives`` is the complete finite list.
    Otherwise the full solution set is {v + r : v in representatives, r in
    the span of radical}.
    """

    radical: tuple[Vector, ...]
    representatives: tuple[Vector, ...]

    @property
    def complete(self) -> bool:
        return not self.radical


def canonical_root(roots: EnumerationResult) -> Vector:
    """Deterministic choice of one root coset representative (domain coords)."""
    if not roots.representatives:
        raise InputError("no roots to choose from")
    return sorted(sign_normalized(r) for r in roots.representatives)[0]


def _definite_vectors(gram: list[list[int]], s: int) -> list[Vector]:
    """All x with x^T gram x = s for gram negative definite, s < 0."""
    n = len(gram)
    # Bareiss elimination of q = -gram in place: row k ends as r_k with
    # r_kk = M_{k+1}, the leading minor of size k+1 (M_0 = 1), and
    # x^T q x = sum_k (r_k.x)^2 / (M_k M_{k+1}).  By Sylvester's criterion q
    # is positive definite iff every pivot is positive.
    r = [[-g for g in row] for row in gram]
    minors = [1]
    for k in range(n):
        pivot = r[k][k]
        if pivot <= 0:
            raise InputError("form is not definite")
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                r[i][j] = (pivot * r[i][j] - r[i][k] * r[k][j]) // minors[k]
        minors.append(pivot)
    scale = lcm(*(minors[k] * minors[k + 1] for k in range(n)))
    weight = [scale // (minors[k] * minors[k + 1]) for k in range(n)]
    out: list[Vector] = []
    x = [0] * n
    nodes = 1  # the root; each level adds the children it is about to walk

    def walk(k: int, rem: int):
        # rem is scale * (-s - the terms of levels above k); level k takes
        # weight * (r_k.x)^2 with r_k.x = m t + u, so |m t + u| <= b
        nonlocal nodes
        if k < 0:
            if rem == 0:
                out.append(tuple(x))
            return
        u = dot(r[k][k + 1 :], x[k + 1 :])
        m, w = minors[k + 1], weight[k]
        b = isqrt(rem // w)
        lo, hi = -((b + u) // m), (b - u) // m
        nodes += max(hi - lo + 1, 0)
        if nodes > NODE_BUDGET:
            raise InputError(
                f"enumeration of square {s} stopped after {NODE_BUDGET} nodes, its budget"
            )
        for t in range(lo, hi + 1):
            x[k] = t
            walk(k - 1, rem - w * (m * t + u) ** 2)
        x[k] = 0

    walk(n - 1, -s * scale)
    return sorted(out)


def vectors_of_square(lattice: GramLattice, s: int) -> EnumerationResult:
    """All lattice vectors v with v.v = s (s < 0), exactly.

    The result is canonical coset representatives together with a radical
    basis; for a negative definite lattice the radical is empty and the list
    is complete.
    Indefinite input is rejected because the solution set is infinite in a
    way no radical accounts for, and so is a walk past ``NODE_BUDGET`` nodes.
    """
    if s in (kept := lattice._vectors or {}):
        return kept[s]
    if s >= 0:
        raise InputError("vectors_of_square requires a negative target square")
    kind = definiteness(lattice)
    if kind == "indefinite":
        raise InputError("enumeration unbounded")
    if kind in ("positive_definite", "positive_semidefinite_degenerate"):
        raise InputError("lattice is not negative (semi)definite")
    # the quotient by the radical (possibly empty, possibly everything) is
    # negative definite, which the pivot test of the walk checks once more
    rad = lattice.radical
    section = saturated_complement(lattice, rad)
    qgram = lattice.gram_of(section)
    cols = transpose(section)
    reps = [tuple(matvec(cols, w)) for w in _definite_vectors(qgram, s)]
    result = EnumerationResult(rad, tuple(sorted(reps)))
    object.__setattr__(lattice, "_vectors", {**kept, s: result})
    return result
