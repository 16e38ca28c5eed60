"""Enumerating lattice vectors of a fixed negative square.

For a negative definite Gram matrix the list is finite and is produced by an
exact Fincke-Pohst walk: rational Cholesky data gives nested interval bounds
per coordinate, with all comparisons done in ``Fraction`` arithmetic (square
roots only ever appear as exact integer floor computations).

For a negative semidefinite lattice with radical the solutions form whole
cosets modulo the radical; the representatives are enumerated in the finite
quotient and lifted through the canonical section of a fixed quotient
presentation, so output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import InputError
from .intlinalg import transpose
from .lattice import (
    GramLattice,
    Vector,
    definiteness,
    gram_lattice,
    quotient_presentation,
    radical_basis,
)


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


def _floor_sqrt(f: Fraction) -> int:
    """floor(sqrt(f)) for f >= 0, exactly."""
    if f < 0:
        raise ValueError("negative argument")
    k = isqrt(f.numerator // f.denominator)
    while (k + 1) * (k + 1) <= f:
        k += 1
    while k * k > f:
        k -= 1
    return k


def _coordinate_range(c: Fraction, bound: Fraction) -> range:
    """Integers t with (t + c)^2 <= bound, as a range object."""
    if bound < 0:
        return range(0)

    def below(x: Fraction) -> bool:
        # x <= sqrt(bound), decided without leaving the rationals
        return x <= 0 or x * x <= bound

    def largest(offset: Fraction) -> int:
        # largest integer t with t + offset <= sqrt(bound); the start value
        # overshoots by at most three, so the loop is constant-time
        t = _floor_sqrt(bound) + (-offset).__floor__() + 2
        while not below(t + offset):
            t -= 1
        return t

    return range(-largest(-c), largest(c) + 1)


def _cholesky(q: list[list[Fraction]]) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Decompose positive definite q as sum_i d_i (x_i + sum_{j>i} c_ij x_j)^2."""
    n = len(q)
    a = [row[:] for row in q]
    d = [Fraction(0)] * n
    c = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise InputError("form is not definite")
        for j in range(i + 1, n):
            c[i][j] = a[i][j] / d[i]
        for k in range(i + 1, n):
            for l in range(k, n):
                a[k][l] -= a[i][k] * a[i][l] / d[i]
                a[l][k] = a[k][l]
    return d, c


def _definite_vectors(gram: list[list[int]], s: int) -> list[Vector]:
    """All x with x^T gram x = s for gram negative definite, s < 0."""
    n = len(gram)
    if n == 0:
        return []
    q = [[Fraction(-gram[i][j]) for j in range(n)] for i in range(n)]
    d, c = _cholesky(q)
    target = Fraction(-s)
    out: list[Vector] = []
    x = [0] * n

    def walk(i: int, rem: Fraction):
        if i < 0:
            if rem == 0:
                out.append(tuple(x))
            return
        shift = sum((c[i][j] * x[j] for j in range(i + 1, n)), Fraction(0))
        for t in _coordinate_range(shift, rem / d[i]):
            x[i] = t
            term = d[i] * (t + shift) * (t + shift)
            walk(i - 1, rem - term)
        x[i] = 0

    walk(n - 1, target)
    return sorted(out)


def vectors_of_square(lattice: GramLattice, s: int) -> EnumerationResult:
    """All lattice vectors v with v.v = s (s < 0), exactly.

    Negative definite lattices give the complete list; negative semidefinite
    ones give canonical coset representatives together with a radical basis.
    Indefinite input is rejected because the solution set is infinite in a
    way no radical accounts for.
    """
    if s >= 0:
        raise InputError("vectors_of_square requires a negative target square")
    kind = definiteness(lattice)
    if kind == "indefinite":
        raise InputError("enumeration unbounded")
    if kind in ("positive_definite", "positive_semidefinite_degenerate"):
        raise InputError("lattice is not negative (semi)definite")
    if kind == "zero":
        if lattice.rank == 0:
            return EnumerationResult((), ())
        rad = tuple(radical_basis(lattice))
        return EnumerationResult(rad, ())
    if kind == "negative_definite":
        reps = _definite_vectors([list(r) for r in lattice.gram], s)
        return EnumerationResult((), tuple(reps))
    # negative semidefinite with radical: enumerate in the definite quotient
    rad = radical_basis(lattice)
    pres = quotient_presentation(lattice.rank, [list(r) for r in rad])
    qgram = lattice.gram_of(transpose(pres.section))
    quotient = gram_lattice(qgram)
    if definiteness(quotient) != "negative_definite":
        raise InputError("quotient by the radical is not negative definite")
    reps = [pres.lift(w) for w in _definite_vectors(qgram, s)]
    return EnumerationResult(tuple(tuple(r) for r in rad), tuple(sorted(reps)))
