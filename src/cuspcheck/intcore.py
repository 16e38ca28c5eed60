"""The integer core: the arithmetic that the certificate checker runs.

Products, pairings by a bare Gram matrix, one Hermite elimination and the
congruence inertia, on plain ``list[list[int]]`` matrices and integer
vectors.  ``checker`` imports this module and ``errors`` alone, so checking
a certificate loads no producer code; ``intlinalg`` and ``lattice`` build on
the same functions, so each exists once.

The Hermite elimination clears an entry whose pivot divides it by one row
subtraction, and takes the xgcd step only for the others.  A form whose
transform nobody reads (``row_hnf``, hence ``rank_int`` and the
canonicalizing pass of ``intlinalg.left_kernel``) runs the same elimination
without carrying U; ``intlinalg.hnf_transform`` carries it as extra columns
of each row.  H is unique whichever steps produce it, so neither choice
changes an output.
"""

from __future__ import annotations

import itertools
from math import gcd
from operator import add, mul
from typing import Sequence

from .errors import InputError

IntMatrix = list[list[int]]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def copy_matrix(a: list[list[int]]) -> IntMatrix:
    return [list(row) for row in a]


def transpose(a: list[list[int]]) -> IntMatrix:
    if not a:
        return []
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def matmul(a: list[list[int]], b: list[list[int]]) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matmul: inner dimensions differ")
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def sign_normalized(v: Sequence[int]) -> tuple[int, ...]:
    """The one of +v, -v whose first nonzero coordinate is positive."""
    for x in v:
        if x != 0:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    return tuple(v)


def check_vector(gram: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    """``v`` as a tuple, once its length is checked against the rank of ``gram``."""
    if len(v) != len(gram):
        raise InputError(f"vector has {len(v)} coordinates, lattice has rank {len(gram)}")
    return tuple(v)


def check_matrix(gram: Sequence[Sequence[int]], matrix: Sequence[Sequence[int]]):
    """``matrix``, once it is checked to be square of the rank of ``gram``."""
    if len(matrix) != len(gram) or any(len(r) != len(gram) for r in matrix):
        raise InputError("isometry matrix shape does not match lattice rank")
    return matrix


def pairing_row(gram: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    """The linear functional x -> x.v as a coordinate row: the sum of v_j
    times Gram row j over the nonzero v_j (the Gram is symmetric, so row j
    is column j)."""
    row = [0] * len(gram)
    for j, vj in enumerate(v):
        if vj:
            gj = gram[j]
            row = list(map(add, row, gj if vj == 1 else [vj * x for x in gj]))
    return row


def gram_of(gram: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]]) -> IntMatrix:
    """Gram matrix [u.v] of a list of vectors.  The pairing is symmetric,
    so each entry on and above the diagonal is worked out once."""
    rows = [pairing_row(gram, u) for u in vectors]
    k = len(rows)
    out = [[0] * k for _ in range(k)]
    for i, row in enumerate(rows):
        for j in range(i, k):
            out[i][j] = out[j][i] = sum(map(mul, row, vectors[j]))
    return out


def _hermite(rows: IntMatrix, n: int) -> IntMatrix:
    """Bring the first n columns of ``rows`` to row HNF in place, and return it.

    Row operations act on whole rows, so columns past n (a carried
    transform) follow every step.
    """
    m = len(rows)
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, m):
            if rows[i][c] == 0:
                continue
            p, e = rows[r][c], rows[i][c]
            if e % p == 0:
                q = e // p
                rows[i] = [ri - q * rr for rr, ri in zip(rows[r], rows[i])]
                continue
            g, x, y = xgcd(p, e)
            p, q = p // g, e // g
            rows[r], rows[i] = (
                [x * rr + y * ri for rr, ri in zip(rows[r], rows[i])],
                [-q * rr + p * ri for rr, ri in zip(rows[r], rows[i])],
            )
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [hi - q * hr for hi, hr in zip(rows[i], rows[r])]
        r += 1
        if r == m:
            break
    return rows


def row_hnf(a: list[list[int]]) -> IntMatrix:
    """The H of ``intlinalg.hnf_transform``, by the same elimination without carrying U."""
    return _hermite(copy_matrix(a), len(a[0]) if a else 0)


def nonzero_rows(a: list[list[int]]) -> IntMatrix:
    return [list(row) for row in a if any(x != 0 for x in row)]


def rank_int(a: list[list[int]]) -> int:
    return len(nonzero_rows(row_hnf(a)))


def inertia(a: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """(positive, negative, null) inertia of a symmetric integer matrix.

    Exact congruence elimination: at a nonzero diagonal pivot p with row c,
    the remaining block becomes sign(p) (p a_ij - c_i c_j), which is |p| times
    the Schur complement and so, by Sylvester's law of inertia, has the
    inertia of the remaining form; dividing by its content keeps it small.
    When the whole diagonal is zero but some a_ij is not, adding row and
    column j to row and column i (a unimodular congruence) makes the pivot
    2 a_ij.  An all-zero block is null.
    """
    m = [list(row) for row in a]
    positive = negative = 0
    while any(map(any, m)):
        n = len(m)
        k = next((i for i in range(n) if m[i][i]), None)
        if k is None:
            k, j = next((i, j) for i in range(n) for j in range(i + 1, n) if m[i][j])
            m[k] = [x + y for x, y in zip(m[k], m[j])]
            for row in m:
                row[k] += row[j]
        p = m[k][k]
        c = m.pop(k)
        del c[k]
        for row in m:
            del row[k]
        if p > 0:
            positive += 1
            signed = c
        else:
            negative += 1
            signed = [-x for x in c]
        q = abs(p)
        m = [[q * x - ci * y for x, y in zip(row, c)] for row, ci in zip(m, signed)]
        g = gcd(*itertools.chain.from_iterable(m))
        if g > 1:
            m = [[x // g for x in row] for row in m]
    return positive, negative, len(m)
