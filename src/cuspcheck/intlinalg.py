"""Exact linear algebra over Z for small matrices.

Everything here works on plain ``list[list[int]]`` in row-major order with
Python's arbitrary-precision integers; no step leaves the integers.
The normal forms (Hermite, Smith) carry their transformation matrices so that
kernels, saturations and quotients are canonical: two runs on the
same input produce byte-identical output.

The products, the Hermite elimination and the congruence ``inertia`` live in
``intcore``, which the checker imports; ``hnf_transform`` carries the transform.

The matrices in this project are tiny (rank <= 11), so the implementations
favor clarity and determinism over asymptotics.
"""

from __future__ import annotations

import itertools
from math import gcd
from operator import mul
from typing import Iterator, Sequence

from .intcore import IntMatrix, _hermite, copy_matrix, matmul, nonzero_rows, row_hnf
from .intcore import sign_normalized, transpose


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matvec(a: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    if a and len(a[0]) != len(v):
        raise ValueError("matvec: dimension mismatch")
    return [sum(map(mul, row, v)) for row in a]


def combination(coeffs: Sequence[int], rows: Sequence[Sequence[int]]) -> list[int]:
    """The integer combination sum_i coeffs[i] * rows[i] of equal-length rows."""
    if len(coeffs) != len(rows):
        raise ValueError("combination: one coefficient per row")
    return [sum(map(mul, coeffs, col)) for col in zip(*rows)]


def ring_points(k: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Integer k-tuples of max-norm 1..bound, ring by ring, lexicographic in each.

    This is the search order of every bounded search in the package, so a
    search's witness is the first admissible point and is canonical.
    """
    for radius in range(1, bound + 1):
        for coeffs in itertools.product(range(-radius, radius + 1), repeat=k):
            if max(map(abs, coeffs), default=0) == radius:
                yield coeffs


def hnf_transform(a: list[list[int]]) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form.  Returns (H, U) with U*a = H, det U = +-1.

    H is the canonical row-style HNF: pivots positive, entries above each
    pivot reduced into [0, pivot), zero rows at the bottom.  H is unique; U
    is unique only when the rows of a are independent.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    rows = _hermite([list(row) + e for row, e in zip(a, identity_matrix(m))], n)
    return [row[:n] for row in rows], [row[n:] for row in rows]


def left_kernel(a: list[list[int]]) -> IntMatrix:
    """Basis (canonical HNF rows) of {v : v * a = 0} as a lattice in Z^m.

    Kernels of integer matrices are saturated sublattices, so this basis
    spans the full kernel, not a finite-index subgroup.
    """
    h, u = hnf_transform(a)
    return row_hnf([u[i] for i in range(len(h)) if all(x == 0 for x in h[i])])


def right_kernel(a: list[list[int]]) -> IntMatrix:
    """Basis rows v with a * v^T = 0 (i.e. kernel of the column action)."""
    return left_kernel(transpose(a))


def saturation(rows: list[list[int]], n: int) -> IntMatrix:
    """Saturation of the row span inside Z^n: (Q-span) intersect Z^n.

    One nonzero row is divided by its content; more rows are saturated as
    the kernel of the kernel, both of which are saturated.
    """
    rows = nonzero_rows(rows)
    if not rows:
        return []
    if len(rows) == 1:
        # a rank-one span is saturated by its primitive vector
        d = gcd(*rows[0])
        return [list(sign_normalized([x // d for x in rows[0]]))]
    perp = right_kernel(rows)
    if not perp:
        return identity_matrix(n)
    return right_kernel(perp)


def snf_transform(a: list[list[int]], inverse: bool = False) -> tuple[IntMatrix, ...]:
    """Smith normal form.  Returns (D, U, V) with U*a*V = D, and U^-1 fourth
    if ``inverse``: each row step U -> E.U is the column step U^-1.E^-1 on it.

    D is diagonal with nonnegative entries d_1 | d_2 | ... ; U, V unimodular.
    """
    d = copy_matrix(a)
    m = len(d)
    n = len(d[0]) if d else 0
    u = identity_matrix(m)
    v = identity_matrix(n)
    u_inv = identity_matrix(m) if inverse else []

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for row in u_inv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        d[dst] = [x + k * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]
        for row in u_inv:
            row[src] -= k * row[dst]

    def add_col(src, dst, k):
        for row in d:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def pivot_to_corner() -> bool:
        """Move the smallest nonzero |entry| of the trailing block to (t, t).

        Ties go to the first entry in row-major order; False if the block is zero.
        """
        best = None
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                if row[j] and (best is None or abs(row[j]) < best[0]):
                    best = (abs(row[j]), i, j)
        if best is None:
            return False
        swap_rows(t, best[1])
        swap_cols(t, best[2])
        return True

    t = 0
    while t < min(m, n):
        if not pivot_to_corner():
            break
        while True:
            for i in range(t + 1, m):
                if d[i][t]:
                    add_row(t, i, -(d[i][t] // d[t][t]))
            for j in range(t + 1, n):
                if d[t][j]:
                    add_col(t, j, -(d[t][j] // d[t][t]))
            col_clean = all(d[i][t] == 0 for i in range(t + 1, m))
            row_clean = all(d[t][j] == 0 for j in range(t + 1, n))
            if col_clean and row_clean:
                break
            # a remainder became the new, strictly smaller pivot candidate
            pivot_to_corner()
        # divisibility: pivot must divide every remaining entry
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
            for row in u_inv:
                row[t] = -row[t]
        t += 1
    return (d, u, v, u_inv) if inverse else (d, u, v)


def solve_int(a: list[list[int]], b: list[int]) -> list[int] | None:
    """One integer solution x of a @ x = b (column convention), or None."""
    m = len(a)
    n = len(a[0]) if a else 0
    if len(b) != m:
        raise ValueError("solve_int: dimension mismatch")
    d, u, v = snf_transform(a)
    # D.x' = U.b needs d_i | y_i, and y_i = 0 where d_i = 0; then x = V.x'
    y = matvec(u, b)
    x_new = [0] * n
    for i in range(m):
        di = d[i][i] if i < min(m, n) else 0
        if y[i] % di if di else y[i]:
            return None
        if di:
            x_new[i] = y[i] // di
    return matvec(v, x_new)


def charpoly(a: Sequence[Sequence[int]]) -> list[int]:
    """Characteristic polynomial det(xI - a), coefficients lowest degree first.

    Faddeev-LeVerrier over Z: M_k = a (M_{k-1} + c_{n-k+1} I) and
    c_{n-k} = -tr(M_k) / k, a division that is exact for integer input.
    """
    n = len(a)
    coeffs = [0] * n + [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += coeffs[n - k + 1]
        m = matmul(a, m)
        tr = sum(m[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError("characteristic polynomial came out non-integral")
        coeffs[n - k] = -tr // k
    return coeffs
