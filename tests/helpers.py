"""Shared generators and brute-force oracles for the property suites.

Everything here is deliberately naive: box searches, elementary-operation
products, exhaustive loops.  The point is independence from the library's own
algorithms, so agreement actually means something.
"""

from __future__ import annotations

import itertools
import os
import random
from fractions import Fraction
from math import gcd, isqrt

from cuspcheck.errors import InputError
from cuspcheck.intlinalg import (
    det_int,
    dot,
    matmul,
    matvec,
    nonzero_rows,
    rank_int,
    ring_points,
    row_hnf,
    saturation,
    snf_transform,
    solve_int,
    transpose,
)
from cuspcheck.lattice import gram_lattice
from cuspcheck.surface import BlowDownResult, LooijengaSurface, interior_blowup, toric_from_sequence

DEFAULT_SEED = 20260815


def make_rng() -> random.Random:
    return random.Random(int(os.environ.get("CUSPCHECK_SEED", DEFAULT_SEED)))


def short_cycle_surface(sequence):
    """The toric surface of ``sequence`` with component i blown up a_i + 2
    times, components in ascending order: a cycle of (-2)-curves on a
    rank-10 lattice."""
    y = toric_from_sequence(sequence)
    for comp, a in enumerate(sequence, start=1):
        for _ in range(a + 2):
            y = interior_blowup(y, comp)
    return y


def random_symmetric(rng: random.Random, n: int, lo: int = -4, hi: int = 4):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.randint(lo, hi)
    return a


def random_unimodular(rng: random.Random, n: int, steps: int = 12):
    """Product of elementary row operations; determinant is +/-1 by construction."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            k = rng.randint(-2, 2)
            for c in range(n):
                u[i][c] += k * u[j][c]
        elif op == 1 and i != j:
            u[i], u[j] = u[j], u[i]
        elif op == 2:
            u[i] = [-x for x in u[i]]
    assert det_int(u) in (1, -1)
    return u


def random_nonsingular(rng: random.Random, n: int, lo: int = -3, hi: int = 3):
    while True:
        b = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        if det_int(b) != 0:
            return b


def negative_definite_from_factor(b):
    """-B^T B: negative definite whenever B is nonsingular."""
    bt = transpose(b)
    prod = matmul(bt, b)
    return [[-x for x in row] for row in prod]


def factored_square_vectors(b, s: int):
    """All integer v with v^T (-B^T B) v = s, via the substitution w = B v.

    |w|^2 must equal -s, which confines w to an explicit box; v is recovered
    by exact linear solving.  Independent of any lattice-reduction machinery.
    """
    n = len(b)
    target = -s
    bound = int(target**0.5) + 1
    out = []
    for w in itertools.product(range(-bound, bound + 1), repeat=n):
        if sum(x * x for x in w) != target:
            continue
        v = solve_int(b, list(w))
        if v is not None:
            out.append(tuple(v))
    return sorted(out)


def box_square_vectors(gram, s: int, box: int):
    """Every v in the box with v^T gram v = s.  Only valid if the box is

    large enough to contain all solutions, which the caller must argue."""
    n = len(gram)
    out = []
    for v in itertools.product(range(-box, box + 1), repeat=n):
        q = sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))
        if q == s:
            out.append(tuple(v))
    return sorted(out)


def congruence_transform(gram, u):
    """U^T G U as plain lists."""
    return matmul(transpose(u), matmul(gram, u))


def naive_pair(gram, u, v):
    """u^T gram v as a double loop over the nonzero Gram entries."""
    n = len(gram)
    return sum(
        u[i] * gram[i][j] * v[j]
        for i in range(n)
        for j in range(n)
        if gram[i][j] != 0
    )


def naive_sign_vectors(gram, walls, points):
    """One row per point: the sign of its pairing with each wall in turn."""
    return tuple(
        tuple((p > 0) - (p < 0) for p in (naive_pair(gram, x, w) for w in walls))
        for x in points
    )


def _unit(n: int, j: int):
    return [1 if i == j else 0 for i in range(n)]


def _from_columns(cols):
    n = len(cols)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def naive_reflection_matrix(gram, alpha):
    """Reflection x -> x + (x.alpha) alpha, applied to each unit vector."""
    n = len(gram)
    cols = []
    for j in range(n):
        x = _unit(n, j)
        c = naive_pair(gram, x, alpha)
        cols.append([x[i] + c * alpha[i] for i in range(n)])
    return _from_columns(cols)


def naive_eichler_matrix(gram, f, e):
    """Transvection x -> x + (x.f)e - (x.e)f - (e.e/2)(x.f)f, applied to each unit vector."""
    n = len(gram)
    half = naive_pair(gram, e, e) // 2
    cols = []
    for j in range(n):
        x = _unit(n, j)
        xf = naive_pair(gram, x, f)
        xe = naive_pair(gram, x, e)
        cols.append([x[i] + xf * e[i] - xe * f[i] - half * xf * f[i] for i in range(n)])
    return _from_columns(cols)


def fraction_charpoly(a):
    """det(xI - a), lowest degree first, by Faddeev-LeVerrier over Fractions."""
    n = len(a)
    af = [[Fraction(x) for x in row] for row in a]
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    b = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        prev = coeffs[n - k + 1]
        shifted = [[b[i][j] + (prev if i == j else 0) for j in range(n)] for i in range(n)]
        b = [
            [sum(af[i][t] * shifted[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        coeffs[n - k] = -sum(b[i][i] for i in range(n)) / k
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def fraction_signature(gram):
    """(positive, negative, null) by symmetric Gaussian elimination over Q.

    When the whole remaining diagonal vanishes, e_i <- e_i + e_j makes the
    diagonal entry 2 a[i][j] nonzero before elimination continues.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    remaining = list(range(n))
    pos = neg = 0
    while remaining:
        k = next((i for i in remaining if a[i][i] != 0), None)
        if k is None:
            pair_idx = next(
                ((i, j) for i in remaining for j in remaining if i < j and a[i][j] != 0),
                None,
            )
            if pair_idx is None:
                break
            i, j = pair_idx
            for t in range(n):
                a[i][t] += a[j][t]
            for t in range(n):
                a[t][i] += a[t][j]
            continue
        if a[k][k] > 0:
            pos += 1
        else:
            neg += 1
        remaining.remove(k)
        pivot = a[k][k]
        col = {i: a[i][k] for i in remaining}
        for i in remaining:
            for j in remaining:
                a[i][j] -= col[i] * col[j] / pivot
            a[i][k] = a[k][i] = Fraction(0)
    return pos, neg, len(remaining)


def hnf_is_saturated(rows, n):
    """The row span is saturated iff it has the same HNF as its saturation."""
    if not rows:
        return True
    return nonzero_rows(row_hnf(rows)) == nonzero_rows(row_hnf(saturation(rows, n)))


def hnf_sublattice_error(rows, n):
    """The message a sublattice basis is refused with, by rank and HNF tests; None if accepted."""
    if rows and rank_int(rows) != len(rows):
        return "sublattice basis rows are linearly dependent"
    if not hnf_is_saturated(rows, n):
        return "sublattice basis does not span a saturated sublattice"
    return None


def period_candidates(domain_rank: int, zero_rows, m: int):
    """Every value tuple x with zero_rows . x = 0 (mod m), in lexicographic
    order of the Smith coordinates: x = V.y, y_i = (m / gcd(d_i, m)) t_i."""
    n = domain_rank
    if zero_rows:
        dm, _u, v = snf_transform([list(r) for r in zero_rows])
        diag = [dm[i][i] for i in range(min(len(zero_rows), n))]
    else:
        v, diag = None, []
    ranges = []
    for i in range(n):
        g = gcd(diag[i] if i < len(diag) else 0, m)
        ranges.append([m // g * t for t in range(g)])
    for y in itertools.product(*ranges):
        yield tuple(y) if v is None else tuple(c % m for c in matvec(v, y))


def first_period_values(domain_rank: int, zero_rows, nonzero_rows, m: int):
    """First candidate of ``period_candidates`` on which no nonzero row
    vanishes mod m, by walking every candidate; None if there is none."""
    for values in period_candidates(domain_rank, zero_rows, m):
        if all(sum(c * x for c, x in zip(row, values)) % m for row in nonzero_rows):
            return values
    return None


def box_wedge_point(lattice, alpha, beta, bound: int = 12):
    """The first point of the max-norm rings 1..bound with positive square
    pairing strictly positively with alpha and with beta, once beta is
    oriented so that alpha.beta >= 0; None if the box holds none."""
    if lattice.pair(alpha, beta) < 0:
        beta = tuple(-b for b in beta)
    for cand in ring_points(lattice.rank, bound):
        row = lattice.pairing_row(cand)
        if dot(row, cand) > 0 and dot(row, alpha) > 0 and dot(row, beta) > 0:
            return cand
    return None


def naive_walk(gram, alpha, beta, base, count: int):
    """Walls and points of the alternating word alpha, beta, alpha, ... of
    length count, one reflection x -> x + (x.r) r at a time: wall k is letter
    k reflected in letters k-1, ..., 0, and point k+1 is point k reflected in
    wall k."""

    def reflect(r, x):
        c = naive_pair(gram, x, r)
        return tuple(xi + c * ri for xi, ri in zip(x, r))

    letters = [tuple(alpha) if k % 2 == 0 else tuple(beta) for k in range(count)]
    walls = []
    for k, wall in enumerate(letters):
        for prev in reversed(letters[:k]):
            wall = reflect(prev, wall)
        walls.append(wall)
    points = [tuple(base)]
    for wall in walls:
        points.append(reflect(wall, points[-1]))
    return walls, points


def box_translation_witness(lattice, phi, translations, bound: int = 16):
    """First combination e of the translations in the max-norm rings
    1..bound with e.e <= -8 and phi(e) = 0; None if the box holds none."""
    n = lattice.rank
    for coeffs in ring_points(len(translations), bound):
        e = [sum(c * t[i] for c, t in zip(coeffs, translations)) for i in range(n)]
        if naive_pair(lattice.gram, e, e) <= -8 and phi.evaluate(e) == 0:
            return e
    return None


def box_nonzero_residue(phi, tvecs, bound: int = 16):
    """First (combination, residue) of the tvecs in the max-norm rings
    1..bound whose residue is nonzero; None if the box holds none."""
    n = len(tvecs[0])
    for coeffs in ring_points(len(tvecs), bound):
        e = [sum(c * t[i] for c, t in zip(coeffs, tvecs)) for i in range(n)]
        residue = phi.evaluate(e)
        if residue:
            return e, residue
    return None


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


def fraction_definite_vectors(gram: list[list[int]], s: int):
    """All x with x^T gram x = s for gram negative definite, s < 0, by a
    Fincke-Pohst walk on rational Cholesky data in ``Fraction`` arithmetic."""
    n = len(gram)
    if n == 0:
        return []
    q = [[Fraction(-gram[i][j]) for j in range(n)] for i in range(n)]
    d, c = _cholesky(q)
    target = Fraction(-s)
    out = []
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


def unwind_blow_down(surface, v):
    """The former in-place inverse of the last interior blow-up: the oracle of
    ``blow_down_with_embedding`` on the last exceptional class.  Truncates the
    Gram matrix, the labels, the boundary and the older history to the first
    n - 1 coordinates, and embeds by the first n - 1 unit vectors."""
    n = surface.picard.rank
    unit_last = tuple([0] * (n - 1) + [1])
    assert surface.history and surface.history[-1][1] == v and v == unit_last
    gram = [list(row[: n - 1]) for row in surface.picard.gram[: n - 1]]
    labels = (
        tuple(surface.picard.basis_labels[: n - 1])
        if surface.picard.basis_labels is not None
        else None
    )
    picard = gram_lattice(gram, labels)
    boundary = tuple(tuple(b[: n - 1]) for b in surface.boundary)
    history = tuple(
        (comp, tuple(c[: n - 1])) for comp, c in surface.history[:-1]
    )
    embed = tuple(
        tuple(1 if j == i else 0 for j in range(n)) for i in range(n - 1)
    )
    return BlowDownResult(
        LooijengaSurface(picard=picard, boundary=boundary, history=history),
        embed,
    )
