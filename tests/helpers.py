"""Shared generators and brute-force oracles for the property suites.

Everything here is deliberately naive: box searches, elementary-operation
products, exhaustive loops.  The point is independence from the library's own
algorithms, so agreement actually means something.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, lcm

import cuspcheck.lattice
from cuspcheck import intcore, intlinalg
from cuspcheck.errors import InputError
from cuspcheck.fibration import fiber_from_boundary
from cuspcheck.intcore import (
    check_vector,
    dot,
    matmul,
    nonzero_rows,
    rank_int,
    row_hnf,
    sign_normalized,
    transpose,
    xgcd,
)
from cuspcheck.intlinalg import (
    charpoly,
    combination,
    hnf_transform,
    identity_matrix,
    matvec,
    right_kernel,
    ring_points,
    saturation,
    snf_transform,
    solve_int,
)
from cuspcheck.isometry import Isometry, IsometryType, fixed_sublattice
from cuspcheck.lattice import (
    GramLattice,
    Signature,
    Sublattice,
    gram_lattice,
    saturated_complement,
    sublattice_from_rows,
)
from cuspcheck.period import PeriodPoint
from cuspcheck.surface import (
    BlowDownResult,
    LooijengaSurface,
    _cycle_gram,
    blow_down_with_embedding,
    boundary_complement,
    fan_from_sequence,
    interior_blowup,
    toric_from_sequence,
)

DEFAULT_SEED = 20260815


def run_cli(*args, expect=0):
    """``python -m cuspcheck`` with ``args`` in a subprocess, once its exit
    code is checked to be ``expect``."""
    proc = subprocess.run(
        [sys.executable, "-m", "cuspcheck", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, (args, proc.returncode, proc.stderr)
    return proc


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


@functools.cache
def fan_seeds(n):
    """Every sequence of length n with entries in -2..1 that
    ``fan_from_sequence`` accepts as a smooth complete fan winding once.
    Found once per length and shared, so a tuple that no caller can change.
    A fan winding once has sum(a_i) = 12 - 3n, so only those sequences are
    tried."""
    seeds = []
    for seq in itertools.product(range(-2, 2), repeat=n):
        if sum(seq) != 12 - 3 * n:
            continue
        try:
            fan_from_sequence(seq)
        except InputError:
            continue
        seeds.append(seq)
    return tuple(seeds)


def count_eliminations(monkeypatch):
    """A Counter, keyed by function name, of every Hermite elimination
    (``_hermite``, and ``hnf_transform`` with a transform) and every Smith
    form (``snf_transform``) that any cuspcheck module runs from now until
    the test ends."""
    return count_calls(
        monkeypatch, {"_hermite": intcore, "hnf_transform": intlinalg, "snf_transform": intlinalg}
    )


def count_calls(monkeypatch, homes):
    """A Counter, keyed by function name, of the calls that any cuspcheck
    module makes, under each name it holds the function by, to each function
    of ``homes`` (a name and the module it lives in) from now until the test
    ends."""
    calls = Counter()
    for name, home in homes.items():
        real = getattr(home, name)

        def probe(*a, name=name, real=real, **kw):
            calls[name] += 1
            return real(*a, **kw)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("cuspcheck") and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, probe)
    return calls


def assert_passes_the_checked_constructor(value):
    """``value``, built by a formula through ``lattice._unchecked``, equals
    its rebuild through the checked constructors (which raise nothing) and
    has the same fields, caches included: an isometry through ``Isometry``,
    a lattice through ``gram_lattice``, a surface through both
    ``gram_lattice`` and ``LooijengaSurface``, and a sublattice through
    ``Sublattice`` with the same coordinates and membership."""
    if isinstance(value, Isometry):
        assert Isometry(value.ambient, value.matrix) == value
        return
    if isinstance(value, Sublattice):
        assert_same_sublattice(Sublattice(value.ambient, value.basis), value)
        return
    if isinstance(value, GramLattice):
        checked = gram_lattice(value.gram, value.basis_labels)
        assert checked == value
        assert vars(checked).keys() == vars(value).keys()
        return
    picard = value.picard
    checked = LooijengaSurface(
        picard=gram_lattice(picard.gram, picard.basis_labels),
        boundary=value.boundary,
        history=value.history,
    )
    assert checked == value
    assert vars(checked).keys() == vars(value).keys()
    assert vars(checked.picard).keys() == vars(picard).keys()


def assert_same_sublattice(checked, value):
    """``value`` has the basis and fields of ``checked``, and the same
    coordinates and membership: on each basis row, on two combinations of
    them, and on each of those pushed along every ambient coordinate."""
    assert checked == value and checked.basis == value.basis
    assert vars(checked).keys() == vars(value).keys()
    rows, n = value.basis, value.ambient.rank
    members = [list(b) for b in rows] + [[0] * n]
    if rows:
        members += [combination([i + 1 for i in range(len(rows))], rows),
                    combination([(-1) ** i * (2 * i + 1) for i in range(len(rows))], rows)]
    for member in members:
        assert value.contains(member) and value.coords_of(member) == checked.coords_of(member)
        for j in range(n):
            pushed = list(member)
            pushed[j] += 1
            assert value.contains(pushed) == checked.contains(pushed), (rows, pushed)


def kernel_complement(lattice, vectors):
    """The oracle of ``lattice.orthogonal_complement``: the canonical kernel
    of the pairing rows, through ``right_kernel``, and the checked
    ``Sublattice`` on it."""
    rows = [lattice.pairing_row(v) for v in vectors]
    basis = right_kernel(rows) if rows else identity_matrix(lattice.rank)
    return Sublattice(lattice, tuple(map(tuple, basis)))


def unit_column_complements(monkeypatch) -> list:
    """Every complement that ``orthogonal_complement`` reads off unit
    columns, from now until the test ends or undoes its patches."""
    taken, real = [], cuspcheck.lattice._unit_column_complement
    monkeypatch.setattr(
        cuspcheck.lattice, "_unit_column_complement",
        lambda *args: taken.append(real(*args)) or taken[-1],
    )
    return taken


def unit_column_rows(rng):
    """Seeded pairing rows that end in unit columns, and the number f of
    columns before them: some rows zero, some with several units and some
    with none, and unit columns inside the leading f too."""
    r, f = rng.randint(1, 6), rng.randint(0, 5)
    rows = [[rng.randint(-2, 2) for _ in range(f)] for _ in range(r)]
    for row in rows:
        if rng.random() < 0.2:
            row[:] = [0] * f
    for c in range(f):
        if rng.random() < 0.25:
            for row in rows:
                row[c] = 0
            rng.choice(rows)[c] = 1
    owners = [rng.randrange(r) for _ in range(rng.randint(1, 6))]
    for i, row in enumerate(rows):
        row += [int(o == i) for o in owners]
    return rows, f


def det_int(a):
    """Determinant via Bareiss fraction-free elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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


def naive_reflection(lattice, alpha):
    """The reflection in alpha as an isometry of ``lattice``, from the column oracle."""
    return Isometry(lattice, naive_reflection_matrix(lattice.gram, alpha))


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


def identity_isometry(lattice):
    return Isometry(lattice, tuple(tuple(r) for r in identity_matrix(lattice.rank)))


def isometry_inverse(g):
    inv = invert_unimodular(g.matrix)
    return Isometry(g.ambient, tuple(tuple(r) for r in inv))


def isometry_power(g, k: int):
    """g^k by repeated squaring; negative k goes through the inverse."""
    if k < 0:
        return isometry_power(isometry_inverse(g), -k)
    result = identity_isometry(g.ambient)
    base = g
    while k:
        if k & 1:
            result = result.compose(base)
        base = base.compose(base)
        k >>= 1
    return result


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


# integer polynomials, lowest-degree-first coefficient lists


def poly_degree(p: list[int]) -> int:
    d = len(p) - 1
    while d > 0 and p[d] == 0:
        d -= 1
    return d


def poly_trim(p: list[int]) -> list[int]:
    return p[: poly_degree(p) + 1]


def poly_divmod_monic(p: list[int], q: list[int]) -> tuple[list[int], list[int]]:
    """Divide by a monic q over Z; returns (quotient, remainder)."""
    q = poly_trim(q)
    if q[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(p)
    dq = len(q) - 1
    quot = [0] * max(1, len(p) - dq)
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        quot[i - dq] = c
        for j, b in enumerate(q):
            rem[i - dq + j] -= c * b
    return poly_trim(quot), poly_trim(rem)


def euler_phi(d: int) -> int:
    result = d
    n = d
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


_CYCLOTOMIC_CACHE: dict[int, list[int]] = {}


def cyclotomic_polynomial(d: int) -> list[int]:
    """d-th cyclotomic polynomial, lowest-degree-first integer coefficients."""
    if d in _CYCLOTOMIC_CACHE:
        return list(_CYCLOTOMIC_CACHE[d])
    if d == 1:
        poly = [-1, 1]
    else:
        poly = [0] * (d + 1)
        poly[0] = -1
        poly[d] = 1  # x^d - 1
        for e in range(1, d):
            if d % e == 0:
                poly, rem = poly_divmod_monic(poly, cyclotomic_polynomial(e))
                if rem != [0]:
                    raise ArithmeticError("cyclotomic recursion left a remainder")
    _CYCLOTOMIC_CACHE[d] = list(poly)
    return poly


def strip_cyclotomic(p: list[int]) -> tuple[list[int], list[int]]:
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


def cyclotomic_classify(g) -> IsometryType:
    """The trichotomy by Kronecker's theorem: a monic integer polynomial all
    of whose roots lie on the unit circle is a product of cyclotomic
    polynomials, so stripping every cyclotomic factor from the characteristic
    polynomial either exhausts it (elliptic or parabolic, split by testing a
    concrete power against the identity) or leaves a witness of an eigenvalue
    off the circle (hyperbolic)."""
    sig = g.ambient.signature
    if sig != Signature(1, g.ambient.rank - 1, 0) or g.ambient.rank < 2:
        raise InputError(
            "classification requires a nondegenerate lattice of signature (1, n), n >= 1"
        )
    p = charpoly(g.matrix)
    orders, rest = strip_cyclotomic(p)
    if poly_degree(rest) > 0:
        return IsometryType(tag="hyperbolic")
    # a g of finite order is diagonalizable, so its order is the lcm of the
    # orders of its eigenvalues, the roots of unity found above
    n_power = lcm(*orders)
    if isometry_power(g, n_power).is_identity():
        return IsometryType(tag="elliptic", order=n_power)
    fixed = fixed_sublattice(g)
    rad = [fixed.embed(r) for r in fixed.as_lattice().radical]
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


def charpoly_signature(gram):
    """(positive, negative, null) read off the integer characteristic polynomial.

    A symmetric matrix has only real eigenvalues, so zero has the multiplicity
    of the lowest nonzero coefficient and Descartes' rule of signs counts the
    positive roots exactly.
    """
    p = charpoly(gram)
    null = next(i for i, c in enumerate(p) if c)
    signs = [c > 0 for c in p if c]
    positive = sum(a != b for a, b in zip(signs, signs[1:]))
    return positive, len(gram) - null - positive, null


def is_saturated_rows(rows, n):
    """True when the row span is saturated in Z^n: no invariant factor exceeds 1."""
    if not rows:
        return True
    d = snf_transform(rows)[0]
    return all(d[i][i] <= 1 for i in range(min(len(rows), n)))


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


def pruned_first_point(sizes, functionals, m: int):
    """Lexicographically first t, 0 <= t_i < sizes[i], on which no functional
    sum(w_i t_i) vanishes mod m; None if there is none.  Each functional's
    coefficients must be reduced mod m.

    Depth-first over t_0, t_1, ..., every value of every coordinate in turn:
    a functional is decided at its closing index, the last coordinate where
    its coefficient is nonzero mod m, and a subtree is cut as soon as a
    functional decided at that depth sums to 0.  Cut subtrees hold no
    solution, so the first leaf reached is the first point of the full
    lexicographic walk.
    """
    n = len(sizes)
    # per depth: (index, coefficient) of the functionals that stay open and
    # of those that close there
    opened = [[] for _ in range(n)]
    closed = [[] for _ in range(n)]
    for j, w in enumerate(functionals):
        support = [i for i in range(n) if w[i]]
        if not support:
            return None  # vanishes on every point
        for i in support[:-1]:
            opened[i].append((j, w[i]))
        closed[support[-1]].append((j, w[support[-1]]))
    point = [0] * n

    def search(i, sums):
        if i == n:
            return True
        for t in range(sizes[i]):
            if any((sums[j] + c * t) % m == 0 for j, c in closed[i]):
                continue
            deeper = sums.copy()
            for j, c in opened[i]:
                deeper[j] += c * t
            point[i] = t
            if search(i + 1, deeper):
                return True
        return False

    return point if search(0, [0] * len(functionals)) else None


def first_period_values(domain_rank: int, zero_rows, nonzero_rows, m: int):
    """First candidate of ``period_candidates`` on which no nonzero row
    vanishes mod m, by walking every candidate; None if there is none."""
    for values in period_candidates(domain_rank, zero_rows, m):
        if all(sum(c * x for c, x in zip(row, values)) % m for row in nonzero_rows):
            return values
    return None


def both_sign_kostant_floor(lat, v, diag, rows) -> int:
    """The former walk of ``period._kostant_floor``, oracle of the walk over
    +/- pairs: the same floor, with every class of R and its negative
    keyed, reflected and checked on its own."""
    if len(rows) < 2:
        return 2
    gram = lat.gram
    for r in lat.radical:
        if any(x % d if d else x for x, d in zip(combination(r, v), diag)):
            return 2
    base = 6 * max(map(abs, sum(gram, ()))) * max(sum(map(abs, s)) for s in rows) + 1
    packed_cols = [sum(x * base**i for i, x in enumerate(col)) for col in gram]
    keys = [dot(s, packed_cols) for s in rows]
    classes = {p: s for p, s in zip(keys, rows)}
    classes.update({-p: [-x for x in s] for p, s in zip(keys, rows)})
    gens, orbit = [], {}
    for s, p in zip(rows, keys):
        if p in orbit:
            continue
        if dot(gb := matvec(gram, s), s) != -2:
            return 2
        gens.append((gb, p))
        orbit[p] = 0
        queue = list(orbit)
        for t in queue:
            for gb, pb in gens[orbit[t]:]:
                if not -2 <= (c := dot(classes[t], gb)) <= 2 or (q := t + c * pb) not in classes:
                    return 2
                if q not in orbit:
                    orbit[q] = 0
                    queue.append(q)
            orbit[t] = len(gens)
    return -(-len(classes) // rank_int([gb for gb, _ in gens]))


def reembedded_coords(sub, v):
    """The former ``Sublattice.coords_of``, oracle of the Smith cokernel
    test: the coordinate rows' answer, kept only when it re-embeds to v."""
    v = check_vector(sub.ambient.gram, v)
    coords = tuple(matvec(sub._coord_rows, v))
    if sub.embed(coords) != v:
        raise InputError("vector does not lie in the sublattice")
    return coords


def reembedded_contains(sub, v) -> bool:
    try:
        reembedded_coords(sub, v)
        return True
    except InputError:
        return False


def two_product_unipotent_line(matrix):
    """The former ``checker.unipotent_line``: the primitive, sign-normalized
    first nonzero column of (g - 1)^2 when g != 1 and the second product
    (g - 1)^2 (g - 1) vanishes, else None."""
    nil = [[x - (i == j) for j, x in enumerate(r)] for i, r in enumerate(matrix)]
    nil2 = matmul(nil, nil)
    image = [col for col in transpose(nil2) if any(col)]
    if not image or any(map(any, matmul(nil2, nil))):
        return None
    d = gcd(*image[0])
    return sign_normalized([x // d for x in image[0]])


def invert_unimodular(a):
    """The former ``intlinalg.invert_unimodular``: the inverse of a
    unimodular integer matrix, the U of its Hermite form U.a = I, or
    ValueError.  ``saturated_complement`` carries U^-1 through its Smith
    form instead."""
    h, u = hnf_transform(a)
    if h != identity_matrix(len(a)):
        raise ValueError("matrix is not unimodular")
    return u


def smith_sublattice_rows(ambient, basis):
    """The former ``Sublattice.__post_init__``, oracle of its Hermite form:
    one Smith form U.B^T.V = D of the basis columns refuses a dependent
    basis, then an unsaturated one, and gives the coordinate rows V.U[:k] and
    the quotient rows U[k:] of a saturated one."""
    n = ambient.rank
    rows = [check_vector(ambient.gram, b) for b in basis]
    k = len(rows)
    d, u, v = snf_transform(transpose(rows) if rows else [[] for _ in range(n)])
    if k > n or any(d[i][i] == 0 for i in range(k)):
        raise InputError("sublattice basis rows are linearly dependent")
    if any(d[i][i] > 1 for i in range(k)):
        raise InputError("sublattice basis does not span a saturated sublattice")
    return matmul(v, u[:k]), u[k:]


def sublattice_project(sub, v):
    """The former ``Sublattice.project``: the image of an ambient vector in
    the free quotient by ``sub``, of rank n - k, read off the quotient rows
    U[k:] of the Smith form U.B^T.V = [I; 0] (``smith_sublattice_rows``),
    whose U^-1 gives ``saturated_complement``, so that the two pair to the
    identity.  The sublattice's own Hermite rows vanish on the same vectors
    but project onto another basis of the quotient."""
    quotient_rows = smith_sublattice_rows(sub.ambient, sub.basis)[1]
    return tuple(matvec(quotient_rows, check_vector(sub.ambient.gram, v)))


def smith_toric_from_sequence(self_ints):
    """The former ``toric_from_sequence``, oracle of its closed form: Pic as
    Z^r modulo the fan's two character relations, presented by a
    ``Sublattice`` of the relation rows, with its Smith-form canonical
    complement as basis and each D_i projected to the quotient.  Runs the same checks in
    the same order."""
    a = [int(x) for x in self_ints]
    relations = transpose(fan_from_sequence(a))
    r = len(a)
    cycle = gram_lattice(_cycle_gram(a))
    for rel in relations:
        if any(cycle.pairing_row(rel)):
            raise ArithmeticError("fan relations do not annihilate the cycle pairing")
    span = sublattice_from_rows(cycle, relations)
    rho = r - 2
    labels = tuple(f"T{k + 1}" for k in range(rho))
    picard = gram_lattice(cycle.gram_of(saturated_complement(span.ambient, span.basis)), labels)
    boundary = tuple(
        sublattice_project(span, [1 if t == i else 0 for t in range(r)]) for i in range(r)
    )
    if picard.signature != Signature(1, rho - 1, 0):
        raise ArithmeticError("toric Picard lattice has unexpected signature")
    return LooijengaSurface(picard=picard, boundary=boundary)


def quotient_presentation(n: int, relations):
    """The former ``lattice.quotient_presentation``, oracle of
    ``sublattice_project`` and ``saturated_complement``: the projection
    (q x n) and section (n x q) of Z^n / <relation rows>, from a Smith form
    of the relation columns, with projection . section = I; the identity
    pair when there are no relations."""
    if not relations:
        ident = identity_matrix(n)
        return ident, ident
    d, u, _v = snf_transform(transpose(relations))
    k = len(relations)
    if any(d[i][i] > 1 for i in range(min(n, k))):
        raise InputError("quotient relations must span a saturated sublattice")
    r = sum(1 for i in range(min(n, k)) if d[i][i] != 0)
    u_inv = invert_unimodular(u)
    return [u[i] for i in range(r, n)], [[u_inv[i][j] for j in range(r, n)] for i in range(n)]


def complement_basis_within(within, sub):
    """The former ``lattice.complement_basis_within``, oracle of the
    transvection generators: a canonical complement of span(sub) inside
    span(within), both saturated, from the coordinates of sub solved row by
    row in the basis of within, lifted through the quotient's section."""
    if not within:
        return []
    w = [list(r) for r in within]
    coords = [solve_int(transpose(w), list(s)) for s in sub]
    if any(c is None for c in coords):
        raise InputError("sub span does not lie inside the containing span")
    _projection, section = quotient_presentation(len(w), saturation(coords, len(w)))
    return [combination(col, w) for col in transpose(section)]


def xgcd_hnf_transform(a):
    """Row HNF (H, U) with U*a = H, taking the xgcd step at every nonzero
    entry below a pivot: the former elimination, oracle of the one that
    clears a divisible entry by one row subtraction."""
    m = len(a)
    h = [list(row) for row in a]
    u = identity_matrix(m)
    n = len(a[0]) if a else 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if h[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            h[r], h[piv] = h[piv], h[r]
            u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, m):
            if h[i][c] == 0:
                continue
            g, x, y = xgcd(h[r][c], h[i][c])
            p, q = h[r][c] // g, h[i][c] // g
            for mat in (h, u):
                mat[r], mat[i] = (
                    [x * rr + y * ri for rr, ri in zip(mat[r], mat[i])],
                    [-q * rr + p * ri for rr, ri in zip(mat[r], mat[i])],
                )
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [hi - q * hr for hi, hr in zip(h[i], h[r])]
                u[i] = [ui - q * ur for ui, ur in zip(u[i], u[r])]
        r += 1
        if r == m:
            break
    return h, u


def xgcd_rank(a) -> int:
    return sum(1 for row in xgcd_hnf_transform(a)[0] if any(row))


def xgcd_left_kernel(a):
    """HNF basis of {v : v * a = 0}, both forms by ``xgcd_hnf_transform``."""
    h, u = xgcd_hnf_transform(a)
    return xgcd_hnf_transform([u[i] for i in range(len(h)) if not any(h[i])])[0]


def xgcd_right_kernel(a):
    return xgcd_left_kernel(transpose(a))


def xgcd_inverse(a):
    """U of ``xgcd_hnf_transform``, which is a^-1 when H is the identity; else ValueError."""
    h, u = xgcd_hnf_transform(a)
    if h != identity_matrix(len(a)):
        raise ValueError("matrix is not unimodular")
    return u


def kernel_saturation(rows, n: int):
    """Saturation of the row span in Z^n as the kernel of its kernel, for
    every span: oracle of ``saturation``'s rank-one shortcut."""
    if not rows:
        return []
    perp = xgcd_right_kernel(rows)
    if not perp:
        return identity_matrix(n)
    return xgcd_right_kernel(perp)


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
    wall k, from point 0 = base.  The walk a certificate (alpha, beta, base,
    count) stands for, which the program never builds."""

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


def kernel_blow_down(surface, v):
    """The oracle of ``blow_down_with_embedding`` on any (-1)-class v, by the
    elimination its closed form replaced wherever v's Gram row ends in a
    unit: the canonical integer kernel of v's Gram row, a ``Sublattice`` on
    it for the coordinates of the projected boundary and the kept history,
    and the checked constructors for the result.  Labels and the older history are
    kept exactly when v is the last history class and the last unit vector."""
    picard = surface.picard
    n = picard.rank
    basis = right_kernel([picard.pairing_row(v)])
    comp_sub = sublattice_from_rows(picard, basis)
    boundary = tuple(
        comp_sub.coords_of(combination([1, picard.pair(v, b)], [b, v]))
        for b in surface.boundary
    )
    labels = None
    history = ()
    if surface.history and surface.history[-1][1] == tuple(v) == tuple([0] * (n - 1) + [1]):
        labels = picard.basis_labels and picard.basis_labels[: n - 1]
        history = tuple((comp, comp_sub.coords_of(c)) for comp, c in surface.history[:-1])
    return BlowDownResult(
        LooijengaSurface(
            picard=gram_lattice(picard.gram_of(basis), labels),
            boundary=boundary,
            history=history,
        ),
        tuple(map(tuple, basis)),
    )


def blown_down_second_fibration(s_tilde, phi_tilde, c_q):
    """The oracle of ``pipeline.second_fibration``'s reading inside M: the
    former path through the blown-down surface.  Blows S~ down at the moved
    section c_q, builds Y2's boundary complement, the period phi2 pulled back
    from phi~ through the embedding, and Y2's boundary fibration, and returns
    Y2, its fiber multiple and its fiber class pulled back to S~."""
    result = blow_down_with_embedding(s_tilde, c_q)
    y2 = result.surface
    lam2 = boundary_complement(y2).sublattice
    values = tuple(phi_tilde.evaluate(combination(b, result.embedding)) for b in lam2.basis)
    phi2 = PeriodPoint(domain=lam2, modulus=phi_tilde.modulus, values=values)
    fib2 = fiber_from_boundary(y2, phi2)
    b_sum = s_tilde.boundary_sum()
    mult = s_tilde.picard.pair(b_sum, c_q)
    axis = tuple(fib2.multiple * (x + mult * v) for x, v in zip(b_sum, c_q))
    return y2, fib2.multiple, axis
