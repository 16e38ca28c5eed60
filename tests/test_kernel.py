"""The integer kernels against naive oracles on random lattices.

Pairings, Gram rows, Gram matrices, integer combinations, chamber signs and
the closed-form transvection matrix are compared with the double-loop and
column-by-column constructions in ``helpers`` on seeded random symmetric
Gram matrices of rank 1 to 11, the pairings on dense and on sparse vectors.
The integer ``charpoly`` is compared with Faddeev-LeVerrier over Fractions;
the congruence ``inertia`` and the ``signature`` built on it with two
oracles, Gaussian elimination over Fractions and the Descartes read-off of
the characteristic polynomial.  The one-Hermite-form ``Sublattice`` is
compared with rank and HNF saturation tests and ``solve_int``.  The Hermite forms, the
kernels, ranks and inverses built on them, and ``saturation`` are compared
with the elimination that takes the xgcd step at every entry.
"""

import itertools

import pytest

from helpers import (
    charpoly_signature,
    congruence_transform,
    det_int,
    fan_seeds,
    fraction_charpoly,
    fraction_signature,
    hnf_is_saturated,
    hnf_sublattice_error,
    invert_unimodular,
    is_saturated_rows,
    naive_eichler_matrix,
    naive_pair,
    kernel_saturation,
    random_symmetric,
    random_unimodular,
    xgcd_hnf_transform,
    xgcd_inverse,
    xgcd_left_kernel,
    xgcd_rank,
    xgcd_right_kernel,
)

from cuspcheck.errors import InputError
from cuspcheck.fibration import eichler_transvection
from cuspcheck.intcore import inertia, matmul, rank_int, row_hnf, transpose
from cuspcheck.intlinalg import (
    charpoly,
    combination,
    hnf_transform,
    left_kernel,
    right_kernel,
    ring_points,
    saturation,
    solve_int,
)
from cuspcheck.lattice import Sublattice, gram_lattice, signature
from cuspcheck.surface import boundary_complement, interior_blowup, toric_from_sequence
from cuspcheck.weyl import chamber_sign

RANKS = range(1, 12)


def _vector(rng, n, k=4):
    return tuple(rng.randint(-k, k) for _ in range(n))


def _sign(p):
    return (p > 0) - (p < 0)


def _change_basis(rng, g0, vectors):
    """The Gram U^T g0 U for a random unimodular U, and the vectors in the new basis."""
    n = len(g0)
    u = random_unimodular(rng, n)
    u_inv = invert_unimodular(u)
    moved = [tuple(sum(u_inv[i][k] * v[k] for k in range(n)) for i in range(n)) for v in vectors]
    return congruence_transform(g0, u), moved


def _sparse_vector(rng, n):
    """The zero vector, a unit vector, or 1 to 3 nonzero coordinates."""
    v = [0] * n
    kind = rng.randrange(3)
    if kind == 1:
        v[rng.randrange(n)] = 1
    elif kind == 2:
        for i in rng.sample(range(n), min(n, rng.randint(1, 3))):
            v[i] = rng.choice((-3, -2, -1, 1, 2, 3))
    return tuple(v)


def test_pairing_kernel_matches_double_loop(rng):
    for n in RANKS:
        for _ in range(10):
            g = random_symmetric(rng, n)
            lat = gram_lattice(g)
            for u, v in [
                (_vector(rng, n), _vector(rng, n)),
                (_sparse_vector(rng, n), _vector(rng, n)),
                (_vector(rng, n), _sparse_vector(rng, n)),
                (_sparse_vector(rng, n), _sparse_vector(rng, n)),
                ((0,) * n, _vector(rng, n)),
            ]:
                assert lat.pair(u, v) == naive_pair(g, u, v)
                assert lat.pair(v, u) == naive_pair(g, v, u)
                for w in (u, v):
                    assert lat.pairing_row(w) == [naive_pair(g, [int(i == j) for i in range(n)], w) for j in range(n)]
            vectors = [rng.choice((_vector, _sparse_vector))(rng, n) for _ in range(rng.randint(0, 5))]
            assert lat.gram_of(vectors) == [[naive_pair(g, a, b) for b in vectors] for a in vectors]


def test_combination_matches_coordinatewise_sum(rng):
    for n in RANKS:
        for _ in range(10):
            rows = [_vector(rng, n) for _ in range(rng.randint(1, 5))]
            coeffs = _vector(rng, len(rows), 6)
            want = [sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(n)]
            assert combination(coeffs, rows) == want


def test_ring_points_of_no_coordinates_is_empty():
    # the empty tuple has max norm 0, so it lies on no ring 1..bound
    for bound in (0, 1, 3):
        assert list(ring_points(0, bound)) == []
    assert list(ring_points(1, 2)) == [(-1,), (1,), (-2,), (2,)]


def test_chamber_sign_matches_per_wall_signs(rng):
    positive = 0
    for n in RANKS:
        for _ in range(20):
            g = random_symmetric(rng, n)
            lat = gram_lattice(g)
            x = _vector(rng, n)
            walls = [_vector(rng, n) for _ in range(rng.randint(0, 6))]
            if naive_pair(g, x, x) <= 0:
                with pytest.raises(InputError):
                    chamber_sign(lat, x, walls)
                continue
            positive += 1
            assert chamber_sign(lat, x, walls) == tuple(_sign(naive_pair(g, x, w)) for w in walls)
    assert positive > 20


def test_eichler_matrix_matches_column_oracle(rng):
    for n in range(2, 12):
        for _ in range(5):
            # a hyperbolic plane on e_0, e_1 plus an even block: e_0 is isotropic,
            # every square is even, and e is orthogonal to e_0 when e_1 is absent
            g0 = random_symmetric(rng, n)
            for k in range(n):
                g0[0][k] = g0[k][0] = int(k == 1)
                g0[k][k] -= g0[k][k] % 2
            e0 = list(_vector(rng, n, 3))
            e0[1] = 0
            g, (f, e) = _change_basis(rng, g0, [[int(i == 0) for i in range(n)], e0])
            iso = eichler_transvection(gram_lattice(g), f, e)
            assert [list(r) for r in iso.matrix] == naive_eichler_matrix(g, f, e)


def test_wrong_lengths_still_raise_input_error():
    lat = gram_lattice([[1, 0], [0, -1]])
    calls = [
        lambda: lat.pair((1, 0, 0), (1, 0)),
        lambda: lat.pair((1, 0), (1,)),
        lambda: lat.pairing_row((1,)),
        lambda: lat.gram_of([(1, 0), (1,)]),
        lambda: chamber_sign(lat, (2, 1, 0), [(1, 0)]),
        lambda: chamber_sign(lat, (2, 1), [(1, 0), (0, 1, 0)]),
        lambda: eichler_transvection(lat, (1, 1, 0), (0, 0)),
    ]
    for call in calls:
        with pytest.raises(InputError):
            call()


def test_charpoly_matches_fraction_oracle(rng):
    for n in range(12):
        for _ in range(3):
            general = [list(_vector(rng, n)) for _ in range(n)]
            for a in (random_symmetric(rng, n), general):
                assert charpoly(a) == fraction_charpoly(a)


def _low_rank_form(rng, n):
    """B^T D B for a k x n integer B with k < n: degenerate, null >= n - k."""
    k = rng.randint(0, n - 1)
    b = [_vector(rng, n, 2) for _ in range(k)]
    d = [rng.choice((-3, -1, 1, 2)) for _ in range(k)]
    return [[sum(b[t][i] * d[t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(n)]


def test_signature_matches_fraction_oracle(rng):
    for n in range(12):
        for _ in range(8):
            zero_diagonal = random_symmetric(rng, n)
            for i in range(n):
                zero_diagonal[i][i] = 0
            forms = [zero_diagonal, random_symmetric(rng, n)]
            if n:
                forms.append(_low_rank_form(rng, n))
                assert fraction_signature(forms[-1])[2] > 0
            for g in forms:
                want = fraction_signature(g)
                assert charpoly_signature(g) == want
                assert inertia(g) == want
                assert tuple(signature(gram_lattice(g))) == want


def _random_basis(rng, n):
    """Rows of a unimodular matrix, then maybe made dependent, non-saturated or over-long."""
    u = random_unimodular(rng, n)
    rows = [list(r) for r in u[: rng.randint(0, n)]]
    kind = rng.randrange(5)
    if kind == 1 and rows:
        rows.append(combination(_vector(rng, len(rows), 2), rows))
    elif kind == 2 and rows:
        i = rng.randrange(len(rows))
        rows[i] = [rng.choice((2, 3, -2)) * x for x in rows[i]]
    elif kind == 3:
        rows = [list(_vector(rng, n, 3)) for _ in range(rng.randint(1, n + 1))]
    elif kind == 4:
        rows = [list(r) for r in u] + [list(_vector(rng, n, 2))]
    rng.shuffle(rows)
    return rows


def test_sublattice_smith_form_matches_hnf_and_solve_int(rng):
    accepted = refused = 0
    for n in range(1, 9):
        lat = gram_lattice(random_symmetric(rng, n))
        for _ in range(40):
            rows = _random_basis(rng, n)
            assert is_saturated_rows(rows, n) == hnf_is_saturated(rows, n)
            want = hnf_sublattice_error(rows, n)
            if want is not None:
                refused += 1
                with pytest.raises(InputError) as err:
                    Sublattice(lat, tuple(tuple(r) for r in rows))
                assert str(err.value) == want
                continue
            accepted += 1
            sub = Sublattice(lat, tuple(tuple(r) for r in rows))
            members = [combination(_vector(rng, len(rows)), rows) if rows else [0] * n for _ in range(3)]
            for v in members + [list(_vector(rng, n)) for _ in range(3)]:
                sol = solve_int(transpose(rows), v) if rows else ([] if not any(v) else None)
                if sol is None:
                    assert not sub.contains(v)
                    with pytest.raises(InputError, match="does not lie in the sublattice"):
                        sub.coords_of(v)
                else:
                    assert sub.coords_of(v) == tuple(sol)
    assert accepted > 50 and refused > 50


def _random_matrix(rng, m, n, k=5):
    return [list(_vector(rng, n, k)) for _ in range(m)]


def _hermite_inputs(rng):
    """0 x 0, 1 x n, n x 1, square, rank-deficient products, zero rows and
    columns spliced in, and all-negative matrices."""
    yield []
    yield [[], [], []]
    for n in range(1, 9):
        yield _random_matrix(rng, 1, n)
        yield _random_matrix(rng, n, 1)
        yield _random_matrix(rng, n, n)
        yield [[-abs(x) for x in row] for row in _random_matrix(rng, n, n + 1)]
        m, k = rng.randint(1, 8), rng.randint(0, n - 1)
        yield matmul(_random_matrix(rng, m, k, 3), _random_matrix(rng, k, n, 3)) if k else [[0] * n for _ in range(m)]
        a = _random_matrix(rng, rng.randint(1, 8), n)
        a.insert(rng.randint(0, len(a)), [0] * n)
        col = rng.randint(0, n)
        yield [row[:col] + [0] + row[col:] for row in a]


def _census_pairing_rows(rng):
    """Per census seed (blown up in a seeded order), the pairing rows of its
    boundary, whose kernel is the complement, and of the complement basis."""
    for n in range(3, 9):
        for seq in fan_seeds(n):
            order = [i + 1 for i, a in enumerate(seq) for _ in range(a + 2)]
            rng.shuffle(order)
            y = toric_from_sequence(seq)
            for comp in order:
                y = interior_blowup(y, comp)
            lam = boundary_complement(y).sublattice
            yield [y.picard.pairing_row(d) for d in y.boundary]
            yield [y.picard.pairing_row(v) for v in lam.basis]


def test_hermite_forms_match_the_xgcd_elimination(rng):
    census = 0
    for a in itertools.chain(_hermite_inputs(rng), _census_pairing_rows(rng)):
        census += len(a) > 0 and len(a[0]) == 10
        h, u = hnf_transform(a)
        want_h, _ = xgcd_hnf_transform(a)
        assert h == want_h and row_hnf(a) == want_h, a
        assert det_int(u) in (1, -1) and matmul(u, a) == h, a
        assert left_kernel(a) == xgcd_left_kernel(a), a
        assert right_kernel(a) == xgcd_right_kernel(a), a
        assert rank_int(a) == xgcd_rank(a), a
    assert census == 2 * 91


def _inverse_or_refusal(invert, a):
    try:
        return invert(a)
    except ValueError as exc:
        return str(exc)


def test_invert_unimodular_matches_the_xgcd_elimination(rng):
    refused = 0
    for n in range(9):
        for _ in range(10):
            for a in (random_unimodular(rng, n, steps=4 * n), _random_matrix(rng, n, n, 2)):
                want = _inverse_or_refusal(xgcd_inverse, a)
                refused += isinstance(want, str)
                assert _inverse_or_refusal(invert_unimodular, a) == want, a
    assert refused > 20


def test_saturation_matches_the_kernel_of_the_kernel(rng):
    # the rank-one shortcut on a zero row, a negative leading entry, content
    # > 1, a unit vector and one nonzero row among zero rows; then random
    # spans of every rank, which still take the kernel of the kernel
    cases = [
        ([[0, 0, 0]], 3),
        ([[0, 0], [0, 0]], 2),
        ([[-3, 1, 4]], 3),
        ([[0, -6, 4, 0]], 4),
        ([[6, 9, -12]], 3),
        ([[0, 0, 1, 0]], 4),
        ([[-1]], 1),
        ([[7]], 1),
        ([[0, 0, 0], [4, -2, 6], [0, 0, 0]], 3),
    ]
    for n in range(1, 9):
        for _ in range(10):
            row = [rng.choice((-3, -2, 2, 3)) * x for x in _vector(rng, n, 3)]
            cases.append(([row], n))
            rows = [[0] * n for _ in range(rng.randint(1, 3))]
            rows.insert(rng.randint(0, len(rows)), list(_vector(rng, n)))
            cases.append((rows, n))
            cases.append((_random_matrix(rng, rng.randint(2, n + 1), n, 3), n))
    for rows, n in cases:
        assert saturation(rows, n) == kernel_saturation(rows, n), rows
    assert saturation([[0, -6, 4, 0]], 4) == [[0, 3, -2, 0]]
    assert saturation([[0, 0, 0], [4, -2, 6], [0, 0, 0]], 3) == [[2, -1, 3]]
