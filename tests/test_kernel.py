"""The Gram-arithmetic kernel against naive oracles on random lattices.

Pairings, Gram rows, Gram matrices, integer combinations, chamber signs and
the closed-form reflection and transvection matrices are compared with the
double-loop and column-by-column constructions in ``helpers`` on seeded
random symmetric Gram matrices of rank 1 to 11.
"""

import pytest

from helpers import (
    congruence_transform,
    naive_eichler_matrix,
    naive_pair,
    naive_reflection_matrix,
    random_symmetric,
    random_unimodular,
)

from cuspcheck.errors import InputError
from cuspcheck.fibration import eichler_transvection
from cuspcheck.intlinalg import combination, invert_unimodular
from cuspcheck.lattice import gram_lattice
from cuspcheck.weyl import chamber_sign, reflection_isometry

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


def test_pairing_kernel_matches_double_loop(rng):
    for n in RANKS:
        for _ in range(10):
            g = random_symmetric(rng, n)
            lat = gram_lattice(g)
            u, v = _vector(rng, n), _vector(rng, n)
            assert lat.pair(u, v) == naive_pair(g, u, v)
            assert lat.pairing_row(v) == [naive_pair(g, [int(i == j) for i in range(n)], v) for j in range(n)]
            vectors = [_vector(rng, n) for _ in range(rng.randint(0, 5))]
            assert lat.gram_of(vectors) == [[naive_pair(g, a, b) for b in vectors] for a in vectors]


def test_combination_matches_coordinatewise_sum(rng):
    for n in RANKS:
        for _ in range(10):
            rows = [_vector(rng, n) for _ in range(rng.randint(1, 5))]
            coeffs = _vector(rng, len(rows), 6)
            want = [sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(n)]
            assert combination(coeffs, rows) == want


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


def test_reflection_matrix_matches_column_oracle(rng):
    for n in RANKS:
        for _ in range(5):
            g0 = random_symmetric(rng, n)
            g0[0][0] = -2
            g, (alpha,) = _change_basis(rng, g0, [[int(i == 0) for i in range(n)]])
            assert naive_pair(g, alpha, alpha) == -2
            iso = reflection_isometry(gram_lattice(g), alpha)
            assert [list(r) for r in iso.matrix] == naive_reflection_matrix(g, alpha)


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
        lambda: reflection_isometry(gram_lattice([[-2]]), (1, 0)),
        lambda: eichler_transvection(lat, (1, 1, 0), (0, 0)),
    ]
    for call in calls:
        with pytest.raises(InputError):
            call()
