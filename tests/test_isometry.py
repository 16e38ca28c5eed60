"""Isometry arithmetic and the elliptic/parabolic/hyperbolic trichotomy."""

import itertools
from fractions import Fraction

import pytest

from helpers import naive_reflection

from cuspcheck.errors import InputError
from cuspcheck.fibration import eichler_transvection
from cuspcheck.intlinalg import charpoly, cyclotomic_polynomial, euler_phi, ring_points
from cuspcheck.isometry import (
    Isometry,
    _strip_cyclotomic,
    classify_isometry,
    identity_isometry,
    isometry_from_matrix,
    log_unipotent,
)
from cuspcheck.lattice import (
    GramLattice,
    diagonal_lattice,
    direct_sum,
    gram_lattice,
    hyperbolic_plane,
)

U = hyperbolic_plane()
UA1 = direct_sum(U, diagonal_lattice([-2]))


def _transvection(e):
    return eichler_transvection(UA1, (1, 0, 0), e)


def test_gram_preservation_is_enforced():
    with pytest.raises(InputError):
        isometry_from_matrix(U, [[1, 1], [0, 1]])


def test_identity_is_elliptic_of_order_one():
    t = classify_isometry(identity_isometry(U))
    assert t.tag == "elliptic"
    assert t.order == 1


def test_minus_identity_is_elliptic_of_order_two():
    t = classify_isometry(isometry_from_matrix(U, [[-1, 0], [0, -1]]))
    assert t.tag == "elliptic"
    assert t.order == 2


def test_swap_on_hyperbolic_plane():
    t = classify_isometry(isometry_from_matrix(U, [[0, 1], [1, 0]]))
    assert t.tag == "elliptic"
    assert t.order == 2


def test_transvection_is_parabolic_with_unipotent_cube():
    g = _transvection((0, 0, 1))
    t = classify_isometry(g)
    assert t.tag == "parabolic"
    assert t.fixed_isotropic == (1, 0, 0)
    # (g - 1)^3 = 0 exactly, (g - 1) != 0: infinite order unipotent
    n = 3
    m = [[g.matrix[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    cube = m
    for _ in range(2):
        cube = [
            [sum(cube[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    assert cube == [[0] * n for _ in range(n)]
    assert any(any(row) for row in m)
    for k in range(1, 13):
        assert not g.power(k).is_identity()


def test_hyperbolic_example_has_salem_style_charpoly():
    # [[-2,3],[3,-2]] hosts an isometry with an eigenvalue off the unit circle
    lat = gram_lattice([[-2, 3], [3, -2]])
    # reflection in each basis vector, composed: infinite dihedral rotation
    r1 = isometry_from_matrix(lat, [[-1, 3], [0, 1]])
    r2 = isometry_from_matrix(lat, [[1, 0], [3, -1]])
    g = r1.compose(r2)
    t = classify_isometry(g)
    assert t.tag == "hyperbolic"
    assert charpoly([list(r) for r in g.matrix]) == [1, -7, 1]


def test_composition_inverse_power_consistency():
    g = _transvection((0, 0, 1))
    h = _transvection((0, 0, -2))
    assert g.compose(g.inverse()).is_identity()
    assert g.power(3).matrix == g.compose(g).compose(g).matrix
    assert g.power(-2).matrix == g.inverse().compose(g.inverse()).matrix


def test_compose_takes_no_gram_matrix(monkeypatch):
    # a product of isometries is an isometry; only isometry_from_matrix checks
    g, h, gh = (_transvection((0, 0, k)) for k in (1, -2, -1))
    calls = []
    real = GramLattice.gram_of
    monkeypatch.setattr(GramLattice, "gram_of", lambda lat, vs: calls.append(vs) or real(lat, vs))
    assert g.compose(h).matrix == gh.matrix
    assert calls == []


def _classify_or_refuse(g):
    # infinite-order isometries swapping the two sheets of the positive cone
    # are refused by contract; fold the refusal into the comparison
    try:
        return classify_isometry(g)
    except InputError:
        return "refused"


def test_classification_matches_inverse_and_conjugates(rng):
    # acceptance suite property: 200 cases
    pool = [
        _transvection((0, 0, 1)),
        _transvection((0, 0, -1)),
        _transvection((0, 0, 2)),
        isometry_from_matrix(UA1, [[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
        isometry_from_matrix(UA1, [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
        isometry_from_matrix(UA1, [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]),
    ]
    for _ in range(200):
        g = rng.choice(pool)
        for _ in range(rng.randint(0, 3)):
            g = g.compose(rng.choice(pool))
        tg = _classify_or_refuse(g)
        ti = _classify_or_refuse(g.inverse())
        if tg == "refused":
            assert ti == "refused"
            continue
        assert tg.tag == ti.tag
        assert tg.order == ti.order
        assert tg.fixed_isotropic == ti.fixed_isotropic
        # conjugation preserves the tag and order
        h = rng.choice(pool)
        tc = _classify_or_refuse(h.compose(g).compose(h.inverse()))
        assert tc != "refused"
        assert tc.tag == tg.tag
        assert tc.order == tg.order


def test_log_unipotent_is_nilpotent_logarithm():
    g = _transvection((0, 0, 1))
    n = log_unipotent(g)
    # exp(n) = 1 + n + n^2/2 must reproduce g exactly
    size = 3
    n2 = [
        [sum(n[i][t] * n[t][j] for t in range(size)) for j in range(size)]
        for i in range(size)
    ]
    exp = [
        [
            (Fraction(1) if i == j else Fraction(0)) + n[i][j] + n2[i][j] / 2
            for j in range(size)
        ]
        for i in range(size)
    ]
    assert exp == [[Fraction(x) for x in row] for row in g.matrix]


def test_order_six_rotation_is_elliptic():
    # <2> + A2(-1) with the order-6 rotation of the A2(-1) block: the
    # characteristic polynomial is Phi_1 Phi_6, and Phi_6 comes after Phi_5,
    # whose degree 4 already exceeds 3
    lat = gram_lattice([[2, 0, 0], [0, -2, 1], [0, 1, -2]])
    g = isometry_from_matrix(lat, [[1, 0, 0], [0, 0, 1], [0, -1, 1]])
    t = classify_isometry(g)
    assert (t.tag, t.order) == ("elliptic", 6)


def _poly_times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_every_cyclotomic_product_is_stripped(rng):
    small = [d for d in range(1, 60) if euler_phi(d) <= 8]
    for _ in range(200):
        orders = sorted(rng.choice(small) for _ in range(rng.randint(1, 3)))
        p = [1]
        for d in orders:
            p = _poly_times(p, cyclotomic_polynomial(d))
        assert _strip_cyclotomic(p) == (orders, [1])


@pytest.mark.parametrize(
    "lattice",
    [
        direct_sum(U, gram_lattice([[-2, 1], [1, -2]])),
        direct_sum(U, diagonal_lattice([-2, -2])),
    ],
    ids=["U+A2(-1)", "U+A1(-1)^2"],
)
def test_elliptic_order_is_the_least_power_giving_the_identity(rng, lattice):
    # products of reflections in roots; on these rank-4 lattices of signature
    # (1, 3) every finite order divides 12.  Enough words that some have
    # order 6, where the orders of the eigenvalues are 1, 2 and 3.
    roots = [v for v in ring_points(4, 1) if lattice.square(v) == -2]
    for _ in range(400):
        g = identity_isometry(lattice)
        for _ in range(rng.randint(1, 6)):
            g = g.compose(naive_reflection(lattice, rng.choice(roots)))
        powers = itertools.accumulate(itertools.repeat(g, 12), Isometry.compose)
        least = next((k for k, h in enumerate(powers, 1) if h.is_identity()), None)
        assert classify_isometry(g).order == least
