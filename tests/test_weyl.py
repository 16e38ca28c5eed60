"""Reflection groups: involutions, dihedral orders, chambers, the criterion."""

import math
from dataclasses import replace

import pytest

from helpers import (
    box_nonzero_residue,
    box_translation_witness,
    box_wedge_point,
    congruence_transform,
    naive_pair,
    naive_sign_vectors,
    naive_walk,
    random_symmetric,
    random_unimodular,
)

from cuspcheck.errors import InputError
from cuspcheck.fibration import (
    analyze_fibration,
    eichler_transvection,
    fiber_from_boundary,
    isotropic_transvection_group,
    mw_translation_group,
    translation_vectors,
)
from cuspcheck.intlinalg import invert_unimodular
from cuspcheck.lattice import (
    diagonal_lattice,
    direct_sum,
    full_sublattice,
    gram_lattice,
    hyperbolic_plane,
    signature,
)
from cuspcheck.period import PeriodPoint, extend_over_blowup
from cuspcheck.pipeline import _search_nonzero_residue
from cuspcheck.surface import boundary_complement, interior_blowup, toric_from_sequence
from cuspcheck.weyl import (
    ChamberCertificate,
    WeylCertificate,
    _translation_witness,
    chamber_certificate,
    chamber_sign,
    dihedral_order,
    reflect,
    reflection_isometry,
    totaro_check,
    weyl_infiniteness_certificate,
)


def _random_root_lattice(rng, n):
    """Random gram whose first basis vector is a (-2)-root."""
    g = random_symmetric(rng, n)
    g[0][0] = -2
    return gram_lattice(g)


def test_reflection_involution_and_isometry(rng):
    # acceptance suite property: 500 cases
    for _ in range(500):
        n = rng.randint(2, 5)
        lat = _random_root_lattice(rng, n)
        alpha = tuple(1 if i == 0 else 0 for i in range(n))
        x = tuple(rng.randint(-4, 4) for _ in range(n))
        y = tuple(rng.randint(-4, 4) for _ in range(n))
        rx = reflect(lat, alpha, x)
        # involution
        assert reflect(lat, alpha, rx) == x
        # pairing preserved
        assert lat.pair(rx, reflect(lat, alpha, y)) == lat.pair(x, y)
        # alpha itself is negated, its orthogonal complement is fixed
        assert reflect(lat, alpha, alpha) == tuple(-a for a in alpha)


def test_reflection_isometry_matches_pointwise(rng):
    for _ in range(50):
        n = rng.randint(2, 4)
        lat = _random_root_lattice(rng, n)
        alpha = tuple(1 if i == 0 else 0 for i in range(n))
        iso = reflection_isometry(lat, alpha)
        x = tuple(rng.randint(-3, 3) for _ in range(n))
        assert iso.apply(x) == reflect(lat, alpha, x)


def test_reflect_requires_root():
    lat = diagonal_lattice([-4, -2])
    with pytest.raises(InputError):
        reflect(lat, (1, 0), (0, 1))


def test_dihedral_order_against_matrix_powers():
    # pairings 0 and 1 give finite orders; the matrix-power oracle confirms
    cases = [
        (diagonal_lattice([-2, -2]), (1, 0), (0, 1), 2),
        (gram_lattice([[-2, 1], [1, -2]]), (1, 0), (0, 1), 3),
    ]
    for lat, a, b, want in cases:
        assert dihedral_order(lat, a, b) == want
        w = reflection_isometry(lat, a).compose(reflection_isometry(lat, b))
        assert w.power(want).is_identity()
        for k in range(1, want):
            assert not w.power(k).is_identity()


def test_dihedral_order_proportional_roots():
    lat = diagonal_lattice([-2, -2])
    assert dihedral_order(lat, (1, 0), (1, 0)) == 1
    assert dihedral_order(lat, (1, 0), (-1, 0)) == 1


def test_dihedral_order_infinite_with_power_oracle():
    lat = gram_lattice([[-2, 2], [2, -2]])
    assert dihedral_order(lat, (1, 0), (0, 1)) == math.inf
    w = reflection_isometry(lat, (1, 0)).compose(reflection_isometry(lat, (0, 1)))
    for k in range(1, 51):
        assert not w.power(k).is_identity()


def test_dihedral_order_rejects_non_roots():
    with pytest.raises(InputError):
        dihedral_order(diagonal_lattice([-4, -2]), (1, 0), (0, 1))


def test_chamber_sign_basics():
    lat = direct_sum(hyperbolic_plane(), diagonal_lattice([-2]))
    x = (1, 1, 0)  # square 2
    assert chamber_sign(lat, x, [(0, 0, 1)]) == (0,)
    assert chamber_sign(lat, x, [(1, 0, 0), (0, 0, 1)]) == (1, 0)
    with pytest.raises(InputError, match="positive cone"):
        chamber_sign(lat, (0, 0, 1), [(0, 0, 1)])


@pytest.mark.parametrize("witness_count", [1, 2, 12, 25, 40])
def test_chamber_certificate_produces_distinct_chambers(witness_count):
    # two roots pairing to 2 inside a nondegenerate (1, 2) lattice; even
    # witness counts once collided when the base sat outside the fundamental
    # wedge, so both parities stay pinned here
    lat = direct_sum(hyperbolic_plane(), diagonal_lattice([-2]))
    alpha = (0, 0, 1)
    beta = (1, 0, -1)
    assert lat.square(beta) == -2
    assert lat.pair(alpha, beta) == 2
    cert = chamber_certificate(lat, alpha, beta, witness_count=witness_count)
    sign_vectors = naive_sign_vectors(lat.gram, cert.roots, cert.points)
    assert len(sign_vectors) == witness_count + 1
    assert len(set(sign_vectors)) == witness_count + 1
    assert all(0 not in sv for sv in sign_vectors)
    # the walk peels off one wall per step: sign vector k is negative on the
    # first k walls and positive on the rest
    for k, sv in enumerate(sign_vectors):
        assert sv == tuple(-1 if i < k else 1 for i in range(witness_count))


def test_chamber_certificate_orientation_independent():
    # negating a root changes no reflection, so the walk still separates
    lat = direct_sum(hyperbolic_plane(), diagonal_lattice([-2]))
    cert = chamber_certificate(lat, (0, 0, 1), (-1, 0, 1), witness_count=14)
    assert len(set(naive_sign_vectors(lat.gram, cert.roots, cert.points))) == 15


def test_chamber_certificate_rejects_degenerate_lattice():
    # with a radical, an infinite dihedral pair translates along it and the
    # sign vectors cannot separate chambers; the contract refuses the input
    lat = gram_lattice([[2, 0, 0], [0, -2, 2], [0, 2, -2]])
    with pytest.raises(InputError, match="signature"):
        chamber_certificate(lat, (0, 1, 0), (0, 0, 1), witness_count=5)


def _root_pair_lattice(rng, n, p):
    """Random nondegenerate lattice of signature (1, n-1) on a scrambled basis,
    with two roots alpha, beta pairing to p."""
    while True:
        g = random_symmetric(rng, n, -2, 2)
        for i in range(2, n):
            g[i][i] = rng.choice((-2, -4, -6))
        g[0][0] = g[1][1] = -2
        g[0][1] = g[1][0] = p
        if tuple(signature(gram_lattice(g))) == (1, n - 1, 0):
            break
    u = random_unimodular(rng, n, steps=6)
    u_inv = invert_unimodular(u)
    lat = gram_lattice(congruence_transform(g, u))
    return lat, tuple(row[0] for row in u_inv), tuple(row[1] for row in u_inv)


def test_constructed_base_matches_the_box_search(rng):
    # The box oracle is the old base-point search, cut to radius 6 to keep
    # its cost down; where it finds a point it is the old radius-12 answer.
    # Thin wedges (pairing 2) can leave that box empty, so lattices are drawn
    # until 200 have an oracle point, and every lattice drawn checks the
    # constructed point.
    compared = {2: 0, 3: 0}
    while sum(compared.values()) < 200:
        n = rng.randint(3, 4)
        p = rng.choice((2, 3, 4, -2, -3))
        lat, alpha, beta = _root_pair_lattice(rng, n, p)
        count = rng.randint(1, 15)
        cert = chamber_certificate(lat, alpha, beta, witness_count=count)
        base = cert.points[0]
        oriented = beta if p > 0 else tuple(-b for b in beta)
        assert lat.square(base) > 0
        assert lat.pair(base, alpha) > 0 and lat.pair(base, oriented) > 0
        weyl = WeylCertificate(root1=alpha, root2=beta, chamber=cert)
        assert totaro_check(lat, [], [], weyl).weyl_infinite_ok
        oracle = box_wedge_point(lat, alpha, beta, bound=6)
        if oracle is None:
            continue
        walls, points = naive_walk(lat.gram, alpha, beta, oracle, count)
        assert cert.roots == tuple(walls)
        assert naive_sign_vectors(lat.gram, cert.roots, cert.points) == naive_sign_vectors(
            lat.gram, walls, points
        )
        compared[min(abs(p), 3)] += 1
    assert compared[2] >= 50 and compared[3] >= 50


@pytest.mark.parametrize(
    "lat, alpha, beta",
    [
        (direct_sum(hyperbolic_plane(), diagonal_lattice([-2, -2])), (0, 0, 1, 0), (0, 0, 0, 1)),
        (
            direct_sum(hyperbolic_plane(), gram_lattice([[-2, 1], [1, -2]])),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
        ),
        (direct_sum(hyperbolic_plane(), diagonal_lattice([-2])), (0, 0, 1), (0, 0, 1)),
        (direct_sum(hyperbolic_plane(), diagonal_lattice([-2])), (0, 0, 1), (0, 0, -1)),
    ],
    ids=["pairing-0", "pairing-1", "equal", "opposite"],
)
def test_chamber_certificate_refuses_finite_dihedral_pairs(lat, alpha, beta):
    assert dihedral_order(lat, alpha, beta) != math.inf
    with pytest.raises(InputError, match="infinite dihedral"):
        chamber_certificate(lat, alpha, beta, witness_count=5)


def _forged(lat, chamber, roots, points):
    # the forged walk's sign vectors are nonzero and pairwise distinct, so
    # only its link to the two roots can refuse it
    signs = naive_sign_vectors(lat.gram, roots, points)
    assert all(0 not in sv for sv in signs) and len(set(signs)) == len(signs)
    return replace(chamber, roots=roots, points=points)


def test_totaro_check_ties_the_walk_to_the_roots():
    # every forgery below has nonzero, pairwise distinct sign vectors, so
    # only the walk's link to the two roots can refuse it
    lat = direct_sum(hyperbolic_plane(), diagonal_lattice([-2]))
    r1, r2 = (0, 0, 1), (1, 0, -1)
    # a single isotropic wall and two points on either side of it
    forged = ChamberCertificate(
        roots=((1, 0, 0),),
        points=((1, 1, 0), (-1, -1, 0)),
        requested=1,
    )
    assert naive_sign_vectors(lat.gram, forged.roots, forged.points) == ((1,), (-1,))
    assert not totaro_check(lat, [], [], WeylCertificate(r1, r2, forged)).weyl_infinite_ok
    cert = chamber_certificate(lat, r1, r2, witness_count=6)
    assert totaro_check(lat, [], [], WeylCertificate(r1, r2, cert)).weyl_infinite_ok
    walls, points = cert.roots, cert.points
    negated = walls[:3] + (tuple(-c for c in walls[3]),) + walls[4:]
    forgeries = [
        # roots named in the other order than the walk uses them
        (r2, r1, cert),
        # a wall off the recurrence, though still a root
        (r1, r2, _forged(lat, cert, negated, points)),
        # the points in reverse order
        (r1, r2, _forged(lat, cert, walls, points[::-1])),
        # one point short of one per chamber crossed
        (r1, r2, _forged(lat, cert, walls, points[:-1])),
    ]
    for a, b, chamber in forgeries:
        assert not totaro_check(lat, [], [], WeylCertificate(a, b, chamber)).weyl_infinite_ok


def test_totaro_check_counts_only_the_chambers_it_verified():
    # a rejected walk reports no chambers, whatever it carries, and an empty
    # walk that asks for none is rejected too
    lat = direct_sum(hyperbolic_plane(), diagonal_lattice([-2]))
    r1, r2 = (0, 0, 1), (1, 0, -1)
    cert = chamber_certificate(lat, r1, r2, witness_count=6)
    report = totaro_check(lat, [], [], WeylCertificate(r1, r2, cert))
    assert report.weyl_infinite_ok and report.witnesses["distinct_chambers"] == 7
    for chamber in (replace(cert, points=cert.points[::-1]), ChamberCertificate((), (), 0)):
        report = totaro_check(lat, [], [], WeylCertificate(r1, r2, chamber))
        assert not report.weyl_infinite_ok
        assert report.witnesses["distinct_chambers"] == 0


def _semidefinite_translations(rng):
    """An even negative semidefinite lattice with a rank-1 radical r, and a
    basis of it modulo r (each member shifted by a random multiple of r)."""
    k = rng.randint(1, 3)
    while True:
        g = random_symmetric(rng, k, -1, 1)
        for i in range(k):
            g[i][i] = rng.choice((-2, -4))
        if tuple(signature(gram_lattice(g))) == (0, k, 0):
            break
    lat = gram_lattice([row + [0] for row in g] + [[0] * (k + 1)])
    u = random_unimodular(rng, k, steps=4)
    return lat, [tuple(row) + (rng.randint(-2, 2),) for row in u]


def test_translation_search_radius_matches_the_radius_16_search(rng):
    for _ in range(200):
        lat, translations = _semidefinite_translations(rng)
        m = rng.randint(1, 6)
        values = tuple(rng.randrange(m) for _ in range(lat.rank))
        phi = PeriodPoint(full_sublattice(lat), m, values)
        e = _translation_witness(lat, phi, translations)
        assert e == box_translation_witness(lat, phi, translations, bound=16)


def test_residue_search_ring_one_matches_the_radius_16_search(rng):
    lat = diagonal_lattice([-2, -2, -2])
    vanishing = 0
    for _ in range(200):
        m = rng.randint(1, 6)
        phi = PeriodPoint(full_sublattice(lat), m, tuple(rng.randrange(m) for _ in range(3)))
        # m = 1, or every vector scaled by m (a quarter of the cases): no
        # residue survives, and both searches must return None
        scale = m if rng.random() < 0.25 else 1
        k = rng.randint(1, 2)
        tvecs = [tuple(scale * rng.randint(-3, 3) for _ in range(3)) for _ in range(k)]
        found = _search_nonzero_residue(phi, tvecs)
        assert found == box_nonzero_residue(phi, tvecs, bound=16)
        vanishing += found is None
    assert vanishing >= 20


def test_weyl_certificate_on_the_main_surface(seed_surface, generic_phi):
    fib = analyze_fibration(seed_surface, generic_phi)
    tvecs = translation_vectors(seed_surface, fib)
    tilde = interior_blowup(seed_surface, 6)
    cert = weyl_infiniteness_certificate(
        tilde, generic_phi, fib, tvecs, witness_count=40
    )
    m_sub = boundary_complement(tilde).sublattice
    m_lat = m_sub.as_lattice()
    # both roots really are roots of M with the promised pairing
    assert m_lat.square(cert.root1) == -2
    assert m_lat.square(cert.root2) == -2
    assert abs(m_lat.pair(cert.root1, cert.root2)) >= 2
    assert dihedral_order(m_lat, cert.root1, cert.root2) == math.inf
    sign_vectors = naive_sign_vectors(m_lat.gram, cert.chamber.roots, cert.chamber.points)
    assert len(sign_vectors) == 41
    assert len(set(sign_vectors)) == 41
    e = box_translation_witness(seed_surface.picard, generic_phi, tvecs)
    mover = eichler_transvection(seed_surface.picard, fib.fiber_class, e)
    assert cert.root2 == m_sub.coords_of(mover.apply(fib.zero_section) + (-1,))


def test_weyl_certificate_on_a_rank_8_complement():
    # the E6 surface of test_period.test_e6_complement_needs_the_coxeter_number
    # with its generic period: the boundary is the only reducible fiber
    y = toric_from_sequence((1, 1, 1))
    for comp in (1, 1, 1, 2, 2, 2, 3, 3, 3):
        y = interior_blowup(y, comp)
    lam = boundary_complement(y).sublattice
    phi = PeriodPoint(lam, 12, (1, 3, 2, 2, 3, 2, 3))
    fib = fiber_from_boundary(y, phi)
    tvecs = translation_vectors(y, fib)
    met = [i + 1 for i, b in enumerate(y.boundary) if y.picard.pair(fib.zero_section, b)]
    tilde = interior_blowup(y, met[0])
    cert = weyl_infiniteness_certificate(tilde, phi, fib, tvecs, witness_count=30)
    m_lat = boundary_complement(tilde).sublattice.as_lattice()
    assert len(cert.root1) == 8
    assert m_lat.pair(cert.root1, cert.root2) == 4
    assert len(set(naive_sign_vectors(m_lat.gram, cert.chamber.roots, cert.chamber.points))) == 31


def _criterion_ingredients(seed_surface, generic_phi, witness_count=25):
    fib = analyze_fibration(seed_surface, generic_phi)
    tvecs = translation_vectors(seed_surface, fib)
    tilde = interior_blowup(seed_surface, 6)
    m_sub = boundary_complement(tilde).sublattice
    f_up = tuple(fib.fiber_class) + (0,)
    g_family = isotropic_transvection_group(m_sub, f_up)
    cert = weyl_infiniteness_certificate(
        tilde, generic_phi, fib, tvecs, witness_count=witness_count
    )
    # the H family: transvections along the second fibration's fiber class
    from cuspcheck.pipeline import second_fibration

    lam_tilde = boundary_complement(tilde).sublattice
    phi_tilde = extend_over_blowup(
        generic_phi, lam_tilde, seed_surface.history[-1][1]
    )
    second = second_fibration(
        seed_surface, tilde, generic_phi, phi_tilde, fib, tvecs
    )
    assert second is not None
    h_family = isotropic_transvection_group(m_sub, second.fiber_class_upstairs)
    return m_sub, g_family, h_family, cert


def test_totaro_check_verdict_true(seed_surface, generic_phi):
    m_sub, g_family, h_family, cert = _criterion_ingredients(
        seed_surface, generic_phi
    )
    report = totaro_check(m_sub, g_family, h_family, cert)
    assert report.signature_ok
    assert report.rank_ok
    assert report.zmminus1_ok
    assert report.weyl_infinite_ok
    assert report.disjoint_parabolics_ok
    assert report.verdict
    assert report.witnesses["signature"] == [1, 3, 0]
    assert report.witnesses["m"] == 3


def test_totaro_check_is_monotone_in_witnesses(seed_surface, generic_phi):
    # dropping any ingredient flips the verdict to false, never raises
    m_sub, g_family, h_family, cert = _criterion_ingredients(
        seed_surface, generic_phi
    )
    no_g = totaro_check(m_sub, g_family[:1], h_family, cert)
    assert not no_g.zmminus1_ok and not no_g.verdict
    no_h = totaro_check(m_sub, g_family, [], cert)
    assert not no_h.disjoint_parabolics_ok and not no_h.verdict
    no_cert = totaro_check(m_sub, g_family, h_family, None)
    assert not no_cert.weyl_infinite_ok and not no_cert.verdict
    # the fully equipped call still passes (inputs were not mutated)
    assert totaro_check(m_sub, g_family, h_family, cert).verdict


def test_totaro_check_rejects_wrong_signature(seed_surface, generic_phi):
    m_sub, g_family, h_family, cert = _criterion_ingredients(
        seed_surface, generic_phi
    )
    wrong = diagonal_lattice([-2, -2, -2, -2])
    report = totaro_check(wrong, [], [], None)
    assert not report.signature_ok
    assert not report.verdict
