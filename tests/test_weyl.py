"""Reflection groups: involutions, dihedral orders, chambers, the criterion."""

import math
from dataclasses import fields, replace

import pytest

from helpers import (
    box_nonzero_residue,
    box_translation_witness,
    box_wedge_point,
    congruence_transform,
    isometry_power,
    naive_pair,
    naive_reflection,
    naive_sign_vectors,
    naive_walk,
    random_symmetric,
    random_unimodular,
)

import cuspcheck
from cuspcheck.checker import WeylCertificate, dihedral_order, totaro_check
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
    _translation_witness,
    chamber_certificate,
    chamber_sign,
    weyl_infiniteness_certificate,
)


def test_dihedral_order_against_matrix_powers():
    # pairings 0 and 1 give finite orders; the matrix-power oracle confirms
    cases = [
        (diagonal_lattice([-2, -2]), (1, 0), (0, 1), 2),
        (gram_lattice([[-2, 1], [1, -2]]), (1, 0), (0, 1), 3),
    ]
    for lat, a, b, want in cases:
        assert dihedral_order(lat, a, b) == want
        w = naive_reflection(lat, a).compose(naive_reflection(lat, b))
        assert isometry_power(w, want).is_identity()
        for k in range(1, want):
            assert not isometry_power(w, k).is_identity()


def test_dihedral_order_proportional_roots():
    lat = diagonal_lattice([-2, -2])
    assert dihedral_order(lat, (1, 0), (1, 0)) == 1
    assert dihedral_order(lat, (1, 0), (-1, 0)) == 1


def test_dihedral_order_infinite_with_power_oracle():
    lat = gram_lattice([[-2, 2], [2, -2]])
    assert dihedral_order(lat, (1, 0), (0, 1)) == math.inf
    w = naive_reflection(lat, (1, 0)).compose(naive_reflection(lat, (0, 1)))
    for k in range(1, 51):
        assert not isometry_power(w, k).is_identity()


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


def _naive_signs(lat, cert):
    """The sign matrix of the certificate's walk, built by the test oracle."""
    walls, points = naive_walk(lat.gram, cert.root1, cert.root2, cert.base, cert.requested)
    return naive_sign_vectors(lat.gram, walls, points)


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
    assert cert == WeylCertificate(alpha, beta, cert.base, witness_count)
    sign_vectors = _naive_signs(lat, cert)
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
    assert len(set(_naive_signs(lat, cert))) == 15


def test_the_certificate_is_two_roots_a_base_and_n():
    assert [f.name for f in fields(WeylCertificate)] == ["root1", "root2", "base", "requested"]
    assert not hasattr(cuspcheck, "ChamberCertificate")
    assert not hasattr(cuspcheck.weyl, "ChamberCertificate")


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
        base = cert.base
        oriented = beta if p > 0 else tuple(-b for b in beta)
        assert lat.square(base) > 0
        assert lat.pair(base, alpha) > 0 and lat.pair(base, oriented) > 0
        assert totaro_check(lat, [], [], cert).weyl_infinite_ok
        oracle = box_wedge_point(lat, alpha, beta, bound=6)
        if oracle is None:
            continue
        walls, points = naive_walk(lat.gram, alpha, beta, oracle, count)
        assert _naive_signs(lat, cert) == naive_sign_vectors(lat.gram, walls, points)
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


def test_totaro_check_ties_the_walk_to_the_roots():
    lat = direct_sum(hyperbolic_plane(), diagonal_lattice([-2]))
    r1, r2 = (0, 0, 1), (1, 0, -1)
    # an isotropic wall with a positive-square base on its positive side:
    # every pairing the wedge asks for is positive, but the wall is no root
    forged = WeylCertificate((1, 0, 0), r2, (1, 1, 0), 1)
    assert lat.square(forged.base) > 0 and lat.pair(forged.base, forged.root1) > 0
    assert lat.pair(forged.base, r2) > 0
    assert not totaro_check(lat, [], [], forged).weyl_infinite_ok
    cert = chamber_certificate(lat, r1, r2, witness_count=6)
    assert totaro_check(lat, [], [], cert).weyl_infinite_ok
    # naming the roots in the other order moves the walk, not the wedge:
    # with r1.r2 > 0 the wedge of r2 and r1 is the same one, so the swapped
    # certificate is still a walk through 7 chambers, and the oracle agrees
    swapped = WeylCertificate(r2, r1, cert.base, 6)
    assert _agrees_with_the_sign_matrix(lat, swapped)
    # with r1.r2 < 0 the wedges of (r1, -r2) and (r2, -r1) are disjoint
    flipped = chamber_certificate(lat, r1, tuple(-c for c in r2), witness_count=6)
    assert _agrees_with_the_sign_matrix(lat, flipped)
    assert not _agrees_with_the_sign_matrix(
        lat, WeylCertificate(flipped.root2, flipped.root1, flipped.base, 6)
    )


def test_totaro_check_counts_only_the_chambers_it_verified():
    # a rejected certificate reports no chambers, whatever it asks for, and
    # one that asks for no chamber is rejected too
    lat = direct_sum(hyperbolic_plane(), diagonal_lattice([-2]))
    r1, r2 = (0, 0, 1), (1, 0, -1)
    cert = chamber_certificate(lat, r1, r2, witness_count=6)
    report = totaro_check(lat, [], [], cert)
    assert report.weyl_infinite_ok and report.witnesses["distinct_chambers"] == 7
    # the walk's last point, the base the reversed walk would start from
    last = naive_walk(lat.gram, r1, r2, cert.base, 6)[1][-1]
    for bad in (replace(cert, base=last), replace(cert, requested=0)):
        report = totaro_check(lat, [], [], bad)
        assert not report.weyl_infinite_ok
        assert report.witnesses["distinct_chambers"] == 0
        assert report.witnesses["requested_chambers"] == bad.requested


def test_totaro_check_raises_on_a_malformed_shape():
    # a wrong length is a malformed input, not a failed hypothesis
    lat = direct_sum(hyperbolic_plane(), diagonal_lattice([-2]))
    cert = chamber_certificate(lat, (0, 0, 1), (1, 0, -1), witness_count=6)
    message = "vector has 4 coordinates, lattice has rank 3"
    for bad in (replace(cert, root1=(0, 0, 1, 0)), replace(cert, base=cert.base + (0,))):
        with pytest.raises(InputError, match=message):
            totaro_check(lat, [], [], bad)


def _agrees_with_the_sign_matrix(lat, cert):
    """Check a certificate both ways; where totaro_check accepts, the
    quadratic oracle must find N + 1 nonzero, pairwise distinct sign
    vectors, the staircase of the inversion-set theorem, and the same
    count."""
    report = totaro_check(lat, [], [], cert)
    count = report.witnesses["distinct_chambers"]
    if not report.weyl_infinite_ok:
        assert count == 0
        return False
    signs = _naive_signs(lat, cert)
    assert all(0 not in sv for sv in signs)
    assert count == len(set(signs)) == cert.requested + 1
    eps = 1 if lat.pair(cert.root1, cert.root2) > 0 else -1
    for k, sv in enumerate(signs):
        assert sv == tuple((-1 if j < k else 1) * eps**j for j in range(len(sv)))
    return True


def test_walk_check_agrees_with_the_sign_matrix_oracle(rng):
    # pairing 2 and above, both orientations of the second root; each draw
    # checks the produced certificate and the same roots from a random base,
    # which the check may refuse but must never accept against the oracle
    accepted = {2: 0, 3: 0}
    moved_bases = {True: 0, False: 0}
    for draw in range(60):
        n = rng.randint(3, 4)
        p = rng.choice((2, 3, 4, -2, -3, -4))
        lat, alpha, beta = _root_pair_lattice(rng, n, p)
        count = 200 if draw < 2 else rng.randint(1, 40)
        cert = chamber_certificate(lat, alpha, beta, witness_count=count)
        assert _agrees_with_the_sign_matrix(lat, cert)
        accepted[min(abs(p), 3)] += 1
        for _ in range(10):
            base = tuple(rng.randint(-3, 3) for _ in range(n))
            if lat.square(base) > 0:
                moved_bases[_agrees_with_the_sign_matrix(lat, replace(cert, base=base))] += 1
    assert accepted[2] >= 10 and accepted[3] >= 10
    assert moved_bases[True] >= 5 and moved_bases[False] >= 20


def test_walk_check_agrees_with_the_sign_matrix_oracle_on_e6():
    # the rank-8 certificate of test_weyl_certificate_on_a_rank_8_complement
    # (pairing 4), in both orientations of its second root
    y = toric_from_sequence((1, 1, 1))
    for comp in (1, 1, 1, 2, 2, 2, 3, 3, 3):
        y = interior_blowup(y, comp)
    phi = PeriodPoint(boundary_complement(y).sublattice, 12, (1, 3, 2, 2, 3, 2, 3))
    fib = fiber_from_boundary(y, phi)
    met = [i + 1 for i, b in enumerate(y.boundary) if y.picard.pair(fib.zero_section, b)]
    tilde = interior_blowup(y, met[0])
    cert = weyl_infiniteness_certificate(tilde, phi, fib, translation_vectors(y, fib), 100)
    m_lat = boundary_complement(tilde).sublattice.as_lattice()
    r1, r2 = cert.root1, cert.root2
    assert len(r1) == 8 and m_lat.pair(r1, r2) == 4
    assert _agrees_with_the_sign_matrix(m_lat, cert)
    flipped = chamber_certificate(m_lat, r1, tuple(-c for c in r2), witness_count=100)
    assert _agrees_with_the_sign_matrix(m_lat, flipped)


@pytest.mark.parametrize("orientation", [1, -1], ids=["pairing+2", "pairing-2"])
def test_walk_check_refuses_a_base_outside_the_wedge(orientation):
    # every tamper keeps the roots and N; the base sits on a mirror, on the
    # far side of r1, or on the far side of eps*r2
    lat = direct_sum(hyperbolic_plane(), diagonal_lattice([-2]))
    r1, r2 = (0, 0, 1), tuple(orientation * c for c in (1, 0, -1))
    cert = chamber_certificate(lat, r1, r2, witness_count=7)
    assert _agrees_with_the_sign_matrix(lat, cert)
    base = cert.base
    oriented = tuple(orientation * c for c in r2)
    beyond_r2 = naive_reflection(lat, oriented).apply(base)
    # across the mirror of eps*r2 the base still pairs positively with every
    # eps^j * wall j, and its sign vectors happen to stay distinct
    walls, points = naive_walk(lat.gram, r1, r2, beyond_r2, 7)
    assert all(lat.pair(beyond_r2, w) * orientation**j > 0 for j, w in enumerate(walls))
    signs = naive_sign_vectors(lat.gram, walls, points)
    assert len(set(signs)) == len(signs) and all(0 not in sv for sv in signs)
    on_mirror = (1, 1, 0)
    assert lat.pair(on_mirror, r1) == 0 and lat.square(on_mirror) > 0
    for moved in (on_mirror, naive_reflection(lat, r1).apply(base), beyond_r2):
        report = totaro_check(lat, [], [], replace(cert, base=moved))
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
    sign_vectors = _naive_signs(m_lat, cert)
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
    assert len(set(_naive_signs(m_lat, cert))) == 31


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
