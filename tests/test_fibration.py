"""Elliptic fibrations: fiber recognition, rank bookkeeping, translations."""

import pytest

from helpers import complement_basis_within, fan_seeds, quotient_presentation, random_unimodular

import cuspcheck.enumeration
import cuspcheck.fibration
import cuspcheck.pipeline
import cuspcheck.surface
from cuspcheck.enumeration import vectors_of_square
from cuspcheck.errors import InputError
from cuspcheck.fibration import (
    analyze_fibration,
    classify_configuration,
    eichler_transvection,
    fiber_from_boundary,
    isotropic_transvection_group,
    mw_translation_group,
    shioda_tate_rank,
    translation_vectors,
)
from cuspcheck.intcore import dot, transpose
from cuspcheck.intlinalg import combination, saturation
from cuspcheck.checker import commute, unipotent_line
from cuspcheck.isometry import Isometry, _classify_by_fixed_lattice, classify_isometry
from cuspcheck.lattice import (
    diagonal_lattice,
    direct_sum,
    gram_lattice,
    hyperbolic_plane,
    orthogonal_complement,
    sublattice_from_rows,
)
from cuspcheck.period import PeriodPoint, is_generic, solve_period
from cuspcheck.pipeline import BLOWUP_COMPONENTS, SEED_SEQUENCE, _Chain, make_config
from cuspcheck.surface import (
    boundary_complement,
    complement_period,
    interior_blowup,
    toric_from_sequence,
)


def _affine_lattice(gram):
    """Use a configuration's own Gram matrix as its ambient lattice."""
    return gram_lattice(gram), [
        tuple(1 if i == j else 0 for j in range(len(gram))) for i in range(len(gram))
    ]


def _cycle(n):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = -2
        g[i][(i + 1) % n] += 1
        g[(i + 1) % n][i] += 1
    return g


def _chain_with_tails(edges, n):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = -2
    for i, j in edges:
        g[i][j] = g[j][i] = 1
    return g


def test_cycle_fibers_are_type_i_n():
    for n in (3, 5, 7):
        lat, cls = _affine_lattice(_cycle(n))
        fc = classify_configuration(lat, cls)
        assert fc.kodaira_type == f"I{n}"
        assert fc.multiplicities == (1,) * n


def test_two_component_fiber_is_i2():
    lat, cls = _affine_lattice([[-2, 2], [2, -2]])
    fc = classify_configuration(lat, cls)
    assert fc.kodaira_type == "I2"
    assert fc.multiplicities == (1, 1)


def test_star_shaped_fibers_match_affine_tables():
    # central vertex last in each edge list
    d4 = _chain_with_tails([(0, 4), (1, 4), (2, 4), (3, 4)], 5)
    lat, cls = _affine_lattice(d4)
    assert classify_configuration(lat, cls).kodaira_type == "I*0"

    e6 = _chain_with_tails(
        [(0, 3), (3, 6), (1, 4), (4, 6), (2, 5), (5, 6)], 7
    )
    lat, cls = _affine_lattice(e6)
    fc = classify_configuration(lat, cls)
    assert fc.kodaira_type == "IV*"
    assert sorted(fc.multiplicities) == [1, 1, 1, 2, 2, 2, 3]

    e7 = _chain_with_tails(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)], 8
    )
    lat, cls = _affine_lattice(e7)
    assert classify_configuration(lat, cls).kodaira_type == "III*"

    e8 = _chain_with_tails(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)], 9
    )
    lat, cls = _affine_lattice(e8)
    assert classify_configuration(lat, cls).kodaira_type == "II*"


def test_configuration_rejections():
    with pytest.raises(InputError, match="\\(-2\\)-classes"):
        classify_configuration(*_affine_lattice([[-4]]))
    with pytest.raises(InputError, match="negative definite"):
        # a single (-2) class is definite: a component, not a full fiber
        classify_configuration(*_affine_lattice([[-2]]))
    with pytest.raises(InputError, match="disconnected"):
        lat, cls = _affine_lattice(
            [[-2, 2, 0, 0], [2, -2, 0, 0], [0, 0, -2, 2], [0, 0, 2, -2]]
        )
        classify_configuration(lat, cls)
    with pytest.raises(InputError, match="non-negatively"):
        u = hyperbolic_plane()
        amb = direct_sum(u, diagonal_lattice([-2, -2]))
        # a repeated class pairs -2 with itself off the diagonal
        classify_configuration(amb, [(0, 0, 1, 0), (0, 0, 1, 0)])


def test_shioda_tate_formula():
    class Fake:
        def __init__(self, n):
            self.component_count = n

    assert shioda_tate_rank(10, [Fake(7)]) == 2
    assert shioda_tate_rank(10, [Fake(7), Fake(2)]) == 1
    with pytest.raises(ArithmeticError):
        shioda_tate_rank(10, [Fake(7), Fake(2), Fake(3)])


def test_fiber_from_boundary_generic(seed_surface, generic_phi):
    fib = fiber_from_boundary(seed_surface, generic_phi)
    assert fib.multiple == 1
    assert fib.has_section
    assert fib.zero_section == seed_surface.history[-1][1]
    assert fib.fiber_class == seed_surface.boundary_sum()


def test_fiber_multiple_tracks_period_order(seed_surface, seed_complement):
    # a period point of order 3 on the boundary class forces a triple fiber
    from cuspcheck.period import PeriodPoint

    dsum_coords = seed_complement.coords_of(seed_surface.boundary_sum())
    # order of phi(D) mod 3: choose values making phi(D) = 1
    values = (1, 0, 0) if dsum_coords[0] != 0 else (0, 1, 0)
    phi3 = PeriodPoint(seed_complement, 3, values)
    if phi3.evaluate(seed_surface.boundary_sum()) == 0:
        pytest.skip("chosen values did not give an order-3 boundary residue")
    fib = fiber_from_boundary(seed_surface, phi3)
    assert fib.multiple == 3
    assert not fib.has_section
    assert fib.fiber_class == tuple(3 * x for x in seed_surface.boundary_sum())


def test_fibration_rejects_non_minus_two_boundary():
    from cuspcheck.period import PeriodPoint
    from cuspcheck.surface import toric_from_sequence

    s = toric_from_sequence((-1, -2, -1, -1, -1, -1, -2))
    lam = boundary_complement(s).sublattice  # rank 0 here
    phi = PeriodPoint(lam, 1, ())
    with pytest.raises(InputError, match="fiber type"):
        fiber_from_boundary(s, phi)


def test_one_pipeline_run_classifies_no_boundary_configuration(monkeypatch):
    # both boundary fibers (on Y, and on Y2 in the second fibration and its
    # Mordell-Weil row) are I_7 by the cycle's shape; the one configuration
    # left to classify is the I2 fiber that Y2's period adds
    calls = []
    real = cuspcheck.fibration.classify_configuration
    monkeypatch.setattr(
        cuspcheck.fibration, "classify_configuration", lambda *a: calls.append(a) or real(*a)
    )
    cuspcheck.pipeline.run_pipeline()
    assert [len(classes) for _, classes in calls] == [2]
    # and the two boundary fibers are the ones the classifier finds
    chain = _Chain(make_config(), SEED_SEQUENCE, BLOWUP_COMPONENTS)
    for y, phi in ((chain.y, chain.phi), chain.y2):
        fiber = fiber_from_boundary(y, phi).reducible_fibers[0]
        assert fiber == classify_configuration(y.picard, y.boundary)


def test_analyze_fibration_generic_branch(seed_surface, generic_phi):
    fib = analyze_fibration(seed_surface, generic_phi)
    assert [f.kodaira_type for f in fib.reducible_fibers] == ["I7"]
    assert fib.mw_rank == 2


def test_analyze_fibration_trivial_branch(seed_surface, trivial_phi):
    fib = analyze_fibration(seed_surface, trivial_phi)
    assert [f.kodaira_type for f in fib.reducible_fibers] == ["I7", "I2"]
    assert fib.mw_rank == 1
    # the I2 components really are classes killed by the period point
    extra = fib.reducible_fibers[1]
    for c in extra.classes:
        assert trivial_phi.evaluate(c) == 0
        assert seed_surface.picard.square(c) == -2


def test_analyze_fibration_needs_phi_on_the_whole_complement(seed_surface, generic_phi):
    # a period defined on a rank-2 saturated piece of the complement that
    # still contains the boundary sum: the complement basis leaves its domain
    lam = generic_phi.domain
    rows = saturation([list(seed_surface.boundary_sum()), list(lam.basis[0])], lam.ambient.rank)
    part = sublattice_from_rows(lam.ambient, rows)
    assert part.contains(seed_surface.boundary_sum()) and part.rank < lam.rank
    phi = PeriodPoint(part, generic_phi.modulus, tuple(generic_phi.evaluate(b) for b in part.basis))
    with pytest.raises(InputError):
        analyze_fibration(seed_surface, phi)


def _rebased(phi, u):
    """phi on the basis U.B of its domain, where it takes the values U.v."""
    basis = tuple(tuple(combination(row, phi.domain.basis)) for row in u)
    values = tuple(dot(row, phi.values) % phi.modulus for row in u)
    return PeriodPoint(sublattice_from_rows(phi.domain.ambient, basis), phi.modulus, values)


def test_complement_period_reads_a_rebased_period_on_the_complement(seed_surface, generic_phi, rng):
    # a period given on another basis of the complement comes back on the
    # complement's own basis with the values the fibration used to re-read
    # there; analyze_fibration refuses it until it is read so
    lam = generic_phi.domain
    fib = analyze_fibration(seed_surface, generic_phi)
    moved = 0
    for _ in range(8):
        phi = _rebased(generic_phi, random_unimodular(rng, lam.rank))
        reread = PeriodPoint(lam, phi.modulus, tuple(phi.evaluate(b) for b in lam.basis))
        on_lam = complement_period(seed_surface, phi)
        assert on_lam == reread == generic_phi and on_lam.domain is lam
        assert analyze_fibration(seed_surface, on_lam) == fib
        if phi.domain.basis != lam.basis:
            moved += 1
            with pytest.raises(
                InputError, match="^period domain is not on the boundary complement's basis$"
            ):
                analyze_fibration(seed_surface, phi)
    assert moved


def test_complement_period_refuses_another_gram_rank_or_span(seed_surface, generic_phi):
    lam, m = generic_phi.domain, generic_phi.modulus
    # another Gram: the toric seed's rank-5 Pic
    assert complement_period(toric_from_sequence(SEED_SEQUENCE), generic_phi) is None
    # another rank: two of the complement's basis vectors span a saturated piece
    part = sublattice_from_rows(lam.ambient, lam.basis[:2])
    assert complement_period(seed_surface, PeriodPoint(part, m, generic_phi.values[:2])) is None
    # another span: W blows up component 5 twice where Y blows up 5 and 6, so
    # it has Y's Gram and a complement of Y's rank that does not hold Y's
    w = toric_from_sequence(SEED_SEQUENCE)
    for comp in (1, 3, 4, 5, 5):
        w = interior_blowup(w, comp)
    assert w.picard.gram == seed_surface.picard.gram
    assert boundary_complement(w).sublattice.rank == lam.rank
    assert complement_period(w, generic_phi) is None


def test_eichler_axis_fixed_and_composition_law():
    u2 = direct_sum(hyperbolic_plane(), diagonal_lattice([-2, -2]))
    f = (1, 0, 0, 0)
    e1 = (0, 0, 1, 0)
    e2 = (3, 0, 0, 2)  # orthogonal to f in U + diag(-2,-2)
    t1 = eichler_transvection(u2, f, e1)
    t2 = eichler_transvection(u2, f, e2)
    assert t1.apply(f) == f
    # E(f, e1) E(f, e2) = E(f, e1 + e2), exactly
    combined = eichler_transvection(u2, f, (3, 0, 1, 2))
    assert t1.compose(t2).matrix == combined.matrix
    assert t2.compose(t1).matrix == combined.matrix
    # E(f, f) is the identity
    assert eichler_transvection(u2, f, f).is_identity()


def test_eichler_transvection_matches_the_checked_constructor_on_random_axes(rng):
    # U + A_n(-1) is even, so every isotropic f and every e orthogonal to it
    # meet the preconditions, which make the formula an isometry unchecked
    for _ in range(60):
        k = rng.randint(1, 6)
        a_n = gram_lattice([[-2 * (i == j) + (abs(i - j) == 1) for j in range(k)] for i in range(k)])
        lat = direct_sum(hyperbolic_plane(), a_n)
        v = [rng.randint(-2, 2) for _ in range(k)]
        h = -a_n.square(v) // 2
        if h:
            # f = (a, b, v) is isotropic when 2ab = -v.v = 2h
            a = rng.choice([d for d in range(1, h + 1) if h % d == 0]) * rng.choice([1, -1])
            f = (a, h // a, *v)
        else:
            f = (rng.choice([1, -1, 2, -3]), 0, *v)
        assert lat.square(f) == 0
        w = orthogonal_complement(lat, [f]).basis
        e = combination([rng.randint(-2, 2) for _ in w], w)
        g = eichler_transvection(lat, f, e)
        assert g == Isometry(lat, g.matrix)
        assert g.apply(f) == f


def test_eichler_rejections():
    u = hyperbolic_plane()
    with pytest.raises(InputError, match="isotropic"):
        eichler_transvection(diagonal_lattice([-2, -2]), (1, 0), (0, 1))
    with pytest.raises(InputError, match="orthogonal"):
        eichler_transvection(u, (1, 0), (1, 1))


def test_translation_vectors_and_group_generic(seed_surface, generic_phi):
    fib = analyze_fibration(seed_surface, generic_phi)
    vecs = translation_vectors(seed_surface, fib)
    assert len(vecs) == 2 == fib.mw_rank
    group = mw_translation_group(seed_surface, fib)
    assert len(group) == 2
    for g in group:
        assert classify_isometry(g).tag == "parabolic"
        assert g.apply(fib.fiber_class) == fib.fiber_class
        # boundary components stay put: translations respect the cycle
        for b in seed_surface.boundary:
            assert g.apply(b) == b
    assert commute(group[0].matrix, group[1].matrix)


def test_translation_group_trivial_branch(seed_surface, trivial_phi):
    fib = analyze_fibration(seed_surface, trivial_phi)
    group = mw_translation_group(seed_surface, fib)
    assert len(group) == 1 == fib.mw_rank
    assert classify_isometry(group[0]).tag == "parabolic"


def test_fibration_layers_share_the_surface_complement(monkeypatch):
    # the complement the caller asked for is the one the fibration and
    # translation layers read: one computation on a fresh surface
    calls = []
    real = cuspcheck.surface.orthogonal_complement
    monkeypatch.setattr(
        cuspcheck.surface, "orthogonal_complement", lambda lat, vs: calls.append(vs) or real(lat, vs)
    )
    y = toric_from_sequence((-1, -2, -1, -1, -1, -1, -2))
    for comp in (1, 3, 4, 5, 6):
        y = interior_blowup(y, comp)
    lam = boundary_complement(y).sublattice
    phi = solve_period(lam, [(y.boundary_sum(), "zero")], modulus=1)
    fib = analyze_fibration(y, phi)
    assert len(mw_translation_group(y, fib)) == 1
    assert len(calls) == 1


def test_analyze_fibration_reads_the_kept_roots(monkeypatch):
    # once the complement's roots have been read, the fibration enumerates
    # nothing more on the same surface
    y = toric_from_sequence((-1, -2, -1, -1, -1, -1, -2))
    for comp in (1, 3, 4, 5, 6):
        y = interior_blowup(y, comp)
    comp = boundary_complement(y)
    beta = comp.sublattice.embed(comp.roots.representatives[0])
    phi = solve_period(comp.sublattice, [(y.boundary_sum(), "zero"), (beta, "nonzero")])
    calls = []
    real = cuspcheck.enumeration._definite_vectors
    monkeypatch.setattr(
        cuspcheck.enumeration, "_definite_vectors", lambda g, s: calls.append(g) or real(g, s)
    )
    fib = analyze_fibration(y, phi)
    assert [f.kodaira_type for f in fib.reducible_fibers] == ["I7"]
    assert calls == []


def test_isotropic_transvections_share_fixed_line(seed_surface, generic_phi):
    tilde = interior_blowup(seed_surface, 6)
    m_sub = boundary_complement(tilde).sublattice
    f = tuple(tilde.boundary_sum())
    # the boundary sum upstairs is not isotropic; use the first fibration's
    # fiber class pulled up instead
    fib = analyze_fibration(seed_surface, generic_phi)
    f_up = tuple(fib.fiber_class) + (0,)
    fam = isotropic_transvection_group(m_sub, f_up)
    assert len(fam) == 2
    lines = {classify_isometry(g).fixed_isotropic for g in fam}
    assert len(lines) == 1
    for g in fam:
        assert classify_isometry(g).tag == "parabolic"
        assert commute(fam[0].matrix, g.matrix)


def _oracle_translation_vectors(surface, fib):
    """``translation_vectors`` through the former quotient presentation."""
    lam = boundary_complement(surface).sublattice
    n = lam.rank
    bad = [list(r) for r in lam.as_lattice().radical]
    for config in fib.reducible_fibers[1:]:
        bad += [list(lam.coords_of(cls)) for cls in config.classes]
    _projection, section = quotient_presentation(n, saturation([r for r in bad if any(r)], n))
    return [lam.embed(col) for col in transpose(section)]


def _oracle_transvection_group(sub, f_ambient):
    """``isotropic_transvection_group`` through the former complement of the
    ambient saturation of f inside its orthogonal."""
    lat = sub.as_lattice()
    f = list(sub.coords_of(f_ambient))
    w_rows = [list(r) for r in orthogonal_complement(lat, [f]).basis]
    gens = complement_basis_within(w_rows, saturation([f], lat.rank))
    return [eichler_transvection(lat, f, e) for e in gens]


def _record_transvections(monkeypatch) -> list:
    """(arguments, result) of every ``eichler_transvection`` the fibration
    module builds from now until the test ends."""
    built = []

    def recorded(*args):
        built.append((args, eichler_transvection(*args)))
        return built[-1][1]

    monkeypatch.setattr(cuspcheck.fibration, "eichler_transvection", recorded)
    return built


def _assert_handed_the_line_of_its_matrix(args, g):
    """The line ``eichler_transvection`` hands g is the one ``unipotent_line``
    reads off its matrix, and so it is for the axis scaled by -1, 2 and -3
    (the transvection of f and c e): a primitive, sign-normalized f."""
    lat, f, e = args
    assert g._line == unipotent_line(g.matrix) is not None, (f, e)
    for c in (-1, 2, -3):
        scaled = eichler_transvection(lat, [c * x for x in f], e)
        assert scaled.matrix == eichler_transvection(lat, f, [c * x for x in e]).matrix
        assert scaled._line == unipotent_line(scaled.matrix) == g._line, (c, f, e)


def test_the_paper_transvections_are_handed_the_lines_of_their_matrices(monkeypatch):
    # the paper's translations on Y, its G and H families on M and the two
    # transvections move_section applies
    built = _record_transvections(monkeypatch)
    chain = _Chain(make_config(), SEED_SEQUENCE, BLOWUP_COMPONENTS)
    families = chain.translations + chain.g_family + chain.h_family
    assert chain.cert and chain.second and len(built) == len(families) + 2
    for args, g in built:
        _assert_handed_the_line_of_its_matrix(args, g)
    # classify_isometry reads the handed line, the one Fix(g^2) gives
    for g in families:
        assert classify_isometry(g) == _classify_by_fixed_lattice(g)


def test_a_transvection_with_no_line_is_handed_none():
    # e in Q f makes T = 1; an axis in the radical (G f = 0) or an isotropic
    # e makes (T - 1)^2 = 0: unipotent_line finds no line, and none is handed
    u2 = direct_sum(hyperbolic_plane(), diagonal_lattice([-2, -2]))
    f = (1, 0, 0, 0)
    for lat, axis, e, identity in (
        (u2, f, (2, 0, 0, 0), True),
        (u2, (-3, 0, 0, 0), (1, 0, 0, 0), True),
        (diagonal_lattice([0, -2, -2]), (1, 0, 0), (0, 1, 0), False),
        (direct_sum(hyperbolic_plane(), hyperbolic_plane()), f, (0, 0, 1, 0), False),
    ):
        g = eichler_transvection(lat, axis, e)
        assert g.is_identity() == identity
        assert g._line is None is unipotent_line(g.matrix), (lat.gram, axis, e)
    assert classify_isometry(eichler_transvection(u2, f, (2, 0, 0, 0))).tag == "elliptic"


@pytest.mark.parametrize("n", range(3, 9), ids=lambda n: f"cycle-{n}")
def test_census_generators_match_the_quotient_presentation_oracle(n, rng, monkeypatch):
    # every census seed, blown up in a seeded order (each first fibration has
    # a section): the translation vectors and both transvection families,
    # built on saturated_complement, equal the former path generator by
    # generator; H is built where a second fibration is found.  Every
    # transvection the chain builds (translations on Y, G and H on M, and the
    # one move_section applies for the second fibration and for the
    # certificate) is what the checked constructor makes of its matrix, and
    # is handed the line unipotent_line reads off that matrix.  The
    # boundary fibers of Y and of the second fibration's Y2, read off as I_n,
    # are the ones the classifier finds
    built = _record_transvections(monkeypatch)
    for seq in fan_seeds(n):
        built.clear()
        order = [i + 1 for i, a in enumerate(seq) for _ in range(a + 2)]
        rng.shuffle(order)
        chain = _Chain(make_config(), seq, order)
        assert chain.tvecs == _oracle_translation_vectors(chain.y, chain.fib1), seq
        axes = [tuple(chain.fib1.fiber_class) + (0,)]
        if chain.second is not None:
            axes.append(chain.second.fiber_class_upstairs)
        for f, family in zip(axes, (chain.g_family, chain.h_family)):
            want = _oracle_transvection_group(chain.m_sub, f)
            assert family and [g.matrix for g in family] == [g.matrix for g in want], seq
        assert chain.translations and chain.cert
        # move_section transvects once for the certificate and once per second axis
        families = chain.translations + chain.g_family + chain.h_family
        assert len(built) == len(families) + len(axes), seq
        for args, g in built:
            assert g == Isometry(g.ambient, g.matrix), seq
            _assert_handed_the_line_of_its_matrix(args, g)
        fibered = [(chain.y, chain.phi)]
        if chain.second is not None:
            fibered.append(chain.y2)
        for y, phi in fibered:
            fiber = fiber_from_boundary(y, phi).reducible_fibers[0]
            assert fiber == classify_configuration(y.picard, y.boundary), seq
            assert fiber.kodaira_type == f"I{n}", seq


@pytest.mark.parametrize(
    "sequence, blowups, modulus, kodaira, rank",
    [
        # P^2 with each line blown up three times: E6 roots, Coxeter number 12
        ((1, 1, 1), (1, 1, 1, 2, 2, 2, 3, 3, 3), 12, "I3", 6),
        # P^1 x P^1 with each side blown up twice: D5 roots, Coxeter number 8
        ((0, 0, 0, 0), (1, 1, 2, 2, 3, 3, 4, 4), 8, "I4", 5),
    ],
    ids=["E6", "D5"],
)
def test_generic_period_on_a_larger_root_system_adds_no_fiber(
    sequence, blowups, modulus, kodaira, rank
):
    # a period that kills no root coset gives no extra reducible fiber, on
    # any root system, so the boundary cycle is the only one
    y = toric_from_sequence(sequence)
    for comp in blowups:
        y = interior_blowup(y, comp)
    lam = boundary_complement(y).sublattice
    roots = vectors_of_square(lam.as_lattice(), -2)
    constraints = [(y.boundary_sum(), "zero")]
    constraints += [(lam.embed(r), "nonzero") for r in roots.representatives]
    phi = solve_period(lam, constraints, modulus=modulus)
    assert is_generic(phi, roots)
    fib = analyze_fibration(y, phi)
    assert [f.kodaira_type for f in fib.reducible_fibers] == [kodaira]
    assert fib.mw_rank == rank
    group = mw_translation_group(y, fib)
    assert [classify_isometry(g).tag for g in group] == ["parabolic"] * rank
