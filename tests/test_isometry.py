"""Isometry arithmetic and the elliptic/parabolic/hyperbolic trichotomy."""

import itertools
import sys
import traceback
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    congruence_transform,
    cyclotomic_classify,
    fan_seeds,
    identity_isometry,
    invert_unimodular,
    isometry_inverse,
    isometry_power,
    log_unipotent,
    naive_reflection,
    random_unimodular,
    two_product_unipotent_line,
)

import cuspcheck.checker
from cuspcheck.checker import preserves_gram, totaro_check, unipotent_line
from cuspcheck.errors import InputError
from cuspcheck.fibration import eichler_transvection
from cuspcheck.intcore import matmul, rank_int, sign_normalized
from cuspcheck.intlinalg import charpoly, identity_matrix, matvec, ring_points
import cuspcheck.isometry
from cuspcheck.isometry import (
    Isometry,
    IsometryType,
    _classify_by_fixed_lattice,
    classify_isometry,
)
from cuspcheck.lattice import (
    GramLattice,
    diagonal_lattice,
    direct_sum,
    gram_lattice,
    hyperbolic_plane,
)
from cuspcheck.pipeline import BLOWUP_COMPONENTS, SEED_SEQUENCE, _Chain, make_config, run_pipeline

U = hyperbolic_plane()
UA1 = direct_sum(U, diagonal_lattice([-2]))


def _transvection(e):
    return eichler_transvection(UA1, (1, 0, 0), e)


def test_gram_preservation_is_enforced():
    with pytest.raises(InputError):
        Isometry(U, [[1, 1], [0, 1]])


def test_identity_is_elliptic_of_order_one():
    t = classify_isometry(identity_isometry(U))
    assert t.tag == "elliptic"
    assert t.order == 1


def test_minus_identity_is_elliptic_of_order_two():
    t = classify_isometry(Isometry(U, [[-1, 0], [0, -1]]))
    assert t.tag == "elliptic"
    assert t.order == 2


def test_swap_on_hyperbolic_plane():
    t = classify_isometry(Isometry(U, [[0, 1], [1, 0]]))
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
        assert not isometry_power(g, k).is_identity()


def test_hyperbolic_example_has_salem_style_charpoly():
    # [[-2,3],[3,-2]] hosts an isometry with an eigenvalue off the unit circle
    lat = gram_lattice([[-2, 3], [3, -2]])
    # reflection in each basis vector, composed: infinite dihedral rotation
    r1 = Isometry(lat, [[-1, 3], [0, 1]])
    r2 = Isometry(lat, [[1, 0], [3, -1]])
    g = r1.compose(r2)
    t = classify_isometry(g)
    assert t.tag == "hyperbolic"
    assert charpoly([list(r) for r in g.matrix]) == [1, -7, 1]


def _count_gram_checks(monkeypatch):
    """The call stacks (frame names) of every Gram check from now until the
    test ends: ``checker.preserves_gram`` under each name a cuspcheck module
    holds it by, so the check in ``Isometry(...)`` counts too."""
    stacks = []
    real = cuspcheck.checker.preserves_gram

    def counted(gram, matrix):
        stacks.append({frame.name for frame in traceback.extract_stack()})
        return real(gram, matrix)

    for name, module in list(sys.modules.items()):
        if name.startswith("cuspcheck") and getattr(module, "preserves_gram", None) is real:
            monkeypatch.setattr(module, "preserves_gram", counted)
    return stacks


def test_compose_takes_no_gram_matrix(monkeypatch):
    # a product of isometries is an isometry; only Isometry(...) checks
    g, h, gh = (_transvection((0, 0, k)) for k in (1, -2, -1))
    calls = _count_gram_checks(monkeypatch)
    real = GramLattice.gram_of
    monkeypatch.setattr(GramLattice, "gram_of", lambda lat, vs: calls.append(vs) or real(lat, vs))
    assert g.compose(h).matrix == gh.matrix
    assert calls == []
    # the probe sees a check from outside
    assert Isometry(UA1, g.matrix) == g and len(calls) == 1


def test_one_pipeline_run_checks_the_pairing_of_each_family_member_once(monkeypatch):
    # the checker checks the two G and two H members it is handed; every
    # isometry the run builds is a transvection or a product, built through
    # _unchecked, and neither eichler_transvection nor unipotent_line checks
    # a Gram matrix
    stacks = _count_gram_checks(monkeypatch)
    assert run_pipeline()["all_pass"]
    assert len(stacks) == 4
    for names in stacks:
        assert "_parabolic_lines" in names
        assert not names & {"unipotent_line", "eichler_transvection", "__post_init__"}


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
        Isometry(UA1, [[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
        Isometry(UA1, [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
        Isometry(UA1, [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]),
    ]
    for _ in range(200):
        g = rng.choice(pool)
        for _ in range(rng.randint(0, 3)):
            g = g.compose(rng.choice(pool))
        tg = _classify_or_refuse(g)
        ti = _classify_or_refuse(isometry_inverse(g))
        if tg == "refused":
            assert ti == "refused"
            continue
        assert tg.tag == ti.tag
        assert tg.order == ti.order
        assert tg.fixed_isotropic == ti.fixed_isotropic
        # conjugation preserves the tag and order
        h = rng.choice(pool)
        tc = _classify_or_refuse(h.compose(g).compose(isometry_inverse(h)))
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
    g = Isometry(lat, [[1, 0, 0], [0, 0, 1], [0, -1, 1]])
    t = classify_isometry(g)
    assert (t.tag, t.order) == ("elliptic", 6)


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


def _cartan(rank, edges):
    """The negative definite form of a simply laced root system: -2 on the
    diagonal, 1 for each edge of its Dynkin diagram."""
    gram = [[-2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        gram[i][j] = gram[j][i] = 1
    return gram_lattice(gram)


def _a(k):
    return _cartan(k, [(i, i + 1) for i in range(k - 1)])


# Bourbaki's labels 1..8, shifted to 0..7: the chain 1-3-4-5-6-7-8, 2 on 4
E8 = _cartan(8, [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)])


def _minus_one(lattice, block):
    """-1 on the first ``block`` coordinates, +1 on the rest."""
    n = lattice.rank
    return Isometry(
        lattice, [[(-1 if i < block else 1) if i == j else 0 for j in range(n)] for i in range(n)]
    )


def _outcome(classify, g):
    try:
        t = classify(g)
    except (InputError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return t.tag, t.order, t.fixed_isotropic


def _random_roots(rng, lattice, count):
    roots = []
    while len(roots) < count:
        v = tuple(rng.randint(-1, 1) for _ in range(lattice.rank))
        if lattice.square(v) == -2:
            roots.append(v)
    return roots


def _paper_isometries():
    chain = _Chain(make_config(), SEED_SEQUENCE, BLOWUP_COMPONENTS)
    return [chain.translations, chain.g_family + chain.h_family]


def test_classification_matches_the_cyclotomic_oracle(rng):
    # reflection words on U + A_k(-1) and U + A_1(-1)^k (ranks 2..12) and on
    # the rank-2 form hosting an infinite dihedral group, then words in the
    # paper's translations and G/H transvections and their inverses; any of
    # them composed with -1 a quarter of the time
    pools = []
    for k in range(11):
        for lattice in (direct_sum(U, _a(k)), direct_sum(U, diagonal_lattice([-2] * k))):
            pools.append([naive_reflection(lattice, r) for r in _random_roots(rng, lattice, 12)])
    pools.append([naive_reflection(gram_lattice([[-2, 3], [3, -2]]), r) for r in ((1, 0), (0, 1))])
    pools += [gens + [isometry_inverse(g) for g in gens] for gens in _paper_isometries()]
    seen = set()
    for pool in pools:
        lattice = pool[0].ambient
        for _ in range(30):
            g = rng.choice(pool)
            for _ in range(rng.randint(0, 5)):
                g = g.compose(rng.choice(pool))
            if rng.random() < 0.25:
                g = g.compose(_minus_one(lattice, lattice.rank))
            want = _outcome(cyclotomic_classify, g)
            assert _outcome(classify_isometry, g) == want, g.matrix
            seen.add(want[0])
    assert seen == {"elliptic", "parabolic", "hyperbolic", InputError}


def _coxeter_element(lattice, simple_roots):
    g = identity_isometry(lattice)
    for r in simple_roots:
        g = g.compose(naive_reflection(lattice, r))
    return g


def _unit_roots(lattice, start, count):
    n = lattice.rank
    return [tuple(1 if i == j else 0 for i in range(n)) for j in range(start, start + count)]


def test_coxeter_element_of_e8_has_order_thirty():
    lattice = direct_sum(U, E8)
    g = _coxeter_element(lattice, _unit_roots(lattice, 2, 8))
    for classify in (classify_isometry, cyclotomic_classify):
        t = classify(g)
        assert (t.tag, t.order) == ("elliptic", 30)


def test_coxeter_element_of_a4_a6_has_order_thirty_five_and_seventy_with_minus_one():
    # eigenvalue orders 5 and 7; -1 on U commutes with it and adds order 2
    lattice = direct_sum(U, _a(4), _a(6))
    g = _coxeter_element(lattice, _unit_roots(lattice, 2, 10))
    swapped = g.compose(_minus_one(lattice, 2))
    for classify in (classify_isometry, cyclotomic_classify):
        assert (classify(g).tag, classify(g).order) == ("elliptic", 35)
        assert (classify(swapped).tag, classify(swapped).order) == ("elliptic", 70)


def _checker_line(g):
    """The fixed line the criterion checker reads off a one-member H family."""
    lines = totaro_check(g.ambient, [], [g], None).witnesses.get("h_fixed_lines")
    return None if lines is None else tuple(lines[0])


def test_checker_lines_match_the_classifier(rng):
    # transvections of U + A1(-1)^3 along f with e = (a, 0, c1, c2, 0), in a
    # random basis; composed with r = -1 on the last A1(-1), which fixes f and
    # e, they stay parabolic with the same line but are no longer unipotent
    base = direct_sum(U, diagonal_lattice([-2, -2, -2]))
    f = (1, 0, 0, 0, 0)
    r = [[(-1 if i == 4 else 1) * (i == j) for j in range(5)] for i in range(5)]
    for _ in range(40):
        p = random_unimodular(rng, 5)
        p_inv = invert_unimodular(p)
        lat = gram_lattice(congruence_transform(base.gram, p))

        def moved(matrix):
            return Isometry(lat, matmul(p_inv, matmul(matrix, p)))

        e = (rng.randint(-3, 3), 0, rng.randint(-3, 3), rng.randint(1, 3), 0)
        g = eichler_transvection(base, f, e).matrix
        line = sign_normalized(matvec(p_inv, f))
        unipotent, twisted = moved(g), moved(matmul(g, r))
        for h in (unipotent, twisted):
            assert classify_isometry(h) == IsometryType("parabolic", fixed_isotropic=line)
        assert _checker_line(unipotent) == line
        assert _checker_line(twisted) is None


def test_checker_finds_no_line_on_elliptic_or_hyperbolic_isometries():
    a2 = gram_lattice([[2, 0, 0], [0, -2, 1], [0, 1, -2]])
    dihedral = gram_lattice([[-2, 3], [3, -2]])
    hyperbolic = Isometry(dihedral, [[-1, 3], [0, 1]]).compose(
        Isometry(dihedral, [[1, 0], [3, -1]])
    )
    for g in (
        identity_isometry(U),
        Isometry(U, [[-1, 0], [0, -1]]),
        Isometry(U, [[0, 1], [1, 0]]),
        Isometry(a2, [[1, 0, 0], [0, 0, 1], [0, -1, 1]]),
        hyperbolic,
    ):
        assert classify_isometry(g).tag != "parabolic"
        assert _checker_line(g) is None


def test_a_unipotent_isometry_is_classified_without_a_fixed_lattice(monkeypatch):
    # the (g - 1)^2 read-off answers for a transvection and for the paper's
    # translations and G/H transvections; no Fix(g^2) lattice is built
    def refuse(g):
        raise AssertionError("a unipotent isometry built its fixed lattice")

    monkeypatch.setattr(cuspcheck.isometry, "fixed_sublattice", refuse)
    g = _transvection((0, 0, 1))
    assert classify_isometry(g) == IsometryType("parabolic", fixed_isotropic=(1, 0, 0))
    for pool in _paper_isometries():
        for g in pool:
            assert classify_isometry(g) == IsometryType("parabolic", fixed_isotropic=unipotent_line(g.matrix))


def test_a_unipotent_matrix_off_the_pairing_is_refused_by_the_constructor():
    # g = 1 + N, N: e1 -> e2 -> e3 -> 0 on U + A1(-1), preserves no pairing;
    # the read-off would call e3, of square -2, its fixed isotropic line, so
    # Isometry(...) refuses the matrix and classify_isometry never sees it
    matrix = ((1, 0, 0), (1, 1, 0), (0, 1, 1))
    assert not preserves_gram(UA1.gram, matrix) and unipotent_line(matrix) == (0, 0, 1)
    with pytest.raises(InputError, match="^matrix does not preserve the pairing$"):
        Isometry(UA1, matrix)


def test_a_matrix_off_the_pairing_fixing_a_positive_vector_is_refused_at_once():
    # g = 1 + N, N: e3 -> e2 -> e1 -> 0 on <1> + <-1> + <-1>, fixes e1 of
    # square 1 and has infinite order; it preserves no pairing, so
    # Isometry(...) refuses it, and the elliptic branch, whose loop over the
    # powers ends because an isometry fixing a positive vector has finite
    # order, never sees it
    lat = gram_lattice([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    with pytest.raises(InputError, match="^matrix does not preserve the pairing$"):
        Isometry(lat, ((1, 1, 0), (0, 1, 1), (0, 0, 1)))


def _fallback_cases():
    """The elliptic, hyperbolic and sheet-swapping examples above, and a
    Z x Z/2 parabolic g1 r that is not unipotent."""
    a2 = gram_lattice([[2, 0, 0], [0, -2, 1], [0, 1, -2]])
    dihedral = gram_lattice([[-2, 3], [3, -2]])
    e8, a4a6 = direct_sum(U, E8), direct_sum(U, _a(4), _a(6))
    coxeter = _coxeter_element(a4a6, _unit_roots(a4a6, 2, 10))
    cases = [
        identity_isometry(U),
        Isometry(U, [[-1, 0], [0, -1]]),
        Isometry(U, [[0, 1], [1, 0]]),
        Isometry(a2, [[1, 0, 0], [0, 0, 1], [0, -1, 1]]),
        Isometry(dihedral, [[-1, 3], [0, 1]]).compose(
            Isometry(dihedral, [[1, 0], [3, -1]])
        ),
        _coxeter_element(e8, _unit_roots(e8, 2, 8)),
        coxeter,
        coxeter.compose(_minus_one(a4a6, 2)),
        _transvection((0, 0, 1)).compose(_minus_one(UA1, 3)),
    ]
    lat = direct_sum(U, diagonal_lattice([-2, -2]))
    g1 = eichler_transvection(lat, (1, 0, 0, 0), (0, 0, 1, 0))
    r = Isometry(lat, [[(-1 if i == 3 else 1) * (i == j) for j in range(4)] for i in range(4)])
    return cases + [g1, g1.compose(r)]


def test_classification_matches_the_fixed_lattice_oracle_on_the_fallback_cases():
    outcomes = []
    for g in _fallback_cases():
        want = _outcome(_classify_by_fixed_lattice, g)
        assert _outcome(classify_isometry, g) == want, g.matrix
        outcomes.append(want[0])
    assert set(outcomes) == {"elliptic", "hyperbolic", "parabolic", InputError}


@pytest.mark.parametrize("n", range(3, 9), ids=lambda n: f"cycle-{n}")
def test_classification_matches_the_fixed_lattice_oracle_on_the_census(n, rng):
    # each census seed blown up in a seeded order: its translations on Y's
    # Picard and its G and H transvections on M, each with the pairwise
    # products of its family, classified as the Fix(g^2) oracle does
    tags = Counter()
    for seq in fan_seeds(n):
        order = [i + 1 for i, a in enumerate(seq) for _ in range(a + 2)]
        rng.shuffle(order)
        chain = _Chain(make_config(), seq, order)
        for pool in (chain.translations, chain.g_family + chain.h_family):
            for g in pool + [a.compose(b) for a, b in itertools.product(pool, repeat=2)]:
                want = _outcome(_classify_by_fixed_lattice, g)
                assert _outcome(classify_isometry, g) == want, seq
                tags[want[0], unipotent_line(g.matrix) is not None] += 1
    assert tags[("parabolic", True)] > 0
    if n < 8:
        # where H exists, a G member times an H member is hyperbolic
        assert tags[("hyperbolic", False)] > 0


def _census_isometries(rng, n):
    """Each census seed of cycle length n, blown up in a seeded order: its
    translations on Y's Picard and its G and H transvections on M, each
    pool with the pairwise products of its members."""
    out = []
    for seq in fan_seeds(n):
        order = [i + 1 for i, a in enumerate(seq) for _ in range(a + 2)]
        rng.shuffle(order)
        chain = _Chain(make_config(), seq, order)
        for pool in (chain.translations, chain.g_family + chain.h_family):
            out += pool + [a.compose(b) for a, b in itertools.product(pool, repeat=2)]
    return out


@pytest.mark.parametrize("n", range(3, 9), ids=lambda n: f"cycle-{n}")
def test_the_line_read_matches_the_two_product_oracle_on_the_census(n, rng):
    # the translations and transvections are unipotent, so the line alone is
    # read; a G member times an H member is hyperbolic, and gets None
    outcomes = Counter()
    for g in _census_isometries(rng, n):
        line = unipotent_line(g.matrix)
        assert line == two_product_unipotent_line(g.matrix), g.matrix
        outcomes[line is None] += 1
    assert outcomes[False] > 0
    assert outcomes[True] > 0 or n == 8


def _forged(rng, n, blocks, shift=0):
    """U (1 + N + shift E_00) U^-1 on Z^n for a seeded unimodular U (U = 1
    without ``rng``): N nilpotent with one Jordan chain per entry of
    ``blocks``, the rest fixed."""
    j = identity_matrix(n)
    j[0][0] += shift
    start = 0
    for size in blocks:
        for k in range(start, start + size - 1):
            j[k + 1][k] = 1
        start += size
    u = random_unimodular(rng, n) if rng else identity_matrix(n)
    return matmul(matmul(u, j), invert_unimodular(u))


def test_the_line_read_matches_the_two_product_oracle_on_forged_matrices(rng):
    # the paper's stage isometries, then matrices that preserve no pairing:
    # two size-3 Jordan blocks ((g - 1)^2 of rank 2 and (g - 1)^3 = 0, so
    # every column is checked), one size-3 block (a line, read alone), one
    # size-4 block ((g - 1)^3 != 0), 1 + N + E_00 ((g - 1)^2 of rank one but
    # off the kernel of g - 1), random matrices, 1 and -1
    for pool in _paper_isometries():
        for g in pool:
            assert unipotent_line(g.matrix) == two_product_unipotent_line(g.matrix) is not None
    kinds = Counter()
    for _ in range(30):
        cases = {
            "two blocks of 3": _forged(rng, rng.randint(6, 10), (3, 3)),
            "one block of 3": _forged(rng, rng.randint(3, 10), (3,)),
            "one block of 4": _forged(rng, rng.randint(4, 10), (4,)),
            "shifted": _forged(rng, rng.randint(2, 10), (), shift=1),
            "random": [[rng.randint(-2, 2) for _ in range(5)] for _ in range(5)],
        }
        for kind, m in cases.items():
            line = unipotent_line(m)
            assert line == two_product_unipotent_line(m), (kind, m)
            nil = [[x - (i == j) for j, x in enumerate(r)] for i, r in enumerate(m)]
            kinds[kind, rank_int(matmul(nil, nil)), line is not None] += 1
    assert kinds["two blocks of 3", 2, True] == kinds["one block of 3", 1, True] == 30
    assert kinds["one block of 4", 2, False] == kinds["shifted", 1, False] == 30
    for k in range(1, 11):
        for m in (identity_matrix(k), [[-(i == j) for j in range(k)] for i in range(k)]):
            assert unipotent_line(m) is two_product_unipotent_line(m) is None
    # blocks of 3 and 4 on the unit vectors: g - 1 kills the first column e_2
    # of (g - 1)^2, but not its column e_5, and (g - 1)^3 e_3 = e_6
    m = _forged(None, 7, (3, 4))
    assert unipotent_line(m) is two_product_unipotent_line(m) is None
