"""Exact linear algebra: normal forms, signatures, complements."""

from collections import Counter

import pytest

from helpers import (
    assert_same_sublattice,
    congruence_transform,
    det_int,
    fan_seeds,
    invert_unimodular,
    is_saturated_rows as is_saturated,
    kernel_complement,
    quotient_presentation,
    random_symmetric,
    random_unimodular,
    reembedded_contains,
    reembedded_coords,
    smith_sublattice_rows,
    sublattice_project,
    unit_column_complements,
    unit_column_rows,
)

import cuspcheck.enumeration
import cuspcheck.fibration
import cuspcheck.lattice
from cuspcheck.errors import InputError
from cuspcheck.intcore import matmul, rank_int, row_hnf, transpose
from cuspcheck.intlinalg import (
    charpoly,
    combination,
    hnf_transform,
    left_kernel,
    matvec,
    right_kernel,
    saturation,
    snf_transform,
    solve_int,
)
from cuspcheck.lattice import (
    Signature,
    Sublattice,
    definiteness,
    diagonal_lattice,
    direct_sum,
    gram_lattice,
    hyperbolic_plane,
    orthogonal_complement,
    saturated_complement,
    signature,
    sublattice_from_rows,
)
from cuspcheck.pipeline import BLOWUP_COMPONENTS, SEED_SEQUENCE, _Chain, make_config, run_criterion
from cuspcheck.surface import interior_blowup, toric_from_sequence

# ------------------------------------------------------ integer normal forms


def test_hnf_reproduces_input_via_transform(rng):
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        h, u = hnf_transform(a)
        assert matmul(u, a) == h
        assert det_int(u) in (1, -1)


def test_row_hnf_is_canonical_under_row_ops(rng):
    # two different unimodular images of the same matrix share one HNF
    for _ in range(50):
        n = rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        u = random_unimodular(rng, n)
        assert row_hnf(a) == row_hnf(matmul(u, a))


def test_snf_transform_carries_the_inverse_of_u(rng):
    # the inverse rides along without changing D, U or V; m = 0 and n = 0
    # (an empty matrix and a matrix of empty rows) included
    for _ in range(100):
        m = rng.randint(0, 5)
        n = rng.randint(0, 5)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        d, u, v, u_inv = snf_transform(a, inverse=True)
        assert (d, u, v) == snf_transform(a)
        assert matmul(u, u_inv) == [[int(i == j) for j in range(m)] for i in range(m)]
        assert u_inv == invert_unimodular(u)


def test_snf_transform_identities(rng):
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        d, u, v = snf_transform(a)
        assert matmul(matmul(u, a), v) == d
        assert det_int(u) in (1, -1) and det_int(v) in (1, -1)
        # diagonal, with successive divisibility
        diag = [d[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        for x, y in zip(diag, diag[1:]):
            if x != 0:
                assert y % x == 0


def test_kernels_annihilate_and_have_full_rank(rng):
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        lk = left_kernel(a)
        for row in lk:
            assert matmul([list(row)], a) == [[0] * n]
        rk = right_kernel(a)
        for row in rk:
            assert matmul(a, transpose([list(row)])) == [[0]] * m
        assert len(lk) == m - rank_int(a)
        assert len(rk) == n - rank_int(a)


def test_solve_int_roundtrip(rng):
    # square and non-square, possibly singular systems with a solution
    for _ in range(80):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        x = [rng.randint(-3, 3) for _ in range(n)]
        b = [sum(a[i][j] * x[j] for j in range(n)) for i in range(m)]
        got = solve_int(a, b)
        assert got is not None
        assert [sum(a[i][j] * got[j] for j in range(n)) for i in range(m)] == b
    # no integer solution, and no solution at all
    assert solve_int([[2, 4]], [3]) is None
    assert solve_int([[1, 1], [1, 1]], [1, 2]) is None


def test_invert_unimodular(rng):
    for _ in range(40):
        n = rng.randint(1, 5)
        u = random_unimodular(rng, n)
        assert matmul(u, invert_unimodular(u)) == [
            [1 if i == j else 0 for j in range(n)] for i in range(n)
        ]


def test_charpoly_known_values():
    assert charpoly([[2]]) == [-2, 1]
    # companion of x^2 - x - 1
    assert charpoly([[0, 1], [1, 1]]) == [-1, -1, 1]
    assert charpoly([[1, 0], [0, 1]]) == [1, -2, 1]


def test_charpoly_determinant_consistency(rng):
    # constant term is (-1)^n det
    for _ in range(40):
        n = rng.randint(1, 4)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        p = charpoly(a)
        assert p[0] == (-1) ** n * det_int(a)


# ------------------------------------------------------------ signatures


def test_signature_known_lattices():
    assert signature(hyperbolic_plane()) == Signature(1, 1, 0)
    assert signature(diagonal_lattice([1, -1])) == Signature(1, 1, 0)
    assert signature(diagonal_lattice([2, 3])) == Signature(2, 0, 0)
    assert signature(gram_lattice([[0] * 3] * 3)) == Signature(0, 0, 3)
    assert signature(
        direct_sum(hyperbolic_plane(), diagonal_lattice([-2]))
    ) == Signature(1, 2, 0)


def test_signature_is_worked_out_once_per_lattice(monkeypatch):
    import cuspcheck.lattice as lattice_mod

    calls = []
    real = lattice_mod.inertia
    monkeypatch.setattr(lattice_mod, "inertia", lambda a: calls.append(a) or real(a))
    lat = direct_sum(hyperbolic_plane(), diagonal_lattice([-2]))
    sub = orthogonal_complement(lat, [])
    for _ in range(3):
        assert signature(lat) == lat.signature == Signature(1, 2, 0)
        assert signature(sub.as_lattice()) == Signature(1, 2, 0)
    assert sub.as_lattice() is sub.as_lattice()
    assert len(calls) == 2


def test_signature_of_boundary_cycle():
    # cycle of seven (-2)s: tridiagonal-with-corners, independently checkable
    # by diagonalizing over Q (done once by hand: eigenvalue 0 once, rest < 0)
    n = 7
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = -2
        g[i][(i + 1) % n] = 1
        g[(i + 1) % n][i] = 1
    assert signature(gram_lattice(g)) == Signature(0, 6, 1)
    assert definiteness(gram_lattice(g)) == "negative_semidefinite_degenerate"
    assert gram_lattice(g).radical == ((1, 1, 1, 1, 1, 1, 1),)


def test_radical_spans_the_gram_kernel(rng):
    # degenerate cases by construction: a random k x k block padded with
    # n - k zero rows and columns, on a scrambled basis
    for _ in range(200):
        n = rng.randint(1, 6)
        k = rng.randint(0, n)
        block = random_symmetric(rng, k)
        g = [[block[i][j] if i < k and j < k else 0 for j in range(n)] for i in range(n)]
        lat = gram_lattice(congruence_transform(g, random_unimodular(rng, n)))
        rad = [list(r) for r in lat.radical]
        assert len(rad) == lat.signature.null >= n - k
        assert all(lat.pairing_row(r) == [0] * n for r in rad)
        assert rank_int(rad) == len(rad)
        assert is_saturated(rad, n)
        assert lat.radical is lat.radical


def test_signature_congruence_invariance(rng):
    # acceptance suite property: 200 cases, rank <= 6
    for _ in range(200):
        n = rng.randint(1, 6)
        g = random_symmetric(rng, n)
        u = random_unimodular(rng, n)
        assert signature(gram_lattice(g)) == signature(
            gram_lattice(congruence_transform(g, u))
        )


def test_signature_counts_sum_to_rank(rng):
    for _ in range(100):
        n = rng.randint(1, 6)
        sig = signature(gram_lattice(random_symmetric(rng, n)))
        assert sig.positive + sig.negative + sig.null == n


# ------------------------------------------------------------ sublattices


def test_orthogonal_complement_is_saturated_and_orthogonal(rng):
    # acceptance suite property: 200 cases
    for _ in range(200):
        n = rng.randint(1, 6)
        lat = gram_lattice(random_symmetric(rng, n))
        k = rng.randint(0, n)
        vecs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        sub = orthogonal_complement(lat, vecs)
        rows = [list(b) for b in sub.basis]
        if rows:
            assert is_saturated(rows, n)
        for b in sub.basis:
            for v in vecs:
                assert lat.pair(b, v) == 0


def test_orthogonal_complement_maximality(rng):
    # nothing outside the complement is orthogonal to the input vectors
    for _ in range(60):
        n = rng.randint(1, 5)
        lat = gram_lattice(random_symmetric(rng, n))
        vecs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n))]
        sub = orthogonal_complement(lat, vecs)
        pairing_rows = [[lat.pair(v, e) for e in _unit_vectors(n)] for v in vecs]
        assert sub.rank == n - rank_int(pairing_rows)


def _unit_vectors(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _assert_agrees_with_the_kernel_oracle(rng, sub, oracle):
    """``sub`` against the kernel oracle: the same basis and fields, the same
    coordinates on the basis and on seeded members, and the same membership
    on those pushed along one coordinate."""
    assert_same_sublattice(oracle, sub)
    n = sub.ambient.rank
    for _ in range(3):
        member = combination([rng.randint(-3, 3) for _ in sub.basis], sub.basis) if sub.basis else [0] * n
        assert sub.coords_of(member) == oracle.coords_of(member)
        pushed = list(member)
        pushed[rng.randrange(n)] += rng.choice((-2, -1, 1, 2))
        assert sub.contains(pushed) == oracle.contains(pushed), (sub.basis, pushed)


def test_unit_column_complement_matches_the_kernel_on_the_census_chains(rng, monkeypatch):
    # every census chain at every prefix of its seeded blow-up order, its S~,
    # and the paper's Y, S~ and Y2: a blown-up surface's pairing rows end in
    # its exceptional columns, and its complement must be the kernel's
    surfaces = []
    for n in range(3, 9):
        for seq in fan_seeds(n):
            order = [i + 1 for i, a in enumerate(seq) for _ in range(a + 2)]
            rng.shuffle(order)
            y = toric_from_sequence(seq)
            surfaces.append(y)
            for comp in order:
                surfaces.append(y := interior_blowup(y, comp))
            surfaces.append(interior_blowup(y, y.history[-1][0]))
    paper = _Chain(make_config(), SEED_SEQUENCE, BLOWUP_COMPONENTS)
    surfaces += [paper.y, paper.s_tilde, paper.y2[0]]
    taken = unit_column_complements(monkeypatch)
    for s in surfaces:
        sub = orthogonal_complement(s.picard, s.boundary)
        _assert_agrees_with_the_kernel_oracle(rng, sub, kernel_complement(s.picard, s.boundary))
    # every surface but the 91 toric seeds took the formula
    assert len(taken) == len(surfaces) - 91


def test_unit_column_complement_matches_the_kernel_on_seeded_matrices(rng, monkeypatch):
    # on the identity Gram the pairing rows are the vectors themselves; the
    # formula is exact from any f on which the columns are units, not only
    # from the longest such run that orthogonal_complement hands it
    taken = unit_column_complements(monkeypatch)
    kinds = Counter()
    for _ in range(400):
        rows, f = unit_column_rows(rng)
        n = len(rows[0])
        lat = diagonal_lattice([1] * n)
        oracle = kernel_complement(lat, rows)
        _assert_agrees_with_the_kernel_oracle(rng, orthogonal_complement(lat, rows), oracle)
        _assert_agrees_with_the_kernel_oracle(
            rng, cuspcheck.lattice._unit_column_complement(lat, rows, f), oracle
        )
        units = [sum(row[f:]) for row in rows]
        kinds["zero row"] += not all(map(any, rows))
        kinds["several units"] += max(units) > 1
        kinds["units in every row"] += min(units) > 0
        kinds["empty leading block"] += f == 0
        kinds["leading unit column"] += any(cuspcheck.lattice._is_unit_column(rows, c) for c in range(f))
    assert len(taken) == 800 and min(kinds.values()) > 20, kinds


def test_sublattice_rejects_unsaturated_basis():
    # a span of index 2 in its saturation has no free quotient:
    # Z^2 / <(1, 1), (1, -1)> is Z/2
    lat = diagonal_lattice([1, 1])
    for rows in ([[2, 0]], [[1, 1], [1, -1]]):
        with pytest.raises(InputError, match="basis does not span a saturated sublattice"):
            sublattice_from_rows(lat, rows)


def test_sublattice_coords_roundtrip(seed_complement):
    for coords in ((1, 0, 0), (0, 1, 0), (2, -1, 3)):
        v = seed_complement.embed(coords)
        assert seed_complement.coords_of(v) == coords
    assert not seed_complement.contains((1, 0, 0, 0, 0, 0, 0, 0, 0, 0))


def _agrees_with_reembedding(sub, v) -> bool:
    """``coords_of`` and ``contains`` against the re-embedding oracle on v:
    the same coordinates, or the same error text; returns membership."""
    member = reembedded_contains(sub, v)
    assert sub.contains(v) == member, (sub.basis, v)
    try:
        want = reembedded_coords(sub, v)
    except InputError as err:
        with pytest.raises(InputError) as got:
            sub.coords_of(v)
        assert str(got.value) == str(err), (sub.basis, v)
    else:
        assert sub.coords_of(v) == want, (sub.basis, v)
    return member


def _probe_vectors(rng, sub, count=3):
    """Members (basis combinations), the same pushed along one coordinate,
    random vectors, and one vector of the wrong length."""
    n, rows = sub.ambient.rank, sub.basis
    out = [[0] * n, [0] * (n + 1)]
    for _ in range(count):
        member = combination([rng.randint(-3, 3) for _ in rows], rows) if rows else [0] * n
        pushed = list(member)
        pushed[rng.randrange(n)] += rng.choice((-2, -1, 1, 2))
        out += [member, pushed, [rng.randint(-3, 3) for _ in range(n)]]
    return out


def test_sublattice_membership_matches_reembedding_at_rank_zero_and_full(rng):
    # k = 0: only the zero vector is a member; k = n: every vector of the
    # right length is, whatever the basis
    for n in range(1, 9):
        lat = gram_lattice(random_symmetric(rng, n))
        empty = Sublattice(lat, ())
        for v in _probe_vectors(rng, empty) + [[-2] + [0] * (n - 1)]:
            assert _agrees_with_reembedding(empty, v) == (len(v) == n and not any(v))
        assert empty.coords_of([0] * n) == ()
        unimodular = Sublattice(lat, tuple(map(tuple, random_unimodular(rng, n))))
        for full in (orthogonal_complement(lat, []), unimodular):
            for v in _probe_vectors(rng, full):
                assert _agrees_with_reembedding(full, v) == (len(v) == n)


def test_sublattice_membership_matches_reembedding_on_random_sublattices(rng):
    # the first k rows of a unimodular matrix span a saturated sublattice
    members = others = 0
    for n in range(1, 9):
        lat = gram_lattice(random_symmetric(rng, n))
        for _ in range(25):
            basis = random_unimodular(rng, n)[: rng.randint(0, n)]
            sub = Sublattice(lat, tuple(map(tuple, basis)))
            for v in _probe_vectors(rng, sub):
                if _agrees_with_reembedding(sub, v):
                    members += 1
                else:
                    others += 1
    assert members > 500 and others > 500, (members, others)


def _checked_complement(lattice, rows):
    """``saturated_complement``, once the Hermite form of a ``Sublattice``,
    which the chain skips, has checked that the rows are saturated."""
    sublattice_from_rows(lattice, rows)
    return saturated_complement(lattice, rows)


def test_sublattice_membership_matches_reembedding_on_the_census_chain(rng, monkeypatch):
    # every sublattice the criterion chain builds on the 91 toric seeds, the
    # complements read off unit columns among them, and every span it takes
    # as saturated by construction, with every vector the chain converts or
    # tests and seeded probes of each
    built, asked = [], []
    real_init = Sublattice.__post_init__
    monkeypatch.setattr(Sublattice, "__post_init__", lambda self: real_init(self) or built.append(self))
    formula = unit_column_complements(monkeypatch)
    for module in (cuspcheck.enumeration, cuspcheck.fibration):
        monkeypatch.setattr(module, "saturated_complement", _checked_complement)
    for name in ("coords_of", "contains"):
        real = getattr(Sublattice, name)
        monkeypatch.setattr(
            Sublattice, name, lambda self, v, real=real: asked.append((self, v)) or real(self, v)
        )
    for n in range(3, 9):
        for seq in fan_seeds(n):
            order = [i + 1 for i, a in enumerate(seq) for _ in range(a + 2)]
            rng.shuffle(order)
            chain = _Chain(make_config(), seq, order)
            run_criterion(chain.s_tilde, chain.phi, 30)
            chain.translations
    monkeypatch.undo()
    built += formula
    assert len(built) > 500 and len(asked) > 1000, (len(built), len(asked))
    for sub, v in asked:
        _agrees_with_reembedding(sub, v)
    members = sum(_agrees_with_reembedding(sub, v) for sub in built for v in _probe_vectors(rng, sub, 1))
    assert 2 * len(built) < members < 4 * len(built), (members, len(built))


def test_quotient_presentation_rejects_unsaturated_relations():
    # Z^2 / <(2, 0)> has torsion, so neither the oracle nor Sublattice,
    # which now presents the quotient, gives it a projection and section
    with pytest.raises(InputError, match="quotient relations must span a saturated sublattice"):
        quotient_presentation(2, [[2, 0]])
    with pytest.raises(InputError, match="basis does not span a saturated sublattice"):
        sublattice_from_rows(diagonal_lattice([1, 1]), [[2, 0]])


def _seeded_basis(rng, n):
    """A basis of one of five kinds: saturated (k = 0 and k = n included),
    independent but unsaturated, or dependent (a repeated combination, or
    n + 1 rows)."""
    kind = rng.choice(("saturated", "empty", "full", "unsaturated", "dependent", "too_many"))
    u = random_unimodular(rng, n)
    if kind == "empty":
        return kind, []
    if kind == "full":
        return kind, u
    if kind == "too_many":
        return kind, u + [[rng.randint(-3, 3) for _ in range(n)]]
    rows = u[: rng.randint(1, n)]
    if kind == "unsaturated":
        i = rng.randrange(len(rows))
        rows[i] = [rng.choice((2, 3, -2)) * x for x in rows[i]]
    elif kind == "dependent":
        coeffs = [rng.randint(-2, 2) for _ in rows]
        rows.insert(rng.randint(0, len(rows)), combination(coeffs, rows))
    return kind, rows


def test_hermite_sublattice_matches_the_smith_construction(rng):
    # one Hermite form of the basis columns refuses what the former Smith
    # construction refused, with the same type and message, and gives the
    # same membership and coordinates on members and non-members
    kinds = set()
    for n in range(1, 8):
        lat = gram_lattice(random_symmetric(rng, n))
        for _ in range(25):
            kind, basis = _seeded_basis(rng, n)
            try:
                coord_rows, quotient_rows = smith_sublattice_rows(lat, basis)
            except InputError as exc:
                with pytest.raises(InputError) as info:
                    sublattice_from_rows(lat, basis)
                assert str(info.value) == str(exc), (kind, basis)
                kinds.add((kind, str(exc)))
                continue
            sub = sublattice_from_rows(lat, basis)
            kinds.add((kind, None))
            members = [sub.embed([rng.randint(-4, 4) for _ in basis]) for _ in range(4)]
            others = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(4)]
            for v in members + others + _unit_vectors(n):
                inside = not any(matvec(quotient_rows, v))
                assert sub.contains(v) == inside, (basis, v)
                if inside:
                    assert sub.coords_of(v) == tuple(matvec(coord_rows, v)), (basis, v)
                else:
                    with pytest.raises(InputError, match="^vector does not lie in the sublattice$"):
                        sub.coords_of(v)
    dependent = "sublattice basis rows are linearly dependent"
    unsaturated = "sublattice basis does not span a saturated sublattice"
    assert {("empty", None), ("full", None), ("saturated", None)} <= kinds
    assert {("dependent", dependent), ("too_many", dependent), ("unsaturated", unsaturated)} <= kinds


def test_sublattice_project_complement_section_identity(rng):
    for _ in range(60):
        n = rng.randint(2, 5)
        k = rng.randint(1, n - 1)
        rel = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        sat_rel = saturation(rel, n)
        if not sat_rel:
            continue
        sub = sublattice_from_rows(gram_lattice(random_symmetric(rng, n)), sat_rel)
        section = saturated_complement(sub.ambient, sub.basis)
        q = len(section)
        assert q == n - len(sat_rel)
        # projection kills the relations
        for r in sat_rel:
            assert sublattice_project(sub, r) == (0,) * q
        # projection . section = identity on the quotient
        assert [list(sublattice_project(sub, c)) for c in section] == [
            [1 if i == j else 0 for j in range(q)] for i in range(q)
        ]
        # every vector is a relation plus the lift of its projection
        v = [rng.randint(-5, 5) for _ in range(n)]
        lift = combination(sublattice_project(sub, v), section)
        assert sub.contains([a - b for a, b in zip(v, lift)])


def test_sublattice_quotient_matches_the_quotient_presentation_oracle(rng):
    # random saturated spans, k = 0 and k = n included: the projection and
    # complement read off a Smith form of the basis columns equal the former
    # quotient presentation's projection and section entry by entry
    for n in range(1, 8):
        lat = gram_lattice(random_symmetric(rng, n))
        for _ in range(20):
            if rng.random() < 0.5:
                basis = random_unimodular(rng, n)[: rng.randint(0, n)]
            else:
                rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))]
                basis = saturation(rows, n)
            sub = sublattice_from_rows(lat, basis)
            projection, section = quotient_presentation(n, basis)
            for v in _unit_vectors(n) + [[rng.randint(-4, 4) for _ in range(n)] for _ in range(3)]:
                assert list(sublattice_project(sub, v)) == matvec(projection, v), (basis, v)
            complement = saturated_complement(sub.ambient, sub.basis)
            assert [list(c) for c in complement] == transpose(section), basis
