"""Short-vector enumeration against independent brute-force oracles."""

import functools

import pytest

from helpers import (
    box_square_vectors,
    congruence_transform,
    factored_square_vectors,
    fan_seeds,
    fraction_definite_vectors,
    negative_definite_from_factor,
    random_nonsingular,
    random_unimodular,
)

from cuspcheck import enumeration
from cuspcheck.enumeration import EnumerationResult, canonical_root, vectors_of_square
from cuspcheck.errors import InputError
from cuspcheck.fibration import analyze_fibration
from cuspcheck.lattice import diagonal_lattice, gram_lattice, hyperbolic_plane, signature
from cuspcheck.period import solve_period
from cuspcheck.surface import boundary_complement, interior_blowup, toric_from_sequence


def test_rank_one_root_lattice():
    res = vectors_of_square(gram_lattice([[-2]]), -2)
    assert res.complete
    assert res.representatives == ((-1,), (1,))


def test_a2_style_counts():
    a2 = gram_lattice([[-2, 1], [1, -2]])
    assert len(vectors_of_square(a2, -2).representatives) == 6
    assert len(vectors_of_square(a2, -4).representatives) == 0
    assert len(vectors_of_square(a2, -6).representatives) == 6


def test_rejects_indefinite_and_nonnegative_targets():
    with pytest.raises(InputError):
        vectors_of_square(hyperbolic_plane(), -2)
    with pytest.raises(InputError):
        vectors_of_square(gram_lattice([[-2]]), 2)
    with pytest.raises(InputError):
        vectors_of_square(gram_lattice([[2]]), -2)


def test_zero_lattice_has_radical_only():
    res = vectors_of_square(gram_lattice([[0, 0], [0, 0]]), -2)
    assert res.representatives == ()
    assert len(res.radical) == 2
    # rank 0: no radical and no vectors, through the same walk
    assert vectors_of_square(gram_lattice([]), -2) == EnumerationResult((), ())


def test_definite_enumeration_against_factored_oracle(rng):
    # acceptance suite property: 50 definite lattices of rank <= 4
    for _ in range(50):
        n = rng.randint(1, 4)
        b = random_nonsingular(rng, n)
        gram = negative_definite_from_factor(b)
        s = -2 * rng.randint(1, 4)
        got = sorted(vectors_of_square(gram_lattice(gram), s).representatives)
        want = factored_square_vectors(b, s)
        assert got == want


def test_definite_enumeration_against_box_oracle():
    # small diagonal cases where a safe box bound is immediate:
    # |s| >= min|d_i| v_i^2 for each i, so |v_i| <= sqrt(|s|/min|d|)
    for diag, s in [([-2, -4], -8), ([-2, -2, -2], -6), ([-6], -24)]:
        lat = diagonal_lattice(diag)
        box = int(abs(s) ** 0.5) + 1
        got = sorted(vectors_of_square(lat, s).representatives)
        assert got == box_square_vectors([list(r) for r in lat.gram], s, box)


def _is_radical_multiple(diff, rad):
    nz = [(d, r) for d, r in zip(diff, rad) if r != 0]
    if not nz:
        return all(d == 0 for d in diff)
    d0, r0 = nz[0]
    if d0 % r0 != 0:
        return False
    k = d0 // r0
    return all(d == k * r for d, r in zip(diff, rad))


def test_degenerate_enumeration_covers_all_cosets(seed_complement, seed_roots):
    # every actual square -2 vector in a box must land in rep + Z*radical
    lam = seed_complement.as_lattice()
    gram = [list(r) for r in lam.gram]
    rad = seed_roots.radical[0]
    reps = seed_roots.representatives
    found = box_square_vectors(gram, -2, 4)
    assert found  # the box really contains roots
    for v in found:
        diffs = ([x - y for x, y in zip(v, rep)] for rep in reps)
        assert any(_is_radical_multiple(d, rad) for d in diffs), v


def _scrambled_definite(rng, n):
    """-B^T B for a random nonsingular B, on a basis moved by a unimodular."""
    gram = negative_definite_from_factor(random_nonsingular(rng, n))
    return congruence_transform(gram, random_unimodular(rng, n, steps=3))


def test_integer_walk_matches_the_fraction_walk(rng):
    # the rational-Cholesky walk the integer LDL^T walk replaced is the oracle
    found = set()
    for _ in range(500):
        n = rng.randint(1, 8)
        gram = _scrambled_definite(rng, n)
        s = -rng.randint(1, 12)
        got = vectors_of_square(gram_lattice(gram), s)
        assert got.complete
        assert list(got.representatives) == fraction_definite_vectors(gram, s)
        if got.representatives:
            found.add(s % 2)
    assert found == {0, 1}


def _scrambled_semidefinite(rng):
    """A definite block of rank 1-5 plus a radical of rank 1-2, on a
    scrambled basis."""
    k, r = rng.randint(1, 5), rng.randint(1, 2)
    block = _scrambled_definite(rng, k)
    gram = [row + [0] * r for row in block] + [[0] * (k + r) for _ in range(r)]
    lat = gram_lattice(congruence_transform(gram, random_unimodular(rng, k + r, steps=6)))
    assert tuple(signature(lat)) == (0, k, r)
    return lat


def test_semidefinite_enumeration_matches_the_fraction_walk(rng, monkeypatch):
    # the same quotient enumerated by the oracle walk must give the same
    # cosets; the oracle runs on fresh lattices, which keep no result yet
    cases = [(_scrambled_semidefinite(rng), -rng.randint(1, 12)) for _ in range(100)]
    got = [vectors_of_square(lat, s) for lat, s in cases]
    monkeypatch.setattr(enumeration, "_definite_vectors", fraction_definite_vectors)
    want = [vectors_of_square(gram_lattice(lat.gram), s) for lat, s in cases]
    assert got == want
    assert sum(bool(res.representatives) for res in got) >= 20


def test_e6_complement_counts_at_large_squares():
    # the rank-7 complement of test_period.test_e6_complement_needs_the_coxeter_number;
    # the counts are those of the E6 root lattice at norms 2, 8, 20 and 26
    y = toric_from_sequence((1, 1, 1))
    for comp in (1, 1, 1, 2, 2, 2, 3, 3, 3):
        y = interior_blowup(y, comp)
    lam = boundary_complement(y).sublattice.as_lattice()
    counts = [len(vectors_of_square(lam, s).representatives) for s in (-2, -8, -20, -26)]
    assert counts == [72, 936, 5184, 12240]


def _census_surfaces(rng):
    """Every census seed (cycle length 3-8) with component i blown up
    a_i + 2 times, in a seeded order."""
    for n in range(3, 9):
        for seq in fan_seeds(n):
            order = [i + 1 for i, a in enumerate(seq) for _ in range(a + 2)]
            rng.shuffle(order)
            yield functools.reduce(interior_blowup, order, toric_from_sequence(seq))


def test_each_lattice_keeps_its_enumerations(rng):
    # every census complement at squares -2 and -4, and seeded negative
    # definite and semidefinite lattices: a second call returns the kept
    # object, which a fresh lattice of the same Gram enumerates anew
    cases = [
        (boundary_complement(y).sublattice.as_lattice(), s)
        for y in _census_surfaces(rng)
        for s in (-2, -4)
    ]
    for _ in range(40):
        cases.append((gram_lattice(_scrambled_definite(rng, rng.randint(1, 6))), -rng.randint(1, 8)))
        cases.append((_scrambled_semidefinite(rng), -rng.randint(1, 8)))
    assert len(cases) == 2 * 91 + 80
    for lat, s in cases:
        first = vectors_of_square(lat, s)
        assert vectors_of_square(lat, s) is first
        assert vectors_of_square(gram_lattice(lat.gram), s) == first


def test_a_refusal_is_not_kept(rng, monkeypatch):
    # indefinite and positive (semi)definite lattices, among them the census
    # Picard lattices, raise on every call; so does a nonnegative target on a
    # lattice that keeps another square's result
    refused = [hyperbolic_plane(), gram_lattice([[2]]), gram_lattice([[2, 0], [0, 0]])]
    refused += [y.picard for y in _census_surfaces(rng)]
    for _ in range(20):
        refused.append(gram_lattice([[-x for x in row] for row in _scrambled_definite(rng, 3)]))
    for lat in refused:
        for _ in range(3):
            with pytest.raises(InputError):
                vectors_of_square(lat, -2)
    a2 = gram_lattice([[-2, 1], [1, -2]])
    assert len(vectors_of_square(a2, -2).representatives) == 6
    for _ in range(3):
        with pytest.raises(InputError, match="negative target square"):
            vectors_of_square(a2, 2)
    # a walk past the node budget is refused on every call, and keeps
    # nothing, while a square within it is enumerated and kept
    monkeypatch.setattr(enumeration, "NODE_BUDGET", 100)
    z4 = diagonal_lattice([-1] * 4)
    assert len(vectors_of_square(z4, -1).representatives) == 8
    for _ in range(3):
        with pytest.raises(InputError, match="square -30 stopped after 100 nodes"):
            vectors_of_square(z4, -30)
    assert list(z4._vectors) == [-1]


def test_a_survey_shaped_chain_enumerates_once(rng, monkeypatch):
    # each census surface: its complement's roots by vectors_of_square, a
    # period, then analyze_fibration, which reads the complement's roots
    # and so the same kept result; 52 seeds (every one of n <= 6) are
    # refused past that read, on a root system of more than one +/- pair
    calls = []
    real = enumeration._definite_vectors
    monkeypatch.setattr(enumeration, "_definite_vectors", lambda g, s: calls.append(s) or real(g, s))
    refused = 0
    for y in _census_surfaces(rng):
        calls.clear()
        lam = boundary_complement(y).sublattice
        roots = vectors_of_square(lam.as_lattice(), -2)
        constraints = [(y.boundary_sum(), "zero")]
        if roots.representatives:
            constraints.append((lam.embed(canonical_root(roots)), "nonzero"))
        try:
            analyze_fibration(y, solve_period(lam, constraints))
        except InputError:
            refused += 1
        assert boundary_complement(y).roots is roots
        assert calls == [-2]
    assert refused == 52
