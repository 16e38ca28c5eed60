"""Period points: the solver against an exhaustive oracle, genericity, bounds."""

import contextlib
import itertools
import sys

import pytest

from cuspcheck import intcore, intlinalg, period
from cuspcheck.enumeration import vectors_of_square
from cuspcheck.errors import InputError
from cuspcheck.intcore import sign_normalized
from cuspcheck.lattice import Sublattice, diagonal_lattice, gram_lattice, orthogonal_complement
from cuspcheck.period import (
    PeriodPoint,
    extend_over_blowup,
    is_generic,
    solve_period,
)
from cuspcheck.pipeline import BLOWUP_COMPONENTS, SEED_SEQUENCE, _Chain, make_config
from cuspcheck.surface import boundary_complement, interior_blowup, toric_from_sequence

from helpers import (
    both_sign_kostant_floor,
    fan_seeds,
    first_period_values,
    pruned_first_point,
    random_unimodular,
    short_cycle_surface,
)


def _exhaustive_feasible(domain, constraints, m):
    """Does any homomorphism to Z/m satisfy the constraints?  Brute force.

    The domain is free, so a homomorphism is exactly a value tuple on the
    basis; feasibility is checked by evaluating every constraint on every
    one of the m^rank candidates.
    """
    coord_constraints = [
        (domain.coords_of(vec), kind) for vec, kind in constraints
    ]
    for values in itertools.product(range(m), repeat=domain.rank):
        ok = True
        for coords, kind in coord_constraints:
            val = sum(c * v for c, v in zip(coords, values)) % m
            if (kind == "zero") != (val == 0):
                ok = False
                break
        if ok:
            return True
    return False


def test_solver_agrees_with_exhaustive_oracle(seed_surface, seed_complement, seed_roots):
    # the acceptance gate's modulus-minimality check, in full
    dsum = seed_surface.boundary_sum()
    beta = seed_complement.embed(seed_roots.representatives[0])
    constraints = [(dsum, "zero"), (beta, "nonzero")]
    phi = solve_period(seed_complement, constraints)
    feasible = [
        m
        for m in range(1, 9)
        if _exhaustive_feasible(seed_complement, constraints, m)
    ]
    assert feasible, "oracle found no feasible modulus at all"
    assert phi.modulus == feasible[0]
    assert phi.evaluate(dsum) == 0
    assert phi.evaluate(beta) != 0


def test_solver_minimality_on_harder_constraints(seed_surface, seed_complement, seed_roots):
    # forcing the root value to vanish too pushes the modulus higher;
    # solver and oracle must still agree on the smallest choice
    dsum = seed_surface.boundary_sum()
    beta = seed_complement.embed(seed_roots.representatives[0])
    other = seed_complement.embed((1, 0, 0))
    constraints = [(dsum, "zero"), (beta, "zero"), (other, "nonzero")]
    phi = solve_period(seed_complement, constraints)
    feasible = [
        m
        for m in range(1, 13)
        if _exhaustive_feasible(seed_complement, constraints, m)
    ]
    assert phi.modulus == feasible[0]
    assert phi.evaluate(beta) == 0
    assert phi.evaluate(other) != 0


def test_solver_respects_fixed_modulus(seed_surface, seed_complement, seed_roots):
    dsum = seed_surface.boundary_sum()
    beta = seed_complement.embed(seed_roots.representatives[0])
    phi = solve_period(
        seed_complement, [(dsum, "zero"), (beta, "nonzero")], modulus=4
    )
    assert phi.modulus == 4
    assert phi.evaluate(dsum) % 4 == 0
    assert phi.evaluate(beta) % 4 != 0


def test_solver_converts_one_vector_of_each_sign_pair(
    seed_surface, seed_complement, seed_roots, monkeypatch
):
    # w and -w vanish together, so a request listing both (as the generic
    # request does, root by root) converts one of each pair to coordinates,
    # and solves to the period of the request without the repeats
    dsum = seed_surface.boundary_sum()
    extra = seed_complement.embed((0, 1, 0))
    both = [seed_complement.embed(r) for r in seed_roots.representatives]
    both += [extra, tuple(-x for x in extra)]
    assert both[1] == tuple(-x for x in both[0])
    once = solve_period(seed_complement, [(dsum, "zero"), (both[0], "nonzero"), (extra, "nonzero")])
    calls = []
    real = Sublattice.coords_of
    monkeypatch.setattr(Sublattice, "coords_of", lambda sub, v: calls.append(v) or real(sub, v))
    phi = solve_period(seed_complement, [(dsum, "zero")] + [(v, "nonzero") for v in both])
    assert calls == [dsum, both[0], extra]
    assert phi == once


def test_solver_errors_are_specific(seed_surface, seed_complement):
    dsum = seed_surface.boundary_sum()
    with pytest.raises(InputError, match="no feasible modulus <= 1"):
        solve_period(
            seed_complement,
            [(dsum, "zero"), (seed_complement.embed((0, 1, 1)), "nonzero")],
            modulus_bound=1,
        )
    with pytest.raises(InputError, match="modulus 1 admits no nonzero constraints"):
        solve_period(
            seed_complement,
            [(seed_complement.embed((0, 1, 1)), "nonzero")],
            modulus=1,
        )
    for m in (0, -3):
        with pytest.raises(InputError, match="modulus must be >= 1"):
            solve_period(seed_complement, [(dsum, "zero")], modulus=m)
    # same vector required both zero and nonzero: no modulus works
    v = seed_complement.embed((1, 1, 0))
    with pytest.raises(InputError):
        solve_period(
            seed_complement, [(v, "zero"), (v, "nonzero")], modulus=6
        )


def test_period_point_validation(seed_complement):
    with pytest.raises(InputError):
        PeriodPoint(seed_complement, 0, (0, 0, 0))
    with pytest.raises(InputError):
        PeriodPoint(seed_complement, 2, (0, 1))
    with pytest.raises(InputError):
        PeriodPoint(seed_complement, 2, (0, 1, 2))


def test_genericity_against_coset_scan(seed_complement, seed_roots):
    # killed coset <=> some k has value(rep) + k*value(radical) = 0 mod m
    rad = seed_roots.radical[0]
    for m in (2, 3, 4):
        for values in itertools.product(range(m), repeat=3):
            phi = PeriodPoint(seed_complement, m, values)
            rad_val = phi.evaluate_coords(rad)
            killed = False
            for rep in seed_roots.representatives:
                rep_val = phi.evaluate_coords(rep)
                if any((rep_val + k * rad_val) % m == 0 for k in range(m)):
                    killed = True
                    break
            assert is_generic(phi, seed_roots) == (not killed), (m, values)


def test_generic_and_trivial_branches(generic_phi, trivial_phi, seed_roots):
    assert is_generic(generic_phi, seed_roots)
    assert not is_generic(trivial_phi, seed_roots)
    assert generic_phi.modulus == 2


def test_extend_over_blowup_fixes_reference_and_kills_difference(
    seed_surface, seed_complement, generic_phi
):
    from cuspcheck.surface import boundary_complement

    tilde = interior_blowup(seed_surface, 6)
    lam_tilde = boundary_complement(tilde).sublattice
    zero_section = seed_surface.history[-1][1]
    ext = extend_over_blowup(generic_phi, lam_tilde, zero_section)
    # classes that already lived downstairs keep their values
    checked = 0
    for coords in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        v = seed_complement.embed(coords)
        v_up = tuple(v) + (0,)
        if lam_tilde.contains(v_up):
            assert ext.evaluate(v_up) == generic_phi.evaluate(v)
            checked += 1
    assert checked == 3


def _solve_or_message(domain, constraints, **kwargs):
    try:
        phi = solve_period(domain, constraints, **kwargs)
    except InputError as exc:
        return str(exc)
    return phi.modulus, phi.values


def _walked(domain, constraints, modulus, modulus_bound):
    """What ``solve_period`` answers, found by walking every candidate."""
    zero = [list(domain.coords_of(v)) for v, kind in constraints if kind == "zero"]
    nonzero = [list(domain.coords_of(v)) for v, kind in constraints if kind == "nonzero"]
    if modulus != "search":
        if modulus == 1 and nonzero:
            return "modulus 1 admits no nonzero constraints"
        values = first_period_values(domain.rank, zero, nonzero, modulus)
        if values is None:
            return f"no homomorphism satisfies the constraints at modulus {modulus}"
        return modulus, values
    for m in range(2 if nonzero else 1, modulus_bound + 1):
        values = first_period_values(domain.rank, zero, nonzero, m)
        if values is not None:
            return m, values
    return f"no feasible modulus <= {modulus_bound}"


def test_pruned_search_matches_the_exhaustive_walk(rng):
    # random domains of rank 1-6 on a scrambled basis, mixed constraints;
    # the pruned search must return the walk's first point, or its message
    for _ in range(600):
        n = rng.randint(1, 6)
        domain = Sublattice(
            diagonal_lattice([1] * n),
            tuple(tuple(r) for r in random_unimodular(rng, n, steps=6)),
        )
        constraints = [
            ([rng.randint(-4, 4) for _ in range(n)], rng.choice(("zero", "nonzero")))
            for _ in range(rng.randint(0, 5))
        ]
        bound = 8 if n <= 4 else 4
        modulus = rng.choice(["search", rng.randint(1, bound)])
        assert _solve_or_message(
            domain, constraints, modulus=modulus, modulus_bound=bound
        ) == _walked(domain, constraints, modulus, bound), (n, constraints, modulus)


def test_functional_vanishing_on_the_zero_subgroup_is_infeasible_at_once():
    # 3 x_1 = 0 kills x_1 mod every m prime to 3, so "x_1 nonzero" is
    # infeasible there with no search at all, even with 64^9 other values;
    # the search moves on and stops at m = 3
    n = 10
    domain = orthogonal_complement(diagonal_lattice([1] * n), [])
    first = (1,) + (0,) * (n - 1)
    last = (0,) * (n - 1) + (1,)
    constraints = [((3,) + (0,) * (n - 1), "zero"), (first, "nonzero"), (last, "nonzero")]
    for m in (2, 64):
        with pytest.raises(InputError, match=f"satisfies the constraints at modulus {m}$"):
            solve_period(domain, constraints, modulus=m)
    phi = solve_period(domain, constraints)
    assert (phi.modulus, phi.values) == (3, first[:-1] + (1,))


def test_e6_complement_needs_the_coxeter_number():
    # P^2 with three lines, each blown up three times: a cycle of three
    # (-2)-curves whose rank-7 complement carries the 72 roots of E6
    y = toric_from_sequence((1, 1, 1))
    for comp in (1, 1, 1, 2, 2, 2, 3, 3, 3):
        y = interior_blowup(y, comp)
    lam = boundary_complement(y).sublattice
    roots = vectors_of_square(lam.as_lattice(), -2).representatives
    assert lam.rank == 7 and len(roots) == 72
    constraints = [(y.boundary_sum(), "zero")] + [(lam.embed(r), "nonzero") for r in roots]
    with pytest.raises(InputError, match="no feasible modulus <= 8"):
        solve_period(lam, constraints, modulus_bound=8)
    phi = solve_period(lam, constraints, modulus_bound=12)
    assert phi.modulus == 12
    assert phi.values == (1, 3, 2, 2, 3, 2, 3)
    assert phi.evaluate(y.boundary_sum()) == 0
    assert all(phi.evaluate_coords(r) != 0 for r in roots)


def test_unit_orbit_search_matches_the_pruned_search(rng):
    # random boxes whose sizes divide m (a zero row 4 x_1 at m = 12 leaves
    # x_1 = 3 t_1, t_1 < 4), with functionals that are homomorphisms on the
    # box: coefficient i a multiple of m / sizes[i]; same point or both None
    none = 0
    for _ in range(2000):
        m = rng.randint(1, 12)
        divisors = [d for d in range(1, m + 1) if m % d == 0]
        sizes = [rng.choice(divisors) for _ in range(rng.randint(0, 7))]
        functionals = [
            [rng.randrange(m) * (m // g) % m for g in sizes]
            for _ in range(rng.randint(0, 10))
        ]
        want = pruned_first_point(sizes, functionals, m)
        assert period._first_point(sizes, functionals, m) == want, (sizes, functionals, m)
        none += want is None
    assert 100 < none < 1900, none


@pytest.mark.parametrize(
    "sequence, roots",
    [((1, 1, 1), 72), ((0, 0, 0, 0), 40), ((0, -1, -1, -1, 0), 20)],
    ids=["E6", "D5", "A4"],
)
def test_unit_orbit_search_matches_the_pruned_search_on_census_complements(
    sequence, roots, monkeypatch
):
    # the generic-period request (boundary sum zero, every root nonzero) at
    # every modulus 2..12, once with each search: same values or same refusal
    y = short_cycle_surface(sequence)
    comp = boundary_complement(y)
    lam = comp.sublattice
    assert len(comp.roots.representatives) == roots
    constraints = [(y.boundary_sum(), "zero")] + [
        (lam.embed(r), "nonzero") for r in comp.roots.representatives
    ]

    def answers():
        return [_solve_or_message(lam, constraints, modulus=m) for m in range(2, 13)]

    fast = answers()
    monkeypatch.setattr(period, "_first_point", pruned_first_point)
    assert fast == answers()
    assert any(isinstance(a, tuple) for a in fast)


# Simply-laced root systems by their Dynkin diagram (nodes, edges) and
# Coxeter number h.
ROOT_SYSTEMS = {
    "A1": (1, (), 2),
    "A2": (2, ((0, 1),), 3),
    "A3": (3, ((0, 1), (1, 2)), 4),
    "A4": (4, ((0, 1), (1, 2), (2, 3)), 5),
    "A5": (5, ((0, 1), (1, 2), (2, 3), (3, 4)), 6),
    "D4": (4, ((0, 1), (1, 2), (1, 3)), 6),
    "D5": (5, ((0, 1), (1, 2), (2, 3), (2, 4)), 8),
    "E6": (6, ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5)), 12),
    "A2+A1": (3, ((0, 1),), 3),
    "A1+A1+A1": (3, (), 2),
}


def _floors(monkeypatch):
    """Record every value the Kostant floor step returns; once per test."""
    seen = []
    real = period._kostant_floor
    monkeypatch.setattr(period, "_kostant_floor", lambda *a: seen.append(real(*a)) or seen[-1])
    return seen


def _answers(domain, constraints, top=16):
    """Answers to the search at every modulus bound 1..top, then to every
    fixed modulus 1..top."""
    return [
        _solve_or_message(domain, constraints, modulus_bound=b) for b in range(1, top + 1)
    ] + [_solve_or_message(domain, constraints, modulus=m) for m in range(1, top + 1)]


def _oracle_answers(domain, constraints, monkeypatch, top=16):
    """``_answers`` with the floor step off: the plain search from 2."""
    with monkeypatch.context() as m:
        m.setattr(period, "_kostant_floor", lambda *a: 2)
        return _answers(domain, constraints, top)


@pytest.mark.parametrize("n", range(3, 9), ids=lambda n: f"cycle-{n}")
def test_kostant_floor_keeps_every_census_answer(n, rng, monkeypatch):
    # every toric seed of cycle length n, blown up in a seeded order, with
    # the generic request (boundary sum zero, every root nonzero): the same
    # answer as the plain search at every bound and fixed modulus, and a
    # floor that is the modulus found wherever there are roots
    seen = _floors(monkeypatch)
    for seq in fan_seeds(n):
        order = [i + 1 for i, a in enumerate(seq) for _ in range(a + 2)]
        rng.shuffle(order)
        chain = _Chain(make_config(), seq, order)
        lam = chain.complement.sublattice
        roots = chain.complement.roots.representatives
        constraints = [(chain.y.boundary_sum(), "zero")] + [(lam.embed(r), "nonzero") for r in roots]
        seen.clear()
        fast = _answers(lam, constraints)
        assert fast == _oracle_answers(lam, constraints, monkeypatch), seq
        if roots:
            assert set(seen) == {fast[15][0]}, seq  # the modulus found at bound 16
        else:
            assert not seen, seq


@pytest.mark.parametrize("radical", [False, True], ids=["definite", "with-radical"])
@pytest.mark.parametrize("name", sorted(ROOT_SYSTEMS))
def test_kostant_floor_is_the_coxeter_number_on_root_lattices(name, radical, rng, monkeypatch):
    # the lattice of the negated Cartan matrix on a scrambled basis, every
    # root nonzero; with a radical, a null coordinate z is adjoined, killed
    # by a zero row, and the roots are shifted by -z, 0, z in turn
    nodes, edges, h = ROOT_SYSTEMS[name]
    gram = [[-2 * (i == j) for j in range(nodes)] for i in range(nodes)]
    for i, j in edges:
        gram[i][j] = gram[j][i] = 1
    roots = vectors_of_square(gram_lattice(gram), -2).representatives
    constraints = [(r, "nonzero") for r in roots]
    if radical:
        gram = [row + [0] for row in gram] + [[0] * (nodes + 1)]
        constraints = [((0,) * nodes + (1,), "zero")] + [
            (r + (k % 3 - 1,), "nonzero") for k, r in enumerate(roots)
        ]
    basis = random_unimodular(rng, len(gram), steps=6)
    domain = Sublattice(gram_lattice(gram), tuple(tuple(r) for r in basis))
    seen = _floors(monkeypatch)
    fast = _answers(domain, constraints)
    assert fast == _oracle_answers(domain, constraints, monkeypatch)
    assert fast[15][0] == h
    assert set(seen) == {h}


def test_kostant_floor_falls_back_to_the_plain_search(monkeypatch):
    # each request breaks one hypothesis of the bound, so the floor step
    # returns 2 and the search runs as before
    y = short_cycle_surface((1, 1, 1))
    comp = boundary_complement(y)
    lam, lattice = comp.sublattice, comp.sublattice.as_lattice()
    pairs = sorted({sign_normalized(r) for r in comp.roots.representatives})
    d, roots = y.boundary_sum(), [lam.embed(r) for r in pairs]
    r1 = roots[0]
    r2 = next(r for r in roots if lattice.pair(lam.coords_of(r), lam.coords_of(r1)) == 0)
    square_four = tuple(a + b for a, b in zip(r1, r2))
    assert lattice.square(lam.coords_of(square_four)) == -4
    requests = {
        "one pair dropped": [(d, "zero")] + [(r, "nonzero") for r in roots[1:]],
        "radical not killed": [(r, "nonzero") for r in roots],
        "square -4 row": [(d, "zero")] + [(r, "nonzero") for r in roots + [square_four]],
        "single root": [(d, "zero"), (r1, "nonzero")],
        "null row": [(d, "zero")] + [(r, "nonzero") for r in roots + [d]],
    }
    seen = _floors(monkeypatch)
    for what, constraints in requests.items():
        seen.clear()
        assert _answers(lam, constraints, 12) == _oracle_answers(lam, constraints, monkeypatch, 12), what
        assert set(seen) == {2}, what


def test_a_request_the_floor_refuses_builds_no_functionals(monkeypatch):
    # E6 at bound 8: the floor 12 lies past the bound, so no modulus is tried
    # and no root row becomes a functional on the Smith coordinates; at
    # bound 12 all 36 do.  The floor's radical check combines rows as well.
    y = short_cycle_surface((1, 1, 1))
    comp = boundary_complement(y)
    lam = comp.sublattice
    reps = comp.roots.representatives
    constraints = [(y.boundary_sum(), "zero")] + [(lam.embed(r), "nonzero") for r in reps]
    radical = len(lam.as_lattice().radical)
    built = []
    real = period.combination
    monkeypatch.setattr(period, "combination", lambda c, rows: built.append(c) or real(c, rows))
    with pytest.raises(InputError, match="no feasible modulus <= 8$"):
        solve_period(lam, constraints, modulus_bound=8)
    assert len(built) == radical
    built.clear()
    assert solve_period(lam, constraints, modulus_bound=12).modulus == 12
    assert len(built) == radical + len(reps) // 2 == radical + 36


def _floor_inputs(domain, constraints):
    """The (lattice, V, diagonal, rows) that ``solve_period`` hands the floor
    step on this request; None when it asks for no floor."""
    seen = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(period, "_kostant_floor", lambda *a: seen.append(a) or 2)
        with contextlib.suppress(InputError):  # at bound 1 no search runs
            solve_period(domain, constraints, modulus_bound=1)
    return seen[0] if seen else None


@pytest.mark.parametrize("n", range(3, 9), ids=lambda n: f"cycle-{n}")
def test_kostant_floor_over_sign_pairs_matches_the_both_sign_walk(n, rng):
    # the generic request's floor inputs on every census complement and on
    # a unimodular change of its basis, then its root rows cut down, shuffled,
    # joined by rows of another square and by negated or repeated rows: the
    # walk over +/- pairs and the both-sign walk give one floor on each
    floors = set()
    for seq in fan_seeds(n):
        order = [i + 1 for i, a in enumerate(seq) for _ in range(a + 2)]
        rng.shuffle(order)
        chain = _Chain(make_config(), seq, order)
        lam = chain.complement.sublattice
        constraints = [(chain.y.boundary_sum(), "zero")] + [
            (lam.embed(r), "nonzero") for r in chain.complement.roots.representatives
        ]
        basis = tuple(map(tuple, intcore.matmul(random_unimodular(rng, lam.rank), lam.basis)))
        for domain in (lam, Sublattice(lam.ambient, basis)):
            inputs = _floor_inputs(domain, constraints)
            if inputs is None:
                assert not chain.complement.roots.representatives, seq
                continue
            lat, v, diag, rows = inputs
            variants = [rows, rng.sample(rows, len(rows))]
            variants += [rows[:i] + rows[i + 1 :] for i in range(len(rows))]
            variants += [rng.sample(rows, rng.randint(0, len(rows))) for _ in range(4)]
            r, t = rng.choice(rows), rng.choice(rows)
            variants += [
                rows + [[a + b for a, b in zip(r, t)]],  # square -4 + 2 r.t
                rows + [[2 * a for a in r]],
                rows + [[0] * len(r)],
                rows + [[-a for a in r]],
                rows + [list(r)],
                rows + [[-a for a in s] for s in rows],
            ]
            for rows_ in variants:
                want = both_sign_kostant_floor(lat, v, diag, rows_)
                assert period._kostant_floor(lat, v, diag, rows_) == want, (seq, rows_)
                floors.add(want)
            assert lat.square(r) == lat.square(t) == -2, seq
    assert 2 in floors and (n >= 7 or max(floors) > 2), floors  # A1 or no roots at n >= 7


def test_a_second_solve_on_one_domain_computes_no_radical(monkeypatch):
    # the floor step reads the radical of the domain's pairing, which the
    # domain's lattice works out once; count every integer kernel taken
    y = short_cycle_surface((1, 1, 1))
    comp = boundary_complement(y)
    reps = comp.roots.representatives
    domain = Sublattice(comp.sublattice.ambient, comp.sublattice.basis)  # nothing cached
    constraints = [(y.boundary_sum(), "zero")] + [(domain.embed(r), "nonzero") for r in reps]
    calls = []
    real = intlinalg.right_kernel
    for name, module in list(sys.modules.items()):
        if name.startswith("cuspcheck") and getattr(module, "right_kernel", None) is real:
            monkeypatch.setattr(module, "right_kernel", lambda a: calls.append(a) or real(a))
    seen = _floors(monkeypatch)
    first = solve_period(domain, constraints)
    assert len(calls) == 1 and seen == [first.modulus]
    calls.clear()
    assert solve_period(domain, constraints) == first
    assert not calls


def test_a_request_refused_for_its_modulus_converts_no_constraint(monkeypatch):
    # the generic E6 request: each refusal for its modulus or modulus bound
    # comes before any conversion, Smith form or floor walk
    y = short_cycle_surface((1, 1, 1))
    comp = boundary_complement(y)
    domain = comp.sublattice
    constraints = [(y.boundary_sum(), "zero")] + [
        (domain.embed(r), "nonzero") for r in comp.roots.representatives
    ]

    def refuse(*args):
        raise AssertionError("a refused modulus reached the solver")

    monkeypatch.setattr(period, "_kostant_floor", refuse)
    monkeypatch.setattr(period, "snf_transform", refuse)
    monkeypatch.setattr(Sublattice, "coords_of", refuse)
    for kwargs, message in (
        ({"modulus": 0}, "modulus must be >= 1"),
        ({"modulus_bound": 0}, "modulus bound must be >= 1"),
        ({"modulus": 1}, "modulus 1 admits no nonzero constraints"),
    ):
        with pytest.raises(InputError, match=message):
            solve_period(domain, constraints, **kwargs)


def test_force_trivial_beta_never_reaches_the_floor_step(monkeypatch):
    # every root pair is a zero row, so nothing is required to be nonzero
    cfg = make_config({"force_trivial_beta": True})
    seen = _floors(monkeypatch)
    phi = _Chain(cfg, SEED_SEQUENCE, BLOWUP_COMPONENTS).phi
    assert not seen
    with monkeypatch.context() as m:
        m.setattr(period, "_kostant_floor", lambda *a: 2)
        oracle = _Chain(cfg, SEED_SEQUENCE, BLOWUP_COMPONENTS).phi
    assert (phi.modulus, phi.values) == (oracle.modulus, oracle.values) == (1, (0,) * phi.domain.rank)
