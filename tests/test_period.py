"""Period points: the solver against an exhaustive oracle, genericity, bounds."""

import itertools

import pytest

from cuspcheck import period
from cuspcheck.enumeration import vectors_of_square
from cuspcheck.errors import InputError
from cuspcheck.lattice import Sublattice, diagonal_lattice, full_sublattice
from cuspcheck.period import (
    PeriodPoint,
    extend_over_blowup,
    is_generic,
    solve_period,
)
from cuspcheck.surface import boundary_complement, interior_blowup, toric_from_sequence

from helpers import (
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
    domain = full_sublattice(diagonal_lattice([1] * n))
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
