"""Acceptance gate: the ten headline checks, one printed verdict line each.

Every test funnels its checks through ``_report``, which writes a single
``[acceptance NN] label: PASS|FAIL`` line to the real stdout (visible even
under pytest capture) and then asserts.  All values are exact integers; the
only tolerances are the wall-clock ceilings written next to each timer.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import test_enumeration
import test_isometry
import test_lattice
import test_period
import test_weyl
from helpers import log_unipotent, make_rng, naive_sign_vectors, naive_walk

from cuspcheck.checker import dihedral_order
from cuspcheck.enumeration import vectors_of_square
from cuspcheck.fibration import (
    analyze_fibration,
    isotropic_transvection_group,
    mw_translation_group,
    translation_vectors,
)
from cuspcheck.intlinalg import rank_int
from cuspcheck.isometry import classify_isometry
from cuspcheck.lattice import signature
from cuspcheck.period import extend_over_blowup, is_generic
from cuspcheck.pipeline import second_fibration
from cuspcheck.surface import (
    boundary_complement,
    boundary_definiteness,
    interior_blowup,
    toric_from_sequence,
)
from cuspcheck.weyl import weyl_infiniteness_certificate
from conftest import SEED_SEQUENCE

GOLDEN = Path(__file__).parent / "golden" / "verify_paper_report.json"


def _report(num: int, label: str, ok: bool) -> None:
    line = f"[acceptance {num:02d}] {label}: {'PASS' if ok else 'FAIL'}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_toric_seed():
    t0 = time.perf_counter()
    seed = toric_from_sequence(SEED_SEQUENCE)
    elapsed = time.perf_counter() - t0
    ok = (
        seed.picard_rank == 5
        and seed.boundary_self_intersection() == 5
        and elapsed < 1.0  # ceiling: 1 s
    )
    _report(1, "toric seed has rank 5 and boundary square 5 within 1s", ok)


def test_criterion_02_five_interior_blowups(seed_surface):
    bd = boundary_definiteness(seed_surface)
    ok = (
        list(seed_surface.self_intersections()) == [-2] * 7
        and seed_surface.picard_rank == 10
        and seed_surface.boundary_self_intersection() == 0
        and bd.classification == "negative_semidefinite_degenerate"
        and bd.radical_rank == 1
    )
    _report(2, "five blowups give seven (-2)s, rank 10, semidefinite radical 1", ok)


def test_criterion_03_complement_and_root_cosets(seed_surface):
    d = seed_surface.boundary_sum()
    t0 = time.perf_counter()
    lam = boundary_complement(seed_surface).sublattice
    roots = vectors_of_square(lam.as_lattice(), -2)
    elapsed = time.perf_counter() - t0
    reps = roots.representatives
    single_pair = len(reps) == 2 and reps[0] == tuple(-x for x in reps[1])
    radical_spans_boundary_line = (
        len(roots.radical) == 1
        and rank_int([list(roots.radical[0]), list(lam.coords_of(d))]) == 1
    )
    ok = (
        lam.rank == 3
        and lam.contains(d)
        and single_pair
        and radical_spans_boundary_line
        and elapsed < 5.0  # ceiling: 5 s
    )
    _report(3, "complement has rank 3 and one +/- root coset pair within 5s", ok)


def test_criterion_04_period_against_exhaustive_oracle(
    seed_surface, seed_complement, seed_roots, generic_phi
):
    d = seed_surface.boundary_sum()
    from cuspcheck.pipeline import canonical_root

    beta = seed_complement.embed(canonical_root(seed_roots))
    constraints = [(d, "zero"), (beta, "nonzero")]
    feasible = [
        m
        for m in range(1, 9)
        if test_period._exhaustive_feasible(seed_complement, constraints, m)
    ]
    fib = analyze_fibration(seed_surface, generic_phi)
    ok = (
        bool(feasible)
        and generic_phi.modulus == feasible[0]
        and generic_phi.evaluate(d) == 0
        and generic_phi.evaluate(beta) != 0
        and is_generic(generic_phi, seed_roots)
        and len(fib.reducible_fibers) == 1
    )
    _report(4, "smallest modulus matches brute force, generic, no extra fibers", ok)


def test_criterion_05_translation_ranks(seed_surface, generic_phi, trivial_phi):
    generic_rank = analyze_fibration(seed_surface, generic_phi).mw_rank
    trivial_rank = analyze_fibration(seed_surface, trivial_phi).mw_rank
    ok = generic_rank == 2 and trivial_rank == 1
    _report(5, "translation rank 2 generically, 1 for the trivial period", ok)


def test_criterion_06_blowup_at_marked_point(seed_surface):
    tilde = interior_blowup(seed_surface, 6)
    m_sub = boundary_complement(tilde).sublattice
    sig = signature(m_sub.as_lattice())
    bd = boundary_definiteness(tilde)
    ok = (
        m_sub.rank == 4
        and (sig.positive, sig.negative, sig.null) == (1, 3, 0)
        and bd.classification == "negative_definite"
        and bd.criterion_applicable is True
        and bd.criterion_agrees is True
    )
    _report(6, "blowup gives rank-4 (1,3) complement, definite boundary, cross-check", ok)


def _flat_integer_rows(mats):
    """Flatten Fraction matrices to integer rows on a common denominator."""
    flats = [[x for row in m for x in row] for m in mats]
    denom = 1
    for flat in flats:
        for x in flat:
            denom = denom * x.denominator // math.gcd(denom, x.denominator)
    return [[int(x * denom) for x in flat] for flat in flats]


def test_criterion_07_transvection_suite(seed_surface, generic_phi):
    t0 = time.perf_counter()
    fib = analyze_fibration(seed_surface, generic_phi)
    tvecs = translation_vectors(seed_surface, fib)
    g_small = mw_translation_group(seed_surface, fib)
    tilde = interior_blowup(seed_surface, 6)
    m_sub = boundary_complement(tilde).sublattice
    f_up = tuple(fib.fiber_class) + (0,)
    g_family = isotropic_transvection_group(m_sub, f_up)
    phi_tilde = extend_over_blowup(generic_phi, m_sub, fib.zero_section)
    second = second_fibration(
        seed_surface, tilde, generic_phi, phi_tilde, fib, tvecs
    )
    h_family = isotropic_transvection_group(m_sub, second.fiber_class_upstairs)
    elapsed = time.perf_counter() - t0

    checks = [second is not None, elapsed < 5.0]  # ceiling: 5 s
    for g in list(g_small) + list(g_family) + list(h_family):
        checks.append(g.is_gram_preserving())
        checks.append(classify_isometry(g).tag == "parabolic")
    # free abelian of rank exactly 2: commuting pair with independent logs
    checks.append(len(g_small) == 2)
    checks.append(g_small[0].commutes_with(g_small[1]))
    logs = _flat_integer_rows([log_unipotent(g) for g in g_small])
    checks.append(rank_int(logs) == 2)
    # the two families fix different isotropic lines
    g_lines = {classify_isometry(g).fixed_isotropic for g in g_family}
    h_lines = {classify_isometry(h).fixed_isotropic for h in h_family}
    checks.append(len(g_lines) == 1 and len(h_lines) == 1 and g_lines != h_lines)
    _report(7, "transvections exact, parabolic, Z^2 witness, distinct lines, 5s", all(checks))


def test_criterion_08_chamber_walk(seed_surface, generic_phi):
    fib = analyze_fibration(seed_surface, generic_phi)
    tvecs = translation_vectors(seed_surface, fib)
    tilde = interior_blowup(seed_surface, 6)
    t0 = time.perf_counter()
    cert = weyl_infiniteness_certificate(
        tilde, generic_phi, fib, tvecs, witness_count=100
    )
    elapsed = time.perf_counter() - t0
    m_lat = boundary_complement(tilde).sublattice.as_lattice()
    walls, points = naive_walk(m_lat.gram, cert.root1, cert.root2, cert.base, cert.requested)
    sign_vectors = naive_sign_vectors(m_lat.gram, walls, points)
    ok = (
        abs(m_lat.pair(cert.root1, cert.root2)) >= 2
        and dihedral_order(m_lat, cert.root1, cert.root2) == math.inf
        and len(set(sign_vectors)) >= 100
        and elapsed < 10.0  # ceiling: 10 s
    )
    _report(8, "pairing >= 2, infinite dihedral, 100 distinct chambers within 10s", ok)


def test_criterion_09_certified_replay_matches_golden():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cuspcheck", "verify-paper"],
        capture_output=True,
    )
    elapsed = time.perf_counter() - t0
    report = json.loads(proc.stdout)
    ok = (
        proc.returncode == 0
        and report["all_pass"] is True
        and all(stage["pass"] for stage in report["stages"])
        and report["criterion"]["verdict"] is True
        and proc.stdout == GOLDEN.read_bytes()
        and elapsed < 30.0  # ceiling: 30 s
    )
    _report(9, "certified replay passes every stage, byte-identical, 30s", ok)


PROPERTY_SUITES = (
    ("signature congruence invariance", test_lattice.test_signature_congruence_invariance),
    ("complement saturation", test_lattice.test_orthogonal_complement_is_saturated_and_orthogonal),
    ("enumeration vs factored oracle", test_enumeration.test_definite_enumeration_against_factored_oracle),
    ("chamber walk vs sign-matrix oracle", test_weyl.test_walk_check_agrees_with_the_sign_matrix_oracle),
    ("classification vs inverse", test_isometry.test_classification_matches_inverse_and_conjugates),
)


def test_criterion_10_property_suites_rerun():
    failures = []
    for label, suite in PROPERTY_SUITES:
        try:
            suite(make_rng())
        except AssertionError:
            failures.append(label)
    _report(10, f"seeded property suites, failures {failures or 'none'}", not failures)
