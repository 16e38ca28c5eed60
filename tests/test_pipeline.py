"""Both entry points derive the criterion from one chain."""

import itertools
import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import cuspcheck
from cuspcheck.checker import totaro_check
from cuspcheck.enumeration import vectors_of_square
from cuspcheck.errors import InputError
from cuspcheck.jsonio import criterion_to_dict
from cuspcheck.lattice import GramLattice
from cuspcheck.period import is_generic, solve_period
from cuspcheck.pipeline import SEED_SEQUENCE, _Chain, canonical_root, make_config, run_criterion
from cuspcheck.surface import (
    boundary_complement,
    fan_from_sequence,
    interior_blowup,
    toric_from_sequence,
)

GOLDEN = Path(__file__).parent / "golden" / "verify_paper_report.json"


def test_run_criterion_matches_golden_criterion(seed_surface):
    # the same period point verify-paper solves for, on the same blow-up
    lam = boundary_complement(seed_surface).sublattice
    beta = lam.embed(canonical_root(vectors_of_square(lam.as_lattice(), -2)))
    phi = solve_period(
        lam, [(seed_surface.boundary_sum(), "zero"), (beta, "nonzero")], modulus="search"
    )
    tilde = interior_blowup(seed_surface, 6)
    report = run_criterion(tilde, phi, 100)
    golden = json.loads(GOLDEN.read_text())
    assert criterion_to_dict(report) == golden["criterion"]


def test_run_criterion_refuses_the_period_of_another_surface(seed_surface, generic_phi):
    # W blows up component 5 twice where Y blows up 5 and 6: the same Picard
    # Gram, another boundary, so Y's period does not live on W's complement
    w = toric_from_sequence(SEED_SEQUENCE)
    for comp in (1, 3, 4, 5, 5):
        w = interior_blowup(w, comp)
    assert w.picard.gram == seed_surface.picard.gram
    with pytest.raises(InputError, match="period domain is not the boundary complement"):
        run_criterion(interior_blowup(w, 6), generic_phi, 5)


def test_criterion_chain_builds_each_boundary_complement_once(
    seed_surface, generic_phi, monkeypatch
):
    # Y, its blow-up S~ and the blown-down Y2 each need their complement;
    # the fibration, translation and certificate layers share it.  The probe
    # sits where the work is done: a call that hits a surface's memo does none
    seen = []
    real = cuspcheck.surface.orthogonal_complement

    def probe(picard, boundary):
        seen.append(SimpleNamespace(picard=picard, boundary=boundary))
        return real(picard, boundary)

    monkeypatch.setattr(cuspcheck.surface, "orthogonal_complement", probe)
    run_criterion(interior_blowup(seed_surface, 6), generic_phi, 5)
    assert len(seen) == 3
    assert len({(s.picard.gram, s.boundary) for s in seen}) == 3


def test_paper_run_classifies_each_isometry_once(monkeypatch):
    # the transvection-families stage and the criterion's checker classify
    # the same G and H generators; each isometry keeps its classification,
    # so one run takes the fixed lattice of the square of the 2 translations
    # and the 2 + 2 transvections once each
    calls = []
    real = cuspcheck.isometry.fixed_sublattice
    monkeypatch.setattr(
        cuspcheck.isometry, "fixed_sublattice", lambda g: calls.append(g) or real(g)
    )
    cuspcheck.pipeline.run_pipeline()
    assert len(calls) == 6


def test_paper_run_enumerates_each_root_system_once(monkeypatch):
    # the root-coset stages, beta and the first fibration read the roots Y's
    # complement keeps; the second fibration enumerates on Y2's complement
    grams = []
    real = cuspcheck.enumeration._definite_vectors

    def probe(gram, s):
        grams.append(tuple(map(tuple, gram)))
        return real(gram, s)

    monkeypatch.setattr(cuspcheck.enumeration, "_definite_vectors", probe)
    cuspcheck.pipeline.run_pipeline()
    assert len(grams) == 2
    assert len(set(grams)) == 2


def test_criterion_checks_the_walk_once(seed_surface, generic_phi, monkeypatch):
    # the certificate is the two roots, the base and N: nothing builds the
    # walk (no reflection, no sign vector), and the checker reads the count
    # off the wedge with the same pairings whatever N
    calls = []
    for name in ("chamber_sign",):
        real = getattr(cuspcheck.weyl, name)
        monkeypatch.setattr(
            cuspcheck.weyl, name, lambda *a, name=name, real=real: calls.append(name) or real(*a)
        )
    tilde = interior_blowup(seed_surface, 6)
    run_criterion(tilde, generic_phi, 25)
    assert calls == []
    pairings = []
    for n in (25, 50):
        cfg = make_config({"witness_count": n})
        chain = _Chain(cfg, y=seed_surface, s_tilde=tilde, phi=generic_phi)
        lat, cert = chain.m_sub.as_lattice(), chain.cert
        count = []
        with monkeypatch.context() as m:
            for owner, name in ((GramLattice, "pairing_row"), (cuspcheck.checker, "dot")):
                real = getattr(owner, name)
                m.setattr(owner, name, lambda *a, real=real: count.append(1) or real(*a))
            assert totaro_check(lat, [], [], cert).witnesses["distinct_chambers"] == n + 1
        pairings.append(len(count))
    assert pairings[0] == pairings[1]


def _fan_seeds(n):
    """Every sequence of length n with entries in -2..1 that
    ``fan_from_sequence`` accepts as a smooth complete fan winding once."""
    seeds = []
    for seq in itertools.product(range(-2, 2), repeat=n):
        try:
            fan_from_sequence(seq)
        except InputError:
            continue
        seeds.append(seq)
    return seeds


# Seeds of each cycle length by the modulus of their generic period: 91 in
# all, 73 certified (n <= 7) and 18 with M too small (n = 8).  For n <= 7 the
# modulus is the Coxeter number of the root system E6, D5, A4, A2+A1, A1
# (Kostant); for n = 8 it is 2 on A1 and 1 with no roots.
CENSUS = {
    3: {12: 1}, 4: {8: 5}, 5: {5: 15}, 6: {3: 31}, 7: {2: 21}, 8: {1: 8, 2: 10},
}


@pytest.mark.parametrize("n", sorted(CENSUS), ids=lambda n: f"cycle-{n}")
def test_census_of_toric_seeds(n, rng):
    # each seed with component i blown up a_i + 2 times in a seeded order,
    # its chain built with the default config; at n = 8 the criterion
    # lattice M has signature (1, 2), one short of the criterion's rank
    moduli = Counter()
    for seq in _fan_seeds(n):
        order = [i + 1 for i, a in enumerate(seq) for _ in range(a + 2)]
        rng.shuffle(order)
        chain = _Chain(make_config(), seq, order)
        report = run_criterion(chain.s_tilde, chain.phi, 30)
        moduli[chain.phi.modulus] += 1
        if n == 8:
            assert not report.rank_ok and not report.verdict, seq
            assert chain.phi.modulus == (2 if chain.complement.roots.representatives else 1)
            continue
        assert chain.phi.evaluate(chain.y.boundary_sum()) == 0, seq
        assert is_generic(chain.phi, chain.complement.roots), seq
        assert report.verdict and report.witnesses["m"] == 10 - n, seq
    assert moduli == CENSUS[n]


def test_paper_run_finds_the_translation_vectors_once(monkeypatch):
    # the translation-group stage and the criterion chain share the vectors
    # of the first fibration
    calls = []
    real = cuspcheck.fibration.translation_vectors

    def probe(surface, fib):
        calls.append(fib)
        return real(surface, fib)

    monkeypatch.setattr(cuspcheck.fibration, "translation_vectors", probe)
    monkeypatch.setattr(cuspcheck.pipeline, "translation_vectors", probe)
    cuspcheck.pipeline.run_pipeline()
    assert len(calls) == 1
