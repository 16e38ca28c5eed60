"""Both entry points derive the criterion from one chain."""

import json
from pathlib import Path
from types import SimpleNamespace

import cuspcheck
from cuspcheck.enumeration import vectors_of_square
from cuspcheck.jsonio import criterion_to_dict
from cuspcheck.period import solve_period
from cuspcheck.pipeline import canonical_root, run_criterion
from cuspcheck.surface import boundary_complement, interior_blowup

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
    # so one run takes the characteristic polynomial of the 2 translations
    # and the 2 + 2 transvections once each
    calls = []
    real = cuspcheck.isometry.charpoly
    monkeypatch.setattr(cuspcheck.isometry, "charpoly", lambda a: calls.append(a) or real(a))
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
