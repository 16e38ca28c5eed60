"""Both entry points derive the criterion from one chain."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from helpers import short_cycle_surface

import cuspcheck
from cuspcheck.enumeration import vectors_of_square
from cuspcheck.fibration import fiber_from_boundary
from cuspcheck.jsonio import criterion_to_dict
from cuspcheck.lattice import GramLattice
from cuspcheck.period import PeriodPoint, is_generic, solve_period
from cuspcheck.pipeline import _Chain, canonical_root, run_criterion
from cuspcheck.surface import boundary_complement, interior_blowup
from cuspcheck.weyl import totaro_check

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


def test_criterion_checks_the_walk_once(seed_surface, generic_phi, monkeypatch):
    # the certificate is the two roots, the base and N: nothing builds the
    # walk (no reflection, no sign vector), and the checker reads the count
    # off the wedge with the same pairings whatever N
    calls = []
    for name in ("chamber_sign", "reflect"):
        real = getattr(cuspcheck.weyl, name)
        monkeypatch.setattr(
            cuspcheck.weyl, name, lambda *a, name=name, real=real: calls.append(name) or real(*a)
        )
    tilde = interior_blowup(seed_surface, 6)
    run_criterion(tilde, generic_phi, 25)
    assert calls == []
    pairings = []
    for n in (25, 50):
        chain = _Chain(seed_surface, tilde, generic_phi, n)
        lat, cert = chain.m_sub.as_lattice(), chain.cert
        count = []
        with monkeypatch.context() as m:
            for owner, name in ((GramLattice, "pairing_row"), (cuspcheck.weyl, "dot")):
                real = getattr(owner, name)
                m.setattr(owner, name, lambda *a, real=real: count.append(1) or real(*a))
            assert totaro_check(lat, [], [], cert).witnesses["distinct_chambers"] == n + 1
        pairings.append(len(count))
    assert pairings[0] == pairings[1]


@pytest.mark.parametrize(
    "sequence, modulus, m, values",
    [
        # the period of test_weyl.test_weyl_certificate_on_a_rank_8_complement,
        # which the search below also finds, in about 0.7 s
        ((1, 1, 1), 12, 7, (1, 3, 2, 2, 3, 2, 3)),
        ((-1, 0, 1, 0), 8, 6, None),
        ((-2, -1, -1, 1, 0), 5, 5, None),
        ((-2, -2, -1, -2, 1, 0), 3, 4, None),
    ],
    ids=["cycle-3", "cycle-4", "cycle-5", "cycle-6"],
)
def test_criterion_certifies_a_surface_of_each_short_cycle(sequence, modulus, m, values):
    # the second fibration's surface keeps a root system larger than one
    # +/- pair here; the verdict reads only that fibration's fiber class
    y = short_cycle_surface(sequence)
    comp = boundary_complement(y)
    if values is None:
        roots = [(comp.sublattice.embed(r), "nonzero") for r in comp.roots.representatives]
        phi = solve_period(
            comp.sublattice, [(y.boundary_sum(), "zero")] + roots, modulus_bound=12
        )
    else:
        phi = PeriodPoint(comp.sublattice, modulus, values)
    assert phi.modulus == modulus
    assert phi.evaluate(y.boundary_sum()) == 0 and is_generic(phi, comp.roots)
    fib = fiber_from_boundary(y, phi)
    met = [i + 1 for i, b in enumerate(y.boundary) if y.picard.pair(fib.zero_section, b)]
    report = run_criterion(interior_blowup(y, met[0]), phi, 30)
    assert report.verdict
    assert report.witnesses["m"] == m


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
