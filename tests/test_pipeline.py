"""Both entry points derive the criterion from one chain."""

import itertools
import json
import random
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from helpers import (
    assert_passes_the_checked_constructor,
    blown_down_second_fibration,
    count_calls,
    count_eliminations,
    fan_seeds,
    kernel_blow_down,
)

import cuspcheck.checker
import cuspcheck.enumeration
import cuspcheck.fibration
import cuspcheck.intcore
import cuspcheck.intlinalg
import cuspcheck.isometry
import cuspcheck.lattice
import cuspcheck.pipeline
import cuspcheck.surface
import cuspcheck.weyl
from cuspcheck.checker import totaro_check, unipotent_line
from cuspcheck.enumeration import canonical_root, vectors_of_square
from cuspcheck.errors import InputError
from cuspcheck.fibration import analyze_fibration, move_section, mw_translation_group
from cuspcheck.isometry import Isometry, _classify_by_fixed_lattice, classify_isometry
from cuspcheck.jsonio import criterion_to_dict
from cuspcheck.lattice import GramLattice
from cuspcheck.period import PeriodPoint, is_generic, solve_period
from cuspcheck.pipeline import (
    BLOWUP_COMPONENTS,
    SEED_SEQUENCE,
    _Chain,
    make_config,
    run_criterion,
    second_fibration,
)
from cuspcheck.surface import (
    blow_down,
    blow_down_with_embedding,
    boundary_complement,
    interior_blowup,
    toric_from_sequence,
)
from cuspcheck.weyl import _translation_witness

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


def _second_fibration_inputs(y, phi):
    """The paper's S~, its phi~ and the rest of ``second_fibration``'s arguments."""
    chain = _Chain(make_config(), y=y, phi=phi)
    return chain, (y, chain.s_tilde, phi, chain.phi_tilde, chain.fib1, chain.tvecs)


# Each refusal second_fibration makes on the moved section c_q and on Y2's
# boundary, read inside M, is the one blow_down_with_embedding and
# fiber_from_boundary make on Y2, in the same words


def test_second_fibration_refuses_a_moved_section_of_another_square(seed_surface, generic_phi):
    _, (y, s, phi, phi_t, fib, tv) = _second_fibration_inputs(seed_surface, generic_phi)
    # a transvection keeps squares: 2 z moves to a class of square -4
    doubled = replace(fib, zero_section=tuple(2 * x for x in fib.zero_section))
    with pytest.raises(InputError, match="^blow-down class must have square -1$"):
        second_fibration(y, s, phi, phi_t, doubled, tv)


def test_second_fibration_refuses_a_moved_section_meeting_three_components(
    seed_surface, generic_phi
):
    _, (y, s, phi, phi_t, fib, tv) = _second_fibration_inputs(seed_surface, generic_phi)
    # z + D_6 has square -1 + 2 - 2 and meets D_5, D_6 and D_7; a translation
    # fixes every boundary component, so the moved class meets them too
    shifted = tuple(a + b for a, b in zip(fib.zero_section, y.boundary[5]))
    with pytest.raises(
        InputError,
        match="^blow-down class must meet exactly one boundary component with multiplicity 1$",
    ):
        second_fibration(y, s, phi, phi_t, replace(fib, zero_section=shifted), tv)


def test_second_fibration_refuses_a_blow_up_away_from_the_zero_section(
    seed_surface, generic_phi
):
    # S~ blown up on D_5, not on D_6 where the zero section meets the cycle:
    # blowing the moved section down would leave D_6 of square -1 (and D_5 of
    # -3), so Y2's boundary is no fiber.  No period extends over that blow-up
    # through the zero section, so any period on its complement will do
    _, (y, _, phi, _, fib, tv) = _second_fibration_inputs(seed_surface, generic_phi)
    s = interior_blowup(y, 5)
    m = boundary_complement(s).sublattice
    zero = PeriodPoint(m, 2, (0,) * m.rank)
    with pytest.raises(
        InputError, match="^boundary is not of fiber type: a component is not a \\(-2\\)-class$"
    ):
        second_fibration(y, s, phi, zero, fib, tv)


def test_second_fibration_refuses_a_fiber_of_multiple_one(seed_surface, generic_phi):
    # a period killing b_2 gives Y2 a fiber of multiple 1, whose zero section
    # Y2, with no recorded exceptional class, cannot name
    chain, (y, s, phi, _, fib, tv) = _second_fibration_inputs(seed_surface, generic_phi)
    zero = PeriodPoint(chain.m_sub, 2, (0,) * chain.m_sub.rank)
    with pytest.raises(
        InputError, match="^no exceptional class recorded to serve as the zero section$"
    ):
        second_fibration(y, s, phi, zero, fib, tv)


def test_y2_cross_checks_the_multiple_read_in_m(seed_surface, generic_phi):
    # the second-fibration row's Y2 gives multiple 2; an M-side reading that
    # disagrees is an arithmetic fault, not an input error
    chain, _ = _second_fibration_inputs(seed_surface, generic_phi)
    chain.second = replace(chain.second, multiple=3)
    with pytest.raises(ArithmeticError, match=r"multiple 2 differs from the one read in M \(3\)"):
        chain.fib2


def test_criterion_chain_builds_each_boundary_complement_once(
    seed_surface, generic_phi, monkeypatch
):
    # Y and its blow-up S~ each need their complement; the fibration,
    # translation and certificate layers share it.  The second axis is read
    # inside M, so nothing blows S~ down at the moved section (a kernel-path
    # blow-down would be a third orthogonal_complement) and Y2 needs no
    # complement.  The probe sits where the work is done: a call that hits a
    # surface's memo does none
    seen = []
    real = cuspcheck.surface.orthogonal_complement

    def probe(picard, boundary):
        seen.append(SimpleNamespace(picard=picard, boundary=boundary))
        return real(picard, boundary)

    def refuse(*a):
        raise AssertionError("run_criterion blew S~ down at the moved section")

    monkeypatch.setattr(cuspcheck.surface, "orthogonal_complement", probe)
    monkeypatch.setattr(cuspcheck.pipeline, "blow_down_with_embedding", refuse)
    run_criterion(interior_blowup(seed_surface, 6), generic_phi, 5)
    assert len(seen) == 2
    assert len({(s.picard.gram, s.boundary) for s in seen}) == 2


def test_paper_run_builds_y2_once_for_its_stage_row(monkeypatch):
    # only the second-fibration row reads Y2; the transvection families and
    # the criterion read the axis inside M
    calls = []
    real = cuspcheck.pipeline.blow_down_with_embedding

    def probe(surface, cls):
        calls.append(cls)
        return real(surface, cls)

    monkeypatch.setattr(cuspcheck.pipeline, "blow_down_with_embedding", probe)
    cuspcheck.pipeline.run_pipeline()
    assert len(calls) == 1


def test_paper_run_builds_no_fixed_lattice(monkeypatch):
    # the translation-group and transvection-families stages tag each
    # isometry by the checker's (g - 1)^2 read-off, as the criterion does:
    # with the classifier and its Fix(g^2) lattice gone the report is the same
    def refuse(g):
        raise AssertionError("the paper run classified an isometry")

    monkeypatch.setattr(cuspcheck.isometry, "fixed_sublattice", refuse)
    monkeypatch.setattr(cuspcheck.isometry, "classify_isometry", refuse)
    report = cuspcheck.pipeline.run_pipeline()
    assert report == json.loads(GOLDEN.read_text())


def test_paper_run_enumerates_each_root_system_once(monkeypatch):
    # the root-coset stages, beta and the first fibration read the roots Y's
    # complement keeps; the second-fibration row enumerates on Y2's complement
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


# Seeds of each cycle length by the modulus of their generic period: 91 in
# all, 73 certified (n <= 7) and 18 with M too small (n = 8).  For n <= 7 the
# modulus is the Coxeter number of the root system E6, D5, A4, A2+A1, A1
# (Kostant); for n = 8 it is 2 on A1 and 1 with no roots.
CENSUS = {
    3: {12: 1}, 4: {8: 5}, 5: {5: 15}, 6: {3: 31}, 7: {2: 21}, 8: {1: 8, 2: 10},
}


def _record_derived_surfaces(monkeypatch) -> list:
    """(function, surface) for every surface the pipeline derives by a
    blow-up or blow-down formula: Y's blow-ups, S~, ``run_criterion``'s input
    check and the second-fibration row's Y2."""
    derived = []
    for name in ("interior_blowup", "blow_down", "blow_down_with_embedding"):
        real = getattr(cuspcheck.pipeline, name)

        def probe(*args, name=name, real=real):
            out = real(*args)
            derived.append((name, getattr(out, "surface", out)))
            return out

        monkeypatch.setattr(cuspcheck.pipeline, name, probe)
    return derived


@pytest.mark.parametrize("n", sorted(CENSUS), ids=lambda n: f"cycle-{n}")
def test_census_of_toric_seeds(n, rng, monkeypatch):
    # each seed with component i blown up a_i + 2 times in a seeded order,
    # its chain built with the default config; at n = 8 the criterion
    # lattice M has signature (1, 2), one short of the criterion's rank
    moduli = Counter()
    derived = _record_derived_surfaces(monkeypatch)
    for seq in fan_seeds(n):
        order = [i + 1 for i, a in enumerate(seq) for _ in range(a + 2)]
        rng.shuffle(order)
        chain = _Chain(make_config(), seq, order)
        report = run_criterion(chain.s_tilde, chain.phi, 30)
        moduli[chain.phi.modulus] += 1
        # the checker reads each line off (g - 1)^2; the classifier's Fix(g^2)
        # lattice is its oracle
        h_lines = [list(_classify_by_fixed_lattice(h).fixed_isotropic) for h in chain.h_family]
        assert report.witnesses.get("h_fixed_lines") == (h_lines or None), seq
        # and on Y's rank-10 Picard, where the translation-group stage reads it
        for g in chain.translations:
            kind = _classify_by_fixed_lattice(g)
            assert unipotent_line(g.matrix) == kind.fixed_isotropic and kind.tag == "parabolic", seq
        # every surface the chain and run_criterion derived, the oracle's Y2,
        # and Y blown down at its first exceptional class, not the last, pass
        # the checked path.  Neither the chain nor run_criterion blows S~ down
        # at the moved section: the second axis is read inside M, and only
        # verify-paper's second-fibration row builds Y2
        made = Counter(name for name, _ in derived)
        assert made["interior_blowup"] == len(order) + 1 and made["blow_down"] == 1, seq
        assert made["blow_down_with_embedding"] == 0, seq
        checked = [s for _, s in derived] + [blow_down(chain.y, chain.y.history[0][1])]
        # the M-side axis and multiple are the ones Y2 gives
        if chain.second is not None:
            y2, multiple, axis = blown_down_second_fibration(
                chain.s_tilde, chain.phi_tilde, chain.second.moved_section
            )
            assert multiple == chain.second.multiple, seq
            assert axis == chain.second.fiber_class_upstairs, seq
            checked.append(y2)
        for surface in checked:
            assert_passes_the_checked_constructor(surface)
        derived.clear()
        # Y and S~ blown down at each exceptional class, and S~ at the moved
        # section, give the surface, labels and embedding of the kernel
        # oracle: in closed form where the class's Gram row ends in a unit,
        # by the kernel elsewhere
        cases = [(s, c) for s in (chain.y, chain.s_tilde) for _, c in s.history]
        if chain.second is not None:
            cases.append((chain.s_tilde, chain.second.moved_section))
        for surface, e in cases:
            assert blow_down_with_embedding(surface, e) == kernel_blow_down(surface, e), seq
        if n == 8:
            assert not report.rank_ok and not report.verdict, seq
            assert chain.phi.modulus == (2 if chain.complement.roots.representatives else 1)
            continue
        assert chain.phi.evaluate(chain.y.boundary_sum()) == 0, seq
        assert is_generic(chain.phi, chain.complement.roots), seq
        assert report.verdict and report.witnesses["m"] == 10 - n, seq
        for g in chain.g_family:
            assert list(_classify_by_fixed_lattice(g).fixed_isotropic) == report.witnesses["fixed_line"], seq
    assert moduli == CENSUS[n]


def _record_unchecked(monkeypatch) -> list:
    """(class name, calling function, value) for every value built through
    ``lattice._unchecked`` from now until the test ends, under each name a
    cuspcheck module holds it by."""
    built = []
    real = cuspcheck.lattice._unchecked

    def recorded(cls, **values):
        built.append((cls.__name__, sys._getframe(1).f_code.co_name, real(cls, **values)))
        return built[-1][2]

    for name, module in list(sys.modules.items()):
        if name.startswith("cuspcheck") and getattr(module, "_unchecked", None) is real:
            monkeypatch.setattr(module, "_unchecked", recorded)
    return built


# every formula that builds a value unchecked, by the class it builds; the
# toric seed and every blow-up and blow-down build theirs in _derived
UNCHECKED_SITES = {
    ("GramLattice", "_derived"),
    ("LooijengaSurface", "_derived"),
    ("GramLattice", "as_lattice"),
    ("Sublattice", "_unit_column_complement"),
    ("GramLattice", "boundary_definiteness"),
    ("GramLattice", "classify_configuration"),
    ("Isometry", "eichler_transvection"),
    ("Isometry", "compose"),
}


@pytest.mark.parametrize(
    "n", ["paper", *sorted(CENSUS)], ids=lambda n: n if n == "paper" else f"cycle-{n}"
)
def test_every_unchecked_value_passes_its_checked_constructor(n, rng, monkeypatch):
    # each value that a formula builds without its constructor's check equals
    # its checked rebuild: on the paper's run_pipeline, and on each census
    # chain (blown up in a seeded order) with run_criterion at N = 30 and its
    # translations and transvection families classified, with the pairwise
    # products of each family, so that compose and the Fix(g^2) lattices of
    # the hyperbolic products build too
    built = _record_unchecked(monkeypatch)
    if n == "paper":
        assert cuspcheck.pipeline.run_pipeline()["all_pass"]
        chains = [_Chain(make_config(), SEED_SEQUENCE, BLOWUP_COMPONENTS)]
        # Y2's period kills both components of its extra I2 fiber, the one
        # such fiber of a period of modulus > 1 in the suite
        (_, phi2), fib2 = chains[0].y2, chains[0].fib2
        assert [phi2.evaluate(c) for f in fib2.reducible_fibers[1:] for c in f.classes] == [0, 0]
        # verify-paper composes nothing: its isometries are all unipotent
        want = UNCHECKED_SITES - {("Isometry", "compose")}
    else:
        chains = []
        for seq in fan_seeds(n):
            order = [i + 1 for i, a in enumerate(seq) for _ in range(a + 2)]
            rng.shuffle(order)
            chains.append(chain := _Chain(make_config(), seq, order))
            run_criterion(chain.s_tilde, chain.phi, 30)
            for pool in (chain.translations, chain.g_family + chain.h_family):
                for g in pool + [a.compose(b) for a, b in itertools.product(pool, repeat=2)]:
                    classify_isometry(g)
        # only verify-paper's rows read boundary Grams and Y2's extra fiber
        want = UNCHECKED_SITES - {
            ("GramLattice", "boundary_definiteness"),
            ("GramLattice", "classify_configuration"),
        }
    # the identities that the chain's formulas prove, and no longer check,
    # hold on every chain
    for chain in chains:
        y, fib, phi, cert = chain.y, chain.fib1, chain.phi, chain.cert
        # every translation fixes every boundary component
        assert all(g.apply(d) == d for g in chain.translations for d in y.boundary)
        # the moved section c2 is a (-1)-class through the blown-up point
        c0 = fib.zero_section
        c2 = move_section(y.picard, fib, _translation_witness(y.picard, phi, chain.tvecs))
        assert y.picard.square(c2) == -1
        assert phi.evaluate([a - b for a, b in zip(c2, c0)]) == 0
        # the certificate's roots are the strict transforms c0 - E and c2 - E,
        # both in M, and pair to at least 2
        a1, a2 = tuple(c0) + (-1,), tuple(c2) + (-1,)
        assert chain.m_sub.contains(a1) and chain.m_sub.contains(a2)
        assert (chain.m_sub.coords_of(a1), chain.m_sub.coords_of(a2)) == (cert.root1, cert.root2)
        assert chain.m_sub.as_lattice().pair(cert.root1, cert.root2) >= 2
    for _, _, value in built:
        assert_passes_the_checked_constructor(value)
    assert {(kind, site) for kind, site, _ in built} == want


_COUNTED = ("lattice", "pairing", "surface", "apply", "period")


def _count_value_checks(monkeypatch) -> Counter:
    """Runs of ``GramLattice.__post_init__`` ("lattice"), of
    ``checker.preserves_gram`` under each name a cuspcheck module holds it
    by ("pairing"), of ``LooijengaSurface.__post_init__`` ("surface"), of
    ``Isometry.apply`` ("apply") and of ``PeriodPoint.__post_init__``
    ("period"), from now until the test ends."""
    counts = Counter()
    real_init, real_check = GramLattice.__post_init__, cuspcheck.checker.preserves_gram
    for key, cls, name in (
        ("surface", cuspcheck.surface.LooijengaSurface, "__post_init__"),
        ("apply", Isometry, "apply"),
        ("period", PeriodPoint, "__post_init__"),
    ):
        def counted(*args, _key=key, _real=getattr(cls, name)):
            counts[_key] += 1
            return _real(*args)

        monkeypatch.setattr(cls, name, counted)

    def init(self):
        counts["lattice"] += 1
        real_init(self)

    def check(gram, matrix):
        counts["pairing"] += 1
        return real_check(gram, matrix)

    monkeypatch.setattr(GramLattice, "__post_init__", init)
    for name, module in list(sys.modules.items()):
        if name.startswith("cuspcheck") and getattr(module, "preserves_gram", None) is real_check:
            monkeypatch.setattr(module, "preserves_gram", check)
    return counts


def test_one_pipeline_run_and_one_survey_round_check_each_value_once(rng, monkeypatch):
    # a run builds every lattice and surface by a formula, its only pairing
    # checks are the checker's, of the two G and two H members it is handed,
    # it moves a section twice (the certificate's and the second fibration's),
    # and it builds three periods: phi, phi~ and Y2's
    counts = _count_value_checks(monkeypatch)
    assert cuspcheck.pipeline.run_pipeline()["all_pass"]
    assert [counts[k] for k in _COUNTED] == [0, 4, 0, 2, 3]
    # one survey round, as the survey benchmark runs it: every census seed
    # blown up in a seeded order, its complement's roots, a period, the
    # fibration and, with a section, its translations classified
    counts.clear()
    supported = 0
    for n in sorted(CENSUS):
        for seq in fan_seeds(n):
            order = [i + 1 for i, a in enumerate(seq) for _ in range(a + 2)]
            rng.shuffle(order)
            tags = _survey_op(seq, order)
            if tags is not None:
                supported += 1
                assert set(tags) <= {"parabolic"}, seq
    assert supported == 39
    # one period per seed, read by analyze_fibration on the basis it was solved on
    assert [counts[k] for k in _COUNTED] == [0, 0, 0, 0, 91]


def _survey_op(seq, order) -> list[str] | None:
    """One operation of the survey benchmark: the seed blown up in ``order``,
    its complement's roots, a period, the fibration and, with a section, the
    tags of its translations; None when the fibration is refused."""
    y = toric_from_sequence(seq)
    for comp in order:
        y = interior_blowup(y, comp)
    lam = boundary_complement(y).sublattice
    roots = vectors_of_square(lam.as_lattice(), -2)
    constraints = [(y.boundary_sum(), "zero")]
    if roots.representatives:
        constraints.append((lam.embed(canonical_root(roots)), "nonzero"))
    try:
        fib = analyze_fibration(y, solve_period(lam, constraints))
    except InputError:
        return None
    if not fib.has_section:
        return []
    return [classify_isometry(g).tag for g in mw_translation_group(y, fib)]


def _survey_round(seed: int, index: int):
    """(seed, blow-up order) of round ``index`` of the survey benchmark at
    ``seed``: every census seed in a seeded order, each blown up a_i + 2
    times at component i in a seeded order, drawn as the benchmark draws them."""
    rng = random.Random(f"survey:{seed}:{index}")
    seeds = [seq for n in sorted(CENSUS) for seq in fan_seeds(n)]
    rng.shuffle(seeds)
    for seq in seeds:
        order = [i + 1 for i, a in enumerate(seq) for _ in range(a + 2)]
        rng.shuffle(order)
        yield seq, order


# the eliminations a boundary complement or a transvection's line can take
_FACT_WORK = {
    "inertia": cuspcheck.intcore,
    "right_kernel": cuspcheck.intlinalg,
    "hnf_transform": cuspcheck.intlinalg,
    "_hermite": cuspcheck.intcore,
    "snf_transform": cuspcheck.intlinalg,
    "unipotent_line": cuspcheck.checker,
}


def test_complements_and_transvections_take_the_facts_they_are_handed(monkeypatch):
    # a complement of a (-2)-cycle or of a negative definite cycle in a
    # (1, n - 1) Pic is handed its signature and radical, and an Eichler
    # transvection its fixed line, so neither is eliminated again
    calls = count_calls(monkeypatch, _FACT_WORK)
    assert cuspcheck.pipeline.run_pipeline()["all_pass"]
    # inertia: the boundary Grams of Y and S~, Y2's extra fiber, the
    # checker; right_kernel: the small kernels of Y, S~ and Y2, the H
    # family's orthogonal, the fiber classification; unipotent_line: the
    # stage rows' reads of G and H, the translations, the checker's
    assert [calls[k] for k in _FACT_WORK] == [4, 5, 9, 16, 8, 10], calls
    calls.clear()
    supported = sum(_survey_op(seq, order) is not None for seq, order in _survey_round(1, 0))
    # inertia: none, as each toric seed is handed its signature;
    # right_kernel: the small kernels of the complements with a component
    # that has no exceptional class; unipotent_line: none, as every
    # translation is handed its line
    assert supported == 39
    assert [calls[k] for k in _FACT_WORK] == [0, 79, 158, 237, 221, 0], calls


def test_paper_run_presents_each_saturated_span_once(monkeypatch):
    # a Sublattice's one Hermite form gives its coordinates and membership,
    # only a complement takes a Smith form, Y2's blow-down is read off in
    # closed form, the transvection families saturate their axis only inside
    # its orthogonal, a one-row saturation takes no kernel, rows saturated by
    # construction (the enumerations' radicals, the transvection axes, the
    # translation span) go to their Smith complement with no Sublattice, and
    # pairing rows ending in unit columns are read off with no Sublattice and
    # no rank: count every Hermite elimination, with or without a transform,
    # and every Smith form
    calls = count_eliminations(monkeypatch)
    cuspcheck.pipeline.run_pipeline()
    assert calls["snf_transform"] == (
        5  # complements: the root sections of Y and Y2, two transvection families, the translation span
        + 1  # the period solve
        + 2  # the wedge point: its pairing matrix and its solve_int
    ), calls
    # the toric seed, read off its fan, makes none, and neither does Y2's blow-down;
    # the G family's orthogonal, a row of unit last entry, makes none
    sublattices = 1  # the H family's orthogonal, the one checked Sublattice
    coordinates = 3  # the small kernels of the boundary complements of Y, S~ and Y2
    kernels = (
        3  # the small kernels: the rows of Y's, S~'s and Y2's components with no exceptional column
        + 1  # the H family's orthogonal
        + 1  # the radical of one fiber classification; the enumerations of Y and Y2 are handed theirs
    )
    assert calls["hnf_transform"] == sublattices + coordinates + kernels, calls
    assert calls["_hermite"] == (
        sublattices + coordinates + kernels  # each hnf_transform runs one
        + kernels  # the row form that makes each kernel basis canonical
        + 2  # ranks: one extra-fiber check, the criterion's
    ), calls


def test_paper_run_blows_y2_down_in_closed_form(monkeypatch):
    # the moved section c_q = (0,1,1,0,0,0,-1,0,0,0,0) has Gram row
    # p = (1,0,0,1,0,0,1,0,0,0,0), whose last nonzero entry is a unit: Y2's
    # blow-down reads v^perp off p, with no kernel and no Sublattice
    inside, entered, left = [], [], []
    real = cuspcheck.pipeline.blow_down_with_embedding

    def probe(surface, cls):
        entered.append(cls)
        inside.append(True)
        try:
            return real(surface, cls)
        finally:
            inside.pop()

    def watch(name, fn):
        def watched(*a, **kw):
            if inside:
                left.append(name)
            return fn(*a, **kw)

        return watched

    monkeypatch.setattr(cuspcheck.pipeline, "blow_down_with_embedding", probe)
    monkeypatch.setattr(
        cuspcheck.surface,
        "orthogonal_complement",
        watch("orthogonal_complement", cuspcheck.surface.orthogonal_complement),
    )
    monkeypatch.setattr(
        cuspcheck.lattice.Sublattice,
        "__post_init__",
        watch("Sublattice", cuspcheck.lattice.Sublattice.__post_init__),
    )
    report = cuspcheck.pipeline.run_pipeline()
    assert entered == [(0, 1, 1, 0, 0, 0, -1, 0, 0, 0, 0)] and left == []
    assert report == json.loads(GOLDEN.read_text())


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
