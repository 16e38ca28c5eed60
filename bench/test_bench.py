"""Tests of the benchmark itself: input generation, output checks, tracing.

    python3 -m pytest bench
"""

import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_S, Gauge  # noqa: E402
from tracing import Node, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, load_cuspcheck  # noqa: E402


@pytest.fixture(scope="module")
def cc():
    return load_cuspcheck()


def run_once(wl, cc, state, item):
    result = run.Run()
    run.run_pass(wl, cc, state, [item], result)
    return result.verdicts


# ------------------------------------------------------------ input generation

def test_toric_seeds_cover_lengths_3_to_8():
    seeds = workloads.toric_seeds()
    assert len(seeds) == 91
    assert Counter(len(s) for s in seeds) == {3: 1, 4: 5, 5: 15, 6: 31, 7: 21, 8: 18}
    assert (-1, -2, -1, -1, -1, -1, -2) in seeds


def test_generators_repeat_for_the_same_seed_only():
    seeds = workloads.toric_seeds()
    assert workloads.survey_round(5, 0, seeds) == workloads.survey_round(5, 0, seeds)
    assert workloads.survey_round(5, 0, seeds) != workloads.survey_round(6, 0, seeds)
    assert workloads.survey_round(5, 0, seeds) != workloads.survey_round(5, 1, seeds)
    assert sorted(s for s, _ in workloads.survey_round(5, 3, seeds)) == sorted(seeds)
    picks = workloads.period_choices(5, seeds)
    assert picks == workloads.period_choices(5, seeds)
    assert picks != workloads.period_choices(6, seeds)
    assert [len(s) for s in picks] == list(range(3, 9))
    for seq, order in workloads.survey_round(5, 0, seeds):
        assert Counter(order) == {i + 1: a + 2 for i, a in enumerate(seq) if a + 2}


# ---------------------------------------------------------------------- checks

def test_paper_check_rejects_a_flipped_golden_byte(cc, tmp_path):
    wl = WORKLOADS["paper"]
    state = wl.setup(cc, 0, tmp_path)
    assert run_once(wl, cc, state, None) == {"ok": 1}
    golden = bytearray(state.golden)
    golden[len(golden) // 2] ^= 1
    state.golden = bytes(golden)
    attempted, failed, _ = run.verdict_summary(run_once(wl, cc, state, None))
    assert failed / attempted == 1


@pytest.mark.parametrize("code, report, verdict", [
    (0, {"verdict": True, "witnesses": {"distinct_chambers": 401}}, "ok"),
    (0, {"verdict": True, "witnesses": {"distinct_chambers": 400}}, "failed"),
    (0, {"verdict": False, "witnesses": {"distinct_chambers": 401}}, "failed"),
    (2, {"verdict": True, "witnesses": {"distinct_chambers": 401}}, "failed"),
    (0, {"verdict": True}, "failed"),
])
def test_walk_check(code, report, verdict):
    out = (code, json.dumps(report))
    assert WORKLOADS["walk"].check(None, 400, out) == [verdict]


def survey_output(cc, seq):
    wl = WORKLOADS["survey"]
    item = (seq, workloads.blowup_order(seq, workloads.random.Random(0)))
    return wl, item, wl.op(cc, None, item)


def test_survey_check_accepts_and_rejects(cc):
    wl, item, out = survey_output(cc, (-1, -2, -1, -1, -1, -1, -2))
    assert wl.check(None, item, out) == ["ok"]
    fib = out.fibration
    corrupt = [
        dataclasses.replace(out, roots=dataclasses.replace(
            out.roots, representatives=(out.roots.representatives[0],) * 3)),
        dataclasses.replace(out, phi=dataclasses.replace(out.phi, values=(0,) * out.phi.domain.rank)),
        dataclasses.replace(out, tags=["hyperbolic"] * len(out.tags)),
        dataclasses.replace(out, fibration=dataclasses.replace(fib, mw_rank=fib.mw_rank + 1)),
        dataclasses.replace(out, unsupported="unsupported root system", fibration=None),
    ]
    for bad in corrupt:
        assert wl.check(None, item, bad) == ["failed"]


def test_survey_counts_a_refused_root_system_as_unsupported(cc):
    wl, item, out = survey_output(cc, (0, 0, -1, -1, -1))
    assert len(out.roots.representatives) == 20
    assert wl.check(None, item, out) == (["unsupported"] if out.unsupported else ["ok"])


def test_period_check(cc, tmp_path):
    wl = WORKLOADS["period"]
    state = wl.setup(cc, 0, tmp_path)
    cheap = tuple(i for i, r in enumerate(state.requests) if r.coxeter <= 5)
    assert wl.check(state, cheap, wl.op(cc, state, cheap)) == ["ok"] * len(cheap)
    e6 = next(i for i, r in enumerate(state.requests) if r.coxeter == 12)
    found = [cc.errors.InputError("no feasible modulus <= 8")]
    assert wl.check(state, (e6,), found) == ["ok"]
    assert wl.check(state, (e6,), [SimpleNamespace(modulus=8, values=())]) == ["failed"]
    i = cheap[0]
    answer = wl.op(cc, state, (i,))[0]
    wrong = SimpleNamespace(modulus=answer.modulus + 1, values=answer.values)
    assert wl.check(state, (i,), [wrong]) == ["failed"]
    zero = SimpleNamespace(modulus=answer.modulus, values=(0,) * len(answer.values))
    assert wl.check(state, (i,), [zero]) == (["ok"] if not state.requests[i].root_coords
                                             else ["failed"])
    assert wl.check(state, (i,), [cc.errors.InputError("x")]) == ["failed"]


# ----------------------------------------------------------------- speed gauge

def test_gauge_drops_its_own_readings_and_scales_by_speed():
    gauge = Gauge()
    r = REFERENCE_S
    gauge.readings = [(0.0, 0.01, r), (2.0, 2.01, 2 * r), (4.0, 4.01, 2 * r), (7.0, 7.01, r)]
    # readings 0..2 cover the interval and a second on each side; reading 1
    # lies inside it
    assert gauge.adjust(1.5, 2.5) == pytest.approx((1.0 - 0.01) * 3 / 5)
    assert gauge.adjust(8.5, 9.0) == pytest.approx(0.5)
    assert gauge.scale(4.5, 5.5) == pytest.approx(2 / 3)
    gauge.read()
    assert len(gauge.readings) == 5 and gauge.readings[-1][2] > 0


# --------------------------------------------------------------------- tracing

def test_self_times_on_a_hand_built_tree():
    nodes = [
        Node("a", None, 0, count=1, total=10.0),
        Node("b", 0, 0, count=1, total=4.0),
        Node("c", 1, 0, aggregate=True, count=3, total=1.5),
        Node("d", 0, 0, aggregate=True, count=7, total=2.0),
        Node("e", 3, 0, aggregate=True, count=7, total=0.5),
    ]
    assert self_times(nodes) == [4.0, 2.5, 1.5, 1.5, 0.5]
    assert sum(self_times(nodes)) == nodes[0].total


def test_tracer_wraps_every_import_and_restores(cc):
    original = cc.surface.boundary_complement
    pair = cc.lattice.GramLattice.__dict__["pair"]
    y = cc.surface.toric_from_sequence((-1, -2, -1, -1, -1, -1, -2))
    for comp in (1, 3, 4, 5, 6):
        y = cc.surface.interior_blowup(y, comp)
    tracer = Tracer()
    tracer.install(cc)
    try:
        assert cc.fibration.boundary_complement is cc.surface.boundary_complement
        assert cc.surface.boundary_complement is not original
        tracer.op = 0
        cc.fibration.boundary_complement(y)
    finally:
        tracer.uninstall()
    assert cc.surface.boundary_complement is original
    assert cc.fibration.boundary_complement is original
    assert cc.lattice.GramLattice.__dict__["pair"] is pair
    names = list(run.declared("per_layer"))
    metrics = tracer.layer_metrics(names, 1)
    assert metrics["surface.boundary_complement.calls"] == 1
    assert metrics["lattice.pair.calls"] > 0
    assert set(names) - set(metrics) == {"trace.overhead_ratio"}


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
