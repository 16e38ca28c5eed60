"""Benchmark of cuspcheck: four closed-loop workloads with checked outputs.

    python3 bench/run.py --workload paper|walk|survey|period|all \
        --seed N --seconds S --trace 0|1

Run from any directory; the program is imported from ``src/`` next to this
directory, and the benchmark exits with code 2 when it is missing.

``--trace 0`` measures with tracing off and reports the end-to-end metrics
(BENCHMARK.json ``end_to_end``).  ``--trace 1`` first runs the workload
untraced for a third of the time, then replays exactly the same operations
with every layer wrapped (see ``tracing.py``) and reports the per-layer
metrics, per operation, plus the tracing overhead; on ``walk`` it also prints
the chamber-walk scaling curve.  ``--workload all`` runs the four workloads
one after another, each in its own process.

Times are reported at a fixed reference processor speed (see ``speed.py``);
the diagnostic line before the result also gives them as timed.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts checked
outputs: one per operation, six per ``period`` sweep.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from speed import Gauge
from tracing import Tracer
from workloads import WALK_SCALING, WORKLOADS, Walk, load_cuspcheck

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 5
TRACE_REFERENCE_SHARE = 1 / 3



def declared(kind: str) -> dict[str, str]:
    """Metric names and units of one kind, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@dataclass
class Run:
    spans: list[tuple[float, float]] = field(default_factory=list)
    verdicts: Counter = field(default_factory=Counter)
    passes: list[list] = field(default_factory=list)

    def raw_times(self) -> list[float]:
        return [end - start for start, end in self.spans]

    def times(self, gauge: Gauge) -> list[float]:
        """Operation times at the reference speed."""
        return [gauge.adjust(start, end) for start, end in self.spans]


def run_pass(wl, cc, state, batch, run: Run, tracer=None) -> None:
    """Run, time and check each operation of one pass."""
    for item in batch:
        if tracer is not None:
            tracer.op = len(run.spans)
        start = perf_counter()
        try:
            out = wl.op(cc, state, item)
        except Exception:
            run.spans.append((start, perf_counter()))
            if not run.verdicts["failed"]:
                traceback.print_exc(file=sys.stderr)
            run.verdicts["failed"] += wl.outputs(item)
            continue
        run.spans.append((start, perf_counter()))
        run.verdicts.update(wl.check(state, item, out))
    run.passes.append(batch)


def measure(wl, cc, state, seconds: float, gauge: Gauge) -> Run:
    """Whole passes over the workload's inputs until ``seconds`` have gone by."""
    run = Run()
    start = perf_counter()
    for batch in wl.passes(state):
        run_pass(wl, cc, state, batch, run)
        if perf_counter() - start >= seconds:
            break
    gauge.read()
    return run


def set_up(wl, seed: int, workdir: str, gauge: Gauge):
    """Import, generate inputs, write files and warm up, SETUP_REPEATS times.

    Returns the last set-up and the median set-up time at the reference speed."""
    seconds = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        cc = load_cuspcheck()
        state = wl.setup(cc, seed, workdir)
        wl.warm_up(cc, state)
        end = perf_counter()
        gauge.read()
        seconds.append(gauge.adjust(start, end))
    return cc, state, statistics.median(seconds)


def tail(times: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    k = n - 10
    if 2 * k < n:
        return "tail n/a (needs 20 samples)"
    return f"p{100 * k // n}={sorted(times)[k - 1]:.6f}s"


def verdict_summary(verdicts: Counter) -> tuple[int, int, int]:
    attempted = sum(verdicts.values())
    return attempted, verdicts["failed"], verdicts["unsupported"]


def result_line(verdicts: Counter, metrics: dict[str, tuple[float, str]]) -> str:
    attempted, failed, _ = verdict_summary(verdicts)
    return json.dumps({
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def end_to_end(wl, cc, state, setup_s: float, seconds: float, gauge: Gauge) -> tuple[Counter, dict]:
    run = measure(wl, cc, state, seconds, gauge)
    times, raw = run.times(gauge), run.raw_times()
    attempted, failed, unsupported = verdict_summary(run.verdicts)
    print(
        f"{wl.name}: {len(times)} ops in {len(run.passes)} passes, "
        f"p50={statistics.median(times):.6f}s {tail(times)} at reference speed, "
        f"p50={statistics.median(raw):.6f}s and {len(raw) / sum(raw):.6g} ops/s as timed, "
        f"failed_ratio={failed / attempted:.4f} "
        f"unsupported_ratio={unsupported / attempted:.4f} ({unsupported}/{attempted})"
    )
    values = {
        "op_p50_s": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "supported_ratio": 1 - unsupported / attempted,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return run.verdicts, {k: (values[k], unit) for k, unit in declared("end_to_end").items()}


def traced(wl, cc, state, seed: int, seconds: float, gauge: Gauge) -> tuple[Counter, dict]:
    reference = measure(wl, cc, state, seconds * TRACE_REFERENCE_SHARE, gauge)
    tracer = Tracer()
    replay = Run()
    gauge.on_read = tracer.exclude
    tracer.install(cc)
    try:
        for batch in reference.passes:
            run_pass(wl, cc, state, batch, replay, tracer)
    finally:
        tracer.uninstall()
        gauge.on_read = None
    gauge.read()
    verdicts = reference.verdicts + replay.verdicts
    scale = gauge.scale(replay.spans[0][0], replay.spans[-1][1])
    units = declared("per_layer")
    values = tracer.layer_metrics(list(units), len(replay.spans), scale)
    values["trace.overhead_ratio"] = sum(replay.times(gauge)) / sum(reference.times(gauge))
    overhead = values["trace.overhead_ratio"]
    print(f"{wl.name}: traced {len(replay.spans)} ops, overhead x{overhead:.3f}")
    for layer, share in tracer.layer_shares(sum(gauge.net(*span) for span in replay.spans)):
        print(f"  self-time share {layer:<24} {100 * share:6.2f} %")
    if isinstance(wl, Walk):
        for n in WALK_SCALING:
            start = perf_counter()
            out = wl.op(cc, state, n)
            end = perf_counter()
            gauge.read()
            verdicts.update(wl.check(state, n, out))
            print(f"  walk scaling: witness count {n:>5}: {gauge.adjust(start, end):.4f} s "
                  f"at reference speed, {end - start:.4f} s as timed (one op, untraced)")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{wl.name}-seed{seed}.json")
    return verdicts, {k: (values[k], units[k]) for k in units}


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    verdicts, metrics = Counter(), {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        verdicts.update(ok=result["attempted"] - result["failed"], failed=result["failed"])
        for key, metric in result["metrics"].items():
            print(f"  {name}.{key} = {metric['value']:.6g} {metric['unit']}")
            metrics[f"{name}.{key}"] = (metric["value"], metric["unit"])
    print(result_line(verdicts, metrics))
    return 0 if verdicts["failed"] == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cuspcheck" / "__init__.py").is_file():
        print(f"error: the program's sources are missing: {SRC / 'cuspcheck'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir, Gauge() as gauge:
        gauge.read()
        cc, state, setup_s = set_up(wl, args.seed, workdir, gauge)
        if args.trace:
            verdicts, metrics = traced(wl, cc, state, args.seed, args.seconds, gauge)
        else:
            verdicts, metrics = end_to_end(wl, cc, state, setup_s, args.seconds, gauge)
    print(result_line(verdicts, metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
