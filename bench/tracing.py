"""Outside-in tracing of cuspcheck's layers, installed by the benchmark.

Nothing in the program is changed on disk.  ``Tracer.install`` replaces each
listed public function in its defining module and under every name another
cuspcheck module imported it as, and replaces listed methods on their class;
``uninstall`` puts the originals back.

Each call of a stage function becomes a span node (name, start, end, parent,
op id).  Calls of hot primitives, and everything they call, are folded into
one aggregate node per (parent, name, op) that holds a call count and a total,
so a chamber walk does not allocate a node per pairing.  A node's self time is
its total minus the totals of its children; calls never overlap, because the
benchmark runs one operation at a time on one thread.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from time import perf_counter

# (metric prefix, module, attribute); "Class.method" patches the class.
SPANS = [
    ("cli.main", "cli", "main"),
    ("pipeline.run_pipeline", "pipeline", "run_pipeline"),
    ("pipeline.run_criterion", "pipeline", "run_criterion"),
    ("pipeline.second_fibration", "pipeline", "second_fibration"),
    ("surface.boundary_complement", "surface", "boundary_complement"),
    ("surface.blow_down_with_embedding", "surface", "blow_down_with_embedding"),
    ("enumeration.vectors_of_square", "enumeration", "vectors_of_square"),
    ("period.solve_period", "period", "solve_period"),
    ("fibration.analyze_fibration", "fibration", "analyze_fibration"),
    ("fibration.translation_vectors", "fibration", "translation_vectors"),
    ("fibration.mw_translation_group", "fibration", "mw_translation_group"),
    ("fibration.isotropic_transvection_group", "fibration", "isotropic_transvection_group"),
    ("isometry.classify_isometry", "isometry", "classify_isometry"),
    ("weyl.chamber_certificate", "weyl", "chamber_certificate"),
    ("weyl.totaro_check", "weyl", "totaro_check"),
    ("weyl.weyl_infiniteness_certificate", "weyl", "weyl_infiniteness_certificate"),
]
HOT = [
    ("lattice.pair", "lattice", "GramLattice.pair"),
    ("lattice.signature", "lattice", "signature"),
    ("lattice.coords_of", "lattice", "Sublattice.coords_of"),
    ("intlinalg.charpoly", "intlinalg", "charpoly"),
    ("intlinalg.hnf_transform", "intlinalg", "hnf_transform"),
    ("intlinalg.snf_transform", "intlinalg", "snf_transform"),
    ("intlinalg.solve_int", "intlinalg", "solve_int"),
    ("isometry.compose", "isometry", "Isometry.compose"),
    ("weyl.chamber_sign", "weyl", "chamber_sign"),
    ("fibration.eichler_transvection", "fibration", "eichler_transvection"),
    ("surface.interior_blowup", "surface", "interior_blowup"),
]
# jsonio is traced as two groups: every encoder and every decoder.
JSONIO_GROUPS = {
    "jsonio.encode": ("canonical_dumps", "_to_dict"),
    "jsonio.decode": ("loads", "_from_dict"),
}

class Node:
    """A span (count 1) or an aggregate of calls under one parent."""

    __slots__ = ("name", "parent", "op", "start", "end", "count", "total", "aggregate", "tag")

    def __init__(self, name, parent, op, aggregate=False, start=0.0, end=0.0,
                 count=0, total=0.0, tag=None):
        self.name, self.parent, self.op, self.aggregate = name, parent, op, aggregate
        self.start, self.end, self.count, self.total, self.tag = start, end, count, total, tag

    def as_dict(self, node_id: int) -> dict:
        return {"id": node_id, **{k: getattr(self, k) for k in self.__slots__}}


def self_times(nodes: list[Node]) -> list[float]:
    """Each node's total minus the totals of its direct children."""
    covered = [0.0] * len(nodes)
    for node in nodes:
        if node.parent is not None:
            covered[node.parent] += node.total
    return [node.total - c for node, c in zip(nodes, covered)]


# Probes see each finished call and record what a plain count cannot.

def _classify_probe(tracer, node, args, result, exc):
    g = args[0]
    tracer.distinct["isometry.classify_isometry", node.op].add((g.ambient.gram, g.matrix))


def _enumeration_probe(tracer, node, args, result, exc):
    tracer.distinct["enumeration.vectors_of_square", node.op].add(args[0].gram)
    if result is not None:
        tracer.counts["enumeration.vectors_returned"] += len(result.representatives)


def _complement_probe(tracer, node, args, result, exc):
    surface = args[0]
    tracer.distinct["surface.boundary_complement", node.op].add(
        (surface.picard.gram, surface.boundary)
    )


def _period_probe(tracer, node, args, result, exc):
    node.tag = "found" if exc is None else "infeasible"


def _dumps_probe(tracer, node, args, result, exc):
    if result is not None:
        tracer.counts["jsonio.bytes_out"] += len(result.encode("utf-8"))


def _loads_probe(tracer, node, args, result, exc):
    tracer.counts["jsonio.bytes_in"] += len(args[0].encode("utf-8"))


PROBES = {
    ("isometry", "classify_isometry"): _classify_probe,
    ("enumeration", "vectors_of_square"): _enumeration_probe,
    ("surface", "boundary_complement"): _complement_probe,
    ("period", "solve_period"): _period_probe,
    ("jsonio", "canonical_dumps"): _dumps_probe,
    ("jsonio", "loads"): _loads_probe,
}


class Tracer:
    """Collects nodes in memory while installed; ``op`` tags new nodes."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct: dict[tuple, set] = defaultdict(set)
        self.excluded = 0.0
        self._aggregates: dict[tuple, int] = {}
        self._restore: list[tuple] = []

    # -------------------------------------------------------------- patching

    def install(self, cc) -> None:
        targets = [(name, mod, attr, False) for name, mod, attr in SPANS]
        targets += [(name, mod, attr, True) for name, mod, attr in HOT]
        for name, (exact, suffix) in JSONIO_GROUPS.items():
            for attr, obj in vars(cc.jsonio).items():
                if inspect.isfunction(obj) and obj.__module__ == cc.jsonio.__name__ and (
                    attr == exact or attr.endswith(suffix)
                ):
                    targets.append((name, "jsonio", attr, False))
        modules = list(vars(cc).values())
        for name, mod, attr, hot in targets:
            module = getattr(cc, mod)
            probe = PROBES.get((mod, attr))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, hot, probe))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, hot, probe)
            for m in modules:
                for key, obj in list(vars(m).items()):
                    if obj is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)

    def exclude(self, seconds: float) -> None:
        """Leave out of every open call's time an interruption of this length
        (a speed-gauge reading)."""
        self.excluded += seconds

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _wrap(self, name, fn, hot, probe):
        nodes, stack, aggregates = self.nodes, self.stack, self._aggregates

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if hot or (parent is not None and nodes[parent].aggregate):
                key = (parent, name, self.op)
                node_id = aggregates.get(key)
                if node_id is None:
                    node_id = aggregates[key] = len(nodes)
                    nodes.append(Node(name, parent, self.op, aggregate=True))
            else:
                node_id = len(nodes)
                nodes.append(Node(name, parent, self.op))
            node = nodes[node_id]
            stack.append(node_id)
            result = exc = None
            excluded = self.excluded
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if node.count == 0:
                    node.start = start
                node.end = end
                node.count += 1
                node.total += end - start - (self.excluded - excluded)
                if probe is not None:
                    probe(self, node, args, result, exc)

        return traced

    # --------------------------------------------------------------- results

    def layer_metrics(self, names: list[str], ops: int, scale: float = 1.0) -> dict[str, float]:
        """The named per-layer metrics, per op; times are multiplied by
        ``scale``.  ``X.calls`` and ``X.self_s`` work for any traced X; the
        other names are the ones computed below."""
        calls: dict[str, int] = defaultdict(int)
        selfs: dict[str, float] = defaultdict(float)
        infeasible_self = 0.0
        tags: dict[str, int] = defaultdict(int)
        for node, own in zip(self.nodes, self_times(self.nodes)):
            calls[node.name] += node.count
            selfs[node.name] += own
            if node.tag is not None:
                tags[node.tag] += node.count
                if node.tag == "infeasible":
                    infeasible_self += own

        def distinct(name):
            return sum(len(v) for (n, _op), v in self.distinct.items() if n == name)

        def ratio(a, b):
            return a / b if b else 0.0

        out: dict[str, float] = {}
        for metric in names:
            prefix, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[prefix] / ops
            elif kind == "self_s":
                out[metric] = selfs[prefix] * scale / ops
        out["isometry.classify_isometry.distinct_ratio"] = ratio(
            distinct("isometry.classify_isometry"), calls["isometry.classify_isometry"]
        )
        out["enumeration.repeat_ratio"] = ratio(
            calls["enumeration.vectors_of_square"], distinct("enumeration.vectors_of_square")
        )
        out["surface.boundary_complement.repeat_ratio"] = ratio(
            calls["surface.boundary_complement"], distinct("surface.boundary_complement")
        )
        out["period.solve_period.infeasible_self_s"] = infeasible_self * scale / ops
        out["period.found"] = tags["found"] / ops
        out["period.infeasible"] = tags["infeasible"] / ops
        for name in ("enumeration.vectors_returned", "jsonio.bytes_out", "jsonio.bytes_in"):
            out[name] = self.counts[name] / ops
        return out

    def layer_shares(self, op_seconds: float) -> list[tuple[str, float]]:
        """Share of traced operation time spent in each layer's own code; the
        rest is the benchmark's own code between calls."""
        shares: dict[str, float] = defaultdict(float)
        for node, own in zip(self.nodes, self_times(self.nodes)):
            if node.op is not None:
                shares[node.name.split(".")[0]] += own
        shares["(outside traced calls)"] = op_seconds - sum(shares.values())
        return sorted(((k, v / op_seconds) for k, v in shares.items()), key=lambda kv: -kv[1])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([n.as_dict(i) for i, n in enumerate(self.nodes)], fh)
