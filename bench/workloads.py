"""Inputs, operations and output checks of the four benchmark workloads.

Each workload is a closed loop with one client.  An operation is what the
loop times: one ``verify-paper`` run (``paper``), one ``criterion check``
run (``walk``), one surface taken through the fibration chain (``survey``),
or one sweep of generic-period requests over six surfaces (``period``; its
single requests range from microseconds to seconds, so their median would
say nothing).  Every operation yields one verdict per output it produced:
``ok``, ``unsupported`` (a clean InputError from the fibration layer, only
on ``survey``) or ``failed``.

Input generation uses only this file and the workload seed, never the
program under test.  The checks recompute what they can with their own
integer arithmetic rather than trusting the library's helpers.
"""

from __future__ import annotations

import importlib
import io
import itertools
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "verify_paper_report.json"

MODULES = (
    "cli", "jsonio", "pipeline", "surface", "lattice", "intlinalg",
    "enumeration", "period", "fibration", "isometry", "weyl", "errors",
)

WALK_WITNESS_COUNT = 400
WALK_SCALING = (100, 400, 1000)
PERIOD_MODULUS_BOUND = 8
CYCLE_LENGTHS = range(3, 9)
PICARD_RANK = 10
# Square -2 classes of the boundary complement (coset representatives mod
# its rank-one radical) by cycle length: E6, D5, A4, A2+A1, A1, and A1 or
# nothing for length 8.
ROOT_COUNTS = {3: (72,), 4: (40,), 5: (20,), 6: (8,), 7: (2,), 8: (0, 2)}
# Smallest m with a homomorphism to Z/m nonzero on every root: the Coxeter
# number h (Kostant's bound on regular torsion elements).  With no roots
# nothing has to be nonzero and m = 1 already works.
COXETER_NUMBER = {72: 12, 40: 8, 20: 5, 8: 3, 2: 2, 0: 1}


def load_cuspcheck() -> SimpleNamespace:
    """Import cuspcheck afresh and return its modules by short name.

    Earlier imports are dropped first, so each set-up pays the import again.
    """
    for name in [n for n in sys.modules if n == "cuspcheck" or n.startswith("cuspcheck.")]:
        del sys.modules[name]
    importlib.import_module("cuspcheck")
    return SimpleNamespace(
        **{m: importlib.import_module(f"cuspcheck.{m}") for m in MODULES}
    )


def run_cli(cc: SimpleNamespace, argv: list[str]) -> tuple[int, str]:
    """Run ``cuspcheck.cli.main`` in process; return (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cc.cli.main(argv)
    return code, out.getvalue()


# ------------------------------------------------------------ input generation

def closes_into_fan(seq: tuple[int, ...]) -> bool:
    """Smooth complete toric fan test: rays v_{i+1} = -a_i v_i - v_{i-1}
    close up after one turn, and sum(a) = 12 - 3r (winding number one)."""
    r = len(seq)
    rays = [(1, 0), (0, 1)]
    for i in range(1, r + 1):
        a = seq[i % r]
        rays.append((-a * rays[i][0] - rays[i - 1][0], -a * rays[i][1] - rays[i - 1][1]))
    return rays[r] == rays[0] and rays[r + 1] == rays[1] and sum(seq) == 12 - 3 * r


def toric_seeds() -> list[tuple[int, ...]]:
    """Every sequence with entries in [-2, 1] and length 3..8 that closes into a fan."""
    return [
        seq
        for r in CYCLE_LENGTHS
        for seq in itertools.product(range(-2, 2), repeat=r)
        if closes_into_fan(seq)
    ]


def blowup_order(seq: tuple[int, ...], rng: random.Random) -> tuple[int, ...]:
    """Components (1-based) to blow up, a_i + 2 times each, in a seeded order,
    so that every boundary component ends as a (-2)-curve."""
    comps = [i + 1 for i, a in enumerate(seq) for _ in range(a + 2)]
    rng.shuffle(comps)
    return tuple(comps)


def survey_round(seed: int, index: int, seeds: list[tuple[int, ...]]) -> list[tuple]:
    """Round ``index`` of the survey: every toric seed once, in a seeded order,
    each with a fresh seeded blow-up order, so rounds do not repeat inputs."""
    rng = random.Random(f"survey:{seed}:{index}")
    order = list(seeds)
    rng.shuffle(order)
    return [(seq, blowup_order(seq, rng)) for seq in order]


def period_choices(seed: int, seeds: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """One seeded toric sequence per cycle length 3..8.

    The blow-ups of these surfaces go in ascending component order: the cost
    of the exhaustive E6 search depends on the basis that order produces, and
    a seeded order would make that cost differ from seed to seed."""
    rng = random.Random(f"period:{seed}")
    return [rng.choice([s for s in seeds if len(s) == r]) for r in CYCLE_LENGTHS]


# ------------------------------------------------------ own integer arithmetic

def pairing(gram, u, v) -> int:
    return sum(u[i] * gram[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def induced_gram(gram, basis) -> list[list[int]]:
    return [[pairing(gram, u, v) for v in basis] for u in basis]


def coords_in(basis, v) -> tuple[int, ...] | None:
    """Integer coordinates of v in the given independent rows, or None."""
    n, k = len(v), len(basis)
    # solve sum_i x_i basis[i] = v by elimination on the k x n system
    rows = [[Fraction(basis[i][j]) for i in range(k)] + [Fraction(v[j])] for j in range(n)]
    r = 0
    for c in range(k):
        p = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if p is None:
            return None
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    if any(rows[i][k] != 0 for i in range(r, n)):
        return None
    x = [rows[i][k] for i in range(k)]
    if any(c.denominator != 1 for c in x):
        return None
    return tuple(int(c) for c in x)


def value(values, modulus, coords) -> int:
    return sum(c * x for c, x in zip(coords, values)) % modulus


# ------------------------------------------------------------------ workloads

class Paper:
    """``verify-paper`` at the defaults; stdout must equal the golden report."""

    name = "paper"

    def setup(self, cc, seed, workdir):
        return SimpleNamespace(golden=GOLDEN.read_bytes())

    def passes(self, state):
        while True:
            yield [None]

    def warm_up(self, cc, state):
        self.op(cc, state, None)

    def op(self, cc, state, item):
        return run_cli(cc, ["verify-paper"])

    def outputs(self, item) -> int:
        return 1

    def check(self, state, item, out) -> list[str]:
        code, stdout = out
        return ["ok" if code == 0 and stdout.encode("utf-8") == state.golden else "failed"]


class Walk:
    """``criterion check`` on the paper's blown-up surface and period."""

    name = "walk"

    def setup(self, cc, seed, workdir):
        y = cc.surface.toric_from_sequence(cc.pipeline.SEED_SEQUENCE)
        for comp in cc.pipeline.BLOWUP_COMPONENTS:
            y = cc.surface.interior_blowup(y, comp)
        lam = cc.surface.boundary_complement(y).sublattice
        roots = cc.enumeration.vectors_of_square(lam.as_lattice(), -2)
        beta = lam.embed(cc.pipeline.canonical_root(roots))
        phi = cc.period.solve_period(lam, [(y.boundary_sum(), "zero"), (beta, "nonzero")])
        # the zero section of the paper's first fibration meets component 6
        tilde = cc.surface.interior_blowup(y, 6)
        surface_path = Path(workdir) / "walk_surface.json"
        period_path = Path(workdir) / "walk_period.json"
        surface_path.write_text(cc.jsonio.canonical_dumps(cc.jsonio.surface_to_dict(tilde)))
        period_path.write_text(cc.jsonio.canonical_dumps(cc.jsonio.period_to_dict(phi)))
        return SimpleNamespace(surface=str(surface_path), period=str(period_path))

    def passes(self, state):
        while True:
            yield [WALK_WITNESS_COUNT]

    def warm_up(self, cc, state):
        # the same code path as a timed operation, with a shorter walk
        self.op(cc, state, WALK_SCALING[0])

    def op(self, cc, state, item):
        return run_cli(cc, [
            "criterion", "check", "--surface", state.surface, "--period", state.period,
            "--witness-count", str(item),
        ])

    def outputs(self, item) -> int:
        return 1

    def check(self, state, item, out) -> list[str]:
        code, stdout = out
        if code != 0:
            return ["failed"]
        try:
            report = json.loads(stdout)
            ok = (
                report["verdict"] is True
                and report["witnesses"]["distinct_chambers"] == item + 1
            )
        except (ValueError, KeyError, TypeError):
            ok = False
        return ["ok" if ok else "failed"]


@dataclass
class SurveyOutput:
    surface: Any
    complement: Any
    roots: Any
    beta: tuple[int, ...] | None
    phi: Any
    unsupported: str | None = None
    fibration: Any = None
    tags: list[str] = field(default_factory=list)


class Survey:
    """Seeded admissible surfaces taken through complement, roots, period,
    fibration and (with a section) the translation group."""

    name = "survey"

    def setup(self, cc, seed, workdir):
        return SimpleNamespace(seed=seed, seeds=toric_seeds())

    def passes(self, state):
        for index in itertools.count():
            yield survey_round(state.seed, index, state.seeds)

    def warm_up(self, cc, state):
        self.op(cc, state, survey_round(state.seed, -1, state.seeds)[0])

    def op(self, cc, state, item):
        seq, order = item
        y = cc.surface.toric_from_sequence(seq)
        for comp in order:
            y = cc.surface.interior_blowup(y, comp)
        lam = cc.surface.boundary_complement(y).sublattice
        roots = cc.enumeration.vectors_of_square(lam.as_lattice(), -2)
        constraints = [(y.boundary_sum(), "zero")]
        beta = None
        if roots.representatives:
            beta = cc.pipeline.canonical_root(roots)
            constraints.append((lam.embed(beta), "nonzero"))
        phi = cc.period.solve_period(lam, constraints)
        out = SurveyOutput(y, lam, roots, beta, phi)
        try:
            out.fibration = cc.fibration.analyze_fibration(y, phi)
        except cc.errors.InputError as exc:
            out.unsupported = str(exc)
            return out
        if out.fibration.has_section:
            group = cc.fibration.mw_translation_group(y, out.fibration)
            out.tags = [cc.isometry.classify_isometry(g).tag for g in group]
        return out

    def outputs(self, item) -> int:
        return 1

    def check(self, state, item, out: SurveyOutput) -> list[str]:
        return ["failed" if survey_problem(item, out) else
                ("unsupported" if out.unsupported is not None else "ok")]


def survey_problem(item, out: SurveyOutput) -> str | None:
    """First thing wrong with a survey output, or None."""
    seq, _order = item
    gram = out.surface.picard.gram
    boundary = out.surface.boundary
    basis = out.complement.basis
    if len(boundary) != len(seq) or any(pairing(gram, b, b) != -2 for b in boundary):
        return "boundary is not a cycle of (-2)-curves"
    if any(pairing(gram, b, d) != 0 for b in basis for d in boundary):
        return "complement basis is not orthogonal to the boundary"
    reps = out.roots.representatives
    if len(reps) not in ROOT_COUNTS[len(seq)]:
        return f"{len(reps)} roots for cycle length {len(seq)}"
    lam_gram = induced_gram(gram, basis)
    if any(pairing(lam_gram, r, r) != -2 for r in reps):
        return "a root does not have square -2"
    m, values = out.phi.modulus, out.phi.values
    d = [sum(col) for col in zip(*boundary)]
    d_coords = coords_in(basis, d)
    if len(values) != len(basis) or d_coords is None or value(values, m, d_coords) != 0:
        return "period does not vanish on the boundary sum"
    if reps and (out.beta not in reps or value(values, m, out.beta) == 0):
        return "period vanishes on the chosen root"
    if out.unsupported is not None:
        # today only a single +/- root pair is handled; anything else may be
        # refused, but a refusal of the handled shape is a regression
        return None if len(reps) > 2 else f"refused a handled surface: {out.unsupported}"
    fib = out.fibration
    fibers = fib.reducible_fibers
    if any(pairing(gram, c, c) != -2 for f in fibers for c in f.classes):
        return "a fiber component is not a (-2)-class"
    rank = PICARD_RANK - 2 - sum(len(f.classes) - 1 for f in fibers)
    if fib.mw_rank != rank:
        return f"Mordell-Weil rank {fib.mw_rank}, Shioda-Tate gives {rank}"
    if fib.has_section and (len(out.tags) != rank or any(t != "parabolic" for t in out.tags)):
        return f"translation generators {out.tags} for rank {rank}"
    return None


@dataclass
class PeriodRequest:
    complement: Any
    constraints: list
    d_coords: tuple[int, ...]
    root_coords: tuple[tuple[int, ...], ...]
    coxeter: int


class Period:
    """The generic-period request (boundary sum zero, every root coset
    nonzero, smallest modulus up to the bound) on one seeded surface per
    cycle length; one operation sweeps all six."""

    name = "period"

    def setup(self, cc, seed, workdir):
        requests = []
        for seq in period_choices(seed, toric_seeds()):
            y = cc.surface.toric_from_sequence(seq)
            for comp in sorted(blowup_order(seq, random.Random(0))):
                y = cc.surface.interior_blowup(y, comp)
            lam = cc.surface.boundary_complement(y).sublattice
            reps = cc.enumeration.vectors_of_square(lam.as_lattice(), -2).representatives
            d = y.boundary_sum()
            d_coords = coords_in(lam.basis, d)
            if d_coords is None:
                raise RuntimeError(f"boundary sum of {seq} lies outside its complement")
            requests.append(PeriodRequest(
                complement=lam,
                constraints=[(d, "zero")] + [(lam.embed(r), "nonzero") for r in reps],
                d_coords=d_coords,
                root_coords=reps,
                coxeter=COXETER_NUMBER[len(reps)],
            ))
        return SimpleNamespace(requests=requests)

    def passes(self, state):
        while True:
            yield [tuple(range(len(state.requests)))]

    def warm_up(self, cc, state):
        cheapest = min(range(len(state.requests)), key=lambda i: state.requests[i].coxeter)
        self.op(cc, state, (cheapest,))

    def op(self, cc, state, item):
        outs = []
        for index in item:
            req = state.requests[index]
            try:
                outs.append(cc.period.solve_period(
                    req.complement, req.constraints, modulus_bound=PERIOD_MODULUS_BOUND
                ))
            except cc.errors.InputError as exc:
                outs.append(exc)
        return outs

    def outputs(self, item) -> int:
        return len(item)

    def check(self, state, item, outs) -> list[str]:
        return [
            "failed" if period_problem(state.requests[i], out, PERIOD_MODULUS_BOUND) else "ok"
            for i, out in zip(item, outs)
        ]


def period_problem(req: PeriodRequest, out, bound: int) -> str | None:
    """What is wrong with one period answer, or None."""
    if req.coxeter > bound:
        return None if isinstance(out, Exception) else f"found a modulus below h = {req.coxeter}"
    if isinstance(out, Exception):
        return f"no answer although h = {req.coxeter} <= {bound}: {out}"
    m, values = out.modulus, out.values
    if m != req.coxeter:
        return f"modulus {m}, expected h = {req.coxeter}"
    if value(values, m, req.d_coords) != 0:
        return "period does not vanish on the boundary sum"
    if any(value(values, m, r) == 0 for r in req.root_coords):
        return "period vanishes on a root"
    return None


WORKLOADS = {w.name: w for w in (Paper(), Walk(), Survey(), Period())}
