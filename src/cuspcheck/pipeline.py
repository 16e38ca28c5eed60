"""End-to-end certified replay of the cusp-family construction.

Both entry points build one chain, ``_Chain``, which derives the fibration,
translations, second fibration, transvection families, Weyl certificate and
criterion report from a surface Y, a period point phi and the blow-up S~ of
Y, each once and on first use.  ``run_criterion`` checks S~ and phi, gives
the chain Y, S~ and phi, and returns its report.

``run_pipeline`` gives the chain the paper's row instead, the toric seed
``SEED_SEQUENCE`` and the blow-up order ``BLOWUP_COMPONENTS``, from which it
derives Y, phi and S~ as well: five interior blow-ups give a cycle of seven
(-2)-components; a torsion period point generic on the root system gives a
fibration with a section and translation rank 2; blowing up the point where
the zero section meets the boundary yields the negative definite pair whose
symmetry group the criterion certifies as non-arithmetic.  It then walks
``_STAGES``, rows of (name, claim, computed, expected) that pin values read
off the chain against expected integers; an error raised while a row reads
the chain becomes a StageFailure naming that row, the first to touch the
failing value.  The report embeds the full criterion witness data.

The pipeline is fully deterministic: each search returns its first hit in a
fixed lexicographic order, and the witness searches stop at radii proven to
hold a hit, so the default report is byte-stable across runs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Sequence

from .checker import CriterionReport, dihedral_order, totaro_check
from .enumeration import EnumerationResult
from .errors import InputError, StageFailure
from .fibration import (
    EllipticFibration,
    analyze_fibration,
    fiber_from_boundary,
    isotropic_transvection_group,
    move_section,
    translation_group,
    translation_combinations,
    translation_vectors,
)
from .intlinalg import combination, sign_normalized
from .isometry import Isometry, classify_isometry
from .jsonio import criterion_to_dict
from .lattice import Vector, signature
from .period import PeriodPoint, extend_over_blowup, is_generic, solve_period
from .surface import (
    LooijengaSurface,
    blow_down,
    blow_down_with_embedding,
    boundary_complement,
    boundary_definiteness,
    interior_blowup,
    is_boundary_complement,
    toric_from_sequence,
)
from .weyl import weyl_infiniteness_certificate

FORMAT_VERSION = 1

SEED_SEQUENCE = (-1, -2, -1, -1, -1, -1, -2)
BLOWUP_COMPONENTS = (1, 3, 4, 5, 6)

DEFAULT_CONFIG: dict[str, Any] = {
    "modulus_bound": 64,
    "witness_count": 100,
    "force_trivial_beta": False,
    "seed": None,
}


def make_config(overrides: dict | None = None) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    for key, value in (overrides or {}).items():
        if key not in DEFAULT_CONFIG:
            raise InputError(f"unknown config key: {key!r}")
        cfg[key] = value
    for key in ("modulus_bound", "witness_count"):
        value = cfg[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise InputError(f"config {key!r} must be a positive integer")
    if not isinstance(cfg["force_trivial_beta"], bool):
        raise InputError("config 'force_trivial_beta' must be a boolean")
    if cfg["seed"] is not None:
        raise InputError("config 'seed' must be null: the pipeline uses no randomness")
    return cfg


def canonical_root(roots: EnumerationResult) -> Vector:
    """Deterministic choice of one root coset representative (domain coords)."""
    if not roots.representatives:
        raise InputError("no roots to choose from")
    return sorted(sign_normalized(r) for r in roots.representatives)[0]


def _search_nonzero_residue(
    phi: PeriodPoint, tvecs: Sequence[Vector]
) -> tuple[list[int], int] | None:
    """First translation combination whose period residue is nonzero.

    The residue is linear, so some basis vector is a hit whenever any
    combination is: the first ring (3^k - 1 points) decides.
    """
    for e in translation_combinations(tvecs, 1):
        residue = phi.evaluate(e)
        if residue != 0:
            return e, residue
    return None


@dataclass(frozen=True)
class SecondFibration:
    """Bundle of everything the blow-down construction produces; ``fib`` is the
    boundary fibration alone, since the criterion reads only its fiber class."""

    surface: LooijengaSurface
    phi: PeriodPoint
    fib: EllipticFibration
    fiber_class_upstairs: Vector


def second_fibration(
    y: LooijengaSurface,
    s_tilde: LooijengaSurface,
    phi: PeriodPoint,
    phi_tilde: PeriodPoint,
    fib1: EllipticFibration,
    tvecs: Sequence[Vector],
) -> SecondFibration | None:
    """Move the zero section to a point with nonzero residue and blow it down.

    The moved section is untouched by the blow-up (it misses the blown-up
    point), so it stays a (-1)-class upstairs; contracting it produces a new
    surface whose boundary is again a cycle of (-2)-components but whose
    period no longer kills the boundary sum.  The resulting fibration has a
    multiple fiber and no section; its fiber class pulled back upstairs is
    the second isotropic axis.  Returns None when every residue vanishes
    (identically trivial period), which is exactly the degenerate branch.
    """
    found = _search_nonzero_residue(phi, tvecs)
    if found is None:
        return None
    c_q = tuple(list(move_section(y.picard, fib1, found[0])) + [0])
    if s_tilde.picard.square(c_q) != -1:
        raise ArithmeticError("moved section fails to stay a (-1)-class upstairs")
    result = blow_down_with_embedding(s_tilde, c_q)
    y2 = result.surface
    lam2 = boundary_complement(y2).sublattice
    values = tuple(phi_tilde.evaluate(combination(b, result.embedding)) for b in lam2.basis)
    phi2 = PeriodPoint(domain=lam2, modulus=phi_tilde.modulus, values=values)
    fib2 = fiber_from_boundary(y2, phi2)
    b_sum = s_tilde.boundary_sum()
    mult = s_tilde.picard.pair(b_sum, c_q)
    axis = tuple(
        fib2.multiple * (x + mult * v) for x, v in zip(b_sum, c_q)
    )
    return SecondFibration(
        surface=y2,
        phi=phi2,
        fib=fib2,
        fiber_class_upstairs=axis,
    )


class _Chain:
    """The criterion chain; every value is derived once, on first use.

    A chain starts from Y, S~ and phi given outright, or from a toric seed
    ``sequence`` and the boundary components ``order`` to blow up in turn,
    from which it derives them: Y is the seed's surface blown up in that
    order; phi is the smallest period up to ``cfg["modulus_bound"]`` that
    kills the boundary sum and is nonzero on one sign-normalised
    representative of each +/- root-coset pair (zero on every pair under
    ``cfg["force_trivial_beta"]``); S~ is the blow-up of Y at the point where
    the zero section meets the boundary, its exceptional class last in its
    history.  A value derived in one line is a cached lambda.
    """

    def __init__(
        self,
        cfg: dict,
        sequence: Sequence[int] = (),
        order: Sequence[int] = (),
        *,
        y: LooijengaSurface | None = None,
        s_tilde: LooijengaSurface | None = None,
        phi: PeriodPoint | None = None,
    ):
        self.cfg, self.sequence, self.order = cfg, tuple(sequence), tuple(order)
        # a value given outright takes the place of its derivation
        given = {"y": y, "s_tilde": s_tilde, "phi": phi}
        vars(self).update({k: v for k, v in given.items() if v is not None})

    seed = cached_property(lambda c: toric_from_sequence(c.sequence))
    y = cached_property(lambda c: functools.reduce(interior_blowup, c.order, c.seed))
    complement = cached_property(lambda c: boundary_complement(c.y))
    y_definiteness = cached_property(lambda c: boundary_definiteness(c.y))
    beta = cached_property(lambda c: c.complement.sublattice.embed(canonical_root(c.complement.roots)))
    fib1 = cached_property(lambda c: analyze_fibration(c.y, c.phi))
    tvecs = cached_property(lambda c: translation_vectors(c.y, c.fib1))
    translations = cached_property(lambda c: translation_group(c.y, c.fib1, c.tvecs))
    s_definiteness = cached_property(lambda c: boundary_definiteness(c.s_tilde))
    m_sub = cached_property(lambda c: boundary_complement(c.s_tilde).sublattice)
    phi_tilde = cached_property(lambda c: extend_over_blowup(c.phi, c.m_sub, c.fib1.zero_section))
    second = cached_property(
        lambda c: second_fibration(c.y, c.s_tilde, c.phi, c.phi_tilde, c.fib1, c.tvecs)
    )
    cert = cached_property(
        lambda c: weyl_infiniteness_certificate(
            c.s_tilde, c.phi, c.fib1, c.tvecs, c.cfg["witness_count"]
        )
    )
    reflection_order = cached_property(
        lambda c: dihedral_order(c.m_sub.as_lattice(), c.cert.root1, c.cert.root2)
    )

    @cached_property
    def phi(self) -> PeriodPoint:
        lam = self.complement.sublattice
        kind = "zero" if self.cfg["force_trivial_beta"] else "nonzero"
        pairs = sorted({sign_normalized(r) for r in self.complement.roots.representatives})
        return solve_period(
            lam,
            [(self.y.boundary_sum(), "zero")] + [(lam.embed(r), kind) for r in pairs],
            modulus_bound=self.cfg["modulus_bound"],
        )

    @cached_property
    def s_tilde(self) -> LooijengaSurface:
        c0 = self.fib1.zero_section
        if c0 is None:
            raise InputError("no zero section available to locate the marked point")
        met = [i + 1 for i, b in enumerate(self.y.boundary) if self.y.picard.pair(c0, b)]
        if len(met) != 1:
            raise ArithmeticError("zero section meets the boundary in more than one component")
        return interior_blowup(self.y, met[0])

    @cached_property
    def g_family(self) -> list[Isometry]:
        f1 = tuple(list(self.fib1.fiber_class) + [0])
        return isotropic_transvection_group(self.m_sub, f1)

    @cached_property
    def h_family(self) -> list[Isometry]:
        if self.second is None:
            return []
        return isotropic_transvection_group(self.m_sub, self.second.fiber_class_upstairs)

    @cached_property
    def report(self) -> CriterionReport:
        # The certificate comes first: it rejects a fibration with no section,
        # which the transvection families would otherwise trip over.
        cert = self.cert
        return totaro_check(self.m_sub, self.g_family, self.h_family, cert)


def _families(c: _Chain) -> dict:
    """Computed values of the transvection-families stage."""
    g_kinds = [classify_isometry(g) for g in c.g_family]
    g_lines = sorted({k.fixed_isotropic for k in g_kinds if k.fixed_isotropic})
    h_kinds = [classify_isometry(h) for h in c.h_family]
    h_lines = sorted({k.fixed_isotropic for k in h_kinds if k.fixed_isotropic})
    return {
        "g_count": len(c.g_family),
        "g_tags": [k.tag for k in g_kinds],
        "g_common_line": len(g_lines) == 1,
        "h_count": len(c.h_family),
        "distinct_fixed_lines": bool(g_lines and h_lines and g_lines != h_lines),
    }


_STAGES = (
    (
        "toric-seed",
        "toric surface from the seed sequence has rank 5 and boundary square 5",
        lambda c: {
            "picard_rank": c.seed.picard_rank,
            "boundary_square": c.seed.boundary_self_intersection(),
            "components": c.seed.r,
        },
        lambda cfg: {"picard_rank": 5, "boundary_square": 5, "components": 7},
    ),
    (
        "interior-blowups",
        "five interior blow-ups leave a cycle of seven (-2)-components on a rank-10 lattice",
        lambda c: {
            "picard_rank": c.y.picard_rank,
            "self_intersections": list(c.y.self_intersections()),
            "boundary_square": c.y.boundary_self_intersection(),
            "definiteness": c.y_definiteness.classification,
            "radical_rank": c.y_definiteness.radical_rank,
        },
        lambda cfg: {
            "picard_rank": 10,
            "self_intersections": [-2] * 7,
            "boundary_square": 0,
            "definiteness": "negative_semidefinite_degenerate",
            "radical_rank": 1,
        },
    ),
    (
        "boundary-complement",
        "classes orthogonal to the boundary form a rank-3 lattice containing the boundary sum",
        lambda c: {
            "rank": c.complement.sublattice.rank,
            "kernel_rank": c.complement.kernel_rank,
            "contains_boundary_sum": c.complement.sublattice.contains(c.y.boundary_sum()),
        },
        lambda cfg: {"rank": 3, "kernel_rank": 0, "contains_boundary_sum": True},
    ),
    (
        "root-cosets",
        "the square -2 classes form exactly one +/- coset pair modulo the radical",
        lambda c: {
            "radical_rank": len(c.complement.roots.radical),
            "representative_count": len(c.complement.roots.representatives),
            "single_pair_up_to_sign": len(c.complement.roots.representatives) == 2
            and c.complement.roots.representatives[0]
            == tuple(-x for x in c.complement.roots.representatives[1]),
        },
        lambda cfg: {
            "radical_rank": 1,
            "representative_count": 2,
            "single_pair_up_to_sign": True,
        },
    ),
    (
        "period-solve",
        "the smallest torsion period killing the boundary sum but not the root has order 2",
        lambda c: {
            "modulus": c.phi.modulus,
            "boundary_value": c.phi.evaluate(c.y.boundary_sum()),
            "root_value": c.phi.evaluate(c.beta),
        },
        lambda cfg: {"modulus": 2, "boundary_value": 0, "root_value": 1},
    ),
    (
        "genericity",
        "the period kills no root coset, so the boundary cycle is the only reducible fiber",
        lambda c: {
            "generic": is_generic(c.phi, c.complement.roots),
            "extra_reducible_fibers": len(c.fib1.reducible_fibers) - 1,
        },
        lambda cfg: {"generic": True, "extra_reducible_fibers": 0},
    ),
    (
        "first-fibration",
        "the boundary is an honest fiber with a section and translation rank 2",
        lambda c: {
            "multiple": c.fib1.multiple,
            "has_section": c.fib1.has_section,
            "kodaira_types": [f.kodaira_type for f in c.fib1.reducible_fibers],
            "mw_rank": c.fib1.mw_rank,
        },
        lambda cfg: {
            "multiple": 1,
            "has_section": True,
            "kodaira_types": ["I7"],
            "mw_rank": 2,
        },
    ),
    (
        "translation-group",
        "translations are two commuting parabolic transvections",
        lambda c: {
            "generator_count": len(c.translations),
            "tags": [classify_isometry(g).tag for g in c.translations],
            "pairwise_commuting": all(
                a.commutes_with(b) for a, b in itertools.combinations(c.translations, 2)
            ),
        },
        lambda cfg: {
            "generator_count": 2,
            "tags": ["parabolic", "parabolic"],
            "pairwise_commuting": True,
        },
    ),
    (
        "blowup-at-p",
        "blowing up the zero section's boundary point gives a negative definite cycle "
        "and a rank-4 complement of signature (1,3)",
        lambda c: {
            "component": c.s_tilde.history[-1][0],
            "m_rank": c.m_sub.rank,
            "m_signature": list(signature(c.m_sub.as_lattice())),
            "self_intersections": sorted(c.s_tilde.self_intersections()),
            "definiteness": c.s_definiteness.classification,
            "combinatorial_agrees": c.s_definiteness.criterion_agrees,
        },
        lambda cfg: {
            "component": 6,
            "m_rank": 4,
            "m_signature": [1, 3, 0],
            "self_intersections": sorted([-2] * 6 + [-3]),
            "definiteness": "negative_definite",
            "combinatorial_agrees": True,
        },
    ),
    (
        "second-fibration",
        "a section with nonzero residue blows down to a surface fibered with "
        "a double fiber and no section",
        lambda c: {"found_second_point": False} if c.second is None else {
            "found_second_point": True,
            "boundary_value": c.second.phi.evaluate(c.second.surface.boundary_sum()),
            "second_boundary_squares": list(c.second.surface.self_intersections()),
            "second_multiple": c.second.fib.multiple,
            "second_has_section": c.second.fib.has_section,
            "second_mw_positive": analyze_fibration(c.second.surface, c.second.phi).mw_rank >= 1,
        },
        lambda cfg: {
            "found_second_point": True,
            "boundary_value": 1,
            "second_boundary_squares": [-2] * 7,
            "second_multiple": 2,
            "second_has_section": False,
            "second_mw_positive": True,
        },
    ),
    (
        "transvection-families",
        "both isotropic axes carry parabolic transvection families with distinct fixed lines",
        _families,
        lambda cfg: {
            "g_count": 2,
            "g_tags": ["parabolic", "parabolic"],
            "g_common_line": True,
            "h_count": 2,
            "distinct_fixed_lines": True,
        },
    ),
    (
        "weyl-certificate",
        "two sections through the marked point give roots with pairing >= 2 and "
        "an infinite chamber walk",
        lambda c: {
            "pairing": c.m_sub.as_lattice().pair(c.cert.root1, c.cert.root2),
            "dihedral": "infinite" if c.reflection_order == math.inf else c.reflection_order,
            "distinct_sign_vectors": c.report.witnesses["distinct_chambers"],
        },
        lambda cfg: {
            "pairing": 2,
            "dihedral": "infinite",
            "distinct_sign_vectors": cfg["witness_count"] + 1,
        },
    ),
    (
        "criterion",
        "all hypotheses of the non-arithmeticity criterion hold",
        lambda c: {
            key: value
            for key, value in criterion_to_dict(c.report).items()
            if key != "witnesses"
        },
        lambda cfg: {
            "signature_ok": True,
            "rank_ok": True,
            "zmminus1_ok": True,
            "weyl_infinite_ok": True,
            "disjoint_parabolics_ok": True,
            "verdict": True,
        },
    ),
)


def run_pipeline(overrides: dict | None = None) -> dict:
    """Execute every stage and return the full report as a plain dict.

    Value mismatches are recorded with pass = false and execution continues
    where possible; errors that prevent a stage from computing at all raise
    StageFailure naming the stage.
    """
    cfg = make_config(overrides)
    chain = _Chain(cfg, SEED_SEQUENCE, BLOWUP_COMPONENTS)
    stages: list[dict] = []
    for name, claim, computed, expected in _STAGES:
        try:
            values = computed(chain)
        except (InputError, ArithmeticError) as exc:
            raise StageFailure(name, str(exc)) from exc
        pins = expected(cfg)
        stages.append(
            {
                "name": name,
                "claim": claim,
                "computed": values,
                "expected": pins,
                "pass": values == pins,
            }
        )
    return {
        "format_version": FORMAT_VERSION,
        "config": cfg,
        "stages": stages,
        "criterion": criterion_to_dict(chain.report),
        "all_pass": all(s["pass"] for s in stages),
    }


def run_criterion(
    s_tilde: LooijengaSurface, phi: PeriodPoint, witness_count: int = 100
) -> CriterionReport:
    """Re-run the criterion on a blown-up surface and its period point.

    The surface must record the exceptional class of the final blow-up, and
    the period point must live on the boundary complement of the surface one
    blow-down below (the fibration side).  Everything else — fibration,
    translations, second axis, certificates — is recomputed from scratch.
    """
    if not s_tilde.history:
        raise InputError("surface must record its final exceptional class")
    e_p = s_tilde.history[-1][1]
    y = blow_down(s_tilde, e_p)
    if not is_boundary_complement(y, phi.domain):
        raise InputError(
            "period domain is not the boundary complement of the surface "
            "one blow-down below the input"
        )
    cfg = dict(DEFAULT_CONFIG, witness_count=witness_count)
    return _Chain(cfg, y=y, s_tilde=s_tilde, phi=phi).report
