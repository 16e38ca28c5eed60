"""End-to-end certified replay of the cusp-family construction.

Both entry points read one derivation, ``_Chain``: from a surface Y, a
period point phi on its boundary complement, and the blow-up S~ of Y at the
point where the zero section meets the boundary, it derives the fibration,
translations, second fibration, transvection families, Weyl certificate and
criterion report, each once and on first use.  ``run_criterion`` checks its
inputs and returns the chain's report.

``run_pipeline`` rebuilds those inputs from a seven-component toric seed
(``_PaperChain``): five interior blow-ups give a cycle of seven
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

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Sequence

from .enumeration import EnumerationResult
from .errors import InputError, StageFailure
from .fibration import (
    EllipticFibration,
    analyze_fibration,
    eichler_transvection,
    fiber_from_boundary,
    isotropic_transvection_group,
    mw_translation_group,
    translation_vectors,
)
from .intlinalg import combination, ring_points, sign_normalized
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
    toric_from_sequence,
)
from .weyl import (
    CriterionReport,
    WeylCertificate,
    dihedral_order,
    totaro_check,
    weyl_infiniteness_certificate,
)

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
    if not tvecs:
        return None
    for coeffs in ring_points(len(tvecs), 1):
        e = combination(coeffs, tvecs)
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
    e_q, _ = found
    assert fib1.zero_section is not None
    mover = eichler_transvection(y.picard, fib1.fiber_class, e_q)
    c_q_small = mover.apply(fib1.zero_section)
    c_q = tuple(list(c_q_small) + [0])
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


@dataclass(eq=False)
class _Chain:
    """The criterion chain over (Y, S~, phi); every field is derived once, on first use.

    ``s_tilde`` is the blow-up of ``y`` at the point where the zero section
    meets the boundary, with the exceptional class last in its history, and
    ``phi`` is a period point on the boundary complement of ``y``.  A field
    derived in one line is a cached lambda; the rest are methods.
    """

    y: LooijengaSurface
    s_tilde: LooijengaSurface
    phi: PeriodPoint
    witness_count: int

    fib1 = cached_property(lambda c: analyze_fibration(c.y, c.phi))
    tvecs = cached_property(lambda c: translation_vectors(c.y, c.fib1))
    m_sub = cached_property(lambda c: boundary_complement(c.s_tilde).sublattice)
    phi_tilde = cached_property(lambda c: extend_over_blowup(c.phi, c.m_sub, c.fib1.zero_section))

    @cached_property
    def second(self) -> SecondFibration | None:
        return second_fibration(
            self.y, self.s_tilde, self.phi, self.phi_tilde, self.fib1, self.tvecs
        )

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
    def cert(self) -> WeylCertificate:
        return weyl_infiniteness_certificate(
            self.s_tilde, self.phi, self.fib1, self.tvecs, self.witness_count
        )

    @cached_property
    def report(self) -> CriterionReport:
        # The certificate comes first: it rejects a fibration with no section,
        # which the transvection families would otherwise trip over.
        cert = self.cert
        return totaro_check(self.m_sub, self.g_family, self.h_family, cert)


class _PaperChain(_Chain):
    """The chain with Y, phi and S~ rebuilt from the toric seed under ``cfg``."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.witness_count = cfg["witness_count"]

    seed = cached_property(lambda c: toric_from_sequence(SEED_SEQUENCE))
    complement = cached_property(lambda c: boundary_complement(c.y))
    y_definiteness = cached_property(lambda c: boundary_definiteness(c.y))
    beta = cached_property(lambda c: c.complement.sublattice.embed(canonical_root(c.complement.roots)))
    translations = cached_property(lambda c: mw_translation_group(c.y, c.fib1))
    s_definiteness = cached_property(lambda c: boundary_definiteness(c.s_tilde))
    reflection_order = cached_property(
        lambda c: dihedral_order(c.m_sub.as_lattice(), c.cert.root1, c.cert.root2)
    )

    @cached_property
    def y(self) -> LooijengaSurface:
        y = self.seed
        for comp in BLOWUP_COMPONENTS:
            y = interior_blowup(y, comp)
        return y

    @cached_property
    def phi(self) -> PeriodPoint:
        root_kind = "zero" if self.cfg["force_trivial_beta"] else "nonzero"
        return solve_period(
            self.complement.sublattice,
            [(self.y.boundary_sum(), "zero"), (self.beta, root_kind)],
            modulus="search",
            modulus_bound=self.cfg["modulus_bound"],
        )

    @cached_property
    def s_tilde(self) -> LooijengaSurface:
        c0 = self.fib1.zero_section
        if c0 is None:
            raise InputError("no zero section available to locate the marked point")
        met = [
            i + 1
            for i, b in enumerate(self.y.boundary)
            if self.y.picard.pair(c0, b) != 0
        ]
        if len(met) != 1:
            raise ArithmeticError("zero section meets the boundary in more than one component")
        return interior_blowup(self.y, met[0])


def _families(c: _PaperChain) -> dict:
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
    chain = _PaperChain(cfg)
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
    if phi.domain.ambient.rank != y.picard.rank:
        raise InputError(
            "period domain must live on the surface one blow-down below the input"
        )
    if phi.domain.ambient.gram != y.picard.gram:
        raise InputError("period domain pairing disagrees with the blown-down surface")
    return _Chain(y, s_tilde, phi, witness_count).report
