"""Extremal graphs: which influence structures maximize or minimize seeding.

Holding the population and budget fixed, the symmetric equilibrium
seeding depends on the graph only through its sorted centralities, and
those are bracketed level by level: the l-th largest centrality is at
most the l-star hub value and at least the matching floor (balanced
value, star peripheral, then 1).  Running the level search on these
envelope sequences yields the extremes, and the bracketing graphs are
explicit witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import regime_by_endpoints
from .centrality import (
    balanced_centrality,
    l_star_centralities,
    star_centralities,
)
from .equilibrium import (
    CASE_INTERIOR,
    CASE_SATURATED,
    solve_symmetric_levels,
    symmetric_nash,
)
from .graphs import SocialGraph, generate
from .params import ModelParams

VERIFY_TOL = 1e-9


def max_level_centrality(l: int, n: int, p: ModelParams) -> float:
    """Largest possible l-th centrality: star hub for l=1, l-star hub after."""
    if not 1 <= l <= n:
        raise ValueError(f"level l={l} outside 1..{n}")
    if l == 1:
        return star_centralities(n, p)[0]
    return l_star_centralities(n, l, p)[0]


def min_level_centrality(l: int, n: int, p: ModelParams) -> float:
    """Smallest possible l-th centrality: balanced, star peripheral, then 1."""
    if not 1 <= l <= n:
        raise ValueError(f"level l={l} outside 1..{n}")
    if l == 1:
        return balanced_centrality(p)
    if l == 2:
        return star_centralities(n, p)[1]
    return 1.0


@dataclass(frozen=True)
class ExtremalCentrality:
    l: int
    v_max: float
    v_min: float


def extremal_centrality(l: int, n: int, p: ModelParams) -> ExtremalCentrality:
    """Both envelope values for the l-th largest centrality."""
    return ExtremalCentrality(
        l=l,
        v_max=max_level_centrality(l, n, p),
        v_min=min_level_centrality(l, n, p),
    )


def max_centrality_sequence(n: int, p: ModelParams) -> np.ndarray:
    return np.array([max_level_centrality(l, n, p) for l in range(1, n + 1)])


def min_centrality_sequence(n: int, p: ModelParams) -> np.ndarray:
    return np.array([min_level_centrality(l, n, p) for l in range(1, n + 1)])


def _max_witness_kind(l: int, case: str, n: int) -> tuple[str, int | None]:
    if case == CASE_SATURATED:
        return "balanced", None
    level = l if case == CASE_INTERIOR else l - 1
    if level <= 1:
        return "star", None
    if level >= n:
        return "balanced", None
    return "l_star", level


def _min_witness_kind(l: int, case: str, n: int) -> tuple[str, int | None]:
    if case == CASE_SATURATED:
        return ("near_star_one_bidirectional", None) if n >= 3 else ("balanced", None)
    if l == 1:
        return "balanced", None
    if l == 2:
        return "star", None
    return "near_star_one_bidirectional", None


@dataclass(frozen=True)
class SeedingExtreme:
    """One side (max or min) of the seeding range with its witness graph."""

    level: int
    v_tilde: float
    case: str
    quality: float
    seeding_total: float
    witness_kind: str
    witness_l: int | None
    witness: SocialGraph
    verified: bool
    discrepancy: float

    def to_dict(self) -> dict:
        return {**vars(self), "witness": self.witness.to_dict()}


@dataclass(frozen=True)
class SeedingExtremes:
    maximum: SeedingExtreme
    minimum: SeedingExtreme

    def to_dict(self) -> dict:
        return {"maximum": self.maximum.to_dict(), "minimum": self.minimum.to_dict()}


def symmetric_seeding_extremes(
    n: int, p: ModelParams, K: float, c_s: float, c_q: float
) -> SeedingExtremes:
    """Range of equilibrium seeding over all graphs, with verified witnesses.

    Each side runs the symmetric level search on the corresponding
    centrality envelope, builds the bracketing graph, and re-solves the
    actual equilibrium on it; ``verified`` records whether the witness
    reproduces the reported extreme within 1e-9.
    """
    results = {}
    for side, sequence, pick_witness in (
        ("maximum", max_centrality_sequence(n, p), _max_witness_kind),
        ("minimum", min_centrality_sequence(n, p), _min_witness_kind),
    ):
        l, vt, case, q, s_l = solve_symmetric_levels(sequence, p, K, c_s, c_q)
        total = (l - 1) / 2.0 + s_l
        kind, witness_l = pick_witness(l, case, n)
        witness = generate(kind, n, l=witness_l)
        check = symmetric_nash(witness, p, K, c_s, c_q)
        discrepancy = abs(check.strategy_a.seeding_total - total)
        results[side] = SeedingExtreme(
            level=l,
            v_tilde=vt,
            case=case,
            quality=q,
            seeding_total=total,
            witness_kind=kind,
            witness_l=witness_l,
            witness=witness,
            verified=bool(discrepancy <= VERIFY_TOL),
            discrepancy=float(discrepancy),
        )
    return SeedingExtremes(maximum=results["maximum"], minimum=results["minimum"])


def budget_regime(n: int, p: ModelParams, K: float, c_s: float = 1.0) -> dict:
    """Classify a symmetric budget by how star and balanced seeding compare.

    The interval endpoints are where the star becomes seedable at all,
    where the balanced graph overtakes it, where both are fully seeded,
    and where every graph saturates.  A NaN or infinite ``K`` or ``c_s``
    raises ``ValueError``.
    """
    if not 0.0 < c_s < math.inf:
        raise ValueError(f"c_s must be positive and finite, got {c_s}")
    lam = p.quality_weight(n)
    hub, peripheral = star_centralities(n, p)
    v_bar = balanced_centrality(p)
    spend = K / c_s
    endpoints = {
        "star_seedable": lam / (2.0 * hub),
        "balanced_overtakes": 0.5 + lam / (2.0 * v_bar),
        "star_balanced_saturated": n / 2.0 + lam / (2.0 * peripheral),
        "all_graphs_saturated": n / 2.0 + lam / 2.0,
    }
    regimes = (
        "no_graph_seedable",
        "star_over_balanced",
        "balanced_over_star",
        "star_balanced_saturated_equal",
        "all_graphs_saturated",
    )
    return regime_by_endpoints("budget", spend, endpoints, regimes)
