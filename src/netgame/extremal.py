"""Extremal graphs: which influence structures maximize or minimize seeding.

Holding the population and budget fixed, the symmetric equilibrium
seeding depends on the graph only through its sorted centralities, and
those are bracketed level by level: the l-th largest centrality is at
most the l-star hub value (the star hub for l = 1) and at least the
matching floor (balanced value, star peripheral, then 1).  The two
envelope sequences hold these bounds for l = 1..n.  Running
``solve_nash``'s solve with K_a = K_b on them yields the extremes, and
the bracketing graphs are explicit witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import regime_by_endpoints
from .centrality import balanced_centrality, l_star_centralities, star_centralities
from .equilibrium import CASE_INTERIOR, CASE_SATURATED, BudgetSpec, _solve_sequence, solve_nash
from .graphs import SocialGraph, generate
from .params import ModelParams

VERIFY_TOL = 1e-9


def max_centrality_sequence(n: int, p: ModelParams) -> np.ndarray:
    """Largest possible l-th centrality for l = 1..n: the star hub, then l-star hubs."""
    hubs = [l_star_centralities(n, l, p)[0] for l in range(2, n + 1)]
    return np.array([star_centralities(n, p)[0], *hubs])


def min_centrality_sequence(n: int, p: ModelParams) -> np.ndarray:
    """Smallest possible l-th centrality for l = 1..n: balanced, star peripheral, then 1."""
    return np.r_[balanced_centrality(p), star_centralities(n, p)[1], np.ones(n - 2)]


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

    Each side runs ``solve_nash``'s solve with K_a = K_b on the
    corresponding centrality envelope, builds the bracketing graph, and
    re-solves the actual equilibrium on it; ``verified`` records whether
    the witness reproduces the reported extreme within 1e-9.  Budgets and
    costs are checked as ``BudgetSpec`` checks them.
    """
    budget = BudgetSpec(K, K, c_s, c_q)
    results = {}
    for side, sequence, pick_witness in (
        ("maximum", max_centrality_sequence(n, p), _max_witness_kind),
        ("minimum", min_centrality_sequence(n, p), _min_witness_kind),
    ):
        sol = _solve_sequence(sequence, p, budget)
        total = (sol.k - 1) / 2.0 + sol.seed_k
        kind, witness_l = pick_witness(sol.k, sol.case_a, n)
        witness = generate(kind, n, l=witness_l)
        check = solve_nash(witness, p, budget)
        discrepancy = abs(check.strategy_a.seeding_total - total)
        results[side] = SeedingExtreme(
            level=sol.k,
            v_tilde=sol.vt_k,
            case=sol.case_a,
            quality=sol.q_a,
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
