"""Extremal graphs: the bounds on centrality and seeding over all graphs.

Holding the population and budget fixed, the symmetric equilibrium
seeding depends on the graph only through its sorted centralities, and
those are bracketed level by level: the l-th largest centrality is at
most the l-star hub value (the star hub for l = 1) and at least the
matching floor (balanced value, star peripheral, then 1).  The two
envelope sequences hold these bounds for l = 1..n, the upper one from
one array evaluation of the l-star hub.  Running ``solve_nash``'s solve
with K_a = K_b on them yields the seeding extremes, with the bracketing
graphs as explicit witnesses, and counting their levels strictly above a
threshold bounds how many agents any graph can seed there.  A budget is
classified by how star and balanced seeding compare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import TIE_TOL
from .centrality import balanced_centrality, l_star_centralities, star_centralities
from .equilibrium import CASE_INTERIOR, CASE_SATURATED, BudgetSpec, _solve_sequence, solve_nash
from .graphs import SocialGraph, generate
from .params import ModelParams, require_count, require_real, require_vector

VERIFY_TOL = 1e-9


def max_centrality_sequence(n: int, p: ModelParams) -> np.ndarray:
    """Largest possible l-th centrality for l = 1..n: the star hub, then l-star hubs."""
    hub, _ = star_centralities(n, p)
    hubs, _ = l_star_centralities(n, np.arange(2, n + 1), p)
    return np.r_[hub, hubs]


def min_centrality_sequence(n: int, p: ModelParams) -> np.ndarray:
    """Smallest possible l-th centrality for l = 1..n: balanced, star peripheral, then 1."""
    return np.r_[balanced_centrality(p), star_centralities(n, p)[1], np.ones(n - 2)]


@dataclass(frozen=True)
class CapacityBound:
    """Extremal seeding-capacity facts at a threshold, strict counts over the envelopes.

    ``k`` counts the levels of ``max_centrality_sequence`` strictly above
    the threshold: no graph places more agents strictly above it, and the
    k-star (the star for k = 1, the balanced graph for k = n) places
    that many.
    ``max_capacity`` sums the k largest capacities.  ``min_agent_count``
    counts the levels of ``min_centrality_sequence`` strictly above it:
    every graph places at least that many agents there (2, 1 or 0).
    """

    k: int
    max_capacity: float
    min_agent_count: int


def max_seeding_capacity_bound(
    n: int, p: ModelParams, v_c: float, capacities: np.ndarray
) -> CapacityBound:
    """Graph-independent bound on how much capacity can sit strictly above ``v_c``.

    ``v_c`` keeps its own check, not ``require_real``'s closed range: its
    refusal says why the range (1, hub centrality) is open.  A capacity is
    1/2 - y0 or 1/2 + y0, so each lies in [0, 1].
    """
    highest = max_centrality_sequence(n, p)
    v_c = require_real("v_c", v_c)
    if not 1.0 < v_c < highest[0]:
        raise ValueError(
            f"threshold {v_c} outside (1, {highest[0]}); outside that range the "
            "bound is trivially n or 0"
        )
    caps = np.sort(require_vector("capacities", capacities, n, -TIE_TOL, 1.0 + TIE_TOL))[::-1]
    k = int(np.count_nonzero(highest > v_c))
    return CapacityBound(
        k=k,
        max_capacity=float(caps[:k].sum()),
        min_agent_count=int(np.count_nonzero(min_centrality_sequence(n, p) > v_c)),
    )


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
    and where every graph saturates.  ``K`` may be any finite real, and
    ``c_s`` must be positive.
    """
    K, c_s = require_real("K", K), require_real("c_s", c_s, math.ulp(0.0))
    n = require_count("n", n, 2)  # a numpy integer would make the endpoints numpy floats
    hub, peripheral = star_centralities(n, p)
    lam = p.quality_weight(n)
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
    return _regime_by_endpoints("budget", spend, endpoints, regimes)


def _regime_by_endpoints(context: str, value: float, endpoints: dict, regimes: tuple) -> dict:
    """Place ``value`` among ``endpoints``, nondecreasing up to TIE_TOL.

    Within TIE_TOL of an endpoint is "boundary"; otherwise the regime is
    ``regimes[j]``, with j the number of endpoints below ``value``.
    ``value`` goes through ``require_real``, named ``context``.
    """
    value = require_real(context, value)
    if any(abs(value - e) <= TIE_TOL for e in endpoints.values()):
        regime = "boundary"
    else:
        regime = regimes[sum(e <= value for e in endpoints.values())]
    return {"context": context, "value": value, "endpoints": endpoints, "regime": regime}
