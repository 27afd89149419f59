"""Marginal budget allocation when qualities are already on the table.

With both products' qualities fixed, a marginal budget buys either
seeding (worth the agent's centrality per unit) or a quality improvement
(worth 2*lam*q_opp/(q_a+q_b)^2 per unit).  Equating the two per-cost
rates gives a centrality threshold per firm: seed every agent strictly
above it, top to bottom, then put the rest into quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .centrality import CentralityVector, balanced_centrality, dot, star_centralities
from .equilibrium import capped_fill
from .params import ModelParams, require_qualities

TIE_TOL = 1e-12


@dataclass(frozen=True)
class PresetState:
    """Qualities already chosen plus the agents' preexisting tilts.

    ``y0[i]`` limits how much agent i can still be seeded: firm a can add
    up to 1/2 - y0[i], firm b up to 1/2 + y0[i].  The neutral state
    (y0 = 0) gives every agent capacity 1/2 for both firms.
    """

    q_a: float
    q_b: float
    y0: np.ndarray

    def __post_init__(self) -> None:
        y0 = np.array(self.y0, dtype=float, copy=True)
        # negated so that a NaN tilt fails the check
        if not np.abs(y0).max() <= 0.5 + TIE_TOL:
            raise ValueError("preexisting tilts must lie in [-1/2, 1/2]")
        y0.setflags(write=False)
        object.__setattr__(self, "y0", y0)
        if not (0.0 < self.q_a < math.inf and 0.0 < self.q_b < math.inf):
            raise ValueError(f"qualities must be positive and finite: {self.q_a}, {self.q_b}")

    @classmethod
    def neutral(cls, n: int, q_a: float, q_b: float) -> "PresetState":
        return cls(q_a=q_a, q_b=q_b, y0=np.zeros(n))

    def capacities(self, firm: str) -> np.ndarray:
        if firm == "a":
            return 0.5 - self.y0
        if firm == "b":
            return 0.5 + self.y0
        raise ValueError(f"firm must be 'a' or 'b', got {firm!r}")


@dataclass(frozen=True)
class AllocationResult:
    """Optimal split of a marginal budget for one firm."""

    seeding: np.ndarray
    quality_improvement: float
    threshold: float
    marginal_utility: float

    def __post_init__(self) -> None:
        s = np.array(self.seeding, dtype=float, copy=True)
        s.setflags(write=False)
        object.__setattr__(self, "seeding", s)

    def to_dict(self) -> dict:
        return {
            "seeding": self.seeding.tolist(),
            "seeding_total": float(self.seeding.sum()),
            "quality_improvement": self.quality_improvement,
            "threshold": self.threshold,
            "marginal_utility": self.marginal_utility,
        }


def thresholds(
    q_a: float, q_b: float, p: ModelParams, n: int, c_s: float, c_q: float
) -> tuple[float, float]:
    """Centrality levels at which seeding and quality break even, per firm.

    Both costs must be positive and finite.
    """
    if not (0.0 < c_s < math.inf and 0.0 < c_q < math.inf):
        raise ValueError(f"costs must be positive and finite: c_s={c_s}, c_q={c_q}")
    require_qualities(p, q_a, q_b)
    lam = p.quality_weight(n)
    total = (q_a + q_b) ** 2
    v_c_a = 2.0 * lam * (c_s / c_q) * q_b / total
    v_c_b = 2.0 * lam * (c_s / c_q) * q_a / total
    return v_c_a, v_c_b


def _seedable(
    v: CentralityVector, state: PresetState, firm: str, p: ModelParams, c_s: float, c_q: float
) -> tuple[float, np.ndarray]:
    """The firm's threshold and the agents strictly above it, most central first."""
    v_c_a, v_c_b = thresholds(state.q_a, state.q_b, p, len(v.values), c_s, c_q)
    v_c = v_c_a if firm == "a" else v_c_b
    return v_c, v.order[v.sorted_values > v_c + TIE_TOL]


def allocate_budget(
    v: CentralityVector,
    state: PresetState,
    firm: str,
    K: float,
    c_s: float,
    c_q: float,
    p: ModelParams,
) -> AllocationResult:
    """Spend a marginal budget optimally for one firm.

    Agents strictly above the firm's threshold are seeded in centrality
    order up to their remaining capacity; exact ties go to quality, as
    does whatever budget is left.
    """
    if not 0.0 <= K < math.inf:
        raise ValueError(f"budget must be nonnegative and finite, got {K}")
    n = len(v.values)
    v_c, agents = _seedable(v, state, firm, p, c_s, c_q)
    caps = state.capacities(firm)[agents]
    amount = K / c_s
    seeding = np.zeros(n)
    seeding[agents] = capped_fill(amount, caps)
    remaining = max(amount - caps.sum(), 0.0)
    delta_q = remaining * c_s / c_q
    q_opp = state.q_b if firm == "a" else state.q_a
    lam = p.quality_weight(n)
    rate = 2.0 * lam * q_opp / (state.q_a + state.q_b) ** 2
    gain = dot(v.values, seeding) + rate * delta_q
    return AllocationResult(
        seeding=seeding,
        quality_improvement=delta_q,
        threshold=v_c,
        marginal_utility=gain,
    )


def seeding_capacity(
    v: CentralityVector,
    state: PresetState,
    firm: str,
    p: ModelParams,
    c_s: float,
    c_q: float,
) -> float:
    """Total seeding the firm would buy with an unlimited budget."""
    _, agents = _seedable(v, state, firm, p, c_s, c_q)
    return float(state.capacities(firm)[agents].sum())


@dataclass(frozen=True)
class CapacityBound:
    """Extremal seeding-capacity facts at a given threshold.

    ``k`` is the largest number of agents any graph can place strictly
    above the threshold; ``max_capacity`` sums the k largest capacities.
    ``min_agent_count`` is how many agents must sit above the threshold
    in every graph (2, 1 or 0 depending on where the threshold falls);
    ``min_capacity`` sums that many smallest capacities, which assumes
    the scarce above-threshold agents carry the smallest capacities.
    """

    k: int
    max_capacity: float
    min_agent_count: int
    min_capacity: float


def max_seeding_capacity_bound(
    n: int, p: ModelParams, v_c: float, capacities: np.ndarray
) -> CapacityBound:
    """Graph-independent bound on how much capacity can sit above ``v_c``.

    Centralities sum to 2*beta*n/(2*beta - delta) with every agent at 1
    or more, so at most floor(n*delta / ((v_c - 1)*(2*beta - delta)))
    agents can exceed a threshold above 1 (capped at n).
    """
    hub, peripheral = star_centralities(n, p)
    if not 1.0 < v_c < hub:
        raise ValueError(
            f"threshold {v_c} outside (1, {hub}); outside that range the "
            "bound is trivially n or 0"
        )
    caps = np.sort(np.asarray(capacities, dtype=float))[::-1]
    if caps.shape != (n,):
        raise ValueError(f"need {n} capacities, got shape {caps.shape}")
    k = min(
        math.floor(n * p.delta / ((v_c - 1.0) * (2.0 * p.beta - p.delta)) + 1e-9), n
    )
    if v_c < peripheral:
        min_count = 2
    elif v_c < balanced_centrality(p):
        min_count = 1
    else:
        min_count = 0
    min_capacity = float(caps[n - min_count :].sum()) if min_count else 0.0
    return CapacityBound(
        k=k,
        max_capacity=float(caps[:k].sum()),
        min_agent_count=min_count,
        min_capacity=min_capacity,
    )


def regime_by_endpoints(context: str, value: float, endpoints: dict, regimes: tuple) -> dict:
    """Place ``value`` among ``endpoints``, nondecreasing up to TIE_TOL.

    Within TIE_TOL of an endpoint is "boundary"; otherwise the regime is
    ``regimes[j]``, with j the number of endpoints below ``value``.
    A NaN or infinite ``value`` raises ``ValueError``.
    """
    if not math.isfinite(value):
        raise ValueError(f"{context} must be finite, got {value}")
    if any(abs(value - e) <= TIE_TOL for e in endpoints.values()):
        regime = "boundary"
    else:
        regime = regimes[sum(e <= value for e in endpoints.values())]
    return {"context": context, "value": value, "endpoints": endpoints, "regime": regime}


def regime_classify(n: int, p: ModelParams, v_c: float) -> dict:
    """Compare star vs. balanced seeding capacity at threshold ``v_c``.

    ``netgame.extremal.budget_regime`` makes the same comparison for a
    symmetric equilibrium budget.
    """
    hub, peripheral = star_centralities(n, p)
    endpoints = {
        "all_agents": 1.0,
        "star_peripheral": peripheral,
        "balanced": balanced_centrality(p),
        "star_hub": hub,
    }
    regimes = (
        "all_graphs_full_capacity",
        "star_balanced_equal_capacity",
        "balanced_over_star",
        "star_over_balanced",
        "no_graph_seedable",
    )
    return regime_by_endpoints("threshold", v_c, endpoints, regimes)
