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

from .centrality import CentralityVector, dot
from .params import ModelParams, require_count, require_qualities, require_real, require_vector

TIE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
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
        y0 = require_vector("y0", self.y0, None, -0.5 - TIE_TOL, 0.5 + TIE_TOL)
        y0.setflags(write=False)
        object.__setattr__(self, "y0", y0)
        for name in ("q_a", "q_b"):
            object.__setattr__(self, name, require_real(name, getattr(self, name), math.ulp(0.0)))

    @classmethod
    def neutral(cls, n: int, q_a: float, q_b: float) -> "PresetState":
        return cls(q_a=q_a, q_b=q_b, y0=np.zeros(require_count("n", n, 1)))

    def capacities(self, firm: str) -> np.ndarray:
        if firm == "a":
            return 0.5 - self.y0
        if firm == "b":
            return 0.5 + self.y0
        raise ValueError(f"firm must be 'a' or 'b', got {firm!r}")


@dataclass(frozen=True, eq=False)
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

    Both costs must be positive, and both qualities at least epsilon.
    """
    c_s, c_q = require_real("c_s", c_s, math.ulp(0.0)), require_real("c_q", c_q, math.ulp(0.0))
    q_a, q_b = require_qualities(p, q_a, q_b)
    lam = p.quality_weight(n)
    total = (q_a + q_b) ** 2
    v_c_a = 2.0 * lam * (c_s / c_q) * q_b / total
    v_c_b = 2.0 * lam * (c_s / c_q) * q_a / total
    return v_c_a, v_c_b


def _seedable(
    v: CentralityVector, state: PresetState, firm: str, p: ModelParams, c_s: float, c_q: float
) -> tuple[float, np.ndarray]:
    """The firm's threshold and the agents strictly above it, most central first."""
    if state.y0.shape != v.values.shape:
        raise ValueError(f"preexisting tilts have shape {state.y0.shape}, need {v.values.shape}")
    v_c_a, v_c_b = thresholds(state.q_a, state.q_b, p, len(v.values), c_s, c_q)
    v_c = v_c_a if firm == "a" else v_c_b
    return v_c, v.order[v.sorted_values > v_c + TIE_TOL]


def capped_fill(amount: float, caps: np.ndarray) -> np.ndarray:
    """Hand ``amount`` out in order: entry j gets min(cap_j, what the entries before it left)."""
    before = np.concatenate(([0.0], np.cumsum(caps)[:-1]))
    return np.clip(amount - before, 0.0, caps)


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
    does whatever budget is left.  ``K`` must be at least 0, and the costs
    positive (``thresholds`` checks them).
    """
    K, c_s, c_q = require_real("K", K, 0.0), require_real("c_s", c_s), require_real("c_q", c_q)
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
