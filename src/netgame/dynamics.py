"""Consumption spread dynamics and discounted firm utilities.

State is tracked as each agent's tilt y_i = x_i - 1/2 away from an even
split between the two products, so the admissible range is |y_i| <= 1/2.
Myopic best responses make the tilt vector follow the linear recursion
y(t+1) = W y(t) + u * 1, where W scales the influence weights by
1/(2*beta) and u is the common drift induced by the quality gap.
``simulate`` runs the recursion, one pass over the graph's stored
(sparse) rows per step, O(m) for m edges; ``simulate(..., 1)[1]`` is one
round of best responses.  Each agent's one-round payoff, which the
update maximizes, is kept in the tests as the oracle for the update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .centrality import centrality, dot
from .graphs import SocialGraph, require_valid
from .params import ModelParams, require_count, require_qualities, require_real, require_vector

_STATE_TOL = 1e-9


def externality_drift(q_a: float, q_b: float, p: ModelParams) -> float:
    """Per-step tilt toward the higher-quality product, common to all agents."""
    q_a, q_b = require_qualities(p, q_a, q_b)
    return (
        (1.0 + 2.0 * (p.alpha - p.beta))
        / (4.0 * p.beta)
        * (q_a - q_b)
        / (q_a + q_b)
    )


def _advance(g: SocialGraph, p: ModelParams, u: float, y: np.ndarray) -> np.ndarray:
    """y(t+1) = W y(t) + u for a valid graph and an admissible state, range-checked.

    Each row of a valid graph sums to 1, so none is empty and
    ``reduceat`` sums exactly the row's own entries.
    """
    nxt = np.add.reduceat(g.data * y[g.indices], g.indptr[:-1]) / (2.0 * p.beta) + u
    if not np.abs(nxt).max() <= 0.5 + _STATE_TOL:
        raise ArithmeticError(
            f"updated state left [-1/2, 1/2]: max |y| = {np.abs(nxt).max()}"
        )
    return nxt


def simulate(
    g: SocialGraph,
    p: ModelParams,
    q_a: float,
    q_b: float,
    y0: np.ndarray,
    T: int,
) -> np.ndarray:
    """Run T rounds of simultaneous myopic best responses from y(0) = ``y0``.

    Returns the (T+1, n) trajectory including y(0).  The drift and y(0)
    are checked once.  Every step's output is range-checked, not clamped:
    leaving [-1/2, 1/2] means the inputs broke the model's assumptions
    upstream, and raises ``ArithmeticError``.
    """
    require_valid(g)
    T = require_count("T", T, 0)
    y = require_vector("y0", y0, g.n, -0.5 - _STATE_TOL, 0.5 + _STATE_TOL)
    u = externality_drift(q_a, q_b, p)
    traj = np.empty((T + 1, g.n))
    traj[0] = y
    for t in range(T):
        # an O(1) read of the verdict; bench/test_bench.py counts one per step
        require_valid(g)
        y = _advance(g, p, u, y)
        traj[t + 1] = y
    return traj


def horizon_for_tolerance(p: ModelParams, n: int, tol: float = 1e-10) -> int:
    """Truncation horizon whose geometric tail bound stays below ``tol``.

    The per-step contribution to either firm's utility is within [0, n],
    so the tail after T is at most delta^(T+1) * n / (1 - delta).
    ``tol`` must be positive.
    """
    tol, n = require_real("tol", tol, math.ulp(0.0)), require_count("n", n, 1)
    target = tol * (1.0 - p.delta) / n
    if target >= 1.0:
        return 0
    # a target below the smallest float rounds to 0, whose log is undefined
    log_target = math.log(target) if target else math.log(tol) + math.log((1.0 - p.delta) / n)
    return max(0, math.ceil(log_target / math.log(p.delta)))


@dataclass(frozen=True)
class UtilityReport:
    """Both firms' discounted utilities with the closed-form decomposition.

    ``u_a = base + seeding_a - seeding_b + quality`` and ``u_b`` mirrors
    it; ``lam`` is the quality weight.  The decomposition is always the
    closed form even when the headline values come from simulation.
    """

    u_a: float
    u_b: float
    lam: float
    base: float
    seeding_a: float
    seeding_b: float
    quality: float
    mode: str
    horizon: int | None = None

    def to_dict(self) -> dict:
        return {
            "U_a": self.u_a,
            "U_b": self.u_b,
            "lambda": self.lam,
            "breakdown": {
                "base": self.base,
                "seeding_a": self.seeding_a,
                "seeding_b": self.seeding_b,
                "quality": self.quality,
            },
            "mode": self.mode,
            "horizon": self.horizon,
        }


def discounted_utilities(
    g: SocialGraph,
    p: ModelParams,
    q_a: float,
    q_b: float,
    s_a: np.ndarray,
    s_b: np.ndarray,
    mode: str = "closed_form",
    T: int | None = None,
) -> UtilityReport:
    """Discounted total consumption utilities of both firms.

    ``closed_form`` evaluates the exact geometric sums through the
    centrality vector; ``simulated`` runs the spread process from
    y(0) = s_a - s_b for ``T`` steps, by default the
    ``horizon_for_tolerance`` one, whose tail bound is below 1e-10.
    """
    require_valid(g)
    if T is not None:
        T = require_count("T", T, 0)
    q_a, q_b = require_qualities(p, q_a, q_b)
    s_a = require_vector("s_a", s_a, g.n, -_STATE_TOL, 0.5 + _STATE_TOL)
    s_b = require_vector("s_b", s_b, g.n, -_STATE_TOL, 0.5 + _STATE_TOL)
    if mode not in ("closed_form", "simulated"):
        raise ValueError(f"unknown mode {mode!r}; use 'closed_form' or 'simulated'")
    terms = _closed_form_terms(p, centrality(g, p).values, q_a, q_b, s_a, s_b)
    closed = UtilityReport(*terms, mode="closed_form")
    if mode == "closed_form":
        return closed
    horizon = horizon_for_tolerance(p, g.n) if T is None else T
    return simulated_report(closed, simulate(g, p, q_a, q_b, s_a - s_b, horizon), p)


def _closed_form_terms(p, v, q_a, q_b, s_a, s_b) -> tuple:
    """Both firms' closed-form utilities and their breakdown: ``UtilityReport``'s fields up to
    ``mode``, which ``discounted_utilities`` reports and ``solve_nash`` reads u_a and u_b of."""
    n = len(v)
    lam = p.quality_weight(n)
    base = n / (2.0 * (1.0 - p.delta))
    seed_a = dot(v, s_a)
    seed_b = dot(v, s_b)
    quality = lam * (q_a - q_b) / (q_a + q_b)
    return (base + seed_a - seed_b + quality, base + seed_b - seed_a - quality,
            lam, base, seed_a, seed_b, quality)


def simulated_report(closed: UtilityReport, traj: np.ndarray, p: ModelParams) -> UtilityReport:
    """The closed-form report with its utilities summed over a (T+1, n) trajectory of tilts.

    Round t adds delta^t times the firm's total consumption share,
    n/2 + sum(y(t)) for firm a and n/2 - sum(y(t)) for firm b, summed by
    ``dot``; the breakdown stays the closed form's, and the horizon is T.
    """
    n = traj.shape[1]
    tilt = traj.sum(axis=1)
    weights = p.delta ** np.arange(len(traj))
    return replace(
        closed,
        u_a=dot(weights, n / 2.0 + tilt),
        u_b=dot(weights, n / 2.0 - tilt),
        mode="simulated",
        horizon=len(traj) - 1,
    )
