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
from .params import ModelParams, require_qualities

_STATE_TOL = 1e-9


def externality_drift(q_a: float, q_b: float, p: ModelParams) -> float:
    """Per-step tilt toward the higher-quality product, common to all agents."""
    require_qualities(p, q_a, q_b)
    return (
        (1.0 + 2.0 * (p.alpha - p.beta))
        / (4.0 * p.beta)
        * (q_a - q_b)
        / (q_a + q_b)
    )


def _require_state(y: np.ndarray, n: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"state shape {y.shape} does not match n={n}")
    if not np.abs(y).max() <= 0.5 + _STATE_TOL:  # NaN fails
        raise ValueError(f"state outside [-1/2, 1/2]: max |y| = {np.abs(y).max()}")
    return y


def require_seeding(s: np.ndarray, n: int) -> np.ndarray:
    """Seeding vectors live in [0, 1/2] per agent."""
    s = np.asarray(s, dtype=float)
    if s.shape != (n,):
        raise ValueError(f"seeding shape {s.shape} does not match n={n}")
    if not (s.min() >= -_STATE_TOL and s.max() <= 0.5 + _STATE_TOL):  # NaN fails
        raise ValueError("seeding outside [0, 1/2] per agent")
    return s


def _require_horizon(T: int) -> None:
    if T < 0:
        raise ValueError(f"T must be nonnegative, got {T}")


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
    _require_horizon(T)
    y = _require_state(y0, g.n)
    u = externality_drift(q_a, q_b, p)
    traj = np.empty((T + 1, g.n))
    traj[0] = y
    for t in range(T):
        # an O(1) read of the verdict; bench/test_bench.py counts one per step
        require_valid(g)
        y = _advance(g, p, u, y)
        traj[t + 1] = y
    return traj


def stationary_state(
    g: SocialGraph, p: ModelParams, q_a: float, q_b: float
) -> np.ndarray:
    """Unique fixed point of the update; the influence operator contracts.

    W is row-stochastic, so W 1 = 1 and the fixed point is the constant
    tilt u * 2*beta / (2*beta - 1) on every agent (ModelParams keeps
    beta >= 1, so the denominator is positive).
    """
    require_valid(g)
    u = externality_drift(q_a, q_b, p)
    return np.full(g.n, u * 2.0 * p.beta / (2.0 * p.beta - 1.0))


def horizon_for_tolerance(p: ModelParams, n: int, tol: float = 1e-10) -> int:
    """Truncation horizon whose geometric tail bound stays below ``tol``.

    The per-step contribution to either firm's utility is within [0, n],
    so the tail after T is at most delta^(T+1) * n / (1 - delta).
    """
    if not tol > 0.0:  # NaN fails
        raise ValueError(f"tol must be positive, got {tol}")
    target = tol * (1.0 - p.delta) / n
    if target >= 1.0:
        return 0
    return max(0, math.ceil(math.log(target) / math.log(p.delta)))


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
    tol: float = 1e-10,
) -> UtilityReport:
    """Discounted total consumption utilities of both firms.

    ``closed_form`` evaluates the exact geometric sums through the
    centrality vector; ``simulated`` runs the spread process from
    y(0) = s_a - s_b and truncates once the tail bound drops under
    ``tol`` (or at an explicit horizon ``T``).
    """
    require_valid(g)
    if T is not None:
        _require_horizon(T)
    require_qualities(p, q_a, q_b)
    s_a = require_seeding(s_a, g.n)
    s_b = require_seeding(s_b, g.n)
    n = g.n
    lam = p.quality_weight(n)
    v = centrality(g, p).values
    base = n / (2.0 * (1.0 - p.delta))
    seed_a = dot(v, s_a)
    seed_b = dot(v, s_b)
    quality = lam * (q_a - q_b) / (q_a + q_b)
    if mode not in ("closed_form", "simulated"):
        raise ValueError(f"unknown mode {mode!r}; use 'closed_form' or 'simulated'")
    closed = UtilityReport(
        u_a=base + seed_a - seed_b + quality,
        u_b=base + seed_b - seed_a - quality,
        lam=lam,
        base=base,
        seeding_a=seed_a,
        seeding_b=seed_b,
        quality=quality,
        mode="closed_form",
    )
    if mode == "closed_form":
        return closed
    horizon = horizon_for_tolerance(p, n, tol) if T is None else T
    return simulated_report(closed, simulate(g, p, q_a, q_b, s_a - s_b, horizon), p)


def simulated_report(closed: UtilityReport, traj: np.ndarray, p: ModelParams) -> UtilityReport:
    """The closed-form report with its utilities summed over a (T+1, n) trajectory of tilts.

    Round t adds delta^t times the firm's total consumption share,
    n/2 + sum(y(t)) for firm a and n/2 - sum(y(t)) for firm b; the
    breakdown stays the closed form's, and the horizon is T.
    """
    n = traj.shape[1]
    tilt = traj.sum(axis=1)
    weights = p.delta ** np.arange(len(traj))
    return replace(
        closed,
        u_a=float(weights @ (n / 2.0 + tilt)),
        u_b=float(weights @ (n / 2.0 - tilt)),
        mode="simulated",
        horizon=len(traj) - 1,
    )
