"""Nash equilibrium of the budget-allocation game between the two firms.

Each firm splits a budget between product quality and seeding agents'
initial consumption, paying c_q per quality unit and c_s per seeding
unit (at most 1/2 per agent).  Equilibrium seeding water-fills agents in
centrality order, and the marginal agent's (virtual) centrality pins the
equilibrium qualities through

    v~_k = 2 * lam * (c_s/c_q) * q_b / (q_a + q_b)^2     (firm a)
    v~_l = 2 * lam * (c_s/c_q) * q_a / (q_a + q_b)^2     (firm b)

Each firm's marginal agent is interior (partially seeded), boundary_zero
(unseeded after a full prefix) or saturated (everyone fully seeded).
Both conditions read v~ * q = w for the one number w = 2*lam*(c_s/c_q)*u,
u = q_a*q_b/(q_a + q_b)^2, and each firm's quality is an increasing
piecewise-linear function of w.  ``solve_nash`` builds both curves in
O(n), brackets the root of 2*lam*(c_s/c_q)*u(Q_a(w), Q_b(w)) = w between
their breakpoints, and finishes with one closed-form solve per case
pair there.  The symmetric game is the same solve with K_a = K_b, and
the extremal envelopes run it on their own descending sequences.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .centrality import CentralityVector, centrality, dot
from .graphs import SocialGraph
from .params import ModelParams

log = logging.getLogger("netgame.equilibrium")

COND_TOL = 1e-9

CASE_INTERIOR = "interior"
CASE_BOUNDARY = "boundary_zero"
CASE_SATURATED = "saturated"
_CASE_RANK = {CASE_INTERIOR: 0, CASE_BOUNDARY: 1, CASE_SATURATED: 2}


class SolverError(RuntimeError):
    """No equilibrium candidate satisfied the characterization conditions."""


@dataclass(frozen=True)
class BudgetSpec:
    """Per-firm budgets and the common unit costs of seeding and quality."""

    K_a: float
    K_b: float
    c_s: float
    c_q: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, vars(self).values())):
            raise ValueError(f"budgets and costs must be finite: {self}")
        if self.c_s <= 0.0 or self.c_q <= 0.0:
            raise ValueError(f"costs must be positive: c_s={self.c_s}, c_q={self.c_q}")
        if self.K_a < 0.0 or self.K_b < 0.0:
            raise ValueError(f"budgets must be nonnegative: {self.K_a}, {self.K_b}")


@dataclass(frozen=True)
class FirmStrategy:
    """A firm's choice: per-agent seeding in [0, 1/2] plus a quality level."""

    seeding: np.ndarray
    quality: float

    def __post_init__(self) -> None:
        s = np.array(self.seeding, dtype=float, copy=True)
        s.setflags(write=False)
        object.__setattr__(self, "seeding", s)

    @property
    def seeding_total(self) -> float:
        return float(self.seeding.sum())

    def spend(self, c_s: float, c_q: float) -> float:
        return c_s * self.seeding_total + c_q * self.quality


@dataclass(frozen=True)
class NashOutcome:
    """Equilibrium strategies with the characterization bookkeeping.

    ``k``/``l`` are the 1-based marginal positions in centrality order,
    ``v_tilde_k``/``v_tilde_l`` the marginal (virtual) centralities, and
    the case tags say whether the marginal agent is partially seeded
    (interior), unseeded with a full prefix (boundary_zero), or whether
    the whole population is fully seeded (saturated).
    """

    strategy_a: FirmStrategy
    strategy_b: FirmStrategy
    k: int
    l: int
    v_tilde_k: float
    v_tilde_l: float
    case_a: str
    case_b: str
    utility_a: float
    utility_b: float

    def to_dict(self) -> dict:
        return {
            "qualities": {"a": self.strategy_a.quality, "b": self.strategy_b.quality},
            "seeding": {
                "a": self.strategy_a.seeding.tolist(),
                "b": self.strategy_b.seeding.tolist(),
            },
            "seeding_totals": {
                "a": self.strategy_a.seeding_total,
                "b": self.strategy_b.seeding_total,
            },
            "k": self.k,
            "l": self.l,
            "v_tilde_k": self.v_tilde_k,
            "v_tilde_l": self.v_tilde_l,
            "case": {"a": self.case_a, "b": self.case_b},
            "utilities": {"a": self.utility_a, "b": self.utility_b},
        }


def capped_fill(amount: float, caps: np.ndarray) -> np.ndarray:
    """Hand ``amount`` out in the given order, each entry up to its cap.

    Entry j gets min(cap_j, what the entries before it left over).  With
    caps of 1/2 the running totals j/2 are exact, and so is amount - j/2
    for amounts below 2**52, so this equals handing out 1/2 at a time.
    """
    before = np.concatenate(([0.0], np.cumsum(caps)[:-1]))
    return np.clip(amount - before, 0.0, caps)


def water_fill_seeding(v: CentralityVector, amount: float) -> tuple[np.ndarray, int]:
    """Spread ``amount`` over agents in centrality order, 1/2 each at most.

    Returns the per-agent seeding vector and the marginal index: the
    number of agents receiving any seed (the last of them may be
    partial).  Rejects non-finite and negative amounts and amounts above n/2.
    """
    n = len(v.values)
    if not math.isfinite(amount):
        raise ValueError(f"seeding amount {amount} is not finite")
    if amount < -COND_TOL:
        raise ValueError(f"seeding amount {amount} is negative")
    if amount > n / 2.0 + COND_TOL:
        raise ValueError(f"seeding amount {amount} exceeds capacity {n / 2.0}")
    fill = capped_fill(min(max(amount, 0.0), n / 2.0), np.full(n, 0.5))
    seeding = np.zeros(n)
    seeding[v.order] = fill
    return seeding, int(np.count_nonzero(fill))


def _prefix_seeding(order: np.ndarray, k: int, s_k: float) -> np.ndarray:
    """Prefix seeding: full up to position k-1, ``s_k`` at position k."""
    seeding = np.zeros(len(order))
    seeding[order[:k]] = np.append(np.full(k - 1, 0.5), s_k)
    return seeding


def best_response_quality(
    v: CentralityVector,
    p: ModelParams,
    K: float,
    c_s: float,
    c_q: float,
    q_opp: float,
) -> tuple[float, np.ndarray, float]:
    """Exact best reply: optimal quality, its water-filled seeding, and value.

    The reduced objective v.S(q) + lam*(q - q_opp)/(q + q_opp) is concave
    in q and piecewise smooth between the spend levels where the marginal
    agent changes, so it suffices to compare the per-piece stationary
    points (closed form) with the piece endpoints.  Candidates are scored
    from prefix sums of the sorted centralities; the returned value is
    the objective evaluated on the returned seeding.  ``K``, ``c_s`` and
    ``c_q`` are checked as ``BudgetSpec`` checks them, and ``q_opp`` must
    be finite and at least epsilon.
    """
    n = len(v.values)
    BudgetSpec(K, K, c_s, c_q)
    if not math.isfinite(q_opp):
        raise ValueError(f"opponent quality {q_opp} is not finite")
    if q_opp < p.epsilon - COND_TOL:
        raise ValueError(f"opponent quality {q_opp} below epsilon={p.epsilon}")
    if K < c_q * p.epsilon - COND_TOL:
        raise ValueError(f"budget {K} cannot afford minimum quality")
    lam = p.quality_weight(n)
    ratio = c_s / c_q
    vd = v.sorted_values
    q_hi = K / c_q
    q_lo = max(p.epsilon, (K - c_s * n / 2.0) / c_q)

    j = np.arange(1, n + 1)
    piece_hi = np.minimum((K - c_s * (j - 1) / 2.0) / c_q, q_hi)
    piece_lo = np.maximum((K - c_s * j / 2.0) / c_q, q_lo)
    live = (piece_hi >= q_lo) & (piece_lo <= q_hi) & (piece_hi > piece_lo)
    stationary = np.sqrt(2.0 * lam * ratio * q_opp / vd) - q_opp
    inside = live & (piece_lo <= stationary) & (stationary <= piece_hi)
    q = np.concatenate(([q_lo, q_hi], piece_lo[live], piece_hi[live], stationary[inside]))
    spend = np.clip((K - c_q * q) / c_s, 0.0, n / 2.0)
    full = np.minimum((2.0 * spend).astype(int), n)
    prefix = np.concatenate(([0.0], np.cumsum(vd)))
    seeded = 0.5 * prefix[full] + (spend - 0.5 * full) * np.append(vd, 0.0)[full]
    best_q = float(q[np.argmax(seeded + lam * (q - q_opp) / (q + q_opp))])

    spend = (K - c_q * best_q) / c_s
    seeding, _ = water_fill_seeding(v, min(spend, n / 2.0))
    value = dot(v.values, seeding) + lam * (best_q - q_opp) / (best_q + q_opp)
    return best_q, seeding, value


def _pin(K: float, c_s: float, c_q: float, idx: int, case: str) -> float | None:
    """Quality left once every agent before the marginal one is fully seeded.

    Saturation seeds all n fully; interior cases leave the quality free.
    """
    if case == CASE_INTERIOR:
        return None
    full = idx if case == CASE_SATURATED else idx - 1
    return (K - c_s * full / 2.0) / c_q


@dataclass(frozen=True)
class _QualityCurve:
    """One firm's equilibrium quality Q(w) as a function of w = v~ * q.

    Both marginal conditions read v~ * q = w with w = 2*lam*r*u and
    u = q_a*q_b/(q_a + q_b)^2, so given w each firm's quality is fixed by
    its own budget alone.  With kinks q_j = (K - c_s*j/2)/c_q (j agents
    fully seeded), Q is w/v_j on [v_j*q_j, v_j*q_(j-1)] (interior, index
    j) and flat at q_j on [v_(j+1)*q_j, v_j*q_j] (boundary_zero, index
    j + 1).  Left of the first breakpoint Q is flat at the saturation
    quality, or at epsilon once the kinks fall below it (``floor``).
    """

    w: np.ndarray
    q: np.ndarray
    depth: int
    floor: bool

    @classmethod
    def build(cls, vd: np.ndarray, K: float, c_s: float, c_q: float, eps: float):
        n = len(vd)
        kinks = (K - c_s * np.arange(n + 1) / 2.0) / c_q
        depth = min(n, int(np.count_nonzero(kinks[1:] >= eps - COND_TOL)) + 1)
        q = np.maximum(kinks[: depth + 1], eps)
        v = vd[:depth]
        w = np.column_stack((v * q[1:], v * q[:-1]))[::-1].ravel()
        q = np.column_stack((q[1:], q[:-1]))[::-1].ravel()
        return cls(w, q, depth, bool(kinks[depth] < eps - COND_TOL))

    def __call__(self, w):
        return np.interp(w, self.w, self.q)

    def cases_near(self, lo: float, hi: float) -> list[tuple[int, int, str]]:
        """(index, case rank, case) of each piece within reach of [lo, hi], sorted.

        Piece t lies between breakpoints t - 1 and t: t = 0 is the left
        tail, odd t interior and even t boundary_zero.  One piece either
        side is added, so ties at a breakpoint are all tried.
        """
        slack = 64.0 * COND_TOL * (1.0 + hi)
        first = max(int(np.searchsorted(self.w, lo - slack, "left")) - 1, 0)
        last = min(int(np.searchsorted(self.w, hi + slack, "right")) + 1, len(self.w))
        cases = []
        for t in range(first, last + 1):
            if t % 2:
                cases.append((self.depth - t // 2, CASE_INTERIOR))
            elif t:
                cases.append((self.depth - t // 2 + 1, CASE_BOUNDARY))
            elif not self.floor:
                cases.append((self.depth, CASE_SATURATED))
        return sorted((idx, _CASE_RANK[case], case) for idx, case in cases)


def _root_bracket(a: _QualityCurve, b: _QualityCurve, scale: float) -> tuple[float, float]:
    """Interval [lo, hi] of w holding the first root of scale*u(Q_a, Q_b) - w.

    Since u <= 1/4, the root is at most the fold w = scale/4, where equal
    qualities put it.  It lies in the gap before the first breakpoint of
    either curve, or the fold, where the map has turned nonpositive.
    """
    hi = scale / 4.0
    for own, rival in ((a, b),) if a is b else ((a, b), (b, a)):
        q_rival = rival(own.w)
        phi = scale * own.q * q_rival / (own.q + q_rival) ** 2 - own.w
        hit = int(np.argmax(phi <= 0.0))
        if phi[hit] <= 0.0:
            hi = min(hi, float(own.w[hit]))
    lo = 0.0
    for c in (a, b):
        i = int(np.searchsorted(c.w, hi))
        if i:
            lo = max(lo, float(c.w[i - 1]))
    return lo, hi


class _Solution(NamedTuple):
    """Both firms' equilibrium on one descending centrality sequence.

    ``seed_k``/``seed_l`` are the marginal agents' seeds, already clipped
    to [0, 1/2]: the first k - 1 agents hold 1/2 each and agent k holds
    ``seed_k`` (saturation is k = n with 1/2).
    """

    q_a: float
    q_b: float
    vt_k: float
    vt_l: float
    k: int
    l: int
    case_a: str
    case_b: str
    seed_k: float
    seed_l: float


def solve_nash(g: SocialGraph, p: ModelParams, budget: BudgetSpec) -> NashOutcome:
    """Unique equilibrium of the budget game from the marginal conditions.

    Each firm's quality is an increasing piecewise-linear function of w
    (``_QualityCurve``), so the equilibrium is the root of
    2*lam*r*u(Q_a(w), Q_b(w)) = w: O(n) numpy work builds both curves and
    brackets the root between breakpoints.  The pieces there give each
    firm's case tag and marginal position; every pair of them gets the
    closed-form solve for (q_a, q_b) and is accepted iff every
    characterization condition holds within 1e-9.  Ties between accepted
    candidates (degenerate centralities, exact boundaries) resolve to the
    lexicographically smallest (k, l, case), as trying every pair would.
    """
    v = centrality(g, p)
    return _build_outcome(p, v, *_solve_sequence(v.sorted_values, p, budget))


def _solve_sequence(vd: np.ndarray, p: ModelParams, budget: BudgetSpec) -> _Solution:
    """``solve_nash`` on a descending centrality-like sequence ``vd``.

    The sequence may be a graph's sorted centralities or an extremal
    envelope; the quality weight is that of n = len(vd) agents.
    """
    n = len(vd)
    for name, K in (("K_a", budget.K_a), ("K_b", budget.K_b)):
        if K < budget.c_q * p.epsilon - COND_TOL:
            raise ValueError(f"{name}={K} cannot afford minimum quality")
    lam = p.quality_weight(n)
    ratio = budget.c_s / budget.c_q
    c_s, c_q = budget.c_s, budget.c_q
    a = _QualityCurve.build(vd, budget.K_a, c_s, c_q, p.epsilon)
    b = a if budget.K_b == budget.K_a else _QualityCurve.build(vd, budget.K_b, c_s, c_q, p.epsilon)
    lo, hi = _root_bracket(a, b, 2.0 * lam * ratio)
    for (k, rank_a, ca), (l, rank_b, cb) in sorted(
        itertools.product(a.cases_near(lo, hi), b.cases_near(lo, hi)),
        key=lambda pair: (pair[0][0], pair[1][0], pair[0][1], pair[1][1]),
    ):
        qa_pin, qb_pin = _pin(budget.K_a, c_s, c_q, k, ca), _pin(budget.K_b, c_s, c_q, l, cb)
        sol = _solve_case(lam, ratio, vd, k, l, ca, cb, qa_pin, qb_pin)
        if sol is not None and _conditions_ok(budget, p, vd, n, *sol, k, l, ca, cb):
            log.debug("chose k=%d l=%d (%s, %s)", k, l, ca, cb)
            seed_k = _clipped_seed(budget.K_a, c_s, c_q, k, sol[0], ca)
            seed_l = _clipped_seed(budget.K_b, c_s, c_q, l, sol[1], cb)
            return _Solution(*sol, k, l, ca, cb, seed_k, seed_l)
    floored = [name for name, c in (("a", a), ("b", b)) if c.floor and hi <= c.w[0]]
    if floored:
        raise SolverError(
            f"firm {' and '.join(floored)}'s equilibrium quality sits at the floor "
            f"epsilon={p.epsilon}, outside the interior, boundary_zero and saturated "
            f"cases (K_a={budget.K_a}, K_b={budget.K_b})"
        )
    raise SolverError(
        f"no equilibrium candidate satisfied the conditions "
        f"(n={n}, K_a={budget.K_a}, K_b={budget.K_b}, lam={lam})"
    )


def _solve_case(lam, ratio, vd, k, l, case_a, case_b, qa_pin, qb_pin):
    """Solve the two marginal conditions for (q_a, q_b, v~_k, v~_l)."""
    if case_a == CASE_INTERIOR and case_b == CASE_INTERIOR:
        vt_k, vt_l = vd[k - 1], vd[l - 1]
        den = (vt_k + vt_l) ** 2
        return 2 * lam * ratio * vt_l / den, 2 * lam * ratio * vt_k / den, vt_k, vt_l
    if case_a == CASE_INTERIOR:
        vt_k, q_b = vd[k - 1], qb_pin
        q_a = math.sqrt(2 * lam * ratio * q_b / vt_k) - q_b
        if q_a <= 0.0:
            return None
        vt_l = 2 * lam * ratio * q_a / (q_a + q_b) ** 2
        return q_a, q_b, vt_k, vt_l
    if case_b == CASE_INTERIOR:
        vt_l, q_a = vd[l - 1], qa_pin
        q_b = math.sqrt(2 * lam * ratio * q_a / vt_l) - q_a
        if q_b <= 0.0:
            return None
        vt_k = 2 * lam * ratio * q_b / (q_a + q_b) ** 2
        return q_a, q_b, vt_k, vt_l
    q_a, q_b = qa_pin, qb_pin
    total = (q_a + q_b) ** 2
    return q_a, q_b, 2 * lam * ratio * q_b / total, 2 * lam * ratio * q_a / total


def _marginal_seed(K, c_s, c_q, idx, q):
    """Seed left for the marginal agent at position ``idx`` after buying ``q``."""
    return K / c_s - (idx - 1) / 2.0 - (c_q / c_s) * q


def _clipped_seed(K, c_s, c_q, idx, q, case):
    """The marginal agent's seed in [0, 1/2]; saturation seeds everyone fully."""
    if case == CASE_SATURATED:
        return 0.5
    return min(max(_marginal_seed(K, c_s, c_q, idx, q), 0.0), 0.5)


def _conditions_ok(budget, p, vd, n, q_a, q_b, vt_k, vt_l, k, l, case_a, case_b):
    """Whether a solved candidate meets every characterization condition within 1e-9."""
    if q_a < p.epsilon - COND_TOL or q_b < p.epsilon - COND_TOL:
        return False
    for q, vt, idx, case, K in (
        (q_a, vt_k, k, case_a, budget.K_a),
        (q_b, vt_l, l, case_b, budget.K_b),
    ):
        seed = _marginal_seed(K, budget.c_s, budget.c_q, idx, q)
        if case == CASE_INTERIOR:
            ok = -COND_TOL <= seed <= 0.5 + COND_TOL
        elif case == CASE_BOUNDARY:
            ok = (
                abs(seed) <= COND_TOL
                and vt >= vd[idx - 1] - COND_TOL
                and (idx == 1 or vt <= vd[idx - 2] + COND_TOL)
            )
        else:
            spend = K / budget.c_s - (budget.c_q / budget.c_s) * q
            ok = abs(spend - n / 2.0) <= COND_TOL and vt <= vd[n - 1] + COND_TOL
        if not ok:
            return False
    return True


def _build_outcome(p, v, q_a, q_b, vt_k, vt_l, k, l, case_a, case_b, seed_k, seed_l):
    n = len(v.values)
    s_a = _prefix_seeding(v.order, k, seed_k)
    s_b = _prefix_seeding(v.order, l, seed_l)
    base = n / (2.0 * (1.0 - p.delta))
    lam = p.quality_weight(n)
    gap = lam * (q_a - q_b) / (q_a + q_b)
    swing = dot(v.values, s_a - s_b)
    return NashOutcome(
        strategy_a=FirmStrategy(seeding=s_a, quality=q_a),
        strategy_b=FirmStrategy(seeding=s_b, quality=q_b),
        k=k,
        l=l,
        v_tilde_k=vt_k,
        v_tilde_l=vt_l,
        case_a=case_a,
        case_b=case_b,
        utility_a=base + swing + gap,
        utility_b=base - swing - gap,
    )


def symmetric_nash(
    g: SocialGraph, p: ModelParams, K: float, c_s: float, c_q: float
) -> NashOutcome:
    """Equilibrium when both firms have the same budget: ``solve_nash`` with K_a = K_b."""
    return solve_nash(g, p, BudgetSpec(K, K, c_s, c_q))
