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
``solve_nash`` walks firm a's candidates in order and, for each, brackets
firm b's marginal index by bisection, since b's conditions are monotone
in that index; ``solve_nash_iterative`` reaches the same point by
alternating exact best responses and is kept as an independent route.
"""

from __future__ import annotations

import bisect
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .centrality import CentralityVector, centrality
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
    seeding[order[:k]] = np.append(np.full(k - 1, 0.5), min(max(s_k, 0.0), 0.5))
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
    the objective evaluated on the returned seeding.
    """
    n = len(v.values)
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
    value = float(v.values @ seeding) + lam * (best_q - q_opp) / (best_q + q_opp)
    return best_q, seeding, value


def _pin(K: float, c_s: float, c_q: float, idx: int, case: str) -> float | None:
    """Quality left once every agent before the marginal one is fully seeded.

    Saturation seeds all n fully; interior cases leave the quality free.
    """
    if case == CASE_INTERIOR:
        return None
    full = idx if case == CASE_SATURATED else idx - 1
    return (K - c_s * full / 2.0) / c_q


def _firm_cases(K: float, c_s: float, c_q: float, eps: float, n: int) -> dict:
    """Per case tag, the marginal indices (ascending) a firm can take.

    Pinned qualities must reach the floor and fall as the index grows, so
    the boundary indices are a prefix; index n + 1 stands for saturation.
    """
    def unaffordable(idx):
        return _pin(K, c_s, c_q, idx, CASE_BOUNDARY) < eps - COND_TOL

    short = bisect.bisect_left(range(1, n + 2), True, key=unaffordable)
    return {
        CASE_INTERIOR: range(1, n + 1),
        CASE_BOUNDARY: range(1, min(short, n) + 1),
        CASE_SATURATED: range(n, n + 1) if short > n else range(0),
    }


def solve_nash(g: SocialGraph, p: ModelParams, budget: BudgetSpec) -> NashOutcome:
    """Unique equilibrium of the budget game from the marginal conditions.

    For every pair of marginal positions and case tags the two marginal
    conditions reduce to a closed-form solve for (q_a, q_b); a candidate
    is accepted iff every characterization condition holds within 1e-9,
    and ties between accepted candidates (degenerate centralities, exact
    boundaries) resolve to the lexicographically smallest (k, l, case).

    Firm a's candidates are taken by ascending k, so the search stops at
    the first k with an accepted candidate.  For each one, firm b's
    conditions are monotone in l within each of b's cases: interior
    seeds fall by at least 1/2 per step, a boundary case's v~_l rises
    while the centrality bracket falls, and saturation has the single
    index n.  Bisection finds the few l that pass them, so the search
    costs O(n log n) candidate solves instead of the O(n^2) of trying
    every pair, with the same result.
    """
    v = centrality(g, p)
    n = g.n
    for name, K in (("K_a", budget.K_a), ("K_b", budget.K_b)):
        if K < budget.c_q * p.epsilon - COND_TOL:
            raise ValueError(f"{name}={K} cannot afford minimum quality")
    lam = p.quality_weight(n)
    ratio = budget.c_s / budget.c_q
    vd = v.sorted_values
    K_b, c_s, c_q = budget.K_b, budget.c_s, budget.c_q
    cases_a = _firm_cases(budget.K_a, c_s, c_q, p.epsilon, n)
    cases_b = _firm_cases(K_b, c_s, c_q, p.epsilon, n)

    def rival_window(k, ca, cb):
        """Firm b's indices in case ``cb`` that pass its monotone conditions."""
        qa_pin = _pin(budget.K_a, c_s, c_q, k, ca)

        def solve(l):
            return _solve_case(lam, ratio, vd, k, l, ca, cb, qa_pin, _pin(K_b, c_s, c_q, l, cb))

        def side(l):
            sol = solve(l)
            return -1 if sol is None else _side(K_b, c_s, c_q, vd, sol[1], sol[3], l, cb)

        ls = cases_b[cb]
        for l in itertools.takewhile(
            lambda l: side(l) == 0, ls[bisect.bisect_left(ls, 0, key=side):]
        ):
            yield (l, *solve(l))

    best = None
    for k in range(1, n + 1):
        for ca, cb in itertools.product(cases_a, cases_b):
            if k not in cases_a[ca]:
                continue
            for l, q_a, q_b, vt_k, vt_l in rival_window(k, ca, cb):
                cand = (k, l, _CASE_RANK[ca], _CASE_RANK[cb], q_a, q_b, vt_k, vt_l, ca, cb)
                if (best is None or cand[:4] < best[:4]) and _conditions_ok(
                    budget, p, vd, n, q_a, q_b, vt_k, vt_l, k, l, ca, cb
                ):
                    best = cand
        if best is not None:
            break
    if best is None:
        raise SolverError(
            f"no equilibrium candidate satisfied the conditions "
            f"(n={n}, K_a={budget.K_a}, K_b={budget.K_b}, lam={lam})"
        )
    k, l, _, _, q_a, q_b, vt_k, vt_l, ca, cb = best
    log.debug("chose k=%d l=%d (%s, %s)", k, l, ca, cb)
    return _build_outcome(g, p, v, budget, q_a, q_b, vt_k, vt_l, k, l, ca, cb)


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


def _side(K, c_s, c_q, vd, q, vt, idx, case):
    """Where index ``idx`` lies against the window its firm's conditions allow.

    -1 below it, 0 inside, +1 above.  These are the conditions that are
    monotone in the index for a fixed rival candidate, so bisection on
    this sign brackets the window; the rest are left to _conditions_ok.
    """
    if case == CASE_INTERIOR:
        s_marginal = _marginal_seed(K, c_s, c_q, idx, q)
        return -1 if s_marginal > 0.5 + COND_TOL else int(s_marginal < -COND_TOL)
    if case == CASE_BOUNDARY:
        if vt < vd[idx - 1] - COND_TOL:
            return -1
        return int(idx > 1 and vt > vd[idx - 2] + COND_TOL)
    return 0


def _conditions_ok(budget, p, vd, n, q_a, q_b, vt_k, vt_l, k, l, case_a, case_b):
    if q_a < p.epsilon - COND_TOL or q_b < p.epsilon - COND_TOL:
        return False
    for q, vt, idx, case, K in (
        (q_a, vt_k, k, case_a, budget.K_a),
        (q_b, vt_l, l, case_b, budget.K_b),
    ):
        if _side(K, budget.c_s, budget.c_q, vd, q, vt, idx, case) != 0:
            return False
        if case == CASE_SATURATED:
            spend = K / budget.c_s - (budget.c_q / budget.c_s) * q
            if abs(spend - n / 2.0) > COND_TOL or vt > vd[n - 1] + COND_TOL:
                return False
        elif case == CASE_BOUNDARY:
            if abs(_marginal_seed(K, budget.c_s, budget.c_q, idx, q)) > COND_TOL:
                return False
    return True


def _build_outcome(g, p, v, budget, q_a, q_b, vt_k, vt_l, k, l, case_a, case_b):
    n = g.n

    def seeding_for(q, idx, case, K):
        if case == CASE_SATURATED:
            return _prefix_seeding(v.order, n, 0.5)
        return _prefix_seeding(v.order, idx, _marginal_seed(K, budget.c_s, budget.c_q, idx, q))

    s_a = seeding_for(q_a, k, case_a, budget.K_a)
    s_b = seeding_for(q_b, l, case_b, budget.K_b)
    base = n / (2.0 * (1.0 - p.delta))
    lam = p.quality_weight(n)
    gap = lam * (q_a - q_b) / (q_a + q_b)
    swing = float(v.values @ (s_a - s_b))
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


def solve_nash_iterative(
    g: SocialGraph,
    p: ModelParams,
    budget: BudgetSpec,
    move_tol: float = 1e-10,
    max_iter: int = 1000,
) -> NashOutcome:
    """Reach the equilibrium by alternating exact best responses.

    Started from a small grid of quality pairs; raises SolverError when no
    start settles within ``max_iter`` rounds.  Kept deliberately separate
    from the case search in ``solve_nash`` so the two can cross-check
    each other.
    """
    v = centrality(g, p)
    starts = [p.epsilon, budget.K_a / (2 * budget.c_q), budget.K_a / budget.c_q]
    starts_b = [p.epsilon, budget.K_b / (2 * budget.c_q), budget.K_b / budget.c_q]
    for qa0, qb0 in itertools.product(starts, starts_b):
        q_a, q_b = max(qa0, p.epsilon), max(qb0, p.epsilon)
        for _ in range(max_iter):
            q_a_new, _, _ = best_response_quality(
                v, p, budget.K_a, budget.c_s, budget.c_q, q_b
            )
            q_b_new, _, _ = best_response_quality(
                v, p, budget.K_b, budget.c_s, budget.c_q, q_a_new
            )
            moved = max(abs(q_a_new - q_a), abs(q_b_new - q_b))
            q_a, q_b = q_a_new, q_b_new
            if moved < move_tol:
                return _outcome_from_qualities(g, p, v, budget, q_a, q_b)
        log.debug("best-response iteration did not settle from start (%g, %g)", qa0, qb0)
    raise SolverError(
        f"best-response iteration did not converge within {max_iter} rounds"
    )


def _outcome_from_qualities(g, p, v, budget, q_a, q_b):
    """Label a converged quality pair with the characterization bookkeeping."""
    n = g.n
    lam = p.quality_weight(n)
    ratio = budget.c_s / budget.c_q
    total = (q_a + q_b) ** 2
    vt_k = 2 * lam * ratio * q_b / total
    vt_l = 2 * lam * ratio * q_a / total

    def classify(q, K):
        spend = (K - budget.c_q * q) / budget.c_s
        if spend >= n / 2.0 - COND_TOL:
            return CASE_SATURATED, n
        full_levels = int(round(spend * 2.0))
        if abs(spend - full_levels / 2.0) <= COND_TOL and full_levels < n:
            return CASE_BOUNDARY, full_levels + 1
        return CASE_INTERIOR, math.ceil(spend * 2.0 - COND_TOL)

    case_a, k = classify(q_a, budget.K_a)
    case_b, l = classify(q_b, budget.K_b)
    return _build_outcome(g, p, v, budget, q_a, q_b, vt_k, vt_l, max(k, 1), max(l, 1), case_a, case_b)


def solve_symmetric_levels(
    values_desc: np.ndarray,
    n: int,
    p: ModelParams,
    K: float,
    c_s: float,
    c_q: float,
) -> tuple[int, float, str, float, float]:
    """Shared single-firm level search for the symmetric game.

    Works on any descending centrality-like sequence (the actual sorted
    centralities, or an extremal envelope).  Returns (l, v~_l, case, q,
    s_l): the marginal position, marginal virtual centrality, case tag,
    common equilibrium quality and the marginal agent's seed, so the
    first l - 1 agents hold 1/2 each and agent l holds s_l (saturation
    is l = n with s_l = 1/2).
    """
    if K < c_q * p.epsilon - COND_TOL:
        raise ValueError(f"budget {K} cannot afford minimum quality")
    lam = p.quality_weight(n)
    ratio = c_s / c_q
    vd = np.asarray(values_desc, dtype=float)
    for l in range(1, n + 1):
        vt = vd[l - 1]
        q = lam / 2.0 * ratio / vt
        s_l = K / c_s - (l - 1) / 2.0 - (c_q / c_s) * q
        if q >= p.epsilon - COND_TOL and -COND_TOL <= s_l <= 0.5 + COND_TOL:
            return l, vt, CASE_INTERIOR, q, min(max(s_l, 0.0), 0.5)
        q = (K - c_s * (l - 1) / 2.0) / c_q
        if q >= p.epsilon - COND_TOL:
            vt = lam / 2.0 * ratio / q
            upper = math.inf if l == 1 else vd[l - 2] + COND_TOL
            if vd[l - 1] - COND_TOL <= vt <= upper:
                return l, vt, CASE_BOUNDARY, q, 0.0
    q = (K - c_s * n / 2.0) / c_q
    if q >= p.epsilon - COND_TOL:
        vt = lam / 2.0 * ratio / q
        if vt <= vd[n - 1] + COND_TOL:
            return n, vt, CASE_SATURATED, q, 0.5
    raise SolverError(
        f"no symmetric equilibrium level accepted (n={n}, K={K}, lam={lam})"
    )


def symmetric_nash(
    g: SocialGraph, p: ModelParams, K: float, c_s: float, c_q: float
) -> NashOutcome:
    """Equilibrium when both firms have the same budget: both play alike."""
    v = centrality(g, p)
    n = g.n
    l, vt, case, q, s_l = solve_symmetric_levels(v.sorted_values, n, p, K, c_s, c_q)
    strategy = FirmStrategy(seeding=_prefix_seeding(v.order, l, s_l), quality=q)
    base = n / (2.0 * (1.0 - p.delta))
    return NashOutcome(
        strategy_a=strategy,
        strategy_b=strategy,
        k=l,
        l=l,
        v_tilde_k=vt,
        v_tilde_l=vt,
        case_a=case,
        case_b=case,
        utility_a=base,
        utility_b=base,
    )
