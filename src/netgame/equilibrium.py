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
their breakpoints, and finishes with one closed-form solve on the piece
pair there; only a root at a breakpoint, where pairs can tie, or at the
quality floor sends it through every neighbouring pair in tie-break
order.  The symmetric game is the same solve with K_a = K_b, and the
extremal envelopes run it on their own descending sequences.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .centrality import CentralityVector, centrality, dot
from .dynamics import _closed_form_terms
from .graphs import SocialGraph
from .params import ModelParams, require_real

COND_TOL = 1e-9

CASE_INTERIOR = "interior"
CASE_BOUNDARY = "boundary_zero"
CASE_SATURATED = "saturated"
_CASE_RANK = {CASE_INTERIOR: 0, CASE_BOUNDARY: 1, CASE_SATURATED: 2}


def _widened(floor: float) -> float:
    """``floor`` less COND_TOL, but at least half of it: the tolerance must not eat a small one."""
    return max(floor - COND_TOL, floor / 2.0)


class SolverError(RuntimeError):
    """No equilibrium candidate satisfied the characterization conditions."""


@dataclass(frozen=True)
class BudgetSpec:
    """Per-firm budgets, at least 0, and the common positive unit costs of seeding and quality."""

    K_a: float
    K_b: float
    c_s: float
    c_q: float

    def __post_init__(self) -> None:
        positive = math.ulp(0.0)
        for name, low in (("K_a", 0.0), ("K_b", 0.0), ("c_s", positive), ("c_q", positive)):
            object.__setattr__(self, name, require_real(name, getattr(self, name), low))


@dataclass(frozen=True, eq=False)
class FirmStrategy:
    """A firm's choice: a read-only per-agent seeding in [0, 1/2] plus a quality level."""

    seeding: np.ndarray
    quality: float

    def __post_init__(self) -> None:
        s = np.array(self.seeding, dtype=float, copy=True)
        s.setflags(write=False)
        object.__setattr__(self, "seeding", s)

    @classmethod
    def _trusted(cls, seeding: np.ndarray, quality: float) -> "FirmStrategy":
        """The strategy owning ``solve_nash``'s fresh seeding array, frozen without a copy."""
        seeding.setflags(write=False)
        s = cls.__new__(cls)
        s.__dict__.update(seeding=seeding, quality=quality)
        return s

    @property
    def seeding_total(self) -> float:
        return float(self.seeding.sum())


@dataclass(frozen=True, eq=False)
class NashOutcome:
    """Equilibrium strategies with the characterization bookkeeping.

    ``k``/``l`` are the 1-based marginal positions in centrality order,
    ``v_tilde_k``/``v_tilde_l`` the marginal (virtual) centralities, and
    the case tags say whether the marginal agent is partially seeded
    (interior), unseeded with a full prefix (boundary_zero), or whether
    the whole population is fully seeded (saturated).  The utilities are
    ``dynamics``' closed form, as ``discounted_utilities`` gives them.
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


def water_fill_seeding(v: CentralityVector, amount: float) -> tuple[np.ndarray, int]:
    """Spread ``amount`` over agents in centrality order, 1/2 each at most.

    Returns the per-agent seeding vector and the marginal index k, the
    number of agents seeded: min(n, ceil(2*amount)), 0 for amount <= 0.
    The first k - 1 hold 1/2 and the k-th min(amount - (k - 1)/2, 1/2),
    ``_prefix_seeding``'s fill.  ``amount`` must lie in [0, n/2], up to COND_TOL.
    """
    return _water_fill(v.order, require_real(
        "seeding amount", amount, -COND_TOL, len(v.values) / 2.0 + COND_TOL))


def _water_fill(order: np.ndarray, amount: float) -> tuple[np.ndarray, int]:
    """``water_fill_seeding`` on an ``amount`` already checked or clipped to [0, n/2]."""
    k = min(len(order), math.ceil(2.0 * amount))
    if not k:
        return np.zeros(len(order)), 0
    return _prefix_seeding(order, k, min(amount - (k - 1) / 2.0, 0.5)), k


def _prefix_seeding(order: np.ndarray, k: int, s_k: float) -> np.ndarray:
    """Prefix seeding: full up to position k-1, ``s_k`` at position k."""
    seeding = np.zeros(len(order))
    seeding[order[: k - 1]] = 0.5
    seeding[order[k - 1]] = s_k
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

    The objective v.S(q) + lam*(q - q_opp)/(q + q_opp) is concave in q.
    With v sorted descending, agent j is marginal between the kinks
    q_j = (K - c_s*j/2)/c_q, which fall with j, and the slope there is
    positive below s_j = sqrt(2*lam*(c_s/c_q)*q_opp/v_j) - q_opp and
    negative above it, where s_j rises with j.  So the optimum is
    min(s_j, q_(j-1)) on the first piece with s_j >= q_j (q_n if none),
    clipped to the affordable range.  Rounding keeps both monotone, so a
    bisection finds that piece in O(log n) steps before the O(n) fill;
    ``tests/conftest.py`` keeps the whole-array test and the argmax over
    all candidates as oracles.  The value is the objective on the returned
    seeding.  ``c_s`` and ``c_q`` must be positive, ``K`` at least
    max(c_q*epsilon - COND_TOL, c_q*epsilon/2), what affords quality
    epsilon, and ``q_opp`` at least max(epsilon - COND_TOL, epsilon/2); an
    overflowing kink q_0 = K/c_q or q_n raises ``ValueError``.
    """
    n = len(v.values)
    c_s, c_q = require_real("c_s", c_s, math.ulp(0.0)), require_real("c_q", c_q, math.ulp(0.0))
    K = require_real("K", K, _widened(c_q * p.epsilon))
    q_opp = require_real("q_opp", q_opp, _widened(p.epsilon))
    lam = p.quality_weight(n)
    vd, c = v.sorted_values, 2.0 * lam * (c_s / c_q) * q_opp
    q_0, q_n = K / c_q, (K - c_s * n / 2.0) / c_q  # kinks j = 0 and n, which bound the rest
    if not (math.isfinite(q_0) and math.isfinite(q_n)):
        name = f"q_n = (K - c_s*{n}/2)/c_q" if math.isfinite(q_0) else "q_0 = K/c_q"
        raise ValueError(f"quality kink {name} overflows (K={K}, c_s={c_s}, c_q={c_q})")
    # bisect for the first piece with s_j >= q_j, j = lo + 1 (lo = n if none); each side is
    # computed as the array route computes it
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if math.sqrt(c / vd[mid]) - q_opp >= (K - c_s * (mid + 1) / 2.0) / c_q:
            hi = mid
        else:
            lo = mid + 1
    best_q = min(math.sqrt(c / vd[lo]) - q_opp, (K - c_s * lo / 2.0) / c_q) if lo < n else q_n
    best_q = float(max(min(best_q, q_0), p.epsilon, q_n))

    # a K that affords epsilon only within COND_TOL leaves a spend just below 0
    spend = (K - c_q * best_q) / c_s
    seeding, _ = _water_fill(v.order, min(max(spend, 0.0), n / 2.0))
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


class _QualityCurve(NamedTuple):
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
    def build(cls, vd: np.ndarray, spend: np.ndarray, K: float, c_q: float, eps: float):
        """The curve for budget ``K``; ``spend`` holds c_s*j/2 for j = 0 .. len(vd)."""
        n = len(vd)
        kinks, low = (K - spend) / c_q, _widened(eps)
        depth = min(n, int(np.count_nonzero(kinks[1:] >= low)) + 1)
        # ascending: q_depth, q_(depth-1), q_(depth-1), ..., q_1, q_1, q_0 against
        # v_depth, v_depth, v_(depth-1), v_(depth-1), ..., v_1, v_1
        q = np.repeat(np.maximum(kinks[depth::-1], eps), 2)[1:-1]
        w = np.repeat(vd[depth - 1 :: -1], 2) * q
        return cls(w, q, depth, bool(kinks[depth] < low))

    def __call__(self, w):
        return np.interp(w, self.w, self.q)

    def piece(self, t: int) -> tuple[int, str] | None:
        """(index, case) of piece t, which lies between breakpoints t - 1 and t.

        t = 0 is the left tail (saturated, or None at the floor), odd t
        interior and even t boundary_zero.
        """
        if t % 2:
            return self.depth - t // 2, CASE_INTERIOR
        if t:
            return self.depth - t // 2 + 1, CASE_BOUNDARY
        return None if self.floor else (self.depth, CASE_SATURATED)

    def cases_near(self, lo: float, hi: float, slack: float) -> list[tuple[int, int, str]]:
        """(index, case rank, case) of each piece within ``slack`` of [lo, hi], sorted.

        One piece either side is added, so ties at a breakpoint are all tried.
        """
        first = max(int(np.searchsorted(self.w, lo - slack, "left")) - 1, 0)
        last = min(int(np.searchsorted(self.w, hi + slack, "right")) + 1, len(self.w))
        cases = filter(None, map(self.piece, range(first, last + 1)))
        return sorted((idx, _CASE_RANK[case], case) for idx, case in cases)


def _root_bracket(a: _QualityCurve, b: _QualityCurve, scale: float) -> tuple[float, ...]:
    """Interval [lo, hi] of w holding the first root of scale*u(Q_a, Q_b) - w, and top.

    Since u <= 1/4, the root is at most the fold w = scale/4, where equal
    qualities put it.  It lies in the gap before the first breakpoint of
    either curve, or the fold, where the map has turned nonpositive.  top
    is the first breakpoint at or above hi (inf if none), so (lo, top) is
    the gap between breakpoints that holds the root.
    """
    hi = scale / 4.0
    for own, rival in ((a, b),) if a is b else ((a, b), (b, a)):
        q_rival = rival(own.w)
        phi = scale * own.q * q_rival / (own.q + q_rival) ** 2 - own.w
        hit = int(np.argmax(phi <= 0.0))
        if phi[hit] <= 0.0:
            hi = min(hi, float(own.w[hit]))
    lo, top = 0.0, math.inf
    for c in (a, b):
        i = int(np.searchsorted(c.w, hi))
        if i:
            lo = max(lo, float(c.w[i - 1]))
        if i < len(c.w):
            top = min(top, float(c.w[i]))
    return lo, hi, top


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
    brackets the root between breakpoints.  Each curve's piece at the
    bracket's midpoint gives that firm's case tag and marginal position,
    and that pair gets the closed-form solve for (q_a, q_b), accepted iff
    ``_conditions_ok`` holds (within 1e-9).  Unless the root
    lies near a breakpoint, that is the answer.  Otherwise (or for a
    rejected pair, or at the quality floor) every pair of pieces near the
    bracket is solved, and ties between accepted candidates resolve to the
    lexicographically smallest (k, l, case), as trying every pair would.
    ``K_a`` and ``K_b`` must each afford quality epsilon: at least
    max(c_q*epsilon - COND_TOL, c_q*epsilon/2).
    """
    v = centrality(g, p)
    return _build_outcome(p, v, *_solve_sequence(v.sorted_values, p, budget))


def _solve_sequence(vd: np.ndarray, p: ModelParams, budget: BudgetSpec) -> _Solution:
    """``solve_nash`` on a descending centrality-like sequence ``vd``.

    The sequence may be a graph's sorted centralities or an extremal
    envelope; the quality weight is that of n = len(vd) agents.
    """
    n = len(vd)
    afford = _widened(budget.c_q * p.epsilon)
    for name in ("K_a", "K_b"):  # each must afford quality epsilon
        require_real(name, getattr(budget, name), afford)
    lam = p.quality_weight(n)
    ratio = budget.c_s / budget.c_q
    c_s, c_q = budget.c_s, budget.c_q
    spend = c_s * np.arange(n + 1) / 2.0
    a = _QualityCurve.build(vd, spend, budget.K_a, c_q, p.epsilon)
    b = a if budget.K_b == budget.K_a else _QualityCurve.build(vd, spend, budget.K_b, c_q, p.epsilon)
    lo, hi, top = _root_bracket(a, b, 2.0 * lam * ratio)

    def accepted(k, ca, l, cb):
        qa_pin, qb_pin = _pin(budget.K_a, c_s, c_q, k, ca), _pin(budget.K_b, c_s, c_q, l, cb)
        sol = _solve_case(lam, ratio, vd, k, l, ca, cb, qa_pin, qb_pin)
        if sol is None or not _conditions_ok(budget, p, vd, n, *sol, k, l, ca, cb):
            return None
        seed_k = _clipped_seed(budget.K_a, c_s, c_q, k, sol[0], ca)
        seed_l = _clipped_seed(budget.K_b, c_s, c_q, l, sol[1], cb)
        return _Solution(*sol, k, l, ca, cb, seed_k, seed_l)

    # No breakpoint lies inside (lo, top), so the bracket's midpoint names
    # each firm's piece there.  A root that pair puts more than the slack
    # from both ends is the equilibrium; nearer a breakpoint, pairs may
    # tie, so every pair near the bracket is tried in tie-break order.
    slack, mid = 64.0 * COND_TOL * (1.0 + hi), 0.5 * (lo + hi)
    piece_a, piece_b = (c.piece(int(np.searchsorted(c.w, mid, "right"))) for c in (a, b))
    sol = accepted(*piece_a, *piece_b) if piece_a and piece_b else None
    if sol is None or not lo + slack < sol.vt_k * sol.q_a < top - slack:
        pairs = sorted(
            itertools.product(a.cases_near(lo, hi, slack), b.cases_near(lo, hi, slack)),
            key=lambda pair: (pair[0][0], pair[1][0], pair[0][1], pair[1][1]),
        )
        solved = (accepted(k, ca, l, cb) for (k, _, ca), (l, _, cb) in pairs)
        sol = next(filter(None, solved), None)
    if sol is not None:
        return sol
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
    """Whether a candidate meets, within 1e-9, what its closed form leaves open: qualities of at
    least epsilon (``_widened``), an interior seed in [0, 1/2] and a pinned v~ in its centrality
    bounds.  A pinned quality is ``_pin``'s, so its seed (0) or spend (n/2) holds by construction."""
    low = _widened(p.epsilon)
    if q_a < low or q_b < low:
        return False
    for q, vt, idx, case, K in (
        (q_a, vt_k, k, case_a, budget.K_a),
        (q_b, vt_l, l, case_b, budget.K_b),
    ):
        if case == CASE_INTERIOR:
            ok = -COND_TOL <= _marginal_seed(K, budget.c_s, budget.c_q, idx, q) <= 0.5 + COND_TOL
        else:  # j agents fully seeded: v~ lies between the last one's centrality and the next's
            j = idx if case == CASE_SATURATED else idx - 1
            ok = (j == n or vt >= vd[j] - COND_TOL) and (j == 0 or vt <= vd[j - 1] + COND_TOL)
        if not ok:
            return False
    return True


def _build_outcome(p, v, q_a, q_b, vt_k, vt_l, k, l, case_a, case_b, seed_k, seed_l):
    s_a = _prefix_seeding(v.order, k, seed_k)
    s_b = _prefix_seeding(v.order, l, seed_l)
    u_a, u_b, *_ = _closed_form_terms(p, v.values, q_a, q_b, s_a, s_b)
    return NashOutcome(
        strategy_a=FirmStrategy._trusted(s_a, q_a),
        strategy_b=FirmStrategy._trusted(s_b, q_b),
        k=k,
        l=l,
        v_tilde_k=vt_k,
        v_tilde_l=vt_l,
        case_a=case_a,
        case_b=case_b,
        utility_a=u_a,
        utility_b=u_b,
    )


def symmetric_nash(
    g: SocialGraph, p: ModelParams, K: float, c_s: float, c_q: float
) -> NashOutcome:
    """Equilibrium when both firms have the same budget: ``solve_nash`` with K_a = K_b."""
    return solve_nash(g, p, BudgetSpec(K, K, c_s, c_q))
