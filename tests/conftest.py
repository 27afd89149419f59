"""Shared fixtures and random-instance generators.

Random draws stay inside the model's admissible region (1 + alpha <= 2*beta,
beta <= alpha, 0 < delta < 1).  Budget pairs are screened so the equilibrium
case characterization applies; see draw_instance.
"""
from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
import signal
import sys

import numpy as np
import pytest

from netgame import (
    BudgetSpec,
    ModelParams,
    SocialGraph,
    balanced_centrality,
    centrality,
    generate,
    solve_nash,
    star_centralities,
)
from netgame.allocation import capped_fill
from netgame.centrality import dot
from netgame.dynamics import _STATE_TOL
from netgame.equilibrium import (
    CASE_BOUNDARY,
    CASE_INTERIOR,
    CASE_SATURATED,
    COND_TOL,
    SolverError,
    _build_outcome,
    _widened,
    best_response_quality,
    water_fill_seeding,
)
from netgame.extremal import _regime_by_endpoints
from netgame.graphs import require_valid
from netgame.params import require_qualities, require_vector

EXAMPLE_N = 15


@pytest.fixture
def example_params() -> ModelParams:
    # alpha = beta = 1, delta = 1/2: the setting all worked values are frozen at
    return ModelParams(alpha=1.0, beta=1.0, delta=0.5)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260815)


def draw_params(rng: np.random.Generator) -> ModelParams:
    alpha = float(rng.uniform(1.0, 2.2))
    beta = float(rng.uniform((1.0 + alpha) / 2.0, alpha))
    delta = float(rng.uniform(0.2, 0.85))
    return ModelParams(alpha=alpha, beta=beta, delta=delta)


def dense_graph(w) -> SocialGraph:
    """The graph whose dense weights are the square matrix ``w``, built from its nonzero pattern."""
    w = np.asarray(w, dtype=float)
    n = len(w)
    rows, cols = np.nonzero(w)
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=n))]
    return SocialGraph.from_csr(n, indptr, cols, w[rows, cols])


def draw_graph(rng: np.random.Generator, n: int, density: float | None = None) -> SocialGraph:
    """Row-stochastic weights with a random sparsity pattern, zero diagonal."""
    if density is None:
        density = float(rng.uniform(0.3, 1.0))
    while True:
        w = rng.uniform(0.05, 1.0, size=(n, n))
        w *= rng.random((n, n)) < density
        np.fill_diagonal(w, 0.0)
        sums = w.sum(axis=1)
        if np.all(sums > 0.0):
            return dense_graph(w / sums[:, None])


def oracle_graphs(rng: np.random.Generator, count: int = 20, n_max: int = 40) -> list:
    """Random graphs of varied density plus every named graph at a few sizes up to ``n_max``."""
    graphs = [
        draw_graph(rng, int(n), density=float(rng.uniform(0.1, 1.0)))
        for n in rng.integers(2, n_max + 1, size=count)
    ]
    for n in (2, 3, 15, n_max):
        graphs += [generate(kind, n) for kind in ("balanced", "star", "near_star_one_bidirectional")]
        graphs += [generate("l_star", n, l=l) for l in {2, n - 1} if 2 <= l <= n - 1]
    return graphs


def agent_utility(
    g: SocialGraph,
    p: ModelParams,
    q_a: float,
    q_b: float,
    i: int,
    y_i: float,
    y: np.ndarray,
) -> float:
    """Agent i's one-round payoff given own tilt ``y_i`` and everyone's tilts.

    Standalone consumption value plus quality-weighted coordination with
    each influencer on both products.  The oracle for the spread update:
    ``simulate(g, p, q_a, q_b, y, 1)[1][i]`` is the argmax of this in ``y_i``.
    """
    require_valid(g)
    require_qualities(p, q_a, q_b)
    y = require_vector("y", y, g.n, -0.5 - _STATE_TOL, 0.5 + _STATE_TOL)
    if not abs(y_i) <= 0.5 + _STATE_TOL:
        raise ValueError(f"y_i={y_i} outside [-1/2, 1/2]")
    row = slice(g.indptr[i], g.indptr[i + 1])
    w, y_in = g.data[row], y[g.indices[row]]  # agent i's influencers
    standalone = (q_a + q_b) * (p.alpha / 2.0 - p.beta / 4.0 - p.beta * y_i**2)
    direct = (q_a - q_b) * (p.alpha - p.beta) * y_i
    match_a = q_a * float(w @ ((0.5 + y_i) * (0.5 + y_in)))
    match_b = q_b * float(w @ ((0.5 - y_i) * (0.5 - y_in)))
    return standalone + direct + match_a + match_b


def best_response_by_candidates(v, p: ModelParams, K: float, c_s: float, c_q: float, q_opp: float):
    """Oracle for best_response_quality: score every candidate quality, take the argmax.

    The candidates are both ends of the affordable range [q_lo, K/c_q],
    both ends of every live piece (the spend levels between which one
    agent is the marginal one) and every stationary point inside its
    piece.  Each is scored from prefix sums of the sorted centralities.
    Returns the same (quality, water-filled seeding, value) triple.
    """
    n = len(v.values)
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


def best_response_by_arrays(v, p: ModelParams, K: float, c_s: float, c_q: float, q_opp: float):
    """Oracle for best_response_quality's bisection: the piece test over whole arrays.

    Builds all n + 1 kinks and n stationary points, compares them and takes
    the argmax of the comparison: the first piece whose stationary point
    reaches its lower kink.  Returns the same (quality, seeding, value) triple.
    """
    n = len(v.values)
    lam = p.quality_weight(n)
    kinks = (K - c_s * np.arange(n + 1) / 2.0) / c_q
    stationary = np.sqrt(2.0 * lam * (c_s / c_q) * q_opp / v.sorted_values) - q_opp
    rising = stationary >= kinks[1:]
    j = int(np.argmax(rising))
    best_q = min(stationary[j], kinks[j]) if rising[j] else kinks[n]
    best_q = float(max(min(best_q, kinks[0]), p.epsilon, kinks[n]))

    spend = (K - c_q * best_q) / c_s
    seeding, _ = water_fill_seeding(v, min(max(spend, 0.0), n / 2.0))
    value = dot(v.values, seeding) + lam * (best_q - q_opp) / (best_q + q_opp)
    return best_q, seeding, value


def water_fill_by_capped_fill(v, amount: float) -> tuple[np.ndarray, int]:
    """Oracle for water_fill_seeding: ``capped_fill`` over caps of 1/2 in centrality order.

    Returns the fill scattered back to the agents and the number of agents it seeds.
    """
    fill = capped_fill(amount, np.full(len(v.values), 0.5))
    seeding = np.zeros(len(v.values))
    seeding[v.order] = fill
    return seeding, int(np.count_nonzero(fill))


def pin_by_formula(K: float, c_s: float, c_q: float, idx: int, case: str) -> float | None:
    """Oracle for ``_QualityCurve.piece``'s pinned quality: the kink computed on its own.

    Quality left once every agent before the marginal one is fully seeded;
    saturation seeds all n fully, and an interior case leaves the quality free.
    """
    if case == CASE_INTERIOR:
        return None
    full = idx if case == CASE_SATURATED else idx - 1
    return (K - c_s * full / 2.0) / c_q


def seed_by_formula(K, c_s, c_q, idx, q):
    """Seed left for the marginal agent at position ``idx`` after buying ``q``."""
    return K / c_s - (idx - 1) / 2.0 - (c_q / c_s) * q


def clipped_seed_by_formula(K, c_s, c_q, idx, q, case):
    """Oracle for ``_marginal_seed``'s seed: in [0, 1/2]; saturation seeds everyone fully."""
    if case == CASE_SATURATED:
        return 0.5
    return min(max(seed_by_formula(K, c_s, c_q, idx, q), 0.0), 0.5)


def conditions_by_formula(budget, p, vd, n, q_a, q_b, vt_k, vt_l, k, l, case_a, case_b):
    """Oracle for the solver's acceptance test of a candidate pair.

    Whether it meets, within 1e-9, what its closed form leaves open:
    qualities of at least epsilon (``_widened``), an interior seed in
    [0, 1/2] and a pinned v~ in its centrality bounds.
    """
    low = _widened(p.epsilon)
    if q_a < low or q_b < low:
        return False
    for q, vt, idx, case, K in (
        (q_a, vt_k, k, case_a, budget.K_a),
        (q_b, vt_l, l, case_b, budget.K_b),
    ):
        if case == CASE_INTERIOR:
            ok = -COND_TOL <= seed_by_formula(K, budget.c_s, budget.c_q, idx, q) <= 0.5 + COND_TOL
        else:  # j agents fully seeded: v~ lies between the last one's centrality and the next's
            j = idx if case == CASE_SATURATED else idx - 1
            ok = (j == n or vt >= vd[j] - COND_TOL) and (j == 0 or vt <= vd[j - 1] + COND_TOL)
        if not ok:
            return False
    return True


def regime_classify(n: int, p: ModelParams, v_c: float) -> dict:
    """Label threshold ``v_c`` by how star and balanced seeding capacity compare there.

    The endpoints are the star's and the balanced graph's centralities,
    placed by ``budget_regime``'s own ``_regime_by_endpoints``.
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
    return _regime_by_endpoints("threshold", v_c, endpoints, regimes)


def draw_costs(rng: np.random.Generator) -> tuple[float, float]:
    return float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))


def draw_budget(rng: np.random.Generator, n: int, c_s: float, c_q: float) -> float:
    # from "barely affords some quality" to well past full saturation
    return float(rng.uniform(0.3, 1.2 * (c_s * n / 2.0 + c_q)))


def _assert_quality_floor_binds(
    g: SocialGraph, p: ModelParams, budget: BudgetSpec
) -> None:
    """Confirm by best-response iteration that a firm's quality hits the floor.

    Called when solve_nash rejects an instance: the only legitimate reason
    is an equilibrium with one quality pinned at epsilon, which the case
    characterization deliberately has no branch for.  Anything else is a bug.
    """
    v = centrality(g, p)
    q_a = q_b = 1.0
    for _ in range(300):
        q_a, _, _ = best_response_quality(v, p, budget.K_a, budget.c_s, budget.c_q, q_b)
        q_b, _, _ = best_response_quality(v, p, budget.K_b, budget.c_s, budget.c_q, q_a)
    assert min(q_a, q_b) <= p.epsilon + 1e-9, (
        f"case search failed away from the quality floor "
        f"(q_a={q_a}, q_b={q_b}, eps={p.epsilon}): solver bug"
    )


def solve_nash_iterative(
    g: SocialGraph,
    p: ModelParams,
    budget: BudgetSpec,
    move_tol: float = 1e-10,
    max_iter: int = 1000,
):
    """Oracle for solve_nash: alternate exact best responses until they settle.

    Started from a small grid of quality pairs; raises SolverError when no
    start settles within ``max_iter`` rounds.  It shares nothing with the
    case characterization except the final bookkeeping, and it is not
    total: on some instances the best responses cycle (see
    test_best_response_iteration_cycles_where_solve_nash_does_not).
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
    k, l = max(k, 1), max(l, 1)
    seed_k = clipped_seed_by_formula(budget.K_a, budget.c_s, budget.c_q, k, q_a, case_a)
    seed_l = clipped_seed_by_formula(budget.K_b, budget.c_s, budget.c_q, l, q_b, case_b)
    return _build_outcome(p, v, q_a, q_b, vt_k, vt_l, k, l, case_a, case_b, seed_k, seed_l)


def draw_instance(
    rng: np.random.Generator, n_max: int = 10, n: int | None = None
) -> tuple[SocialGraph, ModelParams, BudgetSpec]:
    """A random graph, parameters and budget pair that solve_nash accepts.

    Lopsided enough draws (or small quality weights) can pin the poorer
    firm's quality at the floor, an equilibrium shape outside the case
    characterization; those draws are replaced.  Each rejection must first be
    proven to be that corner via the independent best-response route, so
    a genuine solver failure can never hide inside the resampling loop.
    About 4-5% of raw draws are rejected this way.
    """
    while True:
        size = int(rng.integers(2, n_max + 1)) if n is None else n
        p = draw_params(rng)
        g = draw_graph(rng, size)
        c_s, c_q = draw_costs(rng)
        k_a = draw_budget(rng, size, c_s, c_q)
        k_b = k_a * 2.0 ** float(rng.uniform(-1.5, 1.5))
        k_b = min(max(k_b, 0.3), 1.2 * (c_s * size / 2.0 + c_q))
        budget = BudgetSpec(k_a, k_b, c_s, c_q)
        try:
            solve_nash(g, p, budget)
        except SolverError:
            _assert_quality_floor_binds(g, p, budget)
            continue
        return g, p, budget


def draw_seedings(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    s_a = rng.uniform(0.0, 0.5, size=n)
    s_b = rng.uniform(0.0, 0.5, size=n)
    return s_a, s_b


def random_seeding(rng: np.random.Generator, n: int, total: float) -> np.ndarray:
    """A random allocation of `total` across n agents with per-agent cap 1/2."""
    s = np.zeros(n)
    remaining = total
    while remaining > 1e-12:
        raw = rng.uniform(0.0, 1.0, size=n)
        raw *= remaining / raw.sum()
        add = np.minimum(raw, 0.5 - s)
        s += add
        remaining -= float(add.sum())
    return s


def bounded_argmax(fn, lo: float, hi: float, coarse: int = 400) -> tuple[float, float]:
    """Grid scan plus local refinement; independent check on closed-form optima."""
    from scipy.optimize import minimize_scalar

    xs = np.linspace(lo, hi, coarse)
    vals = np.array([fn(x) for x in xs])
    j = int(np.argmax(vals))
    a, b = xs[max(j - 1, 0)], xs[min(j + 1, coarse - 1)]
    res = minimize_scalar(lambda x: -fn(x), bounds=(a, b), method="bounded",
                          options={"xatol": 1e-12})
    x_ref = float(res.x)
    if fn(x_ref) >= vals[j]:
        return x_ref, float(fn(x_ref))
    return float(xs[j]), float(vals[j])


def plain(r):
    """``r`` as nested dicts, lists and reprs, so types and NaN compare too."""
    if isinstance(r, SocialGraph):
        r = {**r.to_dict(), "violations": r.violations}
    elif dataclasses.is_dataclass(r):
        r = vars(r)
    if isinstance(r, dict):
        return {k: plain(v) for k, v in r.items()}
    if isinstance(r, (list, tuple)):
        return [plain(v) for v in r]
    if isinstance(r, np.ndarray):
        return r.dtype.str, repr(r.tolist())
    return repr(r)


def outcome(call, x):
    """What ``call(x)`` returns, or the refusal it raises, under a 2 s ``alarm``.

    Anything but a ``ValueError`` or a ``SolverError`` propagates.
    """
    with alarm(2):
        try:
            return plain(call(x))
        except (ValueError, SolverError) as exc:
            return type(exc).__name__, str(exc)


class Hang(Exception):
    """A call outlived its ``alarm``; netgame catches no such exception."""


@contextlib.contextmanager
def alarm(seconds: int):
    """Raise ``Hang`` in the body after ``seconds``: a hang fails the test, not stalls it."""

    def expire(signum, frame):
        raise Hang(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod is not None else None
    if results:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in results:
            terminalreporter.write_line(line)
