"""End-to-end acceptance checks, one numbered criterion per test.

Each test appends a single PASS/FAIL line to RESULTS, printed by the
terminal-summary hook in conftest.  Frozen numbers come from the worked
15-agent setting (alpha = beta = 1, delta = 1/2); every random suite
re-derives its expectation through an independent route (iteration vs
case search, simulation vs closed form, grid search vs stationarity).
"""
from __future__ import annotations

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from netgame import (
    BudgetSpec,
    ModelParams,
    PresetState,
    allocate_budget,
    balanced_centrality,
    centrality,
    discounted_utilities,
    generate,
    horizon_for_tolerance,
    l_star_centralities,
    max_centrality_sequence,
    max_seeding_capacity_bound,
    min_centrality_sequence,
    seeding_capacity,
    simulate,
    solve_nash,
    star_centralities,
    symmetric_nash,
    thresholds,
    water_fill_seeding,
)
import netgame
from netgame.equilibrium import CASE_BOUNDARY, CASE_INTERIOR, SolverError

from conftest import (
    _assert_quality_floor_binds,
    agent_utility,
    bounded_argmax,
    draw_budget,
    draw_costs,
    draw_graph,
    draw_instance,
    draw_params,
    draw_seedings,
    random_seeding,
    solve_nash_iterative,
)

RESULTS: list[str] = []


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        RESULTS.append(f"criterion {num:2d} FAIL  {label}")
        raise
    RESULTS.append(f"criterion {num:2d} PASS  {label}")


def test_criterion_01_quality_weight():
    with criterion(1, "quality weight is 5 at the worked parameters"):
        lam = ModelParams(1.0, 1.0, 0.5).quality_weight(15)
        assert abs(lam - 5.0) <= 1e-12


def test_criterion_02_centrality_frozen_values():
    with criterion(2, "closed-form and solved centralities on the worked graphs"):
        p = ModelParams(1.0, 1.0, 0.5)
        t0 = time.perf_counter()
        v_bal = centrality(generate("balanced", 15), p)
        v_star = centrality(generate("star", 15), p)
        v_3 = centrality(generate("l_star", 15, l=3), p)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.1, f"centrality solves took {elapsed:.3f}s"
        assert abs(balanced_centrality(p) - 4.0 / 3.0) <= 1e-12
        assert np.abs(v_bal.values - 4.0 / 3.0).max() <= 1e-12
        hub, peripheral = star_centralities(15, p)
        assert abs(hub - 4.8) <= 1e-12 and abs(peripheral - 38.0 / 35.0) <= 1e-12
        assert abs(float(v_star.sorted_values[0]) - 4.8) <= 1e-9
        assert np.abs(v_star.sorted_values - np.r_[hub, np.full(14, peripheral)]).max() <= 1e-9
        assert v_star.order[0] == 0
        # the two-decimal figure 1.08 truncates 38/35 = 1.085714...; one
        # unit in the second decimal is the printout-consistency bound
        assert abs(float(v_star.sorted_values[1]) - 1.08) <= 1e-2
        hub, peripheral = l_star_centralities(15, 3, p)
        assert abs(hub - 8.0 / 3.0) <= 1e-12 and peripheral == 1.0
        assert np.abs(v_3.sorted_values - np.r_[np.full(3, hub), np.ones(12)]).max() <= 1e-9


def test_criterion_03_symmetric_equilibria():
    with criterion(3, "symmetric equilibria on the three worked graphs"):
        p = ModelParams(1.0, 1.0, 0.5)

        def timed(g):
            t0 = time.perf_counter()
            out = symmetric_nash(g, p, 2.0, 1.0, 1.0)
            assert time.perf_counter() - t0 < 1.0
            return out

        out = timed(generate("balanced", 15))
        assert abs(out.strategy_a.seeding_total - 0.125) <= 1e-12
        assert abs(out.strategy_a.quality - 1.875) <= 1e-12
        assert out.k == 1 and out.case_a == CASE_INTERIOR
        assert abs(out.v_tilde_k - 4.0 / 3.0) <= 1e-12

        out = timed(generate("l_star", 15, l=3))
        assert abs(out.strategy_a.seeding_total - 17.0 / 16.0) <= 1e-12
        assert abs(out.strategy_a.quality - 15.0 / 16.0) <= 1e-12
        expected = np.zeros(15)
        expected[:2] = 0.5
        expected[2] = 1.0 / 16.0
        got = np.sort(out.strategy_a.seeding)[::-1]
        assert np.abs(got - expected).max() <= 1e-12
        assert out.k == 3 and out.case_a == CASE_INTERIOR

        out = timed(generate("star", 15))
        assert abs(out.strategy_a.seeding_total - 0.5) <= 1e-12
        assert abs(out.strategy_a.quality - 1.5) <= 1e-12
        assert out.k == 2 and out.case_a == CASE_BOUNDARY
        assert abs(out.v_tilde_k - 5.0 / 3.0) <= 1e-12


def test_criterion_04_thresholds_and_capacities():
    with criterion(4, "break-even threshold, agent-count bound and capacities"):
        p = ModelParams(1.0, 1.0, 0.5)
        n = 15
        v_c_a, v_c_b = thresholds(1.0, 1.0, p, n, 1.0, 1.0)
        assert abs(v_c_a - 2.5) <= 1e-12
        assert abs(v_c_b - 2.5) <= 1e-12
        bound = max_seeding_capacity_bound(n, p, 2.5, np.full(n, 0.5))
        assert bound.k == 3 and bound.min_agent_count == 0
        assert abs(bound.max_capacity - 1.5) <= 1e-12
        state = PresetState.neutral(n, 1.0, 1.0)
        for kind, l, expect in (
            ("l_star", 3, 1.5),
            ("star", None, 0.5),
            ("balanced", None, 0.0),
        ):
            cap = seeding_capacity(centrality(generate(kind, n, l=l), p), state, "a", p, 1.0, 1.0)
            assert abs(cap - expect) <= 1e-12, f"{kind}: capacity {cap} != {expect}"


def _deviation_slack(v, lam, eps, n, k, c_s, c_q, own, opp, rng):
    """Largest utility gain over water-filled deviations on two quality grids,
    200 points from eps and 40 from q_lo, the least quality that leaves no
    money unspent, and 10 deviations that spread the spend at random (drawn
    from ``rng``).

    Either firm's utility, seen from its own side, is v . (own - opp)
    plus lam * (q_own - q_opp) / (q_own + q_opp) up to a shared constant.
    """

    def value(seeding, q):
        return float(v.values @ (seeding - opp.seeding)) + lam * (
            q - opp.quality
        ) / (q + opp.quality)

    q_lo = max(eps, (k - c_s * n / 2.0) / c_q)
    deviations = [
        (water_fill_seeding(v, max(min((k - c_q * q) / c_s, n / 2.0), 0.0))[0], q)
        for q in np.r_[np.linspace(eps, k / c_q, 200), np.linspace(q_lo, k / c_q, 40)]
    ]
    deviations += [
        (random_seeding(rng, n, (k - c_q * q) / c_s), q)
        for q in rng.uniform(q_lo, k / c_q, size=10)
    ]
    return max(value(s, q) for s, q in deviations) - value(own.seeding, own.quality)


def test_criterion_05_solver_routes_and_deviations(rng):
    with criterion(5, "case search matches iteration; no profitable deviations (50 draws)"):
        # the random deviations come from a generator of their own, so the
        # instances rng draws stay as they were
        spread = np.random.default_rng(5)
        for _ in range(50):
            g, p, budget = draw_instance(rng, n_max=10)
            enum = solve_nash(g, p, budget)
            iterated = solve_nash_iterative(g, p, budget)
            for a, b in (
                (enum.strategy_a, iterated.strategy_a),
                (enum.strategy_b, iterated.strategy_b),
            ):
                assert abs(a.quality - b.quality) <= 1e-6
                assert abs(a.seeding_total - b.seeding_total) <= 1e-6
            v = centrality(g, p)
            lam = p.quality_weight(g.n)
            slack_a = _deviation_slack(
                v, lam, p.epsilon, g.n, budget.K_a, budget.c_s, budget.c_q,
                enum.strategy_a, enum.strategy_b, spread,
            )
            slack_b = _deviation_slack(
                v, lam, p.epsilon, g.n, budget.K_b, budget.c_s, budget.c_q,
                enum.strategy_b, enum.strategy_a, spread,
            )
            assert slack_a <= 1e-6, f"firm a improves by {slack_a}"
            assert slack_b <= 1e-6, f"firm b improves by {slack_b}"


def test_criterion_06_utility_consistency(rng):
    with criterion(6, "simulated utilities match the closed form (20 draws)"):
        for _ in range(20):
            n = int(rng.integers(2, 11))
            p = draw_params(rng)
            g = draw_graph(rng, n)
            q_a, q_b = (float(x) for x in rng.uniform(0.2, 3.0, size=2))
            s_a, s_b = draw_seedings(rng, n)
            closed = discounted_utilities(g, p, q_a, q_b, s_a, s_b)
            sim = discounted_utilities(
                g, p, q_a, q_b, s_a, s_b, mode="simulated", T=horizon_for_tolerance(p, n, 1e-12)
            )
            assert abs(sim.u_a - closed.u_a) / abs(closed.u_a) <= 1e-10
            assert abs(sim.u_b - closed.u_b) / abs(closed.u_b) <= 1e-10
            assert sim.horizon is not None
            # the breakdown stays the closed form in simulated mode
            assert sim.base == closed.base and sim.quality == closed.quality
            parts = closed.base + closed.seeding_a - closed.seeding_b + closed.quality
            assert abs(closed.u_a - parts) <= 1e-12
            fixed_sum = n / (1.0 - p.delta)
            assert abs(closed.u_a + closed.u_b - fixed_sum) <= 1e-9
            assert abs(sim.u_a + sim.u_b - fixed_sum) <= 1e-9


def test_criterion_07_step_matches_agent_argmax(rng):
    with criterion(7, "update rule equals per-agent numeric best response (20 draws)"):
        for _ in range(20):
            n = int(rng.integers(2, 11))
            p = draw_params(rng)
            g = draw_graph(rng, n)
            q_a, q_b = (float(x) for x in rng.uniform(0.2, 3.0, size=2))
            y = rng.uniform(-0.5, 0.5, size=n)
            nxt = simulate(g, p, q_a, q_b, y, 1)[1]
            for i in range(n):
                best, _ = bounded_argmax(
                    lambda t: agent_utility(g, p, q_a, q_b, i, t, y), -0.5, 0.5
                )
                assert abs(nxt[i] - best) <= 1e-6


def _suite_ordering_and_budgets(rng, count):
    """Quality-seeding ordering plus the budget-comparison implication."""
    for _ in range(count):
        g, p, budget = draw_instance(rng)
        out = solve_nash(g, p, budget)
        q_a, q_b = out.strategy_a.quality, out.strategy_b.quality
        s_a, s_b = out.strategy_a.seeding_total, out.strategy_b.seeding_total
        if q_a < q_b - 1e-9:
            assert s_a <= s_b + 1e-9, f"q ordered but seeding not: {s_a} > {s_b}"
        if q_b < q_a - 1e-9:
            assert s_b <= s_a + 1e-9
        if budget.K_b <= budget.K_a:
            assert s_b <= s_a + 1e-9, f"richer firm seeds less: {s_a} < {s_b}"
            assert q_b <= q_a + 1e-9
        else:
            assert s_a <= s_b + 1e-9
            assert q_a <= q_b + 1e-9


def _solve_pairs(g, p, c_s, c_q, pairs):
    """Equilibria for each budget pair, or None when one hits the corner."""
    outs = []
    for k_a, k_b in pairs:
        budget = BudgetSpec(k_a, k_b, c_s, c_q)
        try:
            outs.append(solve_nash(g, p, budget))
        except SolverError:
            _assert_quality_floor_binds(g, p, budget)
            return None
    return outs


def _suite_budget_monotonicity(rng, sweeps):
    solved = 0
    for _ in range(sweeps):
        for _attempt in range(200):
            g, p, budget = draw_instance(rng)
            c_s, c_q = budget.c_s, budget.c_q
            hi = 1.2 * (c_s * g.n / 2.0 + c_q)
            ka_grid = np.linspace(0.3, hi, 6)
            outs = _solve_pairs(g, p, c_s, c_q, [(k, budget.K_b) for k in ka_grid])
            if outs is None:
                continue
            totals = [o.strategy_a.seeding_total for o in outs]
            quals = [o.strategy_a.quality for o in outs]
            assert all(np.diff(totals) >= -1e-9), f"seeding not monotone: {totals}"
            assert all(np.diff(quals) >= -1e-9), f"quality not monotone: {quals}"

            k_a = float(rng.uniform(0.5, hi))
            below = np.sort(rng.uniform(0.3, k_a, size=3))
            above = np.sort(rng.uniform(k_a, hi, size=3))
            kb_grid = np.concatenate([below, [k_a], above])
            outs_b = _solve_pairs(g, p, c_s, c_q, [(k_a, kb) for kb in kb_grid])
            if outs_b is None:
                continue
            totals_b = [o.strategy_a.seeding_total for o in outs_b]
            assert all(np.diff(totals_b[:4]) <= 1e-9), (
                f"own seeding rising in poorer rival: {totals_b[:4]}"
            )
            assert all(np.diff(totals_b[3:]) >= -1e-9), (
                f"own seeding falling in richer rival: {totals_b[3:]}"
            )
            solved += len(outs) + len(outs_b)
            break
        else:
            raise AssertionError("no corner-free budget sweep in 200 attempts")
    assert solved >= 200, f"only {solved} sweep instances"


def _suite_quality_comparison(rng, count):
    for _ in range(count):
        n = int(rng.integers(2, 13))
        p = draw_params(rng)
        g = draw_graph(rng, n)
        c_s, c_q = draw_costs(rng)
        k = draw_budget(rng, n, c_s, c_q)
        q_a, q_b = np.sort(rng.uniform(0.2, 3.0, size=2))
        state = PresetState.neutral(n, float(q_a), float(q_b))
        v = centrality(g, p)
        res_a = allocate_budget(v, state, "a", k, c_s, c_q, p)
        res_b = allocate_budget(v, state, "b", k, c_s, c_q, p)
        assert float(res_a.seeding.sum()) <= float(res_b.seeding.sum()) + 1e-9


def _suite_quality_monotonicity(rng, sweeps):
    done = 0
    for _ in range(sweeps):
        n = int(rng.integers(2, 13))
        p = draw_params(rng)
        g = draw_graph(rng, n)
        v = centrality(g, p)
        c_s, c_q = draw_costs(rng)
        k = draw_budget(rng, n, c_s, c_q)
        q_b = float(rng.uniform(0.2, 3.0))

        def seeded(q_a, q_b):
            state = PresetState.neutral(n, float(q_a), float(q_b))
            return float(allocate_budget(v, state, "a", k, c_s, c_q, p).seeding.sum())

        totals = [seeded(q_a, q_b) for q_a in np.linspace(0.2, 3.0, 16)]
        assert all(np.diff(totals) >= -1e-9), f"not rising in own quality: {totals}"

        # rival qualities at random and on an 8-point grid each side of q_a
        q_a = float(rng.uniform(0.4, 3.0))
        below = np.sort(np.r_[rng.uniform(0.2, q_a, size=3), np.linspace(0.2, q_a, 8)])
        above = np.sort(np.r_[rng.uniform(q_a, 3.0, size=3), np.linspace(q_a, 3.0, 8)])
        falling = [seeded(q_a, q) for q in below]
        rising = [seeded(q_a, q) for q in above]
        assert all(np.diff(falling) <= 1e-9), f"{falling}"
        assert all(np.diff(rising) >= -1e-9), f"{rising}"
        done += 38
    assert done >= 200


def _graphs(rng, count, own, seeded):
    """``count`` drawn (n, p, graph) triples, then ``seeded`` ``generate("random")`` graphs
    whose sizes, seeds and parameters ``own`` draws, so ``rng``'s draws stay as they were."""
    for _ in range(count):
        n = int(rng.integers(2, 13))
        p = draw_params(rng)
        yield n, p, draw_graph(rng, n)
    for _ in range(seeded):
        n = int(own.integers(2, 15))
        yield n, draw_params(own), generate("random", n, seed=int(own.integers(2**32)))


def _suite_centrality_bounds(graphs):
    for n, p, g in graphs:
        v = centrality(g, p)
        hub, _ = star_centralities(n, p)
        mean = balanced_centrality(p)
        assert float(v.values.min()) >= 1.0 - 1e-9
        assert mean - 1e-9 <= float(v.values.max()) <= hub + 1e-9
        total = 2.0 * p.beta * n / (2.0 * p.beta - p.delta)
        assert abs(v.total - total) <= 1e-12 * total


def _suite_extremal_domination(graphs):
    for n, p, g in graphs:
        v = centrality(g, p)
        hi = max_centrality_sequence(n, p)
        lo = min_centrality_sequence(n, p)
        assert np.all(v.sorted_values <= hi + 1e-9), f"level above envelope at n={n}"
        assert np.all(v.sorted_values >= lo - 1e-9), f"level below envelope at n={n}"


def test_criterion_08_property_suites(rng):
    with criterion(8, "seven property suites, 200+ instances each, zero violations"):
        own = np.random.default_rng(8)  # the seeded random graphs' own draws
        _suite_ordering_and_budgets(rng, 200)  # covers the first two suites
        _suite_budget_monotonicity(rng, 25)
        _suite_quality_comparison(rng, 200)
        _suite_quality_monotonicity(rng, 16)
        _suite_centrality_bounds(_graphs(rng, 200, own, 50))
        _suite_extremal_domination(_graphs(rng, 200, own, 50))


def test_criterion_09_agent_count_bound_brute_force(rng):
    with criterion(9, "closed-form agent-count bound equals brute force (n <= 8)"):
        for n in range(2, 9):
            p = draw_params(rng)
            hub, _ = star_centralities(n, p)
            total = 2.0 * p.beta * n / (2.0 * p.beta - p.delta)
            levels = max_centrality_sequence(n, p)
            draws = rng.uniform(1.0 + 1e-3, hub - 1e-3, size=8)
            # the l-star hub levels are ties: l agents there with the rest at 1 sum to the total
            for v_c in map(float, np.r_[draws, levels[(levels > 1.0) & (levels < hub)]]):
                bound = max_seeding_capacity_bound(n, p, v_c, np.full(n, 0.5))
                # k agents strictly above v_c and the rest at 1 or more hold more than
                # k*v_c + (n - k), so that must fall short of the total, beyond rounding
                feasible = [
                    k
                    for k in range(n + 1)
                    if k * v_c + (n - k) * 1.0 < total * (1.0 - 1e-12)
                ]
                assert bound.k == max(feasible), (
                    f"n={n} v_c={v_c}: closed form {bound.k} vs {max(feasible)}"
                )


def test_criterion_10_reproduce_runs_clean():
    with criterion(10, "reproduce commands exit zero with all checks passing"):
        # the child imports the same netgame as this process, installed or not
        src = str(Path(netgame.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        t0 = time.perf_counter()
        for name in ("example1", "example2"):
            proc = subprocess.run(
                [sys.executable, "-m", "netgame.cli", "reproduce", name],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": path},
            )
            assert proc.returncode == 0, f"{name}: {proc.stdout}{proc.stderr}"
            assert "FAIL" not in proc.stdout, proc.stdout
        assert time.perf_counter() - t0 < 10.0
