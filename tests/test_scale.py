"""A graph far beyond dense reach: n = 10^5 agents with 10 influencers each.

A dense weight matrix would take 8 * n^2 = 80 GB; the sparse graph, its
centrality series, the utilities, a few spread steps and the equilibrium
solve stay O(n + m).
"""

import tracemalloc

import numpy as np
import pytest

from netgame import (
    BudgetSpec,
    ModelParams,
    SocialGraph,
    best_response_quality,
    centrality,
    discounted_utilities,
    simulate,
    solve_nash,
    water_fill_seeding,
)


def test_sparse_graph_at_n_1e5_runs_in_linear_memory():
    n, k = 100_000, 10
    offsets = np.random.default_rng(0).choice(np.arange(1, n), size=k, replace=False).tolist()
    agents = list(range(n))  # shared int objects keep the input list small
    edges = [(agents[i], agents[(i + d) % n], 1.0 / k) for i in range(n) for d in offsets]
    p = ModelParams(alpha=1.0, beta=1.0, delta=0.5)
    tracemalloc.start()
    try:
        g = SocialGraph.from_dict({"n": n, "edges": edges})
        v = centrality(g, p)
        s_a, _ = water_fill_seeding(v, 100.0)
        s_b, _ = water_fill_seeding(v, 60.0)
        rep = discounted_utilities(g, p, 2.0, 1.0, s_a, s_b)
        traj = simulate(g, p, 2.0, 1.0, s_a - s_b, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.violations == ()
    # every agent has in-influence 1 here, so every centrality is the balanced one
    assert np.abs(v.values / (2.0 / 1.5) - 1.0).max() <= 1e-12
    assert rep.u_a + rep.u_b == pytest.approx(n / (1.0 - p.delta), rel=1e-12)
    assert traj.shape == (6, n) and np.abs(traj).max() <= 0.5
    # about 110 bytes per edge: the edge array, its sort and the CSR arrays
    assert peak < 256 * (n + len(edges)) < 8 * n * n / 100


@pytest.fixture(scope="module")
def scale_graphs():
    """The all-tied graph above, and one whose 10^5 centralities all differ."""
    n, k = 100_000, 10
    offsets = np.random.default_rng(0).choice(np.arange(1, n), size=k, replace=False).tolist()
    agents = list(range(n))
    tied = [(agents[i], agents[(i + d) % n], 1.0 / k) for i in range(n) for d in offsets]
    w = np.random.default_rng(1).uniform(0.1, 1.0, size=(n, 3))
    w /= w.sum(axis=1, keepdims=True)
    cols = (np.arange(n)[:, None] + [1, 7, 331]) % n
    distinct = np.column_stack((np.repeat(np.arange(n), 3), cols.ravel(), w.ravel()))
    return {
        "tied": SocialGraph.from_dict({"n": n, "edges": tied}),
        "distinct": SocialGraph.from_dict({"n": n, "edges": distinct.tolist()}),
    }


@pytest.mark.parametrize("kind", ["tied", "distinct"])
@pytest.mark.parametrize("K_a, K_b", [(2e4, 3e4), (49_000.0, 100.0)])
def test_solve_nash_at_n_1e5_with_deep_budgets(scale_graphs, kind, K_a, K_b):
    # firm a's marginal index lies tens of thousands of agents deep here
    g = scale_graphs[kind]
    n = g.n
    p = ModelParams(alpha=1.0, beta=1.0, delta=0.5)
    budget = BudgetSpec(K_a, K_b, 1.0, 1.0)
    v = centrality(g, p)
    assert len(np.unique(v.values)) == (1 if kind == "tied" else n)
    out = solve_nash(g, p, budget)
    lam = p.quality_weight(n)
    firms = ((K_a, out.strategy_a, out.strategy_b), (K_b, out.strategy_b, out.strategy_a))
    for K, own, rival in firms:
        assert abs(K - own.spend(budget.c_s, budget.c_q)) <= 1e-9
        assert own.seeding.min() >= 0.0 and own.seeding.max() <= 0.5
        q, q_opp = own.quality, rival.quality
        value = float(v.values @ own.seeding) + lam * (q - q_opp) / (q + q_opp)
        _, _, best = best_response_quality(v, p, K, budget.c_s, budget.c_q, q_opp)
        assert best - value <= 1e-9
    assert out.utility_a + out.utility_b == pytest.approx(n / (1.0 - p.delta), rel=1e-12)
    assert out.k > 10_000
