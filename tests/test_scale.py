"""A graph far beyond dense reach: n = 10^5 agents with 10 influencers each.

A dense weight matrix would take 8 * n^2 = 80 GB; the sparse graph, its
centrality series, the utilities, a few spread steps, the equilibrium
solve, a ``.npz`` graph file's round trip and a generated star and
random graph stay O(n + m).
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import netgame
from netgame import (
    BudgetSpec,
    ModelParams,
    SocialGraph,
    best_response_quality,
    centrality,
    discounted_utilities,
    generate,
    load_graph,
    save_graph,
    simulate,
    solve_nash,
    water_fill_seeding,
)
from netgame.centrality import dot


def tied_edges() -> list:
    """n = 10^5 agents, each listening with weight 1/10 to the agents 10 fixed offsets away."""
    n, k = 100_000, 10
    offsets = np.random.default_rng(0).choice(np.arange(1, n), size=k, replace=False).tolist()
    agents = list(range(n))  # shared int objects keep the input list small
    return [(agents[i], agents[(i + d) % n], 1.0 / k) for i in range(n) for d in offsets]


def test_sparse_graph_at_n_1e5_runs_in_linear_memory():
    edges, n = tied_edges(), 100_000
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
    n = 100_000
    w = np.random.default_rng(1).uniform(0.1, 1.0, size=(n, 3))
    w /= w.sum(axis=1, keepdims=True)
    cols = (np.arange(n)[:, None] + [1, 7, 331]) % n
    distinct = np.column_stack((np.repeat(np.arange(n), 3), cols.ravel(), w.ravel()))
    return {
        "tied": SocialGraph.from_dict({"n": n, "edges": tied_edges()}),
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
        assert abs(K - (budget.c_s * own.seeding_total + budget.c_q * own.quality)) <= 1e-9
        assert own.seeding.min() >= 0.0 and own.seeding.max() <= 0.5
        q, q_opp = own.quality, rival.quality
        # the library's own product: BLAS's ddot was 1.2e-9 off the exact sum here
        value = dot(v.values, own.seeding) + lam * (q - q_opp) / (q + q_opp)
        _, _, best = best_response_quality(v, p, K, budget.c_s, budget.c_q, q_opp)
        assert best - value <= 1e-9
    assert out.utility_a + out.utility_b == pytest.approx(n / (1.0 - p.delta), rel=1e-12)
    assert out.k > 10_000


def test_npz_graph_file_at_n_1e5_round_trips_in_linear_memory(scale_graphs, tmp_path):
    g = scale_graphs["tied"]
    p = ModelParams(alpha=1.0, beta=1.0, delta=0.5)
    budget = BudgetSpec(100.0, 60.0, 1.0, 1.0)
    path = str(tmp_path / "g.npz")
    tracemalloc.start()
    try:
        save_graph(g, path)
        back = load_graph(path)
        out = solve_nash(back, p, budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for name in ("indptr", "indices", "data"):
        assert getattr(back, name).tobytes() == getattr(g, name).tobytes()
    assert out.to_dict() == solve_nash(g, p, budget).to_dict()
    assert peak < 256 * (g.n + len(g.data))


def test_npz_load_keeps_the_loaded_arrays(scale_graphs, tmp_path):
    # the arrays np.load reads are the graph's own: 29 bytes per agent and edge,
    # where copying them took 44
    g = scale_graphs["tied"]
    path = str(tmp_path / "g.npz")
    save_graph(g, path)
    tracemalloc.start()
    try:
        back = load_graph(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.data.tobytes() == g.data.tobytes()
    assert peak < 36 * (g.n + len(g.data))


@pytest.mark.parametrize("kind", ["star", "random"])
def test_generated_graphs_at_n_1e5_take_linear_memory(kind):
    n = 100_000
    tracemalloc.start()
    try:
        g = generate(kind, n, seed=0, density=1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.violations == ()
    if kind == "star":
        assert len(g.data) == 2 * (n - 1) and g.data[0] == 1.0 / (n - 1)
        assert g.indptr[:3].tolist() == [0, n - 1, n]
    else:  # (n - 1) * density, about 10, influencers a row
        assert abs(len(g.data) / (n * (n - 1) * 1e-4) - 1) < 0.01
    assert peak < 256 * (n + len(g.data))


_BLAS_PROBE = """
from netgame import (BudgetSpec, ModelParams, PresetState, allocate_budget, best_response_quality,
                     centrality, discounted_utilities, generate, solve_nash, water_fill_seeding)
n = 100_000
g = generate("random", n, seed=1, density=3e-5)
p = ModelParams(alpha=1.0, beta=1.0, delta=0.5)
v = centrality(g, p)
out = solve_nash(g, p, BudgetSpec(20_000.0, 15_000.0, 1.0, 1.0))
rep = discounted_utilities(g, p, 2.0, 1.0, out.strategy_a.seeding, out.strategy_b.seeding)
state = PresetState.neutral(n, 1.0, 1.0)
# `netgame simulate --generate star --n 15 --qa 2 --qb 1 --sa-total 1 --sb-total 0.5
# --delta 0.999`: its discounted series runs over T = 32,626 rounds
star, slow = generate("star", 15), ModelParams(alpha=1.0, beta=1.0, delta=0.999)
v_star = centrality(star, slow)
s_a, s_b = (water_fill_seeding(v_star, total)[0] for total in (1.0, 0.5))
sim = discounted_utilities(star, slow, 2.0, 1.0, s_a, s_b, mode="simulated")
print(repr((
    sim.u_a, sim.u_b,
    out.utility_a, rep.seeding_a, rep.seeding_b,
    best_response_quality(v, p, 20_000.0, 1.0, 1.0, 1.0)[2],
    allocate_budget(v, state, "a", 5000.0, 1.0, 1.0, p).marginal_utility,
)))
"""


def test_large_n_results_do_not_depend_on_blas_threads():
    # a length-10^5 product through BLAS sums in per-thread blocks, so its
    # last bit followed the thread count: the best response's value here did
    src = str(Path(netgame.__file__).resolve().parents[1])
    outs = set()
    for threads in ("1", "2"):
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        run = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        outs.add(run.stdout)
    assert len(outs) == 1, outs
