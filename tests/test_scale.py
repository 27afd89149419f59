"""A graph far beyond dense reach: n = 10^5 agents with 10 influencers each.

A dense weight matrix would take 8 * n^2 = 80 GB; the sparse graph, its
centrality series, the utilities and a few spread steps stay O(n + m).
"""

import tracemalloc

import numpy as np
import pytest

from netgame import (
    ModelParams,
    SocialGraph,
    centrality,
    discounted_utilities,
    simulate,
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
