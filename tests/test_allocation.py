import re

import numpy as np
import pytest

from netgame import (
    KINDS,
    allocate_budget,
    centrality,
    generate,
    l_star_centralities,
    max_centrality_sequence,
    max_seeding_capacity_bound,
    min_centrality_sequence,
    seeding_capacity,
    star_centralities,
    thresholds,
)
from netgame.allocation import PresetState, TIE_TOL
from netgame.centrality import dot

from conftest import draw_costs, draw_graph, draw_params, random_seeding


def test_thresholds_scale_with_opponent_quality(example_params):
    v_c_a, v_c_b = thresholds(3.0, 1.0, example_params, 15, 1.0, 1.0)
    assert v_c_a / v_c_b == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert v_c_a == pytest.approx(0.625, abs=1e-12)


def test_capacity_respects_preexisting_tilts(example_params):
    y0 = np.zeros(15)
    y0[0] = 0.25
    state = PresetState(q_a=1.0, q_b=1.0, y0=y0)
    v = centrality(generate("star", 15), example_params)
    assert seeding_capacity(v, state, "a", example_params, 1.0, 1.0) == pytest.approx(0.25)
    assert seeding_capacity(v, state, "b", example_params, 1.0, 1.0) == pytest.approx(0.75)


def test_allocation_spends_budget_and_fills_in_order(rng):
    for _ in range(10):
        n = int(rng.integers(3, 12))
        p = draw_params(rng)
        g = draw_graph(rng, n)
        v = centrality(g, p)
        c_s, c_q = draw_costs(rng)
        q_a, q_b = float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0))
        y0 = rng.uniform(-0.4, 0.4, size=n)
        state = PresetState(q_a=q_a, q_b=q_b, y0=y0)
        K = float(rng.uniform(0.0, c_s * n / 2.0))
        firm = "a" if rng.random() < 0.5 else "b"
        res = allocate_budget(v, state, firm, K, c_s, c_q, p)
        assert c_s * res.seeding.sum() + c_q * res.quality_improvement == pytest.approx(
            K, abs=1e-9
        )
        caps = state.capacities(firm)
        seen_partial = False
        for agent in v.order:
            if v.values[agent] <= res.threshold + TIE_TOL:
                assert res.seeding[agent] == 0.0
            elif seen_partial:
                assert res.seeding[agent] == 0.0
            elif res.seeding[agent] < caps[agent] - 1e-12:
                seen_partial = True
        assert np.all(res.seeding <= caps + 1e-12)


def test_allocation_beats_random_feasible_splits(rng):
    for _ in range(5):
        n = int(rng.integers(3, 10))
        p = draw_params(rng)
        g = draw_graph(rng, n)
        v = centrality(g, p)
        q_a, q_b = float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.5, 2.5))
        state = PresetState.neutral(n, q_a, q_b)
        K = float(rng.uniform(0.1, n / 2.0))
        res = allocate_budget(v, state, "a", K, 1.0, 1.0, p)
        lam = p.quality_weight(n)
        rate = 2.0 * lam * q_b / (q_a + q_b) ** 2
        for _ in range(200):
            spend_s = float(rng.uniform(0.0, min(K, n / 2.0)))
            s = random_seeding(rng, n, spend_s)
            gain = float(v.values @ s) + rate * (K - spend_s)
            assert gain <= res.marginal_utility + 1e-9


def test_allocation_is_independent_of_other_firms_move(example_params):
    v = centrality(generate("l_star", 15, l=3), example_params)
    state = PresetState.neutral(15, 1.0, 1.0)
    first = allocate_budget(v, state, "a", 1.0, 1.0, 1.0, example_params)
    for k_b in (0.0, 0.5, 7.5):
        allocate_budget(v, state, "b", k_b, 1.0, 1.0, example_params)
        again = allocate_budget(v, state, "a", 1.0, 1.0, 1.0, example_params)
        assert np.array_equal(first.seeding, again.seeding)
        assert first.quality_improvement == again.quality_improvement


def test_agents_exactly_at_threshold_go_unseeded(example_params):
    # balanced centrality is exactly 4/3; qualities chosen so the
    # threshold lands right on it
    v = centrality(generate("balanced", 15), example_params)
    state = PresetState.neutral(15, 1.875, 1.875)
    v_c = thresholds(1.875, 1.875, example_params, 15, 1.0, 1.0)[0]
    assert abs(v_c - v.values[0]) < TIE_TOL
    res = allocate_budget(v, state, "a", 2.0, 1.0, 1.0, example_params)
    assert np.all(res.seeding == 0.0)
    assert res.quality_improvement == pytest.approx(2.0)


def test_capacity_bound_min_counts(example_params):
    hub, peripheral = star_centralities(15, example_params)
    caps = np.full(15, 0.5)
    assert max_seeding_capacity_bound(15, example_params, 1.05, caps).min_agent_count == 2
    assert max_seeding_capacity_bound(15, example_params, 1.2, caps).min_agent_count == 1
    assert max_seeding_capacity_bound(15, example_params, 2.0, caps).min_agent_count == 0
    assert peripheral < 1.2 < 4.0 / 3.0 < 2.0 < hub


def test_capacity_bound_uses_largest_capacities(example_params):
    caps = np.linspace(0.1, 0.5, 15)
    bound = max_seeding_capacity_bound(15, example_params, 2.5, caps)
    assert bound.max_capacity == pytest.approx(float(np.sort(caps)[-3:].sum()))


def test_capacity_bound_rejects_trivial_thresholds(example_params):
    with pytest.raises(ValueError, match="outside"):
        max_seeding_capacity_bound(15, example_params, 0.9, np.full(15, 0.5))
    with pytest.raises(ValueError, match="outside"):
        max_seeding_capacity_bound(15, example_params, 5.0, np.full(15, 0.5))


@pytest.mark.parametrize("l", range(2, 15))
def test_capacity_bound_counts_strictly_at_an_l_star_hub(l, example_params):
    # l agents at an l-star hub value fill the centrality total with the rest at 1,
    # so no graph places l of them strictly above it
    n, p = 15, example_params
    total = 2.0 * p.beta * n / (2.0 * p.beta - p.delta)
    v_c = l_star_centralities(n, l, p)[0]
    assert abs(l * v_c + (n - l) - total) <= 1e-12
    assert max_seeding_capacity_bound(n, p, v_c, np.full(n, 0.5)).k == l - 1


@pytest.mark.parametrize("kind", KINDS)
def test_capacity_bound_brackets_each_graphs_count_above_the_threshold(kind, example_params):
    # every level of both envelopes inside (1, hub), and the midpoints between them
    n, p = 15, example_params
    levels = np.union1d(max_centrality_sequence(n, p), min_centrality_sequence(n, p))
    levels = levels[(levels > 1.0) & (levels < levels[-1])]
    v = centrality(generate(kind, n, l=3 if kind == "l_star" else None, seed=4), p).values
    for v_c in np.r_[levels, (levels[1:] + levels[:-1]) / 2.0]:
        bound = max_seeding_capacity_bound(n, p, float(v_c), np.full(n, 0.5))
        # TIE_TOL keeps an agent that sits on the level within rounding out of either count
        assert np.count_nonzero(v > v_c + TIE_TOL) <= bound.k, v_c
        assert np.count_nonzero(v > v_c - TIE_TOL) >= bound.min_agent_count, v_c


def allocate_loop(v, state, firm, K, c_s, c_q, p):
    """Per-agent greedy fill: the oracle for ``allocate_budget``'s water-fill.

    Returns (seeding, quality_improvement, threshold, marginal_utility).
    """
    n = len(v.values)
    v_c_a, v_c_b = thresholds(state.q_a, state.q_b, p, n, c_s, c_q)
    v_c = v_c_a if firm == "a" else v_c_b
    caps = state.capacities(firm)
    seeding = np.zeros(n)
    remaining = K / c_s
    for agent in v.order:
        if remaining <= 0.0:
            break
        if v.values[agent] <= v_c + TIE_TOL:
            break
        give = min(caps[agent], remaining)
        seeding[agent] = give
        remaining -= give
    delta_q = remaining * c_s / c_q
    q_opp = state.q_b if firm == "a" else state.q_a
    rate = 2.0 * p.quality_weight(n) * q_opp / (state.q_a + state.q_b) ** 2
    return seeding, delta_q, v_c, dot(v.values, seeding) + rate * delta_q


def _draw_allocation(rng, neutral):
    n = int(rng.integers(2, 30))
    p = draw_params(rng)
    v = centrality(draw_graph(rng, n), p)
    c_s, c_q = draw_costs(rng)
    q_a, q_b = float(rng.uniform(0.05, 3.0)), float(rng.uniform(0.05, 3.0))
    y0 = np.zeros(n) if neutral else rng.uniform(-0.5, 0.5, size=n)
    # budgets from nothing to past every agent's capacity
    K = float(rng.choice([0.0, rng.uniform(0.0, 1.2 * c_s * n)]))
    return v, PresetState(q_a=q_a, q_b=q_b, y0=y0), str(rng.choice(["a", "b"])), K, c_s, c_q, p


def test_allocation_equals_loop_oracle_on_neutral_states(rng):
    for _ in range(400):
        args = _draw_allocation(rng, neutral=True)
        out = allocate_budget(*args)
        seeding, delta_q, v_c, gain = allocate_loop(*args)
        assert np.array_equal(out.seeding, seeding)
        assert (out.quality_improvement, out.threshold, out.marginal_utility) == (
            delta_q, v_c, gain
        )


def test_allocation_matches_loop_oracle_on_random_tilts(rng):
    for _ in range(400):
        args = _draw_allocation(rng, neutral=False)
        out = allocate_budget(*args)
        seeding, delta_q, v_c, gain = allocate_loop(*args)
        assert np.abs(out.seeding - seeding).max() <= 1e-12
        assert out.quality_improvement == pytest.approx(delta_q, rel=0, abs=1e-12)
        assert out.threshold == v_c
        assert out.marginal_utility == pytest.approx(gain, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("length", [10, 20])
def test_allocation_and_capacity_refuse_tilts_of_another_length(example_params, length):
    # a longer y0 used to return a result, a shorter one raised IndexError
    v = centrality(generate("random", 15, seed=4, density=0.3), example_params)
    state = PresetState(q_a=5.0, q_b=5.0, y0=np.zeros(length))
    named = re.escape(f"preexisting tilts have shape ({length},), need (15,)")
    with pytest.raises(ValueError, match=named):
        allocate_budget(v, state, "a", 1.0, 1.0, 1.0, example_params)
    with pytest.raises(ValueError, match=named):
        seeding_capacity(v, state, "b", example_params, 1.0, 1.0)
