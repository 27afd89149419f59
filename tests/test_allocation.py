import numpy as np
import pytest

from netgame import (
    ModelParams,
    allocate_budget,
    centrality,
    generate,
    max_seeding_capacity_bound,
    regime_classify,
    seeding_capacity,
    star_centralities,
    thresholds,
)
from netgame.allocation import PresetState, TIE_TOL
from netgame.centrality import dot

from conftest import draw_costs, draw_graph, draw_params, random_seeding


def test_thresholds_example(example_params):
    v_c_a, v_c_b = thresholds(1.0, 1.0, example_params, 15, 1.0, 1.0)
    assert v_c_a == pytest.approx(2.5, abs=1e-12)
    assert v_c_b == pytest.approx(2.5, abs=1e-12)


def test_thresholds_scale_with_opponent_quality(example_params):
    v_c_a, v_c_b = thresholds(3.0, 1.0, example_params, 15, 1.0, 1.0)
    assert v_c_a / v_c_b == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert v_c_a == pytest.approx(0.625, abs=1e-12)


def test_capacities_example(example_params):
    state = PresetState.neutral(15, 1.0, 1.0)
    for kind, l, expected in (("l_star", 3, 1.5), ("star", None, 0.5), ("balanced", None, 0.0)):
        v = centrality(generate(kind, 15, l=l), example_params)
        assert seeding_capacity(v, state, "a", example_params, 1.0, 1.0) == pytest.approx(
            expected, abs=1e-12
        )


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


def test_quality_comparison_equal_budgets(rng):
    # the lower-quality firm faces the higher threshold, so it seeds less
    for _ in range(20):
        n = int(rng.integers(3, 12))
        p = draw_params(rng)
        g = draw_graph(rng, n)
        v = centrality(g, p)
        c_s, c_q = draw_costs(rng)
        qs = sorted((float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0))))
        state = PresetState.neutral(n, qs[0], qs[1])
        K = float(rng.uniform(0.1, c_s * n / 2.0))
        res_a = allocate_budget(v, state, "a", K, c_s, c_q, p)
        res_b = allocate_budget(v, state, "b", K, c_s, c_q, p)
        assert res_a.seeding.sum() <= res_b.seeding.sum() + 1e-9


def test_quality_monotonicity_sweeps(rng):
    for _ in range(10):
        n = int(rng.integers(3, 10))
        p = draw_params(rng)
        g = draw_graph(rng, n)
        v = centrality(g, p)
        K = float(rng.uniform(0.2, n / 2.0))
        q_b = float(rng.uniform(0.5, 2.5))
        totals = [
            allocate_budget(
                v, PresetState.neutral(n, q_a, q_b), "a", K, 1.0, 1.0, p
            ).seeding.sum()
            for q_a in np.linspace(0.3, 3.0, 12)
        ]
        assert np.all(np.diff(totals) >= -1e-9)
        q_a = float(rng.uniform(0.5, 2.5))
        below = [
            allocate_budget(
                v, PresetState.neutral(n, q_a, q), "a", K, 1.0, 1.0, p
            ).seeding.sum()
            for q in np.linspace(0.3, q_a, 8)
        ]
        above = [
            allocate_budget(
                v, PresetState.neutral(n, q_a, q), "a", K, 1.0, 1.0, p
            ).seeding.sum()
            for q in np.linspace(q_a, 3.0, 8)
        ]
        assert np.all(np.diff(below) <= 1e-9)
        assert np.all(np.diff(above) >= -1e-9)


def test_capacity_bound_example(example_params):
    bound = max_seeding_capacity_bound(15, example_params, 2.5, np.full(15, 0.5))
    assert bound.k == 3
    assert bound.max_capacity == pytest.approx(1.5, abs=1e-12)
    assert bound.min_agent_count == 0


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


def _brute_force_count(n: int, p: ModelParams, v_c: float) -> int:
    # largest k with k agents above v_c, the rest at the floor of 1, under
    # the fixed centrality total
    total = 2.0 * p.beta * n / (2.0 * p.beta - p.delta)
    for k in range(n, -1, -1):
        if k * v_c + (n - k) <= total + 1e-12:
            return k
    return 0


def test_capacity_bound_matches_brute_force(rng):
    for _ in range(15):
        n = int(rng.integers(2, 9))
        p = draw_params(rng)
        hub, _ = star_centralities(n, p)
        v_c = float(rng.uniform(1.0 + 1e-3, hub - 1e-3))
        bound = max_seeding_capacity_bound(n, p, v_c, np.full(n, 0.5))
        assert bound.k == _brute_force_count(n, p, v_c)


def test_threshold_regimes(example_params):
    hub, peripheral = star_centralities(15, example_params)
    cases = [
        (0.5, "all_graphs_full_capacity"),
        (1.02, "star_balanced_equal_capacity"),
        (1.2, "balanced_over_star"),
        (2.5, "star_over_balanced"),
        (hub + 1.0, "no_graph_seedable"),
        (peripheral, "boundary"),
    ]
    for v_c, expected in cases:
        out = regime_classify(15, example_params, v_c=v_c)
        assert out["regime"] == expected, v_c
    assert out["endpoints"]["star_hub"] == pytest.approx(hub)


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


@pytest.mark.parametrize(
    "K, c_s, c_q",
    [(float("nan"), 1.0, 1.0), (float("inf"), 1.0, 1.0), (-1.0, 1.0, 1.0),
     (1.0, float("nan"), 1.0), (1.0, 1.0, float("nan")), (1.0, float("inf"), 1.0)],
)
def test_allocation_rejects_non_finite_or_negative_inputs(example_params, K, c_s, c_q):
    v = centrality(generate("star", 6), example_params)
    state = PresetState.neutral(6, 1.0, 1.0)
    with pytest.raises(ValueError):
        allocate_budget(v, state, "a", K, c_s, c_q, example_params)


@pytest.mark.parametrize(
    "c_s, c_q",
    [(float("nan"), 1.0), (0.0, 1.0), (-1.0, 1.0), (float("inf"), 1.0),
     (1.0, 0.0), (1.0, float("nan")), (1.0, float("inf"))],
)
def test_thresholds_and_capacity_reject_bad_costs(example_params, c_s, c_q):
    # unchecked, these gave NaN or zero thresholds, a ZeroDivisionError, or a capacity
    v = centrality(generate("star", 15), example_params)
    state = PresetState.neutral(15, 1.0, 1.0)
    with pytest.raises(ValueError, match="costs must be positive and finite"):
        thresholds(1.0, 1.0, example_params, 15, c_s, c_q)
    with pytest.raises(ValueError, match="costs must be positive and finite"):
        seeding_capacity(v, state, "a", example_params, c_s, c_q)


@pytest.mark.parametrize(
    "q_a, q_b, y0",
    [(float("nan"), 1.0, 0.0), (1.0, float("inf"), 0.0), (1.0, 1.0, float("nan")),
     (0.0, 1.0, 0.0)],
)
def test_preset_state_rejects_non_finite_values(q_a, q_b, y0):
    with pytest.raises(ValueError):
        PresetState(q_a=q_a, q_b=q_b, y0=np.full(4, y0))
