import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgame import (
    discounted_utilities,
    externality_drift,
    generate,
    horizon_for_tolerance,
    simulate,
    stationary_state,
)

from conftest import (
    agent_utility,
    bounded_argmax,
    draw_graph,
    draw_params,
    draw_seedings,
    oracle_graphs,
)


def test_drift_value(example_params):
    # alpha = beta collapses the prefactor to 1/(4*beta)
    assert externality_drift(3.0, 1.0, example_params) == pytest.approx(
        0.125, abs=1e-15
    )
    assert externality_drift(1.0, 3.0, example_params) == pytest.approx(
        -0.125, abs=1e-15
    )
    assert externality_drift(2.0, 2.0, example_params) == 0.0


def test_drift_rejects_quality_below_floor(example_params):
    with pytest.raises(ValueError):
        externality_drift(0.0, 1.0, example_params)


def test_step_is_the_linear_update(rng):
    p = draw_params(rng)
    g = draw_graph(rng, 8)
    y = rng.uniform(-0.5, 0.5, size=8)
    q_a, q_b = 2.0, 1.0
    u = externality_drift(q_a, q_b, p)
    expected = g.weights @ y / (2.0 * p.beta) + u
    assert np.allclose(simulate(g, p, q_a, q_b, y, 1)[1], expected, atol=1e-15)


def test_sparse_rows_match_dense_matvec(rng):
    # a sum of n terms of size at most 1/2 is off by at most n * eps / 2
    for g in oracle_graphs(rng, n_max=60):
        p = draw_params(rng)
        y = rng.uniform(-0.5, 0.5, size=g.n)
        q_a, q_b = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0))
        dense = g.weights @ y / (2.0 * p.beta) + externality_drift(q_a, q_b, p)
        assert np.abs(simulate(g, p, q_a, q_b, y, 1)[1] - dense).max() <= g.n * np.finfo(float).eps
        i, y_i = int(rng.integers(g.n)), float(rng.uniform(-0.5, 0.5))
        row = g.weights[i]
        dense_payoff = (
            (q_a + q_b) * (p.alpha / 2.0 - p.beta / 4.0 - p.beta * y_i**2)
            + (q_a - q_b) * (p.alpha - p.beta) * y_i
            + q_a * row @ ((0.5 + y_i) * (0.5 + y))
            + q_b * row @ ((0.5 - y_i) * (0.5 - y))
        )
        assert agent_utility(g, p, q_a, q_b, i, y_i, y) == pytest.approx(dense_payoff, rel=1e-13)


def test_nan_state_or_seeding_is_refused(example_params):
    p, g = example_params, generate("star", 5)
    nan_state = np.array([0.1, np.nan, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="state outside"):
        simulate(g, p, 2.0, 1.0, nan_state, 3)
    with pytest.raises(ValueError, match="state outside"):
        agent_utility(g, p, 2.0, 1.0, 0, 0.1, nan_state)
    with pytest.raises(ValueError, match="y_i=nan outside"):
        agent_utility(g, p, 2.0, 1.0, 0, float("nan"), np.zeros(5))
    zero, nan_seeding = np.zeros(5), np.array([0.0, 0.2, np.nan, 0.0, 0.0])
    for mode in ("closed_form", "simulated"):
        for s_a, s_b in ((nan_seeding, zero), (zero, nan_seeding)):
            with pytest.raises(ValueError, match="seeding outside"):
                discounted_utilities(g, p, 2.0, 1.0, s_a, s_b, mode=mode)


def test_step_rejects_state_outside_range(example_params):
    g = generate("balanced", 3)
    with pytest.raises(ValueError, match="outside"):
        simulate(g, example_params, 1.0, 1.0, np.array([0.7, 0.0, 0.0]), 1)


def test_step_matches_per_agent_maximization(rng):
    # each agent's update is the argmax of its own one-round payoff
    for _ in range(5):
        p = draw_params(rng)
        g = draw_graph(rng, 6)
        y = rng.uniform(-0.5, 0.5, size=6)
        q_a, q_b = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0))
        nxt = simulate(g, p, q_a, q_b, y, 1)[1]
        for i in range(6):
            best, _ = bounded_argmax(
                lambda z: agent_utility(g, p, q_a, q_b, i, z, y), -0.5, 0.5
            )
            assert nxt[i] == pytest.approx(best, abs=1e-6)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 10**6))
def test_state_invariant_preserved(n, seed):
    rng = np.random.default_rng(seed)
    p = draw_params(rng)
    g = draw_graph(rng, n)
    y0 = rng.uniform(-0.5, 0.5, size=n)
    traj = simulate(g, p, rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), y0, 40)
    assert traj.shape == (41, n)
    assert np.array_equal(traj[0], y0)
    assert np.abs(traj).max() <= 0.5 + 1e-9


def trajectory_via_powers(g, p, q_a, q_b, y0, T):
    """The trajectory from the unrolled form y(t) = W^t y0 + sum_k W^k u.

    The oracle for ``simulate``'s step-by-step recursion.
    """
    w = g.weights / (2.0 * p.beta)
    u = externality_drift(q_a, q_b, p) * np.ones(g.n)
    traj = np.empty((T + 1, g.n))
    power = np.array(y0, dtype=float)
    drift = np.zeros(g.n)
    traj[0] = power
    for t in range(1, T + 1):
        drift = w @ drift + u
        power = w @ power
        traj[t] = power + drift
    return traj


def stationary_state_dense(g, p, q_a, q_b):
    """The fixed point from a dense solve of (I - W/(2*beta)) y = u * 1."""
    u = externality_drift(q_a, q_b, p)
    w = g.weights / (2.0 * p.beta)
    return np.linalg.solve(np.eye(g.n) - w, u * np.ones(g.n))


def test_simulate_matches_unrolled_powers(rng):
    for _ in range(5):
        p = draw_params(rng)
        g = draw_graph(rng, 7)
        y0 = rng.uniform(-0.5, 0.5, size=7)
        q_a, q_b = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0))
        a = simulate(g, p, q_a, q_b, y0, 30)
        b = trajectory_via_powers(g, p, q_a, q_b, y0, 30)
        assert np.allclose(a, b, atol=1e-12)


def test_stationary_state_is_fixed_point(rng):
    p = draw_params(rng)
    g = draw_graph(rng, 9)
    y_star = stationary_state(g, p, 2.5, 1.0)
    assert np.allclose(simulate(g, p, 2.5, 1.0, y_star, 1)[1], y_star, atol=1e-12)
    # long simulations converge to it
    traj = simulate(g, p, 2.5, 1.0, np.zeros(9), 200)
    assert np.allclose(traj[-1], y_star, atol=1e-12)


def test_stationary_state_matches_dense_solve(rng):
    graphs = [draw_graph(rng, int(n)) for n in rng.integers(2, 40, size=20)]
    for n in (2, 3, 15, 40):
        graphs += [generate(kind, n) for kind in ("star", "balanced", "near_star_one_bidirectional")]
    for g in graphs:
        p = draw_params(rng)
        q_a, q_b = float(rng.uniform(0.01, 5.0)), float(rng.uniform(0.01, 5.0))
        closed = stationary_state(g, p, q_a, q_b)
        assert np.abs(closed - stationary_state_dense(g, p, q_a, q_b)).max() <= 1e-12


def test_horizon_bound(example_params):
    for tol in (1e-6, 1e-10):
        T = horizon_for_tolerance(example_params, 15, tol)
        tail = example_params.delta**T * 15 / (1.0 - example_params.delta)
        assert tail <= tol
        assert example_params.delta ** (T - 1) * 15 / 0.5 > tol


def test_utilities_fixed_sum(rng):
    for _ in range(10):
        n = int(rng.integers(2, 12))
        p = draw_params(rng)
        g = draw_graph(rng, n)
        s_a, s_b = draw_seedings(rng, n)
        rep = discounted_utilities(g, p, 1.5, 2.5, s_a, s_b)
        assert rep.u_a + rep.u_b == pytest.approx(n / (1.0 - p.delta), abs=1e-9)
        assert rep.u_a == pytest.approx(
            rep.base + rep.seeding_a - rep.seeding_b + rep.quality, abs=1e-12
        )


def test_simulated_utilities_match_closed_form(rng):
    for _ in range(5):
        n = int(rng.integers(2, 10))
        p = draw_params(rng)
        g = draw_graph(rng, n)
        s_a, s_b = draw_seedings(rng, n)
        q_a, q_b = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0))
        exact = discounted_utilities(g, p, q_a, q_b, s_a, s_b)
        approx = discounted_utilities(
            g, p, q_a, q_b, s_a, s_b, mode="simulated", tol=1e-12
        )
        assert approx.u_a == pytest.approx(exact.u_a, rel=1e-10)
        assert approx.u_b == pytest.approx(exact.u_b, rel=1e-10)
        assert approx.horizon is not None
        # the breakdown stays the closed form in simulated mode
        assert approx.base == exact.base and approx.quality == exact.quality


def test_utilities_reject_bad_seeding(example_params):
    g = generate("balanced", 4)
    with pytest.raises(ValueError, match="seeding"):
        discounted_utilities(
            g, example_params, 1.0, 1.0, np.full(4, 0.6), np.zeros(4)
        )


def test_utilities_unknown_mode(example_params):
    g = generate("balanced", 4)
    with pytest.raises(ValueError, match="unknown mode"):
        discounted_utilities(
            g, example_params, 1.0, 1.0, np.zeros(4), np.zeros(4), mode="exact"
        )


def test_report_serialization(example_params):
    g = generate("star", 5)
    rep = discounted_utilities(g, example_params, 2.0, 1.0, np.zeros(5), np.zeros(5))
    d = rep.to_dict()
    assert set(d) == {"U_a", "U_b", "lambda", "breakdown", "mode", "horizon"}
    assert d["lambda"] == example_params.quality_weight(5)
    assert set(d["breakdown"]) == {"base", "seeding_a", "seeding_b", "quality"}


def test_negative_horizon_is_refused(example_params):
    g = generate("balanced", 4)
    y0 = np.zeros(4)
    with pytest.raises(ValueError, match="T must be nonnegative, got -3"):
        simulate(g, example_params, 2.0, 1.0, y0, -3)
    with pytest.raises(ValueError, match="T must be nonnegative, got -1"):
        discounted_utilities(g, example_params, 2.0, 1.0, y0, y0, mode="simulated", T=-1)


def test_nan_tolerance_is_refused(example_params):
    g = generate("balanced", 4)
    with pytest.raises(ValueError, match="tol must be positive, got nan"):
        horizon_for_tolerance(example_params, 4, float("nan"))
    with pytest.raises(ValueError, match="tol must be positive, got nan"):
        discounted_utilities(g, example_params, 2.0, 1.0, np.zeros(4), np.zeros(4),
                             mode="simulated", tol=float("nan"))
