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
)

from conftest import agent_utility, draw_graph, draw_params, oracle_graphs


def test_drift_value(example_params):
    # alpha = beta collapses the prefactor to 1/(4*beta)
    assert externality_drift(3.0, 1.0, example_params) == pytest.approx(
        0.125, abs=1e-15
    )
    assert externality_drift(1.0, 3.0, example_params) == pytest.approx(
        -0.125, abs=1e-15
    )
    assert externality_drift(2.0, 2.0, example_params) == 0.0


def test_step_is_the_linear_update(rng):
    p = draw_params(rng)
    g = draw_graph(rng, 8)
    y = rng.uniform(-0.5, 0.5, size=8)
    q_a, q_b = 2.0, 1.0
    u = externality_drift(q_a, q_b, p)
    expected = g.weights @ y / (2.0 * p.beta) + u
    assert np.abs(simulate(g, p, q_a, q_b, y, 1)[1] - expected).max() <= 1e-15


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


def test_nan_state_is_refused_by_the_agent_utility_oracle(example_params):
    p, g = example_params, generate("star", 5)
    nan_state = np.array([0.1, np.nan, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"y\[1\] must be a finite real in .*, got nan"):
        agent_utility(g, p, 2.0, 1.0, 0, 0.1, nan_state)
    with pytest.raises(ValueError, match="y_i=nan outside"):
        agent_utility(g, p, 2.0, 1.0, 0, float("nan"), np.zeros(5))


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


def stationary_state(g, p, q_a, q_b):
    """The unique fixed point of ``simulate``'s update; the influence operator contracts.

    W is row-stochastic, so W 1 = 1 and the fixed point is the constant
    tilt u * 2*beta / (2*beta - 1) on every agent (ModelParams keeps
    beta >= 1, so the denominator is positive).
    """
    u = externality_drift(q_a, q_b, p)
    return np.full(g.n, u * 2.0 * p.beta / (2.0 * p.beta - 1.0))


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
        assert np.abs(a - b).max() <= 1e-12


def test_stationary_state_is_fixed_point(rng):
    p = draw_params(rng)
    g = draw_graph(rng, 9)
    y_star = stationary_state(g, p, 2.5, 1.0)
    assert np.abs(simulate(g, p, 2.5, 1.0, y_star, 1)[1] - y_star).max() <= 1e-12
    # long simulations converge to it
    traj = simulate(g, p, 2.5, 1.0, np.zeros(9), 200)
    assert np.abs(traj[-1] - y_star).max() <= 1e-12


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


def test_report_serialization(example_params):
    g = generate("star", 5)
    rep = discounted_utilities(g, example_params, 2.0, 1.0, np.zeros(5), np.zeros(5))
    d = rep.to_dict()
    assert set(d) == {"U_a", "U_b", "lambda", "breakdown", "mode", "horizon"}
    assert d["lambda"] == example_params.quality_weight(5)
    assert set(d["breakdown"]) == {"base", "seeding_a", "seeding_b", "quality"}


def test_numpy_integers_are_accepted_as_horizon_and_agent_count(example_params):
    assert horizon_for_tolerance(example_params, np.int64(15)) == horizon_for_tolerance(
        example_params, 15
    )
    g = generate("balanced", 4)
    y0 = np.full(4, 0.25)
    traj = simulate(g, example_params, 2.0, 1.0, y0, np.int64(3))
    assert np.array_equal(traj, simulate(g, example_params, 2.0, 1.0, y0, 3))
    rep = discounted_utilities(
        g, example_params, 2.0, 1.0, y0, np.zeros(4), mode="simulated", T=np.int64(3)
    )
    assert rep.horizon == 3
