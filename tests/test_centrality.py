import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgame import (
    GraphValidationError,
    ModelParams,
    balanced_centrality,
    centrality,
    closed_form_centrality,
    generate,
    l_star_centralities,
    star_centralities,
)
from netgame.centrality import _term_count

from conftest import dense_graph, draw_graph, draw_params, oracle_graphs


def centrality_dense(g, p):
    """The centralities from a dense solve of (I - delta * W^T / (2*beta)) v = 1.

    The oracle for ``centrality``'s sparse series: O(n^2) memory, O(n^3) time.
    """
    w_t = g.weights.T / (2.0 * p.beta)
    return np.linalg.solve(np.eye(g.n) - p.delta * w_t, np.ones(g.n))


def test_balanced_value_example(example_params):
    assert balanced_centrality(example_params) == pytest.approx(4.0 / 3.0, abs=1e-12)
    v = centrality(generate("balanced", 15), example_params)
    assert np.allclose(v.values, 4.0 / 3.0, atol=1e-12)


def test_star_values_example(example_params):
    hub, peripheral = star_centralities(15, example_params)
    assert hub == pytest.approx(4.8, abs=1e-12)
    assert peripheral == pytest.approx(38.0 / 35.0, abs=1e-12)
    v = centrality(generate("star", 15), example_params)
    assert v.sorted_values[0] == pytest.approx(hub, abs=1e-9)
    assert np.allclose(v.sorted_values[1:], peripheral, atol=1e-9)
    assert v.order[0] == 0


def test_three_star_values_example(example_params):
    hub, peripheral = l_star_centralities(15, 3, example_params)
    assert hub == pytest.approx(8.0 / 3.0, abs=1e-12)
    assert peripheral == 1.0
    v = centrality(generate("l_star", 15, l=3), example_params)
    assert np.allclose(v.sorted_values[:3], hub, atol=1e-9)
    assert np.allclose(v.sorted_values[3:], 1.0, atol=1e-9)


def test_near_star_values_example(example_params):
    # hub keeps the star-hub value, the reciprocal peripheral gets 2.2,
    # everyone else drops to the floor of 1
    v = centrality(generate("near_star_one_bidirectional", 15), example_params)
    s = v.sorted_values
    assert s[0] == pytest.approx(4.8, abs=1e-9)
    assert s[1] == pytest.approx(2.2, abs=1e-9)
    assert np.allclose(s[2:], 1.0, atol=1e-9)


def test_order_breaks_ties_by_index(example_params):
    v = centrality(generate("balanced", 6), example_params)
    assert v.order.tolist() == [0, 1, 2, 3, 4, 5]


def test_values_read_only(example_params):
    v = centrality(generate("star", 4), example_params)
    with pytest.raises(ValueError):
        v.values[0] = 0.0


def test_rejects_invalid_graph(example_params):
    w = np.zeros((3, 3))
    w[0, 1] = 0.5
    w[1, 0] = 1.0
    w[2, 0] = 1.0
    with pytest.raises(GraphValidationError):
        centrality(dense_graph(w), example_params)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 10**6), pseed=st.integers(0, 10**6))
def test_direct_solve_matches_power_series(n, seed, pseed):
    p = draw_params(np.random.default_rng(pseed))
    g = generate("random", n, seed=seed)
    direct = centrality_dense(g, p)
    series = centrality(g, p).values
    assert np.allclose(direct, series, atol=1e-11)


def test_series_matches_dense_solve_oracle(rng):
    graphs = oracle_graphs(rng) + [draw_graph(rng, 500, density=0.02) for _ in range(3)]
    for g in graphs:
        p = draw_params(rng)
        dense = centrality_dense(g, p)
        assert np.abs(centrality(g, p).values / dense - 1.0).max() <= 1e-12


@pytest.mark.parametrize("n", [3, 15, 40, 201])
def test_symmetric_agents_tie_exactly_and_order_by_index(rng, n):
    # the star's peripherals and the l-star's hubs are interchangeable, so
    # their centralities are equal and the tie rule orders them by index
    for p in (ModelParams(alpha=1.0, beta=1.0, delta=0.5), draw_params(rng)):
        v = centrality(generate("star", n), p)
        assert len(set(v.values[1:].tolist())) == 1
        assert v.order.tolist() == list(range(n))
        for l in sorted({2, min(3, n - 1), n - 1}):
            v = centrality(generate("l_star", n, l=l), p)
            assert len(set(v.values[:l].tolist())) == 1
            assert set(v.values[l:].tolist()) == {1.0}
            assert v.order.tolist() == list(range(n))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 14), seed=st.integers(0, 10**6), pseed=st.integers(0, 10**6))
def test_bounds_and_total_identity(n, seed, pseed):
    rng = np.random.default_rng(pseed)
    p = draw_params(rng)
    g = draw_graph(rng, n) if seed % 2 else generate("random", n, seed=seed)
    v = centrality(g, p)
    hub, _ = star_centralities(n, p)
    assert v.values.min() >= 1.0 - 1e-9
    assert balanced_centrality(p) - 1e-9 <= v.values.max() <= hub + 1e-9
    expected_total = 2.0 * p.beta * n / (2.0 * p.beta - p.delta)
    assert v.total == pytest.approx(expected_total, rel=1e-12)


def test_sorted_values_descending(rng):
    p = draw_params(rng)
    v = centrality(draw_graph(rng, 10), p)
    assert np.all(np.diff(v.sorted_values) <= 1e-15)


def test_closed_forms_match_solved(example_params):
    for kind, l in (("balanced", None), ("star", None), ("l_star", 4)):
        roles = closed_form_centrality(kind, 15, example_params, l=l)
        v = centrality(generate(kind, 15, l=l), example_params)
        if kind == "balanced":
            assert np.allclose(v.values, roles["all"], atol=1e-9)
        else:
            assert v.sorted_values[0] == pytest.approx(roles["hub"], abs=1e-9)
            assert v.sorted_values[-1] == pytest.approx(roles["peripheral"], abs=1e-9)


def test_closed_form_unknown_kind(example_params):
    with pytest.raises(ValueError, match="no closed form"):
        closed_form_centrality("random", 15, example_params)
    with pytest.raises(ValueError, match="needs l"):
        closed_form_centrality("l_star", 15, example_params)


def test_l_star_formula_rejects_bad_l(example_params):
    with pytest.raises(ValueError):
        l_star_centralities(15, 1, example_params)


@pytest.fixture
def count_matvecs(monkeypatch):
    """The new powers, one edge pass each, of every extension of a graph's basis."""
    calls = []
    module = sys.modules["netgame.centrality"]
    powers = module._powers

    def counted(g, basis, count):
        out = powers(g, basis, count)
        calls.append(len(out) - max(len(basis), 1))
        return out

    monkeypatch.setattr(module, "_powers", counted)
    return calls


def _ratio(p):
    return p.delta / (2.0 * p.beta)


def test_second_call_reuses_the_solve(rng, count_matvecs):
    p = draw_params(rng)
    g = draw_graph(rng, 12)
    first = centrality(g, p)
    again = centrality(g, p)
    assert len(count_matvecs) == 1
    assert again is first


def test_other_params_solve_again_and_match_a_cold_solve(rng, count_matvecs):
    g = draw_graph(rng, 12)
    p, q = draw_params(rng), draw_params(rng)
    centrality(g, p)
    warm_q = centrality(g, q)
    warm_p = centrality(g, p)
    # the basis grows to the larger ratio's term count once, and only then
    terms = max(_term_count(g.n, _ratio(p)), _term_count(g.n, _ratio(q)))
    assert sum(count_matvecs) == terms
    for params, warm in ((q, warm_q), (p, warm_p)):
        cold = centrality(dense_graph(g.weights), params)
        assert np.array_equal(warm.values, cold.values)
        assert np.array_equal(warm.order, cold.order)


def test_only_beta_and_delta_key_the_solve(example_params, count_matvecs):
    g = generate("star", 6)
    first = centrality(g, example_params)
    other_eps = ModelParams(alpha=1.0, beta=1.0, delta=0.5, epsilon=1e-3)
    assert centrality(g, other_eps) is first
    assert len(count_matvecs) == 1


def test_warm_basis_makes_no_new_matvecs_up_to_its_ratio(rng, count_matvecs):
    g = draw_graph(rng, 40, density=0.2)
    draws = sorted((draw_params(rng) for _ in range(30)), key=_ratio)
    centrality(g, draws[-1])
    assert count_matvecs == [_term_count(g.n, _ratio(draws[-1]))]
    for p in draws[:-1]:
        centrality(g, p)
    assert len(count_matvecs) == 1
    # a larger ratio than any before adds only the powers it lacks
    wider = ModelParams(alpha=1.0, beta=1.0, delta=0.95)
    centrality(g, wider)
    assert count_matvecs[1:] == [_term_count(g.n, _ratio(wider)) - count_matvecs[0]]
    assert count_matvecs[1] > 0


def _basis_graph(rng):
    n = int(rng.integers(3, 41))
    kind = ("random", "star", "l_star")[int(rng.integers(3))]
    if kind == "random":
        return draw_graph(rng, n)
    return generate(kind, n, l=int(rng.integers(2, n)) if kind == "l_star" else None)


def test_basis_order_does_not_change_any_bit(rng):
    # each (beta, delta) reads the same prefix of the powers whatever came
    # before it, so a graph that has served any sequence gives a cold
    # graph's vector; repeats and ratios above and below the last are drawn
    for _ in range(200):
        g = _basis_graph(rng)
        draws = [draw_params(rng) for _ in range(4)]
        for p in draws + [draws[int(rng.integers(4))]]:
            warm = centrality(g, p)
            cold = centrality(dense_graph(g.weights), p)
            assert np.array_equal(warm.values, cold.values)
            assert np.array_equal(warm.order, cold.order)


def test_threads_sharing_a_graph_get_cold_vectors(rng):
    # each thread publishes its own slot; a basis extended in place by two
    # threads at once would hold a duplicated power and corrupt later ones
    g = draw_graph(rng, 60, density=0.2)
    # rising ratios make each call extend the basis by a few powers
    draws = sorted((draw_params(rng) for _ in range(12)), key=_ratio)
    cold = [centrality(dense_graph(g.weights), p).values for p in draws]
    wrong = []
    start = threading.Barrier(6)

    def work(shared):
        start.wait(timeout=60)
        for p, want in zip(draws, cold):
            if not np.array_equal(centrality(shared, p).values, want):
                wrong.append(p)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(60):
            shared = dense_graph(g.weights)
            threads = [threading.Thread(target=work, args=(shared,)) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_guards_run_on_cached_calls(example_params, monkeypatch):
    g = generate("star", 6)
    centrality(g, example_params)
    module = sys.modules["netgame.centrality"]
    monkeypatch.setattr(module, "_GUARD_TOL", -1.0)
    with pytest.raises(ArithmeticError):
        centrality(g, example_params)
