import re
import sys
import threading

import numpy as np
import pytest

from netgame import (
    CentralityVector,
    GraphValidationError,
    ModelParams,
    centrality,
    closed_form_centrality,
    generate,
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


def test_near_star_values_example(example_params):
    # hub keeps the star-hub value, the reciprocal peripheral gets 2.2,
    # everyone else drops to the floor of 1
    v = centrality(generate("near_star_one_bidirectional", 15), example_params)
    s = v.sorted_values
    assert s[0] == pytest.approx(star_centralities(15, example_params)[0], abs=1e-9)
    assert s[1] == pytest.approx(2.2, abs=1e-9)
    assert np.abs(s[2:] - 1.0).max() <= 1e-9


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


def test_series_matches_dense_solve_oracle(rng):
    graphs = oracle_graphs(rng) + [draw_graph(rng, 500, density=0.02) for _ in range(3)]
    # seeded generate("random") graphs, whose sizes and seeds a generator of their own draws
    own = np.random.default_rng(1)
    graphs += [generate("random", int(n), seed=int(seed))
               for n, seed in zip(own.integers(2, 13, size=60), own.integers(2**32, size=60))]
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


def test_sorted_values_descending(rng):
    p = draw_params(rng)
    v = centrality(draw_graph(rng, 10), p)
    assert np.all(np.diff(v.sorted_values) <= 1e-15)


def test_closed_forms_match_solved(example_params):
    for kind, l in (("balanced", None), ("star", None), ("l_star", 4)):
        roles = closed_form_centrality(kind, 15, example_params, l=l)
        v = centrality(generate(kind, 15, l=l), example_params)
        if kind == "balanced":
            assert np.abs(v.values - roles["all"]).max() <= 1e-9
        else:
            assert v.sorted_values[0] == pytest.approx(roles["hub"], abs=1e-9)
            assert v.sorted_values[-1] == pytest.approx(roles["peripheral"], abs=1e-9)


def test_closed_form_unknown_kind(example_params):
    with pytest.raises(ValueError, match="no closed form"):
        closed_form_centrality("random", 15, example_params)
    with pytest.raises(ValueError, match="needs l"):
        closed_form_centrality("l_star", 15, example_params)


@pytest.mark.parametrize(
    "values, order, named",
    [
        ([1.0, 2.0], [0, 5], "order[1] must be an integer in [0, 1], got 5"),
        ([3.0, 2.0, 1.0], [0, 0, 1], "order must be a permutation of range(3)"),
        ([3.0, 2.0, 1.0], [2, 1, 0], "values must not increase along order"),
    ],
)
def test_centrality_vector_refuses_what_is_no_ordering(values, order, named):
    # the first raised IndexError; the others were kept, and water_fill_seeding
    # then handed 0.5 to one agent and reported two seeded
    with pytest.raises(ValueError, match=re.escape(named)):
        CentralityVector(values, order)


@pytest.mark.parametrize("kind", ["random", "star", "l_star", "balanced", "near_star_one_bidirectional"])
def test_centrality_hands_out_a_vector_the_public_constructor_accepts(rng, kind):
    # centrality builds its vector without the public checks, which must hold all the same;
    # every kind but random ties agents, and the tie rule orders them by index
    for n in (3, 15, 201):
        kw = {"l_star": dict(l=int(rng.integers(2, n))), "random": dict(seed=n, density=0.2)}
        v = centrality(generate(kind, n, **kw.get(kind, {})), draw_params(rng))
        checked = CentralityVector(values=v.values, order=v.order)
        assert checked.sorted_values.tobytes() == v.sorted_values.tobytes()
        assert not any(a.flags.writeable for a in (v.values, v.order, v.sorted_values))


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


def test_guards_run_on_every_evaluation(example_params, monkeypatch, count_matvecs):
    # Under a guard tolerance no vector passes, a repeated (beta, delta) still
    # returns the vector that passed before, with no new power and no guard
    # read (the star-hub bound is one); every fresh key is guarded, whether
    # its series is summed from kept powers or needs new ones.
    g = generate("star", 6)
    first = centrality(g, example_params)
    module = sys.modules["netgame.centrality"]
    monkeypatch.setattr(module, "_GUARD_TOL", -1.0)
    hub_bounds = []
    star = module.star_centralities
    monkeypatch.setattr(module, "star_centralities", lambda *a: hub_bounds.append(a) or star(*a))
    assert centrality(g, example_params) is first
    assert (len(count_matvecs), hub_bounds) == (1, [])
    with pytest.raises(ArithmeticError):  # r = 1/8 needs fewer powers than r = 1/4 kept
        centrality(g, ModelParams(alpha=1.0, beta=1.0, delta=0.25))
    assert (len(count_matvecs), len(hub_bounds)) == (1, 1)
    with pytest.raises(ArithmeticError):  # r = 0.475 needs more
        centrality(g, ModelParams(alpha=1.0, beta=1.0, delta=0.95))
    assert (len(count_matvecs), len(hub_bounds)) == (2, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_centralities_are_a_solver_failure(example_params, monkeypatch, bad):
    # the guards are the only check a fresh vector gets: CentralityVector's
    # public constructor would report the same values as refused input (ValueError)
    module = sys.modules["netgame.centrality"]
    real_powers = module._powers

    def spoiled(*args):
        powers = real_powers(*args)
        last = powers[-1].copy()
        last[0] = bad
        return (*powers[:-1], last)

    monkeypatch.setattr(module, "_powers", spoiled)
    with pytest.raises(ArithmeticError):
        centrality(generate("star", 6), example_params)
