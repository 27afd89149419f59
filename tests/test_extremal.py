import math

import numpy as np
import pytest

from netgame import (
    centrality,
    generate,
    max_centrality_sequence,
    min_centrality_sequence,
    regime_classify,
    symmetric_nash,
    symmetric_seeding_extremes,
)
from netgame.extremal import budget_regime

from conftest import draw_costs, draw_graph, draw_params


def test_envelope_values_example(example_params):
    hi = max_centrality_sequence(15, example_params)
    lo = min_centrality_sequence(15, example_params)
    assert hi[0] == pytest.approx(4.8)
    assert hi[2] == pytest.approx(8.0 / 3.0)
    assert hi[14] == pytest.approx(4.0 / 3.0)
    assert lo[0] == pytest.approx(4.0 / 3.0)
    assert lo[1] == pytest.approx(38.0 / 35.0)
    assert lo[6] == 1.0


def test_envelope_sequences_are_consistent(rng):
    for _ in range(10):
        n = int(rng.integers(2, 14))
        p = draw_params(rng)
        hi = max_centrality_sequence(n, p)
        lo = min_centrality_sequence(n, p)
        assert hi.shape == lo.shape == (n,)
        assert np.all(np.diff(hi) <= 1e-12)
        assert np.all(np.diff(lo) <= 1e-12)
        assert np.all(lo <= hi + 1e-12)


@pytest.mark.parametrize("n", [0, 1])
def test_envelopes_refuse_fewer_than_two_agents(example_params, n):
    # n=0 gave empty envelopes and n=1 a one-entry minimum envelope or ZeroDivisionError
    for build in (max_centrality_sequence, min_centrality_sequence):
        with pytest.raises(ValueError, match=f"at least 2 agents, got n={n}"):
            build(n, example_params)
    with pytest.raises(ValueError, match=f"at least 2 agents, got n={n}"):
        symmetric_seeding_extremes(n, example_params, 1.0, 1.0, 1.0)


def test_witness_graphs_attain_envelopes(example_params):
    # the named graphs sit exactly on the bounds they certify
    n = 15
    hi = max_centrality_sequence(n, example_params)
    lo = min_centrality_sequence(n, example_params)
    star = centrality(generate("star", n), example_params).sorted_values
    assert star[0] == pytest.approx(hi[0], abs=1e-9)
    assert star[1] == pytest.approx(lo[1], abs=1e-9)
    for l in (2, 5, 14):
        v = centrality(generate("l_star", n, l=l), example_params).sorted_values
        assert v[l - 1] == pytest.approx(hi[l - 1], abs=1e-9)
    balanced = centrality(generate("balanced", n), example_params).sorted_values
    assert balanced[0] == pytest.approx(lo[0], abs=1e-9)
    near = centrality(
        generate("near_star_one_bidirectional", n), example_params
    ).sorted_values
    assert np.allclose(near[2:], 1.0, atol=1e-9)


def test_domination_of_random_graphs(rng):
    for _ in range(25):
        n = int(rng.integers(2, 12))
        p = draw_params(rng)
        g = draw_graph(rng, n)
        s = centrality(g, p).sorted_values
        assert np.all(s <= max_centrality_sequence(n, p) + 1e-9)
        assert np.all(s >= min_centrality_sequence(n, p) - 1e-9)


def test_seeding_extremes_example(example_params):
    ext = symmetric_seeding_extremes(15, example_params, 2.0, 1.0, 1.0)
    assert ext.maximum.seeding_total == pytest.approx(17.0 / 16.0, abs=1e-12)
    assert ext.maximum.witness_kind == "l_star" and ext.maximum.witness_l == 3
    assert ext.maximum.verified and ext.maximum.discrepancy <= 1e-9
    assert ext.minimum.seeding_total == pytest.approx(0.125, abs=1e-12)
    assert ext.minimum.witness_kind == "balanced"
    assert ext.minimum.verified and ext.minimum.discrepancy <= 1e-9


def test_extremes_bracket_random_graphs(rng):
    for _ in range(12):
        n = int(rng.integers(3, 10))
        p = draw_params(rng)
        c_s, c_q = draw_costs(rng)
        K = float(rng.uniform(0.5, c_s * n / 2.0 + c_q))
        ext = symmetric_seeding_extremes(n, p, K, c_s, c_q)
        assert ext.maximum.verified, (n, K)
        assert ext.minimum.verified, (n, K)
        for _ in range(4):
            g = draw_graph(rng, n)
            total = symmetric_nash(g, p, K, c_s, c_q).strategy_a.seeding_total
            assert total <= ext.maximum.seeding_total + 1e-9
            assert total >= ext.minimum.seeding_total - 1e-9


_SYMMETRIC_ENTRY_POINTS = {
    "symmetric_nash": lambda p, *budget: symmetric_nash(generate("star", 15), p, *budget),
    "symmetric_seeding_extremes": lambda p, *budget: symmetric_seeding_extremes(15, p, *budget),
}


@pytest.mark.parametrize(
    "K, c_s, c_q",
    [(math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0), (-1.0, 1.0, 1.0)]
    + [(1.0, bad, 1.0) for bad in (0.0, math.nan, math.inf)]
    + [(1.0, 1.0, bad) for bad in (0.0, math.nan, math.inf)],
)
@pytest.mark.parametrize("entry", sorted(_SYMMETRIC_ENTRY_POINTS))
def test_symmetric_entry_points_reject_bad_budgets(example_params, entry, K, c_s, c_q):
    # refused before any solve: unchecked, an infinite budget gives infinite
    # quality, a NaN one a SolverError and a zero cost a ZeroDivisionError
    with pytest.raises(ValueError, match="budgets|costs"):
        _SYMMETRIC_ENTRY_POINTS[entry](example_params, K, c_s, c_q)


def test_seeding_extremes_serialization(example_params):
    ext = symmetric_seeding_extremes(15, example_params, 2.0, 1.0, 1.0)
    d = ext.to_dict()
    assert d["maximum"]["witness"]["n"] == 15
    assert d["minimum"]["case"] in {"interior", "boundary_zero", "saturated"}


def test_budget_regime_endpoints_example(example_params):
    out = budget_regime(15, example_params, 2.0)
    e = out["endpoints"]
    assert e["star_seedable"] == pytest.approx(25.0 / 48.0, abs=1e-12)
    assert e["balanced_overtakes"] == pytest.approx(2.375, abs=1e-12)
    assert e["star_balanced_saturated"] == pytest.approx(7.5 + 175.0 / 76.0, abs=1e-12)
    assert e["all_graphs_saturated"] == pytest.approx(10.0, abs=1e-12)
    assert out["regime"] == "star_over_balanced"


def test_budget_regime_labels(example_params):
    cases = [
        (0.3, "no_graph_seedable"),
        (2.0, "star_over_balanced"),
        (5.0, "balanced_over_star"),
        (9.9, "star_balanced_saturated_equal"),
        (11.0, "all_graphs_saturated"),
        (2.375, "boundary"),
    ]
    for K, expected in cases:
        assert budget_regime(15, example_params, K)["regime"] == expected, K


def test_budget_regime_scales_with_seeding_cost(example_params):
    # doubling c_s halves the spend measured in seeding units
    a = budget_regime(15, example_params, 4.0, c_s=2.0)
    b = budget_regime(15, example_params, 2.0, c_s=1.0)
    assert a["value"] == b["value"]
    assert a["regime"] == b["regime"]


def test_regime_matches_seeding_comparison(example_params):
    # in the named intervals, the star/balanced seeding totals compare as labeled
    p = example_params
    for K, expected in ((1.0, "star_over_balanced"), (4.0, "balanced_over_star")):
        star = symmetric_nash(generate("star", 15), p, K, 1.0, 1.0)
        bal = symmetric_nash(generate("balanced", 15), p, K, 1.0, 1.0)
        s, b = star.strategy_a.seeding_total, bal.strategy_a.seeding_total
        assert budget_regime(15, p, K)["regime"] == expected
        if expected == "star_over_balanced":
            assert s > b - 1e-12
        else:
            assert b > s - 1e-12


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_regime_classifiers_refuse_non_finite_values(example_params, bad):
    with pytest.raises(ValueError, match="threshold must be finite"):
        regime_classify(15, example_params, bad)
    with pytest.raises(ValueError, match="budget must be finite"):
        budget_regime(15, example_params, bad)
    with pytest.raises(ValueError, match="c_s must be positive and finite"):
        budget_regime(15, example_params, 2.0, c_s=abs(bad))


def _first_endpoint_above(value, out, regimes):
    """The regime as a chain of ``value < endpoint`` tests, in endpoint order."""
    for e, regime in zip(out["endpoints"].values(), regimes):
        if value < e:
            return regime
    return regimes[-1]


def test_both_regime_classifiers_match_the_comparison_chain(rng):
    budget_regimes = ("no_graph_seedable", "star_over_balanced", "balanced_over_star",
                      "star_balanced_saturated_equal", "all_graphs_saturated")
    threshold_regimes = ("all_graphs_full_capacity", "star_balanced_equal_capacity",
                         "balanced_over_star", "star_over_balanced", "no_graph_seedable")
    for _ in range(300):
        n, p = int(rng.integers(2, 60)), draw_params(rng)
        endpoints = list(budget_regime(n, p, 1.0)["endpoints"].values())
        assert np.diff(endpoints).min() >= -1e-12  # at n=2 the star's peripheral is balanced
        spend = float(rng.uniform(0.0, 1.1 * endpoints[-1]))
        out = budget_regime(n, p, spend)
        if out["regime"] != "boundary":
            assert out["regime"] == _first_endpoint_above(spend, out, budget_regimes)
        endpoints = list(regime_classify(n, p, 1.0)["endpoints"].values())
        assert np.diff(endpoints).min() >= -1e-12  # at n=2 the star's peripheral is balanced
        v_c = float(rng.uniform(0.5, 1.1 * endpoints[-1]))
        out = regime_classify(n, p, v_c)
        if out["regime"] != "boundary":
            assert out["regime"] == _first_endpoint_above(v_c, out, threshold_regimes)
