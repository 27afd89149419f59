import tracemalloc

import numpy as np
import pytest

from netgame import (
    PresetState,
    balanced_centrality,
    centrality,
    generate,
    l_star_centralities,
    max_centrality_sequence,
    min_centrality_sequence,
    seeding_capacity,
    star_centralities,
    symmetric_nash,
    symmetric_seeding_extremes,
)
from netgame.extremal import budget_regime

from conftest import draw_costs, draw_graph, draw_params, regime_classify


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


def test_max_envelope_equals_per_level_closed_forms_bit_for_bit(rng):
    for n in (2, 3, 15, *rng.integers(4, 2000, size=8).tolist()):
        p = draw_params(rng)
        levels = np.arange(2, n + 1)
        hubs, peripheral = l_star_centralities(n, levels, p)
        per_level = [l_star_centralities(n, l, p)[0] for l in range(2, n + 1)]
        assert peripheral == 1.0
        assert hubs.tobytes() == np.array(per_level).tobytes()
        expected = np.array([star_centralities(n, p)[0], *per_level])
        assert max_centrality_sequence(n, p).tobytes() == expected.tobytes()


def test_max_envelope_at_n_1e6_takes_linear_memory(example_params):
    # built from n - 1 scalar calls, the envelope peaked at 48 bytes per agent
    n = 10**6
    tracemalloc.start()
    try:
        hi = max_centrality_sequence(n, example_params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hi.shape == (n,) and hi[0] > hi[1] > hi[-1]
    assert hi[-1] == pytest.approx(balanced_centrality(example_params), rel=1e-12)
    assert peak <= 32 * n


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
    assert np.abs(near[2:] - 1.0).max() <= 1e-9


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


def _first_endpoint_above(value, out, regimes):
    """The regime as a chain of ``value < endpoint`` tests, in endpoint order."""
    for e, regime in zip(out["endpoints"].values(), regimes):
        if value < e:
            return regime
    return regimes[-1]


def test_budget_regime_matches_the_comparison_chain(rng):
    regimes = ("no_graph_seedable", "star_over_balanced", "balanced_over_star",
               "star_balanced_saturated_equal", "all_graphs_saturated")
    for _ in range(300):
        n, p = int(rng.integers(2, 60)), draw_params(rng)
        endpoints = list(budget_regime(n, p, 1.0)["endpoints"].values())
        assert np.diff(endpoints).min() >= -1e-12  # at n=2 the star's peripheral is balanced
        spend = float(rng.uniform(0.0, 1.1 * endpoints[-1]))
        out = budget_regime(n, p, spend)
        if out["regime"] != "boundary":
            assert out["regime"] == _first_endpoint_above(spend, out, regimes)


# what each threshold label claims of the star's and the balanced graph's seeding capacity
CAPACITY_CLAIMS = {
    "all_graphs_full_capacity": lambda star, balanced, n: star == balanced == n / 2,
    "star_balanced_equal_capacity": lambda star, balanced, n: star == balanced,
    "balanced_over_star": lambda star, balanced, n: balanced > star,
    "star_over_balanced": lambda star, balanced, n: star > balanced,
    "no_graph_seedable": lambda star, balanced, n: star == balanced == 0.0,
}


def _label_with_its_capacity_claim(n, p, v_c) -> str:
    """The threshold label at ``v_c``, after checking what it claims of the star's and the
    balanced graph's seeding capacity."""
    label = regime_classify(n, p, v_c)["regime"]
    if label != "boundary":
        # equal qualities q put both firms' thresholds at lambda / (2 q) = v_c
        q = p.quality_weight(n) / (2.0 * v_c)
        state = PresetState.neutral(n, q, q)
        star, balanced = (
            seeding_capacity(centrality(generate(kind, n), p), state, "a", p, 1.0, 1.0)
            for kind in ("star", "balanced")
        )
        assert CAPACITY_CLAIMS[label](star, balanced, n), (n, v_c, label, star, balanced)
    return label


# at n=15, one threshold per label, from the star's hub and peripheral centralities
POINTS_AT_15 = {
    "all_graphs_full_capacity": lambda hub, peripheral: 0.5,
    "star_balanced_equal_capacity": lambda hub, peripheral: 1.02,
    "balanced_over_star": lambda hub, peripheral: 1.2,
    "star_over_balanced": lambda hub, peripheral: 2.5,
    "no_graph_seedable": lambda hub, peripheral: hub + 1.0,
    "boundary": lambda hub, peripheral: peripheral,
}


@pytest.mark.parametrize("label", POINTS_AT_15)
def test_threshold_labels_compare_star_and_balanced_seeding_capacity(label, example_params):
    v_c = POINTS_AT_15[label](*star_centralities(15, example_params))
    assert _label_with_its_capacity_claim(15, example_params, v_c) == label


def test_threshold_labels_compare_star_and_balanced_seeding_capacity_on_draws(rng):
    labels = set()
    for _ in range(400):
        n, p = int(rng.integers(2, 60)), draw_params(rng)
        v_c = float(rng.uniform(0.5, 1.1 * star_centralities(n, p)[0]))
        labels.add(_label_with_its_capacity_claim(n, p, v_c))
    assert labels >= set(CAPACITY_CLAIMS)
