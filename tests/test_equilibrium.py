import itertools
import math

import numpy as np
import pytest

from netgame import (
    BudgetSpec,
    max_centrality_sequence,
    min_centrality_sequence,
    best_response_quality,
    centrality,
    discounted_utilities,
    generate,
    solve_nash,
    symmetric_nash,
    water_fill_seeding,
)
from netgame.equilibrium import (
    CASE_BOUNDARY,
    CASE_INTERIOR,
    CASE_SATURATED,
    COND_TOL,
    SolverError,
    _CASE_RANK,
    _QualityCurve,
    _build_outcome,
    _clipped_seed,
    _conditions_ok,
    _solve_case,
    _solve_sequence,
)

from conftest import (
    bounded_argmax,
    dense_graph,
    draw_costs,
    draw_graph,
    draw_instance,
    draw_params,
    random_seeding,
    solve_nash_iterative,
)


def _assert_water_filled(seeding: np.ndarray, order: np.ndarray) -> None:
    along = seeding[order]
    assert np.all(along >= -1e-12) and np.all(along <= 0.5 + 1e-12)
    assert np.all(np.diff(along) <= 1e-9)
    partial = np.nonzero((along > 1e-12) & (along < 0.5 - 1e-12))[0]
    assert len(partial) <= 1


def test_water_fill_structure(example_params):
    v = centrality(generate("l_star", 15, l=3), example_params)
    seeding, marginal = water_fill_seeding(v, 1.3)
    assert seeding.sum() == pytest.approx(1.3, abs=1e-12)
    assert marginal == 3
    _assert_water_filled(seeding, v.order)
    assert seeding[v.order[2]] == pytest.approx(0.3, abs=1e-12)


def _water_fill_loop(v, amount):
    """Reference water-fill: hand out 1/2 at a time in centrality order."""
    seeding = np.zeros(len(v.values))
    remaining = min(max(amount, 0.0), len(v.values) / 2.0)
    marginal = 0
    for pos, agent in enumerate(v.order):
        if remaining <= 0.0:
            break
        seeding[agent] = min(0.5, remaining)
        remaining -= seeding[agent]
        marginal = pos + 1
    return seeding, marginal


def test_water_fill_equals_loop_reference(rng):
    for _ in range(200):
        n = int(rng.integers(2, 40))
        v = centrality(draw_graph(rng, n), draw_params(rng))
        half = int(rng.integers(0, n + 1)) / 2.0
        for amount in (0.0, half, float(rng.uniform(0.0, n / 2.0)), n / 2.0, 1e-300, -1e-12):
            seeding, marginal = water_fill_seeding(v, amount)
            want, want_marginal = _water_fill_loop(v, amount)
            assert seeding.tobytes() == want.tobytes() and marginal == want_marginal


def test_water_fill_rejects_out_of_range(example_params):
    v = centrality(generate("balanced", 4), example_params)
    with pytest.raises(ValueError):
        water_fill_seeding(v, -0.5)
    with pytest.raises(ValueError):
        water_fill_seeding(v, 2.5)


def test_best_response_matches_numeric_oracle(rng):
    for _ in range(8):
        n = int(rng.integers(2, 10))
        p = draw_params(rng)
        g = draw_graph(rng, n)
        v = centrality(g, p)
        c_s, c_q = draw_costs(rng)
        K = float(rng.uniform(0.5, c_s * n / 2.0 + c_q))
        q_opp = float(rng.uniform(0.3, 3.0))
        lam = p.quality_weight(n)

        def objective(q):
            spend = (K - c_q * q) / c_s
            seeding, _ = water_fill_seeding(v, min(spend, n / 2.0))
            return float(v.values @ seeding) + lam * (q - q_opp) / (q + q_opp)

        q_lo = max(p.epsilon, (K - c_s * n / 2.0) / c_q)
        _, oracle_val = bounded_argmax(objective, q_lo, K / c_q, coarse=800)
        q_star, seeding, val = best_response_quality(v, p, K, c_s, c_q, q_opp)
        assert val >= oracle_val - 1e-9
        assert val == pytest.approx(objective(q_star), abs=1e-12)
        _assert_water_filled(seeding, v.order)


def test_best_response_spends_whole_budget(rng):
    p = draw_params(rng)
    g = draw_graph(rng, 6)
    v = centrality(g, p)
    q, seeding, _ = best_response_quality(v, p, 2.0, 1.0, 1.0, 1.0)
    assert seeding.sum() + q == pytest.approx(2.0, abs=1e-9)


def test_symmetric_balanced_example(example_params):
    out = symmetric_nash(generate("balanced", 15), example_params, 2.0, 1.0, 1.0)
    assert out.strategy_a.seeding_total == pytest.approx(0.125, abs=1e-12)
    assert out.strategy_a.quality == pytest.approx(1.875, abs=1e-12)
    assert out.k == 1 and out.case_a == CASE_INTERIOR
    assert out.v_tilde_k == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_symmetric_three_star_example(example_params):
    out = symmetric_nash(generate("l_star", 15, l=3), example_params, 2.0, 1.0, 1.0)
    assert out.strategy_a.seeding_total == pytest.approx(17.0 / 16.0, abs=1e-12)
    assert out.strategy_a.quality == pytest.approx(15.0 / 16.0, abs=1e-12)
    s = out.strategy_a.seeding[out.strategy_a.seeding.argsort()[::-1]]
    assert np.allclose(s[:2], 0.5, atol=1e-12)
    assert s[2] == pytest.approx(1.0 / 16.0, abs=1e-12)
    assert np.allclose(s[3:], 0.0, atol=1e-12)
    assert out.k == 3 and out.case_a == CASE_INTERIOR


def test_symmetric_star_example(example_params):
    out = symmetric_nash(generate("star", 15), example_params, 2.0, 1.0, 1.0)
    assert out.strategy_a.seeding_total == pytest.approx(0.5, abs=1e-12)
    assert out.strategy_a.quality == pytest.approx(1.5, abs=1e-12)
    assert out.case_a == CASE_BOUNDARY and out.k == 2
    assert out.v_tilde_k == pytest.approx(5.0 / 3.0, abs=1e-12)


def test_symmetric_matches_general_solver(example_params):
    # every budget on the 1/8 grid up to n/2, so many land exactly on level
    # boundaries, where the (k, l, case) tie-break decides
    for kind, n in itertools.product(("balanced", "star", "l_star"), (4, 9, 15)):
        g = generate(kind, n, l=3 if kind == "l_star" else None)
        for K in np.arange(1, 4 * n + 1) / 8.0:
            want = enumerate_nash(g, example_params, BudgetSpec(K, K, 1.0, 1.0))
            got = symmetric_nash(g, example_params, float(K), 1.0, 1.0)
            assert got.to_dict() == want.to_dict()


def _symmetric_levels_loop(vd, p, K, c_s, c_q):
    """Reference level search: try each level l in order, then saturation."""
    n = len(vd)
    lam = p.quality_weight(n)
    ratio = c_s / c_q
    for l in range(1, n + 1):
        vt = vd[l - 1]
        q = lam / 2.0 * ratio / vt
        s_l = K / c_s - (l - 1) / 2.0 - (c_q / c_s) * q
        if q >= p.epsilon - COND_TOL and -COND_TOL <= s_l <= 0.5 + COND_TOL:
            return l, vt, CASE_INTERIOR, q, min(max(s_l, 0.0), 0.5)
        q = (K - c_s * (l - 1) / 2.0) / c_q
        if q >= p.epsilon - COND_TOL:
            vt = lam / 2.0 * ratio / q
            upper = math.inf if l == 1 else vd[l - 2] + COND_TOL
            if vd[l - 1] - COND_TOL <= vt <= upper:
                return l, vt, CASE_BOUNDARY, q, 0.0
    q = (K - c_s * n / 2.0) / c_q
    if q >= p.epsilon - COND_TOL:
        vt = lam / 2.0 * ratio / q
        if vt <= vd[n - 1] + COND_TOL:
            return n, vt, CASE_SATURATED, q, 0.5
    raise SolverError("no symmetric equilibrium level accepted")


def _refusal_or(solve, *args):
    """``solve``'s result, or SolverError itself when it refuses."""
    try:
        return solve(*args)
    except SolverError:
        return SolverError


def test_symmetric_levels_match_loop_reference(rng):
    # sorted centralities, both extremal envelopes and all-tied sequences;
    # budgets on a 1/8 grid land exactly on level boundaries.  The solve
    # equals the pair enumeration in every field; its level, case and
    # refusals equal the symmetric level loop's.
    cases_seen = set()
    for _ in range(150):
        n = int(rng.integers(2, 31))
        p = draw_params(rng)
        c_s, c_q = (1.0, 1.0) if rng.random() < 0.5 else draw_costs(rng)
        sequences = (
            centrality(draw_graph(rng, n), p).sorted_values,
            max_centrality_sequence(n, p),
            min_centrality_sequence(n, p),
            np.full(n, float(rng.uniform(1.0, 3.0))),
        )
        top = 1.2 * (c_s * n / 2.0 + c_q)
        budgets = [float(rng.uniform(0.01, top)) for _ in range(4)]
        budgets += [float(k) for k in rng.choice(np.arange(1, int(8 * top)) / 8.0, size=4)]
        for vd, K in itertools.product(sequences, budgets):
            budget = BudgetSpec(K, K, c_s, c_q)
            got = _refusal_or(_solve_sequence, vd, p, budget)
            assert got == _refusal_or(enumerate_sequence, vd, p, budget)
            want = _refusal_or(_symmetric_levels_loop, vd, p, K, c_s, c_q)
            if want is SolverError:
                assert got is SolverError
                continue
            assert (got.k, got.case_a) == (got.l, got.case_b) == (want[0], want[2])
            cases_seen.add(want[2])
    assert cases_seen == set(_CASE_RANK)


def test_asymmetric_three_star_pinned(example_params):
    # pinned by the best-response iteration; both routes land here exactly
    g = generate("l_star", 15, l=3)
    out = solve_nash(g, example_params, BudgetSpec(2.0, 1.0, 1.0, 1.0))
    assert out.strategy_a.quality == pytest.approx(0.9375, abs=1e-9)
    assert out.strategy_b.quality == pytest.approx(0.9375, abs=1e-9)
    assert out.strategy_a.seeding_total == pytest.approx(1.0625, abs=1e-9)
    assert out.strategy_b.seeding_total == pytest.approx(0.0625, abs=1e-9)


def test_outcome_invariants(rng):
    for _ in range(10):
        g, p, budget = draw_instance(rng)
        n = g.n
        c_s, c_q = budget.c_s, budget.c_q
        out = solve_nash(g, p, budget)
        v = centrality(g, p)
        lam = p.quality_weight(n)
        ratio = c_s / c_q
        q_a, q_b = out.strategy_a.quality, out.strategy_b.quality
        # whole budget spent
        assert out.strategy_a.spend(c_s, c_q) == pytest.approx(budget.K_a, abs=1e-9)
        assert out.strategy_b.spend(c_s, c_q) == pytest.approx(budget.K_b, abs=1e-9)
        # seeding water-filled along the centrality order
        _assert_water_filled(out.strategy_a.seeding, v.order)
        _assert_water_filled(out.strategy_b.seeding, v.order)
        # marginal virtual centralities reproduce the qualities
        den = (out.v_tilde_k + out.v_tilde_l) ** 2
        assert q_a == pytest.approx(2 * lam * ratio * out.v_tilde_l / den, abs=1e-9)
        assert q_b == pytest.approx(2 * lam * ratio * out.v_tilde_k / den, abs=1e-9)
        # fixed-sum utilities
        assert out.utility_a + out.utility_b == pytest.approx(
            n / (1.0 - p.delta), abs=1e-9
        )
        rep = discounted_utilities(
            g, p, q_a, q_b, out.strategy_a.seeding, out.strategy_b.seeding
        )
        assert out.utility_a == pytest.approx(rep.u_a, abs=1e-9)


def test_enumeration_matches_iteration(rng):
    for _ in range(10):
        g, p, budget = draw_instance(rng)
        enum = solve_nash(g, p, budget)
        iter_ = solve_nash_iterative(g, p, budget)
        assert enum.strategy_a.quality == pytest.approx(
            iter_.strategy_a.quality, abs=1e-6
        )
        assert enum.strategy_b.quality == pytest.approx(
            iter_.strategy_b.quality, abs=1e-6
        )
        assert enum.strategy_a.seeding_total == pytest.approx(
            iter_.strategy_a.seeding_total, abs=1e-6
        )


def test_no_profitable_deviation(rng):
    for _ in range(4):
        g, p, budget = draw_instance(rng, n_max=7)
        n = g.n
        c_s, c_q, k_a = budget.c_s, budget.c_q, budget.K_a
        out = solve_nash(g, p, budget)
        v = centrality(g, p)
        lam = p.quality_weight(n)

        def utility_a(s_a, q_a):
            gap = lam * (q_a - out.strategy_b.quality) / (q_a + out.strategy_b.quality)
            return float(v.values @ (s_a - out.strategy_b.seeding)) + gap

        base_val = utility_a(out.strategy_a.seeding, out.strategy_a.quality)
        q_lo = max(p.epsilon, (k_a - c_s * n / 2.0) / c_q)
        for q in np.linspace(q_lo, k_a / c_q, 40):
            seeding, _ = water_fill_seeding(v, min((k_a - c_q * q) / c_s, n / 2.0))
            assert utility_a(seeding, q) <= base_val + 1e-6
        for _ in range(10):
            q = float(rng.uniform(q_lo, k_a / c_q))
            spend = min((k_a - c_q * q) / c_s, n / 2.0)
            assert utility_a(random_seeding(rng, n, spend), q) <= base_val + 1e-6


def _enumerated_cases(K, c_s, c_q, eps, n):
    """Every (case, index, pinned quality) triple one firm can take."""
    cases = []
    for k in range(1, n + 1):
        cases.append((CASE_INTERIOR, k, None))
        q_pinned = (K - c_s * (k - 1) / 2.0) / c_q
        if q_pinned >= eps - COND_TOL:
            cases.append((CASE_BOUNDARY, k, q_pinned))
    q_full = (K - c_s * n / 2.0) / c_q
    if q_full >= eps - COND_TOL:
        cases.append((CASE_SATURATED, n, q_full))
    return cases


def enumerate_sequence(vd, p, budget):
    """Oracle for _solve_sequence: try every (case, k) x (case, l) pair.

    O(n^2) closed-form solves on the descending sequence ``vd``, tried in
    (k, l, case_a, case_b) order; the first accepted pair is the
    lexicographically smallest, the tie-break solve_nash promises.
    """
    n = len(vd)
    lam = p.quality_weight(n)
    ratio = budget.c_s / budget.c_q

    def by_index(K):
        # one firm's cases come sorted by (index, case rank): group them by index
        cases = _enumerated_cases(K, budget.c_s, budget.c_q, p.epsilon, n)
        return [list(group) for _, group in itertools.groupby(cases, key=lambda c: c[1])]

    for cases_k, cases_l in itertools.product(by_index(budget.K_a), by_index(budget.K_b)):
        for (ca, k, qa_pin), (cb, l, qb_pin) in itertools.product(cases_k, cases_l):
            sol = _solve_case(lam, ratio, vd, k, l, ca, cb, qa_pin, qb_pin)
            if sol is not None and _conditions_ok(budget, p, vd, n, *sol, k, l, ca, cb):
                q_a, q_b, vt_k, vt_l = sol
                seed_k = _clipped_seed(budget.K_a, budget.c_s, budget.c_q, k, q_a, ca)
                seed_l = _clipped_seed(budget.K_b, budget.c_s, budget.c_q, l, q_b, cb)
                return q_a, q_b, vt_k, vt_l, k, l, ca, cb, seed_k, seed_l
    raise SolverError("no candidate pair satisfied the conditions")


def enumerate_nash(g, p, budget):
    """Oracle for solve_nash: the pair enumeration on g's sorted centralities."""
    v = centrality(g, p)
    return _build_outcome(p, v, *enumerate_sequence(v.sorted_values, p, budget))


def _oracle_graph(rng, n):
    kind = ("random", "star", "l_star", "balanced")[int(rng.integers(4))]
    if kind == "random":
        return draw_graph(rng, n)
    if kind == "l_star" and n < 3:
        kind = "star"
    g = generate(kind, n, l=int(rng.integers(2, n)) if kind == "l_star" else None)
    # relabel so ties in centrality are not always broken toward the hub
    perm = rng.permutation(n)
    return dense_graph(g.weights[np.ix_(perm, perm)])


def _assert_matches_oracle(g, p, budget):
    """solve_nash equals the enumeration bit for bit; returns its outcome.

    Returns None when the oracle refuses, after checking solve_nash does too.
    """
    try:
        want = enumerate_nash(g, p, budget)
    except SolverError:
        with pytest.raises(SolverError):
            solve_nash(g, p, budget)
        return None
    got = solve_nash(g, p, budget)
    assert got.to_dict() == want.to_dict()
    return got


def test_solve_nash_matches_enumeration_oracle():
    rng = np.random.default_rng(2015)
    cases_seen = set()
    refused = 0
    for _ in range(600):
        n = int(rng.integers(2, 31))
        p = draw_params(rng)
        g = _oracle_graph(rng, n)
        c_s, c_q = draw_costs(rng)
        top = 1.2 * (c_s * n / 2.0 + c_q)
        if rng.random() < 0.5:
            k_a = float(rng.uniform(0.01, top))
        else:
            k_a = float(np.exp(rng.uniform(math.log(0.01), math.log(top))))
        k_b = min(max(k_a * 2.0 ** float(rng.uniform(-3.0, 3.0)), 0.01), top)
        out = _assert_matches_oracle(g, p, BudgetSpec(k_a, k_b, c_s, c_q))
        if out is None:
            refused += 1
        else:
            cases_seen.add((out.case_a, out.case_b))
    # the draws reach every case tag for both firms and the floor corner
    assert {c for c, _ in cases_seen} == {c for _, c in cases_seen} == set(_CASE_RANK)
    assert refused > 0


def test_solve_nash_tie_break_matches_oracle(example_params):
    # Random draws never accept two candidates; budgets on a 1/8 grid at
    # the worked parameters land exactly on case boundaries, where several
    # candidates pass and the (k, l, case) tie-break decides.
    for kind, n in itertools.product(("balanced", "star", "l_star"), (4, 9)):
        g = generate(kind, n, l=3 if kind == "l_star" else None)
        for k_a, k_b in itertools.product(np.arange(1, 4 * n + 1) / 8.0, (0.125, 0.5, 1.0, 3.0)):
            _assert_matches_oracle(g, example_params, BudgetSpec(float(k_a), k_b, 1.0, 1.0))


def test_floor_corner_is_refused_while_iteration_settles(example_params):
    # firm a seeds every agent fully and buys quality with the rest; firm
    # b's best quality is the floor, which the case characterization lacks
    g = generate("star", 15)
    budget = BudgetSpec(20.0, 0.01, 1.0, 1.0)
    with pytest.raises(SolverError):
        solve_nash(g, example_params, budget)
    out = solve_nash_iterative(g, example_params, budget)
    assert out.strategy_b.quality == pytest.approx(example_params.epsilon, abs=1e-15)
    assert out.strategy_a.quality == pytest.approx(12.5, abs=1e-9)
    assert out.case_a == CASE_SATURATED


@pytest.mark.parametrize("budgets, firm", [((20.0, 0.01), "b"), ((0.01, 20.0), "a")])
def test_floor_refusal_names_the_floored_firm(example_params, budgets, firm):
    g = generate("star", 15)
    budget = BudgetSpec(*budgets, 1.0, 1.0)
    with pytest.raises(SolverError) as err:
        solve_nash(g, example_params, budget)
    message = str(err.value)
    assert f"firm {firm}'s equilibrium quality sits at the floor epsilon=1e-06" in message
    assert f"K_a={budget.K_a}, K_b={budget.K_b}" in message
    # the iteration confirms it: that firm's best quality is the floor
    out = solve_nash_iterative(g, example_params, budget)
    floored = out.strategy_b if firm == "b" else out.strategy_a
    assert floored.quality == pytest.approx(example_params.epsilon, abs=1e-15)


def test_best_response_iteration_cycles_where_solve_nash_does_not(example_params):
    # The iteration is no total oracle: on this star its best responses
    # alternate between two quality pairs, while solve_nash's answer is a
    # fixed point of best_response_quality.
    g = generate("star", 30)
    budget = BudgetSpec(2.894, 0.343, 1.0, 1.0)
    out = solve_nash(g, example_params, budget)
    q_a, q_b = out.strategy_a.quality, out.strategy_b.quality
    assert (q_a, q_b) == (pytest.approx(1.8045, abs=1e-4), pytest.approx(0.2206, abs=1e-4))
    v = centrality(g, example_params)
    best_a, _, _ = best_response_quality(v, example_params, budget.K_a, 1.0, 1.0, q_b)
    best_b, _, _ = best_response_quality(v, example_params, budget.K_b, 1.0, 1.0, q_a)
    assert abs(best_a - q_a) <= 1e-9 and abs(best_b - q_b) <= 1e-9
    with pytest.raises(SolverError, match="did not converge"):
        solve_nash_iterative(g, example_params, budget)


def test_quality_curve_inverts_best_response(rng):
    # Against any rival quality, the best reply q* solves v~ * q = w at
    # w = 2*lam*r*u(q*, q_opp), so the curve must map that w back to q*.
    for _ in range(300):
        n = int(rng.integers(2, 30))
        p = draw_params(rng)
        v = centrality(draw_graph(rng, n), p)
        c_s, c_q = draw_costs(rng)
        K = float(rng.uniform(0.01, 1.2 * (c_s * n / 2.0 + c_q)))
        q_opp = float(np.exp(rng.uniform(-4.0, 3.0)))
        q, _, _ = best_response_quality(v, p, K, c_s, c_q, q_opp)
        w = 2.0 * p.quality_weight(n) * (c_s / c_q) * q * q_opp / (q + q_opp) ** 2
        curve = _QualityCurve.build(v.sorted_values, K, c_s, c_q, p.epsilon)
        assert curve(w) == pytest.approx(q, rel=1e-9, abs=1e-12)


def test_saturated_case_reached(example_params):
    # budget big enough to fully seed everyone and still buy quality
    out = symmetric_nash(generate("balanced", 4), example_params, 5.0, 1.0, 1.0)
    assert out.case_a == CASE_SATURATED
    assert np.allclose(out.strategy_a.seeding, 0.5, atol=1e-12)
    assert out.strategy_a.quality == pytest.approx(3.0, abs=1e-12)


def test_rejects_budget_below_quality_floor(example_params):
    g = generate("balanced", 4)
    with pytest.raises(ValueError, match="afford"):
        solve_nash(g, example_params, BudgetSpec(1e-9, 1.0, 1.0, 1.0))


def test_budget_spec_validation():
    with pytest.raises(ValueError, match="costs"):
        BudgetSpec(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        BudgetSpec(-1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", range(4))
def test_budget_spec_rejects_non_finite(field, bad):
    # NaN fails no sign check, so it would otherwise reach the solver
    values = [1.0, 1.0, 1.0, 1.0]
    values[field] = bad
    with pytest.raises(ValueError, match="must be finite"):
        BudgetSpec(*values)


@pytest.mark.parametrize(
    "K, c_s, c_q, named",
    [(math.nan, 1.0, 1.0, "must be finite"), (math.inf, 1.0, 1.0, "must be finite"),
     (2.0, 0.0, 1.0, "costs must be positive"), (2.0, -1.0, 1.0, "costs must be positive"),
     (2.0, 1.0, 0.0, "costs must be positive"), (2.0, 1.0, math.nan, "must be finite")],
)
def test_best_response_checks_budget_and_costs_as_budget_spec_does(example_params, K, c_s, c_q, named):
    # unchecked, these raised IndexError from numpy or returned an unaffordable quality
    v = centrality(generate("star", 15), example_params)
    with pytest.raises(ValueError, match=named):
        best_response_quality(v, example_params, K, c_s, c_q, 1.0)


@pytest.mark.parametrize("q_opp", [math.nan, math.inf])
def test_best_response_refuses_non_finite_opponent_quality(example_params, q_opp):
    v = centrality(generate("star", 15), example_params)
    with pytest.raises(ValueError, match=f"opponent quality {q_opp} is not finite"):
        best_response_quality(v, example_params, 2.0, 1.0, 1.0, q_opp)


def test_outcome_serialization(example_params):
    out = symmetric_nash(generate("star", 5), example_params, 1.0, 1.0, 1.0)
    d = out.to_dict()
    assert d["qualities"]["a"] == d["qualities"]["b"]
    assert len(d["seeding"]["a"]) == 5
    assert d["case"]["a"] in {CASE_INTERIOR, CASE_BOUNDARY, CASE_SATURATED}
    assert d["k"] == out.k and d["l"] == out.l
