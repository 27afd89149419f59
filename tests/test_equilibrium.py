import dataclasses
import itertools
import math

import numpy as np
import pytest

from netgame import (
    BudgetSpec,
    CentralityVector,
    FirmStrategy,
    ModelParams,
    PresetState,
    allocate_budget,
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
    best_response_by_arrays,
    best_response_by_candidates,
    bounded_argmax,
    dense_graph,
    draw_costs,
    draw_graph,
    draw_instance,
    draw_params,
    oracle_graphs,
    solve_nash_iterative,
    water_fill_by_capped_fill,
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


@pytest.mark.parametrize("kind", ["star", "l_star", "balanced", "random"])
def test_water_fill_is_the_capped_fill_bit_for_bit(kind, rng):
    for n in (3, 15, 60, 201):
        kw = {"l_star": dict(l=int(rng.integers(2, n))), "random": dict(seed=n, density=0.2)}
        v = centrality(generate(kind, n, **kw.get(kind, {})), draw_params(rng))
        amounts = [*rng.uniform(0.0, n / 2.0, size=100), *(np.arange(n + 1) / 2.0)]
        amounts += [0.0, -COND_TOL, n / 2.0 + COND_TOL, 5e-324, 1e-300]
        for amount in map(float, amounts):
            seeding, marginal = water_fill_seeding(v, amount)
            want, want_marginal = water_fill_by_capped_fill(v, amount)
            assert (seeding.tobytes(), marginal) == (want.tobytes(), want_marginal), amount


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


def test_best_response_equals_candidate_oracle(rng):
    # The piece search must return the very candidate the argmax over every
    # piece end and stationary point picks, on tied centralities (star,
    # l-star, balanced), budgets at the quality floor and past full seeding,
    # and rival qualities at epsilon and at K/c_q.
    draws = 0
    for g in oracle_graphs(rng, count=30, n_max=30):
        for _ in range(5):
            p = draw_params(rng)
            v = centrality(g, p)
            c_s, c_q = draw_costs(rng)
            floor, full = c_q * p.epsilon, c_s * g.n / 2.0
            budgets = (
                max(floor * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0)), floor - 0.5 * COND_TOL),
                float(rng.uniform(full, 1.2 * (full + c_q))),
                floor * (1.2 * (full + c_q) / floor) ** float(rng.random()),
            )
            for K in budgets:
                rivals = (p.epsilon, max(K / c_q, p.epsilon), float(np.exp(rng.uniform(-4.0, 3.0))))
                for q_opp in rivals:
                    args = (v, p, K, c_s, c_q, q_opp)
                    q, seeding, value = best_response_quality(*args)
                    q_ref, seeding_ref, value_ref = best_response_by_candidates(*args)
                    assert (q, value) == (q_ref, value_ref), (g.n, K, c_s, c_q, q_opp)
                    assert np.array_equal(seeding, seeding_ref)
                    draws += 1
    assert draws >= 2000


def test_best_response_bisection_equals_the_array_route(rng):
    # The bisection must stop at the index the argmax over the whole-array
    # comparison picks, so each reply is the same bytes: n from 2 to 500 (up
    # to 9 steps) on tied centralities (star, l-star, balanced) and random
    # graphs, budgets at the quality floor, past full seeding and
    # log-uniform between, rivals at epsilon and far above K/c_q, and c_s/c_q
    # over 12 decades.
    sizes = sorted({2, 3, 4, *np.geomspace(5, 500, 30).astype(int).tolist()})
    draws = 0
    for n in sizes:
        graphs = [generate("star", n), generate("balanced", n),
                  generate("random", n, seed=int(rng.integers(2**31)),
                           density=float(rng.uniform(0.01, 0.3)))]
        if n > 2:
            graphs.append(generate("l_star", n, l=int(rng.integers(2, n))))
        for g in graphs:
            for _ in range(3):
                p = draw_params(rng)
                v = centrality(g, p)
                c_q = 10.0 ** float(rng.uniform(-3.0, 3.0))
                c_s = c_q * 10.0 ** float(rng.uniform(-6.0, 6.0))
                floor, full = c_q * p.epsilon, c_s * n / 2.0
                budgets = (
                    max(floor * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0)), floor - 0.5 * COND_TOL),
                    float(rng.uniform(full, 1.2 * (full + c_q))),
                    *(floor * (1.2 * (full + c_q) / floor) ** float(u) for u in rng.random(2)),
                )
                for K in budgets:
                    rivals = (p.epsilon, max(K / c_q, p.epsilon) * 10.0 ** float(rng.uniform(1, 6)),
                              float(np.exp(rng.uniform(-4.0, 3.0))), max(K / c_q, p.epsilon))
                    for q_opp in rivals:
                        args = (v, p, K, c_s, c_q, q_opp)
                        got, want = best_response_quality(*args), best_response_by_arrays(*args)
                        assert [np.float64(x).tobytes() for x in got] == [
                            np.float64(x).tobytes() for x in want], (g.n, K, c_s, c_q, q_opp)
                        draws += 1
    assert draws >= 5000


def test_best_response_refuses_an_overflowing_kink(example_params):
    # The kinks q_0 = K/c_q and q_n bound every kink the bisection reads; an
    # overflow there is refused rather than answered with an infinite quality
    v = centrality(generate("star", 4), example_params)
    with pytest.raises(ValueError) as exc:
        best_response_quality(v, example_params, 2, 1, 5e-324, 1)
    assert str(exc.value) == "quality kink q_0 = K/c_q overflows (K=2.0, c_s=1.0, c_q=5e-324)"
    with pytest.raises(ValueError) as exc:
        best_response_quality(v, example_params, 2.0, 1e308, 1.0, 1.0)
    assert str(exc.value) == (
        "quality kink q_n = (K - c_s*4/2)/c_q overflows (K=2.0, c_s=1e+308, c_q=1.0)")


def test_symmetric_nash_refuses_a_budget_under_a_tiny_quality_floor(example_params):
    # c_q*epsilon = 1e-10 lies under COND_TOL; the floor keeps half of it, so
    # K = 0, which buys no positive quality, is refused, not divided by zero
    with pytest.raises(ValueError) as exc:
        symmetric_nash(generate("star", 6), example_params, 0.0, 1.0, 1e-4)
    assert str(exc.value) == "K_a must lie in [5e-11, inf], got 0.0"


def test_best_response_refuses_a_budget_under_a_tiny_quality_floor(example_params):
    # the same floor: a budget of 0 no longer returns quality epsilon
    v = centrality(generate("star", 6), example_params)
    with pytest.raises(ValueError) as exc:
        best_response_quality(v, example_params, 0.0, 1.0, 1e-4, 1.0)
    assert str(exc.value) == "K must lie in [5e-11, inf], got 0.0"


def test_best_response_refuses_a_negative_rival_under_a_tiny_epsilon():
    # at epsilon = 1e-12, epsilon - COND_TOL is negative; the floor epsilon/2
    # keeps the payoff's pole at q = -q_opp out of reach
    p = ModelParams(alpha=1.3, beta=1.2, delta=0.5, epsilon=1e-12)
    v = centrality(generate("star", 6), p)
    with pytest.raises(ValueError) as exc:
        best_response_quality(v, p, 1.0, 1.0, 1.0, -5e-10)
    assert str(exc.value) == "q_opp must lie in [5e-13, inf], got -5e-10"


def test_best_response_spends_whole_budget(rng):
    p = draw_params(rng)
    g = draw_graph(rng, 6)
    v = centrality(g, p)
    q, seeding, _ = best_response_quality(v, p, 2.0, 1.0, 1.0, 1.0)
    assert seeding.sum() + q == pytest.approx(2.0, abs=1e-9)


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
        for own, K in ((out.strategy_a, budget.K_a), (out.strategy_b, budget.K_b)):
            assert c_s * own.seeding_total + c_q * own.quality == pytest.approx(K, abs=1e-9)
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
        # one closed form: both routes give the same floats
        assert (out.utility_a, out.utility_b) == (rep.u_a, rep.u_b)


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


def test_solve_nash_tie_break_matches_oracle(example_params, monkeypatch):
    # Random draws never accept two candidates; budgets on a 1/8 grid at
    # the worked parameters land exactly on case boundaries, where several
    # candidates pass and the (k, l, case) tie-break decides: roots sit on
    # breakpoints, where only the neighbour enumeration in tie-break order
    # gives the oracle's answer, so it must run
    calls = []
    cases_near = _QualityCurve.cases_near

    def counted(self, lo, hi, slack):
        calls.append((lo, hi))
        return cases_near(self, lo, hi, slack)

    monkeypatch.setattr(_QualityCurve, "cases_near", counted)
    for kind, n in itertools.product(("balanced", "star", "l_star"), (4, 9)):
        g = generate(kind, n, l=3 if kind == "l_star" else None)
        for k_a, k_b in itertools.product(np.arange(1, 4 * n + 1) / 8.0, (0.125, 0.5, 1.0, 3.0)):
            _assert_matches_oracle(g, example_params, BudgetSpec(float(k_a), k_b, 1.0, 1.0))
    assert calls


def test_one_pair_finish_holds_away_from_breakpoints(monkeypatch):
    # With budgets drawn at random, the root never sits near a breakpoint,
    # so the pieces at the bracket midpoint give the answer and the
    # neighbour enumeration never runs.
    def refuse(self, lo, hi, slack):
        raise AssertionError(f"neighbour enumeration ran on [{lo}, {hi}]")

    monkeypatch.setattr(_QualityCurve, "cases_near", refuse)
    rng = np.random.default_rng(1512)
    cases_seen = set()
    for _ in range(600):
        n = int(rng.integers(2, 61))
        p = draw_params(rng)
        kind = ("random", "star", "l_star")[int(rng.integers(3 if n > 2 else 2))]
        l = int(rng.integers(2, n)) if kind == "l_star" else None
        g = draw_graph(rng, n) if kind == "random" else generate(kind, n, l=l)
        c_s, c_q = draw_costs(rng)
        k_a, k_b = np.exp(rng.uniform(math.log(0.01), math.log(c_s * n / 2.0), size=2))
        budget = BudgetSpec(float(k_a), float(k_b), c_s, c_q)
        out = solve_nash(g, p, budget)
        assert out.to_dict() == enumerate_nash(g, p, budget).to_dict()
        cases_seen.add(out.case_a)
    assert cases_seen == {CASE_INTERIOR, CASE_BOUNDARY}


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


def test_records_holding_arrays_compare_by_identity(example_params):
    # == on two fresh equal-valued results neither raises on their arrays nor
    # compares them: each record equals itself only, and hashes by identity
    g, p, budget = generate("star", 5), example_params, BudgetSpec(2.0, 1.0, 1.0, 1.0)
    v = centrality(g, p)
    fresh = {
        "CentralityVector": lambda: CentralityVector(values=v.values, order=v.order),
        "FirmStrategy": lambda: FirmStrategy(seeding=np.full(5, 0.25), quality=1.0),
        "NashOutcome": lambda: solve_nash(g, p, budget),
        "AllocationResult": lambda: allocate_budget(
            v=v, state=PresetState.neutral(5, 1.0, 1.0), firm="a", K=2.0, c_s=1.0, c_q=1.0, p=p),
        "PresetState": lambda: PresetState.neutral(5, 1.0, 1.0),
    }
    for name, make in fresh.items():
        x, y = make(), make()
        assert x == x and x != y and not x == y and hash(x) == hash(x), name
    # solve_nash's strategies own read-only arrays; replace builds through the public copy
    eq = solve_nash(g, p, budget)
    moved = dataclasses.replace(eq, strategy_a=dataclasses.replace(eq.strategy_a, quality=3.0))
    assert moved.strategy_a.quality == 3.0 and moved.strategy_b is eq.strategy_b
    assert np.array_equal(moved.strategy_a.seeding, eq.strategy_a.seeding)
    assert not np.shares_memory(moved.strategy_a.seeding, eq.strategy_a.seeding)
    strategies = (eq.strategy_a, eq.strategy_b, moved.strategy_a)
    assert not any(s.seeding.flags.writeable for s in strategies)


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
        spend = c_s * np.arange(n + 1) / 2.0
        curve = _QualityCurve.build(v.sorted_values, spend, K, c_q, p.epsilon)
        assert curve(w) == pytest.approx(q, rel=1e-9, abs=1e-12)


def test_saturated_case_reached(example_params):
    # budget big enough to fully seed everyone and still buy quality
    out = symmetric_nash(generate("balanced", 4), example_params, 5.0, 1.0, 1.0)
    assert out.case_a == CASE_SATURATED
    assert np.abs(out.strategy_a.seeding - 0.5).max() <= 1e-12
    assert out.strategy_a.quality == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["star", "balanced"])
@pytest.mark.parametrize("c_s", [1e-15, 2e-16, 1e-16, 1e-20, 1e-100, 5e-324])
def test_saturated_at_a_vanishing_seeding_cost(example_params, kind, c_s):
    # (K - c_s*n/2)/c_q rounds to K from c_s = 1e-16 down: a pinned quality
    # spends the budget by construction, whatever the rounding leaves
    out = symmetric_nash(generate(kind, 4), example_params, 2.0, c_s, 1.0)
    assert out.case_a == out.case_b == CASE_SATURATED
    for s in (out.strategy_a, out.strategy_b):
        assert s.seeding.tolist() == [0.5] * 4
        assert s.quality == pytest.approx((2.0 - c_s * 4 / 2) / 1.0, rel=1e-12)


def test_rejects_budget_below_quality_floor(example_params):
    g = generate("balanced", 4)
    with pytest.raises(ValueError, match=r"K_a must lie in \["):
        solve_nash(g, example_params, BudgetSpec(1e-9, 1.0, 1.0, 1.0))


def test_outcome_serialization(example_params):
    out = symmetric_nash(generate("star", 5), example_params, 1.0, 1.0, 1.0)
    d = out.to_dict()
    assert d["qualities"]["a"] == d["qualities"]["b"]
    assert len(d["seeding"]["a"]) == 5
    assert d["case"]["a"] in {CASE_INTERIOR, CASE_BOUNDARY, CASE_SATURATED}
    assert d["k"] == out.k and d["l"] == out.l
