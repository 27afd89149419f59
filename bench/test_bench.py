"""The benchmark's own tests: tiny smoke runs, check rejection, failure counting.

Run with ``python -m pytest bench``.  Nothing here patches ``src/``.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import json
import math
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (str(ROOT / "src"), str(BENCH_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)

import netgame  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "worked-cli": {},
    "nash-sweep": {"n": 24, "per_kind": 1},
    "spread-query": {"n": 30, "files": 2},
}
# per-layer metrics each workload must exercise
EXERCISED = {
    "worked-cli": ("cli.import_ms", "cli.interpreter_ms", "cli.main.self_ms",
                   "trace.uncovered_share"),
    "nash-sweep": ("equilibrium.solve_nash.self_ms",
                   "equilibrium.best_response_quality.self_ms"),
    "spread-query": ("graphs.load_graph.self_ms", "graphs.require_valid.calls",
                     "equilibrium.water_fill_seeding.calls",
                     "dynamics.discounted_utilities.self_ms"),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_smoke_run_reports_every_metric_with_its_unit(name, trace, capsys):
    outcome = run.run_workload(name, seed=3, seconds=0.2, trace=bool(trace),
                               sizes=TINY[name], setup_repeats=1)
    args = types.SimpleNamespace(workload=name, seed=3, seconds=0.2, trace=trace)
    result = run.report(args, outcome)
    assert result["correct"] and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0.0, m["name"]
    if trace:
        for metric in EXERCISED[name]:
            assert result["metrics"][metric]["value"] > 0.0, metric
    printed = capsys.readouterr().out.splitlines()
    assert json.loads(printed[-1]) == result
    for m in wanted:
        assert any(line.startswith(m["name"] + " ") and m["unit"] in line for line in printed)


def test_spread_query_trace_counts_layer_calls():
    outcome = run.run_workload("spread-query", seed=4, seconds=0.3, trace=True,
                               sizes=TINY["spread-query"])
    assert outcome.values["centrality.centrality.calls"] == 3.0
    assert outcome.values["equilibrium.water_fill_seeding.calls"] == 2.0
    # one per step of the simulated horizon plus a handful around it
    assert outcome.values["graphs.require_valid.calls"] > 25.0


def test_tracer_wraps_cross_module_bindings_and_restores_them():
    home = sys.modules["netgame.graphs"]
    original = home.require_valid
    tr = tracer.Tracer()
    with tr.installed():
        assert home.require_valid is original
        assert sys.modules["netgame.centrality"].require_valid is not original
        assert netgame.centrality is not sys.modules["netgame.centrality"].centrality
        g = netgame.SocialGraph.from_dict({"n": 2, "edges": [[0, 1, 1.0], [1, 0, 1.0]]})
        netgame.centrality(g, netgame.ModelParams(1.0, 1.0, 0.5))
    assert sys.modules["netgame.centrality"].require_valid is original
    names = [s[tracer.NAME] for s in tr.spans]
    assert names == ["centrality.centrality", "graphs.require_valid"]
    totals, covered = tracer.layer_totals(tr.spans)
    outer, inner = tr.spans
    assert inner[tracer.PARENT] == 0
    assert covered == pytest.approx(outer[tracer.END] - outer[tracer.START])
    assert totals["centrality.centrality"]["self_s"] == pytest.approx(
        (outer[tracer.END] - outer[tracer.START]) - (inner[tracer.END] - inner[tracer.START])
    )


# ------------------------------------------------------------ wrong results


@pytest.fixture(scope="module")
def nash_case(tmp_path_factory):
    w = workloads.NashSweep(0, tmp_path_factory.mktemp("nash"), **TINY["nash-sweep"])
    for op in w.ops(0):
        try:
            result = w.run(op)
        except netgame.SolverError:
            continue
        assert w.check(op, result) == []
        return w, op, result


def test_check_nash_rejects_each_wrong_result(nash_case):
    w, op, (outcome, br_a, br_b, v) = nash_case
    a = outcome.strategy_a
    worse_quality = dataclasses.replace(a, quality=a.quality + 1e-3)
    over_seeded = dataclasses.replace(a, seeding=[0.75] + [0.0] * (w.n - 1))
    cases = {
        "budget residual": (dataclasses.replace(outcome, strategy_a=worse_quality), br_a, br_b),
        "outside [0, 1/2]": (dataclasses.replace(outcome, strategy_a=over_seeded), br_a, br_b),
        "U_a + U_b": (dataclasses.replace(outcome, utility_a=outcome.utility_a + 1e-3),
                      br_a, br_b),
        "best response beats": (outcome, br_a, br_b + 1e-6),
    }
    for expected, (out, bra, brb) in cases.items():
        reasons = w.check(op, (out, bra, brb, v))
        assert any(expected in r for r in reasons), (expected, reasons)


def test_check_spread_rejects_each_wrong_result(tmp_path):
    w = workloads.SpreadQuery(0, tmp_path, **TINY["spread-query"])
    op = next(w.ops(0))
    total, sim, closed = w.run(op)
    assert w.check(op, (total, sim, closed)) == []
    assert "centrality total" in w.check(op, (total * (1 + 1e-6), sim, closed))[0]
    drifted = dataclasses.replace(sim, u_b=sim.u_b + 1e-6)
    assert "U_b simulated" in w.check(op, (total, drifted, closed))[0]


def test_check_cli_rejects_each_wrong_result():
    nash, reproduce = workloads.WORKED_COMMANDS[1], workloads.WORKED_COMMANDS[0]
    out = b'{"schema": 1}\n'
    assert workloads.check_cli(nash, 0, out, out) == []
    assert "exited 3" in workloads.check_cli(nash, 3, out, out)[0]
    assert "differs" in workloads.check_cli(nash, 0, out, b'{"schema": 2}\n')[0]
    failing = b"== example1 ==\n21/22 checks passed\n"
    assert "all checks passed" in workloads.check_cli(reproduce, 0, failing, failing)[0]
    assert "all checks passed" in workloads.check_cli(reproduce, 0, b"", b"")[0]


# ------------------------------------------------------------ failure counting


class _RefusingWorkload(workloads.InProcess):
    """Op 0 raises SolverError, op 1 succeeds, op 2 fails its check."""

    def run(self, op):
        if op == 0:
            raise netgame.SolverError("no equilibrium candidate")
        return op

    def check(self, op, result):
        return ["wrong"] if result == 2 else []

    def peak_rss_mb(self):
        return 1.0


def test_solver_error_op_counts_in_failed_ratio():
    passed = run.measure(_RefusingWorkload(), enumerate([0, 1]), 60.0, run.Pass())
    values, samples = run.end_to_end_metrics(passed, _RefusingWorkload(), [0.1])
    assert values["failed_ratio"] == 0.5 and samples["failed_ratio"] == 2
    assert [i for i, _ in passed.refused] == [0] and passed.ok == [1]
    outcome = run.Outcome(values, samples, [passed], [])
    assert outcome.correct and outcome.failed == 1
    wrong = run.measure(_RefusingWorkload(), enumerate([0, 1, 2]), 60.0, run.Pass())
    assert not run.Outcome({}, {}, [wrong], []).correct


def test_solver_error_corner_op_is_counted_as_failed(tmp_path):
    # Firm a can seed every agent fully and buy quality with the rest;
    # solve_nash finds no candidate there today, a corner nash-sweep's
    # draws stay out of.
    w = workloads.NashSweep(0, tmp_path, n=200, per_kind=1)
    p = netgame.ModelParams(alpha=2.041607305619526, beta=1.8911163657105943,
                            delta=0.6546487928523936)
    corner = netgame.BudgetSpec(213.21448723292875, 0.6321590614788306,
                                1.9209290177110465, 1.9059294075244866)
    fair = dataclasses.replace(corner, K_a=2.0, K_b=1.0)
    ops = [workloads.NashOp(1, p, corner), workloads.NashOp(1, p, fair)]
    passed = run.measure(w, enumerate(ops), 60.0, run.Pass())
    assert [i for i, _ in passed.refused] == [0] and passed.ok == [1]
    values, _ = run.end_to_end_metrics(passed, w, [0.1])
    assert values["failed_ratio"] == 0.5


def test_nash_budgets_stay_below_saturated_seeding(tmp_path):
    w = workloads.NashSweep(5, tmp_path, **TINY["nash-sweep"])
    for op in itertools.islice(w.ops(5), 500):
        b = op.budget
        assert 0.01 * (1 - 1e-12) <= min(b.K_a, b.K_b)
        assert max(b.K_a, b.K_b) <= b.c_s * w.n / 2.0 * (1 + 1e-12)


@pytest.mark.parametrize("dims", [1, 2])
def test_even_points_cover_every_cell_at_every_length(dims):
    # Of 400 independent draws a cell of the 4**dims grid would often
    # miss its share by 10 or more; these stay within 3 per dimension.
    points = workloads.even_points(workloads.np.random.default_rng(0), dims)
    grid = list(itertools.product(range(4), repeat=dims))
    cells = collections.Counter()
    for count in range(1, 401):
        u = next(points)
        assert ((0.0 <= u) & (u < 1.0)).all()
        cells[tuple((4 * u).astype(int))] += 1
        if count >= len(grid):
            expected = count / len(grid)
            assert all(abs(cells[c] - expected) <= 3 * dims for c in grid), (count, cells)


def test_speed_scaling_cancels_machine_speed():
    durations = [0.1, 0.2, 0.3]
    assert run.speed_scaled(durations, [0.005] * 3, 5.0) == pytest.approx(durations)
    assert run.speed_scaled(durations, [0.01] * 3, 5.0) == pytest.approx([0.05, 0.1, 0.15])


def test_ops_are_fixed_by_the_seed(tmp_path):
    first = workloads.NashSweep(7, tmp_path, **TINY["nash-sweep"])
    second = workloads.NashSweep(7, tmp_path, **TINY["nash-sweep"])
    assert list(itertools.islice(first.ops(7), 5)) == list(itertools.islice(second.ops(7), 5))
    assert all(
        (a.weights == b.weights).all() for a, b in zip(first.graphs, second.graphs)
    )
