import json

import pytest

from netgame import ModelParams, centrality, generate, save_graph, solve_nash
from netgame.cli import (
    Check,
    EXIT_INVALID,
    EXIT_OK,
    example1_checks,
    example2_checks,
    main,
    render_checks,
)
from netgame.equilibrium import BudgetSpec


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_centrality_json_envelope(capsys):
    code, out, _ = _run(capsys, "centrality", "--generate", "star", "--n", "15")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == 2
    assert doc["command"] == "centrality"
    assert doc["config"]["graph"]["kind"] == "star"
    assert doc["result"]["sorted_values"][0] == pytest.approx(4.8, abs=1e-9)
    assert doc["result"]["closed_form"]["hub"] == pytest.approx(4.8, abs=1e-12)
    assert doc["result"]["total"] == pytest.approx(
        doc["result"]["expected_total"], abs=1e-9
    )


def test_output_is_deterministic(capsys):
    _, first, _ = _run(
        capsys, "centrality", "--generate", "random", "--n", "9", "--seed", "3"
    )
    _, second, _ = _run(
        capsys, "centrality", "--generate", "random", "--n", "9", "--seed", "3"
    )
    assert first == second


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, "centrality", "--generate", "balanced", "--n", "4", "--out", str(path)
    )
    assert code == EXIT_OK and out == ""
    doc = json.loads(path.read_text())
    assert doc["command"] == "centrality"


def test_graph_file_input(tmp_path, capsys):
    g = generate("l_star", 8, l=2)
    path = tmp_path / "g.json"
    save_graph(g, str(path))
    code, out, _ = _run(capsys, "centrality", "--graph", str(path))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["config"]["graph"] == {"source": "file", "path": str(path)}
    v = centrality(g, ModelParams(alpha=1.0, beta=1.0, delta=0.5))
    assert doc["result"]["values"] == pytest.approx(v.values.tolist())


def test_invalid_graph_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"n": 3, "edges": [[0, 1, 0.4], [1, 0, 1.0], [2, 0, 1.0]]})
    )
    code, _, err = _run(capsys, "centrality", "--graph", str(path))
    assert code == EXIT_INVALID
    assert "row 0 sum 0.4" in err


def test_missing_graph_source_exits_2(capsys):
    code, _, err = _run(capsys, "centrality")
    assert code == EXIT_INVALID
    assert "graph is required" in err


def test_both_graph_sources_exit_2(tmp_path, capsys):
    path = tmp_path / "g.json"
    save_graph(generate("balanced", 3), str(path))
    code, _, _ = _run(
        capsys, "centrality", "--graph", str(path), "--generate", "balanced", "--n", "3"
    )
    assert code == EXIT_INVALID


def test_invalid_params_exit_2(capsys):
    code, _, err = _run(
        capsys, "centrality", "--generate", "balanced", "--n", "4", "--delta", "1.5"
    )
    assert code == EXIT_INVALID
    assert "delta" in err


def test_simulate_csv_trajectory(capsys):
    code, out, _ = _run(
        capsys,
        "simulate", "--generate", "balanced", "--n", "3",
        "--qa", "2", "--qb", "1", "--T", "4", "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "t,y_1,y_2,y_3"
    assert len(lines) == 6
    assert lines[1].split(",")[0] == "0"
    # zero seeding: the starting tilts are all zero
    assert all(float(x) == 0.0 for x in lines[1].split(",")[1:])


def test_simulate_json_matches_closed_form(capsys):
    code, out, _ = _run(
        capsys,
        "simulate", "--generate", "star", "--n", "6",
        "--qa", "2", "--qb", "1", "--sa-total", "1.0", "--sb-total", "0.5",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    sim = doc["result"]["utilities"]
    closed = doc["result"]["utilities_closed_form"]
    assert sim["U_a"] == pytest.approx(closed["U_a"], rel=1e-8)
    assert sim["mode"] == "simulated" and closed["mode"] == "closed_form"
    assert len(doc["result"]["trajectory"]) == doc["config"]["T"] + 1


def test_nash_command_matches_library(capsys):
    code, out, _ = _run(
        capsys,
        "nash", "--generate", "l_star", "--n", "15", "--l", "3",
        "--Ka", "2", "--Kb", "1",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    g = generate("l_star", 15, l=3)
    outcome = solve_nash(
        g, ModelParams(alpha=1.0, beta=1.0, delta=0.5), BudgetSpec(2.0, 1.0, 1.0, 1.0)
    )
    assert doc["result"]["qualities"]["a"] == pytest.approx(outcome.strategy_a.quality)
    assert doc["result"]["seeding_totals"]["a"] == pytest.approx(
        outcome.strategy_a.seeding_total
    )
    assert doc["result"]["case"]["a"] == outcome.case_a


def test_nash_budget_below_floor_exits_2(capsys):
    code, _, _ = _run(
        capsys, "nash", "--generate", "balanced", "--n", "4", "--Ka", "0", "--Kb", "1"
    )
    assert code == EXIT_INVALID


@pytest.mark.parametrize(
    "flag, value, named",
    [
        ("--Ka", "nan", "must be finite"),
        ("--Kb", "inf", "must be finite"),
        ("--cs", "-inf", "must be finite"),
        ("--cq", "nan", "must be finite"),
        ("--alpha", "nan", "alpha=nan is not finite"),
        ("--delta", "inf", "delta=inf is not finite"),
        ("--epsilon", "nan", "epsilon=nan is not finite"),
    ],
)
def test_nash_non_finite_input_exits_2(capsys, flag, value, named):
    # rejected as invalid input (2), never reported as a solver failure (3)
    args = {"--Ka": "2", "--Kb": "1", flag: value}
    argv = ["nash", "--generate", "l_star", "--n", "15", "--l", "3"]
    code, out, err = _run(capsys, *argv, *(f"{k}={v}" for k, v in args.items()))
    assert code == EXIT_INVALID
    assert named in err and out == ""


def test_allocate_command(capsys):
    code, out, _ = _run(
        capsys,
        "allocate", "--generate", "l_star", "--n", "15", "--l", "3",
        "--qa", "1", "--qb", "1", "--budget", "2", "--firm", "a",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["result"]["thresholds"]["a"] == pytest.approx(2.5, abs=1e-12)
    assert doc["result"]["seeding_capacity"] == pytest.approx(1.5, abs=1e-12)
    alloc = doc["result"]["allocation"]
    assert alloc["seeding_total"] + alloc["quality_improvement"] == pytest.approx(2.0)
    assert alloc["seeding_total"] == pytest.approx(1.5, abs=1e-12)


def test_extremal_command(capsys):
    code, out, _ = _run(capsys, "extremal", "--n", "15", "--Ka", "2")
    assert code == EXIT_OK
    doc = json.loads(out)
    levels = doc["result"]["levels"]
    assert len(levels) == 15
    assert levels[0]["v_max"] == pytest.approx(4.8)
    assert doc["result"]["seeding_extremes"]["maximum"][
        "seeding_total"
    ] == pytest.approx(17.0 / 16.0)
    assert doc["result"]["budget_regime"]["regime"] == "star_over_balanced"


def test_reproduce_examples_pass(capsys):
    code, out, _ = _run(capsys, "reproduce", "all")
    assert code == EXIT_OK
    assert "== example1 ==" in out and "== example2 ==" in out
    assert "FAIL" not in out


def test_reproduce_single_example(capsys):
    code, out, _ = _run(capsys, "reproduce", "example2")
    assert code == EXIT_OK
    assert "example1" not in out
    assert "7/7 checks passed" in out


def test_render_checks_flags_mismatches():
    # negative control: a deliberately wrong expectation must fail the table
    checks = [Check("right", 1.0, 1.0, 1e-12), Check("wrong", 1.0, 2.0, 1e-12)]
    text, ok = render_checks(checks)
    assert not ok
    assert "FAIL" in text and "1/2 checks passed" in text


def test_check_equality_without_tolerance():
    assert Check("tag", "interior", "interior").passed
    assert not Check("tag", "interior", "saturated").passed


def test_example_check_counts():
    assert len(example1_checks()) == 22
    assert len(example2_checks()) == 7


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "netgame" in capsys.readouterr().out


def test_simulate_negative_horizon_exits_2(capsys):
    code, _, err = _run(
        capsys, "simulate", "--generate", "balanced", "--n", "4", "--qa", "2", "--qb", "1",
        "--sa-total", "1", "--sb-total", "0.5", "--T", "-3",
    )
    assert code == EXIT_INVALID
    assert "T must be nonnegative, got -3" in err


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"n": 2, "edges": [[0, 1, NaN], [1, 0, 1.0]]}', "non-finite weight at (0, 1)"),
        ('{"n": 2, "edges": [5]}', "edge entry 5 is not [i, j, weight]"),
        ('{"n": 2, "edges": [[0, 1, null], [1, 0, 1.0]]}', "is not [i, j, weight]"),
        ('{"n": 2, "edges": [[0, "one", 1.0], [1, 0, 1.0]]}', "is not [i, j, weight]"),
        ('{"n": -2, "edges": []}', "graph 'n' must be nonnegative, got -2"),
    ],
)
def test_malformed_graph_file_exits_2(tmp_path, capsys, text, named):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = _run(capsys, "centrality", "--graph", str(path))
    assert code == EXIT_INVALID
    assert named in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["simulate", "--qa", "nan", "--qb", "1"], "qualities must be finite"),
        (["simulate", "--qa", "2", "--qb", "1", "--sa-total", "nan"], "seeding amount nan is not finite"),
        (["allocate", "--qa", "1", "--qb", "1", "--budget", "nan", "--firm", "a"], "budget must be nonnegative and finite"),
        (["allocate", "--qa", "inf", "--qb", "1", "--budget", "2", "--firm", "a"], "qualities must be positive and finite"),
    ],
)
def test_non_finite_qualities_and_amounts_exit_2(capsys, argv, named):
    code, out, err = _run(capsys, *argv, "--generate", "star", "--n", "15")
    assert code == EXIT_INVALID
    assert named in err and out == ""


@pytest.mark.parametrize("n", ["1", "0", "-4"])
def test_extremal_below_two_agents_exits_2(capsys, n):
    code, out, err = _run(capsys, "extremal", "--n", n)
    assert code == EXIT_INVALID
    assert f"--n must be at least 2, got {n}" in err and out == ""


@pytest.mark.parametrize("flag, value", [("--Ka", "nan"), ("--Ka", "inf"), ("--cs", "nan")])
def test_extremal_non_finite_budget_or_cost_exits_2(capsys, flag, value):
    args = {"--Ka": "2", flag: value}
    code, out, err = _run(capsys, "extremal", "--n", "15", *(f"{k}={v}" for k, v in args.items()))
    assert code == EXIT_INVALID
    assert "must be finite" in err and out == ""


@pytest.mark.parametrize("command", ["centrality", "nash", "allocate", "extremal", "reproduce"])
def test_format_is_a_simulate_option_only(capsys, command):
    argv = {
        "centrality": ["--generate", "star", "--n", "5"],
        "nash": ["--generate", "star", "--n", "5", "--Ka", "2", "--Kb", "1"],
        "allocate": ["--generate", "star", "--n", "5", "--qa", "1", "--qb", "1",
                     "--budget", "2", "--firm", "a"],
        "extremal": ["--n", "5"],
        "reproduce": ["all"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, "--format", "csv"])
    assert exc.value.code == EXIT_INVALID
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err
