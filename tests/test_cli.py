import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netgame.cli
from netgame import (
    ModelParams,
    PresetState,
    centrality,
    generate,
    max_centrality_sequence,
    save_graph,
    seeding_capacity,
    solve_nash,
    star_centralities,
    symmetric_seeding_extremes,
    thresholds,
)
from netgame.cli import (
    Check,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_SOLVER,
    example1_checks,
    example2_checks,
    main,
    render_checks,
)
from netgame.equilibrium import BudgetSpec

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refuses a malformed flag, a non-finite float too
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_centrality_json_envelope(capsys):
    code, out, _ = _run(capsys, "centrality", "--generate", "star", "--n", "15")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == 3
    assert doc["command"] == "centrality"
    assert doc["config"]["graph"]["kind"] == "star"
    p = ModelParams(alpha=1.0, beta=1.0, delta=0.5)
    v = centrality(generate("star", 15), p)
    assert doc["result"]["sorted_values"] == v.sorted_values.tolist()
    assert doc["result"]["closed_form"]["hub"] == star_centralities(15, p)[0]
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


def test_nash_at_a_vanishing_seeding_cost_exits_0(capsys):
    # K - c_s*n/2 rounds to K here; every agent is seeded fully all the same
    code, out, err = _run(
        capsys, "nash", "--generate", "star", "--n", "4", "--Ka", "2", "--Kb", "2", "--cs", "1e-16"
    )
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["result"]["case"] == {"a": "saturated", "b": "saturated"}


def test_nash_budget_under_a_tiny_quality_floor_exits_2(capsys):
    # c_q*epsilon = 1e-10 lies under COND_TOL = 1e-9; the floor keeps half of
    # it, so a budget of 0 is refused as input, not divided by zero (exit 3)
    code, out, err = _run(
        capsys, "nash", "--generate", "star", "--n", "6", "--Ka", "0", "--Kb", "0", "--cq", "1e-4"
    )
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "error: K_a must lie in [5e-11, inf], got 0.0\n"


def test_nash_floor_corner_exits_3_naming_the_floored_firm(capsys):
    # firm a seeds all 15 agents and buys quality with the rest; firm b's
    # best quality is the floor epsilon, a corner solve_nash refuses
    code, out, err = _run(
        capsys, "nash", "--generate", "star", "--n", "15", "--Ka", "20", "--Kb", "0.01"
    )
    assert code == EXIT_SOLVER and out == ""
    assert "firm b's equilibrium quality sits at the floor epsilon=1e-06" in err


def test_allocate_command(capsys):
    code, out, _ = _run(
        capsys,
        "allocate", "--generate", "l_star", "--n", "15", "--l", "3",
        "--qa", "1", "--qb", "1", "--budget", "2", "--firm", "a",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    p, n = ModelParams(alpha=1.0, beta=1.0, delta=0.5), 15
    v = centrality(generate("l_star", n, l=3), p)
    capacity = seeding_capacity(v, PresetState.neutral(n, 1.0, 1.0), "a", p, 1.0, 1.0)
    assert doc["result"]["thresholds"]["a"] == thresholds(1.0, 1.0, p, n, 1.0, 1.0)[0]
    assert doc["result"]["seeding_capacity"] == capacity
    alloc = doc["result"]["allocation"]
    assert alloc["seeding_total"] + alloc["quality_improvement"] == pytest.approx(2.0)
    assert alloc["seeding_total"] == capacity


def test_extremal_command(capsys):
    code, out, _ = _run(capsys, "extremal", "--n", "15", "--Ka", "2")
    assert code == EXIT_OK
    doc = json.loads(out)
    levels = doc["result"]["levels"]
    assert len(levels) == 15
    p = ModelParams(alpha=1.0, beta=1.0, delta=0.5)
    assert [level["v_max"] for level in levels] == max_centrality_sequence(15, p).tolist()
    maximum = symmetric_seeding_extremes(15, p, 2.0, 1.0, 1.0).maximum
    assert doc["result"]["seeding_extremes"]["maximum"]["seeding_total"] == maximum.seeding_total
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


# the checks reproduce holds looser than the criteria's 1e-12: criterion 2 holds the
# series-solved star and three-star hubs at 1e-9, and 1.08 is printed to two decimals
LOOSER = {"star_hub_centrality": 1e-9, "three_star_hub": 1e-9, "star_peripheral_printed": 1e-2}


# the checks reproduce holds exactly: labels, witnesses, their verdicts and a count
EXACT = {"star_case", "max_witness", "max_witness_verified", "min_witness", "min_witness_verified",
         "budget_regime", "capacity_bound_k"}
REPRODUCED = {c.name: c for c in example1_checks() + example2_checks()}


@pytest.mark.parametrize("name", REPRODUCED)
def test_reproduce_holds_the_criteria_bounds(name):
    check = REPRODUCED[name]
    assert check.tol == (None if name in EXACT else LOOSER.get(name, 1e-12))
    assert check.passed, check


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "netgame" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"n": 2, "edges": [[0, 1, NaN], [1, 0, 1.0]]}', "non-finite weight at (0, 1)"),
        ('{"n": 2, "edges": [5]}', "edge entry 5 is not [i, j, weight]"),
        ('{"n": 2, "edges": [[0, 1, null], [1, 0, 1.0]]}', "is not [i, j, weight]"),
        ('{"n": 2, "edges": [[0, "one", 1.0], [1, 0, 1.0]]}', "is not [i, j, weight]"),
        ('{"n": -2, "edges": []}', "graph 'n' must be nonnegative, got -2"),
        ('{"n": 2.7, "edges": [[0, 1, 1.0], [1, 0, 1.0]]}', "graph 'n' must be an integer, got 2.7"),
        ('{"n": true, "edges": [[0, 1, 1.0], [1, 0, 1.0]]}', "graph 'n' must be an integer, got True"),
        # integers beyond the float range exited 3 with an OverflowError
        pytest.param('{"n": 2, "edges": [[0, 1, 1%s], [1, 0, 1.0]]}' % ("0" * 400),
                     "is not [i, j, weight]", id="weight-beyond-float-range"),
        pytest.param('{"n": 2, "edges": [[1%s, 1, 1.0], [1, 0, 1.0]]}' % ("0" * 400),
                     "is not [i, j, weight]", id="index-beyond-float-range"),
        # int() truncated 0.5 to agent 0
        pytest.param('{"n": 2, "edges": [[0.5, 1, 1.0], [1, 0, 1.0]]}',
                     "edge entry [0.5, 1, 1.0] is not [i, j, weight]", id="fractional-index"),
        # numpy read true as 1 and false as 0
        pytest.param('{"n": 2, "edges": [[true, 0, 1.0], [0, 1, 1.0]]}',
                     "edge entry [True, 0, 1.0] is not [i, j, weight]", id="bool-index"),
        pytest.param('{"n": 2, "edges": [[true, false, true], [false, true, true]]}',
                     "edge entry [True, False, True] is not [i, j, weight]", id="bool-entries"),
        # json's message named no file, and deep nesting exited 1 with a RecursionError
        pytest.param("", "error: graph file {path} is not a JSON graph: Expecting value",
                     id="empty"),
        pytest.param(b"\xff\xfe\x00\x81",
                     "error: graph file {path} is not a JSON graph: 'utf-8' codec can't decode",
                     id="binary"),
        pytest.param("[" * 100_000, "error: graph file {path} is not a JSON graph: maximum "
                     "recursion depth exceeded", id="nested-100000-deep"),
    ],
)
def test_malformed_graph_file_exits_2(tmp_path, capsys, text, named):
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, out, err = _run(capsys, "centrality", "--graph", str(path))
    assert code == EXIT_INVALID and out == ""
    assert err.count("error:") == 1 and named.format(path=path) in err


@pytest.mark.parametrize("builder", ["load_graph", "generate"])
def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, builder):
    # numpy's allocation failure escaped main as a traceback with exit 1
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")

    monkeypatch.setattr(netgame.cli, builder, refuse)
    path = tmp_path / "g.json"
    path.write_text('{"n": 100000000000, "edges": []}')
    sources = {"load_graph": ["--graph", str(path)],
               "generate": ["--generate", "balanced", "--n", "100000000000"]}
    code, out, err = _run(capsys, "centrality", *sources[builder])
    assert code == EXIT_INVALID and out == ""
    assert err.startswith("error: Unable to allocate 745. GiB")


# each refused command line and the start of its one error line: the whole line where it
# ends in a newline
REFUSED = [
    ("centrality", "a graph is required: pass --graph PATH or --generate KIND --n N\n"),
    # an unseeded random graph drew a new graph, and so printed a new report, on each run
    ("centrality --generate random --n 5", "--generate random requires --seed\n"),
    ("centrality --graph g.json --generate balanced --n 3",
     "pass either --graph or --generate, not both\n"),
    ("centrality --generate balanced --n 4 --delta 1.5",
     "invalid model parameters: delta=1.5 outside (0, 1)\n"),
    ("nash --generate balanced --n 4 --Ka 0 --Kb 1", "K_a must lie in ["),
    ("simulate --generate balanced --n 4 --qa 2 --qb 1 --sa-total 1 --sb-total 0.5 --T -3",
     "T must be nonnegative, got -3\n"),
    *[(f"extremal --n {n}", f"n must be at least 2, got {n}\n") for n in (1, 0, -4)],
    # an l above n - 1: centrality refused it from the closed form, and nash ignored it
    *[(f"{c} --generate star --n 5 --l 6", "l must be at most n - 1 = 4, got 6\n")
      for c in ("centrality", "nash --Ka 2 --Kb 1")],
]


@pytest.mark.parametrize("argv, error", REFUSED, ids=[argv for argv, _ in REFUSED])
def test_refused_input_exits_2_with_one_error_line(capsys, argv, error):
    code, out, err = _run(capsys, *argv.split())
    assert (code, out) == (EXIT_INVALID, "") and err.startswith(f"error: {error}"), err
    assert err.count("\n") == 1


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


def _own_process(*args: str, code: str | None = None) -> subprocess.CompletedProcess:
    """Run netgame as its own process, with this checkout's package first on the path."""
    env = {k: v for k, v in os.environ.items() if k != "NETGAME_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    argv = ["-c", code, *args] if code else ["-m", "netgame.cli", *args]
    return subprocess.run([sys.executable, *argv], capture_output=True, env=env, timeout=120)


@pytest.mark.parametrize(
    "argv",
    [
        ("reproduce", "all"),
        ("nash", "--generate", "l_star", "--n", "15", "--l", "3", "--Ka", "2", "--Kb", "1"),
        ("nash", "--generate", "star", "--n", "15", "--Ka", "nan", "--Kb", "1"),
    ],
)
def test_own_process_prints_what_in_process_main_prints(capsys, argv):
    code, out, err = _run(capsys, *argv)
    proc = _own_process(*argv)
    assert proc.returncode == code
    assert proc.stdout == out.encode() and proc.stderr == err.encode()


def test_only_an_own_process_freezes_the_collector(capsys):
    before = gc.get_freeze_count()
    assert main(["reproduce", "all"]) == EXIT_OK
    capsys.readouterr()
    assert gc.get_freeze_count() == before
    # the console script calls main() with no argv; it then freezes the import-time objects
    script = (
        "import gc, sys\n"
        "from netgame.cli import main\n"
        "rc = main()\n"
        "print(rc, gc.get_freeze_count() > 0, file=sys.stderr)\n"
    )
    proc = _own_process("reproduce", "example2", code=script)
    assert proc.returncode == 0 and proc.stderr == b"0 True\n"


_SUBCOMMANDS = [
    ("reproduce", "all"),
    ("nash", "--generate", "l_star", "--n", "15", "--l", "3", "--Ka", "2", "--Kb", "1"),
    ("centrality", "--generate", "star", "--n", "15"),
    ("simulate", "--generate", "balanced", "--n", "15", "--qa", "2", "--qb", "1",
     "--sa-total", "1", "--sb-total", "0.5"),
    ("allocate", "--generate", "star", "--n", "15", "--qa", "1", "--qb", "1",
     "--budget", "2", "--firm", "a"),
    ("extremal", "--n", "15", "--Ka", "2"),
    ("nash", "--generate", "star", "--n", "1", "--Ka", "2", "--Kb", "1"),
]


@pytest.mark.parametrize("argv", _SUBCOMMANDS)
def test_a_process_without_netgame_log_never_imports_logging(argv):
    script = (
        "import sys\n"
        "from netgame.cli import main\n"
        "rc = main()\n"
        "print(rc, 'logging' in sys.modules, file=sys.stderr)\n"
    )
    proc = _own_process(*argv, code=script)
    assert proc.stderr.endswith(b" False\n")


def test_netgame_log_debug_writes_the_traceback_of_refused_input():
    script = (
        "import os, sys\n"
        "os.environ['NETGAME_LOG'] = 'DEBUG'\n"
        "from netgame.cli import main\n"
        "sys.exit(main())\n"
    )
    proc = _own_process("nash", "--generate", "star", "--n", "1", "--Ka", "2", "--Kb", "1",
                        code=script)
    assert proc.returncode == EXIT_INVALID
    err = proc.stderr.decode()
    assert err.startswith("DEBUG netgame.cli: invalid input\nTraceback (most recent call last):\n")
    message = "n must be at least 2, got 1"
    assert err.endswith(f"\nValueError: {message}\nerror: {message}\n")
