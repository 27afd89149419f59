"""The benchmark's three workloads: inputs, one timed op, and untimed checks.

Every input comes from the workload seed through the benchmark's own
``numpy.random.default_rng``.  The program receives graphs only as graph
JSON files (spread-query), through ``SocialGraph.from_dict``
(nash-sweep) or as CLI arguments (worked-cli), and the benchmark calls
it only through the package namespace (``netgame.<function>``), which
the tracer rebinds.

Run as a script, ``workloads.py setup WORKLOAD SEED DIR SIZES_JSON``
performs one set-up in a fresh interpreter and prints its seconds; the
benchmark takes the median of several such children as ``setup_s``.
"""

from __future__ import annotations

import time

# The set-up clock starts before numpy and netgame are imported.
_T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import netgame  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60.0
CHECK_TOL = 1e-9


# ---------------------------------------------------------------- graphs


def random_edges(rng: np.random.Generator, n: int, influencers: int) -> list:
    """Each agent is swayed by ``influencers`` distinct others, weights in [0.1, 1]."""
    edges = []
    for i in range(n):
        others = rng.choice(n - 1, size=influencers, replace=False)
        others[others >= i] += 1
        w = rng.uniform(0.1, 1.0, size=influencers)
        w /= w.sum()
        edges += [[i, int(j), float(x)] for j, x in zip(others, w)]
    return edges


def star_edges(rng: np.random.Generator, n: int) -> list:
    """Star on randomly labelled agents: the hub sways everyone fully."""
    hub, *rest = (int(a) for a in rng.permutation(n))
    return [[i, hub, 1.0] for i in rest] + [[hub, j, 1.0 / (n - 1)] for j in rest]


def l_star_edges(rng: np.random.Generator, n: int, l: int) -> list:
    """l-star on randomly labelled agents: an l-hub clique everyone listens to."""
    perm = [int(a) for a in rng.permutation(n)]
    hubs, rest = perm[:l], perm[l:]
    edges = [[i, j, 1.0 / (l - 1)] for i in hubs for j in hubs if i != j]
    return edges + [[i, j, 1.0 / l] for i in rest for j in hubs]


def even_points(rng: np.random.Generator, dims: int = 1):
    """Endless points in [0, 1)^dims that cover the cube evenly at every length.

    Roberts' R_d sequence from a random start: point i is
    ``start + i * (phi^-1, ..., phi^-dims) mod 1``, where phi is the
    positive root of x^(dims+1) = x + 1.  Each coordinate is uniform, and
    any run of consecutive points spreads over the cube far more evenly
    than independent draws do.  Drawing an op's cost drivers this way
    keeps a run's mix of cheap and costly ops nearly the same from seed
    to seed, so runs differ by the machine, not by the inputs.
    """
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    step = phi ** -np.arange(1.0, dims + 1)
    point = rng.uniform(size=dims)
    while True:
        yield point
        point = (point + step) % 1.0


def cycled(rng: np.random.Generator, count: int):
    """Endless indices in ``range(count)``: each block of ``count`` is a permutation."""
    while True:
        yield from (int(k) for k in rng.permutation(count))


def _draw_params(rng: np.random.Generator) -> netgame.ModelParams:
    """Model parameters drawn as the test suite's ``draw_params`` draws them."""
    alpha = float(rng.uniform(1.0, 2.2))
    beta = float(rng.uniform((1.0 + alpha) / 2.0, alpha))
    delta = float(rng.uniform(0.2, 0.85))
    return netgame.ModelParams(alpha=alpha, beta=beta, delta=delta)


# ---------------------------------------------------------------- checks


def check_nash(n, p, budget, outcome, br_value_a, br_value_b, v_values) -> list[str]:
    """Budget residuals, seed range, utility sum and best-response gaps."""
    reasons = []
    lam = p.quality_weight(n)
    firms = (
        ("a", budget.K_a, outcome.strategy_a, outcome.strategy_b, br_value_a),
        ("b", budget.K_b, outcome.strategy_b, outcome.strategy_a, br_value_b),
    )
    for firm, K, own, other, br_value in firms:
        seeding = np.asarray(own.seeding)
        residual = abs(K - budget.c_s * float(seeding.sum()) - budget.c_q * own.quality)
        if not residual <= CHECK_TOL:
            reasons.append(f"firm {firm} budget residual {residual:.3g}")
        if not (seeding.min() >= 0.0 and seeding.max() <= 0.5):
            reasons.append(f"firm {firm} seeding outside [0, 1/2]")
        q, q_opp = own.quality, other.quality
        eq_value = float(v_values @ seeding) + lam * (q - q_opp) / (q + q_opp)
        gap = br_value - eq_value
        if not gap <= CHECK_TOL:
            reasons.append(f"firm {firm} best response beats equilibrium by {gap:.3g}")
    total = n / (1.0 - p.delta)
    u_sum = outcome.utility_a + outcome.utility_b
    if not abs(u_sum - total) <= CHECK_TOL * max(1.0, total):
        reasons.append(f"U_a + U_b = {u_sum!r}, expected n/(1-delta) = {total!r}")
    return reasons


def check_spread(n, p, centrality_total, u_sim, u_closed, horizon) -> list[str]:
    """Centrality total and simulated-vs-closed-form utilities."""
    reasons = []
    expected = 2.0 * p.beta * n / (2.0 * p.beta - p.delta)
    if not abs(centrality_total - expected) <= CHECK_TOL * expected:
        reasons.append(f"centrality total {centrality_total!r} != {expected!r}")
    scale = n / (1.0 - p.delta)
    tail = p.delta ** (horizon + 1) * scale
    # each of the horizon+1 discounted terms can carry rounding of order eps*scale
    slack = 64.0 * np.finfo(float).eps * (horizon + 1) * scale
    for firm, sim, closed in zip("ab", u_sim, u_closed):
        if not abs(sim - closed) <= tail + slack:
            reasons.append(
                f"U_{firm} simulated {sim!r} vs closed form {closed!r} beyond tail {tail:.3g}"
            )
    return reasons


_CHECKS_PASSED = re.compile(rb"(\d+)/(\d+) checks passed")


def check_cli(command: tuple, rc: int, out: bytes, reference: bytes) -> list[str]:
    """Exit code, reproduce verdicts and byte-identical repeat output."""
    reasons = []
    if rc != 0:
        reasons.append(f"`netgame {' '.join(command)}` exited {rc}")
    if command[0] == "reproduce":
        verdicts = _CHECKS_PASSED.findall(out)
        if not verdicts or any(ok != total for ok, total in verdicts):
            reasons.append("reproduce did not report all checks passed")
    if out != reference:
        reasons.append(f"`netgame {' '.join(command)}` output differs from its first output")
    return reasons


# ---------------------------------------------------------------- workloads


class InProcess:
    """A workload whose ops run inside the benchmark process."""

    # A round figure near reference_seconds()'s median on the README's
    # baseline machine, in ms; it only sets the scale of rescaled times.
    reference_ms = 5.0

    def reference_seconds(self) -> float:
        """Time a fixed pure-Python loop: how fast the machine runs the ops' code just now."""
        t0 = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i
        return time.perf_counter() - t0

    def traced(self, tr):
        """Context in which the ops' calls into netgame are spanned by ``tr``."""
        return tr.installed()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(frozen=True)
class NashOp:
    graph: int
    params: netgame.ModelParams
    budget: netgame.BudgetSpec


class NashSweep(InProcess):
    """solve_nash plus one best response per firm on a pool of graphs."""

    name = "nash-sweep"

    def __init__(self, seed: int, workdir: Path, n: int = 200, per_kind: int = 4):
        rng = np.random.default_rng([seed, 0])
        influencers = min(20, n - 1)
        edge_lists = [random_edges(rng, n, influencers) for _ in range(per_kind)]
        edge_lists += [star_edges(rng, n) for _ in range(per_kind)]
        edge_lists += [
            l_star_edges(rng, n, int(rng.integers(2, min(20, n - 1) + 1)))
            for _ in range(per_kind)
        ]
        self.n = n
        self.graphs = [netgame.SocialGraph.from_dict({"n": n, "edges": e}) for e in edge_lists]

    def ops(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        graphs = cycled(np.random.default_rng([seed, 2]), len(self.graphs))
        # K_a and K_b set how many candidate cases, and so how much work, an op has
        budget_draws = even_points(np.random.default_rng([seed, 3]), dims=2)
        for graph, u in zip(graphs, budget_draws):
            p = _draw_params(rng)
            c_s, c_q = (float(x) for x in rng.uniform(0.5, 2.0, size=2))
            # Up to the budget that seeds every agent fully, not beyond: a
            # saturated firm puts the rest into quality, the rival's best
            # quality can then sit at the floor epsilon, and solve_nash
            # finds no candidate there today (SolverError).
            lo, hi = math.log(0.01), math.log(c_s * self.n / 2.0)
            k_a, k_b = (math.exp(lo + x * (hi - lo)) for x in u)
            yield NashOp(graph, p, netgame.BudgetSpec(k_a, k_b, c_s, c_q))

    def run(self, op: NashOp):
        g, p, b = self.graphs[op.graph], op.params, op.budget
        outcome = netgame.solve_nash(g, p, b)
        v = netgame.centrality(g, p)
        _, _, br_a = netgame.best_response_quality(
            v, p, b.K_a, b.c_s, b.c_q, outcome.strategy_b.quality
        )
        _, _, br_b = netgame.best_response_quality(
            v, p, b.K_b, b.c_s, b.c_q, outcome.strategy_a.quality
        )
        return outcome, br_a, br_b, v.values

    def check(self, op: NashOp, result) -> list[str]:
        outcome, br_a, br_b, v_values = result
        return check_nash(self.n, op.params, op.budget, outcome, br_a, br_b, v_values)


@dataclass(frozen=True)
class SpreadOp:
    path: str
    params: netgame.ModelParams
    q_a: float
    q_b: float
    total_a: float
    total_b: float


class SpreadQuery(InProcess):
    """What ``netgame simulate --graph`` computes, without printing."""

    name = "spread-query"

    def __init__(self, seed: int, workdir: Path, n: int = 500, files: int = 8):
        rng = np.random.default_rng([seed, 0])
        self.n = n
        self.paths = []
        for k in range(files):
            path = workdir / f"graph{k}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"n": n, "edges": random_edges(rng, n, min(10, n - 1))}, fh)
            self.paths.append(str(path))

    def ops(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        files = cycled(np.random.default_rng([seed, 2]), len(self.paths))
        # delta sets the horizon, the main driver of an op's cost
        delta_draws = even_points(np.random.default_rng([seed, 3]))
        for k, (u,) in zip(files, delta_draws):
            path = self.paths[k]
            q_a, q_b = (float(x) for x in rng.uniform(0.1, 5.0, size=2))
            delta = 0.3 + 0.5 * float(u)
            total_a, total_b = (float(x) for x in rng.uniform(0.0, self.n / 4.0, size=2))
            p = netgame.ModelParams(alpha=1.0, beta=1.0, delta=delta)
            yield SpreadOp(path, p, q_a, q_b, total_a, total_b)

    def run(self, op: SpreadOp):
        p = op.params
        g = netgame.load_graph(op.path)
        v = netgame.centrality(g, p)
        s_a, _ = netgame.water_fill_seeding(v, op.total_a)
        s_b, _ = netgame.water_fill_seeding(v, op.total_b)
        sim = netgame.discounted_utilities(g, p, op.q_a, op.q_b, s_a, s_b, mode="simulated")
        closed = netgame.discounted_utilities(g, p, op.q_a, op.q_b, s_a, s_b, mode="closed_form")
        return v.total, sim, closed

    def check(self, op: SpreadOp, result) -> list[str]:
        total, sim, closed = result
        return check_spread(
            self.n, op.params, total, (sim.u_a, sim.u_b), (closed.u_a, closed.u_b), sim.horizon
        )


# The six README commands on the paper's 15-agent worked setting
# (alpha = beta = 1, delta = 1/2 are the CLI defaults).
WORKED_COMMANDS = (
    ("reproduce", "all"),
    ("nash", "--generate", "l_star", "--n", "15", "--l", "3", "--Ka", "2", "--Kb", "1"),
    ("centrality", "--generate", "star", "--n", "15"),
    ("simulate", "--generate", "balanced", "--n", "15", "--qa", "2", "--qb", "1",
     "--sa-total", "1", "--sb-total", "0.5"),
    ("allocate", "--generate", "star", "--n", "15", "--qa", "1", "--qb", "1",
     "--budget", "2", "--firm", "a"),
    ("extremal", "--n", "15", "--Ka", "2"),
)


def child_env() -> dict:
    """Environment for child interpreters: this checkout's ``src`` first, no logging."""
    env = dict(os.environ)
    env.pop("NETGAME_LOG", None)
    src = str(Path(netgame.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list, env: dict, cwd: Path) -> tuple[int, bytes, int]:
    """Run a child to completion; return exit code, stdout and its peak RSS in KiB."""
    with open(cwd / "child.stderr", "wb") as err, subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd
    ) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


class WorkedCli:
    """One fresh ``netgame`` process per op, cycling through the README commands."""

    name = "worked-cli"
    # A round figure near reference_seconds()'s median on the README's
    # baseline machine, in ms; it only sets the scale of rescaled times.
    reference_ms = 20.0

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self.reference: dict = {}
        self.peak_rss_kb = 0
        self.tracer = None

    def ops(self, seed: int):
        order = np.random.default_rng([seed, 1]).permutation(len(WORKED_COMMANDS))
        while True:
            for k in order:
                yield WORKED_COMMANDS[int(k)]

    def run(self, command: tuple):
        if self.tracer is None:
            argv = [sys.executable, "-m", "netgame.cli", *command]
            rc, out, rss = run_child(argv, self.env, self.workdir)
        else:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), *command]
            rc, raw, rss = run_child(argv, self.env, self.workdir)
            if rc != 0:
                raise RuntimeError(f"traced CLI driver exited {rc}")
            record = json.loads(raw)
            rc, out = record["rc"], record["out"].encode("utf-8")
            self._adopt(record["spans"])
        self.peak_rss_kb = max(self.peak_rss_kb, rss)
        return rc, out

    @contextlib.contextmanager
    def traced(self, tr):
        """Context in which ops run through the traced CLI driver."""
        self.tracer = tr
        try:
            yield
        finally:
            self.tracer = None

    def _adopt(self, spans: list) -> None:
        """Append a child's spans, re-indexing parents and tagging the op id."""
        base = len(self.tracer.spans)
        for name, start, end, parent, _, raised in spans:
            self.tracer.spans.append(
                [name, start, end, parent + base if parent >= 0 else -1, self.tracer.op, raised]
            )

    def reference_seconds(self) -> float:
        """Time a bare interpreter start: how fast the machine starts processes just now.

        ``python -S -c pass`` loads neither site-packages nor netgame, so
        no change to the program moves it; a pure-Python loop tracks
        process start-up on a shared host much less closely.
        """
        t0 = time.perf_counter()
        run_child([sys.executable, "-S", "-c", "pass"], self.env, self.workdir)
        return time.perf_counter() - t0

    def check(self, command: tuple, result) -> list[str]:
        rc, out = result
        reference = self.reference.setdefault(command, out)
        return check_cli(command, rc, out, reference)

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kb / 1024.0


WORKLOADS = {w.name: w for w in (WorkedCli, NashSweep, SpreadQuery)}


if __name__ == "__main__":
    _, mode, workload, seed, workdir, sizes = sys.argv
    if mode != "setup":
        sys.exit(f"unknown mode {mode!r}")
    WORKLOADS[workload](int(seed), Path(workdir), **json.loads(sizes))
    print(repr(time.perf_counter() - _T0))
