"""netgame benchmark: three closed-loop workloads and an outside-in layer trace.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``worked-cli``, ``nash-sweep``, ``spread-query`` or ``all``.
One client runs ops back to back (closed loop) for S seconds.  With
``--trace 0`` the run reports the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` it runs each op untraced and
traced and reports the per-layer metrics.  Every op's output is
checked outside the timed region.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 1 means an output check failed; 2 means the
checkout holds no netgame sources to measure.
"""

from __future__ import annotations

import os

# One BLAS thread for every run and every child process, so both sides
# of a comparison are pinned alike and dense solves do not compete with
# the client for the machine's few cores.  Set before numpy is imported.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("worked-cli", "nash-sweep", "spread-query")
SETUP_REPEATS = 7
INTERPRETER_REPEATS = 10
# An op's speed factor is the median reference time of this many ops on
# either side of it and itself.
REFERENCE_HALF_WINDOW = 5


def import_program():
    """Import netgame from this checkout's ``src``, or exit 2 if it is absent."""
    package = SRC / "netgame" / "__init__.py"
    if not package.is_file():
        print(f"error: {package} not found; run from a netgame checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import netgame

    if Path(netgame.__file__).resolve() != package.resolve():
        print(f"error: imported netgame from {netgame.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)
    return netgame


@dataclass
class Pass:
    """One closed-loop pass: every op's duration and how each op failed."""

    durations: list = field(default_factory=list)  # seconds, indexed by op
    reference: list = field(default_factory=list)  # workload.reference_seconds() after each op
    ok: list = field(default_factory=list)  # indices of ops that passed their checks
    refused: list = field(default_factory=list)
    wrong: list = field(default_factory=list)

    @property
    def completed(self) -> list:
        return [self.durations[i] for i in self.ok]

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def failed(self) -> int:
        return len(self.refused) + len(self.wrong)


def speed_scaled(durations: list, reference: list, reference_ms: float) -> list:
    """Each duration rescaled from the machine's speed around it to the reference speed.

    A shared host runs the same code faster or slower from minute to
    minute.  Op ``i`` is multiplied by ``reference_ms`` over the median
    reference time of ops ``i - h .. i + h``, which cancels that drift
    and leaves the program's own cost.
    """
    h = REFERENCE_HALF_WINDOW
    return [
        d * 1e-3 * reference_ms / statistics.median(reference[max(0, i - h):i + h + 1])
        for i, d in enumerate(durations)
    ]


def measure(workload, ops, seconds: float, result: Pass, tracer=None) -> Pass:
    """Run ops back to back into ``result`` until ``seconds`` of wall time pass.

    ``ops`` yields (index, op) pairs and may continue across calls; each
    call runs at least one op.  Only ``workload.run`` is timed; after
    each op and its checks ``workload.reference_seconds()`` is timed.  An op fails
    when it raises or when ``workload.check`` returns reasons; a
    ``SolverError`` is a refusal, anything else is a wrong result.
    """
    from netgame.equilibrium import SolverError

    start = time.perf_counter()
    first = True
    while first or time.perf_counter() - start < seconds:
        first = False
        try:
            i, op = next(ops)
        except StopIteration:
            break
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = workload.run(op)
        except SolverError as exc:
            result.durations.append(time.perf_counter() - t0)
            result.refused.append((i, f"SolverError: {exc}"))
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            result.durations.append(time.perf_counter() - t0)
            result.wrong.append((i, f"{type(exc).__name__}: {exc}"))
        else:
            result.durations.append(time.perf_counter() - t0)
            reasons = workload.check(op, out)
            if reasons:
                result.wrong.append((i, "; ".join(reasons)))
            else:
                result.ok.append(i)
        result.reference.append(workload.reference_seconds())
    return result


def nearest_rank(samples: list, q: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end_metrics(run: Pass, workload, setup: list) -> tuple[dict, dict]:
    """End-to-end metrics, every time rescaled to the reference speed."""
    scaled = speed_scaled(run.durations, run.reference, workload.reference_ms)
    done = [scaled[i] for i in run.ok] or [math.nan]
    speed = workload.reference_ms / (1e3 * statistics.median(run.reference))
    values = {
        "ops_per_s": len(run.ok) / sum(scaled),
        "op_p50_ms": 1e3 * statistics.median(done),
        "op_p90_ms": 1e3 * nearest_rank(done, 0.9),
        "failed_ratio": run.failed / run.attempted,
        "peak_rss_mb": workload.peak_rss_mb(),
        "setup_s": speed * statistics.median(setup),
        "speed_factor": speed,
        "wall_ops_per_s": len(run.ok) / sum(run.durations),
        "wall_op_p50_ms": 1e3 * statistics.median(run.completed or [math.nan]),
    }
    samples = {
        "ops_per_s": len(run.completed),
        "op_p50_ms": len(run.completed),
        "op_p90_ms": len(run.completed),
        "failed_ratio": run.attempted,
        "peak_rss_mb": 1,
        "setup_s": len(setup),
        "speed_factor": len(run.reference),
        "wall_ops_per_s": len(run.completed),
        "wall_op_p50_ms": len(run.completed),
    }
    return values, samples


def layer_metrics(spans: list, plain: Pass, traced: Pass, interpreter: list) -> tuple[dict, dict]:
    ops = traced.attempted
    totals, covered = tracer.layer_totals(spans)
    values, samples = {}, {}
    for name, t in totals.items():
        values[f"{name}.self_ms"] = 1e3 * t["self_s"] / ops
        values[f"{name}.calls"] = t["calls"] / ops
        values[f"{name}.failed"] = t["raised"] / ops
        for suffix in ("self_ms", "calls", "failed"):
            samples[f"{name}.{suffix}"] = t["calls"]
    values["cli.import_ms"] = values.get("cli.import.self_ms", 0.0)
    samples["cli.import_ms"] = samples.get("cli.import.self_ms", 0)
    values["cli.interpreter_ms"] = 1e3 * statistics.median(interpreter) if interpreter else 0.0
    samples["cli.interpreter_ms"] = len(interpreter)
    # both passes run the same op sequence, so op i is the same input in each
    paired = sorted(set(plain.ok) & set(traced.ok))
    diffs = [traced.durations[i] - plain.durations[i] for i in paired] or [math.nan]
    values["trace.overhead_ms"] = 1e3 * statistics.median(diffs)
    samples["trace.overhead_ms"] = len(paired)
    values["trace.uncovered_share"] = 1.0 - covered / sum(traced.durations)
    samples["trace.uncovered_share"] = ops
    return values, samples


def measure_setup(name: str, seed: int, sizes: dict, where: Path) -> float:
    """Seconds one fresh interpreter takes to import netgame and set the workload up."""
    import workloads

    where.mkdir()
    argv = [sys.executable, str(BENCH_DIR / "workloads.py"), "setup", name, str(seed),
            str(where), json.dumps(sizes)]
    rc, out, _ = workloads.run_child(argv, workloads.child_env(), where)
    if rc != 0:
        raise RuntimeError(f"set-up child exited {rc}: {(where / 'child.stderr').read_text()}")
    return float(out)


def interpreter_start(workdir: Path) -> list:
    """Seconds for ``python -c pass``, the floor under every worked-cli op."""
    import workloads

    samples = []
    for _ in range(INTERPRETER_REPEATS):
        t0 = time.perf_counter()
        workloads.run_child([sys.executable, "-c", "pass"], workloads.child_env(), workdir)
        samples.append(time.perf_counter() - t0)
    return samples


@dataclass
class Outcome:
    values: dict
    samples: dict
    passes: list
    spans: list

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes)

    @property
    def correct(self) -> bool:
        return not any(p.wrong for p in self.passes)


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None,
                 setup_repeats: int = SETUP_REPEATS) -> Outcome:
    """Set up one workload, measure it, and return its metrics.

    ``sizes`` overrides the workload's input sizes (the smoke tests use
    tiny ones).
    """
    import workloads

    sizes = sizes or {}
    workdir = OUT_DIR / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[name](seed, workdir, **sizes)
        if not trace:
            # Set-up samples are spread over the run, one before each equal
            # slice of the timed loop, so their median does not rest on one
            # moment of a shared machine.
            run, setup = Pass(), []
            ops = enumerate(workload.ops(seed))
            for k in range(setup_repeats):
                setup.append(measure_setup(name, seed, sizes, workdir / f"setup{k}"))
                measure(workload, ops, seconds / setup_repeats, run)
            values, samples = end_to_end_metrics(run, workload, setup)
            return Outcome(values, samples, [run], [])
        # Each op runs twice back to back, untraced and traced, the order
        # alternating, so the overhead estimate pairs the same input at
        # nearly the same moment of a shared machine.
        plain, traced, tr = Pass(), Pass(), tracer.Tracer()
        ops = enumerate(workload.ops(seed))
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or not traced.durations:
            op = next(ops)
            for use_tracer in (False, True) if op[0] % 2 else (True, False):
                if use_tracer:
                    with workload.traced(tr):
                        measure(workload, iter([op]), 0.0, traced, tr)
                else:
                    measure(workload, iter([op]), 0.0, plain)
        interpreter = interpreter_start(workdir) if name == "worked-cli" else []
        values, samples = layer_metrics(tr.spans, plain, traced, interpreter)
        return Outcome(values, samples, [plain, traced], tr.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable: not a git checkout"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError) as exc:
        return f"unavailable: {exc}"
    return proc.stdout.strip()


def run_record(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "one client process, closed loop",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_lines": sum(len(f.read_text().splitlines()) for f in SRC.rglob("*.py")),
    }


def load_metric_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def report(args, outcome: Outcome) -> dict:
    """Print the summary, then the result object as the last line; return it."""
    spec = load_metric_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    # a layer the workload never calls reports 0
    metrics = {m["name"]: {"value": outcome.values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    record = run_record(args)
    record["samples"] = {m["name"]: outcome.samples.get(m["name"], 0) for m in wanted}
    print(f"== netgame benchmark: {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace} ==")
    print("run record: " + json.dumps(record))
    print(f"{'metric':<46} {'value':>14} {'unit':<9} samples")
    for name, m in metrics.items():
        print(f"{name:<46} {m['value']:>14.6g} {m['unit']:<9} {record['samples'][name]}")
    if not args.trace:
        # Not BENCHMARK.json metrics: the failure share (0 when every op
        # passes), the run's speed factor, and unscaled wall-clock figures.
        for name, unit in (("failed_ratio", "1"), ("speed_factor", "1"),
                           ("wall_ops_per_s", "1/s"), ("wall_op_p50_ms", "ms")):
            print(f"{name:<46} {outcome.values[name]:>14.6g} {unit:<9} "
                  f"{outcome.samples[name]}")
        done = outcome.samples["op_p90_ms"]
        print(f"op_p90_ms has {done - math.ceil(0.9 * done)} samples above it")
    for p in outcome.passes:
        for i, reason in p.refused + p.wrong:
            print(f"failed op {i}: {reason}")
    result = {"correct": outcome.correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(dump, "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result, "spans": outcome.spans}, fh)
    print(json.dumps(result))
    return result


def run_all(args) -> int:
    """Run every workload in its own process; merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode not in (0, 1):
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args)
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report(args, outcome)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
