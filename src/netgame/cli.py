"""Command-line interface.

Subcommands mirror the library: ``centrality``, ``simulate``, ``nash``,
``allocate``, ``extremal`` and ``reproduce``.  JSON reports carry a
schema version and the resolved configuration, floats are written as
their shortest round-tripping repr (in ``simulate --format csv`` too),
and identical inputs give byte-identical output.  Set NETGAME_LOG
(e.g. DEBUG) for diagnostics on stderr.

Exit codes: 0 success, 1 failed reproduce checks, 2 invalid input or
usage, 3 solver failure.
"""

from __future__ import annotations

import argparse
import gc
import logging
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .allocation import (
    PresetState,
    allocate_budget,
    max_seeding_capacity_bound,
    seeding_capacity,
    thresholds,
)
from .centrality import centrality, closed_form_centrality, l_star_centralities
from .dynamics import (
    discounted_utilities,
    horizon_for_tolerance,
    simulate,
    simulated_report,
)
from .equilibrium import (
    BudgetSpec,
    SolverError,
    solve_nash,
    symmetric_nash,
    water_fill_seeding,
)
from .extremal import (
    budget_regime,
    max_centrality_sequence,
    min_centrality_sequence,
    symmetric_seeding_extremes,
)
from .graphs import KINDS, GraphValidationError, generate, load_graph
from .params import ModelParams
from .reporting import to_json

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_SOLVER = 3

log = logging.getLogger("netgame.cli")


def _add_graph_args(sub: argparse.ArgumentParser) -> None:
    grp = sub.add_argument_group("graph source")
    grp.add_argument("--graph", metavar="PATH", help="graph file, .json or .npz")
    grp.add_argument("--generate", metavar="KIND", choices=KINDS, help="named generator")
    grp.add_argument("--n", type=int, help="number of agents (with --generate)")
    grp.add_argument("--l", type=int, help="hub count for l_star")
    grp.add_argument("--seed", type=int, help="RNG seed for --generate random")


def _add_param_args(sub: argparse.ArgumentParser) -> None:
    grp = sub.add_argument_group("model parameters")
    grp.add_argument("--alpha", type=float, default=1.0)
    grp.add_argument("--beta", type=float, default=1.0)
    grp.add_argument("--delta", type=float, default=0.5)
    grp.add_argument("--epsilon", type=float, default=1e-6)


def _add_cost_args(sub: argparse.ArgumentParser) -> None:
    grp = sub.add_argument_group("costs")
    grp.add_argument("--cs", type=float, default=1.0, help="cost per seeding unit")
    grp.add_argument("--cq", type=float, default=1.0, help="cost per quality unit")


def _add_output_args(sub: argparse.ArgumentParser) -> None:
    grp = sub.add_argument_group("output")
    grp.add_argument("--out", metavar="PATH", help="write output here instead of stdout")


def _params(args) -> ModelParams:
    return ModelParams(
        alpha=args.alpha, beta=args.beta, delta=args.delta, epsilon=args.epsilon
    )


def _resolve_graph(args):
    if args.graph and args.generate:
        raise ValueError("pass either --graph or --generate, not both")
    if args.graph:
        return load_graph(args.graph), {"source": "file", "path": args.graph}
    if args.generate:
        if args.n is None:
            raise ValueError("--generate requires --n")
        g = generate(args.generate, args.n, l=args.l, seed=args.seed)
        return g, {
            "source": "generate",
            "kind": args.generate,
            "n": args.n,
            "l": args.l,
            "seed": args.seed,
        }
    raise ValueError("a graph is required: pass --graph PATH or --generate KIND --n N")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(command: str, config: dict, result: dict, out_path: str | None) -> None:
    doc = {"schema": SCHEMA_VERSION, "command": command, "config": config, "result": result}
    _emit(to_json(doc) + "\n", out_path)


def cmd_centrality(args) -> int:
    p = _params(args)
    g, graph_cfg = _resolve_graph(args)
    v = centrality(g, p)
    result = {
        "values": v.values,
        "order": v.order,
        "sorted_values": v.sorted_values,
        "total": v.total,
        "expected_total": 2.0 * p.beta * g.n / (2.0 * p.beta - p.delta),
    }
    if graph_cfg.get("kind") in ("balanced", "star", "l_star"):
        result["closed_form"] = closed_form_centrality(
            graph_cfg["kind"], g.n, p, l=graph_cfg.get("l")
        )
    _report("centrality", {"graph": graph_cfg, "params": asdict(p)}, result, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    p = _params(args)
    g, graph_cfg = _resolve_graph(args)
    v = centrality(g, p)
    s_a, _ = water_fill_seeding(v, args.sa_total)
    s_b, _ = water_fill_seeding(v, args.sb_total)
    T = args.T if args.T is not None else horizon_for_tolerance(p, g.n)
    traj = simulate(g, p, args.qa, args.qb, s_a - s_b, T)
    config = {
        "graph": graph_cfg,
        "params": asdict(p),
        "q_a": args.qa,
        "q_b": args.qb,
        "sa_total": args.sa_total,
        "sb_total": args.sb_total,
        "T": T,
    }
    if args.format == "csv":
        lines = ["t," + ",".join(f"y_{i + 1}" for i in range(g.n))]
        for t, row in enumerate(traj):
            lines.append(str(t) + "," + ",".join(map(repr, row.tolist())))
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    report_closed = discounted_utilities(
        g, p, args.qa, args.qb, s_a, s_b, mode="closed_form"
    )
    # the simulated utilities sum this trajectory, so the spread runs once
    report_sim = simulated_report(report_closed, traj, p)
    result = {
        "trajectory": traj,
        "utilities": report_sim.to_dict(),
        "utilities_closed_form": report_closed.to_dict(),
    }
    _report("simulate", config, result, args.out)
    return EXIT_OK


def cmd_nash(args) -> int:
    p = _params(args)
    g, graph_cfg = _resolve_graph(args)
    budget = BudgetSpec(K_a=args.Ka, K_b=args.Kb, c_s=args.cs, c_q=args.cq)
    outcome = solve_nash(g, p, budget)
    config = {"graph": graph_cfg, "params": asdict(p), **asdict(budget)}
    _report("nash", config, outcome.to_dict(), args.out)
    return EXIT_OK


def cmd_allocate(args) -> int:
    p = _params(args)
    g, graph_cfg = _resolve_graph(args)
    v = centrality(g, p)
    state = PresetState.neutral(g.n, args.qa, args.qb)
    result_alloc = allocate_budget(v, state, args.firm, args.budget, args.cs, args.cq, p)
    v_c_a, v_c_b = thresholds(args.qa, args.qb, p, g.n, args.cs, args.cq)
    result = {
        "thresholds": {"a": v_c_a, "b": v_c_b},
        "allocation": result_alloc.to_dict(),
        "seeding_capacity": seeding_capacity(v, state, args.firm, p, args.cs, args.cq),
    }
    config = {
        "graph": graph_cfg,
        "params": asdict(p),
        "q_a": args.qa,
        "q_b": args.qb,
        "budget": args.budget,
        "firm": args.firm,
        "c_s": args.cs,
        "c_q": args.cq,
    }
    _report("allocate", config, result, args.out)
    return EXIT_OK


def cmd_extremal(args) -> int:
    p = _params(args)
    if args.n < 2:
        raise ValueError(f"--n must be at least 2, got {args.n}")
    v_max = max_centrality_sequence(args.n, p).tolist()
    v_min = min_centrality_sequence(args.n, p).tolist()
    levels = [{"l": l + 1, "v_max": v_max[l], "v_min": v_min[l]} for l in range(args.n)]
    result: dict = {"levels": levels}
    config: dict = {"n": args.n, "params": asdict(p)}
    if args.Ka is not None:
        result["seeding_extremes"] = symmetric_seeding_extremes(
            args.n, p, args.Ka, args.cs, args.cq
        ).to_dict()
        result["budget_regime"] = budget_regime(args.n, p, args.Ka, args.cs)
        config.update({"K": args.Ka, "c_s": args.cs, "c_q": args.cq})
    _report("extremal", config, result, args.out)
    return EXIT_OK


@dataclass(frozen=True)
class Check:
    name: str
    expected: object
    actual: object
    tol: float | None = None

    @property
    def passed(self) -> bool:
        if self.tol is None:
            return self.expected == self.actual
        return abs(float(self.expected) - float(self.actual)) <= self.tol


def render_checks(checks: list[Check]) -> tuple[str, bool]:
    """Fixed-width pass/fail table; True iff every check passed."""

    def show(x) -> str:
        return format(x, ".12g") if isinstance(x, float) else str(x)

    width = max(len(c.name) for c in checks)
    lines = []
    all_ok = True
    for c in checks:
        ok = c.passed
        all_ok &= ok
        status = "ok" if ok else "FAIL"
        lines.append(
            f"{c.name:<{width}}  expected {show(c.expected):>22}  "
            f"actual {show(c.actual):>22}  {status}"
        )
    lines.append(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n", all_ok


def example1_checks() -> list[Check]:
    """Symmetric equilibria on three 15-agent graphs with budget 2."""
    p = ModelParams(alpha=1.0, beta=1.0, delta=0.5)
    n, K = 15, 2.0
    checks = [Check("quality_weight", 5.0, p.quality_weight(n), 1e-12)]
    balanced = generate("balanced", n)
    star = generate("star", n)
    three_star = generate("l_star", n, l=3)
    v_bal = centrality(balanced, p)
    v_star = centrality(star, p)
    v_three = centrality(three_star, p)
    checks += [
        Check("balanced_centrality", 4.0 / 3.0, float(v_bal.sorted_values[0]), 1e-9),
        Check("star_hub_centrality", 4.8, float(v_star.sorted_values[0]), 1e-9),
        Check(
            "star_peripheral_formula",
            (1.0 + 0.25 / 14.0) / (1.0 - 0.25**2),
            float(v_star.sorted_values[1]),
            1e-9,
        ),
        # the printed two-decimal 1.08 truncates 38/35 = 1.085714..., so the
        # printout-consistency tolerance is one unit in the second decimal
        Check("star_peripheral_printed", 1.08, float(v_star.sorted_values[1]), 1e-2),
        Check("three_star_hub", 8.0 / 3.0, float(v_three.sorted_values[0]), 1e-9),
        Check("three_star_hub_formula", l_star_centralities(n, 3, p)[0], 8.0 / 3.0, 1e-9),
    ]
    out_bal = symmetric_nash(balanced, p, K, 1.0, 1.0)
    out_three = symmetric_nash(three_star, p, K, 1.0, 1.0)
    out_star = symmetric_nash(star, p, K, 1.0, 1.0)
    marginal_seed = float(out_three.strategy_a.seeding[v_three.order[2]])
    checks += [
        Check("balanced_seeding", 0.125, out_bal.strategy_a.seeding_total, 1e-6),
        Check("balanced_quality", 1.875, out_bal.strategy_a.quality, 1e-6),
        Check("three_star_seeding", 17.0 / 16.0, out_three.strategy_a.seeding_total, 1e-6),
        Check("three_star_marginal_seed", 1.0 / 16.0, marginal_seed, 1e-6),
        Check("three_star_quality", 15.0 / 16.0, out_three.strategy_a.quality, 1e-6),
        Check("star_seeding", 0.5, out_star.strategy_a.seeding_total, 1e-6),
        Check("star_v_tilde", 5.0 / 3.0, out_star.v_tilde_l, 1e-6),
        Check("star_case", "boundary_zero", out_star.case_a),
    ]
    ext = symmetric_seeding_extremes(n, p, K, 1.0, 1.0)
    checks += [
        Check("max_seeding", 17.0 / 16.0, ext.maximum.seeding_total, 1e-6),
        Check("max_witness", "l_star(3)", f"{ext.maximum.witness_kind}({ext.maximum.witness_l})"),
        Check("max_witness_verified", True, ext.maximum.verified),
        Check("min_seeding", 0.125, ext.minimum.seeding_total, 1e-6),
        Check("min_witness", "balanced", ext.minimum.witness_kind),
        Check("min_witness_verified", True, ext.minimum.verified),
        Check("budget_regime", "star_over_balanced", budget_regime(n, p, K)["regime"]),
    ]
    return checks


def example2_checks() -> list[Check]:
    """Marginal allocation at preset equal qualities on the same graphs."""
    p = ModelParams(alpha=1.0, beta=1.0, delta=0.5)
    n = 15
    v_c_a, v_c_b = thresholds(1.0, 1.0, p, n, 1.0, 1.0)
    checks = [
        Check("threshold_a", 2.5, v_c_a, 1e-9),
        Check("threshold_b", 2.5, v_c_b, 1e-9),
    ]
    state = PresetState.neutral(n, 1.0, 1.0)
    for name, kind, l, expected in (
        ("three_star_capacity", "l_star", 3, 1.5),
        ("star_capacity", "star", None, 0.5),
        ("balanced_capacity", "balanced", None, 0.0),
    ):
        g = generate(kind, n, l=l)
        v = centrality(g, p)
        checks.append(
            Check(name, expected, seeding_capacity(v, state, "a", p, 1.0, 1.0), 1e-9)
        )
    bound = max_seeding_capacity_bound(n, p, v_c_a, np.full(n, 0.5))
    checks += [
        Check("capacity_bound_k", 3, bound.k),
        Check("capacity_bound_value", 1.5, bound.max_capacity, 1e-9),
    ]
    return checks


def cmd_reproduce(args) -> int:
    sections = []
    if args.example in ("example1", "all"):
        sections.append(("example1", example1_checks()))
    if args.example in ("example2", "all"):
        sections.append(("example2", example2_checks()))
    all_ok = True
    pieces = []
    for name, checks in sections:
        text, ok = render_checks(checks)
        pieces.append(f"== {name} ==\n{text}")
        all_ok &= ok
    _emit("\n".join(pieces), args.out)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netgame",
        description="Two-firm quality vs. seeding competition on social networks",
    )
    parser.add_argument("--version", action="version", version=f"netgame {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("centrality", help="influence centralities of a graph")
    _add_graph_args(sub)
    _add_param_args(sub)
    _add_output_args(sub)
    sub.set_defaults(func=cmd_centrality)

    sub = subs.add_parser("simulate", help="run the consumption spread process")
    _add_graph_args(sub)
    _add_param_args(sub)
    sub.add_argument("--qa", type=float, required=True, help="firm a quality")
    sub.add_argument("--qb", type=float, required=True, help="firm b quality")
    sub.add_argument("--sa-total", type=float, default=0.0, help="firm a seeding, water-filled")
    sub.add_argument("--sb-total", type=float, default=0.0, help="firm b seeding, water-filled")
    sub.add_argument("--T", type=int, default=None, help="steps (default: tail < 1e-10)")
    sub.add_argument("--format", choices=("json", "csv"), default="json",
                     help="csv writes the trajectory alone")
    _add_output_args(sub)
    sub.set_defaults(func=cmd_simulate)

    sub = subs.add_parser("nash", help="equilibrium of the budget game")
    _add_graph_args(sub)
    _add_param_args(sub)
    sub.add_argument("--Ka", type=float, required=True, help="firm a budget")
    sub.add_argument("--Kb", type=float, required=True, help="firm b budget")
    _add_cost_args(sub)
    _add_output_args(sub)
    sub.set_defaults(func=cmd_nash)

    sub = subs.add_parser("allocate", help="marginal budget split at preset qualities")
    _add_graph_args(sub)
    _add_param_args(sub)
    sub.add_argument("--qa", type=float, required=True)
    sub.add_argument("--qb", type=float, required=True)
    sub.add_argument("--budget", type=float, required=True, help="marginal budget K")
    sub.add_argument("--firm", choices=("a", "b"), required=True)
    _add_cost_args(sub)
    _add_output_args(sub)
    sub.set_defaults(func=cmd_allocate)

    sub = subs.add_parser("extremal", help="extremal centralities and seeding range")
    sub.add_argument("--n", type=int, required=True)
    _add_param_args(sub)
    sub.add_argument("--Ka", type=float, default=None, help="symmetric budget K")
    _add_cost_args(sub)
    _add_output_args(sub)
    sub.set_defaults(func=cmd_extremal)

    sub = subs.add_parser("reproduce", help="check the built-in worked examples")
    sub.add_argument("example", choices=("example1", "example2", "all"))
    _add_output_args(sub)
    sub.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # netgame runs as its own process (``python -m netgame.cli`` or the
        # ``netgame`` script): move every object made while importing out of
        # the collector's reach, so the collections at interpreter shutdown
        # skip them.  An in-process ``main(argv)`` leaves the caller's
        # collector alone.
        gc.freeze()
    level = os.environ.get("NETGAME_LOG")
    if level:
        logging.basicConfig(
            level=getattr(logging, level.upper(), logging.INFO),
            stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, GraphValidationError, OSError) as exc:
        log.debug("invalid input", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (SolverError, ArithmeticError) as exc:
        log.debug("solver failure", exc_info=True)
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
