"""One table of every argument a public name checks: its kind, closed range and refusal name.

The kinds are count, real, vector, indices (integers), choice and path.  A
row substitutes a value, as a keyword, into its public name's one valid
call, and every boundary property is derived from the table: a value of
no kind is refused in the full words of its kind, which the unit cases
at the end pin; numpy, 0-d, list and tuple forms give what the reference
form gives; each finite end of a range is accepted and the nearest value
outside it refused; and each ``int`` or ``_real`` flag of
``cli.build_parser()`` exits 2 naming itself on a value of no kind, and
on a negative integer if it is a count.  Two completeness tests fail when
a public parameter or a typed flag has no case.  Each call runs under a
2 s alarm.
"""

import argparse
import contextlib
import functools
import inspect
import io
import math
import os
import pathlib
import types
from typing import NamedTuple

import numpy as np
import pytest

import netgame
from netgame import KINDS, ModelParams, PresetState, SocialGraph, centrality, generate
from netgame.allocation import TIE_TOL
from netgame.cli import EXIT_INVALID, EXIT_OK, _real, build_parser, main
from netgame.dynamics import _STATE_TOL
from netgame.equilibrium import COND_TOL
from netgame.params import require_count, require_indices, require_real, require_vector

from conftest import alarm, outcome

P = ModelParams(alpha=1.0, beta=1.0, delta=0.5)
G4 = generate("star", 4)
V4 = centrality(G4, P)
STATE = PresetState.neutral(4, 1.0, 1.0)
INF, U = math.inf, math.ulp(0.0)  # U is the closed form of an open bound at 0
AFFORD = P.epsilon - COND_TOL  # the least budget that affords quality epsilon at c_q = 1
# a 4-agent graph in CSR: agent 0 listens to 1 and 2, agents 1, 2 and 3 to 0
INDPTR, INDICES, DATA = [0, 2, 3, 4, 5], [1, 2, 0, 0, 0], [0.25, 0.75, 1.0, 1.0, 1.0]


class Arg(NamedTuple):
    kind: str  # count, real, vector, indices, choice or path
    low: float = -INF  # the closed range of the value, or of each entry of a vector
    high: float = INF
    named: str | None = None  # the name its refusal uses, where that is not the parameter's
    length: int | None = None  # a vector's fixed number of entries
    choices: tuple = ()  # a choice's values; any other is refused as ``refusal.format(x)``
    refusal: str = ""
    extra: dict = {}  # keywords of the valid call this argument needs changed to be checked
    optional: bool = False  # None is taken, or refused in other words
    scalar: bool = False  # indices that may be one integer, checked as a one-entry vector
    own: bool = False  # refused in its own words, which test_graphs.py pins; the row only names it


def count(low, high=INF, **kw):
    return Arg("count", low, high, **kw)


def on_kinds(**args: Arg) -> dict:
    """Rows ``param star`` and ``param balanced`` for each argument: graphs that do not read it
    check it."""
    return {f"{param} {kind}": arg._replace(extra={**arg.extra, "kind": kind})
            for param, arg in args.items() for kind in ("star", "balanced")}


R, POS, Q = Arg("real"), Arg("real", U), Arg("real", P.epsilon)  # Q: a quality
FIRM = Arg("choice", choices=("a", "b"), refusal="firm must be 'a' or 'b', got {!r}")
PATH = Arg("path")
SEEDING = Arg("vector", -_STATE_TOL, 0.5 + _STATE_TOL, length=4)
K_A = Arg("real", AFFORD, named="K_a")

# each public name: the keywords of its one valid call, and a row for each argument it checks
TABLE = {
    "ModelParams": (dict(alpha=1.0, beta=1.0, delta=0.5, epsilon=1e-6),
                    dict(alpha=R, beta=R, delta=R, epsilon=R)),
    "ModelParams.quality_weight": (dict(self=P, n=4), dict(n=count(1))),
    "BudgetSpec": (dict(K_a=1.0, K_b=1.0, c_s=1.0, c_q=1.0),
                   dict(K_a=Arg("real", 0.0), K_b=Arg("real", 0.0), c_s=POS, c_q=POS)),
    "PresetState": (dict(q_a=1.0, q_b=1.0, y0=[0.25, -0.5, 0.5]),
                    dict(q_a=POS, q_b=POS, y0=Arg("vector", -0.5 - TIE_TOL, 0.5 + TIE_TOL))),
    "PresetState.neutral": (dict(n=4, q_a=1.0, q_b=1.0), dict(n=count(1), q_a=POS, q_b=POS)),
    "PresetState.capacities": (dict(self=STATE, firm="a"), dict(firm=FIRM)),
    "CentralityVector": (dict(values=[4.0, 3.0, 1.5, 1.0], order=[0, 1, 2, 3]),
                         dict(values=Arg("vector", U), order=Arg("indices", 0, 3, length=4))),
    "SocialGraph.from_csr": (dict(n=4, indptr=INDPTR, indices=INDICES, data=DATA), dict(
        n=count(0, named="graph 'n'", extra=dict(indptr=[0], indices=np.zeros(0, int), data=[])),
        indptr=Arg("indices", named="'indptr'", length=5, own=True),
        indices=Arg("indices", named="'indices'", length=5, own=True),
        # a non-finite weight is not refused but reported among the graph's violations
        data=Arg("vector", named="'data'", length=5, own=True))),
    "allocate_budget": (dict(v=V4, state=STATE, firm="a", K=2.0, c_s=1.0, c_q=1.0, p=P),
                        dict(firm=FIRM, K=Arg("real", 0.0), c_s=POS, c_q=POS)),
    "best_response_quality": (dict(v=V4, p=P, K=2.0, c_s=1.0, c_q=1.0, q_opp=1.0), dict(
        K=Arg("real", AFFORD), c_s=POS, c_q=POS, q_opp=Arg("real", P.epsilon - COND_TOL))),
    "budget_regime": (dict(n=4, p=P, K=2.0, c_s=1.0), dict(n=count(2), K=R, c_s=POS)),
    "closed_form_centrality": (dict(kind="l_star", n=8, p=P, l=2), dict(
        kind=Arg("choice", choices=("balanced", "star", "l_star"),
                 refusal="no closed form for graph kind {!r}"),
        n=count(2), l=Arg("indices", 2, 8, optional=True, scalar=True),
        **on_kinds(l=Arg("indices", 2, 8, optional=True, scalar=True)))),
    "discounted_utilities": (
        dict(g=G4, p=P, q_a=2.0, q_b=1.0, s_a=[0.0, 0.25, 0.5, 0.0], s_b=[0.5, 0.0, 0.0, 0.25],
             mode="simulated", T=None),
        dict(q_a=Q, q_b=Q, s_a=SEEDING, s_b=SEEDING, T=count(0, optional=True),
             mode=Arg("choice", choices=("closed_form", "simulated"),
                      refusal="unknown mode {!r}; use 'closed_form' or 'simulated'"))),
    "externality_drift": (dict(q_a=2.0, q_b=1.0, p=P), dict(q_a=Q, q_b=Q)),
    "generate": (dict(kind="random", n=4, l=2, seed=1, density=0.5), dict(
        kind=Arg("choice", choices=KINDS, refusal="unknown graph kind {!r}; choose from " + str(KINDS)),
        n=count(2, extra=dict(l=None)), l=count(2, 3, extra=dict(kind="l_star")),
        seed=count(0, optional=True), density=Arg("real", U, 1.0), **on_kinds(
            l=count(2, 3, optional=True), seed=count(0, optional=True), density=Arg("real", U, 1.0)))),
    "horizon_for_tolerance": (dict(p=P, n=4, tol=1e-10), dict(n=count(1), tol=POS)),
    "l_star_centralities": (dict(n=8, l=[2, 5, 8], p=P),
                            dict(n=count(2, extra=dict(l=2)), l=Arg("indices", 2, 8, scalar=True))),
    # os.devnull is a path, so the path check passes; empty, it is no JSON graph
    "load_graph": (dict(path=os.devnull), dict(path=PATH)),
    "max_centrality_sequence": (dict(n=4, p=P), dict(n=count(2))),
    "max_seeding_capacity_bound": (dict(n=4, p=P, v_c=1.2, capacities=[0.0, 1.0, 0.5, 0.25]), dict(
        n=count(2, extra=dict(capacities=[0.5, 0.5])), v_c=R,
        capacities=Arg("vector", -TIE_TOL, 1.0 + TIE_TOL, length=4))),
    "min_centrality_sequence": (dict(n=4, p=P), dict(n=count(2))),
    "save_graph": (dict(g=G4, path=os.devnull), dict(path=PATH)),
    "seeding_capacity": (dict(v=V4, state=STATE, firm="a", p=P, c_s=1.0, c_q=1.0),
                         dict(firm=FIRM, c_s=POS, c_q=POS)),
    "simulate": (dict(g=G4, p=P, q_a=2.0, q_b=1.0, y0=[0.25, -0.5, 0.0, 0.5], T=3), dict(
        q_a=Q, q_b=Q, T=count(0), y0=Arg("vector", -0.5 - _STATE_TOL, 0.5 + _STATE_TOL, length=4))),
    "star_centralities": (dict(n=4, p=P), dict(n=count(2))),
    "symmetric_nash": (dict(g=G4, p=P, K=2.0, c_s=1.0, c_q=1.0), dict(K=K_A, c_s=POS, c_q=POS)),
    "symmetric_seeding_extremes": (dict(n=4, p=P, K=2.0, c_s=1.0, c_q=1.0),
                                   dict(n=count(2), K=K_A, c_s=POS, c_q=POS)),
    "thresholds": (dict(q_a=1.0, q_b=1.0, p=P, n=4, c_s=1.0, c_q=1.0),
                   dict(q_a=Q, q_b=Q, n=count(1), c_s=POS, c_q=POS)),
    "water_fill_seeding": (dict(v=V4, amount=1.0), dict(
        amount=Arg("real", -COND_TOL, 2.0 + COND_TOL, named="seeding amount"))),
}
# a row is named by its public name, its parameter and, for a second row of one parameter, a kind
ROWS = {f"{name} {key}": (name, key.split()[0], arg)
        for name, (_, args) in TABLE.items() for key, arg in args.items()}


def public(name: str):
    return functools.reduce(getattr, name.split("."), netgame)


def valid(row: str) -> dict:
    """The keywords of the row's valid call, the row's changes included."""
    name, _, arg = ROWS[row]
    return {**TABLE[name][0], **arg.extra}


def call(row: str, x):
    name, param, _ = ROWS[row]
    return public(name)(**{**valid(row), param: x})


CHECKS = {
    "count": lambda a, name, x: require_count(name, x, a.low),
    "real": lambda a, name, x: require_real(name, x, a.low, a.high),
    "vector": lambda a, name, x: require_vector(name, x, a.length, a.low, a.high),
    "indices": lambda a, name, x: require_indices(
        name, [x] if a.scalar and np.ndim(x) == 0 else x, a.length, a.low, a.high),
}


def refusal(row: str, x) -> str | None:
    """The message the row's kind refuses ``x`` with, or None if its kind takes ``x``."""
    _, param, arg = ROWS[row]
    if arg.kind == "path":
        return f"path must be a str or an os.PathLike of one, got {x!r}"
    if arg.kind == "choice":
        return None if isinstance(x, str) and x in arg.choices else arg.refusal.format(x)
    try:
        CHECKS[arg.kind](arg, arg.named or param, x)
    except ValueError as exc:
        return str(exc)
    return None


NON_COUNTS = (True, False, np.True_, 2.5, 2.0, np.float64(2.0), math.nan, math.inf, -math.inf,
              "3", None)
NON_REALS = (True, False, np.True_, "2", None, [2.0], np.array([2.0]), np.array("2"), 1j,
             math.nan, np.float64(math.nan), math.inf, -math.inf, np.float32(math.inf), 10**400)
BYTES_PATH = type("BytesPath", (), {"__fspath__": lambda self: b"g.json"})()
NON_PATHS = (True, False, 0, 1, 2.5, None, b"g.json", BYTES_PATH)
NON_CHOICES = (None, 0, True, "", b"a")


def non_vectors(arg: Arg, sample: list) -> dict:
    m = len(sample)
    bad = {
        # a bool among numbers: numpy would read it as 0 or 1
        "bool list": [True] * m, "bool among numbers": [bool(sample[0]), *sample[1:]],
        "bool array": np.ones(m, dtype=bool), "numeric strings": ["0"] * m, "None": None,
        "dict": {}, "complex array": np.zeros(m, complex), "empty array": np.array(sample)[:0],
        "integers beyond the float range": [10**400] * m, "(n, 1) array": np.array(sample)[:, None],
        "object array holding a string": np.array([*sample[:-1], "0"], dtype=object),
    }
    if not arg.own:
        for label, at, x in (("NaN", 0, math.nan), ("inf", -1, math.inf), ("-inf", 0, -INF)):
            bad[label] = np.array(sample, dtype=float)
            bad[label][at] = x
    if not arg.scalar:
        bad["scalar"] = sample[0]
    if arg.length is not None:
        bad["n - 1 entries"], bad["n + 1 entries"] = np.array(sample[:-1]), np.array([*sample, 0])
    if arg.kind == "indices":  # 2.0 is no integer, as for require_count
        bad["float array"] = np.array(sample, dtype=float)
    return bad


def non_kinds(row: str) -> dict:
    """The values of no kind the row must refuse, by label."""
    _, param, arg = ROWS[row]
    sample = valid(row)[param]
    if arg.kind in ("vector", "indices") and np.ndim(sample):
        return non_vectors(arg, sample)
    values = {"count": NON_COUNTS, "indices": NON_COUNTS, "real": NON_REALS, "path": NON_PATHS,
              "choice": NON_CHOICES + tuple(c.upper() for c in arg.choices)}[arg.kind]
    return {repr(x)[:24]: x for x in values if not (arg.optional and x is None)}


@pytest.mark.parametrize("row, x", [pytest.param(row, x, id=f"{row}-{label}")
                                    for row in ROWS for label, x in non_kinds(row).items()])
def test_values_of_no_kind_are_refused_in_the_words_of_their_kind(row, x):
    with alarm(2), pytest.raises(ValueError) as exc:
        call(row, x)
    arg, message = ROWS[row][2], str(exc.value)
    assert arg.named in message if arg.own else message == refusal(row, x)


# quarter steps are exact in float32, so every numpy form holds the same value
REALS = (-1.0, 0.0, 0.25, 1.0, 2.0, 5.5)
COUNTS = (-1, 0, 1, 2, 3, 7)


def forms(row: str) -> list:
    """(reference, other forms of the same value) pairs for the row."""
    _, param, arg = ROWS[row]
    sample = valid(row)[param]
    if arg.kind == "path":
        return [(sample, [pathlib.Path(sample)])]
    if np.ndim(sample) == 0 and arg.kind == "real":
        return [(x, [np.float64(x), np.float32(x), np.array(x), np.array(x, dtype=np.float32),
                     *([int(x), np.int64(x), np.array(int(x))] if x.is_integer() else [])])
                for x in REALS]
    if np.ndim(sample) == 0:
        return [(k, [np.int64(k), np.int32(k), np.array(k)]) for k in COUNTS]
    integral = arg.kind == "indices"
    cases = []
    for values in (sample, sample[::-1], [v + (1 if integral else 0.25) for v in sample]):
        reference = np.array(values, dtype=np.int64 if integral else np.float64)
        other = [list(values), tuple(values), reference.astype(np.int32 if integral else np.float32)]
        if not integral and all(float(v).is_integer() for v in values):
            other += [[int(v) for v in values], reference.astype(np.int64)]
        cases.append((reference, other))
    return cases


@pytest.mark.parametrize("row", [row for row, (_, _, arg) in ROWS.items() if arg.kind != "choice"])
def test_other_forms_give_what_the_reference_form_gives(row):
    for reference, other in forms(row):
        expected = outcome(lambda x: call(row, x), reference)
        for form in other:
            assert outcome(lambda x: call(row, x), form) == expected, form


def ends(row: str) -> list:
    """(label, a value at the end, the nearest value outside it) for each finite end of the row's
    range, and (choice, choice, None) for each of a choice's values."""
    _, param, arg = ROWS[row]
    if arg.kind == "choice":
        return [(c, c, None) for c in arg.choices]
    sample, found = valid(row)[param], []
    integral = arg.kind in ("count", "indices")
    for side, end, outward in (("low", arg.low, -INF), ("high", arg.high, INF)):
        if not math.isfinite(end):
            continue
        beyond = end + (1 if side == "high" else -1) if integral else math.nextafter(end, outward)
        on, off = end, beyond
        if np.ndim(sample):  # the least (greatest) entry moves to the end: an order stays one
            at = np.argmin(sample) if side == "low" else np.argmax(sample)
            on, off = [*sample], [*sample]
            on[at], off[at] = end, beyond
        found.append((side, on, off))
    return found


# a quality cost of 5e-324 passes its range check and then overflows K/c_q, which
# best_response_quality refuses as an overflowing kink, and budget_regime refuses
# its own K/c_s at a seeding cost of 5e-324 (a density of 5e-324 is no fault: each
# row gets one edge, uniformly placed)
FAULTS = {
    "best_response_quality c_q low": ValueError, "allocate_budget c_q low": RuntimeWarning,
    "symmetric_nash c_q low": RuntimeWarning,
    "symmetric_seeding_extremes c_q low": RuntimeWarning,
    "budget_regime c_s low": ValueError,
}
ACCEPTED = [(f"{row} {label}", row, x) for row in ROWS for label, x, _ in ends(row)]
ACCEPTED.append(("symmetric_nash c_s 1e-16", "symmetric_nash c_s", 1e-16))


@pytest.mark.parametrize("row, x", [
    pytest.param(row, x, id=id_, marks=[pytest.mark.xfail(raises=FAULTS[id_], strict=True)]
                 if id_ in FAULTS else []) for id_, row, x in ACCEPTED])
def test_each_end_of_a_range_is_accepted(row, x):
    with alarm(2):
        call(row, x)


@pytest.mark.parametrize("row, x", [pytest.param(row, x, id=f"{row} {label}") for row in ROWS
                                    for label, _, x in ends(row) if x is not None])
def test_the_nearest_value_outside_each_end_is_refused(row, x):
    with alarm(2), pytest.raises(ValueError) as exc:
        call(row, x)
    expected = refusal(row, x)  # None for a count's upper end, which no helper checks
    assert expected is None or str(exc.value) == expected


# one valid command line per subcommand; a typed flag appended to it overrides its value
_GRAPH = ["--generate", "star", "--n", "5"]
ARGV = {
    "centrality": ["centrality", *_GRAPH],
    "simulate": ["simulate", *_GRAPH, "--qa", "2", "--qb", "1"],
    "nash": ["nash", *_GRAPH, "--Ka", "2", "--Kb", "1"],
    "allocate": ["allocate", *_GRAPH, "--qa", "1", "--qb", "1", "--budget", "2", "--firm", "a"],
    "extremal": ["extremal", "--n", "5", "--Ka", "2"],
}
NOT_INTS = ("True", "2.5", "2.0", "nan", "inf", "1e400", "abc", "")
NOT_REALS = ("nan", "inf", "-inf", "1e400", "-1e400", "abc", "True", "")
SUBCOMMANDS = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
FLAGS = [(command, action.option_strings[0], action.type)
         for command, sub in SUBCOMMANDS.items()
         for action in sub._actions if action.type in (int, _real)]


def run(argv: list) -> tuple:
    """Exit code, stdout and the ``error:`` lines of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with alarm(2), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a value its type does not take
            code = exc.code
    return code, out.getvalue(), [line for line in err.getvalue().splitlines() if "error:" in line]


@pytest.mark.parametrize("command, flag, kind", FLAGS, ids=[f"{c} {f}" for c, f, _ in FLAGS])
def test_typed_flags_exit_2_naming_the_flag_on_a_value_of_no_kind(command, flag, kind):
    for value in NOT_INTS if kind is int else NOT_REALS:
        words = "invalid int value:" if kind is int else "must be a finite real number, got"
        code, out, errors = run([*ARGV[command], f"{flag}={value}"])
        assert code == EXIT_INVALID and out == "", value
        assert len(errors) == 1 and errors[0].endswith(f"argument {flag}: {words} {value!r}"), errors


# on the 2-agent star firm b's equilibrium quality sits at the floor, which the solver refuses
CLI_FAULTS = {"nash --n=2"}


@pytest.mark.parametrize("command, flag, k", [
    pytest.param(c, f, k, id=f"{c} {f}={k}", marks=[pytest.mark.xfail(
        raises=AssertionError, strict=True)] if f"{c} {f}={k}" in CLI_FAULTS else [])
    for c, f, kind in FLAGS if kind is int for k in COUNTS])
def test_count_flags_exit_0_or_2_on_integers(command, flag, k):
    code, out, errors = run([*ARGV[command], f"{flag}={k}"])
    assert code in (EXIT_OK, EXIT_INVALID) and (k >= 0 or code == EXIT_INVALID), (code, errors)
    assert code == EXIT_OK or out == "" and len(errors) == 1, errors


# the records the library returns, which check nothing
RESULTS = {"AllocationResult", "CapacityBound", "FirmStrategy", "NashOutcome", "SeedingExtremes",
           "UtilityReport"}
# every public method or classmethod of a public class that takes an argument besides
# ``self`` or ``cls``
METHODS = [f"{name}.{attr}" for name in netgame.__all__ if isinstance(cls := public(name), type)
           for attr, member in vars(cls).items() if not attr.startswith("_")
           and isinstance(member, (types.FunctionType, classmethod))
           and set(inspect.signature(getattr(cls, attr)).parameters) - {"self", "cls"}]
# the objects the table does not fuzz: a graph, model parameters, a centrality
# vector, a preset state (``self`` of its method too), a budget, and a graph's
# data, whose checks test_graphs.py keeps
UNFUZZED = {"g", "p", "v", "state", "budget", "self", "SocialGraph.from_dict data"}


def test_every_public_argument_has_a_row():
    names = [name for name in set(netgame.__all__) - RESULTS
             if callable(obj := getattr(netgame, name)) and obj is not SocialGraph
             and not (isinstance(obj, type) and issubclass(obj, Exception))]
    arguments = {f"{name} {param}" for name in [*names, *METHODS]
                 for param in inspect.signature(public(name)).parameters}
    rows = {f"{name} {param}" for name, param, _ in ROWS.values()}
    assert {a for a in arguments if not {a, a.split()[1]} & UNFUZZED} == rows


def test_every_typed_flag_has_a_case():
    for command, sub in SUBCOMMANDS.items():
        types = {action.type for action in sub._actions} - {None}
        assert types <= {int, _real}, (command, types)  # a float flag would take nan
    for command, argv in ARGV.items():
        code, _, errors = run(argv)
        assert code == EXIT_OK and not errors, command


@pytest.mark.parametrize("arg, x, message", [
    (count(0), -1, "x must be nonnegative, got -1"),
    (count(2), np.int64(1), "x must be at least 2, got 1"),
    *[(count(0), x, f"x must be an integer, got {shown}") for x, shown in [
        (np.array([3]), "array([3])"), (np.array(3.0), "array(3.)"), (np.True_, "np.True_"),
        (None, "None")]],
    *[(R, x, f"x must be a finite real number, got {shown}") for x, shown in [
        (True, "True"), (np.True_, "np.True_"), ("2", "'2'"), (None, "None"), (1j, "1j"),
        (np.array([2.0]), "array([2.])"), (math.nan, "nan"), (-math.inf, "-inf"),
        (10**400, "1" + "0" * 400)]],
    (Arg("real", 0.0, 1.0), np.float32(1.5), "x must lie in [0.0, 1.0], got 1.5"),
    *[(Arg("vector", 0, 1, length=2), x, "x" + words) for x, words in [
        ([0.5, True], "[1] must be a finite real number, got True"),
        (None, " must be a vector of finite reals, got None"),
        (np.zeros(3), " must be a vector of 2 entries, got shape (3,)"),
        (np.array([0.5, math.nan]), "[1] must be a finite real in [0, 1], got nan")]],
    (Arg("vector", 0, 1), np.zeros((2, 1)), "x must be a nonempty vector, got shape (2, 1)"),
    *[(Arg("indices", 0, 1, length=2), x, "x" + words) for x, words in [
        ([0, 2.0], "[1] must be an integer, got 2.0"),
        ([0, 5], "[1] must be an integer in [0, 1], got 5"),
        (np.zeros(2), " must be a vector of integers, got array([0., 0.])")]],
])
def test_each_check_refuses_in_its_words(arg, x, message):
    with pytest.raises(ValueError) as exc:
        CHECKS[arg.kind](arg, "x", x)
    assert str(exc.value) == message


@pytest.mark.parametrize("arg, x, expected", [
    (count(0), np.uint8(7), 7), (count(0), np.array(7, np.int8), 7), (R, np.float32(0.5), 0.5),
    (R, np.uint8(7), 7.0), (R, np.array(1.5), 1.5), (R, 10**300, 1e300)])
def test_each_scalar_check_returns_a_python_number(arg, x, expected):
    got = CHECKS[arg.kind](arg, "x", x)
    assert type(got) is type(expected) and got == expected


def test_vector_checks_return_fresh_arrays():
    x = np.arange(3)
    a, i = require_vector("x", x, 3, 0, 2), require_indices("x", x, 3, 0, 2)
    assert a.dtype == np.float64 and i.dtype == np.intp and a.tolist() == i.tolist() == [0, 1, 2]
    a[0] = i[0] = 9
    assert x[0] == 0
    assert require_vector("x", [1, 2**70], None, 0, INF).tolist() == [1.0, 2.0**70]
