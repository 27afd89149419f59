"""Real-valued arguments: finite reals, taken as ``float``, or refused with ``ValueError``.

Every model parameter, budget, cost, quality, seeding amount, threshold,
tolerance and density that a public name takes is fed bools (numpy's
too), a string, ``None``, a list, a 1-d array, NaN, infinities and an
integer beyond the float range; each must raise ``ValueError`` naming
the argument.  A finite real may return or raise ``ValueError``, and the
same value as a Python int, a numpy float64, float32 or int64, or a 0-d
array must give exactly what the Python float gives.  A bounded argument is
taken at each end of its closed range (5e-324 for an open bound at 0),
and the nearest double outside it is refused as ``<name> must lie in
[low, high], got <x>``; a tiny cost or density that passes its range
check and then fails on its way is a strict ``xfail``.  Each CLI flag that
takes a float must exit 2 with one ``error:`` line, which names the flag,
on values that are no finite real.  Each call runs under a 2 s alarm, so
a hang fails the test instead of stalling it.
"""

import contextlib
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgame import (
    BudgetSpec,
    ModelParams,
    PresetState,
    allocate_budget,
    best_response_quality,
    budget_regime,
    centrality,
    discounted_utilities,
    externality_drift,
    generate,
    horizon_for_tolerance,
    max_seeding_capacity_bound,
    regime_classify,
    seeding_capacity,
    simulate,
    symmetric_nash,
    symmetric_seeding_extremes,
    thresholds,
    water_fill_seeding,
)
from netgame.cli import EXIT_INVALID, main
from netgame.equilibrium import COND_TOL, SolverError
from netgame.params import require_real

from conftest import Hang, alarm, outcome

P = ModelParams(alpha=1.0, beta=1.0, delta=0.5)
G4 = generate("star", 4)
V4 = centrality(G4, P)
Y4 = np.zeros(4)
STATE = PresetState.neutral(4, 1.0, 1.0)

# each takes the real under test as its one argument, and names it as the first entry does
TAKERS = {
    "ModelParams alpha": ("alpha", lambda x: ModelParams(x, 1.0, 0.5)),
    "ModelParams beta": ("beta", lambda x: ModelParams(1.0, x, 0.5)),
    "ModelParams delta": ("delta", lambda x: ModelParams(1.0, 1.0, x)),
    "ModelParams epsilon": ("epsilon", lambda x: ModelParams(1.0, 1.0, 0.5, x)),
    "BudgetSpec K_a": ("K_a", lambda x: BudgetSpec(x, 1.0, 1.0, 1.0)),
    "BudgetSpec K_b": ("K_b", lambda x: BudgetSpec(1.0, x, 1.0, 1.0)),
    "BudgetSpec c_s": ("c_s", lambda x: BudgetSpec(1.0, 1.0, x, 1.0)),
    "BudgetSpec c_q": ("c_q", lambda x: BudgetSpec(1.0, 1.0, 1.0, x)),
    "PresetState q_a": ("q_a", lambda x: PresetState(x, 1.0, Y4)),
    "PresetState q_b": ("q_b", lambda x: PresetState(1.0, x, Y4)),
    "water_fill_seeding amount": ("seeding amount", lambda x: water_fill_seeding(V4, x)),
    "best_response_quality K": ("K", lambda x: best_response_quality(V4, P, x, 1.0, 1.0, 1.0)),
    "best_response_quality c_s": ("c_s", lambda x: best_response_quality(V4, P, 2.0, x, 1.0, 1.0)),
    "best_response_quality c_q": ("c_q", lambda x: best_response_quality(V4, P, 2.0, 1.0, x, 1.0)),
    "best_response_quality q_opp": ("q_opp", lambda x: best_response_quality(V4, P, 2.0, 1.0, 1.0, x)),
    "thresholds q_a": ("q_a", lambda x: thresholds(x, 1.0, P, 4, 1.0, 1.0)),
    "thresholds q_b": ("q_b", lambda x: thresholds(1.0, x, P, 4, 1.0, 1.0)),
    "thresholds c_s": ("c_s", lambda x: thresholds(1.0, 1.0, P, 4, x, 1.0)),
    "thresholds c_q": ("c_q", lambda x: thresholds(1.0, 1.0, P, 4, 1.0, x)),
    "allocate_budget K": ("K", lambda x: allocate_budget(V4, STATE, "a", x, 1.0, 1.0, P)),
    "allocate_budget c_s": ("c_s", lambda x: allocate_budget(V4, STATE, "a", 2.0, x, 1.0, P)),
    "allocate_budget c_q": ("c_q", lambda x: allocate_budget(V4, STATE, "a", 2.0, 1.0, x, P)),
    "seeding_capacity c_s": ("c_s", lambda x: seeding_capacity(V4, STATE, "a", P, x, 1.0)),
    "seeding_capacity c_q": ("c_q", lambda x: seeding_capacity(V4, STATE, "a", P, 1.0, x)),
    "symmetric_nash K": ("K_a", lambda x: symmetric_nash(G4, P, x, 1.0, 1.0)),
    "symmetric_nash c_s": ("c_s", lambda x: symmetric_nash(G4, P, 2.0, x, 1.0)),
    "symmetric_nash c_q": ("c_q", lambda x: symmetric_nash(G4, P, 2.0, 1.0, x)),
    "symmetric_seeding_extremes K": ("K_a", lambda x: symmetric_seeding_extremes(4, P, x, 1.0, 1.0)),
    "symmetric_seeding_extremes c_s": ("c_s", lambda x: symmetric_seeding_extremes(4, P, 2.0, x, 1.0)),
    "symmetric_seeding_extremes c_q": ("c_q", lambda x: symmetric_seeding_extremes(4, P, 2.0, 1.0, x)),
    "budget_regime K": ("K", lambda x: budget_regime(4, P, x)),
    "budget_regime c_s": ("c_s", lambda x: budget_regime(4, P, 2.0, x)),
    "regime_classify v_c": ("threshold", lambda x: regime_classify(4, P, x)),
    "max_seeding_capacity_bound v_c": ("v_c", lambda x: max_seeding_capacity_bound(4, P, x, Y4 + 0.5)),
    "externality_drift q_a": ("q_a", lambda x: externality_drift(x, 1.0, P)),
    "externality_drift q_b": ("q_b", lambda x: externality_drift(1.0, x, P)),
    "simulate q_a": ("q_a", lambda x: simulate(G4, P, x, 1.0, Y4, 3)),
    "simulate q_b": ("q_b", lambda x: simulate(G4, P, 1.0, x, Y4, 3)),
    "discounted_utilities q_a": ("q_a", lambda x: discounted_utilities(G4, P, x, 1.0, Y4, Y4)),
    "discounted_utilities q_b": ("q_b", lambda x: discounted_utilities(G4, P, 1.0, x, Y4, Y4)),
    "discounted_utilities tol": (
        "tol", lambda x: discounted_utilities(G4, P, 2.0, 1.0, Y4, Y4, "simulated", tol=x)
    ),
    "horizon_for_tolerance tol": ("tol", lambda x: horizon_for_tolerance(P, 4, x)),
    "generate density": ("density", lambda x: generate("random", 4, seed=1, density=x)),
}

NON_REALS = (
    True, False, np.True_, "2", None, [2.0], np.array([2.0]), np.array("2"),
    math.nan, np.float64(math.nan), math.inf, -math.inf, np.float32(math.inf), 10**400,
)
# quarter steps are exact in float32, so every numpy form below holds the same value
REALS = st.integers(-8, 24).map(lambda k: k / 4.0)


@pytest.mark.parametrize("name", list(TAKERS))
def test_non_reals_are_refused_naming_the_argument(name):
    argument, call = TAKERS[name]
    message = f"{re.escape(argument)} must be a finite real number, got "
    for x in NON_REALS:
        with alarm(2), pytest.raises(ValueError, match=message):
            call(x)


@pytest.mark.parametrize("name", list(TAKERS))
@settings(max_examples=6, deadline=None)
@given(x=REALS)
def test_numpy_reals_give_what_the_python_float_gives(name, x):
    call = TAKERS[name][1]
    expected = outcome(call, x)
    forms = [np.float64(x), np.float32(x), np.array(x), np.array(x, dtype=np.float32)]
    if x.is_integer():
        forms += [int(x), np.int64(x), np.array(int(x))]
    for form in forms:
        assert outcome(call, form) == expected, form


@pytest.mark.parametrize(
    "x", [2.5, -3, np.float32(0.5), np.int64(7), np.uint8(7), np.array(1.5), 10**300]
)
def test_require_real_returns_a_float(x):
    f = require_real("x", x)
    assert type(f) is float and f == float(x)


@pytest.mark.parametrize(
    "x, shown",
    [(True, "True"), (np.True_, "np.True_"), ("2", "'2'"), (None, "None"),
     (np.array([2.0]), "array([2.])"), (math.nan, "nan"), (-math.inf, "-inf"),
     (1j, "1j"), (10**400, "1" + "0" * 400)],
)
def test_require_real_refusals(x, shown):
    with pytest.raises(ValueError, match=re.escape(f"x must be a finite real number, got {shown}")):
        require_real("x", x)


U = math.ulp(0.0)  # the closed form of an open bound at 0
AFFORD = P.epsilon - COND_TOL  # the least budget that affords quality epsilon at c_q = 1
# each bounded taker of TAKERS with the closed range [low, high] it accepts; None is no bound
RANGES = {
    "BudgetSpec K_a": (0.0, None),
    "BudgetSpec K_b": (0.0, None),
    "BudgetSpec c_s": (U, None),
    "BudgetSpec c_q": (U, None),
    "PresetState q_a": (U, None),
    "PresetState q_b": (U, None),
    "water_fill_seeding amount": (-COND_TOL, len(V4.values) / 2.0 + COND_TOL),
    "best_response_quality K": (AFFORD, None),
    "best_response_quality c_s": (U, None),
    "best_response_quality c_q": (U, None),
    "best_response_quality q_opp": (P.epsilon - COND_TOL, None),
    "thresholds q_a": (P.epsilon, None),
    "thresholds q_b": (P.epsilon, None),
    "thresholds c_s": (U, None),
    "thresholds c_q": (U, None),
    "allocate_budget K": (0.0, None),
    "allocate_budget c_s": (U, None),
    "allocate_budget c_q": (U, None),
    "seeding_capacity c_s": (U, None),
    "seeding_capacity c_q": (U, None),
    "symmetric_nash K": (AFFORD, None),
    "symmetric_nash c_s": (U, None),
    "symmetric_nash c_q": (U, None),
    "symmetric_seeding_extremes K": (AFFORD, None),
    "symmetric_seeding_extremes c_s": (U, None),
    "symmetric_seeding_extremes c_q": (U, None),
    "budget_regime c_s": (U, None),
    "externality_drift q_a": (P.epsilon, None),
    "externality_drift q_b": (P.epsilon, None),
    "simulate q_a": (P.epsilon, None),
    "simulate q_b": (P.epsilon, None),
    "discounted_utilities q_a": (P.epsilon, None),
    "discounted_utilities q_b": (P.epsilon, None),
    "discounted_utilities tol": (U, None),
    "horizon_for_tolerance tol": (U, None),
    "generate density": (U, 1.0),
}
BOUNDS = [
    (f"{name} {side}", name, bound, outward)
    for name, ends in RANGES.items()
    for side, bound, outward in zip(("low", "high"), ends, (-math.inf, math.inf))
    if bound is not None
]
# a cost of 5e-324 passes its range check and then overflows the budget-to-cost
# ratios, and a density of 5e-324 redraws an empty row for ever
_FAULTS_AT_BOUND = {
    "best_response_quality c_q low": RuntimeWarning,
    "allocate_budget c_q low": RuntimeWarning,
    "symmetric_nash c_s low": SolverError,
    "symmetric_nash c_q low": RuntimeWarning,
    "symmetric_seeding_extremes c_s low": SolverError,
    "symmetric_seeding_extremes c_q low": RuntimeWarning,
    "budget_regime c_s low": ValueError,
    "generate density low": Hang,
}


@pytest.mark.parametrize(
    "name, bound",
    [
        pytest.param(
            name, bound, id=id_,
            marks=[pytest.mark.xfail(raises=_FAULTS_AT_BOUND[id_], strict=True)]
            if id_ in _FAULTS_AT_BOUND else [],
        )
        for id_, name, bound, _ in BOUNDS
    ],
)
def test_each_bound_is_accepted(name, bound):
    with alarm(2):
        TAKERS[name][1](bound)


@pytest.mark.parametrize(
    "name, bound, outward", [b[1:] for b in BOUNDS], ids=[b[0] for b in BOUNDS]
)
def test_the_nearest_double_outside_each_bound_is_refused(name, bound, outward):
    argument, call = TAKERS[name]
    x = math.nextafter(bound, outward)
    message = rf"{re.escape(argument)} must lie in \[.*\], got {re.escape(repr(x))}$"
    with alarm(2), pytest.raises(ValueError, match=message):
        call(x)


# each ends with the float flag whose value is under test; the rest is a valid command
_GRAPH = ["--generate", "star", "--n", "5"]
_SIMULATE = ["simulate", *_GRAPH, "--qa", "2", "--qb", "1"]
_NASH = ["nash", *_GRAPH, "--Ka", "2", "--Kb", "1"]
_ALLOCATE = ["allocate", *_GRAPH, "--qa", "1", "--qb", "1", "--budget", "2", "--firm", "a"]
_EXTREMAL = ["extremal", "--n", "5", "--Ka", "2"]
FLAGS = {
    **{f"centrality {f}": ["centrality", *_GRAPH, f] for f in ("--alpha", "--beta", "--delta", "--epsilon")},
    **{f"simulate {f}": [*_SIMULATE, f] for f in ("--qa", "--qb", "--sa-total", "--sb-total")},
    **{f"nash {f}": [*_NASH, f] for f in ("--Ka", "--Kb", "--cs", "--cq")},
    **{f"allocate {f}": [*_ALLOCATE, f] for f in ("--qa", "--qb", "--budget", "--cs", "--cq")},
    **{f"extremal {f}": [*_EXTREMAL, f] for f in ("--Ka", "--cs", "--cq")},
}


@pytest.mark.parametrize("name", list(FLAGS))
def test_float_flags_exit_2_on_values_that_are_no_finite_real(name):
    *argv, flag = FLAGS[name]
    for value in ("nan", "inf", "-inf", "1e400", "abc"):
        out, err = io.StringIO(), io.StringIO()
        with alarm(2), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([*argv, f"{flag}={value}"])
            except SystemExit as exc:  # argparse refuses each of them
                code = exc.code
        errors = [line for line in err.getvalue().splitlines() if "error:" in line]
        assert code == EXIT_INVALID and out.getvalue() == "" and len(errors) == 1, (value, errors)
        assert f"argument {flag}: " in errors[0], errors
