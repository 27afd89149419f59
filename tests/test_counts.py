"""Agent counts n, hub counts l and horizons T: integers, or refused with ``ValueError``.

Every public function and CLI flag that takes one is fed bools, floats
(2.0 included), NaN, infinities, a string and small integers.  A
non-integer must raise ``ValueError`` (exit 2 from the CLI); an integer
may return or raise ``ValueError``, and a numpy integer or a 0-d integer
array must do what the same Python int does.  Each call runs under a
2 s alarm, so a hang fails the test instead of stalling it.
"""

import contextlib
import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netgame import (
    ModelParams,
    PresetState,
    SocialGraph,
    budget_regime,
    closed_form_centrality,
    discounted_utilities,
    generate,
    horizon_for_tolerance,
    l_star_centralities,
    max_centrality_sequence,
    max_seeding_capacity_bound,
    min_centrality_sequence,
    regime_classify,
    simulate,
    star_centralities,
    symmetric_seeding_extremes,
    thresholds,
)
from netgame.cli import EXIT_INVALID, EXIT_OK, main
from netgame.params import require_count

from conftest import alarm

P = ModelParams(alpha=1.0, beta=1.0, delta=0.5)
G4 = generate("balanced", 4)
Y4 = np.zeros(4)

# each takes the count under test as its one argument
TAKERS = {
    "generate balanced n": lambda x: generate("balanced", x),
    "generate star n": lambda x: generate("star", x),
    "generate l_star n": lambda x: generate("l_star", x, l=2),
    "generate l_star l": lambda x: generate("l_star", 8, l=x),
    "generate near_star n": lambda x: generate("near_star_one_bidirectional", x),
    "generate random n": lambda x: generate("random", x, seed=1),
    "from_dict n": lambda x: SocialGraph.from_dict({"n": x, "edges": []}),
    "from_csr n": lambda x: SocialGraph.from_csr(x, [0, 1, 2], [1, 0], [1.0, 1.0]),
    "quality_weight n": lambda x: P.quality_weight(x),
    "star_centralities n": lambda x: star_centralities(x, P),
    "l_star_centralities n": lambda x: l_star_centralities(x, 2, P),
    "l_star_centralities l": lambda x: l_star_centralities(8, x, P),
    "closed_form balanced n": lambda x: closed_form_centrality("balanced", x, P),
    "closed_form star n": lambda x: closed_form_centrality("star", x, P),
    "closed_form l_star n": lambda x: closed_form_centrality("l_star", x, P, l=2),
    "closed_form l_star l": lambda x: closed_form_centrality("l_star", 8, P, l=x),
    "max_centrality_sequence n": lambda x: max_centrality_sequence(x, P),
    "min_centrality_sequence n": lambda x: min_centrality_sequence(x, P),
    "symmetric_seeding_extremes n": lambda x: symmetric_seeding_extremes(x, P, 2.0, 1.0, 1.0),
    "budget_regime n": lambda x: budget_regime(x, P, 2.0),
    "regime_classify n": lambda x: regime_classify(x, P, 2.0),
    "max_seeding_capacity_bound n": lambda x: max_seeding_capacity_bound(x, P, 1.5, Y4 + 0.5),
    "thresholds n": lambda x: thresholds(1.0, 1.0, P, x, 1.0, 1.0),
    "PresetState.neutral n": lambda x: PresetState.neutral(x, 1.0, 1.0),
    "horizon_for_tolerance n": lambda x: horizon_for_tolerance(P, x),
    "simulate T": lambda x: simulate(G4, P, 2.0, 1.0, Y4, x),
    "discounted_utilities T": lambda x: discounted_utilities(G4, P, 2, 1, Y4, Y4, "simulated", T=x),
}

NON_INTEGERS = (True, False, 2.5, 2.0, math.nan, math.inf, -math.inf, "3")
COUNTS = st.one_of(st.sampled_from(NON_INTEGERS), st.integers(-2, 12))


def _examples(f):
    for x in (*NON_INTEGERS, -1):
        f = example(x=x)(f)
    return f


def _returns(call, x) -> bool:
    """True if ``call(x)`` returns, False if it raises ``ValueError``; anything else propagates."""
    with alarm(2):
        try:
            call(x)
        except ValueError:
            return False
    return True


@pytest.mark.parametrize("name", list(TAKERS))
@settings(max_examples=12, deadline=None)
@_examples
@given(x=COUNTS)
def test_counts_are_integers_or_refused(name, x):
    call = TAKERS[name]
    if isinstance(x, bool) or not isinstance(x, int):
        with alarm(2), pytest.raises(ValueError, match="must be an integer"):
            call(x)
        return
    returned = _returns(call, x)
    for numpy_int in (np.int64(x), np.int32(x), np.array(x)):
        assert _returns(call, numpy_int) == returned


# each ends with the flag whose value is under test
FLAGS = {
    "extremal --n": ["extremal", "--n"],
    "centrality --n": ["centrality", "--generate", "star", "--n"],
    "centrality --l": ["centrality", "--generate", "l_star", "--n", "8", "--l"],
    "simulate --T": ["simulate", "--generate", "star", "--n", "5", "--qa", "2", "--qb", "1", "--T"],
}


@pytest.mark.parametrize("name", list(FLAGS))
@settings(max_examples=12, deadline=None)
@_examples
@given(x=COUNTS)
def test_count_flags_exit_0_or_2(name, x):
    *argv, flag = FLAGS[name]
    out, err = io.StringIO(), io.StringIO()
    with alarm(2), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([*argv, f"{flag}={x}"])
        except SystemExit as exc:  # argparse refuses a value that int() does not parse
            code = exc.code
    if isinstance(x, (bool, float)):  # "True", "2.0", "nan", ...; the text "3" is an integer
        assert code == EXIT_INVALID
    else:
        assert code in (EXIT_OK, EXIT_INVALID)


@pytest.mark.parametrize("x", [0, 7, np.int64(7), np.uint8(7), np.array(7), np.array(7, np.int8)])
def test_require_count_returns_an_int(x):
    i = require_count("n", x, 0)
    assert type(i) is int and i == int(x)


@pytest.mark.parametrize(
    "x, least, message",
    [
        (-1, 0, "n must be nonnegative, got -1"),
        (np.int64(1), 2, "n must be at least 2, got 1"),
        (np.array([3]), 0, "n must be an integer, got array([3])"),
        (np.array(3.0), 0, "n must be an integer, got array(3.)"),
        (np.bool_(True), 0, "n must be an integer, got np.True_"),
        (None, 0, "n must be an integer, got None"),
    ],
)
def test_require_count_refusals(x, least, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        require_count("n", x, least)
