"""Vector arguments: 1-d arrays of finite reals in range, or refused with ``ValueError``.

Every vector a public name takes (a state, a seeding, preset tilts,
capacities, a centrality vector and its order, an array of hub counts,
and the CSR arrays of a graph) is fed bools (a bool array too), numeric
strings, ``None``, a dict, a complex array, integers beyond the float
range, NaN, infinities, a 2-d array, a scalar, an empty array, an object
array holding a string, the wrong number of entries where the length is
fixed, and entries outside its range; each must raise ``ValueError``
naming the argument.  A valid vector given as a list, a tuple or an
array of another dtype must give exactly what its float64 (or, for an
integer argument, int64) array gives.  Each call runs under a 2 s alarm,
so a hang fails the test instead of stalling it.
"""

import math
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgame import (
    CentralityVector,
    ModelParams,
    PresetState,
    SocialGraph,
    discounted_utilities,
    generate,
    l_star_centralities,
    max_seeding_capacity_bound,
    simulate,
)
from netgame.params import require_vector

from conftest import alarm, outcome

P = ModelParams(alpha=1.0, beta=1.0, delta=0.5)
G4 = generate("star", 4)
Z4 = np.zeros(4)
ONES4 = np.ones(4)
# a 4-agent graph in CSR: agent 0 listens to 1 and 2, agents 1, 2 and 3 to 0
INDPTR, INDICES, DATA = [0, 2, 3, 4, 5], [1, 2, 0, 0, 0], [0.25, 0.75, 1.0, 1.0, 1.0]


def quarters(lo: int, hi: int, size) -> st.SearchStrategy:
    """Lists of ``size`` quarter steps k/4 with lo <= k <= hi; ``size`` is a length or a range."""
    low, high = (size, size) if isinstance(size, int) else size
    return st.lists(st.integers(lo, hi).map(lambda k: k / 4.0), min_size=low, max_size=high)


class Taker(NamedTuple):
    named: str  # a regex the refusal must match: the argument's name
    call: Callable
    length: int | None  # the entries it needs, or None for any positive number
    valid: st.SearchStrategy  # lists of valid entries
    sample: list  # one valid vector
    integral: bool = False  # entries are integers: an int64 array is the reference form
    outside: tuple = ()  # vectors with an entry out of range
    takes_scalar: bool = False  # a scalar is valid too
    reports_non_finite: bool = False  # NaN and infinities are reported, not refused


TAKERS = {
    "simulate y0": Taker(
        r"^y0\b", lambda x: simulate(G4, P, 2.0, 1.0, x, 3), 4, quarters(-2, 2, 4),
        [0.25, -0.5, 0.0, 0.5], outside=([0.75, 0.0, 0.0, 0.0], [0.0, -0.75, 0.0, 0.0]),
    ),
    **{
        f"discounted_utilities {arg} {mode}": Taker(
            rf"^{arg}\b", call, 4, quarters(0, 2, 4), [0.0, 0.25, 0.5, 0.0],
            outside=([-0.25, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.75]),
        )
        for mode in ("closed_form", "simulated")
        for arg, call in (
            ("s_a", lambda x, m=mode: discounted_utilities(G4, P, 2.0, 1.0, x, Z4, m)),
            ("s_b", lambda x, m=mode: discounted_utilities(G4, P, 2.0, 1.0, Z4, x, m)),
        )
    },
    "PresetState y0": Taker(
        r"^y0\b", lambda x: PresetState(1.0, 2.0, x), None, quarters(-2, 2, (1, 6)),
        [0.25, -0.5, 0.5], outside=([0.75], [0.0, -0.75]),
    ),
    "max_seeding_capacity_bound capacities": Taker(
        r"^capacities\b", lambda x: max_seeding_capacity_bound(4, P, 1.5, x), 4,
        quarters(0, 4, 4), [0.0, 1.0, 0.5, 0.25],
        outside=([-1.0] * 4, [7.0] * 4, [0.5, 0.5, 0.5, 1.25]),
    ),
    "CentralityVector values": Taker(
        r"^values\b", lambda x: CentralityVector(x, [0, 1, 2, 3]), None,
        quarters(1, 24, 4).map(lambda v: sorted(v, reverse=True)), [4.0, 3.0, 1.5, 1.0],
        outside=([4.0, 3.0, 2.0, 0.0], [4.0, 3.0, 2.0, -1.0]),
    ),
    "CentralityVector order": Taker(
        r"^order\b", lambda x: CentralityVector(ONES4, x), 4, st.permutations(range(4)),
        [3, 0, 2, 1], integral=True, outside=([0, 1, 2, 4], [-1, 0, 1, 2]),
    ),
    "l_star_centralities l": Taker(
        r"^l\b", lambda x: l_star_centralities(8, x, P), None,
        st.lists(st.integers(2, 8), min_size=1, max_size=5), [2, 5, 8], integral=True,
        outside=([1, 2], [2, 9]), takes_scalar=True,
    ),
    "SocialGraph.from_csr indptr": Taker(
        r"'indptr'", lambda x: SocialGraph.from_csr(4, x, INDICES, DATA), 5, st.just(INDPTR),
        INDPTR, integral=True,
    ),
    "SocialGraph.from_csr indices": Taker(
        r"'indices'", lambda x: SocialGraph.from_csr(4, INDPTR, x, DATA), 5, st.just(INDICES),
        INDICES, integral=True,
    ),
    # the weights are not checked but reported among the graph's violations,
    # a non-finite one too (test_graphs.py holds that)
    "SocialGraph.from_csr data": Taker(
        r"'data'", lambda x: SocialGraph.from_csr(4, INDPTR, INDICES, x), 5, quarters(-4, 8, 5),
        DATA, reports_non_finite=True,
    ),
}


def _with(sample: list, k: int, x: float) -> np.ndarray:
    a = np.array(sample, dtype=float)
    a[k] = x
    return a


def non_vectors(taker: Taker) -> dict:
    """Inputs that ``taker`` must refuse, by label."""
    sample, m = taker.sample, len(taker.sample)
    bad = {
        "bool list": [True] * m,
        # a bool where the sample has a number: numpy would read it as 0 or 1
        "bool among numbers": [bool(sample[0]), *sample[1:]],
        "bool array": np.ones(m, dtype=bool),
        "numeric strings": ["0"] * m,
        "None": None,
        "dict": {},
        "complex array": np.zeros(m, dtype=complex),
        "integers beyond the float range": [10**400] * m,
        "(n, 1) array": np.array(sample)[:, None],
        "empty array": np.array(sample)[:0],
        "object array holding a string": np.array([*sample[:-1], "0"], dtype=object),
    }
    if not taker.reports_non_finite:
        bad |= {"NaN": _with(sample, 0, math.nan), "inf": _with(sample, m - 1, math.inf),
                "-inf": _with(sample, 0, -math.inf)}
    if not taker.takes_scalar:
        bad["scalar"] = sample[0]
    if taker.length is not None:
        bad["n - 1 entries"] = np.array(sample[:-1])
        bad["n + 1 entries"] = np.array(sample + sample[:1])
    if taker.integral:  # 2.0 is no integer, as for require_count
        bad["float array"] = np.array(sample, dtype=float)
    return bad


CASES = [
    pytest.param(name, x, id=f"{name}-{label}")
    for name, taker in TAKERS.items()
    for label, x in {**non_vectors(taker), **{f"outside {v}": v for v in taker.outside}}.items()
]


@pytest.mark.parametrize("name, x", CASES)
def test_non_vectors_are_refused_naming_the_argument(name, x):
    taker = TAKERS[name]
    with alarm(2), pytest.raises(ValueError) as exc:
        taker.call(x)
    assert re.search(taker.named, str(exc.value)), str(exc.value)


@pytest.mark.parametrize("name", list(TAKERS))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_valid_forms_give_what_the_reference_array_gives(name, data):
    taker = TAKERS[name]
    values = data.draw(taker.valid)
    if taker.integral:
        reference = np.array(values, dtype=np.int64)
        forms = [list(values), tuple(values), np.array(values, dtype=np.int32)]
    else:
        reference = np.array(values, dtype=np.float64)
        forms = [list(values), tuple(values), np.array(values, dtype=np.float32)]
        if all(v.is_integer() for v in values):
            forms += [[int(v) for v in values], np.array(values, dtype=np.int64)]
    expected = outcome(taker.call, reference)
    for form in forms:
        assert outcome(taker.call, form) == expected, form


@pytest.mark.parametrize(
    "values, order, named",
    [
        ([1.0, 2.0], [0, 5], "order[1] must be an integer in [0, 1], got 5"),
        ([3.0, 2.0, 1.0], [0, 0, 1], "order must be a permutation of range(3)"),
        ([3.0, 2.0, 1.0], [2, 1, 0], "values must not increase along order"),
    ],
)
def test_centrality_vector_refuses_what_is_no_ordering(values, order, named):
    # the first raised IndexError; the others were kept, and water_fill_seeding
    # then handed 0.5 to one agent and reported two seeded
    with pytest.raises(ValueError, match=re.escape(named)):
        CentralityVector(values, order)


def test_require_vector_returns_a_fresh_float_array():
    x = np.arange(3)
    a = require_vector("x", x, 3, 0, 2)
    assert a.dtype == np.float64 and a.tolist() == [0.0, 1.0, 2.0]
    a[0] = 9.0
    assert x[0] == 0
    assert require_vector("x", [1, 2**70], None, 0, math.inf).tolist() == [1.0, 2.0**70]
    with pytest.raises(ValueError, match=re.escape("x[1] must be a finite real number, got True")):
        require_vector("x", [0.5, True], None, 0, 1)
