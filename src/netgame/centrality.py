"""Discounted influence centrality and its closed forms for named graphs.

An agent's centrality aggregates the discounted influence it exerts on
others, directly and through chains: v = (I - delta * W^T)^{-1} 1 with
W the influence weights scaled by 1/(2*beta).  It is the exact weight
with which seeding that agent enters a firm's discounted utility, and
it is Katz-Bonacich centrality with attenuation delta/(2*beta) on the
transposed weights.

The vector is the series sum_k r^k b_k in r = delta/(2*beta) < 1/2 over
the powers b_k = (W^T)^k 1, one sparse matvec each at O(m) for m edges.
A graph keeps the K it has used, K*n floats with K <= about 64, so another
(beta, delta) costs one Horner evaluation of K length-n multiply-adds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import SocialGraph, require_valid
from .params import ModelParams, require_count, require_indices, require_vector

_GUARD_TOL = 1e-9
_TAIL_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class CentralityVector:
    """Per-agent centralities plus the agent ordering used by all solvers.

    ``order[0]`` is the most central agent; ties break toward the lower
    agent index so the ordering is deterministic.  ``sorted_values``
    lists the centralities from most to least central.  The solvers
    that take a vector of centralities (``water_fill_seeding``,
    ``best_response_quality``, ``allocate_budget``, ``seeding_capacity``)
    take it as this type, which checks it in O(n): ``values`` must be
    finite and positive, and ``order`` a permutation of range(n) along
    which ``values`` does not increase.  ``centrality`` builds its own
    vectors without that check, which its guards and argsort make hold.
    """

    values: np.ndarray
    order: np.ndarray
    sorted_values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vals = require_vector("values", self.values, None, math.ulp(0.0), math.inf)
        n = len(vals)
        order = require_indices("order", self.order, n, 0, n - 1)
        # n entries in [0, n) are a permutation when none is missing
        if np.count_nonzero(np.bincount(order, minlength=n)) != n:
            raise ValueError(f"order must be a permutation of range({n}), got {self.order!r}")
        self._freeze(vals, order)
        if np.count_nonzero(self.sorted_values[1:] > self.sorted_values[:-1]):
            raise ValueError("values must not increase along order")

    @classmethod
    def _trusted(cls, values: np.ndarray, order: np.ndarray) -> "CentralityVector":
        """The vector owning ``centrality``'s own arrays, built without the public checks."""
        v = cls.__new__(cls)
        v._freeze(values, order)
        return v

    def _freeze(self, values: np.ndarray, order: np.ndarray) -> None:
        for name, arr in (("values", values), ("order", order), ("sorted_values", values[order])):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def total(self) -> float:
        return float(self.values.sum())


def centrality(g: SocialGraph, p: ModelParams) -> CentralityVector:
    """Evaluate the centrality series from the graph's powers and order the agents.

    The evaluation reads only ``p.beta`` and ``p.delta``.  A single slot
    on ``g`` holds the powers b_k computed so far and the last result, so
    a later call on the same graph with the same two values returns that
    result, and one with other values adds powers only when its ratio
    needs more terms than any before.

    The analytic guards are asserted on every evaluation, from kept
    powers or new ones: every entry is at least 1, the total equals
    2*beta*n/(2*beta - delta), and the maximum lies between the balanced
    value and the star-hub value.  A repeated (beta, delta) returns the
    read-only vector that passed them, which they would pass again.  A NaN
    or an infinity fails one, so a fresh result, finite, positive and
    ordered by its stable argsort, skips ``CentralityVector``'s own check.
    """
    require_valid(g)
    key = (p.beta, p.delta)
    slot = g._centrality  # read once: another thread may replace it
    if slot is not None and slot[1] == key:
        return slot[2]
    n = g.n
    r = p.delta / (2.0 * p.beta)
    powers = () if slot is None else slot[0]
    terms = _term_count(n, r) + 1
    if len(powers) < terms:
        powers = _powers(g, powers, terms)
    values = powers[terms - 1].copy()
    for b in reversed(powers[: terms - 1]):  # Horner's rule, highest power first
        values *= r
        values += b
    expected_total = 2.0 * p.beta * n / (2.0 * p.beta - p.delta)
    hub, _ = star_centralities(n, p)
    if values.min() < 1.0 - _GUARD_TOL:
        raise ArithmeticError(f"centrality below 1: {values.min()}")
    if abs(values.sum() - expected_total) > _GUARD_TOL * max(1.0, expected_total):
        raise ArithmeticError(f"centrality total {values.sum()} != {expected_total}")
    if not balanced_centrality(p) - _GUARD_TOL <= values.max() <= hub + _GUARD_TOL:
        raise ArithmeticError(f"top centrality {values.max()} outside bounds")
    # a new tuple each time: a published slot is never changed in place
    order = np.argsort(-values, kind="stable")
    slot = (powers, key, CentralityVector._trusted(values, order))
    object.__setattr__(g, "_centrality", slot)
    return slot[2]


def _term_count(n: int, r: float) -> int:
    """Powers past b_0 that the series for attenuation ``r`` < 1 sums.

    r^k b_k sums to n * r^k, so once the tail n * r^(k+1) / (1 - r) drops
    under _TAIL_TOL, so does every entry's error.
    """
    k, tail = 0, n * r / (1.0 - r)
    while tail >= _TAIL_TOL:
        k, tail = k + 1, tail * r
    return k


def _powers(g: SocialGraph, powers: tuple, count: int) -> tuple:
    """``powers`` extended to b_0 .. b_(count-1), b_k = (W^T)^k 1, as a new tuple.

    Each new power is W^T times the last, one pass over the edges.
    """
    # a writable copy: np.bincount would copy the read-only indices on every product
    rows, cols = g.rows(), g.indices.copy()
    out = list(powers) or [np.ones(g.n)]
    while len(out) < count:
        out.append(np.bincount(cols, g.data * out[-1][rows], minlength=g.n))
    for b in out[len(powers) :]:
        b.setflags(write=False)
    return tuple(out)


def dot(x: np.ndarray, y: np.ndarray) -> float:
    """sum_i x_i * y_i, summed by numpy: BLAS would let its thread count change the last bit."""
    return float(np.multiply(x, y).sum())


def balanced_centrality(p: ModelParams) -> float:
    """Common centrality when every agent has total in-influence 1."""
    return 2.0 * p.beta / (2.0 * p.beta - p.delta)


def star_centralities(n: int, p: ModelParams) -> tuple[float, float]:
    """(hub, peripheral) centralities of the star on n agents (n >= 2)."""
    n = require_count("n", n, 2)
    x = p.delta / (2.0 * p.beta)
    hub = (1.0 + x * (n - 1)) / (1.0 - x * x)
    peripheral = (1.0 + x / (n - 1)) / (1.0 - x * x)
    return hub, peripheral


def l_star_centralities(n: int, l: int | np.ndarray, p: ModelParams) -> tuple:
    """(hub, peripheral) centralities of the l-star on n agents (2 <= l <= n).

    At l = n every agent is a hub (the complete graph), and the hub value
    is the balanced one; an integer array of l gives the array of hub values.
    """
    n = require_count("n", n, 2)
    scalar = np.ndim(l) == 0
    ls = require_indices("l", [l] if scalar else l, None, 2, n)
    l = int(ls[0]) if scalar else ls
    hub = n * p.delta / (l * (2.0 * p.beta - p.delta)) + 1.0
    return hub, 1.0


def closed_form_centrality(
    kind: str, n: int, p: ModelParams, l: int | None = None
) -> dict[str, float]:
    """Known centralities by role for the graphs that admit closed forms (n >= 2)."""
    require_count("n", n, 2)
    l_star = None if l is None else l_star_centralities(n, l, p)  # l is checked for every kind
    if kind == "balanced":
        v = balanced_centrality(p)
        return {"all": v}
    if kind == "star":
        hub, peripheral = star_centralities(n, p)
        return {"hub": hub, "peripheral": peripheral}
    if kind == "l_star":
        if l_star is None:
            raise ValueError("l_star needs l")
        hub, peripheral = l_star
        return {"hub": hub, "peripheral": peripheral}
    raise ValueError(f"no closed form for graph kind {kind!r}")
