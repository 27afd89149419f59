"""Model parameters and the argument checks ``require_real`` and ``require_count``."""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """Payoff curvature, discounting and the minimum admissible quality.

    ``alpha`` and ``beta`` shape each agent's standalone payoff from
    consuming either product, ``delta`` discounts future consumption in
    firm utilities, and ``epsilon`` is the smallest quality a firm may
    choose.  ``1 + alpha <= 2 * beta`` keeps per-agent consumption shares
    inside [0, 1] under best-response updates; ``beta <= alpha`` keeps the
    standalone payoff nondecreasing on the feasible range.
    """

    alpha: float
    beta: float
    delta: float
    epsilon: float = 1e-6

    def __post_init__(self) -> None:
        for name, x in vars(self).items():
            object.__setattr__(self, name, require_real(name, x))
        problems = []
        if self.beta > self.alpha:
            problems.append(f"beta={self.beta} exceeds alpha={self.alpha}")
        if 1.0 + self.alpha > 2.0 * self.beta:
            problems.append(
                f"1 + alpha = {1.0 + self.alpha} exceeds 2*beta = {2.0 * self.beta}"
            )
        if not 0.0 < self.delta < 1.0:
            problems.append(f"delta={self.delta} outside (0, 1)")
        if self.epsilon <= 0.0:
            problems.append(f"epsilon={self.epsilon} must be positive")
        if problems:
            raise ValueError("invalid model parameters: " + "; ".join(problems))

    def quality_weight(self, n: int) -> float:
        """Discounted weight of relative quality in a firm's total utility.

        This is the coefficient multiplying (q_a - q_b)/(q_a + q_b) in the
        closed-form discounted utility for a population of ``n`` >= 1 agents.
        """
        return (
            self.delta
            * (1.0 + 2.0 * (self.alpha - self.beta))
            * require_count("n", n, 1)
            / (2.0 * (1.0 - self.delta) * (2.0 * self.beta - self.delta))
        )


def require_qualities(p: ModelParams, q_a, q_b) -> tuple[float, float]:
    """``q_a`` and ``q_b`` as floats; a quality below the floor epsilon raises ``ValueError``."""
    q_a, q_b = require_real("q_a", q_a), require_real("q_b", q_b)
    if q_a < p.epsilon or q_b < p.epsilon:
        raise ValueError(f"qualities must be at least epsilon={p.epsilon}: q_a={q_a}, q_b={q_b}")
    return q_a, q_b


def require_real(name: str, x) -> float:
    """``x`` as a finite ``float``: a Python or numpy real, or a 0-d array of one.

    A bool, a string, ``None``, NaN, an infinity, an array of one or more
    dimensions or an integer beyond the float range raises ``ValueError``.
    """
    v = x[()] if isinstance(x, np.ndarray) and x.ndim == 0 else x
    # Python's bool is a numbers.Real, numpy's is not
    real = isinstance(v, float) or isinstance(v, numbers.Real) and not isinstance(v, bool)
    try:
        f = float(v) if real else math.nan
    except OverflowError:  # an integer beyond the float range
        f = math.nan
    if not math.isfinite(f):
        raise ValueError(f"{name} must be a finite real number, got {x!r}")
    return f


def require_count(name: str, x, least: int) -> int:
    """``x`` as an ``int`` of at least ``least``.

    Every agent count, hub count and horizon is checked here.
    Python and numpy integers pass, a 0-d integer array too (a ``.npz``
    graph file stores ``n`` as one).  A bool, a float (2.0 included), a
    string, NaN or a value below ``least`` raises ``ValueError``.
    """
    try:
        if isinstance(x, bool):  # operator.index takes True as 1
            raise TypeError
        i = operator.index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None
    if i < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {i}")
    return i
