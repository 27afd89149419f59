"""Model parameters and the checks ``require_real``, ``require_count``, ``require_vector``
and ``require_indices``."""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

# qualities and budgets over c_q in [1/_QUALITY_MAX, _QUALITY_MAX] keep (q_a + q_b)**2 normal
_QUALITY_MAX = 2.0**510


@dataclass(frozen=True)
class ModelParams:
    """Payoff curvature, discounting and the minimum admissible quality.

    ``alpha`` and ``beta`` shape each agent's standalone payoff from
    consuming either product, ``delta`` discounts future consumption in
    firm utilities, and ``epsilon`` is the smallest quality a firm may
    choose.  ``1 + alpha <= 2 * beta`` keeps per-agent consumption shares
    inside [0, 1] under best-response updates; ``beta <= alpha`` keeps the
    standalone payoff nondecreasing on the feasible range.  These ranges
    are checked here rather than by ``require_real``'s: two of them join
    alpha and beta, and the refusal lists every broken condition at once.
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
        if self.epsilon < 1.0 / _QUALITY_MAX:
            problems.append(f"epsilon={self.epsilon} is below 2**-510 = {1.0 / _QUALITY_MAX}")
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


def require_qualities(p: ModelParams, q_a, q_b, high: float = math.inf) -> tuple[float, float]:
    """``q_a`` and ``q_b`` as floats; a quality outside [epsilon, high] raises ``ValueError``."""
    return require_real("q_a", q_a, p.epsilon, high), require_real("q_b", q_b, p.epsilon, high)


def require_real(name: str, x, low: float = -math.inf, high: float = math.inf) -> float:
    """``x``, a Python or numpy real or a 0-d array of one, as a finite ``float`` in [low, high].

    The caller widens the range by its own tolerance; a positive-only
    bound is ``math.ulp(0.0)``.  A bool, a string, ``None``, NaN, an
    infinity, an array of one or more dimensions, an integer beyond the
    float range or a value outside the range raises ``ValueError``.
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
    if not low <= f <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {f}")
    return f


def require_count(name: str, x, least: int) -> int:
    """``x`` as an ``int`` of at least ``least``.

    Every agent count, hub count and horizon is checked here.
    Python and numpy integers pass, a 0-d integer array too (a ``.npz``
    graph file stores ``n`` as one).  A bool, a float (2.0 included), a
    string, NaN or a value below ``least`` raises ``ValueError``.
    """
    i = _integer(name, x)
    if i < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {i}")
    return i


def _integer(name: str, x) -> int:
    """``x`` as an ``int``: a Python or numpy integer or a 0-d integer array, not a bool."""
    try:
        if isinstance(x, bool):  # operator.index takes True as 1
            raise TypeError
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None


def require_vector(name: str, x, n: int | None, low: float, high: float) -> np.ndarray:
    """``x`` as a fresh 1-d float64 array of ``n`` entries (any positive number if ``n`` is None).

    A list or tuple has each entry checked by ``require_real``; an array
    must have an integer or float dtype.  Each entry must lie in the
    closed range [low, high], which the caller widens by its own
    tolerance.  Anything else (a scalar, a 2-d or empty array, a bool,
    string, ``None``, complex or object entry, NaN or an infinity)
    raises ``ValueError``.
    """
    if isinstance(x, (list, tuple)):
        # one entry at a time: numpy would read a bool as 0 or 1 and "0" as a number
        x = np.array([require_real(f"{name}[{k}]", v) for k, v in enumerate(x)], dtype=float)
    a = np.asarray(x)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a vector of finite reals, got {x!r}")
    _require_shape(name, a, n)
    a = a.astype(float)
    lo, hi = a.min(), a.max()
    # negated so that NaN, whose comparisons are all false, is refused too
    if not (low <= lo and hi <= high and math.isfinite(lo) and math.isfinite(hi)):
        k = int(np.argmax(~((low <= a) & (a <= high) & np.isfinite(a))))
        raise ValueError(f"{name}[{k}] must be a finite real in [{low}, {high}], got {a[k]}")
    return a


def require_indices(name: str, x, n: int | None, low: int, high: int) -> np.ndarray:
    """``x`` as a fresh 1-d intp array of ``n`` integers in [low, high] (any positive number if None).

    The integer form of ``require_vector``: a list or tuple has each entry
    checked as ``require_count`` checks one, and an array must have an
    integer dtype, so a float (2.0 too), a bool, a string or ``None`` is
    refused.
    """
    if isinstance(x, (list, tuple)):
        # one entry at a time: numpy would read a bool as 0 or 1
        x = [_integer(f"{name}[{k}]", v) for k, v in enumerate(x)]
    a = np.asarray(x)
    if a.dtype.kind not in "iu":
        raise ValueError(f"{name} must be a vector of integers, got {x!r}")
    _require_shape(name, a, n)
    if not (low <= a.min() and a.max() <= high):
        k = int(np.argmax((a < low) | (a > high)))
        raise ValueError(f"{name}[{k}] must be an integer in [{low}, {high}], got {a[k]}")
    return a.astype(np.intp)


def _require_shape(name: str, a: np.ndarray, n: int | None) -> None:
    """Refuse ``a`` unless it is 1-d with ``n`` entries (any positive number if ``n`` is None)."""
    if a.ndim != 1 or a.size == 0 or n is not None and a.size != n:
        need = "a nonempty vector" if n is None else f"a vector of {n} entries"
        raise ValueError(f"{name} must be {need}, got shape {a.shape}")
