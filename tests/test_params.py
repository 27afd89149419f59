import math

import pytest

from netgame import ModelParams
from netgame.params import require_qualities


def test_quality_weight_scales_linearly_in_n(example_params):
    lam1 = example_params.quality_weight(1)
    assert example_params.quality_weight(30) == pytest.approx(30 * lam1, rel=1e-12)


def test_rejects_beta_above_alpha():
    with pytest.raises(ValueError, match="beta=1.5 exceeds alpha=1.2"):
        ModelParams(alpha=1.2, beta=1.5, delta=0.5)


def test_rejects_consumption_share_violation():
    # 1 + alpha must stay under 2*beta
    with pytest.raises(ValueError, match="exceeds 2\\*beta"):
        ModelParams(alpha=2.0, beta=1.2, delta=0.5)


def test_rejects_delta_outside_unit_interval():
    for delta in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="outside"):
            ModelParams(alpha=1.0, beta=1.0, delta=delta)


def test_collects_all_violations():
    with pytest.raises(ValueError) as exc:
        ModelParams(alpha=1.0, beta=2.0, delta=2.0, epsilon=0.0)
    msg = str(exc.value)
    assert "beta=2.0" in msg and "delta=2.0" in msg and "epsilon=0.0" in msg


def test_frozen():
    p = ModelParams(alpha=1.0, beta=1.0, delta=0.5)
    with pytest.raises(AttributeError):
        p.delta = 0.9


def test_quality_floor():
    p = ModelParams(alpha=1.0, beta=1.0, delta=0.5, epsilon=0.01)
    require_qualities(p, 0.01, 1.0)
    with pytest.raises(ValueError, match=r"q_a must lie in \[0.01, inf\], got 0.005"):
        require_qualities(p, 0.005, 1.0)


def test_rejects_nan_curvature_pair():
    # the first field that is no finite real is named
    with pytest.raises(ValueError, match="alpha must be a finite real number, got nan"):
        ModelParams(math.nan, math.nan, 0.5)
    with pytest.raises(ValueError, match="alpha must be a finite real number, got inf"):
        ModelParams(math.inf, math.inf, 0.5)
