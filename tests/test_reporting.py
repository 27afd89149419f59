import json
import math
import struct

import numpy as np

from netgame.reporting import to_json


def _doubles(rng, count):
    """Finite doubles from random bit patterns, plus the awkward ones."""
    bits = rng.integers(0, 2**64, size=4 * count, dtype=np.uint64)
    values = [x for x in bits.view(np.float64).tolist() if math.isfinite(x)][:count]
    return values + [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, 0.1, 1 / 3, 1e16, 2.0**53 + 2]


def _bits(xs):
    return [struct.pack("<d", x) for x in xs]


def test_floats_round_trip_bit_for_bit(rng):
    values = _doubles(rng, 2000)
    back = json.loads(to_json({"list": values, "array": np.array(values)}))
    assert _bits(back["list"]) == _bits(values)
    assert _bits(back["array"]) == _bits(values)


def test_numpy_scalars_and_plain_values_round_trip(rng):
    doc = {
        "f64": np.float64(-0.0),
        "f32": np.float32(0.1),
        "i64": np.int64(-(2**62)),
        "u8": np.uint8(255),
        "bools": [True, False, np.bool_(True), np.bool_(False)],
        "none": None,
        "empty": {"dict": {}, "list": [], "array": np.zeros(0), "tuple": ()},
        "matrix": np.arange(6).reshape(2, 3),
        "text": 'quote " and \\ backslash',
    }
    back = json.loads(to_json(doc))
    assert back == {
        "f64": 0.0,
        "f32": float(np.float32(0.1)),
        "i64": -(2**62),
        "u8": 255,
        "bools": [True, False, True, False],
        "none": None,
        "empty": {"dict": {}, "list": [], "array": [], "tuple": []},
        "matrix": [[0, 1, 2], [3, 4, 5]],
        "text": 'quote " and \\ backslash',
    }
    assert math.copysign(1.0, back["f64"]) == -1.0
    assert [type(x) for x in back["bools"]] == [bool] * 4


def test_key_order_is_kept_and_output_is_deterministic():
    doc = {"z": 1, "a": [np.float64(0.5)], "m": {"y": 2, "b": 3}}
    text = to_json(doc)
    assert text == to_json(doc)
    assert list(json.loads(text)) == ["z", "a", "m"]
    assert list(json.loads(text)["m"]) == ["y", "b"]
