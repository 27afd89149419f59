import json
import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netgame.reporting import _plain, to_json


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


def _oracle(doc) -> str:
    """The schema 2 layout: json's pure-Python encoder, two-space indent throughout."""
    return json.dumps(doc, indent=2, default=_plain)


def _same(a, b) -> bool:
    """Equal parsed JSON: same types, same key order, floats equal bit for bit."""
    if isinstance(a, dict):
        return (isinstance(b, dict) and list(a) == list(b)
                and all(_same(a[k], b[k]) for k in a))
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return isinstance(b, float) and _bits([a]) == _bits([b])
    return type(a) is type(b) and a == b


def _multi_line(x) -> bool:
    """A non-empty dict, or a list that holds a dict or a list."""
    if isinstance(x, dict):
        return bool(x)
    return isinstance(x, list) and any(isinstance(i, (dict, list)) for i in x)


def _lines(x) -> int:
    """Line count of parsed value x in the layout: an opener, its items, a closer."""
    if not _multi_line(x):
        return 1
    return 2 + sum(map(_lines, x.values() if isinstance(x, dict) else x))


def _check_layout(text: str) -> None:
    """Each line is an opener, a closer or one whole value, at two spaces per depth."""
    decoder = json.JSONDecoder()
    depth = 0
    for line in text.split("\n"):
        body = line.lstrip(" ")
        if body[:1] in ("}", "]"):
            depth -= 1
        assert len(line) - len(body) == 2 * depth, line
        body = body.rstrip(",")
        if body.startswith('"'):
            _, end = decoder.raw_decode(body)
            if body[end:end + 2] == ": ":
                body = body[end + 2:]
        if body in ("{", "["):
            depth += 1
        elif body not in ("}", "]"):
            assert not _multi_line(json.loads(body)), line
    assert depth == 0


def _check(doc) -> None:
    text = to_json(doc)
    back, expected = json.loads(text), json.loads(_oracle(doc))
    assert _same(back, expected)
    _check_layout(text)
    # every list that holds no container sits on one line
    assert text.count("\n") + 1 == _lines(back)


def _random_doc(rng):
    doubles = _doubles(rng, 40)
    return {
        "scalars": {"f64": np.float64(doubles[0]), "f32": np.float32(0.1), "i8": np.int8(-7),
                    "u64": np.uint64(2**64 - 1), "b": np.bool_(True), "none": None,
                    "int": 10**30, "text": "π and \"quotes\""},
        "doubles": doubles,
        "array": np.array(doubles),
        "matrix": np.array(doubles[:36]).reshape(6, 6),
        "cube": np.arange(24, dtype=np.int64).reshape(2, 3, 4),
        "ints": np.arange(5, dtype=np.uint8),
        "empty": {"dict": {}, "list": [], "array": np.zeros(0), "tuple": (),
                  "rows": np.zeros((0, 3)), "columns": np.zeros((2, 0))},
        "levels": [{"l": i, "v": doubles[i], "s": np.array(doubles[i:i + 3])} for i in range(3)],
        "mixed": [1, [2.5, np.float64(-0.0)], {}, [], (), {"a": [[], [{}]]}, "x", None],
        "tuple": (np.int64(3), (1.5, 2.5)),
        "keys": {1: "int", 2.5: "float", True: "bool", None: "none"},
    }


def test_layout_parses_to_the_indented_document_bit_for_bit(rng):
    for _ in range(20):
        _check(_random_doc(rng))


def test_top_level_values_and_dict_only_documents():
    for doc in ({}, [], (), np.zeros((2, 2)), [[1]], 1.5, "s", None, [{}]):
        _check(doc)
    # a document without lists keeps the indented layout byte for byte
    doc = {"a": {"b": 1.0, "c": {"d": None, "e": {}}}, "f": np.float64(0.1)}
    assert to_json(doc) == _oracle(doc)


_leaves = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(-(2**70), 2**70)
    | st.booleans()
    | st.none()
    | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
    | st.integers(-(2**31), 2**31 - 1).map(np.int32)
    | st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6).map(np.array)
    | st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda shape: np.ones(shape))
)
_documents = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(doc=_documents)
def test_layout_of_drawn_documents(doc):
    _check(doc)
