"""Deterministic report serialization.

Reports are JSON with a two-space indented layout for dicts and for lists
that hold a dict or a list.  Every other list, which covers every 1-D
array and each row of a 2-D one, is written on one line by json's C
encoder.  Floats are written as their shortest repr: the shortest string
that parses back to the same double.  So every double round-trips
exactly, key order is kept, and identical inputs produce byte-identical
output; the document parses to what ``json.dumps(obj, indent=2)`` gives.
"""

from __future__ import annotations

import json

import numpy as np


def _plain(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)!r}")


_one_line = json.JSONEncoder(default=_plain).encode  # no indent: json's C encoder


def _write(obj, newline: str, out: list[str]) -> None:
    if isinstance(obj, np.ndarray) and obj.ndim > 1:
        obj = list(obj)
    if isinstance(obj, dict) and obj:
        # json writes an int, float, bool or None key as its JSON text in a string
        keys = [_one_line(k if isinstance(k, str) else _one_line(k)) + ": " for k in obj]
        values, brackets = obj.values(), "{}"
    elif isinstance(obj, (list, tuple)) and any(
        isinstance(x, (dict, list, tuple, np.ndarray)) for x in obj
    ):
        keys, values, brackets = [""] * len(obj), obj, "[]"
    else:
        out.append(_one_line(obj))
        return
    inner = newline + "  "
    out.append(brackets[0])
    for i, (key, value) in enumerate(zip(keys, values)):
        out.append(("," if i else "") + inner + key)
        _write(value, inner, out)
    out.append(newline + brackets[1])


def to_json(obj) -> str:
    """Serialize nested dicts/lists/scalars, numpy arrays and scalars included."""
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)
