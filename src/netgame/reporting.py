"""Deterministic report serialization.

Reports go through ``json.dumps``, which writes each float as its
shortest repr: the shortest string that parses back to the same double.
So every double round-trips exactly, key order is kept, and identical
inputs produce byte-identical output.
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


def to_json(obj) -> str:
    """Serialize nested dicts/lists/scalars, numpy arrays and scalars included."""
    return json.dumps(obj, indent=2, default=_plain)
