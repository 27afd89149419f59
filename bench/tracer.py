"""Outside-in spans around calls into netgame's public functions.

The tracer rebinds each function in ``LAYER_FUNCTIONS`` in every
``netgame`` module that imports it, and in the package namespace, but
not in the module that defines it.  So calls that cross a module
boundary (including calls the benchmark makes through ``netgame.<fn>``)
are spanned, while intra-module calls and ``to_json``'s own recursion
count towards their caller's self time.  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

LAYER_FUNCTIONS = {
    "graphs": ("load_graph", "require_valid", "generate"),
    "centrality": ("centrality",),
    "equilibrium": (
        "solve_nash",
        "best_response_quality",
        "water_fill_seeding",
        "symmetric_nash",
    ),
    "dynamics": ("simulate", "discounted_utilities"),
    "allocation": ("allocate_budget",),
    "extremal": ("symmetric_seeding_extremes",),
    "reporting": ("to_json",),
}

# Span fields, in the order each span list stores them.
NAME, START, END, PARENT, OP, RAISED = range(6)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, op id."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self.op, False]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        importlib.import_module("netgame.cli")
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "netgame" or name.startswith("netgame.")
        ]
        patches = []
        try:
            for layer, names in LAYER_FUNCTIONS.items():
                home = sys.modules[f"netgame.{layer}"]
                for fn_name in names:
                    original = getattr(home, fn_name)
                    traced = self.wrap(f"{layer}.{fn_name}", original)
                    for mod in modules:
                        if mod is not home and getattr(mod, fn_name, None) is original:
                            setattr(mod, fn_name, traced)
                            patches.append((mod, fn_name, original))
            yield self
        finally:
            for mod, fn_name, original in reversed(patches):
                setattr(mod, fn_name, original)


def layer_totals(spans: list) -> tuple[dict, float]:
    """Per span name: calls, self seconds and raised count; plus top-level time.

    A span's self time is its duration minus its direct children's
    durations.  Top-level time is what the outermost spans cover.
    """
    self_s = [s[END] - s[START] for s in spans]
    top_level = 0.0
    for s in spans:
        if s[PARENT] >= 0:
            self_s[s[PARENT]] -= s[END] - s[START]
        else:
            top_level += s[END] - s[START]
    totals: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "raised": 0})
    for s, own in zip(spans, self_s):
        entry = totals[s[NAME]]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["raised"] += int(s[RAISED])
    return dict(totals), top_level
