"""Row-stochastic influence graphs: validation, generators and JSON round-trip.

``weights[i, j]`` is how strongly agent j's consumption sways agent i.
Every agent is swayed by someone (rows sum to one), nobody sways
themselves (zero diagonal) and every weight is finite.

A graph is stored sparse, as compressed rows (CSR) of its nonzero
weights, and built from a JSON edge list with no n x n intermediate.
It is checked once, when it is built, in O(n + m) for m edges:
``SocialGraph`` stores the list of invariant violations next to its
read-only arrays, so ``validate_graph`` and ``require_valid`` only read
that verdict.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

ROW_SUM_TOL = 1e-9

KINDS = ("balanced", "star", "l_star", "near_star_one_bidirectional", "random")


class GraphValidationError(ValueError):
    """Raised when an operation requires a valid graph and gets violations."""


@dataclass(frozen=True, init=False, eq=False)
class SocialGraph:
    """Weighted directed influence graph on ``n`` agents, stored as CSR.

    Agent i's influencers are ``indices[indptr[i]:indptr[i + 1]]`` in
    increasing order, with their weights in the same slice of ``data``.
    Only nonzero weights are stored, so a graph with m edges takes
    O(n + m) memory.  ``SocialGraph(n, weights)`` builds one from a dense
    matrix, and ``weights`` returns that dense view.

    Invalid weights still construct a graph; ``violations`` lists what is
    wrong with them (empty for a valid graph), computed once here since
    the arrays are read-only.  ``netgame.centrality`` keeps its last
    solve in a single slot on the graph.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    violations: tuple[str, ...] = field(repr=False)
    _centrality: tuple | None = field(default=None, repr=False)

    def __init__(self, n: int, weights: np.ndarray) -> None:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n, n):
            raise ValueError(f"weights shape {w.shape} does not match n={n}")
        rows, cols = np.nonzero(w)
        self._store(n, rows, cols, w[rows, cols])

    def _store(self, n: int, rows: np.ndarray, cols: np.ndarray, data: np.ndarray) -> None:
        """Keep fresh arrays of the nonzero entries, sorted by row and then column, as CSR."""
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        for name, a in (("indptr", indptr), ("indices", cols), ("data", data)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "violations", _violations(n, rows, cols, data))
        object.__setattr__(self, "_centrality", None)

    def rows(self) -> np.ndarray:
        """The row (influenced agent) of each stored weight, aligned with ``indices``."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    @property
    def weights(self) -> np.ndarray:
        """The dense read-only n x n weights, built on each access in O(n^2)."""
        w = np.zeros((self.n, self.n))
        w[self.rows(), self.indices] = self.data
        w.setflags(write=False)
        return w

    def to_dict(self) -> dict:
        edges = zip(self.rows().tolist(), self.indices.tolist(), self.data.tolist())
        return {"n": self.n, "edges": [list(e) for e in edges]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "SocialGraph":
        """Build from ``{"n": n, "edges": [[i, j, weight], ...]}``.

        Raises ``ValueError`` for a negative ``n``, and for a malformed
        entry, an index outside ``[0, n)`` or a repeated ``(i, j)``, naming
        the first such entry.
        The weights are not checked here; ``violations`` reports them.
        """
        try:
            n = int(data["n"])
            edges = data["edges"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"graph data must have 'n' and 'edges': {exc}") from exc
        if n < 0:
            raise ValueError(f"graph 'n' must be nonnegative, got {n}")
        e = _edge_array(edges)
        ij = e[:, :2]
        outside = ~((ij > -1) & (ij < n)).all(axis=1)
        if outside.any():
            k = int(np.argmax(outside))
            raise ValueError(f"edge ({int(ij[k, 0])}, {int(ij[k, 1])}) out of range for n={n}")
        # indices truncate toward zero, as int() does
        i, j = ij.astype(np.intp).T
        # first occurrence of each distinct (i, j), in row-major order
        _, first = np.unique(i * n + j, return_index=True)
        if len(first) < len(e):
            repeated = np.ones(len(e), dtype=bool)
            repeated[first] = False
            k = int(np.argmax(repeated))
            raise ValueError(f"duplicate edge ({i[k]}, {j[k]})")
        i, j, w = i[first], j[first], e[first, 2]
        nonzero = w != 0.0  # an explicit zero weight is no edge, as in a dense matrix
        g = cls.__new__(cls)
        g._store(n, i[nonzero], j[nonzero], w[nonzero])
        return g

    @classmethod
    def from_json(cls, text: str) -> "SocialGraph":
        return cls.from_dict(json.loads(text))


def _is_edge(entry) -> bool:
    return (
        isinstance(entry, (list, tuple))
        and len(entry) == 3
        and all(isinstance(x, numbers.Real) for x in entry)
        and math.isfinite(entry[0])
        and math.isfinite(entry[1])
    )


def _edge_array(edges) -> np.ndarray:
    """``edges`` as an (m, 3) float array; ``ValueError`` names the first malformed entry."""
    if not isinstance(edges, (list, tuple)):
        raise ValueError(f"graph 'edges' must be a list, got {edges!r}")
    try:
        e = np.array(edges)
    except ValueError:  # ragged entries
        e = None
    if (
        e is not None
        and e.shape == (len(edges), 3)
        and e.dtype.kind in "biuf"
        and np.isfinite(e[:, :2]).all()
    ):
        return e.astype(float, copy=False)
    for entry in edges:
        if not _is_edge(entry):
            raise ValueError(f"edge entry {entry!r} is not [i, j, weight]")
    return np.array(edges, dtype=float).reshape(-1, 3)


def load_graph(path: str) -> SocialGraph:
    """Load a graph file, validating the influence-structure invariants."""
    with open(path, "r", encoding="utf-8") as fh:
        g = SocialGraph.from_json(fh.read())
    require_valid(g)
    return g


def save_graph(g: SocialGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(g.to_json())


def _violations(n: int, rows: np.ndarray, cols: np.ndarray, w: np.ndarray) -> tuple[str, ...]:
    """Every invariant the stored weights break, in a fixed order, in O(n + m).

    The entries are sorted by row and then column, so each kind of
    violation is listed in the order a row-by-row scan of the dense
    matrix meets it.
    """
    if n < 2:
        return (f"n {n} below minimum of 2",)
    violations = [
        f"non-finite weight at ({rows[k]}, {cols[k]})" for k in np.nonzero(~np.isfinite(w))[0]
    ]
    violations += [f"nonzero diagonal at {rows[k]}" for k in np.nonzero(rows == cols)[0]]
    violations += [f"negative weight at ({rows[k]}, {cols[k]})" for k in np.nonzero(w < 0.0)[0]]
    sums = np.bincount(rows, w, minlength=n)
    bad_rows = np.nonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
    return tuple(violations + [f"row {i} sum {sums[i]:.6g}" for i in bad_rows])


def validate_graph(g: SocialGraph) -> list[str]:
    """Return a list of invariant violations; empty means the graph is valid.

    The list was computed when ``g`` was built; this returns a copy.
    """
    return list(g.violations)


def require_valid(g: SocialGraph) -> None:
    """Raise ``GraphValidationError`` if ``g`` broke an invariant when it was built."""
    if g.violations:
        raise GraphValidationError("invalid graph: " + "; ".join(g.violations))


def generate(
    kind: str,
    n: int,
    l: int | None = None,
    seed: int | None = None,
    density: float = 0.5,
) -> SocialGraph:
    """Build one of the named influence structures on ``n`` agents.

    balanced
        Directed cycle; everyone sways exactly one other agent with weight 1.
    star
        Agent 0 sways every other agent with weight 1 and is swayed a
        little (1/(n-1)) by each of them.
    l_star
        Agents 0..l-1 form a hub clique swaying each other uniformly;
        everyone else listens to the hubs uniformly (needs 2 <= l <= n-1).
    near_star_one_bidirectional
        Star in which the center's whole out-influence returns to a single
        designated peripheral (agent 1) instead of spreading out.
    random
        Bernoulli(density) off-diagonal pattern with uniform weights,
        rows renormalized; all-zero rows are redrawn.  Deterministic in
        ``seed``.
    """
    if n < 2:
        raise ValueError(f"need at least 2 agents, got n={n}")
    w = np.zeros((n, n))
    if kind == "balanced":
        for i in range(n):
            w[i, (i + 1) % n] = 1.0
    elif kind == "star":
        w[1:, 0] = 1.0
        w[0, 1:] = 1.0 / (n - 1)
    elif kind == "l_star":
        if l is None or not 2 <= l <= n - 1:
            raise ValueError(f"l_star requires 2 <= l <= n-1, got l={l}, n={n}")
        w[:l, :l] = 1.0 / (l - 1)
        np.fill_diagonal(w[:l, :l], 0.0)
        w[l:, :l] = 1.0 / l
    elif kind == "near_star_one_bidirectional":
        w[1:, 0] = 1.0
        w[0, 1] = 1.0
    elif kind == "random":
        rng = np.random.default_rng(seed)
        for i in range(n):
            while True:
                mask = rng.random(n) < density
                mask[i] = False
                if mask.any():
                    break
            row = np.zeros(n)
            row[mask] = rng.uniform(0.1, 1.0, size=int(mask.sum()))
            w[i] = row / row.sum()
    else:
        raise ValueError(f"unknown graph kind {kind!r}; choose from {KINDS}")
    g = SocialGraph(n=n, weights=w)
    require_valid(g)
    return g
