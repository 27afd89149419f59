"""Row-stochastic influence graphs: validation, generators and file round-trip.

``weights[i, j]`` is how strongly agent j's consumption sways agent i.
Every agent is swayed by someone (rows sum to one), nobody sways
themselves (zero diagonal) and every weight is finite.

A graph is stored sparse, as compressed rows (CSR) of its nonzero
weights, and built from a JSON edge list, from CSR arrays (a ``.npz``
graph file) or by a named generator, with no n x n intermediate.
It is checked once, when it is built, in O(n + m) for m edges:
``SocialGraph`` stores the list of invariant violations next to its
read-only arrays, so ``require_valid`` only reads that verdict.
"""

from __future__ import annotations

import json
import math
import numbers
import zipfile
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
    O(n + m) memory.  Build one with ``from_csr``, ``from_dict``,
    ``from_json``, ``load_graph`` or ``generate``; ``weights`` returns the
    dense n x n view.

    Invalid weights still construct a graph; ``violations`` lists what is
    wrong with them (empty for a valid graph), computed once here since
    the arrays are read-only.  ``netgame.centrality`` keeps its powers
    (W^T)^k 1 and last result in the slot ``_centrality``, a tuple that is
    replaced whole, never changed in place.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    violations: tuple[str, ...] = field(repr=False)
    _centrality: tuple | None = field(default=None, repr=False)

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError(
            "build a SocialGraph with from_csr, from_dict, from_json, load_graph or generate"
        )

    def _store(self, n: int, rows: np.ndarray, cols: np.ndarray, data: np.ndarray) -> None:
        """Keep fresh arrays of the entries, sorted by row and then column, as CSR.

        An explicit zero weight, of either sign, is no edge, as in a dense matrix.
        """
        nonzero = data != 0.0
        if not nonzero.all():
            rows, cols, data = rows[nonzero], cols[nonzero], data[nonzero]
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
        g = cls.__new__(cls)
        g._store(n, i[first], j[first], e[first, 2])
        return g

    @classmethod
    def from_json(cls, text: str) -> "SocialGraph":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_csr(cls, n, indptr, indices, data) -> "SocialGraph":
        """Build from compressed rows: row i's influencers are ``indices[indptr[i]:indptr[i + 1]]``.

        The structure is checked in O(n + m): ``n`` is a nonnegative
        integer, ``indptr`` and ``indices`` are 1-d integer arrays and
        ``data`` a 1-d real one, ``indptr`` runs monotone from 0 to
        ``m = len(indices) = len(data)``, and each row's indices lie in
        ``[0, n)`` and strictly increase.  ``ValueError`` names the first
        fault.  An explicit zero weight is no edge, as in ``from_dict``.
        The weights are not checked here; ``violations`` reports them.
        """
        n = np.asarray(n)
        if n.shape != () or n.dtype.kind not in "iu":
            raise ValueError(f"graph 'n' must be an integer, got {n!r}")
        n = int(n)
        if n < 0:
            raise ValueError(f"graph 'n' must be nonnegative, got {n}")
        indptr, indices, data = (np.asarray(a) for a in (indptr, indices, data))
        for name, a, kinds, kind_name in (
            ("indptr", indptr, "iu", "integer"),
            ("indices", indices, "iu", "integer"),
            ("data", data, "iuf", "real"),
        ):
            if a.ndim != 1 or a.dtype.kind not in kinds:
                raise ValueError(
                    f"graph '{name}' must be a 1-d {kind_name} array, "
                    f"got shape {a.shape} and dtype {a.dtype}"
                )
        # copies: the graph makes its arrays read-only, the caller's stay writable
        indptr, cols, w = indptr.astype(np.intp), indices.astype(np.intp), data.astype(float)
        m = len(cols)
        if len(w) != m:
            raise ValueError(f"graph 'data' has {len(w)} entries, 'indices' has {m}")
        if len(indptr) != n + 1:
            raise ValueError(f"graph 'indptr' has {len(indptr)} entries, n + 1 = {n + 1}")
        if indptr[0] != 0 or indptr[-1] != m:
            raise ValueError(
                f"graph 'indptr' must run from 0 to m={m}, got {indptr[0]} to {indptr[-1]}"
            )
        counts = np.diff(indptr)
        if (counts < 0).any():
            i = int(np.argmax(counts < 0))
            raise ValueError(f"graph 'indptr' decreases at row {i}")
        rows = np.repeat(np.arange(n), counts)
        outside = (cols < 0) | (cols >= n)
        if outside.any():
            k = int(np.argmax(outside))
            raise ValueError(f"edge ({rows[k]}, {cols[k]}) out of range for n={n}")
        # with every index in range, row-major keys rise iff each row's indices do
        unsorted = np.diff(rows * n + cols) <= 0
        if unsorted.any():
            i = rows[int(np.argmax(unsorted)) + 1]
            raise ValueError(f"graph row {i} has unsorted or repeated indices")
        g = cls.__new__(cls)
        g._store(n, rows, cols, w)
        return g


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


_CSR_KEYS = ("n", "indptr", "indices", "data")


def _is_npz(path: str) -> bool:
    return str(path).endswith(".npz")


def _read_npz(path: str) -> SocialGraph:
    """The graph in a ``.npz`` file of CSR arrays; ``ValueError`` says what is wrong with it."""
    with open(path, "rb") as fh:
        try:
            if not zipfile.is_zipfile(fh):
                raise ValueError("it is not a zip archive")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as f:
                missing = [k for k in _CSR_KEYS if k not in f.files]
                if missing:
                    raise ValueError("it has no " + ", ".join(f"'{k}'" for k in missing))
                arrays = [f[k] for k in _CSR_KEYS]
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ValueError(f"graph file {path} is not a CSR .npz graph: {exc}") from exc
    return SocialGraph.from_csr(*arrays)


def load_graph(path: str) -> SocialGraph:
    """Load a graph file, validating the influence-structure invariants.

    A path ending in ``.npz`` is read as CSR arrays (see ``save_graph``),
    any other path as JSON.
    """
    if _is_npz(path):
        g = _read_npz(path)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            g = SocialGraph.from_json(fh.read())
    require_valid(g)
    return g


def save_graph(g: SocialGraph, path: str) -> None:
    """Write ``g`` as JSON, or, for a path ending in ``.npz``, as CSR arrays.

    The ``.npz`` file holds ``n`` (a 0-d integer array) and ``g``'s
    ``indptr``, ``indices`` and ``data``, written by ``np.savez``.
    """
    if _is_npz(path):
        np.savez(path, n=np.int64(g.n), indptr=g.indptr, indices=g.indices, data=g.data)
        return
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
    # each kind lists its rows' influencer counts, then the influencers and
    # their weights row by row, in increasing index within each row
    ones = np.ones(n - 1)
    if kind == "balanced":
        counts = np.ones(n, dtype=np.intp)
        cols = (np.arange(n) + 1) % n
        w = np.ones(n)
    elif kind == "star":
        counts = np.r_[n - 1, np.ones(n - 1, dtype=np.intp)]
        cols = np.r_[np.arange(1, n), np.zeros(n - 1, dtype=np.intp)]
        w = np.r_[np.full(n - 1, 1.0 / (n - 1)), ones]
    elif kind == "l_star":
        if l is None or not 2 <= l <= n - 1:
            raise ValueError(f"l_star requires 2 <= l <= n-1, got l={l}, n={n}")
        hubs = np.arange(l)
        hub_cols = np.tile(hubs, l).reshape(l, l)[~np.eye(l, dtype=bool)]
        counts = np.r_[np.full(l, l - 1), np.full(n - l, l)]
        cols = np.r_[hub_cols, np.tile(hubs, n - l)]
        w = np.r_[np.full(l * (l - 1), 1.0 / (l - 1)), np.full((n - l) * l, 1.0 / l)]
    elif kind == "near_star_one_bidirectional":
        counts = np.ones(n, dtype=np.intp)
        cols = np.r_[1, np.zeros(n - 1, dtype=np.intp)]
        w = np.r_[1.0, ones]
    elif kind == "random":
        rng = np.random.default_rng(seed)
        counts = np.empty(n, dtype=np.intp)
        row_cols, row_w = [], []
        for i in range(n):
            while True:
                mask = rng.random(n) < density
                mask[i] = False
                if mask.any():
                    break
            row = np.zeros(n)
            row[mask] = rng.uniform(0.1, 1.0, size=int(mask.sum()))
            (nz,) = np.nonzero(mask)
            counts[i] = len(nz)
            row_cols.append(nz)
            row_w.append(row[nz] / row.sum())
        cols, w = np.concatenate(row_cols), np.concatenate(row_w)
    else:
        raise ValueError(f"unknown graph kind {kind!r}; choose from {KINDS}")
    g = SocialGraph.from_csr(n, np.r_[0, np.cumsum(counts)], cols, w)
    require_valid(g)
    return g
