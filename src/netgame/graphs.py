"""Row-stochastic influence graphs: validation, generators and file round-trip.

``weights[i, j]`` is how strongly agent j's consumption sways agent i.
Every agent is swayed by someone (rows sum to one), nobody sways
themselves (zero diagonal) and every weight is finite.

A graph is stored sparse, as compressed rows (CSR) of its nonzero
weights, and built from a JSON edge list, from CSR arrays (a ``.npz``
graph file) or by a named generator, with no n x n intermediate.
It is checked once, when it is built, in O(n + m) for m edges: the
structure of outside input, and the weights of every graph, whose
violations ``SocialGraph`` stores next to its read-only arrays, so
``require_valid`` only reads that verdict.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
import zipfile
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .params import require_count, require_real

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
    ``load_graph`` or ``generate``; ``weights`` returns the dense n x n
    view.

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
        raise TypeError("build a SocialGraph with from_csr, from_dict, load_graph or generate")

    @classmethod
    def _store(cls, n: int, rows: np.ndarray, cols: np.ndarray, data: np.ndarray) -> "SocialGraph":
        """The graph owning these intp, intp and float arrays of its entries, sorted by row and then
        column, as read-only CSR.  An explicit zero weight, of either sign, is no edge."""
        nonzero = data != 0.0
        if not nonzero.all():
            rows, cols, data = rows[nonzero], cols[nonzero], data[nonzero]
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        g = cls.__new__(cls)
        # before the freeze: np.bincount copies a read-only array it is given
        object.__setattr__(g, "violations", _violations(n, rows, cols, data))
        for name, a in (("indptr", indptr), ("indices", cols), ("data", data)):
            a.setflags(write=False)
            object.__setattr__(g, name, a)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "_centrality", None)
        return g

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

    @classmethod
    def from_dict(cls, data: dict) -> "SocialGraph":
        """Build from ``{"n": n, "edges": [[i, j, weight], ...]}``.

        Raises ``ValueError`` for an ``n`` that is not a nonnegative
        integer (a float or a bool included), and for an entry that is no
        list, tuple or 1-d array of three reals, no bool, with integer i
        and j (see ``_edge_array``), an index outside ``[0, n)`` or a
        repeated ``(i, j)``, naming the first such entry.
        The weights are not checked here; ``violations`` reports them.
        """
        try:
            n, edges = require_count("graph 'n'", data["n"], 0), data["edges"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"graph data must have 'n' and 'edges': {exc}") from exc
        e = _edge_array(edges)
        if e.size and not (e[:2].min() >= 0 and e[:2].max() < n):
            k = int(np.argmax(((e[:2] < 0) | (e[:2] >= n)).any(axis=0)))
            raise ValueError(f"edge ({int(e[0, k])}, {int(e[1, k])}) out of range for n={n}")
        i, j = e[:2].astype(np.intp)
        # first occurrence of each distinct (i, j), in row-major order
        _, first = np.unique(i * n + j, return_index=True)
        if len(first) < len(i):
            repeated = np.ones(len(i), dtype=bool)
            repeated[first] = False
            k = int(np.argmax(repeated))
            raise ValueError(f"duplicate edge ({i[k]}, {j[k]})")
        return cls._store(n, i[first], j[first], e[2, first])

    @classmethod
    def from_csr(cls, n, indptr, indices, data) -> "SocialGraph":
        """Build from compressed rows: row i's influencers are ``indices[indptr[i]:indptr[i + 1]]``.

        ``n`` is a nonnegative integer, ``indptr`` and ``indices`` 1-d integer
        arrays and ``data`` a 1-d real one, no bool; ``ValueError`` names the
        first fault.  The copies (the caller's arrays stay writable and
        unshared) get ``_csr_graph``'s structure check, as a ``.npz`` file's
        arrays do.  The weights are left to ``violations``.
        """
        n, indptr, indices, data = _csr_kinds(n, indptr, indices, data)
        # copies: the graph makes its arrays read-only, the caller's stay writable
        return _csr_graph(n, indptr.astype(np.intp), indices.astype(np.intp), data.astype(float))


def _csr_kinds(n, indptr, indices, data) -> tuple:
    """``n`` as an ``int`` and the three arrays as numpy arrays, each checked to be of its kind."""
    arrays = [require_count("graph 'n'", n, 0)]
    for name, x, kinds, kind_name in (
        ("indptr", indptr, "iu", "integer"),
        ("indices", indices, "iu", "integer"),
        ("data", data, "iuf", "real"),
    ):
        # numpy reads a bool among numbers as 0 or 1
        if isinstance(x, (list, tuple)) and not {bool, np.bool_}.isdisjoint(map(type, x)):
            raise ValueError(f"graph '{name}' must be a 1-d {kind_name} array, got {x!r}")
        a = np.asarray(x)
        if a.ndim != 1 or a.dtype.kind not in kinds:
            got = f"shape {a.shape} and dtype {a.dtype}"
            raise ValueError(f"graph '{name}' must be a 1-d {kind_name} array, got {got}")
        arrays.append(a)
    return tuple(arrays)


def _csr_graph(n: int, indptr: np.ndarray, cols: np.ndarray, w: np.ndarray) -> SocialGraph:
    """The graph owning these CSR arrays (kept as they are if intp, intp and float), checked in
    O(n + m): ``indptr`` runs monotone from 0 to ``m = len(cols) = len(w)``, and each row's
    indices lie in ``[0, n)`` and strictly increase.  ``ValueError`` names the first fault."""
    indptr, cols = indptr.astype(np.intp, copy=False), cols.astype(np.intp, copy=False)
    w, m = w.astype(float, copy=False), len(cols)
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
    # each index must exceed the one before it, unless it starts a row
    unsorted = np.r_[False, cols[1:] <= cols[:-1]]
    unsorted[indptr[indptr < m]] = False
    if unsorted.any():
        i = rows[int(np.argmax(unsorted))]
        raise ValueError(f"graph row {i} has unsorted or repeated indices")
    return SocialGraph._store(n, rows, cols, w)


def _is_edge(entry) -> bool:
    """Whether ``entry`` is a list, tuple or 1-d array of three reals, no bool, i and j integral."""
    if isinstance(entry, np.ndarray) and entry.ndim == 1:
        entry = entry.tolist()
    if not isinstance(entry, (list, tuple)) or len(entry) != 3:
        return False
    if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in entry):
        return False
    try:
        i, j, _ = map(float, entry)
    except OverflowError:  # an integer beyond the float range
        return False
    return i.is_integer() and j.is_integer()  # NaN and infinity are not


def _edge_array(edges) -> np.ndarray:
    """``edges`` as a (3, m) float array of contiguous rows i, j and weight.

    Lists and tuples of three Python ints and floats, as JSON decodes,
    take one typed pass: flattened once, each item's exact type checked
    (which leaves bools out) and made one float array.  Anything else goes
    through ``_is_edge`` one entry at a time; ``ValueError`` names the
    first entry that is no edge.
    """
    if not isinstance(edges, (list, tuple)):
        raise ValueError(f"graph 'edges' must be a list, got {edges!r}")
    if {list, tuple}.issuperset(map(type, edges)) and {3}.issuperset(map(len, edges)):
        flat = list(chain.from_iterable(edges))
        if {int, float}.issuperset(map(type, flat)):
            with contextlib.suppress(OverflowError):  # an int beyond the float range
                e = np.array(flat, dtype=float).reshape(-1, 3).T.copy()
                if np.isfinite(e[:2]).all() and (np.trunc(e[:2]) == e[:2]).all():
                    return e
    for entry in edges:
        if not _is_edge(entry):
            raise ValueError(
                f"edge entry {entry!r} is not [i, j, weight] with integer i and j, "
                "a real weight and no bool"
            )
    return np.array(edges, dtype=float).reshape(-1, 3).T.copy()


_CSR_KEYS = ("n", "indptr", "indices", "data")


def _is_npz(path) -> bool:
    """Whether ``path`` ends in ``.npz``; a path that is no ``str`` or ``os.PathLike`` of one raises
    ``ValueError`` (``open`` would take a bool or an int as a file descriptor, and close it)."""
    if not isinstance(path, (str, os.PathLike)) or not isinstance(os.fspath(path), str):
        raise ValueError(f"path must be a str or an os.PathLike of one, got {path!r}")
    return os.fspath(path).endswith(".npz")


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
    # the arrays just loaded are no one else's: kept, not copied
    return _csr_graph(*_csr_kinds(*arrays))


def load_graph(path: str) -> SocialGraph:
    """Load a graph file, validating the influence-structure invariants.

    A path ending in ``.npz`` is read as CSR arrays (see ``save_graph``),
    any other path as JSON.
    """
    if _is_npz(path):
        g = _read_npz(path)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.loads(fh.read())
            except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
                raise ValueError(f"graph file {path} is not a JSON graph: {exc}") from exc
        g = SocialGraph.from_dict(data)
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
        fh.write(json.dumps(g.to_dict()))


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
    """Build one of the named influence structures on ``n`` agents; a given ``l`` is in [2, n - 1].

    balanced
        Directed cycle; everyone sways exactly one other agent with weight 1.
    star
        Agent 0 sways every other agent with weight 1 and is swayed a
        little (1/(n-1)) by each of them.
    l_star
        Agents 0..l-1 form a hub clique swaying each other uniformly;
        everyone else listens to the hubs uniformly.
    near_star_one_bidirectional
        Star in which the center's whole out-influence returns to a single
        designated peripheral (agent 1) instead of spreading out.
    random
        Each off-diagonal entry is an edge with chance ``density``, each
        row given that it holds one at least; the weights are U(0.1, 1),
        renormalized per row.  Drawn in one pass, in O(n + m) time and
        memory for m edges, at every density.  Deterministic in ``seed``,
        a nonnegative integer; ``density`` must lie in (0, 1].
    """
    n = require_count("n", n, 2)
    # checked whatever the kind; at a density of 0 or below no row gets an edge
    l = None if l is None and kind != "l_star" else require_count("l", l, 2)
    if l is not None and l > n - 1:
        raise ValueError(f"l must be at most n - 1 = {n - 1}, got {l}")
    seed = None if seed is None else require_count("seed", seed, 0)
    density = require_real("density", density, math.ulp(0.0), 1.0)
    # each kind lists its entries' rows, influencers and weights, row by row,
    # in increasing influencer within each row
    if kind == "balanced":
        rows = np.arange(n)
        cols = (rows + 1) % n
        w = np.ones(n)
    elif kind == "star":
        rows = np.r_[np.zeros(n - 1, dtype=np.intp), np.arange(1, n)]
        cols = np.r_[np.arange(1, n), np.zeros(n - 1, dtype=np.intp)]
        w = np.r_[np.full(n - 1, 1.0 / (n - 1)), np.ones(n - 1)]
    elif kind == "l_star":
        hubs = np.arange(l)
        hub_cols = np.tile(hubs, l).reshape(l, l)[~np.eye(l, dtype=bool)]
        rows = np.r_[np.repeat(hubs, l - 1), np.repeat(np.arange(l, n), l)]
        cols = np.r_[hub_cols, np.tile(hubs, n - l)]
        w = np.r_[np.full(l * (l - 1), 1.0 / (l - 1)), np.full((n - l) * l, 1.0 / l)]
    elif kind == "near_star_one_bidirectional":
        rows = np.arange(n)
        cols = np.r_[1, np.zeros(n - 1, dtype=np.intp)]
        w = np.r_[1.0, np.ones(n - 1)]
    elif kind == "random":
        # slot f of a row's n - 1 holds its first edge with chance in proportion to
        # (1 - density)^f, drawn by inverse CDF at rate -(n - 1) log(1 - density), held at
        # 1e-200 or above (f is uniform to 1e-200 there, and below it the draw goes
        # subnormal); each later slot of every row holds an edge with chance density
        rng, L = np.random.default_rng(seed), n - 1
        rate = max(-math.log1p(-density) * L, 1e-200) if density < 1 else math.inf
        x = np.log1p(rng.random(n) * math.expm1(-rate)) * (L / -rate)
        first = np.minimum(x, L - 1).astype(np.intp)
        spare = L - 1 - first  # each row's slots after its first edge, numbered row after row
        total = int(spare.sum())
        later = np.sort(rng.choice(total, rng.binomial(total, density), replace=False))
        row = np.searchsorted(np.cumsum(spare), later, side="right")
        # slot s of row i is key i*L + s
        key = np.concatenate((np.arange(n) * L + first, later + row + 1 + np.cumsum(first)[row]))
        key.sort()
        rows, slot = np.divmod(key, L)
        cols = slot + (slot >= rows)
        w = rng.uniform(0.1, 1.0, len(key))
        w /= np.bincount(rows, w)[rows]
    else:
        raise ValueError(f"unknown graph kind {kind!r}; choose from {KINDS}")
    # built here, so the structure holds; the weights get their check
    g = SocialGraph._store(n, rows, cols, w)
    require_valid(g)
    return g
