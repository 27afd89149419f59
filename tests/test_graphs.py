import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgame import (
    KINDS,
    BudgetSpec,
    GraphValidationError,
    SocialGraph,
    centrality,
    generate,
    load_graph,
    save_graph,
    solve_nash,
)
from netgame.cli import main
from netgame.graphs import require_valid

from conftest import dense_graph, draw_graph


def test_validation_reports_nonzero_diagonal():
    w = np.zeros((3, 3))
    w[0, 0] = 0.5
    w[0, 1] = 0.5
    w[1, 2] = 1.0
    w[2, 0] = 1.0
    assert "nonzero diagonal at 0" in dense_graph(w).violations


def test_validation_reports_row_sum():
    w = np.zeros((3, 3))
    w[0, 1] = 0.9
    w[1, 2] = 1.0
    w[2, 0] = 1.0
    assert "row 0 sum 0.9" in dense_graph(w).violations


def test_validation_reports_negative_weight():
    w = np.zeros((2, 2))
    w[0, 1] = 1.0
    w[1, 0] = -1.0
    assert "negative weight at (1, 0)" in dense_graph(w).violations


def test_validation_rejects_single_agent():
    assert dense_graph(np.zeros((1, 1))).violations == ("n 1 below minimum of 2",)


def test_valid_graph_has_no_violations():
    assert generate("star", 5).violations == ()


@pytest.mark.parametrize("args", [(), (3, np.zeros((3, 3)))])
def test_bare_constructor_names_the_builders(args):
    # graphs come only from the builders; a bare call would leave one with no arrays
    with pytest.raises(TypeError, match="from_csr, from_dict"):
        SocialGraph(*args)


def test_weights_are_read_only():
    g = generate("balanced", 4)
    with pytest.raises(ValueError):
        g.weights[0, 0] = 1.0


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "l_star"])
@pytest.mark.parametrize("n", [2, 3, 7, 15])
def test_generators_produce_valid_graphs(kind, n):
    g = generate(kind, n, seed=0)
    assert g.n == n
    assert g.violations == ()


@pytest.mark.parametrize("n,l", [(3, 2), (7, 3), (15, 3), (15, 14)])
def test_l_star_generator_valid(n, l):
    g = generate("l_star", n, l=l)
    assert g.violations == ()
    # peripherals listen only to hubs, uniformly
    assert np.allclose(g.weights[l:, :l], 1.0 / l)
    assert np.all(g.weights[l:, l:] == 0.0)


def test_l_star_rejects_bad_l():
    for l in (None, 1, 15):
        with pytest.raises(ValueError):
            generate("l_star", 15, l=l)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown graph kind"):
        generate("wheel", 5)


def test_balanced_is_a_cycle():
    g = generate("balanced", 5)
    assert np.array_equal(np.nonzero(g.weights[0])[0], [1])
    assert g.weights.sum(axis=0).tolist() == [1.0] * 5


def test_star_shape():
    g = generate("star", 4)
    assert np.all(g.weights[1:, 0] == 1.0)
    assert np.allclose(g.weights[0, 1:], 1.0 / 3.0)


def test_random_generator_deterministic_in_seed():
    a = generate("random", 9, seed=42, density=0.4)
    b = generate("random", 9, seed=42, density=0.4)
    c = generate("random", 9, seed=43, density=0.4)
    assert np.array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)


def test_random_generator_survives_sparse_density():
    # density low enough that all-zero rows must get redrawn
    g = generate("random", 6, seed=7, density=0.05)
    assert g.violations == ()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 10**6))
def test_json_round_trip(n, seed):
    g = generate("random", n, seed=seed)
    back = SocialGraph.from_json(g.to_json())
    assert back.n == g.n
    assert np.array_equal(back.weights, g.weights)


def test_save_load_round_trip(tmp_path, rng):
    g = draw_graph(rng, 8)
    path = tmp_path / "g.json"
    save_graph(g, str(path))
    back = load_graph(str(path))
    assert np.array_equal(back.weights, g.weights)


def test_load_rejects_invalid_graph(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "edges": [[0, 1, 0.5]]}))
    with pytest.raises(GraphValidationError, match="row 0 sum 0.5"):
        load_graph(str(path))


def test_from_dict_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate edge"):
        SocialGraph.from_dict({"n": 2, "edges": [[0, 1, 0.5], [0, 1, 0.5]]})


def test_from_dict_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        SocialGraph.from_dict({"n": 2, "edges": [[0, 2, 1.0]]})


def test_from_dict_rejects_malformed_entry():
    with pytest.raises(ValueError, match="not \\[i, j, weight\\]"):
        SocialGraph.from_dict({"n": 2, "edges": [[0, 1]]})


def test_from_dict_rejects_negative_n():
    with pytest.raises(ValueError, match="graph 'n' must be nonnegative, got -2"):
        SocialGraph.from_dict({"n": -2, "edges": []})


def test_from_dict_rejects_missing_keys():
    with pytest.raises(ValueError, match="'n' and 'edges'"):
        SocialGraph.from_dict({"edges": []})


def test_require_valid_message_joins_violations():
    w = np.zeros((2, 2))
    w[0, 0] = 1.0
    w[1, 0] = 0.5
    with pytest.raises(GraphValidationError) as exc:
        require_valid(dense_graph(w))
    msg = str(exc.value)
    assert "nonzero diagonal at 0" in msg and "row 1 sum 0.5" in msg


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_validation_reports_non_finite_weight(bad):
    w = np.zeros((2, 2))
    w[0, 1] = bad
    w[1, 0] = 1.0
    assert "non-finite weight at (0, 1)" in dense_graph(w).violations


def test_load_rejects_nan_weight(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"n": 2, "edges": [[0, 1, NaN], [1, 0, 1.0]]}')
    with pytest.raises(GraphValidationError, match="non-finite weight at \\(0, 1\\)"):
        load_graph(str(path))


def test_verdict_is_fixed_at_construction():
    g = generate("star", 5)
    assert g.violations == ()
    bad = dense_graph(np.eye(2))
    assert bad.violations == ("nonzero diagonal at 0", "nonzero diagonal at 1")
    with pytest.raises(dataclasses.FrozenInstanceError):
        bad.violations = ()
    assert not bad.data.flags.writeable


@pytest.mark.parametrize(
    "entry", [5, None, "a,b", [0, None, 1.0], [0, 1, None], ["x", 1, 1.0], [0, 1, "w"],
              [float("nan"), 1, 1.0], {"i": 0, "j": 1, "w": 1.0}]
)
def test_from_dict_rejects_malformed_entry_types(entry):
    edges = [[1, 0, 1.0], entry]
    with pytest.raises(ValueError, match=f"edge entry {re.escape(repr(entry))} is not"):
        SocialGraph.from_dict({"n": 2, "edges": edges})


@pytest.mark.parametrize("edges", [5, None, "edges", {"0": [0, 1, 1.0]}])
def test_from_dict_rejects_edges_that_are_not_a_list(edges):
    with pytest.raises(ValueError, match="'edges' must be a list"):
        SocialGraph.from_dict({"n": 2, "edges": edges})


def from_dict_loop(data: dict) -> SocialGraph:
    """Reference for ``SocialGraph.from_dict``: one edge at a time."""
    try:
        n = int(data["n"])
        edges = data["edges"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"graph data must have 'n' and 'edges': {exc}") from exc
    w = np.zeros((n, n))
    seen = set()
    for entry in edges:
        if len(entry) != 3:
            raise ValueError(f"edge entry {entry!r} is not [i, j, weight]")
        i, j, wt = int(entry[0]), int(entry[1]), float(entry[2])
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        if (i, j) in seen:
            raise ValueError(f"duplicate edge ({i}, {j})")
        seen.add((i, j))
        w[i, j] = wt
    return dense_graph(w)


def _outcome(build, data):
    try:
        return build(data).weights
    except ValueError as exc:
        return str(exc)


def _inject_fault(rng, edges: list, n: int) -> list:
    """One fault at a random position: out of range, duplicate or short entry."""
    edges = [list(e) for e in edges]
    k = int(rng.integers(len(edges)))
    fault = int(rng.integers(4))
    if fault == 0:
        edges[k][int(rng.integers(2))] = int(rng.choice([n, n + 3, -1, -4]))
    elif fault == 1:
        edges.insert(k + 1, list(edges[int(rng.integers(k + 1))]))
    elif fault == 2:
        edges[k] = edges[k][: int(rng.integers(3))]
    else:
        edges[k] = edges[k] + [1.0]
    return edges


def test_from_dict_matches_loop_reference():
    rng = np.random.default_rng(5)
    assert np.array_equal(
        _outcome(SocialGraph.from_dict, {"n": 3, "edges": []}), np.zeros((3, 3))
    )
    faults = 0
    for trial in range(300):
        n = int(rng.integers(3, 25))
        kind = ("random", "star", "l_star")[trial % 3]
        g = generate(kind, n, l=int(rng.integers(2, n)), seed=trial)
        edges = g.to_dict()["edges"]
        rng.shuffle(edges)
        if trial % 2:
            edges = _inject_fault(rng, edges, n)
        data = {"n": n, "edges": edges}
        got, want = _outcome(SocialGraph.from_dict, data), _outcome(from_dict_loop, data)
        if isinstance(want, str):
            faults += 1
            assert got == want
        else:
            assert np.array_equal(got, want)
    assert faults == 150


def violations_dense(w: np.ndarray) -> list[str]:
    """Reference for ``SocialGraph.violations``: a scan of the dense matrix."""
    n = w.shape[0]
    if n < 2:
        return [f"n {n} below minimum of 2"]
    violations = [f"non-finite weight at ({i}, {j})" for i, j in zip(*np.nonzero(~np.isfinite(w)))]
    violations += [f"nonzero diagonal at {i}" for i in np.nonzero(np.diagonal(w) != 0.0)[0]]
    violations += [f"negative weight at ({i}, {j})" for i, j in zip(*np.nonzero(w < 0.0))]
    with np.errstate(invalid="ignore"):  # inf + -inf in one row
        sums = w.sum(axis=1)
    violations += [f"row {i} sum {sums[i]:.6g}" for i in np.nonzero(np.abs(sums - 1.0) > 1e-9)[0]]
    return violations


def _faulty_weights(rng, n: int) -> np.ndarray:
    """A random graph's weights with a few NaN, infinite, negative, diagonal or zeroed entries."""
    w = draw_graph(rng, n).weights.copy()
    for _ in range(int(rng.integers(0, 4))):
        i, j = (int(x) for x in rng.integers(n, size=2))
        w[i, j] = rng.choice([np.nan, np.inf, -np.inf, -0.3, 0.0, 0.7])
    if rng.random() < 0.3:
        w[int(rng.integers(n))] = 0.0
    return w


def test_violations_match_dense_scan():
    rng = np.random.default_rng(9)
    for n in rng.integers(1, 30, size=300):
        w = _faulty_weights(rng, int(n)) if n > 1 else np.zeros((1, 1))
        edges = [[int(i), int(j), float(w[i, j])] for i, j in zip(*np.nonzero(w))]
        rng.shuffle(edges)
        assert list(dense_graph(w).violations) == violations_dense(w)
        assert list(SocialGraph.from_dict({"n": int(n), "edges": edges}).violations) == violations_dense(w)


def test_csr_holds_the_dense_nonzero_pattern():
    rng = np.random.default_rng(3)
    for trial in range(100):
        n = int(rng.integers(2, 30))
        w = _faulty_weights(rng, n)
        edges = [[i, j, float(w[i, j])] for i in range(n) for j in range(n) if rng.random() < 0.5 or w[i, j]]
        rng.shuffle(edges)
        g = SocialGraph.from_dict({"n": n, "edges": edges})
        rows, cols = np.nonzero(w)
        assert np.array_equal(g.indptr, np.concatenate([[0], np.cumsum(np.count_nonzero(w, axis=1))]))
        assert np.array_equal(g.rows(), rows) and np.array_equal(g.indices, cols)
        assert np.array_equal(g.data, w[rows, cols], equal_nan=True)
        assert np.array_equal(g.weights, w, equal_nan=True)
        dense = dense_graph(w)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(g, name), getattr(dense, name), equal_nan=True)
    # an explicit zero weight, either sign, is no edge
    g = SocialGraph.from_dict({"n": 2, "edges": [[0, 1, 1.0], [1, 0, 1.0], [0, 0, -0.0], [1, 1, 0]]})
    assert g.indices.tolist() == [1, 0] and g.to_dict()["edges"] == [[0, 1, 1.0], [1, 0, 1.0]]


def generate_dense(kind: str, n: int, l: int | None = None, seed: int | None = None,
                   density: float = 0.5) -> SocialGraph:
    """Reference for ``generate``: fill the dense n x n matrix, then compress it."""
    w = np.zeros((n, n))
    if kind == "balanced":
        for i in range(n):
            w[i, (i + 1) % n] = 1.0
    elif kind == "star":
        w[1:, 0] = 1.0
        w[0, 1:] = 1.0 / (n - 1)
    elif kind == "l_star":
        w[:l, :l] = 1.0 / (l - 1)
        np.fill_diagonal(w[:l, :l], 0.0)
        w[l:, :l] = 1.0 / l
    elif kind == "near_star_one_bidirectional":
        w[1:, 0] = 1.0
        w[0, 1] = 1.0
    else:
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
    return dense_graph(w)


def _same_csr(a: SocialGraph, b: SocialGraph) -> bool:
    return a.n == b.n and all(
        getattr(a, k).dtype == getattr(b, k).dtype
        and getattr(a, k).tobytes() == getattr(b, k).tobytes()
        for k in ("indptr", "indices", "data")
    )


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 3, 4, 7, 15, 40])
def test_generate_matches_dense_builder_bit_for_bit(kind, n):
    for seed in range(3):
        for l in (range(2, n) if kind == "l_star" else [None]):
            for density in ((0.05, 0.5, 0.9) if kind == "random" else (0.5,)):
                got = generate(kind, n, l=l, seed=seed, density=density)
                assert _same_csr(got, generate_dense(kind, n, l=l, seed=seed, density=density))


def test_from_csr_keeps_the_callers_arrays_writable():
    indptr, indices, data = np.array([0, 1, 2]), np.array([1, 0]), np.array([1.0, 1.0])
    g = SocialGraph.from_csr(2, indptr, indices, data)
    data[0] = 0.5
    assert g.data.tolist() == [1.0, 1.0] and not g.data.flags.writeable


def test_from_csr_drops_explicit_zeros_as_from_dict_does():
    edges = [[0, 1, 1.0], [1, 0, 1.0], [0, 0, -0.0], [1, 1, 0]]
    csr = SocialGraph.from_csr(2, [0, 2, 4], [0, 1, 0, 1], [-0.0, 1.0, 1.0, 0.0])
    assert _same_csr(csr, SocialGraph.from_dict({"n": 2, "edges": edges}))
    assert csr.indptr.tolist() == [0, 1, 2]


@pytest.mark.parametrize("kind", ["random", "l_star", "star"])
def test_npz_round_trip_matches_json_route(tmp_path, kind, example_params):
    g = generate(kind, 15, l=3, seed=4, density=0.3)
    save_graph(g, str(tmp_path / "g.npz"))
    save_graph(g, str(tmp_path / "g.json"))
    from_npz, from_json = load_graph(str(tmp_path / "g.npz")), load_graph(str(tmp_path / "g.json"))
    assert _same_csr(from_npz, g) and _same_csr(from_json, g)
    v_npz, v_json = centrality(from_npz, example_params), centrality(from_json, example_params)
    assert v_npz.values.tobytes() == v_json.values.tobytes()
    assert v_npz.order.tolist() == v_json.order.tolist()
    budget = BudgetSpec(K_a=2.0, K_b=1.0, c_s=1.0, c_q=1.0)
    out_npz = solve_nash(from_npz, example_params, budget).to_dict()
    assert json.dumps(out_npz) == json.dumps(solve_nash(from_json, example_params, budget).to_dict())


def test_npz_file_holds_the_csr_arrays(tmp_path):
    g = generate("star", 4)
    save_graph(g, str(tmp_path / "g.npz"))
    with np.load(tmp_path / "g.npz", allow_pickle=False) as f:
        assert sorted(f.files) == ["data", "indices", "indptr", "n"]
        assert f["n"].shape == () and int(f["n"]) == 4
        assert f["indptr"].tolist() == [0, 3, 4, 5, 6]


def _valid_csr() -> dict:
    """A valid 3-agent graph's CSR arrays, to break one at a time."""
    return {
        "n": np.int64(3),
        "indptr": np.array([0, 2, 3, 4]),
        "indices": np.array([1, 2, 0, 1]),
        "data": np.array([0.5, 0.5, 1.0, 1.0]),
    }


@pytest.mark.parametrize(
    "fault, named",
    [
        ({"indices": None}, "it has no 'indices'"),
        ({"n": np.array([3])}, "graph 'n' must be an integer"),
        ({"n": np.float64(3.0)}, "graph 'n' must be an integer"),
        ({"n": np.int64(-1)}, "graph 'n' must be nonnegative, got -1"),
        ({"indptr": np.array([0, 2, 3])}, "graph 'indptr' has 3 entries, n \\+ 1 = 4"),
        ({"indptr": np.array([[0, 2, 3, 4]])}, "graph 'indptr' must be a 1-d integer array"),
        ({"indices": np.array([1.0, 2.0, 0.0, 1.0])}, "graph 'indices' must be a 1-d integer array"),
        ({"data": np.array(["a", "b", "c", "d"])}, "graph 'data' must be a 1-d real array"),
        ({"data": np.array([0.5, 0.5, 1.0])}, "graph 'data' has 3 entries, 'indices' has 4"),
        ({"indptr": np.array([1, 2, 3, 4])}, "must run from 0 to m=4, got 1 to 4"),
        ({"indptr": np.array([0, 3, 2, 4])}, "graph 'indptr' decreases at row 1"),
        ({"indices": np.array([1, 3, 0, 1])}, "edge \\(0, 3\\) out of range for n=3"),
        ({"indices": np.array([1, 2, -1, 1])}, "edge \\(1, -1\\) out of range for n=3"),
        ({"indices": np.array([2, 1, 0, 1])}, "graph row 0 has unsorted or repeated indices"),
        ({"indices": np.array([1, 1, 0, 1])}, "graph row 0 has unsorted or repeated indices"),
        ({"data": np.array([0.5, np.nan, 1.0, 1.0])}, "non-finite weight at \\(0, 2\\)"),
        ({"data": np.array([0.5, 0.5, 1.0, 1.0], dtype=object)}, "is not a CSR .npz graph"),
    ],
)
def test_npz_structural_faults_exit_2_with_a_netgame_message(tmp_path, capsys, fault, named):
    arrays = {**_valid_csr(), **fault}
    path = tmp_path / "bad.npz"
    np.savez(path, **{k: a for k, a in arrays.items() if a is not None})
    assert main(["centrality", "--graph", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(named, err), err


@pytest.mark.parametrize("content", [b"", b"not a zip", b"PK\x03\x04 truncated"])
def test_npz_file_that_is_no_archive_exits_2(tmp_path, capsys, content):
    path = tmp_path / "bad.npz"
    path.write_bytes(content)
    assert main(["centrality", "--graph", str(path)]) == 2
    assert "is not a CSR .npz graph" in capsys.readouterr().err
