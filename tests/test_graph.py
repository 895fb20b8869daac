import math

import numpy as np
import pytest

from fgrnn import graph
from fgrnn.errors import ContractViolation, ParseError
from fgrnn.graph import (Graph, build_knn_graph, build_laplacians, load_graph,
                         save_graph)
from fgrnn.sparse import power_iteration

from .reference import dense_eig_sym, traced_peak


def random_knn_graph(seed, n=None, k=None):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(6, 33))
    k = k or int(rng.integers(1, min(6, n - 1) + 1))
    return build_knn_graph(rng.standard_normal((n, 3)), k)


class TestKnn:
    def test_collinear(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
        g = build_knn_graph(pts, 1)
        assert {(i, j) for i, j, _ in g.edges} == {(0, 1), (1, 2)}

    def test_complete_graph(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((5, 3))
        g = build_knn_graph(pts, 4)
        assert len(g.edges) == 10

    def test_unit_square(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
        g = build_knn_graph(pts, 2)
        assert {(i, j) for i, j, _ in g.edges} == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_n_not_greater_than_k(self):
        with pytest.raises(ContractViolation):
            build_knn_graph(np.zeros((3, 3)), 3)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_coordinates(self, value):
        pts = np.zeros((5, 3))
        pts[2, 1] = value
        with pytest.raises(ContractViolation, match="non-finite coordinates"):
            build_knn_graph(pts, 2)

    def test_degree_bounds(self):
        # union symmetrization: every node keeps its own k picks, so the
        # degree is at least 1; popular nodes can exceed 2k
        g = random_knn_graph(7, n=20, k=3)
        d = g.degrees()
        assert np.all(d >= 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((10, 3))
        perm = rng.permutation(10)
        g1 = build_knn_graph(pts, 2)
        g2 = build_knn_graph(pts[perm], 2)
        e1 = {(i, j) for i, j, _ in g1.edges}
        e2 = {tuple(sorted((perm[i], perm[j]))) for i, j, _ in g2.edges}
        assert e1 == e2


def knn_reference(points, k):
    """build_knn_graph's edges, one full distance row and lexsort per node."""
    n = len(points)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.sum(diff ** 2, axis=2))
    pairs = set()
    for i in range(n):
        order = np.lexsort((np.arange(n), dist[i]))  # distance, then index
        order = order[order != i][:k]
        pairs.update((min(i, j), max(i, j)) for j in order.tolist())
    return tuple((i, j, 1.0) for i, j in sorted(pairs))


ROWS = graph._KNN_ROWS


# sizes at a block's edge, and sizes of many blocks
@pytest.mark.parametrize("n", [7, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 88,
                               255, 256, 257, 600])
@pytest.mark.parametrize("kind,k", [("random", 6), ("lattice", 6),
                                    ("duplicates", 3), ("duplicates", 9)])
def test_knn_matches_per_row_lexsort(n, kind, k):
    rng = np.random.default_rng(n)
    if kind == "random":
        pts = rng.standard_normal((n, 3))
    elif kind == "lattice":  # many equal distances
        pts = rng.permutation(np.indices((9, 9, 9)).reshape(3, -1).T)[:n] * 1.0
    else:  # few distinct points, so a node can have more twins than k
        pts = rng.integers(0, 3, size=(n, 3)) * 1.0
    k = min(k, n - 1)
    assert build_knn_graph(pts, k).edges == knn_reference(pts, k)


def test_knn_degree_can_reach_n_minus_1():
    # each ring point's nearest neighbour is the centre, at distance 1
    ring = 2.0 * np.pi * np.arange(5) / 5
    pts = np.vstack([[0.0, 0.0, 0.0],
                     np.stack([np.cos(ring), np.sin(ring), 0 * ring], axis=1)])
    g = build_knn_graph(pts, 1)
    assert g.degrees()[0] == 5
    assert min(g.degrees()) >= 1


def test_knn_memory_at_the_paper_size():
    pts = np.random.default_rng(2).standard_normal((1502, 3))
    build_knn_graph(pts, 6)  # allocations of a first call are not the graph's
    g, peak = traced_peak(lambda: build_knn_graph(pts, 6))
    assert g.n_nodes == 1502
    assert peak < 6e6


class TestLaplacians:
    def test_lambda_max_made_once(self, monkeypatch):
        # one power iteration per set: in build_laplacians, or with
        # scaled=False on the first read of any of lambda_max,
        # lambda_max_converged and the scaled Laplacian
        calls = []

        def counted(a):
            calls.append(a)
            return power_iteration(a)

        monkeypatch.setattr(graph, "power_iteration", counted)
        made = build_laplacians(random_knn_graph(4))
        assert calls == [made.laplacian]
        made.lambda_max, made.lambda_max_converged, made.scaled
        calls.clear()
        lap = build_laplacians(random_knn_graph(4), scaled=False)
        assert calls == []
        scaled = lap.scaled
        assert calls == [lap.laplacian]
        lam, converged = power_iteration(lap.laplacian)
        assert (lap.lambda_max, lap.lambda_max_converged) == (lam, converged)
        assert lap.scaled is scaled and len(calls) == 1
        diag = np.diag(np.ones(lap.n_nodes))
        assert (scaled.to_dense().tobytes()
                == (2.0 * lap.laplacian.to_dense() / lam - diag).tobytes())

    def test_k2(self):
        lap = build_laplacians(Graph(2, ((0, 1, 1.0),)))
        assert np.allclose(lap.laplacian.to_dense(), [[1, -1], [-1, 1]])
        assert lap.lambda_max == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(lap.scaled.to_dense(), [[0, -1], [-1, 0]], atol=1e-9)
        assert np.allclose(lap.first_order.to_dense(), [[1, 1], [1, 1]])

    def test_triangle(self):
        g = Graph(3, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))
        lap = build_laplacians(g)
        dense = lap.laplacian.to_dense()
        assert np.allclose(np.diag(dense), 1.0)
        assert np.allclose(dense[0, 1], -0.5)
        vals, _ = dense_eig_sym(dense)
        assert np.allclose(vals, [0.0, 1.5, 1.5], atol=1e-9)

    def test_edgeless(self):
        lap = build_laplacians(Graph(3, ()))
        assert np.allclose(lap.laplacian.to_dense(), np.eye(3))
        assert np.allclose(lap.first_order.to_dense(), np.eye(3))

    @pytest.mark.parametrize("seed", range(10))
    def test_spectrum_in_range(self, seed):
        g = random_knn_graph(seed)
        lap = build_laplacians(g)
        vals, _ = dense_eig_sym(lap.laplacian.to_dense())
        assert vals[0] > -1e-10 and vals[-1] < 2.0 + 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_first_order_complements_laplacian(self, seed):
        lap = build_laplacians(random_knn_graph(50 + seed))
        total = lap.laplacian.to_dense() + lap.first_order.to_dense()
        assert np.max(np.abs(total - 2.0 * np.eye(lap.n_nodes))) <= 1e-14

    def test_symmetric_unit_diagonal(self):
        lap = build_laplacians(random_knn_graph(3))
        dense = lap.laplacian.to_dense()
        assert np.max(np.abs(dense - dense.T)) == 0.0
        assert np.allclose(np.diag(dense), 1.0)


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = random_knn_graph(11)
        path = tmp_path / "g.edges"
        save_graph(g, path)
        g2 = load_graph(path)
        assert g2.n_nodes == g.n_nodes and g2.edges == g.edges
        assert g2.checksum() == g.checksum()

    def test_invalid_graph_rejected(self):
        with pytest.raises(ContractViolation):
            Graph(2, ((0, 1, -1.0),))
        with pytest.raises(ContractViolation):
            Graph(2, ((0, 0, 1.0),))
        with pytest.raises(ContractViolation):
            Graph(2, ((0, 1, 1.0), (0, 1, 2.0)))
        for w in (math.nan, math.inf):
            with pytest.raises(ContractViolation):
                Graph(2, ((0, 1, w),))

    @pytest.mark.parametrize("text,line", [
        ("3 x\n", 1), ("-1 0\n", 1), ("3 2\n0 1 1\nx 1 1\n", 3),
        ("3 1\n0 1.5 1\n", 2), ("3 1\n0 1 w\n", 2)])
    def test_non_numeric_field_names_its_line(self, tmp_path, text, line):
        path = tmp_path / "g.edges"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            load_graph(path)
        assert err.value.line == line

    @pytest.mark.parametrize("text,line,fragment", [
        ("3 1\n0 0 1\n", 2, "bad edge (0, 0)"),
        ("3 2\n0 1 1\n1 3 1\n", 3, "bad edge (1, 3)"),
        ("3 1\n2 1 1\n", 2, "bad edge (2, 1)"),
        ("3 3\n0 1 1\n1 2 1\n0 1 2\n", 4, "duplicate edge (0, 1)"),
        ("3 2\n0 1 1\n0 2 -1\n", 3, "positive and finite"),
        ("3 1\n0 2 inf\n", 2, "positive and finite"),
    ])
    def test_bad_edge_names_its_line(self, tmp_path, text, line, fragment):
        path = tmp_path / "g.edges"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            load_graph(path)
        assert (err.value.line, err.value.path) == (line, path)
        assert fragment in str(err.value)
