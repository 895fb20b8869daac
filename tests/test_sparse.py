import numpy as np
import pytest

import fgrnn.sparse
from fgrnn.errors import ContractViolation
from fgrnn.graph import Graph, build_laplacians
from fgrnn.sparse import SparseMatrix, power_iteration, spmm

from .reference import dense_eig_sym


def ring_graph(n):
    return Graph(n, tuple((i, i + 1, 1.0) for i in range(n - 1))
                 + ((0, n - 1, 1.0),))


def two_product_power_iteration(a, tol=1e-12, max_iter=2000, seed=0):
    """power_iteration as a loop that multiplies by a twice per step:
    (estimate, converged, products)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a.n_rows)
    v /= np.linalg.norm(v)
    lam, products = 0.0, 0
    for _ in range(max_iter):
        w = spmm(a, v)
        products += 1
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0, True, products
        v = w / norm
        lam_new = float(v @ spmm(a, v))
        products += 1
        if abs(lam_new - lam) < tol:
            return lam_new, True, products
        lam = lam_new
    return lam, False, products


def random_sparse_symmetric(n, rng, density=0.4):
    a = rng.standard_normal((n, n))
    a[rng.random((n, n)) > density] = 0.0
    a = 0.5 * (a + a.T)
    return SparseMatrix.from_dense(a), a


class TestSpmm:
    def test_identity(self):
        x = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(spmm(SparseMatrix.identity(3), x), x)

    def test_zero_matrix(self):
        z = SparseMatrix.from_dense(np.zeros((3, 3)))
        x = np.ones((3, 4))
        assert np.array_equal(spmm(z, x), np.zeros((3, 4)))

    def test_swap(self):
        a = SparseMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = spmm(a, np.array([[1.0], [2.0]]))
        assert np.array_equal(out, [[2.0], [1.0]])

    def test_dimension_mismatch(self):
        a = SparseMatrix.identity(3)
        with pytest.raises(ContractViolation):
            spmm(a, np.ones((4, 2)))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_product(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 33)
        a = rng.standard_normal((n, n))
        a[rng.random((n, n)) > 0.3] = 0.0
        x = rng.standard_normal((n, rng.integers(1, 5)))
        got = spmm(SparseMatrix.from_dense(a), x)
        assert np.max(np.abs(got - a @ x)) < 1e-12

    def test_vector_input(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        x = rng.standard_normal(5)
        got = spmm(SparseMatrix.from_dense(a), x)
        assert got.shape == (5,)
        assert np.allclose(got, a @ x, atol=1e-12)


def random_csr(rng, n_rows, n_cols, density):
    """Random CSR matrix; low densities leave rows with no entries."""
    a = rng.standard_normal((n_rows, n_cols))
    a[rng.random((n_rows, n_cols)) > density] = 0.0
    return SparseMatrix.from_dense(a)


def add_at_reference(a, x):
    """The scatter-add formulation of spmm, one stored entry at a time."""
    out = np.zeros((a.n_rows, x.shape[1]))
    if a.nnz:
        np.add.at(out, a._row_ids, a.values[:, None] * x[a.col_indices])
    return out


class TestSpmmMatchesScatterAdd:
    """The segment-sum kernel adds every output's terms in stored-entry
    order, as np.add.at does, so the two agree bit for bit."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_csr(self, seed):
        rng = np.random.default_rng(500 + seed)
        n_rows, n_cols = (int(v) for v in rng.integers(1, 40, size=2))
        a = random_csr(rng, n_rows, n_cols, density=float(rng.uniform(0.02, 0.6)))
        x = rng.standard_normal((n_cols, int(rng.integers(1, 8))))
        assert np.array_equal(spmm(a, x), add_at_reference(a, x))

    def test_rows_without_entries(self):
        rng = np.random.default_rng(1)
        a = SparseMatrix(5, 4, np.array([0, 0, 2, 2, 3, 3]),
                         np.array([1, 3, 0]), rng.standard_normal(3))
        x = rng.standard_normal((4, 3))
        got = spmm(a, x)
        assert np.array_equal(got, add_at_reference(a, x))
        assert np.all(got[[0, 2, 4]] == 0.0)

    def test_no_entries(self):
        a = SparseMatrix(3, 2, np.zeros(4, dtype=np.int64),
                         np.zeros(0, dtype=np.int64), np.zeros(0))
        assert a.nnz == 0
        x = np.ones((2, 5))
        assert np.array_equal(spmm(a, x), add_at_reference(a, x))
        assert np.array_equal(spmm(a, x[:, 0]), np.zeros(3))

    def test_no_columns(self):
        got = spmm(SparseMatrix.from_dense(np.eye(3)), np.zeros((3, 0)))
        assert got.shape == (3, 0) and got.dtype == np.float64

    def test_vector_and_single_column(self):
        rng = np.random.default_rng(2)
        a = random_csr(rng, 17, 11, 0.3)
        x = rng.standard_normal(11)
        expected = add_at_reference(a, x[:, None])
        assert np.array_equal(spmm(a, x), expected[:, 0])
        assert np.array_equal(spmm(a, x[:, None]), expected)

    def test_stacked_columns(self):
        # thirty columns, e.g. ten steps of three features side by side,
        # give each column exactly its own single product
        rng = np.random.default_rng(3)
        a = random_csr(rng, 40, 40, 0.15)
        x = rng.standard_normal((40, 30))
        got = spmm(a, x)
        assert np.array_equal(got, add_at_reference(a, x))
        for j in (0, 13, 29):
            assert np.array_equal(got[:, j], spmm(a, x[:, j]))

    @pytest.mark.parametrize("layout", [
        "transposed", "strided columns", "fortran", "basis slice", "integer"])
    def test_any_memory_layout(self, layout):
        rng = np.random.default_rng(4)
        a = random_csr(rng, 23, 19, 0.2)
        x = {
            "transposed": rng.standard_normal((6, 19)).T,
            "strided columns": rng.standard_normal((19, 18))[:, 1::3],
            "fortran": np.asfortranarray(rng.standard_normal((19, 6))),
            "basis slice": rng.standard_normal((3, 19, 6))[1],
            "integer": rng.integers(-5, 6, size=(19, 6)),
        }[layout]
        # tobytes also tells +0.0 from -0.0, which array_equal does not
        assert spmm(a, x).tobytes() == add_at_reference(a, x).tobytes()

    def test_signed_zeros(self):
        a = SparseMatrix.from_dense(np.array([[-1.0, 2.0], [0.0, 3.0]]))
        x = np.array([[0.0, -0.0, 1.0], [-0.0, -0.0, -0.0]])
        assert spmm(a, x).tobytes() == add_at_reference(a, x).tobytes()

    def test_leaves_x_unchanged(self):
        # a diagonal matrix gathers every row of x once, in order
        rng = np.random.default_rng(5)
        x = rng.standard_normal((12, 4))
        before = x.copy()
        for a in (random_csr(rng, 12, 12, 0.3),
                  SparseMatrix.from_dense(np.diag(rng.uniform(2, 3, 12)))):
            spmm(a, x)
            spmm(a, x[:, 1])
            spmm(a, x[:, ::2])
        assert x.tobytes() == before.tobytes()

    def test_plan_reused_across_widths(self):
        rng = np.random.default_rng(6)
        a = random_csr(rng, 30, 30, 0.2)
        x3, x30 = rng.standard_normal((30, 3)), rng.standard_normal((30, 30))
        first, wide, again = spmm(a, x3), spmm(a, x30), spmm(a, x3)
        assert sorted(a._slots) == [3, 30]
        assert first.tobytes() == again.tobytes()
        assert first.tobytes() == add_at_reference(a, x3).tobytes()
        assert wide.tobytes() == add_at_reference(a, x30).tobytes()


class TestPowerIteration:
    def test_diagonal(self):
        a = SparseMatrix.from_dense(np.diag([1.0, 3.0]))
        lam, ok = power_iteration(a)
        assert ok
        assert lam == pytest.approx(3.0, abs=1e-9)

    def test_k2_laplacian(self):
        lap = SparseMatrix.from_dense(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        lam, ok = power_iteration(lap)
        assert lam == pytest.approx(2.0, abs=1e-9)

    def test_zero_matrix(self):
        lam, ok = power_iteration(SparseMatrix.from_dense(np.zeros((4, 4))))
        assert ok and lam == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 33))
        a, dense = random_sparse_symmetric(n, rng)
        lam, _ = power_iteration(a, tol=1e-14, seed=seed)
        eigvals, _ = dense_eig_sym(dense)
        biggest = eigvals[np.argmax(np.abs(eigvals))]
        assert lam == pytest.approx(biggest, rel=1e-6)

    def test_asymmetric_rejected(self):
        a = SparseMatrix.from_dense(np.array([[0.0, 2.0], [1.0, 0.0]]))
        with pytest.raises(ContractViolation):
            power_iteration(a)
        # above 64 rows too, wherever the one asymmetric entry is stored
        _, dense = random_sparse_symmetric(100, np.random.default_rng(5))
        dense[40, 60] += 5.0
        with pytest.raises(ContractViolation, match="not symmetric"):
            power_iteration(SparseMatrix.from_dense(dense))

    @pytest.mark.parametrize("case", ["ring", "random", "zero"])
    def test_one_product_per_step(self, case, monkeypatch):
        n = 128
        if case == "ring":
            a = build_laplacians(ring_graph(n)).laplacian
        elif case == "random":
            a, _ = random_sparse_symmetric(n, np.random.default_rng(3), 0.05)
        else:
            a = SparseMatrix.from_dense(np.zeros((n, n)))
        want_lam, want_ok, two_products = two_product_power_iteration(a)
        calls = []

        def counted(*args):
            calls.append(args)
            return spmm(*args)

        monkeypatch.setattr(fgrnn.sparse, "spmm", counted)
        lam, ok = power_iteration(a)
        assert lam == want_lam and ok == want_ok
        # the two-product loop makes 2 per step (1 if the first is zero)
        assert len(calls) == two_products // 2 + 1


class TestDenseEigSym:
    def test_diagonal(self):
        vals, vecs = dense_eig_sym(np.diag([5.0, 2.0]))
        assert np.allclose(vals, [2.0, 5.0])
        assert np.allclose(np.abs(vecs), np.array([[0, 1], [1, 0]]), atol=1e-12)

    def test_two_by_two(self):
        vals, _ = dense_eig_sym(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(vals, [0.0, 2.0], atol=1e-12)

    def test_identity(self):
        vals, _ = dense_eig_sym(np.eye(4))
        assert np.allclose(vals, np.ones(4))

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractViolation):
            dense_eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_size_guard(self):
        with pytest.raises(ContractViolation):
            dense_eig_sym(np.eye(65))

    @pytest.mark.parametrize("seed", range(10))
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 33))
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        vals, vecs = dense_eig_sym(a)
        norm = np.linalg.norm(a)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.linalg.norm(a @ vecs - vecs @ np.diag(vals)) < 1e-10 * max(norm, 1)
        assert np.linalg.norm(vecs @ np.diag(vals) @ vecs.T - a) < 1e-9 * max(norm, 1)


class TestCsrInvariants:
    def test_duplicates_summed(self):
        a = SparseMatrix.from_coo(2, 2, [0, 0], [1, 1], [2.0, 3.0])
        assert np.array_equal(a.to_dense(), [[0.0, 5.0], [0.0, 0.0]])

    def test_malformed_offsets_rejected(self):
        with pytest.raises(ContractViolation):
            SparseMatrix(2, 2, np.array([0, 1]), np.array([0]), np.array([1.0]))

    @pytest.mark.parametrize("offsets,cols,bad_row", [
        ([0, 2, 4, 4], [0, 2, 1, 1], 1),  # repeated column
        ([0, 2, 2, 4], [1, 0, 0, 2], 0),  # decreasing column
        ([0, 2, 2, 4], [0, 1, 2, 0], 2),  # after an empty row
    ])
    def test_unsorted_columns_name_the_row(self, offsets, cols, bad_row):
        with pytest.raises(ContractViolation, match=f"row {bad_row}: columns"):
            SparseMatrix(3, 3, np.array(offsets), np.array(cols), np.ones(4))

    def test_column_drop_across_rows_is_valid(self):
        a = SparseMatrix(3, 3, np.array([0, 2, 3, 4]),
                         np.array([1, 2, 0, 0]), np.ones(4))
        assert np.array_equal(a.to_dense(), [[0, 1, 1], [1, 0, 0], [1, 0, 0]])

    def test_column_out_of_range(self):
        with pytest.raises(ContractViolation):
            SparseMatrix(1, 2, np.array([0, 1]), np.array([5]), np.array([1.0]))
