import re

import numpy as np
import pytest

import fgrnn.sparse
from fgrnn.data import SyntheticConfig, generate_synthetic
from fgrnn.errors import ContractViolation
from fgrnn.graph import Graph, build_laplacians
from fgrnn.sparse import SparseMatrix, power_iteration, spmm

from .reference import (dense_eig_sym, sparse_from_dense, sparse_identity,
                        to_dense)


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
    return sparse_from_dense(a), a


class TestSpmm:
    def test_identity(self):
        x = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(spmm(sparse_identity(3), x), x)

    def test_zero_matrix(self):
        z = sparse_from_dense(np.zeros((3, 3)))
        x = np.ones((3, 4))
        assert np.array_equal(spmm(z, x), np.zeros((3, 4)))

    def test_swap(self):
        a = sparse_from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = spmm(a, np.array([[1.0], [2.0]]))
        assert np.array_equal(out, [[2.0], [1.0]])

    def test_dimension_mismatch(self):
        a = sparse_identity(3)
        with pytest.raises(ContractViolation):
            spmm(a, np.ones((4, 2)))

    @pytest.mark.parametrize("shape", [(4, 4, 3), (2, 4, 3), ()],
                             ids=["3-D", "3-D, rows unlike", "0-D"])
    def test_x_of_other_dimensions_refused(self, shape):
        with pytest.raises(ContractViolation,
                           match=re.escape(f"x of shape {shape} is not")):
            spmm(sparse_identity(4), np.ones(shape))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_product(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 33)
        a = rng.standard_normal((n, n))
        a[rng.random((n, n)) > 0.3] = 0.0
        x = rng.standard_normal((n, rng.integers(1, 5)))
        got = spmm(sparse_from_dense(a), x)
        assert np.max(np.abs(got - a @ x)) < 1e-12

    def test_vector_input(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        x = rng.standard_normal(5)
        got = spmm(sparse_from_dense(a), x)
        assert got.shape == (5,)
        assert np.allclose(got, a @ x, atol=1e-12)


def random_csr(rng, n_rows, n_cols, density):
    """Random CSR matrix; low densities leave rows with no entries."""
    a = rng.standard_normal((n_rows, n_cols))
    a[rng.random((n_rows, n_cols)) > density] = 0.0
    return sparse_from_dense(a)


def add_at_reference(a, x):
    """The scatter-add formulation of spmm, one stored entry at a time."""
    out = np.zeros((a.n_rows, x.shape[1]))
    if a.nnz:
        np.add.at(out, a._row_ids, a.values[:, None] * x[a.col_indices])
    return out


class TestSpmmMatchesScatterAdd:
    """The slot-major kernel adds every output's terms in stored-entry
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
        # no rows, and a square matrix with no entries, by x of any width
        # and a nan in every place: a row with no entries gives +0.0
        for n_rows, n_cols in ((0, 0), (0, 5), (4, 4)):
            a = SparseMatrix(n_rows, n_cols, np.zeros(n_rows + 1, dtype=np.int64),
                             np.zeros(0, dtype=np.int64), np.zeros(0))
            for f in (0, 1, 3):
                x = np.full((n_cols, f), np.nan)
                got, want = spmm(a, x), add_at_reference(a, x)
                assert got.shape == want.shape == (n_rows, f)
                assert got.tobytes() == want.tobytes()
            assert spmm(a, np.full(n_cols, np.nan)).tobytes() == bytes(8 * n_rows)

    def test_no_columns(self):
        got = spmm(sparse_from_dense(np.eye(3)), np.zeros((3, 0)))
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
        a = sparse_from_dense(np.array([[-1.0, 2.0], [0.0, 3.0]]))
        x = np.array([[0.0, -0.0, 1.0], [-0.0, -0.0, -0.0]])
        assert spmm(a, x).tobytes() == add_at_reference(a, x).tobytes()

    def test_leaves_x_unchanged(self):
        # a diagonal matrix gathers every row of x once, in order
        rng = np.random.default_rng(5)
        x = rng.standard_normal((12, 4))
        before = x.copy()
        for a in (random_csr(rng, 12, 12, 0.3),
                  sparse_from_dense(np.diag(rng.uniform(2, 3, 12)))):
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

    @pytest.mark.parametrize("width", range(1, 21))
    def test_every_row_width_and_output_count(self, width):
        # numpy reduces a lone contiguous run of 8 or more terms pairwise,
        # not in order; with terms of many magnitudes a different order
        # changes the last bits, so every shape must still add in order
        rng = np.random.default_rng(900 + width)
        n_cols = width + 3
        for n_outputs in range(1, 9):
            for n_rows in (d for d in range(1, 9) if n_outputs % d == 0):
                cols = np.concatenate([
                    np.sort(rng.choice(n_cols, width, replace=False))
                    for _ in range(n_rows)])
                vals = (rng.standard_normal(n_rows * width)
                        * 10.0 ** rng.uniform(-6, 6, n_rows * width))
                a = SparseMatrix(n_rows, n_cols,
                                 np.arange(n_rows + 1) * width, cols, vals)
                x = rng.standard_normal((n_cols, n_outputs // n_rows))
                assert (spmm(a, x).tobytes()
                        == add_at_reference(a, x).tobytes())
        # a 1 x n matrix times a vector: one output
        row = sparse_from_dense(vals[None, :width])
        v = rng.standard_normal(width)
        assert (spmm(row, v).tobytes()
                == add_at_reference(row, v[:, None])[:, 0].tobytes())

    @pytest.mark.parametrize("f", [1, 3, 30])
    def test_hub_row(self, f):
        # a star: row 0 stores every column, the others two entries each;
        # padding to the widest row would make the plan n x n x f
        n = 1502
        rng = np.random.default_rng(7)
        leaves = np.arange(1, n)
        a = SparseMatrix.from_coo(
            n, n, np.concatenate([np.arange(n), np.zeros(n - 1), leaves]),
            np.concatenate([np.arange(n), leaves, np.zeros(n - 1)]),
            rng.standard_normal(3 * n - 2))
        x = rng.standard_normal((n, f))
        assert spmm(a, x).tobytes() == add_at_reference(a, x).tobytes()
        assert all(w.nbytes <= 16 * a.nnz * w.shape[2]
                   for w in a._slots.values())
        table, padded, tail, _ = fgrnn.sparse._layout(a)
        assert table.nbytes + padded.nbytes <= 32 * a.nnz
        assert len(tail[0]) == n - table.shape[0]

    @pytest.mark.parametrize("block_cols", [1, 2, 3])
    def test_column_blocks(self, monkeypatch, block_cols):
        # a wide x runs a block of columns at a time, the last block short
        rng = np.random.default_rng(11)
        for n_rows in (1, 2, 3, 17):
            a = random_csr(rng, n_rows, 20, 0.6)
            table = fgrnn.sparse._layout(a)[0]
            monkeypatch.setattr(fgrnn.sparse, "_BLOCK_BYTES",
                                block_cols * table.nbytes)
            for f in range(1, 11):
                x = (rng.standard_normal((20, f))
                     * 10.0 ** rng.uniform(-6, 6, (20, f)))
                assert (spmm(a, x).tobytes()
                        == add_at_reference(a, x).tobytes())
                assert (spmm(a, x.T.copy().T).tobytes()
                        == add_at_reference(a, x).tobytes())
            assert all(w.shape[2] <= block_cols for w in a._slots.values())

    def test_wide_product_scratch_is_bounded(self):
        # the training's 10 steps of 3 features, stacked, at the paper's N
        _, graph = generate_synthetic(
            SyntheticConfig(n_nodes=1502, n_frames=2, base_shape="cylinder"))
        op = build_laplacians(graph).first_order
        x = np.random.default_rng(12).standard_normal((1502, 30))
        assert spmm(op, x).tobytes() == add_at_reference(op, x).tobytes()
        assert 1 < len(op._slots)
        assert all(w.nbytes <= fgrnn.sparse._BLOCK_BYTES
                   for w in op._slots.values())

    @pytest.mark.parametrize("shape", ["ring", "grid", "cylinder"])
    @pytest.mark.parametrize("n", [16, 128, 1502])
    def test_package_operators(self, shape, n):
        _, graph = generate_synthetic(
            SyntheticConfig(n_nodes=n, n_frames=2, base_shape=shape))
        laps = build_laplacians(graph)
        rng = np.random.default_rng(n)
        for op in (laps.laplacian, laps.scaled, laps.first_order):
            for f in (1, 3, 30):
                x = rng.standard_normal((n, f))
                assert (spmm(op, x).tobytes()
                        == add_at_reference(op, x).tobytes())

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input(self, bad):
        # row 0 is shorter than the width and reads the bad value in its
        # first column, row 1 stores nothing, row 2 never reads column 0
        a = SparseMatrix(4, 4, np.array([0, 2, 2, 5, 9]),
                         np.array([0, 2, 1, 2, 3, 0, 1, 2, 3]),
                         np.arange(1.0, 10.0))
        x = np.arange(8.0).reshape(4, 2) + 1.0
        x[0, 0] = bad
        with np.errstate(invalid="ignore"):
            got, want = spmm(a, x), add_at_reference(a, x)
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        finite = np.isfinite(want)
        assert got[finite].tobytes() == want[finite].tobytes()
        assert got[1].tobytes() == np.zeros(2).tobytes()
        assert not np.isfinite(got[[0, 3], 0]).any()
        # a 1-row matrix adds its entries in stored order, so it gives the
        # scatter-add's inf or nan
        row = SparseMatrix(1, 4, np.array([0, 3]), np.array([0, 2, 3]),
                           np.array([1.0, -2.0, 3.0]))
        with np.errstate(invalid="ignore"):
            got, want = spmm(row, x), add_at_reference(row, x)
        assert got.tobytes() == want.tobytes()
        assert not np.isfinite(got[0, 0]) and np.isfinite(got[0, 1])


class TestPowerIteration:
    def test_diagonal(self):
        a = sparse_from_dense(np.diag([1.0, 3.0]))
        lam, ok = power_iteration(a)
        assert ok
        assert lam == pytest.approx(3.0, abs=1e-9)

    def test_k2_laplacian(self):
        lap = sparse_from_dense(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        lam, ok = power_iteration(lap)
        assert lam == pytest.approx(2.0, abs=1e-9)

    def test_zero_matrix(self):
        lam, ok = power_iteration(sparse_from_dense(np.zeros((4, 4))))
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
        a = sparse_from_dense(np.array([[0.0, 2.0], [1.0, 0.0]]))
        with pytest.raises(ContractViolation):
            power_iteration(a)
        # above 64 rows too, wherever the one asymmetric entry is stored
        _, dense = random_sparse_symmetric(100, np.random.default_rng(5))
        dense[40, 60] += 5.0
        with pytest.raises(ContractViolation, match="not symmetric"):
            power_iteration(sparse_from_dense(dense))

    @pytest.mark.parametrize("case", ["ring", "random", "zero"])
    def test_one_product_per_step(self, case, monkeypatch):
        n = 128
        if case == "ring":
            a = build_laplacians(ring_graph(n)).laplacian
        elif case == "random":
            a, _ = random_sparse_symmetric(n, np.random.default_rng(3), 0.05)
        else:
            a = sparse_from_dense(np.zeros((n, n)))
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
        assert np.array_equal(to_dense(a), [[0.0, 5.0], [0.0, 0.0]])

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
        assert np.array_equal(to_dense(a), [[0, 1, 1], [1, 0, 0], [1, 0, 0]])

    def test_column_out_of_range(self):
        with pytest.raises(ContractViolation):
            SparseMatrix(1, 2, np.array([0, 1]), np.array([5]), np.array([1.0]))


@pytest.mark.parametrize("call,fragment", [
    (lambda: power_iteration(SparseMatrix.from_coo(2, 3, [0], [2], [1.0])),
     "square"),
    (lambda: power_iteration(SparseMatrix.from_coo(0, 0, [], [], [])),
     "empty matrix"),
    (lambda: SparseMatrix(2, 2, np.array([0, 2, 1]), np.array([0]),
                          np.array([1.0])), "non-decreasing"),
    (lambda: SparseMatrix(1, 2, np.array([0, 1]), np.array([0, 1]),
                          np.array([1.0])), "length mismatch"),
], ids=["power non-square", "power empty", "decreasing offsets",
        "length mismatch"])
def test_guards(call, fragment):
    with pytest.raises(ContractViolation, match=fragment):
        call()
