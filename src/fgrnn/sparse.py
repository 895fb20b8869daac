"""Minimal CSR sparse / dense linear algebra kernel.

Everything downstream (Laplacians, graph convolutions, Jacobian products)
is built on the three operations here: sparse-times-dense products,
power iteration for the dominant eigenvalue, and a dense symmetric
eigensolver (LAPACK, through numpy) used as the spectral test oracle for
small matrices.

A product is a gather, one flat multiply and one segment sum. Each matrix
caches, per column count f, a plan: every stored term's output slot and
its value repeated f times. The plan fixes which terms meet in which slot
and in what order, so the result is the same, bit for bit, as summing
values[k] * x[col_k, j] per row in stored order.

All arithmetic is float64; the finite-difference gradient checks in the
training module are unreachable in single precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation


@dataclass(frozen=True)
class SparseMatrix:
    """Compressed sparse row matrix with canonical (sorted, unique) columns."""

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray  # int64, length n_rows+1
    col_indices: np.ndarray  # int64, length nnz
    values: np.ndarray       # float64, length nnz
    # row index of each stored entry, precomputed for vectorized products
    _row_ids: np.ndarray = field(init=False, repr=False, compare=False)
    # spmm's plan per column count f it has seen: (slots, weights), where
    # entry k's j-th term lands in flat slot row_k * f + j and is scaled by
    # weights[k * f + j] = values[k]
    _slots: dict = field(init=False, repr=False, compare=False,
                         default_factory=dict)

    def __post_init__(self):
        ro = np.ascontiguousarray(self.row_offsets, dtype=np.int64)
        ci = np.ascontiguousarray(self.col_indices, dtype=np.int64)
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        object.__setattr__(self, "row_offsets", ro)
        object.__setattr__(self, "col_indices", ci)
        object.__setattr__(self, "values", vals)
        if len(ro) != self.n_rows + 1 or ro[0] != 0 or ro[-1] != len(vals):
            raise ContractViolation("malformed row_offsets")
        if np.any(np.diff(ro) < 0):
            raise ContractViolation("row_offsets must be non-decreasing")
        if len(ci) != len(vals):
            raise ContractViolation("col_indices/values length mismatch")
        if len(ci) and (ci.min() < 0 or ci.max() >= self.n_cols):
            raise ContractViolation("column index out of range")
        row_ids = np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(ro))
        # a column step is checked only between neighbours in the same row
        bad = (np.diff(ci) <= 0) & (row_ids[1:] == row_ids[:-1])
        if bad.any():
            r = row_ids[1:][bad][0]
            raise ContractViolation(f"row {r}: columns not strictly increasing")
        object.__setattr__(self, "_row_ids", row_ids)

    @property
    def nnz(self) -> int:
        return len(self.values)

    @staticmethod
    def from_coo(n_rows, n_cols, rows, cols, vals) -> "SparseMatrix":
        """Build from triplets; duplicate (i, j) entries are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if len(rows):
            keep = np.ones(len(rows), dtype=bool)
            keep[1:] = (np.diff(rows) != 0) | (np.diff(cols) != 0)
            group = np.cumsum(keep) - 1
            merged = np.zeros(group[-1] + 1)
            np.add.at(merged, group, vals)
            rows, cols, vals = rows[keep], cols[keep], merged
        offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.add.at(offsets, rows + 1, 1)
        offsets = np.cumsum(offsets)
        return SparseMatrix(n_rows, n_cols, offsets, cols, vals)

    @staticmethod
    def from_dense(a) -> "SparseMatrix":
        a = np.asarray(a, dtype=np.float64)
        rows, cols = np.nonzero(np.abs(a) > 0.0)
        return SparseMatrix.from_coo(a.shape[0], a.shape[1], rows, cols, a[rows, cols])

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        idx = np.arange(n, dtype=np.int64)
        return SparseMatrix(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        out[self._row_ids, self.col_indices] = self.values
        return out


def spmm(a: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse @ dense product; x may be (n,) or (n, f).

    Gathers the rows of x that the stored entries name (a copy, so x is
    never written), multiplies the copy in place by the plan's weights
    and adds each output slot's terms in stored order from 0.0 with one
    bincount. Every term is values[k] * x[col_k, j] and every sum runs in
    the same order, so the result does not depend on x's memory layout.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    if a.n_cols != x.shape[0]:
        raise ContractViolation(
            f"spmm: inner dims {a.n_cols} vs {x.shape[0]}")
    f = x.shape[1]
    if a.nnz == 0 or f == 0:
        out = np.zeros((a.n_rows, f))
    else:
        plan = a._slots.get(f)
        if plan is None:
            plan = a._slots[f] = (
                (a._row_ids[:, None] * f + np.arange(f)).ravel(),
                np.repeat(a.values, f))
        slots, weights = plan
        terms = x.take(a.col_indices, axis=0).ravel()
        terms *= weights
        out = np.bincount(slots, weights=terms,
                          minlength=a.n_rows * f).reshape(a.n_rows, f)
    return out[:, 0] if squeeze else out


def _check_symmetric(a: SparseMatrix):
    """Reject a matrix unless every |A - A^T| entry is at most 1e-10."""
    if a.n_rows != a.n_cols:
        raise ContractViolation("power_iteration: matrix must be square")
    n, rows, cols = a.n_rows, a._row_ids, a.col_indices
    diff = SparseMatrix.from_coo(n, n, np.concatenate([rows, cols]),
                                 np.concatenate([cols, rows]),
                                 np.concatenate([a.values, -a.values]))
    if diff.nnz and np.max(np.abs(diff.values)) > 1e-10:
        raise ContractViolation("power_iteration: matrix not symmetric")


def power_iteration(a: SparseMatrix, tol: float = 1e-12,
                    max_iter: int = 2000, seed: int = 0):
    """Largest-magnitude eigenvalue of a symmetric sparse matrix.

    Returns (estimate, converged). Convergence is successive Rayleigh
    quotients differing by less than tol. Each step makes one product:
    the Rayleigh quotient's A v is also the next step's iterate before
    normalisation.
    """
    _check_symmetric(a)
    n = a.n_rows
    if n < 1:
        raise ContractViolation("power_iteration: empty matrix")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    w = spmm(a, v)
    lam = 0.0
    for _ in range(max_iter):
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0, True
        v = w / norm
        w = spmm(a, v)
        lam_new = float(v @ w)
        if abs(lam_new - lam) < tol:
            return lam_new, True
        lam = lam_new
    return lam, False


def dense_eig_sym(a: np.ndarray):
    """Eigendecomposition of a small symmetric matrix.

    Returns (eigenvalues ascending, eigenvector matrix V with columns
    matching the eigenvalue order). It shares no code with the Chebyshev
    recurrence, so it can serve as an independent oracle for the
    spectral-domain convolution.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ContractViolation("dense_eig_sym: matrix must be square")
    if n > 64:
        raise ContractViolation("dense_eig_sym: intended for n <= 64")
    if n and np.max(np.abs(a - a.T)) > 1e-12:
        raise ContractViolation("dense_eig_sym: matrix not symmetric")
    eigvals, eigvecs = np.linalg.eigh(a)
    return eigvals, eigvecs
