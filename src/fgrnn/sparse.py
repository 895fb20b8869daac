"""Minimal CSR sparse / dense linear algebra kernel.

Everything downstream (Laplacians, graph convolutions, BPTT) is built on
the two operations here: sparse-times-dense products and power iteration
for the dominant eigenvalue. The stability module's Jacobian products
are dense; their factors are written from a matrix's stored entries.

A product is one gather, one multiply and one reduce over a slot-major
layout. Each matrix keeps, once, a (width, n_rows) column table: slot s
of row i names the column of the row's s-th stored entry, and a row
with fewer entries pads its slots with its first column (column 0 if it
has none). Per column count f of a block (below) it caches a plan: the
entries' values in the same layout, repeated f times, with 0.0 in the
pads. The kernel
gathers x through the table into a (width, n_rows, f) array, multiplies
it in place by the plan and adds the slots with np.add.reduce over axis
0 from +0.0. That reduce adds one slot after another, so each output's
terms meet in stored order; the pads come last and each adds 0.0 * x,
a zero of either sign, to a sum that started at +0.0, which changes no
finite sum. For finite x the result is bit for bit that of summing
values[k] * x[col_k, j] per row in stored order, as np.add.at does;
spmm's docstring says what an inf or nan gives. Pads read x itself,
not a zero row appended to it, as that would copy x on every product.

The width is capped at twice the mean row length, so no plan holds more
than 16 * nnz * f bytes however skewed the rows are; the entries past
the cap (a hub row's tail) are added afterwards with np.add.at, which
adds in index order and so keeps every sum in stored order.

A wide x is gathered a block of columns at a time, each block's copy
at most _BLOCK_BYTES, so a product's scratch memory does not grow with
f. Columns never meet, so blocks change no bit. At the paper's N=1502
the training's steps stacked side by side (30 columns) run in blocks of
4, each with a plan of 4 columns, where one 30-column product would
hold a 3.2 MB copy and cache a 3.2 MB plan.

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
    # spmm's slot-major layout, built on the first product: the column
    # table and the values per slot, the entries past the width cap and
    # the rows with no entries (see _layout)
    _layout: tuple = field(init=False, repr=False, compare=False,
                           default=None)
    # spmm's plan per block width f it has seen: the (width, n_rows, f)
    # weights, padded[s, i] repeated f times, multiplied into the gather
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


def _layout(a: SparseMatrix):
    """(table, padded, tail, empty), spmm's layout of a, built once.

    table and padded are (width, n_rows): slot s of row i holds the column
    and the value of the row's s-th stored entry, or the row's first
    column and 0.0 past its end. width is the longest row, capped at twice
    the mean row length (so 8 * width * n_rows <= 16 * nnz), or 0 for at most
    one row; tail is the (rows, cols, values) of the entries past the cap,
    in stored order, and empty the rows with no entries.
    """
    if a._layout is None:
        rows = a._row_ids
        counts = np.diff(a.row_offsets)
        slot = np.arange(a.nnz) - a.row_offsets[rows]
        # one row is all tail: numpy adds a lone contiguous run pairwise
        width = min(int(counts.max()), 2 * a.nnz // a.n_rows) if a.n_rows > 1 else 0
        head = slot < width
        full = counts > 0
        first = np.zeros(a.n_rows, dtype=np.int64)
        first[full] = a.col_indices[a.row_offsets[:-1][full]]
        table = np.repeat(first[None], width, axis=0)
        table[slot[head], rows[head]] = a.col_indices[head]
        padded = np.zeros((width, a.n_rows))
        padded[slot[head], rows[head]] = a.values[head]
        tail = ~head
        object.__setattr__(a, "_layout", (
            table, padded,
            (rows[tail], a.col_indices[tail], a.values[tail, None]),
            np.flatnonzero(counts == 0)))
    return a._layout


# bytes of gathered terms per block of columns; a block's plan is as big
_BLOCK_BYTES = 1 << 19


def _gather_reduce(a: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """The product of the head of a's layout, built, by x: the gather,
    the multiply by the plan for x's column count and the reduce."""
    table, padded, _, _ = a._layout
    f = x.shape[1]
    weights = a._slots.get(f)
    if weights is None:
        weights = a._slots[f] = np.repeat(padded[:, :, None], f, axis=2)
    terms = x.take(table, axis=0)
    terms *= weights
    return np.add.reduce(terms, axis=0, initial=0.0)


def spmm(a: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse @ dense product; x may be (n,) or (n, f).

    Gathers x through the layout's column table (a copy, so x is never
    written), multiplies the copy in place by the plan's weights and adds
    the slots in order from +0.0, a block of columns at a time when x is
    wide (see the module docstring). Every term is
    values[k] * x[col_k, j] and every sum runs in stored order, so the
    result does not depend on x's memory layout, and for finite x it is
    bit for bit the scatter-add's.

    Non-finite x: the outputs that are inf or nan are exactly those that
    the scatter-add makes inf or nan, since a pad reads only a column its
    row already reads, and a row with no entries gives +0.0 whatever x
    holds. Where a row shorter than the width reads ±inf in its first
    column, its pads add 0.0 * inf, so that output is nan where the
    scatter-add may give ±inf.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ContractViolation(f"spmm: x of shape {x.shape} is not 1-D or 2-D")
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    if a.n_cols != x.shape[0]:
        raise ContractViolation(
            f"spmm: inner dims {a.n_cols} vs {x.shape[0]}")
    f = x.shape[1]
    table, _, (rows, cols, vals), empty = _layout(a)
    step = max(1, _BLOCK_BYTES // max(1, table.nbytes))
    if f <= step:
        out = _gather_reduce(a, x)
    else:
        out = np.empty((a.n_rows, f))
        for j in range(0, f, step):
            # a reduce straight into the strided out is twice as slow
            out[:, j:j + step] = _gather_reduce(
                a, np.ascontiguousarray(x[:, j:j + step]))
    if len(rows):
        np.add.at(out, rows, vals * x[cols])
    if len(empty):
        out[empty] = 0.0
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

