"""Test oracles, written apart from the package's forward pass.

dense_eig_sym and spectral_conv_oracle evaluate the Chebyshev filter in the
frequency domain with LAPACK's eigensolver, sharing no code with the
Chebyshev recurrence. conv_apply, preactivation, fgrnn_step and readout
are the cell one step at a time on cheb_conv / first_order_conv, the
reference that cells.unroll, cells.rollout and cells.readout must match
bit for bit.
step_loss is one step's loss written out, with a dense Laplacian, the
reference for training's one loss. whole_file_frames is the frame
reader's fast path as one np.loadtxt over a whole file's bytes, the
reference for the block reader. traced_peak measures the memory a call
takes. sparse_from_dense, sparse_identity and to_dense convert between
the package's CSR matrices and dense arrays.
"""

import io
import tracemalloc
import warnings

import numpy as np

from fgrnn.cells import ACTIVATIONS, ModelParams
from fgrnn.data import _SLOW_ONLY, _frame_header
from fgrnn.errors import ContractViolation, NumericOverflow
from fgrnn.gconv import ChebFilter, FeatureTransform, cheb_conv, first_order_conv
from fgrnn.graph import LaplacianSet
from fgrnn.sparse import SparseMatrix


def sparse_from_dense(a) -> SparseMatrix:
    """The CSR matrix of a's nonzero entries."""
    a = np.asarray(a, dtype=np.float64)
    rows, cols = np.nonzero(np.abs(a) > 0.0)
    return SparseMatrix.from_coo(a.shape[0], a.shape[1], rows, cols,
                                 a[rows, cols])


def sparse_identity(n: int) -> SparseMatrix:
    idx = np.arange(n, dtype=np.int64)
    return SparseMatrix(n, n, np.arange(n + 1, dtype=np.int64), idx,
                        np.ones(n))


def to_dense(a: SparseMatrix) -> np.ndarray:
    out = np.zeros((a.n_rows, a.n_cols))
    out[a._row_ids, a.col_indices] = a.values
    return out


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


def spectral_conv_oracle(lap: LaplacianSet, x: np.ndarray, f: ChebFilter) -> np.ndarray:
    """Frequency-domain evaluation of the Chebyshev filter; test oracle.

    Diagonalizes the scaled Laplacian and applies sum_k theta_k T_k(lam)
    per eigenvalue. Restricted to small graphs by the dense eigensolver.
    """
    n = lap.n_nodes
    if n > 64:
        raise ContractViolation("spectral_conv_oracle: n <= 64 only")
    x = np.asarray(x, dtype=np.float64)
    eigvals, eigvecs = dense_eig_sym(to_dense(lap.scaled))
    # scalar Chebyshev recurrence on each eigenvalue
    response = np.full(n, f.coeffs[0])
    if f.order > 1:
        t_prev, t_cur = np.ones(n), eigvals.copy()
        response = response + f.coeffs[1] * t_cur
        for k in range(2, f.order):
            t_prev, t_cur = t_cur, 2.0 * eigvals * t_cur - t_prev
            response = response + f.coeffs[k] * t_cur
    return eigvecs @ (response[:, None] * (eigvecs.T @ x))


def conv_apply(p: ModelParams, lap: LaplacianSet, x: np.ndarray,
               arr: np.ndarray) -> np.ndarray:
    """The convolution of x with one of p's filter arrays (W, U or V)."""
    if p.conv_family == "chebyshev":
        return cheb_conv(lap, x, ChebFilter(arr))
    return first_order_conv(lap, x, FeatureTransform(arr))


def preactivation(p: ModelParams, lap: LaplacianSet, h_prev: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    a = (conv_apply(p, lap, x, p.W)
         + conv_apply(p, lap, h_prev, p.U)
         + p.b[:, None])
    if not np.all(np.isfinite(a)):
        raise NumericOverflow("non-finite pre-activation")
    return a


def fgrnn_step(p: ModelParams, lap: LaplacianSet, h_prev: np.ndarray,
               x: np.ndarray):
    """One recurrent step; returns (h_tilde, h)."""
    a = preactivation(p, lap, h_prev, x)
    act = ACTIVATIONS[p.activation][0]
    h_tilde = act(a)
    h = p.alpha * h_tilde + p.beta * h_prev
    return h_tilde, h


def readout(p: ModelParams, lap: LaplacianSet, h: np.ndarray) -> np.ndarray:
    return conv_apply(p, lap, h, p.V) + p.z[:, None]


def step_loss(x_hat: np.ndarray, x: np.ndarray, lap: LaplacianSet = None,
              lambda_reg: float = 0.0) -> float:
    """sum((x_hat - x)^2) + lambda_reg * tr(x_hat^T L x_hat), L dense."""
    d = x_hat - x
    loss = float(np.sum(d * d))
    if lambda_reg:
        loss += lambda_reg * float(
            np.trace(x_hat.T @ to_dense(lap.laplacian) @ x_hat))
    return loss


def whole_file_frames(data: bytes):
    """(T, N, F) frames of a frame file's bytes by one np.loadtxt over the
    whole file, or None where data._load_frames_fast leaves the file to
    the per-line parser: a file it does not read as N*T rows of F finite
    values."""
    end = data.find(b"\n")
    if end < 0 or not data.isascii() or any(c in data for c in _SLOW_ONLY):
        return None
    head = data[:end].decode().splitlines()  # a lone \r makes two lines
    if len(head) != 1:
        return None
    try:
        n, f, t_total = _frame_header(head[0], 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a body of no rows
            rows = np.loadtxt(io.BytesIO(data), dtype=np.float64,
                              comments=None, skiprows=1, ndmin=2)
    except ValueError:
        return None
    if rows.shape != (n * t_total, f) or not np.isfinite(rows).all():
        return None
    return rows.reshape(t_total, n, f)


def traced_peak(fn):
    """(fn(), the peak of the memory tracemalloc traced while fn ran)."""
    if tracemalloc.is_tracing():
        raise RuntimeError("traced_peak: tracemalloc is already tracing")
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
