"""Test oracles, written apart from the package's forward pass.

dense_eig_sym and spectral_conv_oracle evaluate the Chebyshev filter in the
frequency domain with LAPACK's eigensolver, sharing no code with the
Chebyshev recurrence. conv_apply, preactivation, fgrnn_step and readout
are the cell one step at a time on cheb_conv / first_order_conv, the
reference that cells.unroll and cells.readout must match bit for bit.
step_loss is one step's loss written out, with a dense Laplacian, the
reference for training's one loss.
"""

import numpy as np

from fgrnn.cells import ACTIVATIONS, ModelParams
from fgrnn.errors import ContractViolation, NumericOverflow
from fgrnn.gconv import ChebFilter, FeatureTransform, cheb_conv, first_order_conv
from fgrnn.graph import LaplacianSet


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
    eigvals, eigvecs = dense_eig_sym(lap.scaled.to_dense())
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
            np.trace(x_hat.T @ lap.laplacian.to_dense() @ x_hat))
    return loss
