"""Graph convolution operators, forward and reverse mode.

Two filter families:

  * Chebyshev: y = sum_k theta_k T_k(Ls) x, evaluated with the three-term
    recurrence T_k = 2 Ls T_{k-1} - T_{k-2}; feature dimension preserved.
  * First-order: y = L1 x W, single-hop node mixing composed with a
    dense feature transform W (F_in x F_out).

Both operators are symmetric in the node dimension, which is what makes
the backward formulas below exact.

Each family is written once, as primitives (ChebFamily,
FirstOrderFamily): basis(x) holds every sparse product of a convolution
of x ([T_0 x .. T_{K-1} x], or [L1 x]); combine(c, basis) gives its value
and coeff_grad(c, basis, upstream) its coefficient gradient, both without
a sparse product, where c is the filter's trainable array (Chebyshev
coefficients or first-order weights). conv(c)^T g is
adjoint(pre_adjoint(c, g)), where pre_adjoint is the part that may be
summed across upstreams. pre_adjoint and coeff_grad (which sums) take one
step or a (T, N, F) stack. The convolutions below are built on them, and
BPTT keeps the bases of its forward pass to reuse in reverse (see
training.bptt).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .graph import LaplacianSet
from .sparse import spmm


def over_steps(fn, steps: np.ndarray) -> np.ndarray:
    """fn, a node operator, applied to every step of a (T, N, F) stack as
    one product.

    The steps are stacked column-wise into one (N, T*F) matrix, so the
    operator runs once instead of once per step, and the result is
    returned with the step axis back in front of the node axis. spmm
    treats columns independently, so each step comes out bit for bit as
    fn of that step alone.
    """
    t, n, f = steps.shape
    out = fn(steps.transpose(1, 0, 2).reshape(n, t * f))
    return out.reshape(out.shape[:-2] + (n, t, f)).swapaxes(-3, -2)


@dataclass
class ChebFilter:
    coeffs: np.ndarray  # length K

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=np.float64))
        if self.coeffs.ndim != 1 or len(self.coeffs) < 1:
            raise ContractViolation("ChebFilter needs K >= 1 coefficients")
        if not np.all(np.isfinite(self.coeffs)):
            raise ContractViolation("ChebFilter coefficients must be finite")

    @property
    def order(self) -> int:
        return len(self.coeffs)


@dataclass
class FeatureTransform:
    weights: np.ndarray  # F_in x F_out

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ContractViolation("FeatureTransform weights must be 2-D")
        if not np.all(np.isfinite(self.weights)):
            raise ContractViolation("FeatureTransform weights must be finite")


class ChebFamily:
    """Chebyshev primitives on one graph, for filters of order K.

    basis(x) is [T_0 x, ..., T_{K-1} x], shape (K, N, F): the only part of
    the filter that touches the graph, shared by every filter of the
    family's one order K (a model's W, U and V all have K coefficients). A
    stored basis serves combine (the forward value) and coeff_grad (the
    coefficient gradient) without another sparse product.
    """

    def __init__(self, lap: LaplacianSet, order: int):
        self.scaled = lap.scaled if order > 1 else None  # K=1: no product
        self.order = order

    def basis(self, x: np.ndarray) -> np.ndarray:
        # T_0 x = x, T_1 x = Ls x, T_k x = 2 Ls T_{k-1} x - T_{k-2} x
        out = np.empty((self.order,) + x.shape)
        out[0] = x
        if self.order > 1:
            out[1] = spmm(self.scaled, x)
        for k in range(2, self.order):
            out[k] = 2.0 * spmm(self.scaled, out[k - 1]) - out[k - 2]
        return out

    @staticmethod
    def combine(coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
        acc = coeffs[0] * basis[0]
        for k in range(1, len(coeffs)):
            acc += coeffs[k] * basis[k]
        return acc

    @staticmethod
    def coeff_grad(coeffs: np.ndarray, basis: np.ndarray,
                   upstream: np.ndarray) -> np.ndarray:
        """d<upstream, combine(coeffs, basis)>/d coeffs, shape (K,): one
        matrix-vector product of the flattened basis and upstream."""
        return np.dot(basis.reshape(len(basis), -1), upstream.reshape(-1))

    def pre_adjoint(self, coeffs: np.ndarray, g: np.ndarray) -> np.ndarray:
        """conv(coeffs)^T g, a stack's in one product per order: T_k(Ls)
        is symmetric, so conv^T is the filter itself."""
        basis = over_steps(self.basis, g) if g.ndim == 3 else self.basis(g)
        return self.combine(coeffs, basis)

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """x: pre_adjoint leaves nothing of a Chebyshev adjoint to do."""
        return x


class FirstOrderFamily:
    """First-order primitives: basis(x) is [L1 x], shape (order=1, N, F).

    The node operator op is L1 = I + D^{-1/2} A D^{-1/2}, the paper's
    single-hop operator.
    """

    order = 1

    def __init__(self, lap: LaplacianSet):
        self.op = lap.first_order

    def basis(self, x: np.ndarray) -> np.ndarray:
        return spmm(self.op, x)[None]

    @staticmethod
    def combine(weights: np.ndarray, basis: np.ndarray) -> np.ndarray:
        return basis[0] @ weights

    @staticmethod
    def coeff_grad(weights: np.ndarray, basis: np.ndarray,
                   upstream: np.ndarray) -> np.ndarray:
        """d<upstream, combine(weights, basis)>/d weights, shape (F_in, F_out)."""
        rows = basis[0].reshape(-1, basis.shape[-1])
        return rows.T @ upstream.reshape(-1, upstream.shape[-1])

    @staticmethod
    def pre_adjoint(weights: np.ndarray, g: np.ndarray) -> np.ndarray:
        """g W^T, the adjoint short of op, which acts once on the sum of all
        of a step's upstreams (see adjoint)."""
        return g @ weights.T

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """op x, the one sparse product of an adjoint: x is one step's
        pre_adjoint or a sum of them."""
        return spmm(self.op, x)


def cheb_conv(lap: LaplacianSet, x: np.ndarray, f: ChebFilter) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != lap.n_nodes:
        raise ContractViolation(
            f"cheb_conv: {x.shape[0]} rows vs {lap.n_nodes} nodes")
    fam = ChebFamily(lap, f.order)
    return fam.combine(f.coeffs, fam.basis(x))


def cheb_conv_backward(lap: LaplacianSet, x: np.ndarray, f: ChebFilter,
                       upstream: np.ndarray):
    """Gradients of <upstream, cheb_conv(x)> w.r.t. x and coefficients."""
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != x.shape:
        raise ContractViolation("cheb_conv_backward: upstream shape mismatch")
    fam = ChebFamily(lap, f.order)
    return (fam.adjoint(fam.pre_adjoint(f.coeffs, upstream)),
            fam.coeff_grad(f.coeffs, fam.basis(x), upstream))


def first_order_conv(lap: LaplacianSet, x: np.ndarray,
                     t: FeatureTransform) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != lap.n_nodes:
        raise ContractViolation("first_order_conv: node count mismatch")
    if t.weights.shape[0] != x.shape[1]:
        raise ContractViolation(
            f"first_order_conv: {x.shape[1]} features vs "
            f"{t.weights.shape[0]} weight rows")
    fam = FirstOrderFamily(lap)
    return fam.combine(t.weights, fam.basis(x))


def first_order_conv_backward(lap: LaplacianSet, x: np.ndarray,
                              t: FeatureTransform, upstream: np.ndarray):
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (x.shape[0], t.weights.shape[1]):
        raise ContractViolation("first_order_conv_backward: upstream shape mismatch")
    fam = FirstOrderFamily(lap)
    return (fam.adjoint(fam.pre_adjoint(t.weights, upstream)),
            fam.coeff_grad(t.weights, fam.basis(x), upstream))

