"""Gradient-stability diagnostics for the scalar-recurrent-weight cell.

Restricted to the first-order family with hidden width 1, where the
step Jacobian dh_t/dh_{t-1} = alpha * D_t * u * L1 + beta * I is a
literal N x N matrix (D_t = diag of activation derivatives at step t,
u = the scalar recurrent weight). The product of step Jacobians over a
window governs gradient growth; its condition number is compared to the
closed-form bound

    ((1 + r) / (1 - r))^(T-2),  r = (alpha/beta) * max_t ||D_t u L1||_F^2

which is finite only for r < 1. The product is taken over T-2 factors,
matching the convention used in the growth analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cells import (ACTIVATIONS, ModelParams, conv_family, input_terms,
                    preactivation, unroll)
from .errors import ContractViolation
from .graph import Graph, LaplacianSet, build_laplacians


@dataclass
class StabilityReport:
    sigma_max: float
    sigma_min: float
    condition_number: float  # inf when the product is singular
    bound: float | None      # None when the bound is vacuous
    alpha: float
    beta: float
    horizon: int


def _check_scalar_cell(p: ModelParams, lap: LaplacianSet):
    if p.conv_family != "first_order":
        raise ContractViolation("stability diagnostics need the first_order family")
    if p.U.shape != (1, 1):
        raise ContractViolation("stability diagnostics need hidden width 1")
    if lap.n_nodes > 2048:
        raise ContractViolation("stability diagnostics limited to N <= 2048")
    return float(p.U[0, 0])


def _node_operator_dense(p: ModelParams, lap: LaplacianSet) -> np.ndarray:
    return conv_family(p, lap).op.to_dense()


def _step_factor(p: ModelParams, u: float, d: np.ndarray, op: np.ndarray,
                 eye: np.ndarray) -> np.ndarray:
    return p.alpha * u * (d[:, None] * op) + p.beta * eye


def step_jacobian(p: ModelParams, lap: LaplacianSet, h_prev: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """dh_t/dh_{t-1} = alpha * D_t * u * L1 + beta * I as a dense matrix."""
    u = _check_scalar_cell(p, lap)
    fam = conv_family(p, lap)
    a = preactivation(p, fam, fam.combine(p.W, fam.basis(x)), fam.basis(h_prev))
    act, act_deriv = ACTIVATIONS[p.activation]
    d = act_deriv(act(a))[:, 0]
    return _step_factor(p, u, d, fam.op.to_dense(), np.eye(lap.n_nodes))


def _forward_activation_derivs(p: ModelParams, lap: LaplacianSet,
                               frames: np.ndarray, horizon: int):
    """Runs the cell over `horizon` frames from the zero state; returns the
    per-step derivative diagonals d_t (t = 1..horizon)."""
    act_deriv = ACTIVATIONS[p.activation][1]
    fam = conv_family(p, lap)
    steps = unroll(p, fam, input_terms(p, fam, frames[:horizon]))
    return [act_deriv(step.h_tilde)[:, 0] for step in steps]


def _frobenius_terms(u: float, d_list, op: np.ndarray) -> list:
    """||D_t u L1||_F^2 for each step t."""
    return [float(np.sum((d[:, None] * (u * op)) ** 2)) for d in d_list]


def _bound(p: ModelParams, worst: float, horizon: int) -> float | None:
    r = (p.alpha / p.beta) * worst
    if r >= 1.0:
        return None
    return ((1.0 + r) / (1.0 - r)) ** (horizon - 2)


def condition_bound(p: ModelParams, d_list, lap: LaplacianSet,
                    horizon: int) -> float | None:
    """Closed-form condition-number bound; None when vacuous (r >= 1 or
    beta = 0)."""
    u = _check_scalar_cell(p, lap)
    if horizon < 2:
        raise ContractViolation("condition_bound: need T >= 2")
    if p.beta == 0.0:
        return None
    terms = _frobenius_terms(u, d_list, _node_operator_dense(p, lap))
    return _bound(p, max(terms), horizon)


def jacobian_product(p: ModelParams, lap: LaplacianSet, window,
                     horizons) -> list:
    """One StabilityReport per T in the ascending list `horizons`: the
    extreme singular values of the product of the last T-2 step
    Jacobians, and the closed-form bound.

    One forward pass runs to the largest T and one running product
    left-multiplies the step Jacobians in time order; each T's product
    of its last T-2 factors is read off on the way, so it is bitwise the
    product a separate run to that T would make.
    """
    u = _check_scalar_cell(p, lap)
    frames = np.asarray(window, dtype=np.float64)
    horizons = list(horizons)
    if not horizons or horizons != sorted(horizons):
        raise ContractViolation(
            f"stability: horizons must be ascending, got {horizons}")
    if horizons[0] < 2:
        raise ContractViolation(f"stability: need T >= 2, got {horizons[0]}")
    if frames.shape[0] < horizons[-1]:
        raise ContractViolation("stability: window shorter than T")
    op = _node_operator_dense(p, lap)
    eye = np.eye(frames.shape[1])

    d_list = _forward_activation_derivs(p, lap, frames, horizons[-1])
    terms = _frobenius_terms(u, d_list, op) if p.beta != 0.0 else None
    reports = []
    product, done = eye.copy(), 2  # T-2 factors: steps 3..T in 1-based time
    for horizon in horizons:
        for d in d_list[done:horizon]:
            product = _step_factor(p, u, d, op, eye) @ product
        done = horizon
        svals = np.linalg.svd(product, compute_uv=False)
        sigma_max, sigma_min = float(svals[0]), float(svals[-1])
        cond = sigma_max / sigma_min if sigma_min > 0.0 else math.inf
        bound = None if terms is None else _bound(p, max(terms[:horizon]), horizon)
        reports.append(StabilityReport(sigma_max, sigma_min, cond, bound,
                                       p.alpha, p.beta, horizon))
    return reports


def scalar_cell_params(u: float, n_nodes: int, w: float = 0.0, b: float = 0.0,
                       activation: str = "relu", alpha: float = 1.0,
                       beta: float = 0.0,
                       use_plain_laplacian: bool = False) -> ModelParams:
    """Convenience constructor for the width-1 diagnostic cell: one
    feature, input weight w, recurrent weight u, zero readout."""
    return ModelParams(
        "first_order", [[w]], [[u]], [[0.0]], alpha=alpha, beta=beta,
        b=np.full(n_nodes, b), z=np.zeros(n_nodes), activation=activation,
        use_plain_laplacian=use_plain_laplacian)


def stability_sweep(g: Graph, base_params: ModelParams, alpha_grid,
                    beta_grid, t_grid, seed: int = 0):
    """One StabilityReport per (alpha, beta, T) grid point, lexicographic,
    on a fixed synthetic window drawn from the given seed."""
    if not (len(alpha_grid) and len(beta_grid) and len(t_grid)):
        raise ContractViolation("stability_sweep: grids must be non-empty")
    lap = build_laplacians(g)
    rng = np.random.default_rng(seed)
    n_feat = base_params.W.shape[0]
    frames = rng.standard_normal((max(t_grid), g.n_nodes, n_feat))
    horizons = sorted(t_grid)
    rows = []
    for alpha in sorted(alpha_grid):
        for beta in sorted(beta_grid):
            p = base_params.like(base_params.theta.copy())
            p.alpha, p.beta = alpha, beta
            rows += jacobian_product(p, lap, frames, horizons)
    return rows


def sweep_csv(rows) -> str:
    lines = ["alpha,beta,T,sigma_max,sigma_min,cond,bound_M"]
    for r in rows:
        bound = f"{r.bound:.17g}" if r.bound is not None else "nan"
        cond = f"{r.condition_number:.17g}" if math.isfinite(r.condition_number) else "inf"
        lines.append(f"{r.alpha:.17g},{r.beta:.17g},{r.horizon},"
                     f"{r.sigma_max:.17g},{r.sigma_min:.17g},{cond},{bound}")
    return "\n".join(lines) + "\n"
