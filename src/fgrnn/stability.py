"""Gradient-stability diagnostics for the scalar-recurrent-weight cell.

Restricted to the first-order family with hidden width 1, where the
step Jacobian dh_t/dh_{t-1} = alpha * D_t * u * L1 + beta * I is a
literal N x N matrix (D_t = diag of activation derivatives at step t,
u = the scalar recurrent weight). The product of step Jacobians over a
window governs gradient growth; its condition number is compared to the
closed-form bound

    ((1 + r) / (1 - r))^(T-2),  r = |alpha/beta| * max_t ||D_t u L1||_F

which is finite only for r < 1: each factor is beta (I + (alpha/beta) E_t)
with ||E_t||_2 <= ||E_t||_F, so by Weyl its singular values lie in
[|beta| (1 - r), |beta| (1 + r)]. The product is taken over T-2 factors,
matching the convention used in the growth analysis.

Each step factor is written into one N x N buffer straight from the
sparse operator; no dense copy of the operator or of I is made.
stability_sweep runs each product's SVD on one worker thread while the
calling thread builds the next products, with the floats of
jacobian_product run for each (alpha, beta) in turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cells import ACTIVATIONS, ModelParams, conv_family, input_terms, unroll
from .errors import ContractViolation, NumericOverflow
from .graph import Graph, LaplacianSet, build_laplacians
from .sparse import SparseMatrix


@dataclass
class StabilityReport:
    sigma_max: float
    sigma_min: float
    condition_number: float  # inf when the product is singular
    bound: float | None      # None when the bound is vacuous
    alpha: float
    beta: float
    horizon: int


# the diagnostics build dense N x N factors, products and SVDs
MAX_NODES = 2048


def check_node_count(n_nodes: int):
    """Raises ContractViolation when a graph of n_nodes is too large for the
    dense diagnostics; callers check before they build anything of size N."""
    if n_nodes > MAX_NODES:
        raise ContractViolation(f"stability diagnostics limited to "
                                f"N <= {MAX_NODES}, got N = {n_nodes}")


def _check_scalar_cell(p: ModelParams, lap: LaplacianSet):
    if p.conv_family != "first_order":
        raise ContractViolation("stability diagnostics need the first_order family")
    if p.U.shape != (1, 1):
        raise ContractViolation("stability diagnostics need hidden width 1")
    check_node_count(lap.n_nodes)
    return float(p.U[0, 0])


def _step_factor(out: np.ndarray, p: ModelParams, u: float, op: SparseMatrix,
                 d: np.ndarray) -> np.ndarray:
    """Writes alpha * u * (D op) + beta * I into the N x N buffer out, straight
    from the sparse operator op, and returns out.

    Each entry is the float of the dense formula: act' >= +0, so where op
    stores nothing that formula gives (alpha*u)*0.0 + beta*0.0 too.
    """
    s = p.alpha * u
    rows = op._row_ids
    out.fill(s * 0.0)
    out[rows, op.col_indices] = s * (d[rows] * op.values)
    out += p.beta * 0.0
    out.reshape(-1)[::out.shape[0] + 1] += p.beta
    return out


def _forward_activation_derivs(p: ModelParams, lap: LaplacianSet,
                               frames: np.ndarray, horizon: int):
    """Runs the cell over `horizon` frames from the zero state; returns the
    per-step derivative diagonals d_t (t = 1..horizon)."""
    act_deriv = ACTIVATIONS[p.activation][1]
    fam = conv_family(p, lap)
    steps = unroll(p, fam, input_terms(p, fam, frames[:horizon]))
    return [act_deriv(step.h_tilde)[:, 0] for step in steps]


def _frobenius_terms(out: np.ndarray, u: float, op: SparseMatrix,
                     d_list) -> list:
    """||D_t u op||_F^2 for each step t, each squared and summed in the
    N x N buffer out, as np.sum((d[:, None] * (u * dense_op)) ** 2) does."""
    rows, uv = op._row_ids, u * op.values
    terms = []
    for d in d_list:
        out.fill(0.0)
        out[rows, op.col_indices] = d[rows] * uv
        np.square(out, out=out)
        terms.append(float(np.sum(out)))
    return terms


def _bound(p: ModelParams, worst: float, horizon: int) -> float | None:
    """The bound from worst = max_t ||D_t u L1||_F^2 (beta != 0); inf when
    it is too large for a float, still an upper bound."""
    r = abs(p.alpha / p.beta) * math.sqrt(worst)
    if r >= 1.0:
        return None
    try:
        return ((1.0 + r) / (1.0 - r)) ** (horizon - 2)
    except OverflowError:
        return math.inf


# the functions a caller enters check finiteness themselves and raise
# NumericOverflow, or call the bound vacuous, instead of numpy warning first
@np.errstate(over="ignore", invalid="ignore")
def condition_bound(p: ModelParams, d_list, lap: LaplacianSet,
                    horizon: int) -> float | None:
    """Closed-form condition-number bound; None when vacuous (r >= 1 or
    beta = 0)."""
    u = _check_scalar_cell(p, lap)
    if horizon < 2:
        raise ContractViolation("condition_bound: need T >= 2")
    if p.beta == 0.0:
        return None
    n = lap.n_nodes
    terms = _frobenius_terms(np.empty((n, n)), u, conv_family(p, lap).op, d_list)
    return _bound(p, max(terms), horizon)


class _Workspace:
    """The N x N arrays that chains write: the step-factor buffer and three
    product slots, shared by every chain of a sweep. Arrays made afresh per
    chain fragmented the heap: at N=512 the sweep's peak RSS stepped up by
    about 2 MB after a few sweeps.

    `held` is the product a chain handed out last. Its consumer may read it
    on another thread until it resumes that chain after the next hand-out,
    so until then the chain writes only the other two slots.
    """

    def __init__(self, n: int):
        self.factor = np.empty((n, n))
        self.slots = [np.empty((n, n)) for _ in range(3)]
        self.held = None

    def spare(self, busy=None) -> np.ndarray:
        """A product slot that is neither `busy` nor held."""
        return next(s for s in self.slots if s is not busy and s is not self.held)


def _chain(p: ModelParams, lap: LaplacianSet, window, horizons,
           work: _Workspace | None = None):
    """Yields (T, product, bound) for each T of the ascending list
    `horizons`: the product of the last T-2 step Jacobians and the
    closed-form bound (None when vacuous).

    One forward pass runs to the largest T and one running product
    left-multiplies the step Jacobians in time order; each T's product of
    its last T-2 factors is read off on the way, so it is bitwise the
    product a separate run to that T would make. A product yielded stays
    unwritten until the chain is resumed after its next yield (see
    _Workspace).
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
    op, n = conv_family(p, lap).op, lap.n_nodes
    d_list = _forward_activation_derivs(p, lap, frames, horizons[-1])
    work = work or _Workspace(n)
    terms = (_frobenius_terms(work.factor, u, op, d_list) if p.beta != 0.0
             else None)
    product = work.spare()  # I, then left-multiplied by steps 3..T
    product.fill(0.0)
    product.reshape(-1)[::n + 1] = 1.0
    done = 2
    for horizon in horizons:
        for d in d_list[done:horizon]:
            product = np.matmul(_step_factor(work.factor, p, u, op, d), product,
                                out=work.spare(product))
        done = horizon
        bound = None if terms is None else _bound(p, max(terms[:horizon]), horizon)
        yield horizon, product, bound
        work.held = product


def _report(p: ModelParams, horizon: int, product: np.ndarray,
            bound: float | None) -> StabilityReport:
    # min and max propagate nan, and make no N x N temporary
    if not (math.isfinite(product.min()) and math.isfinite(product.max())):
        raise NumericOverflow(f"stability: non-finite Jacobian product at "
                              f"alpha={p.alpha!r}, beta={p.beta!r}, T={horizon}")
    svals = np.linalg.svd(product, compute_uv=False)
    sigma_max, sigma_min = float(svals[0]), float(svals[-1])
    cond = sigma_max / sigma_min if sigma_min > 0.0 else math.inf
    return StabilityReport(sigma_max, sigma_min, cond, bound, p.alpha, p.beta,
                           horizon)


@np.errstate(over="ignore", invalid="ignore")
def jacobian_product(p: ModelParams, lap: LaplacianSet, window,
                     horizons) -> list:
    """One StabilityReport per T in the ascending list `horizons`: the
    extreme singular values of the product of the last T-2 step
    Jacobians, and the closed-form bound. Reads the chain in order, one
    SVD per T on the calling thread."""
    return [_report(p, *point) for point in _chain(p, lap, window, horizons)]


def scalar_cell_params(u: float, n_nodes: int, w: float = 0.0, b: float = 0.0,
                       activation: str = "relu") -> ModelParams:
    """The width-1 diagnostic cell: one feature, input weight w, recurrent
    weight u, zero readout, alpha = 1 and beta = 0."""
    return ModelParams(
        "first_order", [[w]], [[u]], [[0.0]], alpha=1.0, beta=0.0,
        b=np.full(n_nodes, b), z=np.zeros(n_nodes), activation=activation)


@np.errstate(over="ignore", invalid="ignore")
def stability_sweep(g: Graph, base_params: ModelParams, alpha_grid,
                    beta_grid, t_grid, seed: int = 0):
    """One StabilityReport per (alpha, beta, T) grid point, lexicographic,
    on a fixed synthetic window drawn from the given seed.

    Each product's SVD runs on one worker thread while this thread builds
    the next products (numpy's SVD and matmul release the GIL). The last
    SVD is resolved before the next is submitted, so at most one is in
    flight, the rows keep their order, and a chain's last SVD overlaps the
    next chain's forward pass. The chains share one _Workspace, so the
    sweep allocates its N x N arrays once. The worker is joined before the
    sweep returns or raises.
    """
    # imported here: concurrent.futures loads logging, about 5 ms at start-up
    # that no other command needs
    from concurrent.futures import ThreadPoolExecutor

    if not (len(alpha_grid) and len(beta_grid) and len(t_grid)):
        raise ContractViolation("stability_sweep: grids must be non-empty")
    check_node_count(g.n_nodes)
    lap = build_laplacians(g, scaled=False)  # first-order: no lambda_max
    rng = np.random.default_rng(seed)
    n_feat = base_params.W.shape[0]
    frames = rng.standard_normal((max(t_grid), g.n_nodes, n_feat))
    horizons = sorted(t_grid)
    rows, last, work = [], None, _Workspace(g.n_nodes)
    with ThreadPoolExecutor(max_workers=1) as worker:
        for alpha in sorted(alpha_grid):
            for beta in sorted(beta_grid):
                p = base_params.like(base_params.theta.copy())
                p.alpha, p.beta = alpha, beta
                for point in _chain(p, lap, frames, horizons, work):
                    if last is not None:
                        rows.append(last.result())
                    last = worker.submit(_report, p, *point)
        rows.append(last.result())
    return rows


def sweep_csv(rows) -> str:
    lines = ["alpha,beta,T,sigma_max,sigma_min,cond,bound_M"]
    for r in rows:
        bound = f"{r.bound:.17g}" if r.bound is not None else "nan"
        cond = f"{r.condition_number:.17g}" if math.isfinite(r.condition_number) else "inf"
        lines.append(f"{r.alpha:.17g},{r.beta:.17g},{r.horizon},"
                     f"{r.sigma_max:.17g},{r.sigma_min:.17g},{cond},{bound}")
    return "\n".join(lines) + "\n"
