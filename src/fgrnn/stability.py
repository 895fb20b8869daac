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
[|beta| (1 - r), |beta| (1 + r)]. At alpha = 0 every factor is beta I,
r = 0 and the bound is 1. The product is taken over T-2 factors,
matching the convention used in the growth analysis.

Each step factor is written into one N x N buffer straight from the
sparse operator; no dense copy of the operator or of I is made. A chain
writes three N x N arrays: the factor and two products that it
ping-pongs. A factor is diagonal when every entry it stores off the
diagonal is zero, as at alpha * u = 0 or on a dead relu state; while
every factor is, the chain scales the product's rows: each entry takes
the value a matrix product gives it, which adds only zeros to its one
non-zero term, though a zero may differ in sign. It flags such a
product, whose singular values are its diagonal's magnitudes, read off
with no SVD; one diagonal only by cancellation takes its SVD.
stability_sweep runs each product's report on one worker thread, from
its own copy of the product, while the calling thread builds the next
products, with the floats of jacobian_product run for each (alpha, beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cells import ACTIVATIONS, ModelParams, conv_family, input_terms, unroll
from .errors import ContractViolation, NumericOverflow
from .graph import Graph, LaplacianSet, build_laplacians
from .sparse import SparseMatrix
from .training import _check_fit


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
                 d: np.ndarray) -> bool:
    """Writes alpha * u * (D op) + beta * I into the N x N buffer out, straight
    from the sparse operator op, and returns whether it is diagonal: whether
    every entry it stores off the diagonal is zero (nan is not), an O(nnz)
    test that holds at alpha * u = 0 and where D is 0 on every row op
    stores off the diagonal, as for a dead relu state.

    Each entry is the float of the dense formula: act' >= +0, so where op
    stores nothing that formula gives (alpha*u)*0.0 + beta*0.0 too.
    """
    s = p.alpha * u
    rows, cols = op._row_ids, op.col_indices
    values = s * (d[rows] * op.values)
    out.fill(s * 0.0)
    out[rows, cols] = values
    out += p.beta * 0.0
    out.reshape(-1)[::out.shape[0] + 1] += p.beta
    return not np.any(values[rows != cols])


def _forward_activation_derivs(p: ModelParams, lap: LaplacianSet,
                               frames: np.ndarray, horizon: int):
    """Runs the cell over `horizon` frames from the zero state; returns the
    per-step derivative diagonals d_t (t = 1..horizon)."""
    act_deriv = ACTIVATIONS[p.activation][1]
    fam = conv_family(p, lap)
    steps = unroll(p, fam, input_terms(p, fam, frames[:horizon]))
    return [act_deriv(step.h_tilde)[:, 0] for step in steps]


def _terms(out: np.ndarray, p: ModelParams, u: float, op: SparseMatrix,
           d_list) -> list:
    """||D_t u op||_F^2 for each step t, each squared and summed in the
    N x N buffer out, as np.sum((d[:, None] * (u * dense_op)) ** 2) does;
    none at beta = 0, where the bound is vacuous, or at alpha = 0, where
    r = 0 (one that overflowed would make r = 0 * inf = nan)."""
    if p.alpha == 0.0 or p.beta == 0.0:
        return []
    rows, uv = op._row_ids, u * op.values
    terms = []
    for d in d_list:
        out.fill(0.0)
        out[rows, op.col_indices] = d[rows] * uv
        np.square(out, out=out)
        terms.append(float(np.sum(out)))
    return terms


def _bound(p: ModelParams, terms, horizon: int) -> float | None:
    """The bound, r from the largest of _terms' terms (none gives r = 0);
    None when vacuous (beta = 0 or r >= 1), inf when it is too large for a
    float, still an upper bound."""
    if p.beta == 0.0:
        return None
    r = abs(p.alpha / p.beta) * math.sqrt(max(terms, default=0.0))
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
    n = lap.n_nodes
    op = conv_family(p, lap).op
    return _bound(p, _terms(np.empty((n, n)), p, u, op, d_list), horizon)


def _chain(p: ModelParams, lap: LaplacianSet, window, horizons, work=None):
    """Yields (T, product, bound, diagonal) for each T of the ascending
    list `horizons`: the product of the last T-2 step Jacobians, the
    closed-form bound (None when vacuous) and whether every one of those
    factors is diagonal, so that the product is too.

    One forward pass runs to the largest T and one running product
    left-multiplies the step Jacobians in time order; each T's product of
    its last T-2 factors is read off on the way, so it is bitwise the
    product a separate run to that T would make. The chain writes only the
    N x N arrays of `work`, a (factor, product, spare) triple, made afresh
    when it is None; a product yielded is not written until the chain is
    resumed. A window the cell does not fit is refused as training's is;
    an overflow of the forward pass names its alpha and beta.
    """
    u = _check_scalar_cell(p, lap)
    frames = np.asarray(window, dtype=np.float64)
    _check_fit(p, frames, "stability")
    horizons = list(horizons)
    if not horizons or horizons != sorted(horizons):
        raise ContractViolation(
            f"stability: horizons must be ascending, got {horizons}")
    if horizons[0] < 2:
        raise ContractViolation(f"stability: need T >= 2, got {horizons[0]}")
    if frames.shape[0] < horizons[-1]:
        raise ContractViolation("stability: window shorter than T")
    op, n = conv_family(p, lap).op, lap.n_nodes
    try:
        d_list = _forward_activation_derivs(p, lap, frames, horizons[-1])
    except NumericOverflow as exc:
        raise NumericOverflow(f"stability: {exc} at alpha={p.alpha!r}, "
                              f"beta={p.beta!r}") from None
    factor, product, spare = work or [np.empty((n, n)) for _ in range(3)]
    terms = _terms(factor, p, u, op, d_list)
    product.fill(0.0)  # I, then left-multiplied by steps 3..T
    product.reshape(-1)[::n + 1] = 1.0
    diagonal, done = True, 2
    for horizon in horizons:
        for d in d_list[done:horizon]:
            diagonal = _step_factor(factor, p, u, op, d) and diagonal
            if diagonal:  # diag(f) @ product is product's rows scaled by f
                np.multiply(np.diagonal(factor)[:, None], product, out=spare)
            else:
                np.matmul(factor, product, out=spare)
            product, spare = spare, product
        done = horizon
        yield horizon, product, _bound(p, terms[:horizon], horizon), diagonal


def _report(p: ModelParams, horizon: int, product: np.ndarray,
            bound: float | None, diagonal: bool) -> StabilityReport:
    """The report of one of _chain's points. A diagonal product's singular
    values are its diagonal's magnitudes, read off with no SVD and no N x N
    temporary: the floats LAPACK's SVD returns, as it bidiagonalizes a
    diagonal matrix with reflections that are all I and only sorts the
    magnitudes, unless it first rescales a matrix whose largest entry is
    above about 2^457 or below about 2^-457."""
    # min and max propagate nan, and make no N x N temporary
    if not (math.isfinite(product.min()) and math.isfinite(product.max())):
        raise NumericOverflow(f"stability: non-finite Jacobian product at "
                              f"alpha={p.alpha!r}, beta={p.beta!r}, T={horizon}")
    svals = (np.abs(np.diagonal(product)) if diagonal
             else np.linalg.svd(product, compute_uv=False))
    sigma_max, sigma_min = float(svals.max()), float(svals.min())
    cond = sigma_max / sigma_min if sigma_min > 0.0 else math.inf
    return StabilityReport(sigma_max, sigma_min, cond, bound, p.alpha, p.beta,
                           horizon)


@np.errstate(over="ignore", invalid="ignore")
def jacobian_product(p: ModelParams, lap: LaplacianSet, window,
                     horizons) -> list:
    """One StabilityReport per T in the ascending list `horizons`: the
    extreme singular values of the product of the last T-2 step
    Jacobians, and the closed-form bound. Reads the chain in order, on the
    calling thread: one SVD per T, or none where the chain flags the
    product diagonal (every factor is), whose singular values are read off
    it. A window the cell does not fit is refused, as training refuses it."""
    return [_report(p, *point) for point in _chain(p, lap, window, horizons)]


def scalar_cell_params(u: float, n_nodes: int, w: float = 1.0, b: float = 0.0,
                       activation: str = "relu") -> ModelParams:
    """The width-1 diagnostic cell: one feature, input weight w, recurrent
    weight u, zero readout, alpha = 1 and beta = 0.

    w = 0 gives a cell that sees no input; with relu and b = 0 its state
    stays 0 from the zero state, so every D_t is 0, every step factor is
    beta * I and alpha changes no row of a sweep."""
    return ModelParams(
        "first_order", [[w]], [[u]], [[0.0]], alpha=1.0, beta=0.0,
        b=np.full(n_nodes, b), z=np.zeros(n_nodes), activation=activation)


@np.errstate(over="ignore", invalid="ignore")
def stability_sweep(g: Graph, base_params: ModelParams, alpha_grid,
                    beta_grid, t_grid, seed: int = 0):
    """One StabilityReport per (alpha, beta, T) grid point, lexicographic,
    on a fixed synthetic window drawn from the given seed.

    Each product's SVD, or the read-off of one the chain flags diagonal,
    runs on one worker thread while this thread builds the next products
    (numpy's SVD and matmul release the GIL). The last SVD is resolved before the next
    is submitted, so at most one is in flight, the rows keep their order,
    and a chain's last SVD overlaps the next chain's forward pass. The
    worker reads only `read`, a copy of the chain's product that is
    written after the last SVD is resolved. The worker is joined before
    the sweep returns or raises, and the sweep raises the failure of the
    first failing grid point.
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
    # the chains' (factor, product, spare) and the worker's read, made once:
    # arrays made per chain fragmented the heap, and at N=512 the sweep's
    # peak RSS stepped up by about 2 MB after a few sweeps
    *work, read = [np.empty((g.n_nodes, g.n_nodes)) for _ in range(4)]
    rows, last = [], None
    with ThreadPoolExecutor(max_workers=1) as worker:
        try:
            for alpha in sorted(alpha_grid):
                for beta in sorted(beta_grid):
                    p = base_params.like(base_params.theta.copy())
                    p.alpha, p.beta = alpha, beta
                    for horizon, product, bound, diagonal in _chain(
                            p, lap, frames, horizons, work):
                        if last is not None:
                            rows.append(last.result())
                        np.copyto(read, product)  # the worker is done with read
                        last = worker.submit(_report, p, horizon, read, bound,
                                             diagonal)
        finally:  # the last row; if a chain raised, an earlier point's first
            if last is not None:
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
