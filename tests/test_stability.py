import math
import threading
import time

import numpy as np
import pytest

from fgrnn import cli, stability
from fgrnn.cells import (ACTIVATIONS, conv_family, input_terms, step_vjp,
                         unroll)
from fgrnn.errors import ContractViolation, NumericOverflow
from fgrnn.graph import Graph, build_knn_graph, build_laplacians
from fgrnn.stability import (condition_bound, jacobian_product,
                             scalar_cell_params, stability_sweep, sweep_csv,
                             _forward_activation_derivs)

from .reference import fgrnn_step, preactivation, to_dense, traced_peak


def ring_graph(n):
    edges = sorted({tuple(sorted((i, (i + 1) % n))) for i in range(n)})
    return Graph(n, tuple((i, j, 1.0) for i, j in edges))


def random_lap(seed, n=12):
    rng = np.random.default_rng(seed)
    return build_laplacians(build_knn_graph(rng.standard_normal((n, 3)), 3))


def step_factor(p, lap, h, x):
    """(_step_factor of p at the state h and input x, its d), with d taken
    from the reference pre-activation."""
    act, deriv = ACTIVATIONS[p.activation]
    d = deriv(act(preactivation(p, lap, h, x)))[:, 0]
    n = lap.n_nodes
    return stability._step_factor(np.empty((n, n)), p, float(p.U[0, 0]),
                                  lap.first_order, d), d


def vjp_jacobian(p, lap, d):
    """step_vjp applied to each column of I, stacked as rows: J^T's
    columns, transposed, which is J, the step factor."""
    fam = conv_family(p, lap)
    return np.stack([step_vjp(p, fam, e[:, None], d[:, None])[:, 0]
                     for e in np.eye(lap.n_nodes)])


class TestStepJacobian:
    """The step factor alpha*u*(D L1) + beta*I, and step_vjp read as a
    matrix, at states where it is known in closed form."""

    def test_relu_active(self):
        lap = random_lap(0)
        p = scalar_cell_params(u=0.8, n_nodes=12, b=5.0, activation="relu")
        h = np.abs(np.random.default_rng(0).standard_normal((12, 1))) * 0.1
        x = np.abs(np.random.default_rng(1).standard_normal((12, 1))) * 0.1
        jac, d = step_factor(p, lap, h, x)
        expected = 1.0 * 0.8 * to_dense(lap.first_order)
        assert np.allclose(jac, expected)
        assert np.allclose(vjp_jacobian(p, lap, d), expected)

    def test_alpha_zero(self):
        lap = random_lap(1)
        p = scalar_cell_params(u=1.0, n_nodes=12)
        p.alpha, p.beta = 0.0, 0.4
        jac, d = step_factor(p, lap, np.ones((12, 1)), np.ones((12, 1)))
        assert np.allclose(jac, 0.4 * np.eye(12))
        assert np.allclose(vjp_jacobian(p, lap, d), 0.4 * np.eye(12))

    def test_tanh_at_zero(self):
        lap = random_lap(2)
        p = scalar_cell_params(u=0.5, n_nodes=12, activation="tanh")
        p.alpha, p.beta = 0.9, 0.1
        jac, d = step_factor(p, lap, np.zeros((12, 1)), np.zeros((12, 1)))
        expected = 0.9 * 0.5 * to_dense(lap.first_order) + 0.1 * np.eye(12)
        assert np.allclose(jac, expected)
        assert np.allclose(vjp_jacobian(p, lap, d), expected)

    def test_family_guard(self):
        from fgrnn.training import TrainConfig, init_params
        lap = random_lap(3)
        p = init_params(TrainConfig(family="chebyshev"), 12, 1)
        with pytest.raises(ContractViolation, match="first_order family"):
            jacobian_product(p, lap, np.zeros((4, 12, 1)), [4])

    def test_non_finite_preactivation_raises(self):
        lap = random_lap(3)
        p = scalar_cell_params(u=0.5, n_nodes=12)
        p.b[:] = np.inf
        with pytest.raises(NumericOverflow, match="step 1"):
            jacobian_product(p, lap, np.zeros((4, 12, 1)), [4])
        fam = conv_family(p, lap)
        with pytest.raises(NumericOverflow, match="step 1"):
            list(unroll(p, fam, input_terms(p, fam, np.zeros((4, 12, 1)))))

    @pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
    def test_matches_numerical_jacobian(self, activation):
        lap = random_lap(4, n=8)
        p = scalar_cell_params(u=0.7, n_nodes=8, w=0.3, b=0.1,
                               activation=activation)
        p.alpha, p.beta = 0.6, 0.4
        rng = np.random.default_rng(5)
        h = rng.standard_normal((8, 1)) * 0.3
        x = rng.standard_normal((8, 1)) * 0.3
        jac, _ = step_factor(p, lap, h, x)
        eps = 1e-6
        for j in range(8):
            hp, hm = h.copy(), h.copy()
            hp[j, 0] += eps
            hm[j, 0] -= eps
            _, plus = fgrnn_step(p, lap, hp, x)
            _, minus = fgrnn_step(p, lap, hm, x)
            fd = (plus - minus)[:, 0] / (2 * eps)
            denom = np.maximum(np.abs(jac[:, j]), 1e-8)
            assert np.max(np.abs(jac[:, j] - fd) / denom) < 1e-6


class TestJacobianProduct:
    def test_identity_product(self):
        lap = random_lap(6)
        p = scalar_cell_params(u=1.0, n_nodes=12)
        p.alpha, p.beta = 0.0, 1.0
        frames = np.random.default_rng(6).standard_normal((8, 12, 1))
        rep = jacobian_product(p, lap, frames, [8])[0]
        assert rep.condition_number == 1.0
        assert rep.sigma_max == pytest.approx(1.0)

    def test_relu_active_matrix_power(self):
        # alpha=1, beta=0, u=1: product is the (T-2)th power of the
        # single-hop operator; sigma_max = lambda_max^(T-2)
        n = 12
        g = ring_graph(n)
        lap = build_laplacians(g)
        p = scalar_cell_params(u=1.0, n_nodes=n, b=10.0, activation="relu")
        frames = np.abs(np.random.default_rng(7).standard_normal((12, n, 1))) * 0.01
        t_steps = 12
        rep = jacobian_product(p, lap, frames, [t_steps])[0]
        # connected 2-regular ring: lambda_max(L1) = 2
        assert rep.sigma_max == pytest.approx(2.0 ** (t_steps - 2), rel=1e-6)

    def test_zero_recurrent_weight(self):
        lap = random_lap(8)
        p = scalar_cell_params(u=0.0, n_nodes=12, b=5.0, activation="relu")
        frames = np.random.default_rng(8).standard_normal((6, 12, 1))
        rep = jacobian_product(p, lap, frames, [6])[0]
        assert rep.sigma_max == 0.0
        assert math.isinf(rep.condition_number)

    def test_bound_dominates_condition_number(self):
        lap = random_lap(9, n=10)
        rng = np.random.default_rng(9)
        frames = rng.standard_normal((10, 10, 1)) * 0.5
        for alpha in (0.01, 0.05):
            p = scalar_cell_params(u=0.5, n_nodes=10, activation="tanh")
            p.alpha, p.beta = alpha, 1.0
            rep = jacobian_product(p, lap, frames, [8])[0]
            if rep.bound is not None:
                assert rep.condition_number <= rep.bound * (1 + 1e-9)

    def test_one_report_per_horizon(self):
        lap = random_lap(10, n=10)
        p = scalar_cell_params(u=0.5, n_nodes=10, activation="tanh")
        p.alpha, p.beta = 0.5, 0.5
        frames = np.random.default_rng(10).standard_normal((8, 10, 1))
        reps = jacobian_product(p, lap, frames, [4, 6, 6, 8])
        assert [r.horizon for r in reps] == [4, 6, 6, 8]
        assert reps[1] == reps[2]
        assert reps[3] == jacobian_product(p, lap, frames, [8])[0]

    @pytest.mark.parametrize("horizons", [[8, 4], [4, 8, 6], []])
    def test_horizons_must_ascend(self, horizons):
        lap = random_lap(11, n=10)
        p = scalar_cell_params(u=0.5, n_nodes=10)
        frames = np.zeros((8, 10, 1))
        with pytest.raises(ContractViolation, match="ascending"):
            jacobian_product(p, lap, frames, horizons)


class TestConditionBound:
    def test_alpha_zero(self):
        lap = random_lap(10)
        p = scalar_cell_params(u=1.0, n_nodes=12)
        p.alpha, p.beta = 0.0, 1.0
        d_list = _forward_activation_derivs(
            p, lap, np.zeros((4, 12, 1)), 4)
        assert condition_bound(p, d_list, lap, 4) == 1.0

    def test_half_ratio_arithmetic(self):
        # engineered r = 0.5 at T = 4 gives ((1.5)/(0.5))^2 = 9
        lap = build_laplacians(Graph(2, ((0, 1, 1.0),)))
        p = scalar_cell_params(u=1.0, n_nodes=2, b=5.0, activation="relu")
        p.alpha, p.beta = 0.5, 1.0
        # relu-active: D = I, ||u L1||_F = 2u for the K2 first-order
        # operator (all-ones 2x2), so at u = 1, r = (0.5 / 1) * 2 = 1 ->
        # vacuous; scale u so that r = 0.5: 0.5 * 2u = 0.5 -> u = 0.5
        p = scalar_cell_params(u=0.5, n_nodes=2, b=5.0, activation="relu")
        p.alpha, p.beta = 0.5, 1.0
        d_list = [np.ones(2)] * 4
        assert condition_bound(p, d_list, lap, 4) == pytest.approx(9.0)

    def test_bound_too_large_for_a_float_is_inf(self):
        # r = 0.5: ((1.5) / (0.5)) ** (T - 2) is 9 at T = 4, 3 ** 1998 at
        # T = 2000, past the largest float
        p = scalar_cell_params(u=1.0, n_nodes=2)
        p.alpha, p.beta = 0.5, 1.0
        assert stability._bound(p, 1.0, 4) == 9.0
        assert stability._bound(p, 1.0, 2000) == math.inf

    def test_vacuous_when_r_large(self):
        lap = build_laplacians(Graph(2, ((0, 1, 1.0),)))
        p = scalar_cell_params(u=2.0, n_nodes=2, b=5.0, activation="relu")
        p.alpha, p.beta = 1.0, 1.0
        assert condition_bound(p, [np.ones(2)], lap, 4) is None

    def test_beta_zero_undefined(self):
        lap = random_lap(11)
        p = scalar_cell_params(u=1.0, n_nodes=12)
        p.alpha, p.beta = 1.0, 0.0
        assert condition_bound(p, [np.ones(12)], lap, 4) is None


class TestBoundDominates:
    """cond <= ((1 + r)/(1 - r))^(T-2), r = |alpha/beta| max_t ||D_t u L1||_F,
    wherever r < 1, on both signs of alpha and beta."""

    @pytest.mark.parametrize("args", [
        # r = (alpha/beta) max ||.||_F^2 put this cond of 1.03287 under a
        # "bound" of 1.02600
        ["--activation", "relu", "--alpha", "0.1", "--beta", "0.5",
         "--T", "4"],
        # a signed ratio read as low as 0.68, below any condition number
        ["--alpha=-0.5,0.5", "--beta", "0.5", "--T", "4,8"],
    ], ids=["same sign", "opposite sign"])
    def test_cli_rows(self, tmp_path, args):
        out = tmp_path / "s.csv"
        assert cli.main(["stability", "--n-nodes", "12", "--u", "0.05",
                         "--w", "1", "--out", str(out)] + args) == 0
        for line in out.read_text().splitlines()[1:]:
            *_, cond, bound = line.split(",")
            assert bound != "nan"
            assert float(cond) <= float(bound) * (1 + 1e-12)

    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    def test_grid(self, activation):
        g = build_knn_graph(np.random.default_rng(15).standard_normal((12, 3)), 3)
        checked = 0
        for u, w in ((0.05, 1.0), (0.3, 0.0)):
            base = scalar_cell_params(u=u, n_nodes=12, w=w,
                                      activation=activation)
            rows = stability_sweep(g, base, [-1.0, -0.1, 0.1, 1.0],
                                   [-1.0, -0.5, 0.5, 1.0], [4, 8, 12], seed=7)
            for r in rows:
                if r.bound is not None:
                    assert r.condition_number <= r.bound * (1 + 1e-12)
                    checked += 1
        assert checked >= 24


class TestSweep:
    def test_single_point(self):
        g = ring_graph(8)
        base = scalar_cell_params(u=1.0, n_nodes=8)
        rows = stability_sweep(g, base, [0.0], [1.0], [4], seed=0)
        assert len(rows) == 1
        assert rows[0].condition_number == 1.0

    def test_sigma_growth_in_t(self):
        g = ring_graph(10)
        base = scalar_cell_params(u=1.0, n_nodes=10, b=10.0, activation="relu")
        rows = stability_sweep(g, base, [1.0], [0.0], [4, 8, 12], seed=1)
        sigmas = [r.sigma_max for r in rows]
        assert sigmas[0] < sigmas[1] < sigmas[2]

    def test_lexicographic_order_and_csv(self):
        g = ring_graph(8)
        base = scalar_cell_params(u=0.3, n_nodes=8)
        rows = stability_sweep(g, base, [1.0, 0.0], [0.5], [6, 4], seed=2)
        keys = [(r.alpha, r.beta, r.horizon) for r in rows]
        assert keys == sorted(keys)
        csv = sweep_csv(rows)
        lines = csv.strip().splitlines()
        assert lines[0] == "alpha,beta,T,sigma_max,sigma_min,cond,bound_M"
        assert len(lines) == 5


def _reference_rows(g, base, alpha_grid, beta_grid, t_grid, seed):
    """The sweep as one independent dense run per (alpha, beta, T): its own
    forward pass, product of the last T-2 step Jacobians, SVD and bound."""
    lap = build_laplacians(g)
    frames = np.random.default_rng(seed).standard_normal((max(t_grid), g.n_nodes, 1))
    op = to_dense(lap.first_order)
    u = base.U[0, 0]
    eye = np.eye(g.n_nodes)
    rows = []
    for alpha in sorted(alpha_grid):
        for beta in sorted(beta_grid):
            p = base.like(base.theta.copy())
            p.alpha, p.beta = alpha, beta
            for horizon in sorted(t_grid):
                h, d_list = np.zeros((g.n_nodes, 1)), []
                for x in frames[:horizon]:
                    act, deriv = ACTIVATIONS[p.activation]
                    a = preactivation(p, lap, h, x)
                    d_list.append(deriv(act(a))[:, 0])
                    h = fgrnn_step(p, lap, h, x)[1]
                product = eye.copy()
                for d in d_list[2:]:
                    jac = p.alpha * u * (d[:, None] * op) + p.beta * eye
                    product = jac @ product
                svals = np.linalg.svd(product, compute_uv=False)
                cond = svals[0] / svals[-1] if svals[-1] > 0.0 else math.inf
                bound = None
                if beta != 0.0:
                    worst = max(float(np.sum((d[:, None] * (u * op)) ** 2))
                                for d in d_list)
                    r = abs(alpha / beta) * math.sqrt(worst)
                    if r < 1.0:
                        bound = ((1.0 + r) / (1.0 - r)) ** (horizon - 2)
                rows.append((alpha, beta, horizon, float(svals[0]),
                             float(svals[-1]), cond, bound))
    return rows


class TestChain:
    """The sweep reads every T off one forward pass and one running product
    per (alpha, beta); it must give the floats of separate runs."""

    # beta = 0.02 makes the bound vacuous under every activation, sigmoid's
    # small act' included
    grids = ([1.0, 0.0, 0.6], [0.3, 1.0, 0.0, 0.02], [8, 4, 8])

    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    def test_matches_independent_runs(self, activation):
        g = build_knn_graph(np.random.default_rng(12).standard_normal((14, 3)), 3)
        base = scalar_cell_params(u=0.2, n_nodes=14, w=1.0, b=0.1,
                                  activation=activation)
        rows = stability_sweep(g, base, *self.grids, seed=4)
        got = [(r.alpha, r.beta, r.horizon, r.sigma_max, r.sigma_min,
                r.condition_number, r.bound) for r in rows]
        want = _reference_rows(g, base, *self.grids, seed=4)
        assert got == want
        # the grid reaches finite and vacuous bounds, singular products
        # (beta = 0 under relu) and T = 8 twice
        assert any(r.bound is not None for r in rows)
        assert any(r.bound is None and r.beta != 0.0 for r in rows)
        assert [r.horizon for r in rows[:3]] == [4, 8, 8]

    def test_one_svd_per_row_and_one_unroll_per_pair(self, monkeypatch):
        calls = {"svd": 0, "unroll": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        monkeypatch.setattr(stability, "unroll", counting("unroll", stability.unroll))
        g = ring_graph(10)
        base = scalar_cell_params(u=0.5, n_nodes=10, w=1.0)
        rows = stability_sweep(g, base, [0.0, 0.5, 1.0], [0.5, 1.0], [12, 4, 8, 4],
                               seed=5)
        assert len(rows) == 3 * 2 * 4
        assert calls == {"svd": len(rows), "unroll": 3 * 2}

    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    def test_rows_are_the_sequential_chains_reports(self, activation):
        # the pipelined sweep against jacobian_product, its sequential
        # consumer, run once per (alpha, beta) on the same window
        g = build_knn_graph(np.random.default_rng(13).standard_normal((16, 3)), 3)
        base = scalar_cell_params(u=-0.4, n_nodes=16, w=1.0, b=0.2,
                                  activation=activation)
        alphas, betas, horizons = [0.7, 0.0], [0.0, 0.5, 1.0], [3, 9, 6, 9]
        rows = stability_sweep(g, base, alphas, betas, horizons, seed=6)
        lap = build_laplacians(g)
        frames = np.random.default_rng(6).standard_normal((9, 16, 1))
        want = []
        for alpha in sorted(alphas):
            for beta in sorted(betas):
                p = base.like(base.theta.copy())
                p.alpha, p.beta = alpha, beta
                want += jacobian_product(p, lap, frames, sorted(horizons))
        assert rows == want

    def test_the_worker_reads_no_array_a_chain_writes(self, monkeypatch):
        # each SVD starts 20 ms late, while the chain takes its next two or
        # more steps and the next chain starts; rows read off an array the
        # chain writes would come out of a later product
        g = build_knn_graph(np.random.default_rng(15).standard_normal((16, 3)), 3)
        base = scalar_cell_params(u=0.6, n_nodes=16, w=1.0, b=0.1)
        alphas, betas, horizons = [0.0, 0.7], [1.0], [3, 6, 9]
        lap = build_laplacians(g, scaled=False)
        frames = np.random.default_rng(7).standard_normal((9, 16, 1))
        want = []
        for alpha in alphas:
            p = base.like(base.theta.copy())
            p.alpha, p.beta = alpha, betas[0]
            want += jacobian_product(p, lap, frames, horizons)
        real = np.linalg.svd

        def late(*args, **kwargs):
            time.sleep(0.02)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", late)
        assert stability_sweep(g, base, alphas, betas, horizons, seed=7) == want

    def test_the_sweep_makes_its_arrays_once(self):
        # four N x N arrays for the whole sweep, however many chains and
        # points: the chain's factor and two products, and the worker's copy
        n = 256
        g = build_knn_graph(np.random.default_rng(16).standard_normal((n, 3)), 6)
        base = scalar_cell_params(u=0.5, n_nodes=n, w=1.0)
        stability_sweep(g, base, [0.5], [0.5], [4], seed=8)  # warm
        rows, peak = traced_peak(lambda: stability_sweep(
            g, base, [0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [4, 8, 12], seed=8))
        assert len(rows) == 27
        assert peak < 5.5 * n * n * 8


def _sweep_args():
    return (ring_graph(10), scalar_cell_params(u=0.5, n_nodes=10, w=1.0),
            [0.0, 0.5, 1.0], [0.5, 1.0], [4, 8])


class TestSweepThread:
    """The sweep's SVD worker never outlives the sweep, and an error on
    either thread reaches the caller."""

    def test_no_thread_left_after_a_sweep(self):
        before = threading.enumerate()
        assert len(stability_sweep(*_sweep_args(), seed=1)) == 12
        assert threading.enumerate() == before

    @pytest.mark.parametrize("k", [1, 2, 7, 12])
    def test_svd_error_mid_grid_propagates(self, monkeypatch, k):
        calls, real = [], np.linalg.svd

        def failing(*args, **kwargs):
            calls.append(threading.current_thread())
            if len(calls) == k:
                raise np.linalg.LinAlgError(f"svd {k} failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing)
        before = threading.enumerate()
        with pytest.raises(np.linalg.LinAlgError, match=f"svd {k} failed"):
            stability_sweep(*_sweep_args(), seed=1)
        assert threading.enumerate() == before
        # every SVD ran on the worker, and none was submitted after the failure
        assert len(calls) == k
        assert threading.main_thread() not in calls

    @pytest.mark.parametrize("k", [2, 5])
    def test_forward_error_mid_grid_propagates(self, monkeypatch, k):
        calls, real = [], stability.unroll

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == k:
                raise NumericOverflow(f"unroll {k} failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(stability, "unroll", failing)
        before = threading.enumerate()
        with pytest.raises(NumericOverflow, match=f"unroll {k} failed"):
            stability_sweep(*_sweep_args(), seed=1)
        assert threading.enumerate() == before


class TestFactorBuilder:
    """The step factor and the Frobenius terms are built from the sparse
    operator; they must be the floats, zero signs included, of the dense
    formulas alpha*u*(d*op) + beta*I and sum((d*(u*op))**2), and the
    factor is step_vjp's matrix to a few ulp."""

    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    @pytest.mark.parametrize("u,alpha,beta", [(0.8, 0.6, 0.4), (-0.8, 0.6, 0.4),
                                              (-0.5, 1.0, 0.0), (0.5, 0.0, -0.0),
                                              (0.0, 1.0, 1.0)])
    def test_matches_the_dense_formulas(self, activation, u, alpha, beta):
        lap = random_lap(14)
        p = scalar_cell_params(u=u, n_nodes=12, w=1.0, activation=activation)
        p.alpha, p.beta = alpha, beta
        rng = np.random.default_rng(14)
        h, x = rng.standard_normal((12, 1)), rng.standard_normal((12, 1)) * 3
        op = to_dense(lap.first_order)
        got, d = step_factor(p, lap, h, x)
        want = p.alpha * u * (d[:, None] * op) + p.beta * np.eye(12)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        vjp = vjp_jacobian(p, lap, d)
        if activation == "relu" or alpha * u == 0.0:
            # act' of 0 or 1, or no operator term: the same products
            assert np.array_equal(vjp, got)
        else:
            # the two round alpha, u, act' and op's products in other orders
            assert np.max(np.abs(vjp - got)) <= 2 * np.spacing(np.abs(got).max())
        if beta != 0.0:
            worst = max(float(np.sum((dt[:, None] * (u * op)) ** 2))
                        for dt in (d, d * 0.5))
            r = abs(alpha / beta) * math.sqrt(worst)
            want_bound = ((1 + r) / (1 - r)) ** 2 if r < 1.0 else None
            assert condition_bound(p, [d, d * 0.5], lap, 4) == want_bound


def test_sweep_checks_n_before_building_the_laplacians(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("built the Laplacians before checking N")

    monkeypatch.setattr(stability, "build_laplacians", no_work)
    with pytest.raises(ContractViolation, match="N <= 2048, got N = 5000"):
        stability_sweep(Graph(5000, ()), scalar_cell_params(u=0.5, n_nodes=1),
                        [1.0], [0.5], [4])


def _width_two_cell():
    from fgrnn.training import TrainConfig, init_params
    return init_params(TrainConfig(p=2), 12, 1)


@pytest.mark.parametrize("call,fragment", [
    (lambda: jacobian_product(_width_two_cell(), random_lap(12),
                              np.zeros((4, 12, 1)), [4]),
     "hidden width 1"),
    (lambda: condition_bound(scalar_cell_params(u=0.5, n_nodes=2049), [],
                             build_laplacians(Graph(2049, ())), 4),
     "N <= 2048"),
    (lambda: jacobian_product(scalar_cell_params(u=0.5, n_nodes=12),
                              random_lap(12), np.zeros((3, 12, 1)), [4]),
     "window shorter than T"),
    (lambda: jacobian_product(scalar_cell_params(u=0.5, n_nodes=12),
                              random_lap(12), np.zeros((3, 12, 1)), [1, 3]),
     "need T >= 2"),
    (lambda: stability_sweep(ring_graph(8), scalar_cell_params(u=0.5,
                                                               n_nodes=8),
                             [], [0.5], [4]), "grids must be non-empty"),
    (lambda: condition_bound(scalar_cell_params(u=0.5, n_nodes=12),
                             [np.ones(12)], random_lap(12), 1), "T >= 2"),
], ids=["width 2", "N 2049", "short window", "product T 1", "empty grid",
        "bound T 1"])
def test_guards(call, fragment):
    with pytest.raises(ContractViolation, match=fragment):
        call()


class TestOverflowIsTheLibrarysOwn:
    """A library call that overflows raises NumericOverflow, or calls the
    bound vacuous, without numpy warning first (the suite turns a numpy
    RuntimeWarning into an error)."""

    def test_jacobian_product(self):
        p = scalar_cell_params(u=0.5, n_nodes=8)
        p.alpha, p.beta = 0.0, 1e160
        window = np.ones((4, 8, 1))
        with pytest.raises(NumericOverflow, match="non-finite Jacobian product"):
            jacobian_product(p, build_laplacians(ring_graph(8)), window, [4])

    def test_stability_sweep(self):
        with pytest.raises(NumericOverflow, match="non-finite Jacobian product"):
            stability_sweep(ring_graph(8), scalar_cell_params(0.5, 8), [0.0],
                            [1e160], [4])

    def test_condition_bound(self):
        p = scalar_cell_params(u=1e200, n_nodes=12)
        p.alpha, p.beta = 1.0, 1.0
        assert condition_bound(p, [np.ones(12)], random_lap(11), 4) is None
