import math
import sys
import warnings

import numpy as np
import pytest

import fgrnn.sparse
from fgrnn import graph, stability, training
from fgrnn.data import FrameSequence, SyntheticConfig, generate_synthetic
from fgrnn.errors import ContractViolation, NumericOverflow, place_keys
from fgrnn.gconv import FirstOrderFamily
from fgrnn.graph import Graph, build_knn_graph, build_laplacians
from fgrnn.training import (AdamState, TrainConfig, adam_step, bptt,
                            count_params, evaluate, finite_difference_check,
                            history_csv, init_params, parse_config,
                            parse_key_values, teacher_forced_losses, train)

from .reference import fgrnn_step, readout, step_loss


def knn_lap(seed, n=10, k=3):
    rng = np.random.default_rng(seed)
    return build_laplacians(build_knn_graph(rng.standard_normal((n, 3)), k))


def make_params(family, n, f=3, p=3, k=3, seed=0):
    return init_params(TrainConfig(family=family, k=k, p=p, seed=seed), n, f)


def fixed_prediction(z, f=3):
    """A first-order model whose every prediction is z on each of f
    feature columns: with V = 0 the readout is z 1^T."""
    p = make_params("first_order", len(z), f=f)
    p.V[...] = 0.0
    p.z[...] = z
    return p


def reference_losses(p, lap, frames, lambda_reg=0.0):
    """Each transition's step_loss, the reference cell carrying the state
    from the zero state (hidden width 3)."""
    h, losses = np.zeros((lap.n_nodes, 3)), []
    for t in range(len(frames) - 1):
        _, h = fgrnn_step(p, lap, h, frames[t])
        losses.append(step_loss(readout(p, lap, h), frames[t + 1], lap,
                                lambda_reg))
    return losses


class TestLosses:
    # teacher_forced_losses scores every step with the package's one loss;
    # a model of fixed prediction z 1^T makes each step's x_hat known
    def test_zero_when_equal(self):
        z = np.random.default_rng(0).standard_normal(10)
        frames = np.stack([np.ones((10, 3)), np.repeat(z[:, None], 3, 1)])
        assert teacher_forced_losses(fixed_prediction(z), knn_lap(0),
                                     frames) == [0.0]

    def test_all_ones_difference(self):
        lap = build_laplacians(Graph(2, ((0, 1, 1.0),)))
        frames = np.zeros((2, 2, 3))
        assert teacher_forced_losses(fixed_prediction(np.ones(2)), lap,
                                     frames) == [6.0]
        assert step_loss(np.ones((2, 3)), np.zeros((2, 3))) == 6.0

    def test_matches_elementwise_sum(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(5)
        x = rng.standard_normal((5, 4))
        lap = knn_lap(0, n=5, k=2)
        brute = sum((z[i] - x[i, j]) ** 2 for i in range(5) for j in range(4))
        losses = teacher_forced_losses(fixed_prediction(z, f=4), lap,
                                       np.stack([x, x]))
        assert losses == [pytest.approx(brute, abs=1e-12)]
        assert step_loss(np.repeat(z[:, None], 4, 1), x) == pytest.approx(
            brute, abs=1e-12)

    def test_shape_mismatch(self):
        # a first-order model for 1 feature reads out 1 feature, and frames
        # of 3 would score it by broadcasting: both passes refuse them
        p = make_params("first_order", 10, f=1, p=2)
        frames = np.random.default_rng(0).standard_normal((4, 10, 3))
        for loss_pass in (teacher_forced_losses, bptt):
            with pytest.raises(ContractViolation, match=(
                    rf"^{loss_pass.__name__}: frames of shape \(4, 10, 3\) "
                    rf"do not fit the first_order model's W, U, V, b and z "
                    rf"of shapes \(1, 2\), \(2, 2\), \(2, 1\), \(10,\), "
                    rf"\(10,\)$")):
                loss_pass(p, knn_lap(0), frames)

    @pytest.mark.parametrize("family,n,f", [
        ("chebyshev", 1, 3), ("chebyshev", 7, 3), ("first_order", 1, 3),
        ("first_order", 7, 3), ("first_order", 10, 2)],
        ids=["chebyshev 1 node", "chebyshev 7 nodes", "first_order 1 node",
             "first_order 7 nodes", "first_order F=2"])
    def test_passes_refuse_frames_the_model_does_not_fit(self, family, n, f):
        # a model for n nodes and f features, on 10-node frames of 3: a
        # 1-node model used to score them silently through broadcasting
        p = make_params(family, n, f=f)
        frames = np.random.default_rng(0).standard_normal((4, 10, 3))
        assert not p.fits(10, 3) and p.fits(n, f)
        for loss_pass in (teacher_forced_losses, bptt):
            with pytest.raises(ContractViolation, match=(
                    rf"^{loss_pass.__name__}: frames of shape \(4, 10, 3\) "
                    rf"do not fit the {family} model's .*\({n},\)$")):
                loss_pass(p, knn_lap(0), frames)
        with pytest.raises(ContractViolation, match="do not fit"):
            evaluate(p, knn_lap(0), frames, 2)

    def test_regularizer_zero_lambda(self):
        # bit for bit the written-out sum of squares, for both families
        lap = knn_lap(1)
        frames = np.random.default_rng(1).standard_normal((6, 10, 3))
        for family in ("chebyshev", "first_order"):
            p = make_params(family, 10, seed=1)
            assert teacher_forced_losses(p, lap, frames, 0.0) == \
                reference_losses(p, lap, frames)

    def test_constant_signal_on_ring(self):
        # 2-regular ring: constants are in the Laplacian null space
        n = 6
        edges = tuple((i, (i + 1) % n, 1.0) if i < (i + 1) % n
                      else ((i + 1) % n, i, 1.0) for i in range(n))
        lap = build_laplacians(Graph(n, tuple(sorted(edges))))
        p = fixed_prediction(np.full(n, 3.7), f=2)
        frames = np.zeros((2, n, 2))
        reg_part = (teacher_forced_losses(p, lap, frames, 1.0)[0]
                    - teacher_forced_losses(p, lap, frames)[0])
        assert abs(reg_part) < 1e-10

    def test_matches_dense_quadratic_form(self):
        # lambda * tr(x_hat^T L x_hat) with a dense L, for both families
        lap = knn_lap(2)
        frames = np.random.default_rng(2).standard_normal((6, 10, 3))
        for family in ("chebyshev", "first_order"):
            p = make_params(family, 10, seed=2)
            got = teacher_forced_losses(p, lap, frames, 0.7)
            expected = reference_losses(p, lap, frames, 0.7)
            assert got != teacher_forced_losses(p, lap, frames)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


class TestBptt:
    def test_perfect_predictions_give_zero_gradients(self):
        lap = knn_lap(3)
        p = make_params("first_order", 10)
        rng = np.random.default_rng(3)
        window = rng.standard_normal((4, 10, 3))
        # engineer targets equal to the model's own forward outputs
        h = np.zeros((10, 3))
        frames = [window[0]]
        for t in range(3):
            _, h = fgrnn_step(p, lap, h, frames[t])
            frames.append(readout(p, lap, h))
        loss, grads = bptt(p, lap, np.stack(frames))
        assert loss == pytest.approx(0.0, abs=1e-20)
        assert np.all(grads.theta == 0.0)

    def test_single_step_grad_z(self):
        lap = knn_lap(4)
        p = make_params("first_order", 10)
        p.W[:] = 0.0
        p.U[:] = 0.0
        p.b[:] = 0.0
        p.z[:] = 0.0
        rng = np.random.default_rng(4)
        window = rng.standard_normal((2, 10, 3))
        h = np.zeros((10, 3))  # stays zero through the step (tanh(0) = 0)
        x_hat = readout(p, lap, h)
        _, grads = bptt(p, lap, window)
        expected_z = (2.0 * (x_hat - window[1])).sum(axis=1)
        assert np.allclose(grads.z, expected_z, atol=1e-12)

    @pytest.mark.parametrize("family,act,t_w", [
        ("chebyshev", "tanh", 5), ("first_order", "tanh", 3),
        ("chebyshev", "relu", 3), ("first_order", "sigmoid", 7),
    ])
    def test_finite_differences(self, family, act, t_w):
        lap = knn_lap(5, n=12)
        cfg = TrainConfig(family=family, k=3, p=3, activation=act, seed=7)
        p = init_params(cfg, 12, 3)
        rng = np.random.default_rng(6)
        window = 0.5 * rng.standard_normal((t_w + 1, 12, 3))
        assert finite_difference_check(p, lap, window) < 1e-6

    def test_finite_differences_regularized(self):
        lap = knn_lap(6, n=8)
        p = make_params("chebyshev", 8)
        rng = np.random.default_rng(7)
        window = 0.5 * rng.standard_normal((4, 8, 3))
        err = finite_difference_check(p, lap, window, lambda_reg=0.4)
        assert err < 1e-6

    def test_finite_differences_regularized_first_order(self):
        lap = knn_lap(6, n=8)
        p = make_params("first_order", 8)
        rng = np.random.default_rng(7)
        window = 0.5 * rng.standard_normal((4, 8, 3))
        err = finite_difference_check(p, lap, window, lambda_reg=0.4)
        assert err < 1e-6

    def test_finite_differences_chebyshev_order_one(self):
        # order 1: no sparse product at all
        lap = knn_lap(12, n=10)
        p = init_params(TrainConfig(family="chebyshev", k=1, seed=13), 10, 3)
        rng = np.random.default_rng(13)
        window = 0.5 * rng.standard_normal((5, 10, 3))
        assert finite_difference_check(p, lap, window) < 1e-6

    def test_positive_lambda_adds_the_regularizer(self):
        lap = knn_lap(6, n=8)
        p = make_params("chebyshev", 8)
        window = 0.5 * np.random.default_rng(7).standard_normal((4, 8, 3))
        plain, g_plain = bptt(p, lap, window)
        reg, g_reg = bptt(p, lap, window, 0.4)
        assert reg > plain
        assert not np.array_equal(g_reg.theta, g_plain.theta)

    @pytest.mark.parametrize("family,lambda_reg", [
        ("chebyshev", 0.0), ("first_order", 0.0), ("chebyshev", 0.3),
        ("first_order", 0.3)])
    def test_loss_matches_forward_only_loss(self, family, lambda_reg):
        # bptt scores every step of the window at once; the forward-only
        # loss scores one step at a time with the same step loss, and the
        # two must agree bit for bit
        lap = knn_lap(14, n=12)
        p = make_params(family, 12, seed=14)
        rng = np.random.default_rng(14)
        window = rng.standard_normal((8, 12, 3))
        loss, _ = bptt(p, lap, window, lambda_reg)
        assert loss == sum(teacher_forced_losses(p, lap, window, lambda_reg))

    @pytest.mark.parametrize("family,k,per_transition,lambda_reg", [
        ("chebyshev", 3, 6, 0.0), ("first_order", 3, 3, 0.0),
        ("chebyshev", 1, 0, 0.0), ("chebyshev", 3, 6, 0.3),
        ("first_order", 3, 3, 0.3)], ids=[
        "chebyshev-3-6", "first_order-3-3", "chebyshev-1-0",
        "chebyshev-3-6-regularized", "first_order-3-3-regularized"])
    def test_sparse_products_per_transition(self, monkeypatch, family, k,
                                            per_transition, lambda_reg):
        lap = knn_lap(15, n=12)
        p = make_params(family, 12, k=k, seed=15)
        window = np.random.default_rng(15).standard_normal((11, 12, 3))
        real, calls = fgrnn.sparse.spmm, []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if ((name == "fgrnn" or name.startswith("fgrnn."))
                    and getattr(mod, "spmm", None) is real):
                monkeypatch.setattr(mod, "spmm", counted)
        bptt(p, lap, window, lambda_reg)
        t_w = len(window) - 1
        assert len(calls) <= per_transition * t_w
        # bases kept from the forward pass: one per window for the stacked
        # inputs and per step one for h_t; in reverse, one per step for the
        # upstreams that reach h_t (Chebyshev: one over every step's
        # readout upstream, then one per recurrent upstream). The
        # regularizer adds one product by L per window, which serves every
        # step's loss and its gradient
        per_basis = k - 1 if family == "chebyshev" else 1
        assert len(calls) == per_basis * (1 + 2 * t_w) + (lambda_reg > 0)
        # forward only, from the zero state: per step the input basis and
        # the basis of h_t, which also serves the next step's recurrence
        calls.clear()
        teacher_forced_losses(p, lap, window)
        assert len(calls) == per_basis * 2 * t_w

    def test_relu_active_is_nearly_exact(self):
        # all-positive pre-activations make the loss piecewise quadratic
        lap = knn_lap(8, n=8)
        p = make_params("first_order", 8)
        p.activation = "relu"
        p.b[:] = 5.0
        rng = np.random.default_rng(8)
        window = 0.1 * np.abs(rng.standard_normal((3, 8, 3)))
        assert finite_difference_check(p, lap, window, step=1e-4) < 1e-8

    def test_large_step_degrades_check(self):
        lap = knn_lap(9, n=8)
        p = make_params("chebyshev", 8)
        rng = np.random.default_rng(9)
        window = rng.standard_normal((4, 8, 3))
        small = finite_difference_check(p, lap, window, step=1e-5)
        large = finite_difference_check(p, lap, window, step=1e-1)
        assert large > small

    def test_descent_reduces_loss(self):
        lap = knn_lap(10, n=8)
        p = make_params("first_order", 8, seed=11)
        rng = np.random.default_rng(10)
        window = rng.standard_normal((5, 8, 3))
        loss0, _ = bptt(p, lap, window)
        for _ in range(50):
            _, grads = bptt(p, lap, window)
            p.theta -= 1e-4 * grads.theta
        loss1, _ = bptt(p, lap, window)
        assert loss1 < loss0


class TestAdam:
    def make(self, n):
        return AdamState(n)

    def test_zero_gradient_fixed_point(self):
        lap = knn_lap(11)
        p = make_params("first_order", 10)
        theta0 = p.theta.copy()
        grads = p.like(np.zeros_like(p.theta))
        state = self.make(len(theta0))
        adam_step(state, p, grads, 0.01)
        assert state.step == 1
        assert np.array_equal(p.theta, theta0)

    def test_first_step_magnitude(self):
        p = make_params("first_order", 4)
        theta0 = p.theta.copy()
        g = p.like(np.empty_like(p.theta))
        g.W[:], g.U[:], g.V[:] = 2.0, -3.0, 0.5
        g.alpha, g.beta = 1.0, -1.0
        g.b[:], g.z[:] = 4.0, -0.25
        state = self.make(len(theta0))
        adam_step(state, p, g, 0.01)
        delta = p.theta - theta0
        gv = g.theta
        # bias-corrected first step is close to -lr * sign(g) for |g| >> eps
        assert np.allclose(delta, -0.01 * np.sign(gv), atol=1e-6)

    def test_monotone_motion_against_gradient(self):
        p = make_params("first_order", 4)
        g = p.like(np.ones_like(p.theta))
        state = self.make(len(p.theta))
        prev = p.theta.copy()
        for _ in range(2):
            adam_step(state, p, g, 0.01)
            cur = p.theta
            assert np.all(cur < prev)
            prev = cur.copy()


class TestCountParams:
    @pytest.mark.parametrize("family,kwargs,expected", [
        ("chebyshev", dict(k=3), 3015),
        ("first_order", dict(p=3), 3033),
        ("dense", dict(), 6771018),
        ("lstm_dense", dict(), 18054040),
        ("lstm_gcn", dict(k=3), 6032),
    ])
    def test_table_values(self, family, kwargs, expected):
        assert count_params(family, 1502, **kwargs) == expected

    def test_unknown_family(self):
        with pytest.raises(ContractViolation):
            count_params("gru", 10)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_enumerated_scalars(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 20))
        k = int(rng.integers(1, 6))
        p_dim = int(rng.integers(1, 6))
        for family, kwargs in [("chebyshev", dict(k=k)),
                               ("first_order", dict(p=p_dim))]:
            # Table counts assume F = P for the first-order family
            f = p_dim if family == "first_order" else n
            cfg = TrainConfig(family=family, k=k, p=p_dim, seed=seed)
            params = init_params(cfg, n, f)
            assert len(params.theta) == count_params(family, n, **kwargs)


class TestTrainLoop:
    def small_dataset(self, seed=0):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((16, 3))
        g = build_knn_graph(pts, 3)
        t = np.arange(30)[:, None, None]
        frames = np.tile(pts, (30, 1, 1)) + 0.01 * np.sin(0.2 * t)
        return FrameSequence(frames), g

    def test_zero_epochs(self):
        seq, g = self.small_dataset()
        cfg = TrainConfig(epochs=0, seed=1)
        run = train(cfg, seq, g)
        assert run.epoch_losses == [] and run.epochs_done == 0
        expected = init_params(cfg, seq.n_nodes, seq.n_features)
        assert np.array_equal(run.final_params.theta, expected.theta)

    def test_constant_sequence_learned(self):
        from fgrnn.data import SyntheticConfig, generate_synthetic
        cfg_data = SyntheticConfig(n_nodes=32, n_frames=120, rotation_rate=0.0,
                                   deformation_amplitude=0.0, noise_std=0.0)
        seq, g = generate_synthetic(cfg_data)
        assert np.array_equal(seq.frames[0], seq.frames[-1])
        cfg = TrainConfig(family="first_order", p=8, stride=1, seed=0)
        run = train(cfg, seq, g)
        assert run.epoch_losses[-1][0] < 1e-3

    def test_deterministic(self):
        seq, g = self.small_dataset(4)
        cfg = TrainConfig(epochs=3, t_w=5, seed=9)
        run1 = train(cfg, seq, g)
        run2 = train(cfg, seq, g)
        assert history_csv(run1) == history_csv(run2)
        assert np.array_equal(run1.final_params.theta,
                              run2.final_params.theta)

    def test_history_lengths_match(self):
        seq, g = self.small_dataset(5)
        run = train(TrainConfig(epochs=4, t_w=5, seed=5), seq, g)
        assert len(run.epoch_losses) == len(run.alpha_history) == 4
        assert len(run.beta_history) == 4
        # one history row per epoch, each at the rate train gave it
        rows = [row.split(",") for row in history_csv(run).splitlines()[1:]]
        assert [(int(r[0]), float(r[-1])) for r in rows] == [
            (e, run.cfg.rate(e)) for e in range(1, 5)]

    def test_resume_continues_the_run(self):
        # 2 epochs, then 2 more from (params, train_state), match 4 at once
        seq, g = self.small_dataset(6)
        full = train(TrainConfig(epochs=4, t_w=5, seed=6), seq, g)
        half = train(TrainConfig(epochs=2, t_w=5, seed=6), seq, g)
        assert half.first_epoch == 0
        state = half.train_state
        assert state["epoch"] == 2 and state["adam_step"] == half.adam.step
        assert state["lr"] == half.cfg.rate(2)
        assert float(history_csv(half).splitlines()[-1].split(",")[-1]) == \
            state["lr"]
        rest = train(TrainConfig(epochs=2, t_w=5, seed=6), seq, g,
                     resume=(half.final_params, state))
        assert rest.first_epoch == 2 and rest.epochs_done == 4
        assert np.array_equal(rest.final_params.theta, full.final_params.theta)
        assert history_csv(rest).splitlines()[1:] == \
            history_csv(full).splitlines()[3:]
        assert rest.train_state["adam_step"] == full.adam.step

    def test_train_state_rate_without_an_epoch(self):
        seq, g = self.small_dataset()
        run = train(TrainConfig(epochs=0, lr=0.03), seq, g)
        assert run.train_state["lr"] == 0.03 and run.train_state["epoch"] == 0

    @pytest.mark.filterwarnings("error")
    def test_split_leaving_one_training_frame_is_refused(self):
        seq, g = self.small_dataset()
        three = FrameSequence(seq.frames[:3])
        with pytest.raises(ContractViolation,
                           match=r"^config key 'split' = 0.4 leaves 1 of 3"):
            train(TrainConfig(epochs=1, split=0.4), three, g)

    @pytest.mark.parametrize("n_frames,split,n_train", [
        (573, 0.8, 458), (10, 0.5, 5), (17, 0.6, 10)])
    def test_cuts_at_floor_of_split_times_frames(self, monkeypatch, n_frames,
                                                 split, n_train):
        # feature 1 of frame t is t / 1000, so a window names its frames
        rng = np.random.default_rng(n_frames)
        pts = rng.standard_normal((6, 1))
        g = build_knn_graph(np.hstack([pts, np.zeros((6, 2))]), 2)
        t = np.arange(n_frames)[:, None, None]
        frames = np.concatenate([pts * np.cos(0.1 * t),
                                 np.broadcast_to(t / 1000.0, (n_frames, 6, 1))],
                                axis=2)
        read = []

        def recording_bptt(p, lap, window, lambda_reg, bases=None):
            read.extend(np.rint(window[:, 0, 1] * 1000).astype(int).tolist())
            return bptt(p, lap, window, lambda_reg, bases)

        monkeypatch.setattr(training, "bptt", recording_bptt)
        run = train(TrainConfig(epochs=1, t_w=4, split=split, seed=1),
                    FrameSequence(frames), g)
        assert sorted(set(read)) == list(range(n_train))
        lap = build_laplacians(g)
        assert run.epoch_losses[0] == evaluate(run.final_params, lap, frames,
                                               n_train)

    @pytest.mark.parametrize("lambda_reg", [0.0, 0.3])
    @pytest.mark.parametrize("family,k", [
        ("chebyshev", 1), ("chebyshev", 2), ("chebyshev", 3),
        ("first_order", 3)])
    @pytest.mark.parametrize("stride", [1, 3, 4, 5, 7])  # t_w = 5
    def test_matches_a_loop_of_bptt_without_bases(self, stride, family, k,
                                                  lambda_reg):
        # train hands each window the input bases it carries from the
        # window before; a loop in which bptt makes every window's bases
        # itself must give the same bytes
        seq, g = self.small_dataset(7)
        cfg = TrainConfig(family=family, k=k, t_w=5, stride=stride,
                          epochs=2, lambda_reg=lambda_reg, seed=7)
        run = train(cfg, seq, g)
        lap = build_laplacians(g)
        p = init_params(cfg, seq.n_nodes, seq.n_features)
        adam = AdamState(p.theta.size)
        n_train = math.floor(cfg.split * seq.n_frames)
        losses, alphas, betas = [], [], []
        for epoch in range(cfg.epochs):
            for s in range(0, n_train - 1, stride):
                window = seq.frames[s:min(s + cfg.t_w + 1, n_train)]
                _, grad = bptt(p, lap, window, lambda_reg)
                adam_step(adam, p, grad, cfg.rate(epoch + 1))
            losses.append(evaluate(p, lap, seq.frames, n_train))
            alphas.append(p.alpha)
            betas.append(p.beta)
        assert not run.aborted
        assert (run.epoch_losses, run.alpha_history, run.beta_history) == (
            losses, alphas, betas)
        assert run.adam.step == adam.step
        for got, want in ((run.final_params.theta, p.theta),
                          (run.adam.first_moment, adam.first_moment),
                          (run.adam.second_moment, adam.second_moment)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("family,k", [
        ("chebyshev", 2), ("chebyshev", 3), ("first_order", 3)])
    @pytest.mark.parametrize("stride", [1, 2, 4])  # t_w = 4
    def test_each_input_basis_made_once_per_epoch(self, monkeypatch, stride,
                                                  family, k):
        # feature 1 of frame t is t / 1000, so a product names its frames.
        # Every input frame of the training partition, 0 .. n_train - 2,
        # gets its bases from one product, whatever the overlap of the
        # windows: K - 1 (Chebyshev) or 1 (first-order) products of F
        # columns a frame. At stride t_w no window shares an input frame
        # with another, and the windows make what they made each on their
        # own before they shared bases
        n_frames, n_train = 23, 18
        rng = np.random.default_rng(n_frames)
        pts = rng.standard_normal((8, 2))
        g = build_knn_graph(np.hstack([pts, np.zeros((8, 1))]), 2)
        t = np.arange(n_frames)[:, None, None]
        frames = np.concatenate(
            [pts[:, :1] * np.cos(0.1 * t), np.broadcast_to(
                t / 1000.0, (n_frames, 8, 1)), pts[:, 1:] * np.sin(0.1 * t)],
            axis=2)
        real_over_steps, real_spmm = training.over_steps, fgrnn.sparse.spmm
        read, columns, inside = [], [], []

        def recording(fn, steps):
            read.extend(np.rint(steps[:, 0, 1] * 1000).astype(int).tolist())
            inside.append(1)
            try:
                return real_over_steps(fn, steps)
            finally:
                inside.pop()

        def counted(a, x):
            if inside:
                columns.append(x.shape[1])
            return real_spmm(a, x)

        monkeypatch.setattr(training, "over_steps", recording)
        for name, mod in list(sys.modules.items()):
            if ((name == "fgrnn" or name.startswith("fgrnn."))
                    and getattr(mod, "spmm", None) is real_spmm):
                monkeypatch.setattr(mod, "spmm", counted)
        train(TrainConfig(family=family, k=k, t_w=4, stride=stride,
                          epochs=1, seed=3), FrameSequence(frames), g)
        assert read == list(range(n_train - 1))
        per_frame = k - 1 if family == "chebyshev" else 1
        assert sum(columns) == per_frame * 3 * (n_train - 1)
        if stride == 4:
            assert sum(e - s - 1 for s, e in training._windows(
                n_train, 4, 4)) == n_train - 1

    @pytest.mark.parametrize("family,k,runs", [
        ("first_order", 3, 0), ("chebyshev", 3, 1), ("chebyshev", 1, 0)],
        ids=["first_order-0", "chebyshev-1", "chebyshev-k1-0"])
    def test_power_iteration_only_for_chebyshev(self, monkeypatch, family, k,
                                                runs):
        # a Chebyshev filter of order 1 makes no product by the scaled
        # Laplacian, so it makes no lambda_max either
        calls = []

        def counted(a):
            calls.append(a)
            return fgrnn.sparse.power_iteration(a)

        monkeypatch.setattr(graph, "power_iteration", counted)
        seq, g = self.small_dataset(8)
        train(TrainConfig(family=family, k=k, epochs=1, t_w=5, seed=8), seq,
              g)
        assert len(calls) == runs
        base = stability.scalar_cell_params(u=1.0, n_nodes=seq.n_nodes)
        stability.stability_sweep(g, base, [0.5], [0.5], [4])
        assert len(calls) == runs

    @pytest.mark.parametrize("n_frames,split", [(1, 0.5), (3, 0.01)])
    def test_split_leaving_no_training_frame_is_refused(self, n_frames, split):
        seq, g = self.small_dataset()
        with pytest.raises(ContractViolation, match=(
                rf"^config key 'split' = {split} leaves 0 of {n_frames} ")):
            train(TrainConfig(epochs=1, split=split),
                  FrameSequence(seq.frames[:n_frames]), g)

    def test_overflow_aborts_without_a_numpy_warning(self):
        # the package finds the non-finite pre-activation itself; numpy
        # must not warn of the overflow that made it
        seq, g = generate_synthetic(SyntheticConfig(n_nodes=12, n_frames=20,
                                                    seed=3))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run = train(TrainConfig(epochs=2, lr=1e300), seq, g)
        assert run.aborted
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("failing_window", [0, 1])
    def test_overflow_leaves_the_last_completed_epoch(self, monkeypatch,
                                                      failing_window):
        # an overflow in epoch 2, at its first window or after one of its
        # Adam steps, leaves theta and Adam's step and moments, bit for
        # bit, as a run of 1 epoch leaves them
        seq, g = self.small_dataset(4)
        cfg = TrainConfig(epochs=3, t_w=4, seed=4)
        once = train(TrainConfig(epochs=1, t_w=4, seed=4), seq, g)
        n_windows = len(training._windows(math.floor(cfg.split * 30), 4, 4))
        real_bptt, calls = training.bptt, []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == n_windows + 1 + failing_window:
                raise NumericOverflow("non-finite gradient in window")
            return real_bptt(*args, **kwargs)

        monkeypatch.setattr(training, "bptt", failing)
        run = train(cfg, seq, g)
        assert run.aborted and run.epochs_done == 1
        assert len(run.epoch_losses) == 1
        assert run.final_params.theta.tobytes() == \
            once.final_params.theta.tobytes()
        assert run.adam.step == once.adam.step == n_windows
        for moment in ("first_moment", "second_moment"):
            assert getattr(run.adam, moment).tobytes() == \
                getattr(once.adam, moment).tobytes()


class TestConfigParsing:
    def test_defaults(self):
        cfg = parse_config({}, TrainConfig)
        assert cfg.family == "first_order" and cfg.epochs == 10

    def test_file_and_overrides(self):
        text = "family = chebyshev\nk = 5\n# comment\nlr = 0.5\n"
        values = {key: val for key, (val, _) in parse_key_values(text).items()}
        assert parse_key_values(text)["lr"] == ("0.5", 4)
        cfg = parse_config({**values, "lr": "0.25", "epochs": "2"},
                           TrainConfig)
        assert cfg.family == "chebyshev" and cfg.k == 5
        assert cfg.lr == 0.25 and cfg.epochs == 2

    def test_unknown_key(self):
        from fgrnn.errors import ParseError
        with pytest.raises(ParseError):
            parse_config({"bogus": "1"}, TrainConfig)

    @pytest.mark.parametrize("key,value", [
        ("t_w", 0), ("split", 1.5), ("split", 1.0), ("activation", "softsign"),
        ("seed", -1), ("lr_decay", float("inf")), ("init_scale", float("nan"))])
    def test_ranges_checked_at_construction(self, key, value):
        with pytest.raises(ContractViolation, match=f"'{key}'") as info:
            TrainConfig(**{key: value})
        assert info.value.key == key

    def test_reads_any_config_dataclass(self):
        from fgrnn.errors import ParseError
        cfg = parse_config({"n_nodes": "12", "base_shape": "grid",
                            "noise_std": "0"}, SyntheticConfig)
        assert cfg == SyntheticConfig(n_nodes=12, base_shape="grid",
                                      noise_std=0.0)
        with pytest.raises(ParseError, match="'n_frames'"):
            parse_config({"n_frames": "2.5"}, SyntheticConfig)
        with pytest.raises(ParseError, match="'lr'"):
            parse_config({"lr": "0.1"}, SyntheticConfig)
        with pytest.raises(ContractViolation, match="'n_frames'"):
            parse_config({"n_frames": "0"}, SyntheticConfig)

    def test_place_keys_leaves_a_default_key_unplaced(self):
        # a refusal of two keys names each one's place after it; a key
        # left at its default has none
        exc = ContractViolation("config 'a' and 'b' too large", "a", "b")
        place_keys(exc, {"b": ("c.cfg", 4), "z": ("command line", None)})
        assert str(exc) == "config 'a' and 'b' (c.cfg: line 4) too large"
        exc = ContractViolation("config 'a' and 'b' too large", "a", "b")
        place_keys(exc, {"a": ("command line", None)})
        assert str(exc) == "config 'a' (command line) and 'b' too large"

    def test_unconvertible_value_names_its_key(self):
        from fgrnn.errors import ParseError
        for key, val in (("k", "abc"), ("epochs", "2.5"), ("lr", "fast")):
            with pytest.raises(ParseError, match=f"'{key}'"):
                parse_config({key: val}, TrainConfig)


class TestEvaluate:
    @pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
    @pytest.mark.parametrize("family", ["chebyshev", "first_order"])
    def test_matches_reference_cell_across_the_split(self, family,
                                                     activation):
        # one state, carried by the reference cell from the zero state
        # through the train/test boundary, scores every transition; the
        # first n_train - 1 belong to the train partition
        lap = knn_lap(30, n=12)
        p = make_params(family, 12, seed=30)
        p.activation = activation
        rng = np.random.default_rng(30)
        p.b[:] = 0.1 * rng.standard_normal(12)
        p.z[:] = 0.1 * rng.standard_normal(12)
        frames = rng.standard_normal((9, 12, 3))
        n_train = 6
        h, losses = np.zeros((12, 3)), []
        for t in range(len(frames) - 1):
            _, h = fgrnn_step(p, lap, h, frames[t])
            losses.append(step_loss(readout(p, lap, h), frames[t + 1]))
        assert evaluate(p, lap, frames, n_train) == (
            float(np.mean(losses[:n_train - 1])),
            float(np.mean(losses[n_train - 1:])))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_frames,n_train", [(5, 1), (5, 0), (5, 5),
                                                  (1, 1)])
    def test_partition_without_a_transition_is_refused(self, n_frames,
                                                       n_train):
        p = make_params("first_order", 10)
        frames = np.zeros((n_frames, 10, 3))
        with pytest.raises(ContractViolation, match="no transition to score"):
            evaluate(p, knn_lap(33), frames, n_train)


@pytest.mark.parametrize("loss_pass", [teacher_forced_losses, bptt])
@np.errstate(over="ignore", invalid="ignore")
def test_an_infinite_loss_is_refused(loss_pass):
    # a readout V of 1.5e308 overflows every prediction, and so every loss,
    # while the recurrence stays finite
    p = make_params("first_order", 10, seed=34)
    p.V[...] = 1.5e308
    frames = np.random.default_rng(34).standard_normal((4, 10, 3))
    with pytest.raises(NumericOverflow, match="^step 1: non-finite loss$"):
        loss_pass(p, knn_lap(34), frames)


def test_bptt_refuses_a_non_finite_gradient(monkeypatch):
    p = make_params("first_order", 10, seed=36)
    frames = np.random.default_rng(36).standard_normal((4, 10, 3))
    monkeypatch.setattr(FirstOrderFamily, "coeff_grad", staticmethod(
        lambda weights, basis, upstream: np.full(weights.shape, np.inf)))
    with pytest.raises(NumericOverflow,
                       match="^non-finite gradient in window$"):
        bptt(p, knn_lap(36), frames)


@pytest.mark.filterwarnings("error")
def test_saturated_sigmoid_is_exact_and_silent():
    # exp(-a) overflows for a < -709, where the sigmoid's value 0 is exact
    lap = knn_lap(31)
    p = make_params("first_order", 10)
    p.activation = "sigmoid"
    p.b[:] = -1000.0
    frames = 0.1 * np.random.default_rng(31).standard_normal((4, 10, 3))
    losses = teacher_forced_losses(p, lap, frames)
    assert len(losses) == 3 and all(np.isfinite(losses))
    # the state stays exactly 0, so every prediction is the readout of a
    # zero state: z, which is 0 here
    assert losses == [step_loss(np.zeros((10, 3)), x)
                      for x in frames[1:]]


@pytest.mark.parametrize("call,fragment", [
    (lambda p, lap, w: bptt(p, lap, w[:1]), "at least 2 frames"),
    # teacher_forced_losses used to return [] here, which sum() reads as a
    # loss of 0
    *[(lambda p, lap, w, n=n: teacher_forced_losses(p, lap, w[:n]),
       rf"^teacher_forced_losses: frames of shape \({n}, 10, 3\) hold no "
       rf"transition; a pass needs at least 2 frames$") for n in (0, 1)],
    # the bases of every frame of the window, its target included
    (lambda p, lap, w: bptt(p, lap, w, bases=np.zeros((2, 3, 10, 3))),
     r"^bptt: bases of shape \(2, 3, 10, 3\) for input frames "
     r"\(2, 10, 3\)$"),
    (lambda p, lap, w: finite_difference_check(p, lap, w, step=0.0), "step"),
    (lambda p, lap, w: finite_difference_check(p, lap, w, step=-1e-5), "step"),
    (lambda p, lap, w: adam_step(AdamState(p.theta.size + 1), p,
                                 p.like(np.zeros_like(p.theta)), 0.1),
     "size mismatch"),
    (lambda p, lap, w: count_params("chebyshev", 0, k=3), "n must be positive"),
    (lambda p, lap, w: count_params("first_order", 10, p=0), "P >= 1"),
    (lambda p, lap, w: count_params("lstm_gcn", 10, k=0), "K >= 1"),
    (lambda p, lap, w: teacher_forced_losses(p, lap, w, lambda_reg=-0.5),
     "lambda_reg must be >= 0"),
    (lambda p, lap, w: bptt(p, lap, w, lambda_reg=-0.5),
     "lambda_reg must be >= 0"),
], ids=["bptt one frame", "loss no frame", "loss one frame",
        "bptt bases of every frame", "fd step 0", "fd step < 0", "adam size",
        "count n 0", "count first_order p 0", "count lstm_gcn k 0",
        "loss lambda < 0", "bptt lambda < 0"])
def test_guards(call, fragment):
    p = make_params("first_order", 10)
    with pytest.raises(ContractViolation, match=fragment):
        call(p, knn_lap(32), np.zeros((3, 10, 3)))
