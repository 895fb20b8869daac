import numpy as np
import pytest

from fgrnn.cells import (conv_family, fgrnn_step, load_checkpoint,
                         preactivation, readout, save_checkpoint, unroll)
from fgrnn.errors import ContractViolation
from fgrnn.gconv import ChebFilter, FeatureTransform, cheb_conv, first_order_conv
from fgrnn.graph import Graph, build_knn_graph, build_laplacians
from fgrnn.training import TrainConfig, init_params


def make_params(family, n, f=3, p=3, k=3, seed=0, **kw):
    cfg = TrainConfig(family=family, k=k, p=p, seed=seed)
    params = init_params(cfg, n, f)
    for key, val in kw.items():
        setattr(params, key, val)
    return params


def knn_lap(seed, n=10, k=3):
    rng = np.random.default_rng(seed)
    return build_laplacians(build_knn_graph(rng.standard_normal((n, 3)), k))


class TestFgrnnStep:
    def test_standard_rnn_reduction(self):
        # alpha=1, beta=0 collapses to conv + bias + activation
        lap = knn_lap(0)
        p = make_params("chebyshev", 10, alpha=1.0, beta=0.0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 3))
        h_prev = rng.standard_normal((10, 3))
        h_tilde, h = fgrnn_step(p, lap, h_prev, x)
        expected = np.tanh(cheb_conv(lap, x, p.input_filter)
                           + cheb_conv(lap, h_prev, p.recurrent_filter)
                           + p.bias[:, None])
        assert np.array_equal(h, h_tilde)
        assert np.allclose(h, expected)

    def test_pure_residual(self):
        lap = knn_lap(0)
        p = make_params("first_order", 10, alpha=0.0, beta=1.0)
        rng = np.random.default_rng(2)
        h_prev = rng.standard_normal((10, 3))
        _, h = fgrnn_step(p, lap, h_prev, rng.standard_normal((10, 3)))
        assert np.array_equal(h, h_prev)

    def test_zero_filters(self):
        lap = build_laplacians(Graph(3, ()))
        p = make_params("first_order", 3, beta=0.25)
        p.input_filter.weights[:] = 0.0
        p.recurrent_filter.weights[:] = 0.0
        p.bias[:] = 0.0
        h_prev = np.random.default_rng(3).standard_normal((3, 3))
        h_tilde, h = fgrnn_step(p, lap, h_prev, np.ones((3, 3)))
        assert np.all(h_tilde == 0.0)
        assert np.allclose(h, 0.25 * h_prev)

    def test_relu_active_regime_is_linear(self):
        lap = knn_lap(4)
        p = make_params("first_order", 10, activation="relu")
        p.bias[:] = 10.0  # guarantees positive pre-activations
        rng = np.random.default_rng(4)
        x = rng.standard_normal((10, 3)) * 0.1
        h_prev = rng.standard_normal((10, 3)) * 0.1
        h_tilde, _ = fgrnn_step(p, lap, h_prev, x)
        pre = (first_order_conv(lap, x, p.input_filter)
               + first_order_conv(lap, h_prev, p.recurrent_filter)
               + p.bias[:, None])
        assert np.array_equal(h_tilde, pre)

    @pytest.mark.parametrize("seed", range(3))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        pts = rng.standard_normal((n, 3))
        x = rng.standard_normal((n, 3))
        h_prev = rng.standard_normal((n, 3))
        p = make_params("chebyshev", n, seed=seed)
        p.bias[:] = rng.standard_normal(n)
        perm = rng.permutation(n)

        lap = build_laplacians(build_knn_graph(pts, 3))
        _, h = fgrnn_step(p, lap, h_prev, x)

        lap_p = build_laplacians(build_knn_graph(pts[perm], 3))
        p_perm = p.copy()
        p_perm.bias = p.bias[perm]
        _, h_p = fgrnn_step(p_perm, lap_p, h_prev[perm], x[perm])
        assert np.allclose(h_p, h[perm], atol=1e-9)


class TestUnroll:
    @staticmethod
    def reference(p, lap, frames, h, feedback):
        """(a, h_tilde, h, x_hat) per step from a chain of fgrnn_step and
        readout: every frame, then each prediction fed back."""
        out, x = [], None
        for t in range(len(frames) + feedback):
            x = frames[t] if t < len(frames) else x
            a = preactivation(p, lap, h, x)
            h_tilde, h = fgrnn_step(p, lap, h, x)
            x = readout(p, lap, h)
            out.append((a, h_tilde, h, x))
        return out

    @pytest.mark.parametrize("feedback", [0, 3])
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("case", ["chebyshev", "mixed_orders",
                                      "first_order", "plain_laplacian"])
    def test_matches_fgrnn_step_chain(self, case, warm, feedback):
        lap = knn_lap(20, n=12)
        family = ("first_order" if case in ("first_order", "plain_laplacian")
                  else "chebyshev")
        p = make_params(family, 12, seed=20,
                        use_plain_laplacian=case == "plain_laplacian")
        if case == "mixed_orders":
            p.recurrent_filter = ChebFilter([0.4, 0.2])
            p.readout_filter = ChebFilter([0.3, -0.2, 0.1, 0.05])
        rng = np.random.default_rng(21)
        p.bias[:] = 0.1 * rng.standard_normal(12)
        p.readout_bias[:] = 0.1 * rng.standard_normal(12)
        frames = rng.standard_normal((5, 12, 3))
        h0 = rng.standard_normal((12, 3)) if warm else None
        fam = conv_family(p, lap)
        got = list(unroll(p, fam, map(fam.basis, frames), h0, feedback))
        want = self.reference(p, lap, frames,
                              h0 if warm else np.zeros((12, 3)), feedback)
        assert len(got) == len(want) == 5 + feedback
        for step, (a, h_tilde, h, x_hat) in zip(got, want):
            assert np.array_equal(step.a, a)
            assert np.array_equal(step.h_tilde, h_tilde)
            assert np.array_equal(step.h, h)
            assert np.array_equal(step.basis, fam.basis(h))
            assert np.array_equal(step.x_hat, x_hat)

    def test_feedback_needs_an_input_step(self):
        lap = knn_lap(22)
        p = make_params("first_order", 10)
        fam = conv_family(p, lap)
        with pytest.raises(ContractViolation):
            list(unroll(p, fam, [], feedback=2))


class TestReadout:
    def test_zero_filter_gives_bias_columns(self):
        lap = knn_lap(6)
        p = make_params("first_order", 10)
        p.readout_filter.weights[:] = 0.0
        p.readout_bias[:] = np.arange(10.0)
        out = readout(p, lap, np.ones((10, 3)))
        assert np.allclose(out, np.tile(np.arange(10.0)[:, None], (1, 3)))

    def test_edgeless_identity(self):
        lap = build_laplacians(Graph(3, ()))
        p = make_params("first_order", 3)
        p.readout_filter.weights = np.eye(3)
        p.readout_bias[:] = 0.0
        h = np.random.default_rng(7).standard_normal((3, 3))
        assert np.allclose(readout(p, lap, h), h)

    def test_chebyshev_order_one(self):
        lap = knn_lap(8)
        p = make_params("chebyshev", 10, k=1)
        p.readout_filter = ChebFilter([2.0])
        p.readout_bias[:] = 0.0
        h = np.random.default_rng(8).standard_normal((10, 3))
        assert np.allclose(readout(p, lap, h), 2.0 * h)


class TestCheckpoint:
    @pytest.mark.parametrize("family", ["chebyshev", "first_order"])
    def test_round_trip_exact(self, tmp_path, family):
        p = make_params(family, 10, seed=42, alpha=0.123456789012345,
                        beta=-0.7)
        p.bias[:] = np.random.default_rng(9).standard_normal(10)
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path, "abc123")
        p2, checksum, state = load_checkpoint(path)
        assert checksum == "abc123" and state is None
        assert p2.conv_family == p.conv_family
        assert p2.alpha == p.alpha and p2.beta == p.beta
        assert np.array_equal(p2.bias, p.bias)
        assert np.array_equal(p2.readout_bias, p.readout_bias)
        if family == "chebyshev":
            assert np.array_equal(p2.input_filter.coeffs, p.input_filter.coeffs)
        else:
            assert np.array_equal(p2.input_filter.weights, p.input_filter.weights)

    def test_train_state_round_trip(self, tmp_path):
        p = make_params("first_order", 6)
        state = {"epoch": 5, "adam_step": 40, "lr": 0.0059049,
                 "adam_m": np.arange(4.0), "adam_v": np.arange(4.0) ** 2}
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path, "deadbeef", train_state=state)
        _, _, loaded = load_checkpoint(path)
        assert loaded["epoch"] == 5 and loaded["adam_step"] == 40
        assert loaded["lr"] == state["lr"]
        assert np.array_equal(loaded["adam_m"], state["adam_m"])
        assert np.array_equal(loaded["adam_v"], state["adam_v"])
