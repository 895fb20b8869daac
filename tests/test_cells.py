import numpy as np
import pytest

from fgrnn.cells import (ModelParams, conv_family, input_terms,
                         load_checkpoint, preactivation, readout,
                         save_checkpoint, unroll)
from fgrnn.errors import ContractViolation, NumericOverflow, ParseError
from fgrnn.gconv import ChebFilter, FeatureTransform, cheb_conv, first_order_conv
from fgrnn.graph import Graph, build_knn_graph, build_laplacians
from fgrnn.training import TrainConfig, init_params

from . import reference as ref


def make_params(family, n, f=3, p=3, k=3, seed=0, **kw):
    cfg = TrainConfig(family=family, k=k, p=p, seed=seed)
    params = init_params(cfg, n, f)
    for key, val in kw.items():
        setattr(params, key, val)
    return params


def knn_lap(seed, n=10, k=3):
    rng = np.random.default_rng(seed)
    return build_laplacians(build_knn_graph(rng.standard_normal((n, 3)), k))


class TestModelParams:
    def test_theta_order_and_views(self):
        w = np.arange(6.0).reshape(3, 2)
        u = [[6.0, 7], [8, 9]]
        v = np.arange(10.0, 16).reshape(2, 3)
        p = ModelParams("first_order", w, u, v, 0.25, 0.75, [1.0, 2, 3, 4],
                        [5.0, 6, 7, 8])
        assert np.array_equal(p.theta, np.concatenate(
            [np.arange(16.0), [0.25, 0.75], [1.0, 2, 3, 4], [5.0, 6, 7, 8]]))
        assert (p.W.shape, p.U.shape, p.V.shape, p.b.shape, p.z.shape) == (
            (3, 2), (2, 2), (2, 3), (4,), (4,))
        assert type(p.alpha) is float and type(p.beta) is float
        p.theta[:] = -np.arange(p.theta.size)
        assert p.W[2, 1] == -5 and p.V[0, 0] == -10 and p.z[3] == -25
        assert (p.alpha, p.beta) == (-16.0, -17.0)
        p.beta = 0.5
        assert p.theta[17] == 0.5

    def test_like_shares_the_vector(self):
        p = make_params("chebyshev", 5, k=2)
        assert p.W.shape == (2,) and p.theta.size == 3 * 2 + 2 + 2 * 5
        vec = np.zeros_like(p.theta)
        g = p.like(vec)
        g.U[1], g.alpha, g.b[4] = 3.0, 2.0, 1.0
        assert vec[3] == 3.0 and vec[6] == 2.0 and vec[12] == 1.0
        assert np.array_equal(p.U, make_params("chebyshev", 5, k=2).U)
        with pytest.raises(ContractViolation):
            p.like(np.zeros(p.theta.size + 1))


class TestFgrnnStep:
    def test_standard_rnn_reduction(self):
        # alpha=1, beta=0 collapses to conv + bias + activation
        lap = knn_lap(0)
        p = make_params("chebyshev", 10, alpha=1.0, beta=0.0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 3))
        h_prev = rng.standard_normal((10, 3))
        h_tilde, h = ref.fgrnn_step(p, lap, h_prev, x)
        expected = np.tanh(cheb_conv(lap, x, ChebFilter(p.W))
                           + cheb_conv(lap, h_prev, ChebFilter(p.U))
                           + p.b[:, None])
        assert np.array_equal(h, h_tilde)
        assert np.allclose(h, expected)

    def test_pure_residual(self):
        lap = knn_lap(0)
        p = make_params("first_order", 10, alpha=0.0, beta=1.0)
        rng = np.random.default_rng(2)
        h_prev = rng.standard_normal((10, 3))
        _, h = ref.fgrnn_step(p, lap, h_prev, rng.standard_normal((10, 3)))
        assert np.array_equal(h, h_prev)

    def test_zero_filters(self):
        lap = build_laplacians(Graph(3, ()))
        p = make_params("first_order", 3, beta=0.25)
        p.W[:] = 0.0
        p.U[:] = 0.0
        p.b[:] = 0.0
        h_prev = np.random.default_rng(3).standard_normal((3, 3))
        h_tilde, h = ref.fgrnn_step(p, lap, h_prev, np.ones((3, 3)))
        assert np.all(h_tilde == 0.0)
        assert np.allclose(h, 0.25 * h_prev)

    def test_relu_active_regime_is_linear(self):
        lap = knn_lap(4)
        p = make_params("first_order", 10, activation="relu")
        p.b[:] = 10.0  # guarantees positive pre-activations
        rng = np.random.default_rng(4)
        x = rng.standard_normal((10, 3)) * 0.1
        h_prev = rng.standard_normal((10, 3)) * 0.1
        h_tilde, _ = ref.fgrnn_step(p, lap, h_prev, x)
        pre = (first_order_conv(lap, x, FeatureTransform(p.W))
               + first_order_conv(lap, h_prev, FeatureTransform(p.U))
               + p.b[:, None])
        assert np.array_equal(h_tilde, pre)

    @pytest.mark.parametrize("seed", range(3))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        pts = rng.standard_normal((n, 3))
        x = rng.standard_normal((n, 3))
        h_prev = rng.standard_normal((n, 3))
        p = make_params("chebyshev", n, seed=seed)
        p.b[:] = rng.standard_normal(n)
        perm = rng.permutation(n)

        lap = build_laplacians(build_knn_graph(pts, 3))
        _, h = ref.fgrnn_step(p, lap, h_prev, x)

        lap_p = build_laplacians(build_knn_graph(pts[perm], 3))
        p_perm = p.like(p.theta.copy())
        p_perm.b[:] = p.b[perm]
        _, h_p = ref.fgrnn_step(p_perm, lap_p, h_prev[perm], x[perm])
        assert np.allclose(h_p, h[perm], atol=1e-9)


class TestPreactivation:
    def test_non_finite_raises(self):
        lap = knn_lap(24)
        p = make_params("first_order", 10)
        fam = conv_family(p, lap)
        wx = np.zeros((10, 3))
        wx[4, 1] = np.inf
        with pytest.raises(NumericOverflow):
            preactivation(p, fam, wx)
        # unroll names the step whose pre-activation overflowed
        terms = [np.zeros((10, 3)), wx]
        with pytest.raises(NumericOverflow, match="step 2"):
            list(unroll(p, fam, terms))


class TestUnroll:
    @staticmethod
    def reference(p, lap, frames, h, feedback):
        """(h_tilde, h, x_hat) per step from a chain of fgrnn_step and
        readout: every frame, then each prediction fed back."""
        out, x = [], None
        for t in range(len(frames) + feedback):
            x = frames[t] if t < len(frames) else x
            h_tilde, h = ref.fgrnn_step(p, lap, h, x)
            x = ref.readout(p, lap, h)
            out.append((h_tilde, h, x))
        return out

    @pytest.mark.parametrize("feedback", [0, 3])
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("case", ["chebyshev", "mixed_orders",
                                      "first_order"])
    def test_matches_fgrnn_step_chain(self, case, warm, feedback):
        lap = knn_lap(20, n=12)
        family = "first_order" if case == "first_order" else "chebyshev"
        p = make_params(family, 12, seed=20)
        if case == "mixed_orders":
            p = ModelParams("chebyshev", p.W, [0.4, 0.2],
                            [0.3, -0.2, 0.1, 0.05], p.alpha, p.beta, p.b, p.z)
        rng = np.random.default_rng(21)
        p.b[:] = 0.1 * rng.standard_normal(12)
        p.z[:] = 0.1 * rng.standard_normal(12)
        frames = rng.standard_normal((5, 12, 3))
        # warm: three earlier frames first carry the state away from zero,
        # as the train frames do before evaluate scores the test frames;
        # the steps after them must continue the chain from that state
        earlier = rng.standard_normal((3 if warm else 0, 12, 3))
        h0 = np.zeros((12, 3))
        for x in earlier:
            h0 = ref.fgrnn_step(p, lap, h0, x)[1]
        fam = conv_family(p, lap)
        inputs = np.concatenate([earlier, frames])
        got = list(unroll(p, fam, input_terms(p, fam, inputs),
                          feedback))[len(earlier):]
        want = self.reference(p, lap, frames, h0, feedback)
        assert len(got) == len(want) == 5 + feedback
        for step, (h_tilde, h, x_hat) in zip(got, want):
            assert np.array_equal(step.h_tilde, h_tilde)
            assert np.array_equal(step.h, h)
            assert np.array_equal(step.basis, fam.basis(h))
            assert np.array_equal(readout(p, fam, step.basis), x_hat)

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
        p.V[:] = 0.0
        p.z[:] = np.arange(10.0)
        fam = conv_family(p, lap)
        out = readout(p, fam, fam.basis(np.ones((10, 3))))
        assert np.allclose(out, np.tile(np.arange(10.0)[:, None], (1, 3)))

    def test_edgeless_identity(self):
        lap = build_laplacians(Graph(3, ()))
        p = make_params("first_order", 3)
        p.V[:] = np.eye(3)
        p.z[:] = 0.0
        h = np.random.default_rng(7).standard_normal((3, 3))
        fam = conv_family(p, lap)
        assert np.allclose(readout(p, fam, fam.basis(h)), h)

    def test_chebyshev_order_one(self):
        lap = knn_lap(8)
        p = make_params("chebyshev", 10, k=1)
        p.V[:] = [2.0]
        p.z[:] = 0.0
        h = np.random.default_rng(8).standard_normal((10, 3))
        fam = conv_family(p, lap)
        assert np.allclose(readout(p, fam, fam.basis(h)), 2.0 * h)


class TestCheckpoint:
    @pytest.mark.parametrize("family", ["chebyshev", "first_order"])
    def test_round_trip_exact(self, tmp_path, family):
        p = make_params(family, 10, seed=42, alpha=0.123456789012345,
                        beta=-0.7)
        p.b[:] = np.random.default_rng(9).standard_normal(10)
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path, "abc123")
        p2, checksum, state = load_checkpoint(path)
        assert checksum == "abc123" and state is None
        assert p2.conv_family == p.conv_family
        assert p2.alpha == p.alpha and p2.beta == p.beta
        assert np.array_equal(p2.b, p.b)
        assert np.array_equal(p2.z, p.z)
        assert p2.W.shape == p.W.shape and np.array_equal(p2.W, p.W)
        assert np.array_equal(p2.theta, p.theta)

    def test_train_state_round_trip(self, tmp_path):
        p = make_params("first_order", 6)
        # one moment per parameter, in theta's order
        moments = np.arange(float(p.theta.size))
        state = {"epoch": 5, "adam_step": 40, "lr": 0.0059049,
                 "adam_m": moments, "adam_v": moments ** 2}
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path, "deadbeef", train_state=state)
        _, _, loaded = load_checkpoint(path)
        assert loaded["epoch"] == 5 and loaded["adam_step"] == 40
        assert loaded["lr"] == state["lr"]
        assert np.array_equal(loaded["adam_m"], state["adam_m"])
        assert np.array_equal(loaded["adam_v"], state["adam_v"])

    def test_graph_binding_is_checked_at_its_line(self, tmp_path):
        rng = np.random.default_rng(10)
        graph = build_knn_graph(rng.standard_normal((10, 3)), 3)
        other = build_knn_graph(rng.standard_normal((10, 3)), 3)
        assert graph.checksum() != other.checksum()
        p = make_params("first_order", 10)
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path, graph.checksum())
        loaded, checksum, _ = load_checkpoint(path, graph, 3)
        assert checksum == graph.checksum()
        assert np.array_equal(loaded.theta, p.theta)
        with pytest.raises(ParseError) as exc:
            load_checkpoint(path, other, 3)
        assert str(exc.value).startswith(
            f"{path}: line 5: graph_checksum {graph.checksum()} ")
        assert other.checksum() in str(exc.value)

    def test_features_default_to_the_files_own_w(self, tmp_path):
        graph = build_knn_graph(
            np.random.default_rng(11).standard_normal((10, 3)), 3)
        p = make_params("first_order", 10, f=4, p=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path, graph.checksum())
        given = load_checkpoint(path, graph, 4)
        taken, checksum, state = load_checkpoint(path, graph)
        assert np.array_equal(taken.theta, given[0].theta)
        assert (taken.W.shape, checksum, state) == ((4, 2), given[1], None)

    def test_v_must_end_in_ws_features(self, tmp_path):
        graph = build_knn_graph(
            np.random.default_rng(11).standard_normal((10, 3)), 3)
        p = ModelParams("first_order", np.ones((3, 2)), np.ones((2, 2)),
                        np.ones((2, 4)), 0.5, 0.5, np.zeros(10), np.zeros(10))
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path, graph.checksum())
        v_line = path.read_text().splitlines().index("V 2 4") + 1
        with pytest.raises(ParseError, match=(
                f"^{path}: line {v_line}: checkpoint V is 2 x 4, but N=10 "
                f"nodes and F=3 features need 2 x 3$")):
            load_checkpoint(path, graph)

    def test_not_a_checkpoint_file(self, tmp_path):
        path = tmp_path / "frames.txt"
        path.write_text("gfrm 1 2 1 1\n0\n0\n")
        with pytest.raises(ParseError,
                           match=f"^{path}: line 1: not a checkpoint file$"):
            load_checkpoint(path)


@pytest.mark.parametrize("args,kwargs,fragment", [
    (("dense", [[1.0]], [[1.0]], [[1.0]]), {}, "unknown family"),
    (("first_order", [[1.0]], [[1.0]], [[1.0]]), {"activation": "softsign"},
     "unknown activation"),
    (("chebyshev", [], [0.5], [0.5]), {}, "K >= 1"),
    (("first_order", [1.0], [[1.0]], [[1.0]]), {}, "2-D"),
], ids=["family", "activation", "chebyshev K 0", "first_order 1-D"])
def test_model_params_guards(args, kwargs, fragment):
    with pytest.raises(ContractViolation, match=fragment):
        ModelParams(*args, alpha=0.5, beta=0.5, b=np.zeros(2), z=np.zeros(2),
                    **kwargs)
