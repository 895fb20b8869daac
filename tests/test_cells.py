import re
from pathlib import Path

import numpy as np
import pytest

from fgrnn import cells
from fgrnn.cells import (_ENTRIES, ACTIVATIONS, ModelParams, advance,
                         conv_family, input_terms, load_checkpoint,
                         preactivation, readout, rollout, save_checkpoint,
                         step_vjp, unroll)
from fgrnn.data import load_frames
from fgrnn.errors import ContractViolation, NumericOverflow, ParseError
from fgrnn.gconv import ChebFilter, FeatureTransform, cheb_conv, first_order_conv
from fgrnn.graph import Graph, build_knn_graph, build_laplacians, load_graph
from fgrnn.training import TrainConfig, init_params

from . import reference as ref

DATA = Path(__file__).parent / "data"


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


class TestStepVjp:
    """step_vjp(p, fam, v, act'(a), pre) is the gradient in h_prev of
    <v, h> + <g, x_hat>: h is reference.fgrnn_step from h_prev, x_hat is
    reference.readout of h_prev, and pre is g's pre_adjoint; without pre
    the readout term is left out."""

    @pytest.mark.parametrize("with_pre", [False, True], ids=["no pre", "pre"])
    @pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("family", ["chebyshev", "first_order"])
    def test_matches_finite_differences(self, family, width, activation,
                                        with_pre):
        n = 8
        lap = knn_lap(30, n=n)
        # a Chebyshev state is as wide as the frames; first-order is p wide
        f = width if family == "chebyshev" else 2
        p = make_params(family, n, f=f, p=width, activation=activation)
        rng = np.random.default_rng(31)
        p.theta[:] = rng.uniform(-1.0, 1.0, p.theta.size)
        p.alpha, p.beta = 0.6, -0.3
        h, v = rng.standard_normal((2, n, width))
        x, g = rng.standard_normal((2, n, f))

        def objective(h_prev):
            out = np.sum(v * ref.fgrnn_step(p, lap, h_prev, x)[1])
            if with_pre:
                out += np.sum(g * ref.readout(p, lap, h_prev))
            return out

        fam = conv_family(p, lap)
        dact = ACTIVATIONS[activation][1](ref.fgrnn_step(p, lap, h, x)[0])
        pre = fam.pre_adjoint(p.V, g) if with_pre else None
        got = step_vjp(p, fam, v, dact, pre)
        eps = 1e-6
        fd = np.empty_like(h)
        for idx in np.ndindex(h.shape):
            hp, hm = h.copy(), h.copy()
            hp[idx] += eps
            hm[idx] -= eps
            fd[idx] = (objective(hp) - objective(hm)) / (2 * eps)
        np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-8)


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
    def reference(p, lap, frames, h, fed_back):
        """(h_tilde, h, x_hat) per step from a chain of fgrnn_step and
        readout: every frame, then each prediction fed back."""
        out, x = [], None
        for t in range(len(frames) + fed_back):
            x = frames[t] if t < len(frames) else x
            h_tilde, h = ref.fgrnn_step(p, lap, h, x)
            x = ref.readout(p, lap, h)
            out.append((h_tilde, h, x))
        return out

    @pytest.mark.parametrize("fed_back", [0, 3])
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("case", ["chebyshev", "first_order"])
    def test_matches_fgrnn_step_chain(self, case, warm, fed_back):
        lap = knn_lap(20, n=12)
        p = make_params(case, 12, seed=20)
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
        got = list(unroll(p, fam, input_terms(p, fam, inputs)))[len(earlier):]
        want = self.reference(p, lap, frames, h0, fed_back)
        assert len(got) == 5 and len(want) == 5 + fed_back
        for step, (h_tilde, h, x_hat) in zip(got, want):
            assert np.array_equal(step.h_tilde, h_tilde)
            assert np.array_equal(step.h, h)
            assert np.array_equal(step.basis, fam.basis(h))
            assert np.array_equal(readout(p, fam, step.basis), x_hat)
        # the rollout from the carried last step: its own prediction, then
        # those of the fed-back steps
        preds = list(rollout(p, fam, got[-1], 1 + fed_back))
        assert len(preds) == 1 + fed_back
        for pred, (_, _, x_hat) in zip(preds, want[4:]):
            assert np.array_equal(pred, x_hat)

    @pytest.mark.parametrize("horizon", [0, 1, 4])
    def test_rollout_makes_no_step_after_its_last_prediction(
            self, monkeypatch, horizon):
        p = make_params("first_order", 10, seed=22)
        fam = conv_family(p, knn_lap(22))
        last = advance(p, fam, np.ones((10, 3)), None)
        made = []
        monkeypatch.setattr(cells, "advance",
                            lambda *args: made.append(1) or advance(*args))
        assert len(list(rollout(p, fam, last, horizon))) == horizon
        assert len(made) == max(horizon - 1, 0)

    @np.errstate(over="ignore", invalid="ignore")
    def test_rollout_names_the_fed_back_step_that_overflows(self):
        p = make_params("first_order", 10, seed=23)
        fam = conv_family(p, knn_lap(23))
        last = advance(p, fam, np.ones((10, 3)), None)
        # the first prediction is finite, the input term made from it not
        p.z[:], p.W[...] = 1e3, 1e308
        preds = rollout(p, fam, last, 3)
        assert np.isfinite(next(preds)).all()
        with pytest.raises(NumericOverflow, match=(
                "^fed-back step 1: non-finite pre-activation$")):
            next(preds)


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


def train_state(p, epoch=0):
    """A checkpoint's training block for p: epoch, Adam step, rate and one
    moment per parameter, in theta's order."""
    moments = np.arange(float(p.theta.size))
    return {"epoch": epoch, "adam_step": 8 * epoch, "lr": 0.0059049,
            "adam_m": moments, "adam_v": moments ** 2}


class TestCheckpoint:
    graph = build_knn_graph(np.random.default_rng(10).standard_normal((10, 3)),
                            3)

    @pytest.mark.parametrize("family", ["chebyshev", "first_order"])
    def test_round_trip_exact(self, tmp_path, family):
        p = make_params(family, 10, seed=42, alpha=0.123456789012345,
                        beta=-0.7)
        p.b[:] = np.random.default_rng(9).standard_normal(10)
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path, self.graph, train_state(p))
        p2, _ = load_checkpoint(path, self.graph, 3)
        assert p2.conv_family == p.conv_family
        assert p2.alpha == p.alpha and p2.beta == p.beta
        assert np.array_equal(p2.b, p.b)
        assert np.array_equal(p2.z, p.z)
        assert p2.W.shape == p.W.shape and np.array_equal(p2.W, p.W)
        assert np.array_equal(p2.theta, p.theta)

    def test_train_state_round_trip(self, tmp_path):
        p = make_params("first_order", 10)
        state = train_state(p, epoch=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path, self.graph, state)
        _, loaded = load_checkpoint(path, self.graph, 3)
        assert loaded["epoch"] == 5 and loaded["adam_step"] == 40
        assert loaded["lr"] == state["lr"]
        assert np.array_equal(loaded["adam_m"], state["adam_m"])
        assert np.array_equal(loaded["adam_v"], state["adam_v"])

    def test_graph_binding_is_checked_at_its_line(self, tmp_path):
        other = build_knn_graph(
            np.random.default_rng(12).standard_normal((10, 3)), 3)
        assert self.graph.checksum() != other.checksum()
        p = make_params("first_order", 10)
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path, self.graph, train_state(p))
        assert path.read_text().splitlines()[4] == (
            f"graph_checksum {self.graph.checksum()}")
        loaded, _ = load_checkpoint(path, self.graph, 3)
        assert np.array_equal(loaded.theta, p.theta)
        with pytest.raises(ParseError) as exc:
            load_checkpoint(path, other, 3)
        assert str(exc.value).startswith(
            f"{path}: line 5: graph_checksum {self.graph.checksum()} ")
        assert other.checksum() in str(exc.value)

    def test_v_must_end_in_ws_features(self, tmp_path):
        # ModelParams refuses a 2 x 4 V beside a 3 x 2 W, so the saved
        # 2 x 3 V gets a fourth column in the file
        p = make_params("first_order", 10, p=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path, self.graph, train_state(p))
        lines = path.read_text().splitlines()
        at = lines.index("V 2 3")
        lines[at:at + 3] = ["V 2 4"] + [row + " 1" for row in
                                         lines[at + 1:at + 3]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=(
                f"^{path}: line {at + 1}: checkpoint V is 2 x 4, but N=10 "
                f"nodes and F=3 features need 2 x 3 in a first_order model "
                f"of P=2, W's column count$")):
            load_checkpoint(path, self.graph, 3)

    def test_not_a_checkpoint_file(self, tmp_path):
        path = tmp_path / "frames.txt"
        path.write_text("gfrm 1 2 1 1\n0\n0\n")
        with pytest.raises(ParseError,
                           match=f"^{path}: line 1: not a checkpoint file$"):
            load_checkpoint(path, self.graph, 1)

    @pytest.mark.parametrize("key,values", [
        ("U", "0.1 0.2"), ("V", "0.1 0.2 0.3 0.4")], ids=["U", "V"])
    def test_chebyshev_filters_share_one_order(self, tmp_path, key, values):
        p = make_params("chebyshev", 10)
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path, self.graph, train_state(p))
        lines = path.read_text().splitlines()
        at = lines.index(f"{key} 1 3")
        lines[at:at + 2] = [f"{key} 1 {len(values.split())}", values]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=(
                f"^{path}: line {at + 1}: checkpoint {key} is 1 x "
                f"{len(values.split())}, but N=10 nodes and F=3 features "
                f"need 1 x 3 in a chebyshev model of K=3, W's column "
                f"count$")):
            load_checkpoint(path, self.graph, 3)

    @pytest.mark.parametrize("key", ["W", "U", "V"])
    def test_chebyshev_filters_are_one_row(self, tmp_path, key):
        # the three coefficients of a 1 x 3 block, one to a line; W's
        # column count, 1, is then the order K
        p = make_params("chebyshev", 10)
        k = 1 if key == "W" else 3
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path, self.graph, train_state(p))
        lines = path.read_text().splitlines()
        at = lines.index(f"{key} 1 3")
        lines[at:at + 2] = [f"{key} 3 1"] + lines[at + 1].split()
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=(
                f"^{path}: line {at + 1}: checkpoint {key} is 3 x 1, but "
                f"N=10 nodes and F=3 features need 1 x {k} in a chebyshev "
                f"model of K={k}, W's column count$")):
            load_checkpoint(path, self.graph, 3)

    # a first_order model of p = 3 on 10 nodes: alpha at line 6, beta at
    # line 7, and adam_v, of 49 moments, the last two of 30 lines
    @pytest.mark.parametrize("edit,message", [
        (lambda lines: lines[:5] + ["seed 3"] + lines[5:],
         "line 6: expected 'alpha value', got 'seed 3'"),
        (lambda lines: lines[:6] + ["alpha 0.5"] + lines[6:],
         "line 7: expected 'beta value', got 'alpha 0.5'"),
        (lambda lines: lines[:5] + [lines[6], lines[5]] + lines[7:],
         "line 6: expected 'alpha value', got 'beta 0.5'"),
        (lambda lines: lines + lines[-2:],
         "line 31: expected the end of the file after adam_v, got "
         "'adam_v 1 49'"),
        (lambda lines: lines[:1] + ["family chebyshev 3"] + lines[2:],
         "line 2: expected 'family value', got 'family chebyshev 3'"),
    ], ids=["unknown", "repeated scalar", "alpha and beta swapped",
            "repeated array", "array form"])
    def test_only_the_written_entries_once(self, tmp_path, edit, message):
        # each entry is read where save_checkpoint writes it, so a line
        # that is not the next entry is refused at that line
        p = make_params("first_order", 10)
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path, self.graph, train_state(p))
        lines = edit(path.read_text().splitlines())
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError,
                           match=f"^{re.escape(f'{path}: {message}')}$"):
            load_checkpoint(path, self.graph, 3)

    @pytest.mark.parametrize("family", ["chebyshev", "first_order"])
    def test_entries_are_written_in_table_order(self, tmp_path, family):
        p = make_params(family, 10)
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path, self.graph, train_state(p))
        lines = path.read_text().splitlines()
        heads, k = [], 1
        while k < len(lines):
            parts = lines[k].split()
            heads.append((parts[0], len(parts) == 3))
            k += 1 + (int(parts[1]) if len(parts) == 3 else 0)
        assert lines[0] == "fgrnn-checkpoint 1"
        assert heads == list(_ENTRIES)

    @pytest.mark.parametrize("name,prefix", [
        ("compat_epoch1.ckpt", "compat"), ("compat_epoch2.ckpt", "compat"),
        ("cheb_epoch2.ckpt", "cheb"), ("cheb_reg_epoch2.ckpt", "cheb")])
    def test_fixtures_resave_byte_identical(self, tmp_path, name, prefix):
        graph = load_graph(DATA / f"{prefix}_graph.txt")
        n_features = load_frames(DATA / f"{prefix}_frames.txt").frames.shape[2]
        p, state = load_checkpoint(DATA / name, graph, n_features)
        path = tmp_path / name
        save_checkpoint(p, path, graph, state)
        assert path.read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("args,kwargs,fragment", [
    (("dense", [[1.0]], [[1.0]], [[1.0]]), {}, "unknown family"),
    (("first_order", [[1.0]], [[1.0]], [[1.0]]), {"activation": "softsign"},
     "unknown activation"),
    (("chebyshev", [], [0.5], [0.5]), {},
     r"^chebyshev W, U, V, b and z of shapes \(0,\), .*: need a non-empty W"),
    (("chebyshev", [0.5, 0.1], [0.5], [0.5, 0.1]), {},
     r"^chebyshev W, U, V, b and z of shapes \(2,\), \(1,\), \(2,\), "),
    (("first_order", [1.0], [[1.0]], [[1.0]]), {},
     r"^first_order W, U, V, b and z of shapes \(1,\), \(1, 1\), "),
], ids=["family", "activation", "chebyshev K 0", "chebyshev mixed orders",
        "first_order 1-D"])
def test_model_params_guards(args, kwargs, fragment):
    with pytest.raises(ContractViolation, match=fragment):
        ModelParams(*args, alpha=0.5, beta=0.5, b=np.zeros(2), z=np.zeros(2),
                    **kwargs)


# W, U, V, b and z, each off the shapes that FAMILIES gives at W's last axis
# and first axis, or b and z of unequal length
OFF_THE_TABLE = {
    "first_order U 3 x 3 beside W 3 x 2": (
        "first_order", (3, 2), (3, 3), (2, 3), (10,), (10,)),
    "first_order V of p x F' with F' != F": (
        "first_order", (3, 2), (2, 2), (2, 4), (10,), (10,)),
    "chebyshev orders that differ": (
        "chebyshev", (3,), (2,), (3,), (10,), (10,)),
    "chebyshev W of 2 x 2": ("chebyshev", (2, 2), (4,), (4,), (10,), (10,)),
    "b of 7 nodes beside z of 10": (
        "chebyshev", (3,), (3,), (3,), (7,), (10,)),
    "b of one row": ("first_order", (3, 2), (2, 2), (2, 3), (1, 10), (10,)),
    "chebyshev K 0": ("chebyshev", (0,), (0,), (0,), (10,), (10,)),
    "first_order p 0": ("first_order", (3, 0), (0, 0), (0, 3), (10,), (10,)),
    "first_order F 0": ("first_order", (0, 2), (2, 2), (2, 0), (10,), (10,)),
}


@pytest.mark.parametrize("family,w,u,v,b,z", OFF_THE_TABLE.values(),
                         ids=OFF_THE_TABLE.keys())
def test_model_params_takes_only_the_table_shapes(family, w, u, v, b, z):
    shapes = ", ".join(map(str, (w, u, v, b, z)))
    with pytest.raises(ContractViolation, match=(
            rf"^{family} W, U, V, b and z of shapes "
            rf"{re.escape(shapes)}: need a non-empty W, U and V of the "
            rf"shapes FAMILIES gives at W's shape, and b and z of one value "
            rf"per node each$")):
        ModelParams(family, np.ones(w), np.ones(u), np.ones(v), 0.5, 0.5,
                    np.ones(b), np.ones(z))


@pytest.mark.parametrize("family,n,f", [
    ("chebyshev", 10, 3), ("chebyshev", 1, 2), ("first_order", 10, 3),
    ("first_order", 1, 1)])
def test_a_model_fits_only_its_own_frames(family, n, f):
    p = make_params(family, n, f=f)
    assert p.fits(n, f) and not p.fits(n + 1, f)
    # a Chebyshev filter keeps each frame's feature count
    assert p.fits(n, f + 1) == (family == "chebyshev")
