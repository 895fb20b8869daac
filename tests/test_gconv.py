import numpy as np
import pytest

from fgrnn.errors import ContractViolation
from fgrnn.gconv import (ChebFamily, ChebFilter, FeatureTransform,
                         FirstOrderFamily, cheb_conv, cheb_conv_backward,
                         first_order_conv, first_order_conv_backward,
                         over_steps)
from fgrnn.graph import Graph, build_knn_graph, build_laplacians
from fgrnn.sparse import spmm

from .reference import spectral_conv_oracle, to_dense


def knn_lap(seed, n=10, k=3):
    rng = np.random.default_rng(seed)
    return build_laplacians(build_knn_graph(rng.standard_normal((n, 3)), k))


K2_LAP = build_laplacians(Graph(2, ((0, 1, 1.0),)))
EDGELESS = build_laplacians(Graph(3, ()))


class TestChebConv:
    def test_order_one_is_scaling(self):
        x = np.random.default_rng(0).standard_normal((2, 3))
        out = cheb_conv(K2_LAP, x, ChebFilter([2.5]))
        assert np.allclose(out, 2.5 * x)

    def test_order_two_is_scaled_laplacian(self):
        x = np.random.default_rng(1).standard_normal((2, 2))
        out = cheb_conv(K2_LAP, x, ChebFilter([0.0, 1.0]))
        assert np.allclose(out, to_dense(K2_LAP.scaled) @ x, atol=1e-12)

    def test_second_polynomial_on_k2(self):
        # T_2 = 2 Ls^2 - I = I for the K2 scaled Laplacian
        out = cheb_conv(K2_LAP, np.array([[1.0], [0.0]]), ChebFilter([0, 0, 1]))
        assert np.allclose(out, [[1.0], [0.0]], atol=1e-9)

    def test_spectral_oracle_on_k2(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 1))
        f = ChebFilter(rng.standard_normal(3))
        assert np.allclose(cheb_conv(K2_LAP, x, f),
                           spectral_conv_oracle(K2_LAP, x, f), atol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_spectral_oracle_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        lap = knn_lap(seed)
        x = rng.standard_normal((10, 2))
        f = ChebFilter(rng.standard_normal(int(rng.integers(1, 7))))
        diff = cheb_conv(lap, x, f) - spectral_conv_oracle(lap, x, f)
        assert np.linalg.norm(diff) < 1e-9 * max(np.linalg.norm(x), 1.0)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        lap = knn_lap(3)
        x1, x2 = rng.standard_normal((2, 10, 3))
        f = ChebFilter(rng.standard_normal(4))
        lhs = cheb_conv(lap, x1 + x2, f)
        rhs = cheb_conv(lap, x1, f) + cheb_conv(lap, x2, f)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_oracle_size_guard(self):
        rng = np.random.default_rng(4)
        lap = build_laplacians(build_knn_graph(rng.standard_normal((70, 3)), 3))
        with pytest.raises(ContractViolation):
            spectral_conv_oracle(lap, np.zeros((70, 1)), ChebFilter([1.0]))


class TestChebBasis:
    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    @pytest.mark.parametrize("shape", [(10, 4), (10,)], ids=["2-D", "1-D"])
    def test_matches_stacked_recurrence(self, order, shape):
        lap = knn_lap(7)
        x = np.random.default_rng(order).standard_normal(shape)
        terms = [x]
        if order > 1:
            terms.append(spmm(lap.scaled, x))
        while len(terms) < order:
            terms.append(2.0 * spmm(lap.scaled, terms[-1]) - terms[-2])
        expected = np.stack(terms)
        got = ChebFamily(lap, order).basis(x)
        assert got.shape == expected.shape == (order,) + shape
        assert got.tobytes() == expected.tobytes()


def family_and_coeffs(family, size, rng, lap):
    """A family on lap and its trainable array: Chebyshev of order size,
    or first-order with size x size weights."""
    if family == "chebyshev":
        return ChebFamily(lap, size), rng.standard_normal(size)
    return FirstOrderFamily(lap), rng.standard_normal((size, size))


class TestAdjointContract:
    """conv(c)^T g is adjoint(pre_adjoint(c, g)); pre_adjoint and
    coeff_grad take one step or a (T, N, F) stack, bit for bit alike."""

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("family", ["chebyshev", "first_order"])
    def test_stack_pre_adjoint_matches_each_step(self, family, size):
        rng = np.random.default_rng(size)
        fam, c = family_and_coeffs(family, size, rng, knn_lap(11))
        stack = rng.standard_normal((4, 10, size))
        got = fam.pre_adjoint(c, stack)
        assert got.shape == stack.shape
        for t in range(len(stack)):
            assert got[t].tobytes() == fam.pre_adjoint(c, stack[t]).tobytes()

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("family", ["chebyshev", "first_order"])
    def test_stack_coeff_grad_is_the_flattened_one(self, family, size):
        # a stack's gradient is that of its steps flattened into one;
        # bases[:, :-1] is not contiguous
        rng = np.random.default_rng(10 + size)
        fam, c = family_and_coeffs(family, size, rng, knn_lap(12))
        states = rng.standard_normal((5, 10, size))
        bases = np.ascontiguousarray(over_steps(fam.basis, states))
        upstream = rng.standard_normal((5, 10, size))
        for b, g in ((bases, upstream), (bases[:, :-1], upstream[1:])):
            flat = fam.coeff_grad(c, b.reshape(b.shape[:-3] + (-1, size)),
                                  g.reshape(-1, size))
            assert fam.coeff_grad(c, b, g).tobytes() == flat.tobytes()

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_chebyshev_coeff_grad_is_the_tensordot(self, order):
        # one matrix-vector product gives tensordot's bytes, for a
        # contiguous stack, a non-contiguous slice of one, and one step
        rng = np.random.default_rng(20 + order)
        fam = ChebFamily(knn_lap(14), order)
        c = rng.standard_normal(order)
        bases = np.ascontiguousarray(
            over_steps(fam.basis, rng.standard_normal((6, 10, 3))))
        upstream = rng.standard_normal((6, 10, 3))
        for b, g in ((bases, upstream), (bases[:, 1:], upstream[:-1]),
                     (bases[:, 2], upstream[2])):
            assert (fam.coeff_grad(c, b, g).tobytes()
                    == np.tensordot(b, g, axes=g.ndim).tobytes())

    def test_adjoint_takes_one_array(self):
        lap = knn_lap(13)
        x = np.random.default_rng(13).standard_normal((10, 2))
        assert ChebFamily(lap, 3).adjoint(x) is x
        assert (FirstOrderFamily(lap).adjoint(x).tobytes()
                == spmm(lap.first_order, x).tobytes())


class TestChebBackward:
    def test_order_one(self):
        rng = np.random.default_rng(5)
        x, up = rng.standard_normal((2, 2, 3))
        grad_x, grad_c = cheb_conv_backward(K2_LAP, x, ChebFilter([0.7]), up)
        assert grad_c == pytest.approx(np.sum(x * up))
        assert np.allclose(grad_x, 0.7 * up)

    def test_zero_upstream(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 2))
        grad_x, grad_c = cheb_conv_backward(K2_LAP, x, ChebFilter([1, 2, 3]),
                                            np.zeros_like(x))
        assert np.all(grad_x == 0) and np.all(grad_c == 0)

    def test_finite_differences(self):
        rng = np.random.default_rng(7)
        lap = knn_lap(7, n=8)
        x = rng.standard_normal((8, 2))
        coeffs = rng.standard_normal(4)
        up = rng.standard_normal((8, 2))
        f = ChebFilter(coeffs.copy())
        grad_x, grad_c = cheb_conv_backward(lap, x, f, up)
        eps = 1e-6
        for k in range(4):
            for sgn in (1, -1):
                c = coeffs.copy()
                c[k] += sgn * eps
                val = np.sum(cheb_conv(lap, x, ChebFilter(c)) * up)
                if sgn > 0:
                    plus = val
                else:
                    minus = val
            fd = (plus - minus) / (2 * eps)
            assert grad_c[k] == pytest.approx(fd, rel=1e-7)
        for idx in [(0, 0), (3, 1), (7, 0)]:
            xp, xm = x.copy(), x.copy()
            xp[idx] += eps
            xm[idx] -= eps
            fd = (np.sum(cheb_conv(lap, xp, f) * up)
                  - np.sum(cheb_conv(lap, xm, f) * up)) / (2 * eps)
            assert grad_x[idx] == pytest.approx(fd, rel=1e-7)


class TestFirstOrder:
    def test_edgeless_identity(self):
        x = np.random.default_rng(8).standard_normal((3, 2))
        out = first_order_conv(EDGELESS, x, FeatureTransform(np.eye(2)))
        assert np.allclose(out, x)

    def test_zero_weights(self):
        x = np.ones((3, 2))
        out = first_order_conv(EDGELESS, x, FeatureTransform(np.zeros((2, 4))))
        assert np.all(out == 0) and out.shape == (3, 4)

    def test_k2_mixing(self):
        out = first_order_conv(K2_LAP, np.eye(2), FeatureTransform(np.eye(2)))
        assert np.allclose(out, np.ones((2, 2)))

    def test_backward_trivials(self):
        up = np.zeros((3, 2))
        gx, gw = first_order_conv_backward(
            EDGELESS, np.ones((3, 2)), FeatureTransform(np.eye(2)), up)
        assert np.all(gx == 0) and np.all(gw == 0)
        up = np.random.default_rng(10).standard_normal((3, 2))
        gx, _ = first_order_conv_backward(
            EDGELESS, np.ones((3, 2)), FeatureTransform(np.eye(2)), up)
        assert np.allclose(gx, up)

    def test_backward_finite_differences(self):
        rng = np.random.default_rng(11)
        lap = knn_lap(11, n=8)
        x = rng.standard_normal((8, 3))
        w = rng.standard_normal((3, 3))
        up = rng.standard_normal((8, 3))
        gx, gw = first_order_conv_backward(lap, x, FeatureTransform(w.copy()), up)
        eps = 1e-6
        for idx in [(0, 0), (1, 2), (2, 1)]:
            wp, wm = w.copy(), w.copy()
            wp[idx] += eps
            wm[idx] -= eps
            fd = (np.sum(first_order_conv(lap, x, FeatureTransform(wp)) * up)
                  - np.sum(first_order_conv(lap, x, FeatureTransform(wm)) * up)) / (2 * eps)
            assert gw[idx] == pytest.approx(fd, rel=1e-6)
        for idx in [(0, 0), (5, 2)]:
            xp, xm = x.copy(), x.copy()
            xp[idx] += eps
            xm[idx] -= eps
            t = FeatureTransform(w)
            fd = (np.sum(first_order_conv(lap, xp, t) * up)
                  - np.sum(first_order_conv(lap, xm, t) * up)) / (2 * eps)
            assert gx[idx] == pytest.approx(fd, rel=1e-6)

    def test_linearity(self):
        rng = np.random.default_rng(12)
        lap = knn_lap(12)
        x1, x2 = rng.standard_normal((2, 10, 3))
        t = FeatureTransform(rng.standard_normal((3, 2)))
        lhs = first_order_conv(lap, x1 + x2, t)
        rhs = first_order_conv(lap, x1, t) + first_order_conv(lap, x2, t)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            first_order_conv(K2_LAP, np.ones((2, 3)), FeatureTransform(np.eye(2)))


@pytest.mark.parametrize("call,fragment", [
    (lambda: cheb_conv(K2_LAP, np.ones((3, 1)), ChebFilter([1.0])),
     "3 rows vs 2 nodes"),
    (lambda: cheb_conv_backward(K2_LAP, np.ones((2, 1)), ChebFilter([1.0]),
                                np.ones((2, 2))), "upstream shape"),
    (lambda: first_order_conv(K2_LAP, np.ones((3, 2)),
                              FeatureTransform(np.eye(2))), "node count"),
    (lambda: first_order_conv_backward(K2_LAP, np.ones((2, 2)),
                                       FeatureTransform(np.eye(2)),
                                       np.ones((2, 3))), "upstream shape"),
    (lambda: ChebFilter([]), "K >= 1"),
    (lambda: ChebFilter([[1.0, 2.0]]), "K >= 1"),
    (lambda: ChebFilter([1.0, np.inf]), "finite"),
    (lambda: FeatureTransform([1.0, 2.0]), "2-D"),
    (lambda: FeatureTransform([[np.nan]]), "finite"),
], ids=["cheb rows", "cheb backward upstream", "first_order rows",
        "first_order backward upstream", "cheb filter empty",
        "cheb filter 2-D", "cheb filter inf", "transform 1-D",
        "transform nan"])
def test_guards(call, fragment):
    with pytest.raises(ContractViolation, match=fragment):
        call()
