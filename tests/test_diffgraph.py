import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from audiosr import diffgraph as dg
from audiosr.diffgraph import AdamState, GraphError, Parameter, Tensor


def fd_check(build_loss, params, h=1e-5, rtol=1e-6, atol=1e-9):
    """Central finite differences against reverse-mode gradients."""
    loss = build_loss()
    for p in params:
        p.grad = None
    dg.backward(loss, params)
    for p in params:
        grad = p.grad.data.reshape(-1)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = build_loss().item()
            flat[i] = orig - h
            fm = build_loss().item()
            flat[i] = orig
            numeric = (fp - fm) / (2 * h)
            assert grad[i] == pytest.approx(numeric, rel=rtol, abs=atol), (
                f"param element {i}: autodiff {grad[i]} vs numeric {numeric}"
            )


def rand_param(rng, name, shape, scale=1.0, off_kink=False):
    data = rng.normal(size=shape) * scale
    if off_kink:
        data = np.where(np.abs(data) < 0.05, data + 0.2, data)
    return Parameter(name, data)


class TestOpAnchors:
    def test_conv_identity_kernel(self):
        x = Tensor(np.arange(6, dtype=float).reshape(1, 1, 6))
        y = dg.conv1d(x, Tensor([[[1.0]]]), Tensor([0.0]))
        assert np.array_equal(y.data, x.data)

    def test_conv_sum_kernel(self):
        y = dg.conv1d(Tensor([[[1.0, 2.0, 3.0]]]), Tensor(np.ones((1, 1, 3))))
        assert np.array_equal(y.data[0, 0], [3.0, 6.0, 5.0])

    def test_conv_strided_same_length(self):
        y = dg.conv1d(Tensor(np.zeros((1, 1, 5))), Tensor(np.zeros((2, 1, 3))), stride=2)
        assert y.shape == (1, 2, 3)

    def test_conv_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            dg.conv1d(Tensor(np.zeros((1, 2, 5))), Tensor(np.zeros((1, 3, 3))))

    def test_conv_even_kernel_same_rejected(self):
        with pytest.raises(ValueError):
            dg.conv1d(Tensor(np.zeros((1, 1, 5))), Tensor(np.zeros((1, 1, 4))))

    def test_shuffle_interleaving(self):
        x = Tensor(np.array([[[1.0, 3.0], [2.0, 4.0]]]))  # ch0=[a,b], ch1=[c,d]
        y = dg.subpixel_shuffle1d(x, 2)
        assert np.array_equal(y.data, [[[1.0, 2.0, 3.0, 4.0]]])

    def test_shuffle_roundtrip_bit_exact(self):
        x = np.random.default_rng(0).normal(size=(2, 6, 5))
        y = dg.subpixel_unshuffle1d(dg.subpixel_shuffle1d(Tensor(x), 3), 3)
        assert np.array_equal(y.data, x)

    def test_shuffle_shape_contract(self):
        y = dg.subpixel_shuffle1d(Tensor(np.zeros((3, 4 * 7, 11))), 2)
        assert y.shape == (3, 2 * 7, 22)

    def test_shuffle_indivisible_rejected(self):
        with pytest.raises(ValueError):
            dg.subpixel_shuffle1d(Tensor(np.zeros((1, 3, 4))), 2)

    def test_relu_values(self):
        y = dg.relu(Tensor([-2.0, 0.0, 3.0]))
        assert np.array_equal(y.data, [0.0, 0.0, 3.0])

    def test_leaky_relu_values(self):
        y = dg.leaky_relu(Tensor([-2.0, 3.0]), 0.2)
        assert np.allclose(y.data, [-0.4, 3.0])

    def test_dropout_zero_rate_is_identity(self):
        x = Tensor(np.ones((2, 2, 2)))
        assert dg.dropout(x, 0.0, training=True) is x

    def test_dropout_eval_is_identity(self):
        x = Tensor(np.ones((2, 2, 2)))
        assert dg.dropout(x, 0.5, training=False) is x

    def test_dropout_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            dg.dropout(Tensor(np.ones(3)), 1.0, np.random.default_rng(0))

    def test_dropout_scales_survivors(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((4, 4, 64)))
        y = dg.dropout(x, 0.5, rng, training=True)
        kept = y.data[y.data != 0]
        assert np.all(kept == 2.0)

    def test_add_zero_identity(self):
        x = np.random.default_rng(1).normal(size=(2, 3, 4))
        y = dg.add(Tensor(x), Tensor(np.zeros_like(x)))
        assert np.array_equal(y.data, x)

    def test_add_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dg.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))

    def test_concat_shapes(self):
        y = dg.concat_channels(Tensor(np.zeros((2, 3, 5))), Tensor(np.zeros((2, 5, 5))))
        assert y.shape == (2, 8, 5)

    def test_concat_slice_recovers_operands(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(1, 3, 4)), rng.normal(size=(1, 2, 4))
        cat = dg.concat_channels(Tensor(a), Tensor(b))
        assert np.array_equal(dg.slice_channels(cat, 0, 3).data, a)
        assert np.array_equal(dg.slice_channels(cat, 3, 2).data, b)

    def test_concat_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dg.concat_channels(Tensor(np.zeros((2, 3, 5))), Tensor(np.zeros((2, 3, 6))))

    def test_losses_anchors(self):
        one = dg.l1(Tensor([1.0, -1.0]), Tensor([0.0, 0.0]))
        two = dg.l2(Tensor([1.0, -1.0]), Tensor([0.0, 0.0]))
        assert one.item() == 1.0
        assert two.item() == 1.0
        x = Tensor(np.random.default_rng(3).normal(size=8))
        assert dg.l1(x, x).item() == 0.0
        assert dg.l2(x, x).item() == 0.0

    def test_loss_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dg.l1(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


@settings(max_examples=25, deadline=None)
@given(
    b=st.integers(1, 3),
    c=st.integers(1, 4),
    r=st.integers(2, 4),
    length=st.integers(1, 9),
)
def test_shuffle_bijection_property(b, c, r, length):
    x = np.random.default_rng(b * 100 + c * 10 + r).normal(size=(b, c * r, length))
    back = dg.subpixel_unshuffle1d(dg.subpixel_shuffle1d(Tensor(x), r), r)
    assert np.array_equal(back.data, x)


class TestBackward:
    def test_mean_gradient(self):
        x = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
        dg.backward(dg.mean_all(x), [x])
        assert np.allclose(x.grad.data, 1.0 / 12)

    def test_relu_subgradient_zero_at_origin(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
        dg.backward(dg.sum_all(dg.relu(x)), [x])
        assert np.array_equal(x.grad.data, [0.0, 0.0, 1.0])

    def test_leaky_relu_slope_at_origin(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
        dg.backward(dg.sum_all(dg.leaky_relu(x, 0.3)), [x])
        assert np.allclose(x.grad.data, [0.3, 0.3, 1.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(GraphError):
            dg.backward(dg.add(x, x), [x])

    def test_unused_parameters_get_zero_grads(self):
        used = Parameter("used", np.ones(3))
        unused = Parameter("unused", np.ones(3))
        dg.backward(dg.sum_all(used), [used, unused])
        assert np.array_equal(unused.grad.data, np.zeros(3))
        assert np.array_equal(used.grad.data, np.ones(3))

    def test_only_listed_leaves_get_grads(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        w = Parameter("w", np.ones(3))
        dg.backward(dg.sum_all(dg.mul(x, w)), [w])
        assert x.grad is None
        assert np.array_equal(w.grad.data, x.data)

    def test_constant_operands_are_not_recorded(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        assert dg.mul(x, 2.0)._parents == (x,)
        assert dg.mul(Tensor(np.ones(3)), x)._parents == (x,)

    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = dg.add(dg.mul(x, x), dg.mul(3.0, x))  # x^2 + 3x
        dg.backward(dg.sum_all(y), [x])
        assert np.allclose(x.grad.data, [7.0])

    def test_no_nan_gradients_on_finite_graph(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(2, 2, 16)))
        w1 = Parameter("w1", rng.normal(size=(4, 2, 3)))
        b1 = Parameter("b1", rng.normal(size=(4,)))
        w2 = Parameter("w2", rng.normal(size=(2, 4, 3)))
        h = dg.leaky_relu(dg.conv1d(x, w1, b1, stride=2), 0.2)
        out = dg.subpixel_shuffle1d(dg.conv1d(h, w2), 2)
        dg.backward(dg.l2(out, Tensor(np.zeros(out.shape))), [w1, b1, w2])
        for p in (w1, b1, w2):
            assert np.all(np.isfinite(p.grad.data))


class TestFiniteDifferences:
    """Every op passes a central finite-difference comparison (criterion 4)."""

    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def _proj(self, shape):
        return Tensor(self.rng.normal(size=shape))

    def test_conv1d_all_modes(self):
        rng = self.rng
        x = Tensor(rng.normal(size=(2, 2, 10)))
        for stride, padding in ((1, "same"), (2, "same"), (1, "valid"), (2, "valid")):
            w = rand_param(rng, "w", (3, 2, 3), 0.7)
            b = rand_param(rng, "b", (3,), 0.5)
            proj = None

            def loss():
                nonlocal proj
                y = dg.conv1d(x, w, b, stride=stride, padding=padding)
                if proj is None:
                    proj = self._proj(y.shape)
                return dg.sum_all(dg.mul(y, proj))

            fd_check(loss, [w, b])

    def test_conv1d_input_gradient(self):
        rng = self.rng
        xp = rand_param(rng, "x", (1, 2, 8))
        w = Tensor(rng.normal(size=(2, 2, 5)))
        proj = self._proj((1, 2, 4))
        fd_check(lambda: dg.sum_all(dg.mul(dg.conv1d(xp, w, stride=2), proj)), [xp])

    def test_subpixel_shuffle(self):
        p = rand_param(self.rng, "x", (2, 4, 6))
        proj = self._proj((2, 2, 12))
        fd_check(lambda: dg.sum_all(dg.mul(dg.subpixel_shuffle1d(p, 2), proj)), [p])

    def test_relu_off_kink(self):
        p = rand_param(self.rng, "x", (3, 5), off_kink=True)
        proj = self._proj((3, 5))
        fd_check(lambda: dg.sum_all(dg.mul(dg.relu(p), proj)), [p], rtol=1e-4)

    def test_leaky_relu_off_kink(self):
        p = rand_param(self.rng, "x", (3, 5), off_kink=True)
        proj = self._proj((3, 5))
        fd_check(lambda: dg.sum_all(dg.mul(dg.leaky_relu(p, 0.2), proj)), [p], rtol=1e-4)

    def test_add_mul_broadcast(self):
        a = rand_param(self.rng, "a", (2, 3, 4))
        bias = rand_param(self.rng, "b", (1, 3, 1))
        proj = self._proj((2, 3, 4))
        fd_check(
            lambda: dg.sum_all(dg.mul(dg.add(a, bias), proj)), [a, bias]
        )
        fd_check(
            lambda: dg.sum_all(dg.mul(dg.mul(a, bias), proj)), [a, bias]
        )

    def test_concat_and_slices(self):
        a = rand_param(self.rng, "a", (1, 2, 4))
        b = rand_param(self.rng, "b", (1, 3, 4))
        proj = self._proj((1, 5, 4))

        def loss():
            cat = dg.concat_channels(a, b)
            return dg.sum_all(dg.mul(cat, proj))

        fd_check(loss, [a, b])
        proj2 = self._proj((1, 2, 2))
        fd_check(
            lambda: dg.sum_all(dg.mul(dg.slice_time(a, 1, 2), proj2)), [a]
        )

    def test_pad_axis(self):
        a = rand_param(self.rng, "a", (1, 2, 4))
        proj = self._proj((1, 2, 9))
        fd_check(lambda: dg.sum_all(dg.mul(dg.pad_axis(a, 2, 2, 3), proj)), [a])

    def test_dense_and_mean_time(self):
        x = Tensor(self.rng.normal(size=(3, 4, 6)))
        w = rand_param(self.rng, "w", (4, 2))
        b = rand_param(self.rng, "b", (2,))
        proj = self._proj((3, 2))

        def loss():
            pooled = dg.mean_time(x)
            return dg.sum_all(dg.mul(dg.dense(pooled, w, b), proj))

        fd_check(loss, [w, b])

    def test_losses(self):
        pred = rand_param(self.rng, "p", (2, 3), off_kink=True)
        target = Tensor(np.zeros((2, 3)))
        fd_check(lambda: dg.l2(pred, target), [pred])
        fd_check(lambda: dg.l1(pred, target), [pred], rtol=1e-4)

    def test_sqrt_and_pow(self):
        p = rand_param(self.rng, "p", (4,), scale=0.5)
        p.data = np.abs(p.data) + 1.0
        fd_check(lambda: dg.sum_all(dg.sqrt(p)), [p])
        fd_check(lambda: dg.sum_all(dg.pow_const(p, 3.0)), [p])

    def test_take_time_gather(self):
        p = rand_param(self.rng, "p", (2, 3, 8))
        idx = np.array([[0, 2, 2, 5, 7, 1, 1, 0], [3, 3, 3, 0, 1, 2, 6, 7]])
        proj = self._proj((2, 3, 8))
        fd_check(lambda: dg.sum_all(dg.mul(dg.take_time(p, idx), proj)), [p])

    def test_transpose_reshape_broadcast(self):
        p = rand_param(self.rng, "p", (2, 3, 4))
        proj = self._proj((4, 3, 2))
        fd_check(
            lambda: dg.sum_all(dg.mul(dg.transpose(p, (2, 1, 0)), proj)), [p]
        )
        proj2 = self._proj((2, 12))
        fd_check(
            lambda: dg.sum_all(dg.mul(dg.reshape(p, (2, 12)), proj2)), [p]
        )

    def test_two_layer_conv_graph(self):
        rng = self.rng
        x = Tensor(rng.normal(size=(2, 1, 12)))
        w1 = rand_param(rng, "w1", (3, 1, 3), 0.7)
        b1 = rand_param(rng, "b1", (3,), 0.5)
        w2 = rand_param(rng, "w2", (1, 3, 3), 0.7)
        b2 = rand_param(rng, "b2", (1,), 0.5)
        proj = self._proj((2, 1, 12))

        def loss():
            h = dg.relu(dg.conv1d(x, w1, b1))
            y = dg.conv1d(h, w2, b2)
            return dg.sum_all(dg.mul(y, proj))

        fd_check(loss, [w1, b1, w2, b2])


def direct_conv(x, w, stride, padding):
    """float64 direct-sum conv1d with its input and weight gradients for ``proj``.

    Returns ``(y, grads)`` where ``grads(proj)`` gives (dx, dw) of sum(y * proj).
    """
    b, c_in, length = x.shape
    c_out, _, k = w.shape
    if padding == "same":
        width = -(-length // stride)
        total = max((width - 1) * stride + k - length, 0)
        left = total // 2
    else:
        width, total, left = (length - k) // stride + 1, 0, 0
    xp = np.zeros((b, c_in, length + total))
    xp[:, :, left : left + length] = x
    y = np.zeros((b, c_out, width))
    for i, o, t in np.ndindex(b, c_out, width):
        y[i, o, t] = sum(
            w[o, c, j] * xp[i, c, j + stride * t] for c in range(c_in) for j in range(k)
        )

    def grads(proj):
        dxp = np.zeros_like(xp)
        dw = np.zeros_like(w)
        for i, o, t, c, j in np.ndindex(b, c_out, width, c_in, k):
            dxp[i, c, j + stride * t] += w[o, c, j] * proj[i, o, t]
            dw[o, c, j] += proj[i, o, t] * xp[i, c, j + stride * t]
        return dxp[:, :, left : left + length], dw

    return y, grads


def assert_close_rel(got, want, rtol=1e-12):
    assert got.shape == want.shape
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
    assert float(np.max(np.abs(got - want), initial=0.0)) <= rtol * scale


@st.composite
def conv_cases(draw):
    padding = draw(st.sampled_from(["same", "valid"]))
    k = draw(st.integers(1, 9).filter(lambda k: k % 2 == 1 or padding == "valid"))
    stride = draw(st.integers(1, 3))
    length = draw(st.integers(k if padding == "valid" else 1, k + 10))
    b, c_in, c_out = (draw(st.integers(1, 3)) for _ in range(3))
    return b, c_in, c_out, k, stride, padding, length


class TestConvAgainstDirectSum:
    """conv1d and its gradients against an independent float64 loop reference."""

    @settings(max_examples=80, deadline=None)
    @given(case=conv_cases(), seed=st.integers(0, 2**32 - 1))
    @example(case=(2, 3, 2, 9, 2, "valid", 9), seed=0)  # L == k
    @example(case=(1, 2, 3, 4, 3, "valid", 4), seed=1)  # even k, L == k
    @example(case=(2, 1, 2, 5, 2, "same", 5), seed=2)  # L == k, stride does not divide L
    @example(case=(3, 2, 1, 7, 3, "same", 11), seed=3)  # stride does not divide L
    def test_forward_and_gradients(self, case, seed):
        self.check(case, seed)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_one_batch_item_per_chunk(self, monkeypatch, stride):
        # long or wide inputs run _tap_sum one batch item at a time
        monkeypatch.setattr(dg, "_CHUNK_BYTES", 1)
        self.check((3, 2, 3, 5, stride, "same", 13), seed=5)

    @staticmethod
    def check(case, seed):
        b, c_in, c_out, k, stride, padding, length = case
        rng = np.random.default_rng(seed)
        xdata = rng.normal(size=(b, c_in, length))
        wdata = rng.normal(size=(c_out, c_in, k))
        want, grads = direct_conv(xdata, wdata, stride, padding)
        x = Tensor(xdata.copy(), requires_grad=True)
        w = Parameter("w", wdata.copy())
        y = dg.conv1d(x, w, stride=stride, padding=padding)
        assert_close_rel(y.data, want)
        proj = rng.normal(size=want.shape)
        dg.backward(dg.sum_all(dg.mul(y, Tensor(proj))), [x, w])
        want_dx, want_dw = grads(proj)
        assert_close_rel(x.grad.data, want_dx)
        assert_close_rel(w.grad.data, want_dw)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_float32_stays_float32(self, stride):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 11)).astype(np.float32), requires_grad=True)
        w = Parameter("w", rng.normal(size=(4, 3, 5)).astype(np.float32))
        b = Parameter("b", np.zeros(4, dtype=np.float32))
        y = dg.conv1d(x, w, b, stride=stride)
        assert y.dtype == np.float32
        g = dg.input_gradient(dg.sum_all(dg.mul(y, y)), x)
        assert g.dtype == np.float32
        dg.backward(dg.sum_all(dg.mul(g, g)), [x, w, b])
        assert {t.grad.dtype for t in (x, w, b)} == {np.dtype(np.float32)}

    @pytest.mark.parametrize("left", [0, 1, 2])
    @pytest.mark.parametrize("op", ["conv", "conv_bias", "conv_t", "corr"])
    def test_each_conv_op_vjp_matches_fd(self, op, left):
        # the three ops differentiate each other; check each one's VJP directly
        rng = np.random.default_rng(11)
        stride, k, length, width = 2, 3, 9, 4
        x = rand_param(rng, "x", (2, 2, length))
        w = rand_param(rng, "w", (3, 2, k))
        b = rand_param(rng, "b", (3,))
        g = rand_param(rng, "g", (2, 3, width))
        if op == "conv":
            build, params = (lambda: dg._conv(x, w, None, stride, width, left)), [x, w]
        elif op == "conv_bias":
            build, params = (lambda: dg._conv(x, w, b, stride, width, left)), [x, w, b]
        elif op == "conv_t":
            build, params = (lambda: dg._conv_t(g, w, stride, length, left)), [g, w]
        else:
            build, params = (lambda: dg._corr(x, g, stride, k, left)), [x, g]
        proj = Tensor(rng.normal(size=build().shape))
        fd_check(lambda: dg.sum_all(dg.mul(build(), proj)), params)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_padded_biased_conv_is_one_tape_node(self, stride):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(2, 3, 10)), requires_grad=True)
        w = Parameter("w", rng.normal(size=(4, 3, 5)))
        b = Parameter("b", rng.normal(size=4))
        y = dg.conv1d(x, w, b, stride=stride, padding="same")
        assert y._op == "conv"
        assert len(y._parents) == 3
        assert all(p is q for p, q in zip(y._parents, (x, w, b)))


class TestInputGradientAndDoubleBackward:
    def test_astype_casts_the_gradient_back(self):
        x = Tensor(np.arange(4.0, dtype=np.float32), requires_grad=True)
        y = dg.astype(x, np.float64)
        assert y.dtype == np.float64
        g = dg.input_gradient(dg.sum_all(dg.mul(y, y)), x)
        assert g.dtype == np.float32
        assert np.array_equal(g.data, 2 * x.data)
        dg.backward(dg.sum_all(dg.mul(y, y)), [x])
        assert x.grad.dtype == np.float32

    def test_linear_graph_input_gradient_exact(self):
        w = np.zeros(8)
        w[3] = 1.0
        x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 8)), requires_grad=True)
        score = dg.sum_all(dg.mul(x, Tensor(w.reshape(1, 1, 8))))
        g = dg.input_gradient(score, x)
        assert np.array_equal(g.data, np.broadcast_to(w.reshape(1, 1, 8), (2, 1, 8)))

    def test_penalty_parameter_gradient_analytic(self):
        # for score = <w, x> the penalty (||w||-1)^2 has gradient 2(||w||-1) w/||w||
        wp = Parameter("w", np.array([3.0, 4.0]))  # norm 5
        x = Tensor(np.array([[0.7, -0.2]]), requires_grad=True)
        score = dg.sum_all(dg.mul(x, dg.reshape(wp, (1, 2))))
        g = dg.input_gradient(score, x)
        norm = dg.sqrt(dg.sum_all(dg.mul(g, g)))
        pen = dg.mul(dg.sub(norm, Tensor(1.0)), dg.sub(norm, Tensor(1.0)))
        dg.backward(pen, [wp])
        expected = 2.0 * (5.0 - 1.0) * wp.data / 5.0
        assert np.allclose(wp.grad.data, expected, atol=1e-12)

    def test_input_gradient_requires_participation(self):
        x = Tensor(np.ones(3), requires_grad=True)
        other = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(GraphError, match="participate"):
            dg.input_gradient(dg.sum_all(other), x)

    def test_input_gradient_requires_grad_flag(self):
        x = Tensor(np.ones(3))
        y = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(GraphError):
            dg.input_gradient(dg.sum_all(dg.add(x, y)), x)

    @pytest.mark.parametrize(
        "stride, padding, dropout",
        [(1, "same", False), (1, "valid", False), (2, "same", False), (2, "valid", False),
         (1, "same", True)],
    )
    def test_double_backward_through_conv_matches_fd(self, stride, padding, dropout):
        rng = np.random.default_rng(3)
        w = rand_param(rng, "w", (2, 1, 3), 0.6)
        b = rand_param(rng, "b", (2,), 0.3)
        xdata = rng.normal(size=(2, 1, 8))

        def penalty():
            x = Tensor(xdata, requires_grad=True)
            h = dg.leaky_relu(dg.conv1d(x, w, b, stride=stride, padding=padding), 0.2)
            if dropout:  # the same mask on every evaluation
                h = dg.dropout(h, 0.3, np.random.default_rng(4), training=True)
            score = dg.sum_all(dg.mean_time(h))
            g = dg.input_gradient(score, x)
            per_item = dg.sum_axes(dg.mul(g, g), (1, 2))
            d = dg.sub(dg.sqrt(per_item), Tensor(1.0))
            return dg.mean_all(dg.mul(d, d))

        fd_check(penalty, [w, b], rtol=1e-5)

    def test_input_gradient_rejects_a_non_leaf(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        y = dg.mul(x, 2.0)
        with pytest.raises(GraphError, match="leaf"):
            dg.input_gradient(dg.sum_all(dg.mul(y, y)), y)

    def test_input_gradient_under_no_grad_is_detached(self):
        x = Tensor(np.random.default_rng(6).normal(size=(2, 1, 8)), requires_grad=True)
        w = Parameter("w", np.random.default_rng(7).normal(size=(2, 1, 3)))
        score = dg.sum_all(dg.leaky_relu(dg.conv1d(x, w), 0.2))
        recorded = dg.input_gradient(score, x)
        with dg.no_grad():
            g = dg.input_gradient(score, x)
        assert recorded.requires_grad and recorded._parents
        assert not g.requires_grad and g._parents == ()
        assert np.array_equal(g.data, recorded.data)

    def test_backward_while_recording_leaves_detached_grads(self):
        x = Tensor(np.array([0.5, -1.5, 2.0]), requires_grad=True)
        w = Parameter("w", np.array([1.0, 2.0, -3.0]))
        y = dg.add(dg.mul(x, w), dg.mul(x, x))  # x reaches the loss twice
        for _ in range(2):  # the second call accumulates into existing .grad
            dg.backward(dg.sum_all(dg.relu(y)), [x, w])
        for t in (x, w):
            assert not t.grad.requires_grad and t.grad._parents == ()
        assert np.array_equal(x.grad.data, 2 * np.where(y.data > 0, w.data + 2 * x.data, 0.0))

    def test_aliased_gradients_accumulate_correctly(self):
        # add's VJP hands one tensor to both parents; u also gets a second
        # contribution first, so an in-place sum would corrupt v's gradient
        x = Parameter("x", np.array([0.3, -0.7, 1.1]))

        def loss():
            u, v = dg.mul(x, x), dg.mul(x, 3.0)
            t = dg.add(dg.add(u, v), u)
            return dg.sum_all(dg.mul(t, t))

        fd_check(loss, [x])

    def test_second_forward_unaffected_by_backward(self):
        x = Tensor(np.random.default_rng(4).normal(size=(1, 1, 8)))
        w = Parameter("w", np.random.default_rng(5).normal(size=(1, 1, 3)))
        y1 = dg.conv1d(x, w)
        dg.backward(dg.sum_all(y1), [w])
        y2 = dg.conv1d(x, w)
        assert np.array_equal(y1.data, y2.data)


class TestAdam:
    def test_first_step_is_signed_alpha(self):
        p = Parameter("p", np.array([1.0, -2.0, 3.0]))
        p.grad = Tensor(np.array([10.0, -0.5, 2.0]))
        state = AdamState(alpha=0.01)
        before = p.data.copy()
        dg.adam_step([p], state)
        update = p.data - before
        assert np.allclose(np.abs(update), 0.01, atol=1e-6 * 0.01)
        assert np.array_equal(np.sign(update), [-1.0, 1.0, -1.0])

    def test_zero_gradient_keeps_parameters(self):
        p = Parameter("p", np.array([1.0, 2.0]))
        p.grad = Tensor(np.zeros(2))
        state = AdamState(alpha=0.1)
        before = p.data.copy()
        dg.adam_step([p], state)
        assert np.array_equal(p.data, before)

    def test_two_step_recurrence_oracle(self):
        alpha, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p = Parameter("p", np.array([0.5]))
        state = AdamState(alpha=alpha, beta1=b1, beta2=b2, eps=eps)

        theta, m, v = 0.5, 0.0, 0.0
        for t, g in ((1, 1.0), (2, -1.0)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= alpha * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

        for g in (1.0, -1.0):
            p.grad = Tensor(np.array([g]))
            dg.adam_step([p], state)
        assert p.data[0] == pytest.approx(theta, abs=1e-15)
        assert state.t == 2

    def test_missing_gradient_rejected(self):
        p = Parameter("p", np.zeros(2))
        with pytest.raises(ValueError, match="no gradient"):
            dg.adam_step([p], AdamState())

    def test_invalid_betas_rejected(self):
        with pytest.raises(ValueError):
            AdamState(beta1=1.0)


class TestDeterminism:
    def test_identical_seeds_identical_dropout(self):
        x = Tensor(np.ones((2, 3, 16)))
        a = dg.dropout(x, 0.4, np.random.default_rng(123), training=True)
        b = dg.dropout(x, 0.4, np.random.default_rng(123), training=True)
        assert np.array_equal(a.data, b.data)

    def test_no_grad_blocks_recording(self):
        x = Tensor(np.ones(4), requires_grad=True)
        with dg.no_grad():
            y = dg.mul(x, x)
        assert not y.requires_grad
