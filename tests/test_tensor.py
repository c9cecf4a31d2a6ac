"""Autodiff core: every op's vector-Jacobian product against central
finite differences at 64-bit."""

import numpy as np
import pytest

from crysgram.nn.encoder import MASK_FILL
from crysgram.nn.tensor import (
    Tensor,
    concat,
    dropout,
    gather_rows,
    gelu,
    layer_norm,
    linear,
    log_softmax,
    matmul,
    silu,
    softmax,
)

RNG = np.random.default_rng(20240517)
EPS = 1e-6
TOL = 1e-6


def numeric_grad(f, param, eps=EPS):
    flat = param.data.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = f().data.item()
        flat[i] = orig - eps
        minus = f().data.item()
        flat[i] = orig
        out[i] = (plus - minus) / (2 * eps)
    return out.reshape(param.data.shape)


def check_grads(f, params, tol=TOL):
    for p in params:
        p.grad = np.zeros_like(p.data)
    loss = f()
    loss.backward()
    for p in params:
        analytic = p.grad.copy()
        numeric = numeric_grad(f, p)
        scale = np.maximum(np.abs(numeric), 1.0)
        assert np.max(np.abs(analytic - numeric) / scale) < tol, p.name


class TestElementwiseGrads:
    def test_add_mul_broadcast(self):
        a = Tensor.parameter(RNG.normal(size=(3, 4)), "a")
        b = Tensor.parameter(RNG.normal(size=(4,)), "b")
        check_grads(lambda: ((a + b) * (a - 2.0) / (b * b + 3.0)).sum(), [a, b])

    def test_pow_sqrt_exp_log(self):
        a = Tensor.parameter(RNG.uniform(0.5, 2.0, size=(5,)), "a")
        check_grads(lambda: ((a ** 3).sqrt().exp().log()).sum(), [a])

    def test_sigmoid_silu_gelu(self):
        a = Tensor.parameter(RNG.normal(size=(4, 3)), "a")
        check_grads(lambda: (a.sigmoid().sum() + silu(a).sum()
                             + gelu(a).sum()), [a])

    def test_abs(self):
        a = Tensor.parameter(np.array([1.5, -2.5, 3.0]), "a")
        check_grads(lambda: a.abs().sum(), [a])

    def test_neg_rsub_rdiv(self):
        a = Tensor.parameter(RNG.uniform(0.5, 1.5, size=(3,)), "a")
        check_grads(lambda: (1.0 - a).sum() + (2.0 / a).sum(), [a])


class TestMatmulGrads:
    def test_2d(self):
        a = Tensor.parameter(RNG.normal(size=(3, 4)), "a")
        b = Tensor.parameter(RNG.normal(size=(4, 2)), "b")
        check_grads(lambda: matmul(a, b).sum(), [a, b])

    def test_batched_with_shared_rhs(self):
        a = Tensor.parameter(RNG.normal(size=(2, 3, 4)), "a")
        b = Tensor.parameter(RNG.normal(size=(4, 5)), "b")
        check_grads(lambda: (matmul(a, b) ** 2).sum(), [a, b])

    def test_batched_both(self):
        a = Tensor.parameter(RNG.normal(size=(2, 3, 4)), "a")
        b = Tensor.parameter(RNG.normal(size=(2, 4, 3)), "b")
        check_grads(lambda: matmul(a, b).sum(), [a, b])

    def test_broadcast_lhs(self):
        a = Tensor.parameter(RNG.normal(size=(5, 2)), "a")
        b = Tensor.parameter(RNG.normal(size=(3, 2, 4)), "b")
        check_grads(lambda: matmul(a, b).sum(), [a, b])


def per_sample_matmul(a, w):
    """(..., k) @ (k, n) as one np.matmul per leading index."""
    lead = a.shape[:-1]
    rows = a.reshape(-1, *a.shape[-2:])
    out = np.stack([np.matmul(r, w) for r in rows])
    return out.reshape(*lead[:-1], *out.shape[-2:])


class TestRowGemm:
    """Weight products (leading axes @ 2-D) against a per-sample loop."""

    @staticmethod
    def operands(name):
        rng = np.random.default_rng(11)
        if name == "3d":
            return rng.normal(size=(3, 5, 4)), rng.normal(size=(4, 6))
        if name == "4d":
            return rng.normal(size=(2, 3, 5, 4)), rng.normal(size=(4, 6))
        if name == "noncontiguous-lhs":
            # a transposed (B, k, L) buffer viewed as (B, L, k)
            return (rng.normal(size=(3, 4, 5)).transpose(0, 2, 1),
                    rng.normal(size=(4, 6)))
        raise KeyError(name)

    @pytest.mark.parametrize("name", ["3d", "4d", "noncontiguous-lhs"])
    def test_forward_and_gradients_match_per_sample_loop(self, name):
        a_data, w_data = self.operands(name)
        a = Tensor(a_data, requires_grad=True)
        assert a.data.flags.c_contiguous == (name != "noncontiguous-lhs")
        w = Tensor.parameter(w_data, "w")
        out = linear(a, w)
        g = np.random.default_rng(12).normal(size=out.shape)
        out.backward(g)
        np.testing.assert_allclose(out.data, per_sample_matmul(a_data, w_data),
                                   rtol=1e-12)
        ref_ga = per_sample_matmul(g, w_data.T)
        ref_gw = sum(np.matmul(r.T, gr) for r, gr in zip(
            a_data.reshape(-1, *a_data.shape[-2:]),
            g.reshape(-1, *g.shape[-2:])))
        np.testing.assert_allclose(a.grad, ref_ga, rtol=1e-12)
        np.testing.assert_allclose(w.grad, ref_gw, rtol=1e-12)

    def test_transposed_view_weight(self):
        # tied logits: hidden rows against the token table's transpose
        rng = np.random.default_rng(13)
        x_data = rng.normal(size=(2, 5, 4))
        table = Tensor.parameter(rng.normal(size=(7, 4)), "table")
        x = Tensor.parameter(x_data, "x")
        out = linear(x, table.swap_last2())
        g = rng.normal(size=out.shape)
        out.backward(g)
        np.testing.assert_allclose(
            out.data, per_sample_matmul(x_data, table.data.T), rtol=1e-12)
        ref_gt = sum(np.matmul(gr.T, r) for r, gr in zip(x_data, g))
        np.testing.assert_allclose(table.grad, ref_gt, rtol=1e-12)
        np.testing.assert_allclose(
            x.grad, per_sample_matmul(g, table.data), rtol=1e-12)

    @pytest.mark.parametrize("a_dtype,w_dtype", [
        (np.float64, np.float32), (np.float32, np.float64),
        (np.float32, np.float32)])
    def test_dtype_promotes_like_numpy(self, a_dtype, w_dtype):
        a = np.ones((2, 3, 4), dtype=a_dtype)
        w = np.ones((4, 5), dtype=w_dtype)
        assert linear(Tensor(a), Tensor(w)).dtype == np.matmul(a, w).dtype


# -- the composed-primitive expressions the fused nodes replace ---------------


def composed_linear(x, w, b):
    """Weight product, then a broadcast bias add node."""
    if x.ndim > 2:
        k, n = w.shape
        prod = (x.data.reshape(-1, k) @ w.data).reshape(x.shape[:-1] + (n,))
    else:
        prod = np.matmul(x.data, w.data)
    return Tensor(prod) + b


def composed_softmax(x, axis=-1):
    shifted = x - np.max(x.data, axis=axis, keepdims=True)
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def composed_log_softmax(x, axis=-1):
    shifted = x - np.max(x.data, axis=axis, keepdims=True)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def composed_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normalized = centered / (var + eps).sqrt()
    return normalized * gain + bias


def assert_bitwise(fused, composed):
    assert fused.dtype == composed.dtype
    assert fused.shape == composed.shape
    assert fused.data.tobytes() == composed.data.tobytes()


DTYPES = [np.float32, np.float64]


class TestFusedForwardBitwise:
    """Each fused node's value equals, bit for bit and in dtype, the
    composition of primitive nodes it replaces."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("x_shape", [(6,), (5, 6), (3, 5, 6),
                                         (2, 3, 5, 6)])
    def test_linear(self, dtype, x_shape):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=x_shape).astype(dtype))
        w = Tensor(rng.normal(size=(6, 4)).astype(dtype))
        b = Tensor(rng.normal(size=(4,)).astype(dtype))
        assert_bitwise(linear(x, w, b), composed_linear(x, w, b))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_linear_transposed_weight_and_strided_rows(self, dtype):
        # tied logits: strided [CLS]-like rows against a transposed table
        rng = np.random.default_rng(22)
        hidden = rng.normal(size=(4, 3, 6)).astype(dtype)
        rows = Tensor(hidden[:, 0, :])
        table = Tensor(rng.normal(size=(9, 6)).astype(dtype))
        b = Tensor(rng.normal(size=(9,)).astype(dtype))
        fused = linear(rows, table.swap_last2(), b)
        composed = composed_linear(rows, table.swap_last2(), b)
        assert_bitwise(fused, composed)

    @pytest.mark.parametrize("x_dtype,p_dtype", [
        (np.float32, np.float64), (np.float64, np.float32)])
    def test_linear_mixed_dtypes_promote(self, x_dtype, p_dtype):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(3, 5, 6)).astype(x_dtype))
        w = Tensor(rng.normal(size=(6, 4)).astype(x_dtype))
        b = Tensor(rng.normal(size=(4,)).astype(p_dtype))
        assert_bitwise(linear(x, w, b), composed_linear(x, w, b))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_softmax_with_masked_keys(self, dtype):
        rng = np.random.default_rng(24)
        scores = rng.normal(size=(2, 3, 5, 5)).astype(dtype) * 4
        scores[..., -2:] += MASK_FILL
        x = Tensor(scores)
        assert_bitwise(softmax(x), composed_softmax(x))
        assert_bitwise(softmax(x, axis=0), composed_softmax(x, axis=0))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_log_softmax(self, dtype):
        x = Tensor(np.random.default_rng(25).normal(size=(7, 11))
                   .astype(dtype) * 5)
        assert_bitwise(log_softmax(x), composed_log_softmax(x))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_layer_norm(self, dtype):
        rng = np.random.default_rng(26)
        x = Tensor((rng.normal(size=(3, 5, 8)) * 3 + 1).astype(dtype))
        gain = Tensor(rng.uniform(0.5, 1.5, size=(8,)).astype(dtype))
        bias = Tensor(rng.normal(size=(8,)).astype(dtype))
        fused = layer_norm(x, gain, bias)
        assert_bitwise(fused, composed_layer_norm(x, gain, bias))
        # the row statistics scale by a float64 1/n
        assert fused.dtype == np.float64


class TestFusedGrads:
    """Hand-written vector-Jacobian products against central differences."""

    @pytest.mark.parametrize("x_shape", [(4, 3), (2, 4, 3)])
    def test_linear(self, x_shape):
        x = Tensor.parameter(RNG.normal(size=x_shape), "x")
        w = Tensor.parameter(RNG.normal(size=(3, 5)), "w")
        b = Tensor.parameter(RNG.normal(size=(5,)), "b")
        c = RNG.normal(size=x_shape[:-1] + (5,))
        check_grads(lambda: (linear(x, w, b) ** 2 * c).sum(), [x, w, b])

    def test_linear_transposed_view_weight(self):
        x = Tensor.parameter(RNG.normal(size=(2, 3, 4)), "x")
        table = Tensor.parameter(RNG.normal(size=(6, 4)), "table")
        b = Tensor.parameter(RNG.normal(size=(6,)), "b")
        check_grads(lambda: (linear(x, table.swap_last2(), b) ** 2).sum(),
                    [x, table, b])

    def test_linear_without_bias(self):
        x = Tensor.parameter(RNG.normal(size=(2, 3, 4)), "x")
        w = Tensor.parameter(RNG.normal(size=(4, 2)), "w")
        check_grads(lambda: (linear(x, w) ** 2).sum(), [x, w])

    def test_layer_norm_with_gain(self):
        x = Tensor.parameter(RNG.normal(size=(2, 3, 6)) * 2 + 0.5, "x")
        g = Tensor.parameter(RNG.uniform(-2.0, 2.0, size=(6,)), "g")
        b = Tensor.parameter(RNG.normal(size=(6,)), "b")
        w = RNG.normal(size=(2, 3, 6))
        check_grads(lambda: (layer_norm(x, g, b) ** 2 * w).sum(), [x, g, b],
                    tol=1e-5)

    def test_softmax_with_masked_key_column(self):
        a = Tensor.parameter(RNG.normal(size=(2, 4, 5)), "a")
        fill = np.zeros(5)
        fill[2] = MASK_FILL
        w = RNG.normal(size=(2, 4, 5))
        check_grads(lambda: (softmax(a + fill) * w).sum(), [a])
        a.grad = None
        (softmax(a + fill) * w).sum().backward()
        assert not a.grad[..., 2].any()

    def test_log_softmax(self):
        a = Tensor.parameter(RNG.normal(size=(3, 2, 4)), "a")
        w = RNG.normal(size=(3, 2, 4))
        check_grads(lambda: (log_softmax(a) * w).sum(), [a])
        check_grads(lambda: (log_softmax(a, axis=1) * w).sum(), [a])


class TestFirstArrivalGradients:
    @pytest.mark.parametrize("shared_first", [True, False])
    def test_shared_array_is_never_written(self, shared_first):
        # the add node hands one array to both a and b; a then gets a
        # second term, which must not reach b through the shared array
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        w, v = RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4))
        shared = ((a + b) * w).sum()
        extra = (a * v).sum()
        (shared + extra if shared_first else extra + shared).backward()
        np.testing.assert_array_equal(b.grad, w)
        np.testing.assert_allclose(a.grad, w + v, rtol=1e-15)

    def test_owned_gradient_takes_arrivals_in_place(self):
        # a parameter's zeros from zero_grads are its own: no new array
        # per step for every parameter
        a = Tensor.parameter(RNG.normal(size=(3,)), "a")
        zeros = a.grad
        (a * 2.0 + a * 3.0).sum().backward()
        assert a.grad is zeros
        np.testing.assert_array_equal(a.grad, [5.0, 5.0, 5.0])

    def test_first_arrival_cast_to_node_dtype(self):
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        (a * np.float64(2.0)).sum().backward()
        assert a.grad.dtype == np.float32
        np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])


class TestScatterMatchesAddAt:
    """gather_rows and advanced-index backward sum repeated ids as
    np.add.at does."""

    def test_gather_rows_repeated_ids(self):
        rng = np.random.default_rng(27)
        table = Tensor.parameter(rng.normal(size=(7, 5)), "table")
        ids = rng.integers(0, 4, size=(6, 9))
        out = gather_rows(table, ids)
        g = rng.normal(size=out.shape)
        table.grad = None
        out.backward(g)
        ref = np.zeros_like(table.data)
        np.add.at(ref, ids, g)
        np.testing.assert_allclose(table.grad, ref, rtol=1e-12, atol=0)
        assert not table.grad[4:].any()

    @pytest.mark.parametrize("index", [
        (np.array([0, 2, 2, 0, 2]), np.array([1, 3, 3, 1, 0])),
        (np.array([3, 3, 3, 1]),),
        np.array([[1, 1], [0, 1]]),
        (np.arange(4), np.array([2, 2, 0, 2])),
        (slice(None), np.array([4, 4, 1])),
        np.array([True, False, True, True]),
        (np.array([-1, 3, -1]), Ellipsis, np.array([0, 1, 1])),
    ])
    def test_getitem_advanced_index(self, index):
        rng = np.random.default_rng(28)
        data = rng.normal(size=(4, 5, 3))
        a = Tensor.parameter(data, "a")
        out = a[index]
        g = rng.normal(size=out.shape)
        a.grad = None
        out.backward(g)
        ref = np.zeros_like(data)
        np.add.at(ref, index, g)
        np.testing.assert_allclose(a.grad, ref, rtol=1e-12, atol=0)


class TestShapeOpGrads:
    def test_reshape_transpose(self):
        a = Tensor.parameter(RNG.normal(size=(2, 3, 4)), "a")
        check_grads(
            lambda: (a.reshape(6, 4).transpose(1, 0) ** 2).sum(), [a])

    def test_getitem_slices(self):
        a = Tensor.parameter(RNG.normal(size=(4, 5)), "a")
        check_grads(lambda: (a[1:3, ::2] * 2.0).sum(), [a])

    def test_getitem_fancy(self):
        a = Tensor.parameter(RNG.normal(size=(4, 5)), "a")
        idx = (np.array([0, 2, 2]), np.array([1, 3, 3]))
        check_grads(lambda: a[idx].sum(), [a])

    def test_repeated_fancy_index_accumulates(self):
        a = Tensor.parameter(np.zeros((3, 2)), "a")
        a[np.array([1, 1, 2, 1])].sum().backward()
        np.testing.assert_array_equal(a.grad, [[0, 0], [3, 3], [1, 1]])

    @pytest.mark.parametrize("index", [
        np.s_[:, 0, :], np.s_[0:3], np.s_[..., 1:, None], np.s_[1, ::-2],
        np.s_[np.int64(1)]])
    def test_basic_index_backward_equals_add_at(self, index):
        data = RNG.normal(size=(4, 5, 3))
        a = Tensor.parameter(data, "a")
        out = a[index]
        g = RNG.normal(size=out.shape)
        out.backward(g)
        ref = np.zeros_like(data)
        np.add.at(ref, index, g)
        assert a.grad.tobytes() == ref.tobytes()

    def test_gather_rows(self):
        table = Tensor.parameter(RNG.normal(size=(6, 3)), "t")
        ids = np.array([[0, 5, 5], [2, 2, 1]])
        check_grads(lambda: (gather_rows(table, ids) ** 2).sum(), [table])

    @pytest.mark.parametrize("n_inputs", [2, 3])
    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_concat(self, n_inputs, axis):
        parts = []
        for i in range(n_inputs):
            shape = [2, 3, 4]
            shape[axis] = i + 1
            parts.append(Tensor.parameter(RNG.normal(size=shape), f"p{i}"))
        out = concat(parts, axis=axis)
        ref = np.concatenate([p.data for p in parts], axis=axis)
        assert out.shape == ref.shape
        assert out.data.tobytes() == ref.tobytes()
        weights = RNG.normal(size=ref.shape)
        check_grads(lambda: (concat(parts, axis=axis) ** 2 * weights).sum(),
                    parts)


class TestReductionGrads:
    def test_sum_axes(self):
        a = Tensor.parameter(RNG.normal(size=(3, 4, 2)), "a")
        check_grads(lambda: (a.sum(axis=1) ** 2).sum(), [a])
        check_grads(lambda: (a.sum(axis=(0, 2)) ** 2).sum(), [a])
        check_grads(lambda: (a.sum(axis=-1, keepdims=True) * a).sum(), [a])

    def test_mean(self):
        a = Tensor.parameter(RNG.normal(size=(3, 4)), "a")
        check_grads(lambda: (a.mean(axis=0) ** 2).sum() + a.mean(), [a])


class TestCompositeGrads:
    def test_softmax(self):
        a = Tensor.parameter(RNG.normal(size=(3, 5)), "a")
        w = RNG.normal(size=(3, 5))
        check_grads(lambda: (softmax(a) * w).sum(), [a])

    def test_log_softmax(self):
        a = Tensor.parameter(RNG.normal(size=(2, 4)), "a")
        w = RNG.normal(size=(2, 4))
        check_grads(lambda: (log_softmax(a) * w).sum(), [a])

    def test_layer_norm(self):
        x = Tensor.parameter(RNG.normal(size=(3, 6)), "x")
        g = Tensor.parameter(RNG.uniform(0.5, 1.5, size=(6,)), "g")
        b = Tensor.parameter(RNG.normal(size=(6,)), "b")
        w = RNG.normal(size=(3, 6))
        check_grads(lambda: (layer_norm(x, g, b) * w).sum(), [x, g, b],
                    tol=1e-5)

    def test_graph_reuse_of_node(self):
        a = Tensor.parameter(RNG.normal(size=(3,)), "a")

        def f():
            h = a * 2.0
            return (h * h).sum() + h.sum()
        check_grads(f, [a])


class TestForwardSemantics:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(RNG.normal(size=(7, 9)) * 10)
        s = softmax(x).data
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(7), atol=1e-12)

    def test_layer_norm_statistics(self):
        # pre-gain/bias rows: mean 0 +- 1e-6, variance 1 +- 1e-4
        x = Tensor(RNG.normal(size=(50, 32)) * 3 + 1)
        ones, zeros = Tensor(np.ones(32)), Tensor(np.zeros(32))
        out = layer_norm(x, ones, zeros).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4

    def test_dropout_eval_identity(self):
        x = Tensor(RNG.normal(size=(4, 4)))
        out = dropout(x, 0.5, np.random.default_rng(0), train=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_dropout_inverted_scaling(self):
        x = Tensor(np.ones((2000,)))
        out = dropout(x, 0.25, np.random.default_rng(3), train=True).data
        kept = out != 0
        np.testing.assert_allclose(out[kept], 1.0 / 0.75)
        assert abs(kept.mean() - 0.75) < 0.05

    def test_backward_requires_scalar(self):
        a = Tensor.parameter(np.ones((2, 2)), "a")
        with pytest.raises(ValueError):
            (a * 2).backward()

    def test_backward_linear_functional(self):
        # gradient of sum(params) is 1 everywhere
        a = Tensor.parameter(RNG.normal(size=(3, 2)), "a")
        a.grad = np.zeros_like(a.data)
        a.sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((3, 2)))

    def test_untouched_parameter_keeps_zero_grad(self):
        a = Tensor.parameter(RNG.normal(size=(3,)), "a")
        b = Tensor.parameter(RNG.normal(size=(3,)), "b")
        a.grad = np.zeros_like(a.data)
        b.grad = np.zeros_like(b.data)
        (a * 3.0).sum().backward()
        np.testing.assert_array_equal(b.grad, np.zeros(3))
