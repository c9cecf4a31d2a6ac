"""AdamW scalar oracles, bitwise equality of the sliced update with the
whole-tensor one, and the warmup-cosine schedule."""

import math

import numpy as np
import pytest

from crysgram.errors import ConfigError
from crysgram.nn import EncoderState, Tensor, desk_config
from crysgram.training import AdamW, ScheduleSpec, lr_at
from crysgram.training.optimizer import SLICE


def tiny_state():
    return EncoderState(desk_config(vocab_size=7, d_model=8, n_heads=2,
                                    n_layers=1, dtype="float64"), seed=0)


class TestAdamW:
    def test_zero_gradients_zero_decay_leave_parameters(self):
        state = tiny_state()
        before = {n: p.data.copy() for n, p in state.named_parameters()}
        optimizer = AdamW(state, base_lr=0.1, weight_decay=0.0)
        state.zero_grads()
        optimizer.step()
        for name, p in state.named_parameters():
            np.testing.assert_array_equal(p.data, before[name])

    def test_scalar_first_step_oracle(self):
        # hand-computed first AdamW step for a single scalar parameter:
        # g=1, beta1=.9, beta2=.999, eps=1e-8, lr=0.1 ->
        # m=0.1, v=0.001, m_hat=1, v_hat=1, delta = -0.1/(1+1e-8)
        state = tiny_state()
        name = "lpp.fc2.b"
        p = state[name]
        p.data[...] = 0.0
        optimizer = AdamW(state, base_lr=0.1, weight_decay=0.0)
        state.zero_grads()
        p.grad[...] = 0.0
        p.grad[0] = 1.0
        optimizer.step()
        m = 0.1 * 1.0
        v = 0.001 * 1.0
        m_hat = m / (1 - 0.9)
        v_hat = v / (1 - 0.999)
        expected = -0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert abs(p.data[0] - expected) < 1e-12
        assert abs(expected + 0.1) < 1e-8  # bias-corrected unit step

    def test_decay_only_shrinks_multiplicatively(self):
        state = tiny_state()
        name = "layers.0.attn.q.w"
        before = state[name].data.copy()
        optimizer = AdamW(state, base_lr=0.01, weight_decay=0.5)
        state.zero_grads()
        optimizer.step()
        np.testing.assert_allclose(state[name].data,
                                   before * (1 - 0.01 * 0.5), rtol=1e-12)

    def test_exempt_parameters_skip_decay(self):
        state = tiny_state()
        gain_before = state["layers.0.norm1.gain"].data.copy()
        bias_before = state["layers.0.attn.q.b"].data.copy()
        optimizer = AdamW(state, base_lr=0.01, weight_decay=0.5)
        state.zero_grads()
        optimizer.step()
        np.testing.assert_array_equal(state["layers.0.norm1.gain"].data,
                                      gain_before)
        np.testing.assert_array_equal(state["layers.0.attn.q.b"].data,
                                      bias_before)

    def test_lr_zero_changes_nothing(self):
        state = tiny_state()
        before = {n: p.data.copy() for n, p in state.named_parameters()}
        optimizer = AdamW(state, base_lr=1.0, weight_decay=0.3)
        state.zero_grads()
        for p in state.params.values():
            p.grad[...] = np.random.default_rng(0).normal(size=p.data.shape)
        optimizer.step(lr=0.0)
        for name, p in state.named_parameters():
            np.testing.assert_array_equal(p.data, before[name])

    def test_step_before_backward_raises(self):
        state = tiny_state()
        optimizer = AdamW(state, base_lr=0.1)
        state.zero_grads()
        optimizer.step()
        with pytest.raises(ConfigError):
            optimizer.step()  # gradients were cleared by the first step


def reference_adamw(params, grads, steps, lr, decay, exempt,
                    beta1=0.9, beta2=0.999, eps=1e-8):
    """The textbook AdamW expression over whole tensors, one temporary per
    operation, with both moments starting as zero tables. Each gradient
    is taken as ``0.0 + g``, what a zero-filled gradient held after
    backward added ``g`` into it."""
    params = {n: p.copy() for n, p in params.items()}
    m = {n: np.zeros_like(p) for n, p in params.items()}
    v = {n: np.zeros_like(p) for n, p in params.items()}
    for t in range(1, steps + 1):
        bc1, bc2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
        for n, p in params.items():
            g = 0.0 + grads[t - 1][n]
            m[n] *= beta1
            m[n] += (1.0 - beta1) * g
            v[n] *= beta2
            v[n] += (1.0 - beta2) * g * g
            if not exempt(n):
                p *= 1.0 - lr * decay
            m_hat = m[n] / bc1
            v_hat = v[n] / bc2
            p -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(
                p.dtype, copy=False)
    return params, m, v


class Params:
    """A stand-in state: named parameter tensors of any shape."""

    def __init__(self, arrays):
        self.params = {n: Tensor(a.copy(), requires_grad=True, name=n)
                       for n, a in arrays.items()}

    def named_parameters(self):
        return list(self.params.items())


def assert_bitwise(optimizer, state, params, m, v):
    for n, p in state.named_parameters():
        assert p.data.dtype == params[n].dtype, n
        assert p.data.tobytes() == params[n].tobytes(), n
        assert optimizer.m[n].tobytes() == m[n].tobytes(), n
        assert optimizer.v[n].tobytes() == v[n].tobytes(), n


class TestAdamWInPlace:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_three_steps_bitwise_equal_to_reference(self, dtype):
        # AdamW builds its moments at the first step; the reference starts
        # them as zero tables. -0.0 gradients (on a -0.0 parameter too) and
        # a parameter the loss does not reach, whose gradient stays the
        # zeros of zero_grads, must give the same bits: 0.0 + -0.0 is +0.0
        state = EncoderState(desk_config(vocab_size=7, d_model=8, n_heads=2,
                                         n_layers=1, dtype=dtype), seed=0)
        state["layers.0.attn.q.b"].data[...] = -0.0
        unreached = "reg.fc2.b"
        rng = np.random.default_rng(21)
        grads = [{n: rng.normal(size=p.data.shape).astype(dtype)
                  for n, p in state.named_parameters()} for _ in range(3)]
        for step_grads in grads:
            step_grads["layers.0.attn.q.w"][0] = -0.0
            step_grads["layers.0.attn.q.b"][...] = -0.0
            step_grads[unreached] = np.zeros_like(state[unreached].data)
        start = {n: p.data.copy() for n, p in state.named_parameters()}
        optimizer = AdamW(state, base_lr=0.03, weight_decay=0.1)
        for step_grads in grads:
            state.zero_grads()
            for n, p in state.named_parameters():
                if n != unreached:
                    p.grad = step_grads[n].copy()
            optimizer.step()
        params, m, v = reference_adamw(start, grads, 3, 0.03, 0.1,
                                       optimizer.is_exempt)
        assert_bitwise(optimizer, state, params, m, v)


class TestSlicedStep:
    """The update runs over slices of SLICE elements; elementwise IEEE
    operations round alike at any slicing, so every bit must match the
    whole-tensor update."""

    SHAPES = {
        "mid.w": (3, SLICE // 2 + 7),   # a slice boundary inside row 2
        "short.w": (5, 7),              # shorter than one slice
        "exact.w": (2, SLICE),          # an exact multiple of the slice
        "exact.b": (SLICE,),            # one whole slice, decay-exempt
        "one.gain": (1,),
    }

    def run(self, dtype, grads, steps=3, **kwargs):
        rng = np.random.default_rng(4)
        start = {n: rng.normal(size=shape).astype(dtype)
                 for n, shape in self.SHAPES.items()}
        start["short.w"][0] = -0.0
        state = Params(start)
        optimizer = AdamW(state, base_lr=0.02, weight_decay=0.1, **kwargs)
        for t in range(steps):
            for n, p in state.named_parameters():
                p.grad = grads[t][n].copy()
            optimizer.step()
            assert all(p.grad is None for _, p in state.named_parameters())
        params, m, v = reference_adamw(start, grads, steps, 0.02, 0.1,
                                       optimizer.is_exempt, **kwargs)
        assert_bitwise(optimizer, state, params, m, v)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_bitwise_equal_to_whole_tensor_update(self, dtype):
        rng = np.random.default_rng(7)
        grads = []
        for _ in range(4):
            step = {n: rng.normal(size=shape).astype(dtype)
                    for n, shape in self.SHAPES.items()}
            for g in step.values():
                flat = g.reshape(-1)
                flat[::5] = -0.0
                flat[-1] = -0.0
            grads.append(step)
        self.run(dtype, grads, steps=4)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_underflowed_moment_meets_negative_zero(self, dtype):
        # beta1 = 0.25 takes m from -3 subnormal steps to -1 at step 2 and
        # to -0.0 at step 3, where it meets a -0.0 gradient: a zero-filled
        # gradient held 0.0 + -0.0 = +0.0 there, so m must end at +0.0
        tiny = np.finfo(dtype).smallest_subnormal
        first = {n: np.full(shape, -4 * tiny, dtype)
                 for n, shape in self.SHAPES.items()}
        zeros = {n: np.full(shape, -0.0, dtype)
                 for n, shape in self.SHAPES.items()}
        self.run(dtype, [first, zeros, zeros], beta1=0.25)

    def test_underflow_case_arises(self):
        # the premise of the case above: after two steps m holds minus one
        # subnormal, and the third step's m * beta1 rounds it to -0.0
        tiny = np.finfo(float).smallest_subnormal
        state = Params({"x": np.zeros(1)})
        optimizer = AdamW(state, base_lr=0.0, beta1=0.25)
        for g in (-4 * tiny, -0.0):
            state.params["x"].grad = np.array([g])
            optimizer.step()
        assert optimizer.m["x"][0] == -tiny
        decayed = optimizer.m["x"] * 0.25
        assert decayed[0] == 0.0 and np.signbit(decayed[0])


class TestGradientsReadOnly:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_shared_gradient_array_steps_both_and_stays_unchanged(self,
                                                                   dtype):
        # backward hands the first arriving array to a parameter as is, so
        # two parameters may hold one array; the step must only read it
        rng = np.random.default_rng(2)
        shape = (2, SLICE // 2 + 3)
        start = {n: rng.normal(size=shape).astype(dtype)
                 for n in ("a.w", "b.w")}
        grads = [rng.normal(size=shape).astype(dtype) for _ in range(3)]
        state = Params(start)
        optimizer = AdamW(state, base_lr=0.01, weight_decay=0.2)
        for g in grads:
            shared = g.copy()
            shared.flags.writeable = False
            before = shared.tobytes()
            for _, p in state.named_parameters():
                p.grad = shared
            optimizer.step()
            assert shared.tobytes() == before
        params, m, v = reference_adamw(
            start, [{"a.w": g, "b.w": g} for g in grads], 3, 0.01, 0.2,
            optimizer.is_exempt)
        assert_bitwise(optimizer, state, params, m, v)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_zero_stride_gradient_equals_explicit_zeros(self, dtype):
        states = [EncoderState(desk_config(vocab_size=7, d_model=8,
                                           n_heads=2, n_layers=1,
                                           dtype=dtype), seed=0)
                  for _ in range(2)]
        optimizers = [AdamW(s, base_lr=0.05, weight_decay=0.3)
                      for s in states]
        rng = np.random.default_rng(9)
        for _ in range(3):
            grads = {n: rng.normal(size=p.data.shape).astype(dtype)
                     for n, p in states[0].named_parameters()}
            for n in grads:
                if n.startswith("lpp."):
                    data = states[0][n].data
                    states[0][n].grad = np.broadcast_to(
                        data.dtype.type(0), data.shape)
                    states[1][n].grad = np.zeros_like(data)
                else:
                    for s in states:
                        s[n].grad = grads[n].copy()
            for optimizer in optimizers:
                optimizer.step()
        for n, p in states[0].named_parameters():
            assert p.data.tobytes() == states[1][n].data.tobytes(), n
            assert (optimizers[0].m[n].tobytes()
                    == optimizers[1].m[n].tobytes()), n
            assert (optimizers[0].v[n].tobytes()
                    == optimizers[1].v[n].tobytes()), n


class TestSchedule:
    SPEC = ScheduleSpec(total_steps=200, base_rate=2e-3, warmup_fraction=0.05)

    def test_endpoints(self):
        assert lr_at(0, self.SPEC) == 0.0
        assert lr_at(self.SPEC.warmup_steps, self.SPEC) == 2e-3
        assert lr_at(200, self.SPEC) == pytest.approx(0.0, abs=1e-18)

    def test_linear_warmup(self):
        w = self.SPEC.warmup_steps
        for step in range(w + 1):
            np.testing.assert_allclose(lr_at(step, self.SPEC),
                                       2e-3 * step / w)

    def test_continuous_at_junction(self):
        w = self.SPEC.warmup_steps
        left = lr_at(w - 1, self.SPEC)
        at = lr_at(w, self.SPEC)
        right = lr_at(w + 1, self.SPEC)
        assert left < at
        assert abs(at - 2e-3) == 0.0
        assert right < at
        assert at - right < 2e-3 * 0.01  # cosine starts flat

    def test_cosine_midpoint(self):
        w = self.SPEC.warmup_steps
        mid = w + (200 - w) // 2
        np.testing.assert_allclose(lr_at(mid, self.SPEC), 1e-3, rtol=0.02)

    def test_monotone_decay_after_warmup(self):
        w = self.SPEC.warmup_steps
        values = [lr_at(s, self.SPEC) for s in range(w, 201)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_step_out_of_range(self):
        with pytest.raises(ConfigError):
            lr_at(201, self.SPEC)
        with pytest.raises(ConfigError):
            lr_at(-1, self.SPEC)

    def test_invalid_warmup_fraction(self):
        with pytest.raises(ConfigError):
            ScheduleSpec(total_steps=10, base_rate=1e-3, warmup_fraction=1.0)
