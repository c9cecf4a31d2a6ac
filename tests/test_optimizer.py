"""AdamW scalar oracles and the warmup-cosine schedule."""

import math

import numpy as np
import pytest

from crysgram.errors import ConfigError
from crysgram.nn import EncoderState, desk_config
from crysgram.training import AdamW, ScheduleSpec, lr_at


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
    """The textbook AdamW expression, one temporary per operation, with
    both moments starting as zero tables."""
    params = {n: p.copy() for n, p in params.items()}
    m = {n: np.zeros_like(p) for n, p in params.items()}
    v = {n: np.zeros_like(p) for n, p in params.items()}
    for t in range(1, steps + 1):
        bc1, bc2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
        for n, p in params.items():
            g = grads[t - 1][n]
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
        for n, p in state.named_parameters():
            assert p.data.dtype == np.dtype(dtype)
            assert p.data.tobytes() == params[n].tobytes(), n
            assert optimizer.m[n].tobytes() == m[n].tobytes(), n
            assert optimizer.v[n].tobytes() == v[n].tobytes(), n


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
