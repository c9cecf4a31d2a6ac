"""Scaled dot-product and multi-head attention: oracles, invariants,
and gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crysgram.errors import DegenerateMaskError
from crysgram.nn import (
    EncoderState,
    Tensor,
    desk_config,
    multi_head_attention,
    scaled_dot_attention,
)

RNG = np.random.default_rng(7)


class TestScaledDotOracles:
    def test_single_key_forces_weight_one(self):
        out, weights = scaled_dot_attention(
            np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]),
            np.array([[3.0, 7.0]]))
        np.testing.assert_allclose(weights.data, [[1.0]])
        np.testing.assert_allclose(out.data, [[3.0, 7.0]])

    def test_identical_keys_split_evenly(self):
        k = np.array([[0.3, -1.2], [0.3, -1.2]])
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        q = RNG.normal(size=(4, 2))
        _, weights = scaled_dot_attention(q, k, v)
        np.testing.assert_allclose(weights.data,
                                   np.full((4, 2), 0.5), atol=1e-12)

    def test_two_key_scalar_oracle(self):
        # independent scalar computation: sigma = e^(1/sqrt(2)) / (e^(1/sqrt(2)) + e^0)
        q = np.array([[1.0, 0.0]])
        k = np.array([[1.0, 0.0], [0.0, 1.0]])
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        out, weights = scaled_dot_attention(q, k, v)
        e = math.exp(1.0 / math.sqrt(2.0))
        sigma = e / (e + 1.0)
        assert abs(sigma - 0.66967) < 1e-4  # sanity on the hand value
        np.testing.assert_allclose(weights.data, [[sigma, 1.0 - sigma]],
                                   atol=1e-12)
        np.testing.assert_allclose(out.data, [[sigma, 1.0 - sigma]],
                                   atol=1e-12)

    def test_masked_columns_are_exactly_zero(self):
        q = RNG.normal(size=(3, 4))
        k = RNG.normal(size=(5, 4))
        v = RNG.normal(size=(5, 2))
        mask = np.array([1, 1, 0, 1, 0])
        _, weights = scaled_dot_attention(q, k, v, mask=mask)
        assert (weights.data[:, mask == 0] == 0.0).all()
        np.testing.assert_allclose(weights.data.sum(axis=-1),
                                   np.ones(3), atol=1e-6)

    def test_all_masked_row_raises(self):
        with pytest.raises(DegenerateMaskError):
            scaled_dot_attention(RNG.normal(size=(2, 3)),
                                 RNG.normal(size=(4, 3)),
                                 RNG.normal(size=(4, 3)),
                                 mask=np.zeros(4))

    def test_dimension_mismatches(self):
        with pytest.raises(ValueError):
            scaled_dot_attention(np.ones((2, 3)), np.ones((4, 5)),
                                 np.ones((4, 2)))
        with pytest.raises(ValueError):
            scaled_dot_attention(np.ones((2, 3)), np.ones((4, 3)),
                                 np.ones((5, 2)))


@st.composite
def attention_instances(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=1, max_value=6))
    d_k = draw(st.integers(min_value=1, max_value=4))
    d_v = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, d_k)) * 3
    k = rng.normal(size=(m, d_k)) * 3
    v = rng.normal(size=(m, d_v)) * 5
    mask = rng.random(m) < 0.8
    if not mask.any():
        mask[rng.integers(m)] = True
    return q, k, v, mask


class TestAttentionProperties:
    @given(attention_instances())
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one_and_hull(self, instance):
        q, k, v, mask = instance
        out, weights = scaled_dot_attention(q, k, v, mask=mask)
        np.testing.assert_allclose(weights.data.sum(axis=-1),
                                   np.ones(q.shape[0]), atol=1e-6)
        assert (weights.data[:, ~mask] == 0.0).all()
        # outputs live in the convex hull of unmasked value rows
        visible = v[mask]
        lo = visible.min(axis=0) - 1e-9
        hi = visible.max(axis=0) + 1e-9
        assert (out.data >= lo).all() and (out.data <= hi).all()


class TestMultiHead:
    def test_output_shape_matches_input(self):
        config = desk_config(vocab_size=11, d_model=32, n_heads=4)
        state = EncoderState(config, seed=0)
        x = RNG.normal(size=(1, 5, 32))
        params = {k[len("layers.0.attn."):]: v for k, v in state.params.items()
                  if k.startswith("layers.0.attn.")}
        out, weights = multi_head_attention(x, params, n_heads=4)
        assert out.shape == (1, 5, 32)
        assert weights.shape == (1, 4, 5, 5)

    def test_single_head_reduces_to_scaled_dot(self):
        config = desk_config(vocab_size=11, d_model=8, n_heads=1, n_layers=1)
        state = EncoderState(config, seed=3)
        params = {k[len("layers.0.attn."):]: v for k, v in state.params.items()
                  if k.startswith("layers.0.attn.")}
        x = RNG.normal(size=(1, 4, 8)).astype(np.float32)

        out, weights = multi_head_attention(x, params, n_heads=1)

        def lin(name):
            return x[0] @ params[f"{name}.w"].data + params[f"{name}.b"].data

        ref_out, ref_w = scaled_dot_attention(lin("q"), lin("k"), lin("v"))
        ref_final = ref_out.data @ params["o.w"].data + params["o.b"].data
        np.testing.assert_allclose(weights.data[0, 0], ref_w.data, atol=1e-6)
        np.testing.assert_allclose(out.data[0], ref_final, atol=1e-5)

    def test_gradients_against_finite_differences(self):
        # 4-token, d_model=8 instance per the module contract
        config = desk_config(vocab_size=11, d_model=8, n_heads=2, n_layers=1,
                             dtype="float64")
        state = EncoderState(config, seed=5)
        params = {k[len("layers.0.attn."):]: v for k, v in state.params.items()
                  if k.startswith("layers.0.attn.")}
        x = Tensor(RNG.normal(size=(1, 4, 8)))
        w = RNG.normal(size=(1, 4, 8))

        def f():
            out, _ = multi_head_attention(x, params, n_heads=2)
            return (out * w).sum()

        checked = [params["q.w"], params["k.w"], params["v.w"],
                   params["o.w"], params["q.b"]]
        for p in checked:
            p.grad = np.zeros_like(p.data)
        f().backward()
        eps = 1e-6
        for p in checked:
            analytic = p.grad.copy()
            flat = p.data.reshape(-1)
            sample = RNG.choice(flat.size, size=min(12, flat.size),
                                replace=False)
            for i in sample:
                orig = flat[i]
                flat[i] = orig + eps
                plus = f().data.item()
                flat[i] = orig - eps
                minus = f().data.item()
                flat[i] = orig
                numeric = (plus - minus) / (2 * eps)
                assert abs(numeric - analytic.reshape(-1)[i]) < 1e-6 * max(
                    1.0, abs(numeric))
