"""Encoder stack semantics, parameter accounting, checkpoints, and
attention export."""

import json

import numpy as np
import pytest

from crysgram.errors import CheckpointError, ConfigError, CrysgramError
from crysgram.nn import (
    AttentionMap,
    EncoderConfig,
    EncoderState,
    Tensor,
    desk_config,
    encoder_forward,
    export_attention,
    load_state,
    paper_config,
    save_state,
)
from crysgram.training import AdamW

RNG = np.random.default_rng(11)


def make_input(L=9, d=32, batch=1, dtype=np.float64):
    """(x, mask): a (batch, L, d) input whose last two positions are pads."""
    mask = np.ones((batch, L), dtype=int)
    mask[:, -2:] = 0
    return Tensor(RNG.normal(size=(batch, L, d)).astype(dtype)), mask


class TestForward:
    def test_eval_mode_is_deterministic(self):
        config = desk_config(vocab_size=11, d_model=32, dtype="float64")
        state = EncoderState(config, seed=0)
        x = make_input()
        h1, c1, _ = encoder_forward(*x, state, mode="eval")
        h2, c2, _ = encoder_forward(*x, state, mode="eval")
        np.testing.assert_array_equal(h1.data, h2.data)
        np.testing.assert_array_equal(c1.data, c2.data)

    def test_train_with_zero_dropout_equals_eval(self):
        config = desk_config(vocab_size=11, d_model=32, dtype="float64",
                             attention_dropout=0.0, hidden_dropout=0.0,
                             head_dropout=0.0)
        state = EncoderState(config, seed=0)
        x = make_input()
        h_train, _, _ = encoder_forward(*x, state, mode="train",
                                        rng=np.random.default_rng(5))
        h_eval, _, _ = encoder_forward(*x, state, mode="eval")
        np.testing.assert_allclose(h_train.data, h_eval.data, atol=0)

    def test_train_dropout_changes_output(self):
        config = desk_config(vocab_size=11, d_model=32, dtype="float64")
        state = EncoderState(config, seed=0)
        x = make_input()
        h_train, _, _ = encoder_forward(*x, state, mode="train",
                                        rng=np.random.default_rng(5))
        h_eval, _, _ = encoder_forward(*x, state, mode="eval")
        assert not np.allclose(h_train.data, h_eval.data)

    def test_zero_layer_stack_is_identity(self):
        config = EncoderConfig(vocab_size=11, n_layers=0, n_heads=2,
                               d_model=16, dtype="float64")
        state = EncoderState(config, seed=0)
        x = make_input(L=5, d=16)
        hidden, cls, attn = encoder_forward(*x, state)
        np.testing.assert_array_equal(hidden.data, x[0].data)
        np.testing.assert_array_equal(cls.data, x[0].data[:, 0])
        assert attn.n_layers == 0

    def test_cls_is_row_zero(self):
        config = desk_config(vocab_size=11, d_model=32, dtype="float64")
        state = EncoderState(config, seed=2)
        x = make_input()
        hidden, cls, _ = encoder_forward(*x, state)
        np.testing.assert_array_equal(cls.data, hidden.data[:, 0])

    def test_batched_matches_single(self):
        config = desk_config(vocab_size=11, d_model=32, dtype="float64")
        state = EncoderState(config, seed=2)
        x, mask = make_input(L=7)
        h1, c1, _ = encoder_forward(x, mask, state)
        hb, cb, _ = encoder_forward(Tensor(np.concatenate([x.data] * 3)),
                                    np.concatenate([mask] * 3), state)
        for b in range(3):
            np.testing.assert_allclose(hb.data[b], h1.data[0], atol=1e-12)
            np.testing.assert_allclose(cb.data[b], c1.data[0], atol=1e-12)

    def test_length_overflow_raises(self):
        config = desk_config(vocab_size=11, d_model=32, max_seq_len=8)
        state = EncoderState(config, seed=0)
        with pytest.raises(ValueError):
            encoder_forward(*make_input(L=9, d=32), state)

    def test_recorded_attention_rows_sum_to_one(self):
        config = desk_config(vocab_size=11, d_model=32, dtype="float64")
        state = EncoderState(config, seed=4)
        x = make_input(L=9)
        _, _, attn = encoder_forward(*x, state)
        valid = x[1][0].astype(bool)
        for layer in attn.layers:
            sums = layer.sum(axis=-1)
            np.testing.assert_allclose(sums, np.ones_like(sums), atol=1e-6)
            assert (layer[..., ~valid] == 0.0).all()

    def test_no_map_unless_recorded(self):
        config = desk_config(vocab_size=11, d_model=32, dtype="float64")
        state = EncoderState(config, seed=4)
        x = make_input(L=9)
        _, _, attn = encoder_forward(*x, state, record_attention=False)
        assert attn is None


class TestParameterCount:
    @pytest.mark.parametrize("maker,vocab", [(desk_config, 97),
                                             (paper_config, 1306)])
    def test_closed_form(self, maker, vocab):
        config = maker(vocab)
        state = EncoderState(config, seed=0)
        d, ff, v = config.d_model, config.d_ff, config.vocab_size
        embed = v * d + config.max_seq_len * d + (config.d_formula * d + d)
        per_layer = (4 * (d * d + d) + 2 * (2 * d)
                     + (d * ff + ff) + (ff * d + d))
        heads = v + (d * d + d) + (d * 6 + 6) + (d * d + d) + (d * 1 + 1)
        expected = embed + config.n_layers * per_layer + heads
        assert state.parameter_count() == expected

    def test_paper_preset_dimensions(self):
        config = paper_config(100)
        assert (config.n_layers, config.n_heads, config.d_model) == (8, 12, 768)
        assert config.d_ff == 4 * 768

    def test_invalid_head_split(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=10, d_model=30, n_heads=4)


class TestClone:
    def state(self):
        return EncoderState(desk_config(vocab_size=7, d_model=8, n_heads=2,
                                        n_layers=1), seed=3)

    def test_copies_values_without_gradients(self):
        state = self.state()
        state.zero_grads()
        clone = state.clone()
        for name, p in clone.named_parameters():
            assert p.grad is None, name
            assert p.requires_grad
            assert p.data.tobytes() == state[name].data.tobytes()
            assert p.data is not state[name].data

    def test_optimizer_step_on_fresh_clone_raises(self):
        clone = self.state().clone()
        with pytest.raises(ConfigError, match="before backward"):
            AdamW(clone, base_lr=0.1).step()

    def test_fresh_state_has_no_gradients(self):
        state = self.state()
        assert all(p.grad is None and p.requires_grad
                   for _, p in state.named_parameters())
        with pytest.raises(ConfigError, match="before backward"):
            AdamW(state, base_lr=0.1).step()


class TestCheckpoint:
    def test_roundtrip_identical_params(self, tmp_path):
        config = desk_config(vocab_size=13, d_model=16, n_layers=1)
        state = EncoderState(config, seed=9)
        path = tmp_path / "model.ckpt"
        save_state(state, path, global_step=17, rng_seed=9)
        loaded, header = load_state(path)
        assert header["global_step"] == 17
        assert header["rng_seed"] == 9
        assert loaded.config == config
        for name, p in state.named_parameters():
            np.testing.assert_array_equal(loaded[name].data, p.data)

    def test_loaded_state_has_no_gradients(self, tmp_path):
        state = EncoderState(desk_config(vocab_size=13, d_model=16,
                                         n_layers=1), seed=9)
        state.zero_grads()
        save_state(state, tmp_path / "model.ckpt")
        loaded, _ = load_state(tmp_path / "model.ckpt")
        for name, p in loaded.named_parameters():
            assert p.grad is None, name
            assert p.requires_grad

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_clone_and_loaded_state_match_their_source(self, tmp_path,
                                                       dtype):
        state = EncoderState(desk_config(vocab_size=13, d_model=16,
                                         n_layers=1, dtype=dtype), seed=9)
        save_state(state, tmp_path / "model.ckpt", rng_seed=9)
        loaded, _ = load_state(tmp_path / "model.ckpt")
        for copy in (state.clone(), loaded):
            assert (copy.config, copy.seed) == (state.config, state.seed)
            assert list(copy.params) == list(state.params)
            for name, p in copy.named_parameters():
                assert p.name == name
                assert p.data.dtype == state[name].data.dtype == dtype
                assert p.data.tobytes() == state[name].data.tobytes()
                assert p.requires_grad and p.grad is None

    def test_save_load_save_byte_identical(self, tmp_path):
        config = desk_config(vocab_size=13, d_model=16, n_layers=1)
        state = EncoderState(config, seed=1)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_state(state, p1, global_step=3, rng_seed=1)
        loaded, _ = load_state(p1)
        save_state(loaded, p2, global_step=3, rng_seed=1)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_blob_detected(self, tmp_path):
        config = desk_config(vocab_size=13, d_model=16, n_layers=1)
        state = EncoderState(config, seed=1)
        path = tmp_path / "model.ckpt"
        save_state(state, path)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_state(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_state(path)

    def test_float64_state_roundtrips_bit_exactly(self, tmp_path):
        config = desk_config(vocab_size=13, d_model=16, n_layers=1,
                             dtype="float64")
        state = EncoderState(config, seed=5)
        path = tmp_path / "model.ckpt"
        save_state(state, path)
        loaded, header = load_state(path)
        assert header["format_version"] == 2
        assert header["dtype"] == "<f8"
        for name, p in state.named_parameters():
            assert loaded[name].data.dtype == np.float64
            assert loaded[name].data.tobytes() == p.data.tobytes()

    def test_format_1_file_still_loads(self, tmp_path):
        # format 1: magic, header length, JSON header without "dtype",
        # then every parameter as little-endian float32
        import hashlib
        import struct

        config = desk_config(vocab_size=13, d_model=16, n_layers=1,
                             dtype="float64")
        state = EncoderState(config, seed=6)
        blob, manifest = b"", []
        for name, p in state.named_parameters():
            manifest.append({"name": name, "shape": list(p.data.shape),
                             "offset": len(blob), "size": p.data.size})
            blob += p.data.astype("<f4").tobytes()
        header = json.dumps({
            "format_version": 1, "config": config.to_dict(),
            "global_step": 4, "rng_seed": 6, "parameters": manifest,
            "blob_sha256": hashlib.sha256(blob).hexdigest()}).encode()
        path = tmp_path / "v1.ckpt"
        path.write_bytes(b"CGCK0001" + struct.pack("<Q", len(header))
                         + header + blob)
        loaded, header = load_state(path)
        assert header["format_version"] == 1
        assert header["global_step"] == 4
        for name, p in state.named_parameters():
            assert loaded[name].data.dtype == np.float64
            np.testing.assert_array_equal(
                loaded[name].data, p.data.astype(np.float32))

    def test_unknown_format_version_rejected(self, tmp_path):
        config = desk_config(vocab_size=13, d_model=16, n_layers=1)
        path = tmp_path / "model.ckpt"
        save_state(EncoderState(config, seed=1), path)
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"format_version":2',
                                     b'"format_version":3'))
        with pytest.raises(CheckpointError, match="format version 3"):
            load_state(path)


LABELS = tuple(f"t{i}" for i in range(9))


class TestAttentionExport:
    def make_map(self, batch=1):
        config = desk_config(vocab_size=11, d_model=32, dtype="float64")
        state = EncoderState(config, seed=4)
        _, _, attn = encoder_forward(*make_input(L=9, batch=batch), state)
        return attn

    def test_layer_head_shapes(self):
        attn = self.make_map()
        doc = export_attention(attn, LABELS, layers=[-1])
        key = str(attn.n_layers - 1)
        arr = np.asarray(doc["layers"][key])
        assert arr.shape == (4, 9, 9)
        assert doc["token_labels"] == list(LABELS)
        assert doc["n_heads"] == 4
        assert doc["attention_mask"] == [1] * 7 + [0] * 2

    def test_row_sums_preserved_in_serialization(self):
        attn = self.make_map()
        doc = json.loads(json.dumps(export_attention(attn, LABELS)))
        valid = np.array(doc["attention_mask"], dtype=bool)
        for arr in doc["layers"].values():
            arr = np.asarray(arr)
            sums = arr.sum(axis=-1)
            np.testing.assert_allclose(sums, np.ones_like(sums), atol=1e-6)
            assert (arr[:, :, ~valid] == 0.0).all()

    def test_serialization_roundtrip_exact(self):
        attn = self.make_map()
        doc = json.loads(json.dumps(export_attention(attn, LABELS)))
        for index, arr in doc["layers"].items():
            np.testing.assert_array_equal(np.asarray(arr),
                                          attn.layers[int(index)][0])

    def test_cls_rows(self):
        attn = self.make_map()
        rows = attn.cls_attention(-1)
        assert rows.shape == (4, 9)
        np.testing.assert_array_equal(rows, attn.layers[-1][0, :, 0, :])

    def test_several_records_raise(self):
        attn = self.make_map(batch=2)
        assert attn.layers[-1].shape == (2, 4, 9, 9)
        with pytest.raises(CrysgramError, match="one record"):
            export_attention(attn, LABELS)
        with pytest.raises(CrysgramError, match="one record"):
            attn.cls_attention(0)

    def test_empty_map_errors(self):
        with pytest.raises(CrysgramError):
            export_attention(AttentionMap(), LABELS)
        with pytest.raises(CrysgramError, match="disabled"):
            AttentionMap().cls_attention(-1)

    def test_layer_out_of_range(self):
        attn = self.make_map()
        with pytest.raises(CrysgramError):
            export_attention(attn, LABELS, layers=[5])

    def test_labels_must_name_every_position(self):
        with pytest.raises(CrysgramError, match="8 labels for 9"):
            export_attention(self.make_map(), LABELS[:8])

    def test_deterministic_serialization(self):
        attn = self.make_map()
        text = json.dumps(export_attention(attn, LABELS), sort_keys=True)
        assert text == json.dumps(export_attention(attn, LABELS), sort_keys=True)
        json.loads(text)
