"""Masking, loss oracles, target scaling, heads, and the combined objective."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crysgram.datasets import generate_synthetic_corpus
from crysgram.errors import ConfigError
from crysgram.grammar import parse_formula
from crysgram.nn import EncoderState, Tensor, desk_config, encoder_forward
from crysgram.nn.encoder import MIN_QUERY_ROWS
from crysgram.objectives import (
    Batch,
    LatticeParameters,
    TargetScaler,
    apply_masking,
    combined_objective,
    encode_batch,
    finetune_head,
    lpp_head,
    lpp_loss,
    lpp_objective,
    lpp_scaler,
    mae_loss,
    mask_batch,
    masked_position_accuracy,
    mlm_logits,
    mlm_loss,
    mlm_objective,
    regression_objective,
)
from crysgram.tokens import (
    MASK_ID,
    ElementEmbeddingTable,
    build_vocabulary,
    embed_formula,
    tokenize_crystal,
)
from crysgram.tokens.embedding import assemble_batch
from crysgram.tokens.tokenizer import N_SG_TOKENS
from crysgram.training import prepare_corpus

VOCAB = build_vocabulary()
TABLE = ElementEmbeddingTable.deterministic(dimension=16, seed=2)


def make_seq(sg=225, formula="NaCl"):
    return tokenize_crystal(sg, parse_formula(formula), None, VOCAB)


def make_batch(records=((225, "NaCl"), (14, "Fe2O3"), (194, "Ca(OH)2")),
               lattice=True, targets=False):
    seqs = [make_seq(sg, f) for sg, f in records]
    mats = np.stack([embed_formula(parse_formula(f), TABLE)
                     for _, f in records])
    rng = np.random.default_rng(0)
    lattice_targets = None
    if lattice:
        lengths = rng.uniform(3, 9, size=(len(seqs), 3))
        angles = rng.uniform(60, 120, size=(len(seqs), 3))
        lattice_targets = np.concatenate([lengths, angles], axis=1)
    target_values = rng.normal(size=len(seqs)) if targets else None
    return Batch(sequences=seqs, formula_matrices=mats,
                 lattice_targets=lattice_targets, targets=target_values)


def tiny_state(dtype="float64", **overrides):
    config = desk_config(VOCAB.size, d_model=16, n_heads=2, n_layers=1,
                         d_formula=TABLE.dimension + 1, dtype=dtype,
                         **overrides)
    return EncoderState(config, seed=3)


def desk_state(dtype):
    config = desk_config(VOCAB.size, d_formula=TABLE.dimension + 1,
                         dtype=dtype)
    return EncoderState(config, seed=5)


class TestMasking:
    def test_default_ratio_masks_three(self):
        masked, plan = apply_masking(make_seq(), 0.25, rng=0)
        assert len(plan.positions) == 3
        assert all(masked.ids[p] == MASK_ID for p in plan.positions)

    def test_full_ratio_masks_all_twelve(self):
        masked, plan = apply_masking(make_seq(), 1.0, rng=0)
        assert plan.positions == tuple(range(1, 13))

    def test_same_seed_same_plan(self):
        _, p1 = apply_masking(make_seq(), 0.25, rng=42)
        _, p2 = apply_masking(make_seq(), 0.25, rng=42)
        assert p1 == p2

    def test_labels_match_original_ids(self):
        seq = make_seq()
        masked, plan = apply_masking(seq, 0.5, rng=9)
        for position, original in zip(plan.positions, plan.original_ids):
            assert seq.ids[position] == original
            assert masked.ids[position] == MASK_ID

    @pytest.mark.parametrize("ratio", [0.0, -0.1, 1.5])
    def test_invalid_ratio(self, ratio):
        with pytest.raises(ConfigError):
            apply_masking(make_seq(), ratio)

    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_only_space_group_positions_touched(self, seed, ratio):
        seq = make_seq()
        masked, plan = apply_masking(seq, ratio, rng=seed)
        assert set(plan.positions) <= set(range(1, 13))
        for position in range(len(seq)):
            if position not in plan.positions:
                assert masked.ids[position] == seq.ids[position]
        assert masked.ids[0] == seq.ids[0]  # [CLS] untouched

    def test_mask_batch_deterministic(self):
        seqs = [make_seq(), make_seq(14, "Fe2O3")]
        _, plans1 = mask_batch(seqs, 0.25, seed=5)
        _, plans2 = mask_batch(seqs, 0.25, seed=5)
        assert plans1 == plans2


class TestMlmLoss:
    def test_one_hot_logits_give_zero(self):
        labels = np.array([2, 0])
        logits = Tensor(np.eye(4)[labels] * 1e4)
        assert mlm_loss(logits, labels).item() < 1e-6

    def test_uniform_logits_give_log_vocab(self):
        logits = Tensor(np.zeros((3, 7)))
        np.testing.assert_allclose(mlm_loss(logits, np.array([0, 3, 6])).item(),
                                   math.log(7), atol=1e-12)

    def test_two_position_hand_oracle(self):
        # scalar cross-entropy computed independently
        logits = np.array([[1.0, 2.0, 0.5, -1.0],
                           [0.0, 0.0, 3.0, 1.0]])
        labels = np.array([1, 2])
        expected = 0.0
        for row, label in zip(logits, labels):
            z = sum(math.exp(v) for v in row)
            expected += -(row[label] - math.log(z))
        expected /= 2
        np.testing.assert_allclose(mlm_loss(Tensor(logits), labels).item(),
                                   expected, atol=1e-12)

    def test_empty_plan_raises(self):
        with pytest.raises(ConfigError):
            mlm_loss(Tensor(np.zeros((0, 4))), np.array([], dtype=int))


class TestTargetScaler:
    def test_roundtrip_identity(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(1.0, 50.0, size=(40, 6))
        scaler = lpp_scaler(values)
        back = scaler.inverse(scaler.transform(values))
        np.testing.assert_allclose(back, values, rtol=1e-9)

    def test_degenerate_targets_rejected(self):
        with pytest.raises(ConfigError):
            TargetScaler.fit(np.ones((10, 1)))

    def test_standardized_moments(self):
        rng = np.random.default_rng(2)
        values = rng.normal(5, 3, size=(200, 1))
        scaler = TargetScaler.fit(values)
        z = scaler.transform(values)
        np.testing.assert_allclose(z.mean(), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(), 1.0, atol=1e-12)

    def test_unit_reparameterization_invariance(self):
        # standardization absorbs affine unit changes; log-lengths absorb scale
        rng = np.random.default_rng(3)
        targets = np.concatenate([rng.uniform(2, 20, size=(30, 3)),
                                  rng.uniform(60, 120, size=(30, 3))], axis=1)
        nm = targets.copy()
        nm[:, :3] /= 10.0  # angstrom -> nanometer
        z_a = lpp_scaler(targets).transform(targets)
        z_nm = lpp_scaler(nm).transform(nm)
        np.testing.assert_allclose(z_a, z_nm, atol=1e-9)

    def test_serialization(self):
        scaler = TargetScaler.fit(np.random.default_rng(0).normal(size=(9, 2)))
        again = TargetScaler.from_dict(scaler.to_dict())
        assert again == scaler


class TestLatticeParameters:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LatticeParameters(-1, 2, 3, 90, 90, 90)
        with pytest.raises(ConfigError):
            LatticeParameters(1, 2, 3, 90, 190, 90)

    def test_constraint_check(self):
        cubic_ok = LatticeParameters(4, 4, 4, 90, 90, 90)
        assert cubic_ok.constraint_violations("cubic") == []
        squished = LatticeParameters(4, 4, 5, 90, 90, 90)
        assert squished.constraint_violations("cubic")


class TestHeads:
    def test_lpp_head_arity_six(self):
        state = tiny_state()
        cls = Tensor(np.random.default_rng(0).normal(size=(3, 16)))
        assert lpp_head(cls, state).shape == (3, 6)

    def test_finetune_head_arity_one(self):
        state = tiny_state()
        cls = Tensor(np.random.default_rng(0).normal(size=(3, 16)))
        assert finetune_head(cls, state).shape == (3, 1)

    def test_zero_weight_head_predicts_means_after_inverse(self):
        state = tiny_state()
        for name in ("lpp.fc1.w", "lpp.fc1.b", "lpp.fc2.w", "lpp.fc2.b"):
            state[name].data[...] = 0.0
        cls = Tensor(np.random.default_rng(0).normal(size=(4, 16)))
        pred = lpp_head(cls, state)
        np.testing.assert_array_equal(pred.data, np.zeros((4, 6)))
        values = np.random.default_rng(1).uniform(2, 30, size=(50, 6))
        scaler = lpp_scaler(values)
        nat = scaler.inverse(pred.data)
        logged = np.log(values[:, :3])
        np.testing.assert_allclose(nat[0, :3], np.exp(logged.mean(axis=0)),
                                   rtol=1e-9)
        np.testing.assert_allclose(nat[0, 3:], values[:, 3:].mean(axis=0),
                                   rtol=1e-9)

    def test_head_gradients_finite_difference(self):
        state = tiny_state()
        rng = np.random.default_rng(4)
        cls = Tensor(rng.normal(size=(2, 16)))
        target = rng.uniform(3, 8, size=(2, 6)).astype(np.float64)
        target[:, 3:] = rng.uniform(80, 100, size=(2, 3))
        fit = np.concatenate([rng.uniform(3, 8, size=(20, 3)),
                              rng.uniform(80, 100, size=(20, 3))], axis=1)
        scaler = lpp_scaler(fit)

        def f():
            return lpp_loss(lpp_head(cls, state), target, scaler)

        params = [state["lpp.fc1.w"], state["lpp.fc2.w"], state["lpp.fc2.b"]]
        for p in params:
            p.grad = np.zeros_like(p.data)
        f().backward()
        eps = 1e-6
        for p in params:
            flat = p.data.reshape(-1)
            sample = rng.choice(flat.size, size=min(10, flat.size),
                                replace=False)
            for i in sample:
                orig = flat[i]
                flat[i] = orig + eps
                plus = f().item()
                flat[i] = orig - eps
                minus = f().item()
                flat[i] = orig
                numeric = (plus - minus) / (2 * eps)
                analytic = p.grad.reshape(-1)[i]
                assert abs(numeric - analytic) < 1e-6 * max(1.0, abs(numeric))


class TestLppLoss:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.fit = np.concatenate([rng.uniform(2, 12, size=(30, 3)),
                                   rng.uniform(70, 110, size=(30, 3))], axis=1)
        self.scaler = lpp_scaler(self.fit)

    def test_perfect_prediction_gives_zero(self):
        target = self.fit[:4]
        pred = self.scaler.transform(target)
        assert lpp_loss(Tensor(pred), target, self.scaler).item() < 1e-18

    def test_one_std_off_gives_one(self):
        target = self.fit[:4]
        pred = self.scaler.transform(target) + 1.0
        np.testing.assert_allclose(
            lpp_loss(Tensor(pred), target, self.scaler).item(), 1.0,
            atol=1e-12)

    def test_random_case_matches_scalar_oracle(self):
        rng = np.random.default_rng(6)
        target = self.fit[:3]
        pred = rng.normal(size=(3, 6))
        expected = float(np.mean(
            (pred - self.scaler.transform(target)) ** 2))
        np.testing.assert_allclose(
            lpp_loss(Tensor(pred), target, self.scaler).item(), expected,
            atol=1e-12)

    def test_unfitted_scaler_raises(self):
        with pytest.raises(ConfigError):
            lpp_loss(Tensor(np.zeros((1, 6))), np.ones((1, 6)), None)


class TestMaeLoss:
    def test_perfect_prediction(self):
        scaler = TargetScaler.fit(np.arange(10.0))
        target = np.array([3.0, 7.0])
        pred = scaler.transform(target)
        assert mae_loss(Tensor(pred), target, scaler).item() < 1e-15

    def test_constant_median_oracle(self):
        # MAE of predicting 0 on standardized {0, 0, 10} equals 10/3 natural
        values = np.array([0.0, 0.0, 10.0])
        scaler = TargetScaler.fit(values)
        pred_std = scaler.transform(np.zeros(3))
        mae_std = mae_loss(Tensor(pred_std), values, scaler).item()
        np.testing.assert_allclose(mae_std * scaler.std[0], 10.0 / 3.0,
                                   atol=1e-12)


class TestObjectives:
    def test_mlm_objective_runs(self):
        state = tiny_state()
        batch = make_batch()
        loss, stats = mlm_objective(state, batch, 0.25, seed=1, mode="eval")
        assert loss.item() > 0
        assert stats["n_masked"] == 9

    def test_lpp_objective_requires_targets(self):
        state = tiny_state()
        batch = make_batch(lattice=False)
        with pytest.raises(ConfigError):
            lpp_objective(state, batch, lpp_scaler(np.random.default_rng(0)
                                                   .uniform(2, 9, (8, 6))),
                          mode="eval")

    def test_combined_lambda_zero_is_lpp_on_masked(self):
        state = tiny_state()
        batch = make_batch()
        scaler = lpp_scaler(batch.lattice_targets)
        loss, stats = combined_objective(state, batch, scaler, ratio=0.25,
                                         lam=0.0, seed=7, mode="eval")
        masked, _ = mask_batch(batch.sequences, 0.25, seed=7)
        ref, _ = lpp_objective(state,
                               dataclasses.replace(batch, sequences=masked),
                               scaler, mode="eval")
        np.testing.assert_allclose(loss.item(), ref.item(), rtol=1e-12)

    def test_combined_is_sum_of_parts_single_forward(self):
        state = tiny_state()
        batch = make_batch()
        scaler = lpp_scaler(batch.lattice_targets)
        loss, stats = combined_objective(state, batch, scaler, ratio=0.25,
                                         lam=1.0, seed=3, mode="eval")
        np.testing.assert_allclose(loss.item(),
                                   stats["lpp_mse"] + stats["mlm_loss"],
                                   rtol=1e-9)

    def test_combined_gradients_are_sum_of_component_gradients(self):
        batch = make_batch()
        scaler = lpp_scaler(batch.lattice_targets)
        masked, plans = mask_batch(batch.sequences, 0.25, seed=11)

        def grads_for(lam_lpp, lam_mlm):
            state = tiny_state()
            state.zero_grads()
            from crysgram.objectives import mlm_logits
            hidden, cls, _ = encode_batch(state, masked,
                                          batch.formula_matrices, mode="eval")
            pred = lpp_head(cls, state, mode="eval")
            loss_lpp = lpp_loss(pred, batch.lattice_targets, scaler)
            logits, labels = mlm_logits(state, hidden, plans)
            loss_mlm = mlm_loss(logits, labels)
            total = loss_lpp * lam_lpp + loss_mlm * lam_mlm
            total.backward()
            return {name: p.grad.copy()
                    for name, p in state.named_parameters()}

        combined = grads_for(1.0, 1.0)
        only_lpp = grads_for(1.0, 0.0)
        only_mlm = grads_for(0.0, 1.0)
        for name in combined:
            np.testing.assert_allclose(
                combined[name], only_lpp[name] + only_mlm[name],
                atol=1e-10, err_msg=name)


TWENTY_ELEMENTS = "HLiBeBCNOFNaMgAlSiPSClKCaScTiV"
SHORT_ROWS = ((225, "NaCl"), (14, "Fe2O3"), (62, "LiFePO4"), (227, "Si"),
              (221, "CaTiO3"))


class TestMaskedPositionAccuracy:
    POSITIONS = (4, 5, 9)

    def corpus(self, n=23):
        records = generate_synthetic_corpus(n, seed=8, task="regression")
        return prepare_corpus(records, VOCAB, TABLE)

    def test_batch_size_does_not_change_the_result(self):
        state, corpus = tiny_state(), self.corpus()
        full = masked_position_accuracy(state, corpus, self.POSITIONS)
        small = masked_position_accuracy(state, corpus, self.POSITIONS,
                                         batch_size=5)
        assert full == small

    def test_accuracies_are_fractions_of_the_corpus(self):
        corpus = self.corpus()
        overall, per_position = masked_position_accuracy(
            tiny_state(), corpus, self.POSITIONS, batch_size=5)
        assert set(per_position) == set(self.POSITIONS)
        for value in per_position.values():
            assert 0.0 <= value <= 1.0
            hits = value * len(corpus)
            assert hits == pytest.approx(round(hits))
        assert 0.0 <= overall <= 1.0
        assert overall == pytest.approx(
            sum(per_position.values()) / len(self.POSITIONS))

    def test_empty_corpus_raises(self):
        empty = prepare_corpus([], VOCAB, TABLE)
        with pytest.raises(ConfigError, match="empty"):
            masked_position_accuracy(tiny_state(), empty, (4,))


class TestTrimmedEncoder:
    """encode_batch against the untrimmed assemble_batch + encoder_forward."""

    BATCHES = {"short": SHORT_ROWS,
               "one-full-row": SHORT_ROWS + ((1, TWENTY_ELEMENTS),)}

    @staticmethod
    def state():
        config = desk_config(VOCAB.size, d_model=16, n_heads=2, n_layers=2,
                             d_formula=TABLE.dimension + 1, dtype="float64",
                             attention_dropout=0.1, hidden_dropout=0.1,
                             head_dropout=0.1)
        return EncoderState(config, seed=5)

    @staticmethod
    def untrimmed(state, seqs, mats, mode, rng):
        x, mask = assemble_batch(
            seqs, mats, state["embed.token"], state["embed.formula.w"],
            state["embed.formula.b"], state["embed.position"])
        hidden, cls, _ = encoder_forward(x, mask, state, mode=mode, rng=rng,
                                         record_attention=False)
        return hidden, cls

    @staticmethod
    def loss(state, hidden, cls, plans, real, rng):
        """Masked-token loss + head on [CLS] + every real hidden row."""
        logits, labels = mlm_logits(state, hidden, plans)
        pred = lpp_head(cls, state, mode="train", rng=rng)
        rows = hidden[np.nonzero(real)]
        return mlm_loss(logits, labels) + (pred * pred).mean() \
            + (rows * rows).mean()

    def inputs(self, name):
        batch = make_batch(self.BATCHES[name], lattice=False)
        masked, plans = mask_batch(batch.sequences, 0.25, seed=2)
        mask = np.array([s.attention_mask for s in masked], dtype=bool)
        return masked, batch.formula_matrices, plans, mask

    def test_short_batch_is_trimmed_full_row_is_not(self):
        state = self.state()
        short, mats, _, mask = self.inputs("short")
        hidden, _, _ = encode_batch(state, short, mats)
        assert hidden.shape[1] == 1 + N_SG_TOKENS + 4 < mask.shape[1]
        full, mats, _, mask = self.inputs("one-full-row")
        hidden, _, _ = encode_batch(state, full, mats)
        assert hidden.shape[1] == mask.shape[1]

    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_eval_cls_equals_untrimmed(self, name):
        state = self.state()
        seqs, mats, _, _ = self.inputs(name)
        _, cls, _ = encode_batch(state, seqs, mats, mode="eval")
        _, ref = self.untrimmed(state, seqs, mats, "eval", None)
        np.testing.assert_allclose(cls.data, ref.data, rtol=1e-12)

    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_train_rows_loss_and_gradients_equal_untrimmed(self, name):
        seqs, mats, plans, mask = self.inputs(name)
        results = []
        for trimmed in (True, False):
            state = self.state()
            state.zero_grads()
            rng = np.random.default_rng(9)
            if trimmed:
                hidden, cls, _ = encode_batch(state, seqs, mats, mode="train",
                                              rng=rng)
            else:
                hidden, cls = self.untrimmed(state, seqs, mats, "train", rng)
            real = mask[:, :hidden.shape[1]]
            loss = self.loss(state, hidden, cls, plans, real, rng)
            loss.backward()
            results.append((hidden.data[real], loss.item(), rng.random(),
                            {n: p.grad.copy()
                             for n, p in state.named_parameters()}))
        (rows, loss, after, grads), (ref_rows, ref_loss, ref_after,
                                     ref_grads) = results
        np.testing.assert_allclose(rows, ref_rows, rtol=1e-12)
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-12)
        assert after == ref_after  # the same uniforms were drawn
        for param, grad in grads.items():
            np.testing.assert_allclose(grad, ref_grads[param], rtol=0,
                                       atol=1e-10, err_msg=param)


class TestLastBlockRows:
    """encode_batch with ``rows`` and the objectives that pass it, against
    the untrimmed, full-width encoder: the last block runs only the rows
    the caller reads, yet values, dropout draws and gradients agree."""

    BATCHES = TestTrimmedEncoder.BATCHES
    ROWS = (1, 1 + N_SG_TOKENS)
    MASK_SEED = 4

    @staticmethod
    def inputs(name):
        return make_batch(TestLastBlockRows.BATCHES[name], targets=True)

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("name", sorted(BATCHES))
    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_rows_and_cls_equal_full_width(self, name, rows, mode):
        state = TestTrimmedEncoder.state()
        batch = self.inputs(name)
        seqs, mats = batch.sequences, batch.formula_matrices
        out = []
        for cut in (True, False):
            rng = np.random.default_rng(6)
            if cut:
                hidden, cls, _ = encode_batch(state, seqs, mats, mode=mode,
                                              rng=rng, rows=rows)
                assert hidden.shape[1] == max(rows, MIN_QUERY_ROWS)
            else:
                hidden, cls = TestTrimmedEncoder.untrimmed(state, seqs, mats,
                                                           mode, rng)
            out.append((hidden.data[:, :rows], cls.data, rng.random()))
        (rows_cut, cls_cut, after), (rows_ref, cls_ref, ref_after) = out
        np.testing.assert_allclose(rows_cut, rows_ref, rtol=1e-12)
        np.testing.assert_allclose(cls_cut, cls_ref, rtol=1e-12)
        assert after == ref_after  # the same uniforms were drawn

    def reference(self, state, batch, objective, scaler, rng):
        """The objective's loss through the full-width encoder."""
        mats = batch.formula_matrices
        if objective == "regression":
            _, cls = TestTrimmedEncoder.untrimmed(state, batch.sequences,
                                                  mats, "train", rng)
            pred = finetune_head(cls, state, mode="train", rng=rng)
            return mae_loss(pred, batch.targets, scaler)
        masked, plans = mask_batch(batch.sequences, 0.25, self.MASK_SEED)
        hidden, cls = TestTrimmedEncoder.untrimmed(state, masked, mats,
                                                   "train", rng)
        pred = lpp_head(cls, state, mode="train", rng=rng)
        logits, labels = mlm_logits(state, hidden, plans)
        return (lpp_loss(pred, batch.lattice_targets, scaler)
                + mlm_loss(logits, labels) * 1.0)

    @pytest.mark.parametrize("objective", ["regression", "mlm+lpp"])
    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_objective_loss_and_gradients_equal_full_width(self, name,
                                                           objective):
        batch = self.inputs(name)
        if objective == "regression":
            scaler = TargetScaler.fit(batch.targets)
        else:
            scaler = lpp_scaler(batch.lattice_targets)
        results = []
        for cut in (True, False):
            state = TestTrimmedEncoder.state()
            state.zero_grads()
            rng = np.random.default_rng(9)
            if not cut:
                loss = self.reference(state, batch, objective, scaler, rng)
            elif objective == "regression":
                loss, _ = regression_objective(state, batch, scaler,
                                               mode="train", rng=rng)
            else:
                loss, _ = combined_objective(state, batch, scaler,
                                             seed=self.MASK_SEED,
                                             mode="train", rng=rng)
            loss.backward()
            results.append((loss.item(), rng.random(),
                            {n: p.grad.copy()
                             for n, p in state.named_parameters()}))
        (loss, after, grads), (ref_loss, ref_after, ref_grads) = results
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-12)
        assert after == ref_after
        for param, grad in grads.items():
            np.testing.assert_allclose(grad, ref_grads[param], rtol=0,
                                       atol=1e-10, err_msg=param)

    @pytest.mark.parametrize("size", [1, 2, 7, 64])
    def test_float32_desk_cls_bitwise_equal_full_width(self, size):
        state = desk_state("float32")
        rows = SHORT_ROWS + ((1, TWENTY_ELEMENTS),)
        batch = make_batch([rows[i % len(rows)] for i in range(size)],
                           lattice=False)
        seqs, mats = batch.sequences, batch.formula_matrices
        _, cls, _ = encode_batch(state, seqs, mats, rows=1)
        _, ref, _ = encode_batch(state, seqs, mats)
        assert cls.dtype == np.float32
        np.testing.assert_array_equal(cls.data, ref.data)

    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_recorded_attention_keeps_full_width(self, name):
        state = TestTrimmedEncoder.state()
        batch = self.inputs(name)
        hidden, _, attn = encode_batch(state, batch.sequences,
                                       batch.formula_matrices,
                                       record_attention=True, rows=1)
        padded = batch.sequences[0].attention_mask
        B, L = len(batch.sequences), len(padded)
        assert hidden.shape[:2] == (B, L)
        assert [w.shape for w in attn.layers] == \
            [(B, state.config.n_heads, L, L)] * state.config.n_layers
        assert attn.token_labels == [s.token_labels for s in batch.sequences]
        assert attn.attention_mask.shape == (B, L)


def graph_nodes(root):
    """Every node reachable from ``root`` through recorded parents."""
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


class TestDtypeKept:
    """A state computes in its own dtype: every node value and every
    parameter gradient of a training step, and every node of an eval
    forward, has the parameters' dtype."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("objective", ["mlm+lpp", "regression"])
    def test_training_step(self, dtype, objective):
        state = desk_state(dtype)
        state.zero_grads()
        batch = make_batch(SHORT_ROWS, targets=True)
        rng = np.random.default_rng(2)
        if objective == "regression":
            loss, _ = regression_objective(state, batch,
                                           TargetScaler.fit(batch.targets),
                                           mode="train", rng=rng)
        else:
            loss, _ = combined_objective(state, batch,
                                         lpp_scaler(batch.lattice_targets),
                                         seed=1, mode="train", rng=rng)
        nodes = graph_nodes(loss)
        assert len(nodes) > 100
        assert {n.data.dtype for n in nodes} == {np.dtype(dtype)}
        loss.backward()
        for name, p in state.named_parameters():
            assert p.grad.dtype == dtype, name

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_eval_encode_batch(self, dtype):
        batch = make_batch(SHORT_ROWS)
        hidden, cls, _ = encode_batch(desk_state(dtype), batch.sequences,
                                      batch.formula_matrices, rows=1)
        nodes = graph_nodes(hidden) + graph_nodes(cls)
        assert {n.data.dtype for n in nodes} == {np.dtype(dtype)}
