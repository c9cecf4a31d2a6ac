"""Training loops: determinism, persistence, splits, and evaluation."""

import numpy as np
import pytest

from crysgram.datasets import generate_synthetic_corpus, kb_corpus
from crysgram.errors import CheckpointError, ConfigError, NonFiniteError
from crysgram.nn import EncoderState, load_state
from crysgram.tokens import ElementEmbeddingTable, build_vocabulary
from crysgram.training import (
    TrainConfig,
    evaluate,
    finetune,
    load_pretrained,
    prepare_corpus,
    pretrain,
)

TABLE = ElementEmbeddingTable.deterministic()


def fast_config(**overrides):
    base = dict(objective="mlm", epochs=2, batch_size=64, learning_rate=1e-3,
                seed=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_json_roundtrip(self):
        config = fast_config(objective="lpp", info_layout=("topology",))
        again = TrainConfig.from_json(config.to_json())
        assert again == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_json('{"config_version": 1, "bogus": 3}')

    def test_invalid_objective(self):
        with pytest.raises(ConfigError):
            TrainConfig(objective="nonsense")


class TestPretrain:
    def test_zero_epochs_equals_initialization(self, tmp_path):
        config = fast_config(epochs=0)
        result = pretrain(kb_corpus(), config, table=TABLE,
                          out_dir=tmp_path / "run")
        fresh = EncoderState(config.encoder_config(result.vocab.size),
                             seed=config.seed)
        loaded, _ = load_state(tmp_path / "run" / "checkpoint.ckpt")
        for name, p in fresh.named_parameters():
            np.testing.assert_array_equal(
                loaded[name].data, p.data.astype(np.float32))

    def test_metrics_one_line_per_epoch(self, tmp_path):
        config = fast_config(epochs=3)
        pretrain(kb_corpus(), config, table=TABLE, out_dir=tmp_path / "run")
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert len(lines) == 4  # header + 3 epochs
        assert lines[0].startswith("epoch,loss")

    def test_identical_seeds_byte_identical_artifacts(self, tmp_path):
        for name in ("a", "b"):
            pretrain(kb_corpus(), fast_config(epochs=2, seed=33), table=TABLE,
                     out_dir=tmp_path / name)
        ckpt_a = (tmp_path / "a" / "checkpoint.ckpt").read_bytes()
        ckpt_b = (tmp_path / "b" / "checkpoint.ckpt").read_bytes()
        assert ckpt_a == ckpt_b
        metrics_a = (tmp_path / "a" / "metrics.csv").read_bytes()
        metrics_b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert metrics_a == metrics_b

    def test_loss_decreases_over_first_epochs(self):
        # smoke property: at most 2 non-monotone epochs out of 10
        config = fast_config(epochs=10, learning_rate=2e-3)
        result = pretrain(kb_corpus(), config, table=TABLE)
        losses = [m["loss"] for m in result.metrics]
        violations = sum(1 for a, b in zip(losses, losses[1:]) if b > a)
        assert violations <= 2
        assert losses[-1] < losses[0]

    def test_lpp_objective_requires_lattice(self):
        with pytest.raises(ConfigError):
            pretrain(kb_corpus(), fast_config(objective="lpp"), table=TABLE)

    def test_lpp_runs_on_synthetic(self):
        records = generate_synthetic_corpus(96, seed=4, task="lpp")
        result = pretrain(records, fast_config(objective="lpp", epochs=2),
                          table=TABLE)
        assert result.scaler is not None
        assert len(result.metrics) == 2

    def test_combined_objective_runs(self):
        records = generate_synthetic_corpus(96, seed=4, task="lpp")
        result = pretrain(records,
                          fast_config(objective="mlm+lpp", epochs=2),
                          table=TABLE)
        assert "mlm_accuracy" in result.metrics[0]


class TestFinetune:
    RECORDS = generate_synthetic_corpus(60, seed=10, task="regression")

    def test_ratio_protocol(self, tmp_path):
        config = fast_config(objective="regression", epochs=3,
                             split="ratio:0.7,0.15,0.15")
        result = finetune(self.RECORDS, config, table=TABLE,
                          out_dir=tmp_path / "ft")
        assert result.test_mae is not None
        assert len(result.predictions) == 9  # 15% of 60
        assert (tmp_path / "ft" / "predictions.csv").exists()
        assert (tmp_path / "ft" / "manifest.json").exists()

    def test_kfold_emits_five_folds_with_disjoint_cover(self):
        config = fast_config(objective="regression", epochs=2, split="kfold5")
        result = finetune(self.RECORDS, config, table=TABLE)
        assert len(result.fold_maes) == 5
        mean, std = result.fold_summary
        assert mean == pytest.approx(float(np.mean(result.fold_maes)))
        covered = [rid for fr in result.fold_results
                   for rid, _, _ in fr.predictions]
        assert sorted(covered) == sorted(r.id for r in self.RECORDS)

    def test_requires_targets(self):
        records = generate_synthetic_corpus(30, seed=2, task="lpp")
        with pytest.raises(ConfigError):
            finetune(records, fast_config(objective="regression"), table=TABLE)

    def test_identical_seeds_byte_identical_artifacts(self, tmp_path):
        config = fast_config(objective="regression", epochs=4, seed=9,
                             split="ratio:0.6,0.2,0.2",
                             early_stopping_patience=2)
        for name in ("a", "b"):
            finetune(self.RECORDS, config, table=TABLE,
                     out_dir=tmp_path / name)
        for artifact in ("checkpoint.ckpt", "metrics.csv", "predictions.csv"):
            assert (tmp_path / "a" / artifact).read_bytes() == \
                (tmp_path / "b" / artifact).read_bytes(), artifact

    def test_init_state_is_not_modified(self):
        config = fast_config(objective="regression", epochs=1,
                             split="ratio:0.8,0.2")
        vocab = build_vocabulary(datasets=self.RECORDS)
        init = EncoderState(config.encoder_config(vocab.size), seed=1)
        before = {name: p.data.copy() for name, p in init.named_parameters()}
        result = finetune(self.RECORDS, config, init_state=init, vocab=vocab,
                          table=TABLE)
        assert result.state is not init
        for name, p in init.named_parameters():
            np.testing.assert_array_equal(p.data, before[name])

    def test_early_stopping_restores_best(self):
        config = fast_config(objective="regression", epochs=30,
                             split="ratio:0.6,0.2,0.2",
                             early_stopping_patience=3)
        result = finetune(self.RECORDS, config, table=TABLE)
        assert len(result.metrics) <= 30


class TestEvaluate:
    RECORDS = generate_synthetic_corpus(40, seed=12, task="regression")

    def make_trained(self):
        config = fast_config(objective="regression", epochs=2,
                             split="ratio:0.8,0.2")
        return finetune(self.RECORDS, config, table=TABLE)

    def test_permutation_invariant_mae(self):
        result = self.make_trained()
        vocab = result.vocab
        corpus = prepare_corpus(self.RECORDS, vocab, TABLE)
        reversed_corpus = prepare_corpus(self.RECORDS[::-1], vocab, TABLE)
        mae1, _ = evaluate(result.state, corpus, result.scaler)
        mae2, _ = evaluate(result.state, reversed_corpus, result.scaler)
        np.testing.assert_allclose(mae1, mae2, rtol=1e-12)

    def test_empty_split_raises(self):
        result = self.make_trained()
        empty = prepare_corpus([], result.vocab, TABLE)
        with pytest.raises(ConfigError):
            evaluate(result.state, empty, result.scaler)

    def test_checkpoint_roundtrip_preserves_mae_bit_exactly(self, tmp_path):
        config = fast_config(objective="regression", epochs=2,
                             split="ratio:0.8,0.2")
        result = finetune(self.RECORDS, config, table=TABLE,
                          out_dir=tmp_path / "ft")
        corpus = prepare_corpus(self.RECORDS, result.vocab, TABLE)
        mae_before, _ = evaluate(result.state, corpus, result.scaler)
        loaded, header = load_pretrained(tmp_path / "ft" / "checkpoint.ckpt",
                                         vocab=result.vocab)
        mae_after, _ = evaluate(loaded, corpus, result.scaler)
        assert mae_before == mae_after

    def test_vocab_mismatch_detected(self, tmp_path):
        config = fast_config(objective="regression", epochs=1,
                             split="ratio:0.8,0.2")
        finetune(self.RECORDS, config, table=TABLE, out_dir=tmp_path / "ft")
        other_vocab = build_vocabulary(
            datasets=[], info_layout=("topology",))
        with pytest.raises(CheckpointError):
            load_pretrained(tmp_path / "ft" / "checkpoint.ckpt",
                            vocab=other_vocab)


class TestNonFiniteGuard:
    """A learning rate of 1e30 overflows float32 activations within steps."""

    RECORDS = generate_synthetic_corpus(40, seed=3, task="regression")
    MESSAGE = (r"non-finite training step at epoch 0, global step [1-9]: "
               r"loss nan, first non-finite gradient embed\.token")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finetune_raises_naming_step_and_parameter(self, tmp_path):
        config = TrainConfig(epochs=3, batch_size=8, learning_rate=1e30,
                             seed=1, split="ratio:0.8,0.2")
        with pytest.raises(NonFiniteError, match=self.MESSAGE):
            finetune(self.RECORDS, config, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_pretrain_raises(self):
        config = fast_config(objective="mlm", epochs=3, batch_size=8,
                             learning_rate=1e30, seed=1)
        with pytest.raises(NonFiniteError, match=r"global step [1-9]: "):
            pretrain(self.RECORDS, config)
