"""Training loops: determinism, persistence, splits, and evaluation."""

import json
import re
import subprocess
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy

import crysgram
from crysgram.datasets import (
    CrystalRecord,
    SplitSpec,
    generate_synthetic_corpus,
    kb_corpus,
    split,
)
from crysgram.errors import (
    CheckpointError,
    ConfigError,
    EmbeddingError,
    NonFiniteError,
)
from crysgram.nn import EncoderState, Tensor, desk_config, load_state
from crysgram.objectives import TargetScaler, lpp_scaler
from crysgram.tokens import (
    N_FORMULA_SLOTS,
    UNK_ID,
    ElementEmbeddingTable,
    TokenVocabulary,
    build_vocabulary,
    embed_formula,
    tokenize_crystal,
)
from crysgram.training import (
    TrainConfig,
    evaluate,
    finetune,
    finetune_corpora,
    load_pretrained,
    masked_position_accuracy,
    predict_lattice,
    prepare_corpus,
    pretrain,
)
from crysgram.training import loop
from crysgram.training.loop import _check_finite, _git_sha

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

    @pytest.mark.parametrize("field", ["weight_decay", "lambda_mlm"])
    @pytest.mark.parametrize("value", [-1.0, -1e-9, float("nan")])
    def test_negative_weight_decay_and_lambda_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})
        assert getattr(TrainConfig(**{field: 0.0}), field) == 0.0


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

    @pytest.mark.parametrize("objective", ["lpp", "mlm+lpp"])
    def test_lpp_scaler_fits_every_record_lattice(self, objective):
        records = generate_synthetic_corpus(96, seed=4, task="lpp")
        result = pretrain(records, fast_config(objective=objective,
                                               epochs=0), table=TABLE)
        assert result.scaler == lpp_scaler(
            np.stack([r.lattice.as_array() for r in records]))

    @pytest.mark.parametrize("objective", ["lpp", "mlm+lpp"])
    @pytest.mark.parametrize("size", [0, 8])
    def test_lpp_refuses_a_record_without_lattice(self, objective, size):
        records = generate_synthetic_corpus(8, seed=4, task="lpp")[:size]
        if records:
            records[5].lattice = None
        with pytest.raises(ConfigError, match=re.escape(
                f"objective {objective!r} needs lattice parameters on every "
                "record")):
            pretrain(records, fast_config(objective=objective), table=TABLE)

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

    def test_patience_refused_without_validation_split(self, tmp_path):
        config = fast_config(epochs=2, early_stopping_patience=1)
        with pytest.raises(ConfigError, match="early_stopping_patience"):
            pretrain(kb_corpus(), config, table=TABLE,
                     out_dir=tmp_path / "pt")
        assert not (tmp_path / "pt").exists()


class TestManifest:
    def test_environment_recorded(self, tmp_path):
        pretrain(kb_corpus(), fast_config(epochs=1), table=TABLE,
                 out_dir=tmp_path)
        env = json.loads((tmp_path / "manifest.json").read_text())[
            "environment"]
        assert set(env) == {"python", "numpy", "scipy", "crysgram",
                            "git_sha", "blas", "threads", "heap_policy"}
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        assert env["crysgram"] == crysgram.__version__
        assert isinstance(env["blas"], str) and env["blas"]
        assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS",
                                       "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert env["heap_policy"] == crysgram.HEAP_POLICY
        source = Path(crysgram.__file__).resolve().parent
        try:
            expected = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=source, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            expected = None
        assert env["git_sha"] == expected
        assert expected is None or re.fullmatch(r"[0-9a-f]{40,64}", expected)

    def test_git_sha_is_none_outside_a_checkout(self, tmp_path):
        assert _git_sha.__wrapped__(tmp_path) is None

    def test_git_sha_is_none_without_git(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path))
        source = Path(crysgram.__file__).resolve().parent
        assert _git_sha.__wrapped__(source) is None


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

    def test_empty_training_split_raises(self, tmp_path):
        # round(3 * 0.1) == 0 records to train on
        config = fast_config(objective="regression", epochs=1,
                             split="ratio:0.1,0.45,0.45")
        with pytest.raises(ConfigError, match="zero rows"):
            finetune(self.RECORDS[:3], config, table=TABLE,
                     out_dir=tmp_path / "ft")
        assert not (tmp_path / "ft").exists()

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

    def test_kfold_tokenizes_each_record_once(self, monkeypatch):
        calls = []
        tokenize_crystal = loop.tokenize_crystal

        def counted(sg, composition, *args):
            # the record whose parsed formula this call tokenizes
            calls.append(next(r.id for r in self.RECORDS
                              if r.composition is composition))
            return tokenize_crystal(sg, composition, *args)

        monkeypatch.setattr(loop, "tokenize_crystal", counted)
        config = fast_config(objective="regression", epochs=0, split="kfold5")
        result = finetune(self.RECORDS, config, table=TABLE)
        assert len(result.fold_maes) == 5
        assert sorted(calls) == sorted(r.id for r in self.RECORDS)

    def test_corpora_entry_matches_finetune(self):
        config = fast_config(objective="regression", epochs=3,
                             split="ratio:0.6,0.2,0.2",
                             early_stopping_patience=2)
        vocab = build_vocabulary(datasets=self.RECORDS)
        init = EncoderState(config.encoder_config(vocab.size), seed=4)
        whole = finetune(self.RECORDS, config, init_state=init, vocab=vocab,
                         table=TABLE)
        parts = split(self.RECORDS, SplitSpec.parse(config.split,
                                                    seed=config.seed))
        train, val, test = (prepare_corpus(part, vocab, TABLE)
                            for part in (parts.train, parts.val, parts.test))
        result = finetune_corpora(train, val, test, config, init)
        assert result.vocab is None and result.manifest is None
        assert result.test_mae == whole.test_mae
        assert result.predictions == whole.predictions
        for name, p in whole.state.named_parameters():
            assert result.state[name].data.tobytes() == p.data.tobytes(), name

    def test_early_stopping_restores_best(self):
        config = fast_config(objective="regression", epochs=30,
                             split="ratio:0.6,0.2,0.2",
                             early_stopping_patience=3)
        result = finetune(self.RECORDS, config, table=TABLE)
        assert len(result.metrics) <= 30


def slot_by_slot(composition, table):
    """A formula matrix written one slot at a time, as a plain oracle."""
    out = np.zeros((N_FORMULA_SLOTS, table.dimension + 1))
    for i, (symbol, fraction) in enumerate(composition.items()):
        out[i, 0] = fraction
        out[i, 1:] = table.vector(symbol)
    return out


class TestPreparedCorpus:
    TWENTY = "HLiBeBCNOFNaMgAlSiPSClKCaScTiV"
    RECORDS = (generate_synthetic_corpus(40, seed=12, task="regression")
               + [CrystalRecord(id="twenty", formula=TWENTY, spacegroup=1,
                                target=0.5)])

    def corpus(self):
        vocab = build_vocabulary(datasets=self.RECORDS)
        return prepare_corpus(self.RECORDS, vocab, TABLE)

    def test_leaves_lattice_targets_to_pretraining(self):
        records = generate_synthetic_corpus(8, seed=4, task="lpp")
        corpus = prepare_corpus(records, build_vocabulary(datasets=records),
                                TABLE)
        assert corpus.lattice_targets is None

    def test_batches_are_stacked_single_formulas_to_the_bit(self):
        corpus = self.corpus()
        order = np.random.default_rng(3).permutation(len(corpus))
        assert len(self.RECORDS[-1].composition) == N_FORMULA_SLOTS
        for start in range(0, len(order), 16):
            indices = order[start:start + 16]
            comps = [self.RECORDS[i].composition for i in indices]
            got = corpus.subset(indices).formula_matrices
            assert got.dtype == np.float64
            for expected in (
                    np.stack([embed_formula(c, TABLE) for c in comps]),
                    np.stack([slot_by_slot(c, TABLE) for c in comps])):
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed, size", [(0, 0), (1, 1), (2, 7), (3, 41),
                                            (4, 60)])
    def test_subset_equals_preparing_those_records(self, seed, size):
        corpus = self.corpus()
        vocab = build_vocabulary(datasets=self.RECORDS)
        # with repeats, in any order
        idx = np.random.default_rng(seed).integers(
            0, len(self.RECORDS), size=size).tolist()
        got = corpus.subset(idx)
        want = prepare_corpus([self.RECORDS[i] for i in idx], vocab, TABLE)
        assert got.tokens.shape == want.tokens.shape
        assert np.array_equal(got.tokens, want.tokens)
        assert got.formula_matrices.shape == want.formula_matrices.shape
        assert got.formula_matrices.tobytes() == \
            want.formula_matrices.tobytes()
        assert np.array_equal(got.targets, want.targets)
        assert got.ids == want.ids

    def test_consecutive_batches_cover_the_corpus_in_order(self):
        corpus = self.corpus()
        batches = list(corpus.batches(16))
        assert [len(b.ids) for b in batches] == [16, 16, 9]
        assert sum((b.ids for b in batches), []) == [r.id for r in
                                                     self.RECORDS]

    def test_holds_under_4kb_per_record(self):
        records = generate_synthetic_corpus(512, seed=4, task="regression")
        vocab = build_vocabulary(datasets=records)
        prepare_corpus(records[:8], vocab, TABLE)  # warm caches
        tracemalloc.start()
        try:
            corpus = prepare_corpus(records, vocab, TABLE)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(corpus) == 512
        # one (20, 201) float64 matrix per record would be 32 KB
        assert held / len(records) < 4096
        assert peak / len(records) < 4096

    @pytest.mark.parametrize("lacking", [False, True])
    def test_tokens_equal_tokenizing_each_record(self, lacking):
        # all 230 groups three times each, in shuffled order; the second
        # vocabulary lacks every third full-symbol and point-group token,
        # so those positions must read [UNK] in both
        numbers = np.random.default_rng(5).permutation(
            np.repeat(np.arange(1, 231), 3)).tolist()
        formulas = ("NaCl", "Fe2O3", "SiO2", "CaTiO3")
        records = [CrystalRecord(id=f"r{i}", formula=formulas[i % 4],
                                 spacegroup=n, target=float(i))
                   for i, n in enumerate(numbers)]
        vocab = build_vocabulary(datasets=records)
        if lacking:
            kept = {}
            for token_id in range(5, len(vocab)):
                category, token = vocab.token_at(token_id)
                if (category not in ("full_symbol", "point_group")
                        or token_id % 3):
                    kept.setdefault(category, []).append(token)
            vocab = TokenVocabulary(kept, vocab.info_layout, vocab.binning)
        tokens = prepare_corpus(records, vocab, TABLE).tokens
        want = np.array([tokenize_crystal(r.spacegroup, r.composition,
                                          r.informatics, vocab)
                         for r in records])
        assert np.array_equal(tokens, want)
        assert (tokens == UNK_ID).any() == lacking

    def test_missing_element_raises_before_any_step(self):
        table = ElementEmbeddingTable({"Fe": np.ones(4)})
        records = [CrystalRecord(id=f"r{i}", formula="FeO", spacegroup=1,
                                 target=float(i)) for i in range(4)]
        vocab = build_vocabulary(datasets=records)
        with pytest.raises(EmbeddingError, match="'O'"):
            prepare_corpus(records, vocab, table)
        config = fast_config(objective="regression", epochs=1,
                             split="ratio:0.5,0.5")
        with pytest.raises(EmbeddingError):
            finetune(records, config, vocab=vocab, table=table)


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


class TestInferenceMemory:
    """An inference loop holds one batch's autodiff graph at a time, so
    four batches peak about where one does: at most 1.25x, where keeping
    the previous batch's graph while encoding the next doubles the peak."""

    RECORDS = generate_synthetic_corpus(4 * loop.EVAL_BATCH_SIZE, seed=5,
                                        task="regression")
    CALLS = {
        "evaluate": lambda state, corpus: evaluate(
            state, corpus, TargetScaler((1.0,), (2.0,), (False,))),
        "predict_lattice": lambda state, corpus: predict_lattice(
            state, corpus, TargetScaler((0.0,) * 6, (1.0,) * 6,
                                        (False,) * 6)),
        "masked_position_accuracy": lambda state, corpus:
            masked_position_accuracy(state, corpus, (4, 5, 9)),
    }

    @staticmethod
    def traced_peak(call, state, corpus):
        call(state, corpus)  # warm caches
        tracemalloc.start()
        try:
            call(state, corpus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_four_batches_peak_near_one(self, name):
        vocab = build_vocabulary(datasets=self.RECORDS)
        corpus = prepare_corpus(self.RECORDS, vocab, TABLE)
        state = EncoderState(desk_config(vocab.size,
                                         d_formula=TABLE.dimension + 1,
                                         dtype="float32"), seed=1)
        call = self.CALLS[name]
        one = self.traced_peak(call, state,
                               corpus.subset(range(loop.EVAL_BATCH_SIZE)))
        four = self.traced_peak(call, state, corpus)
        assert four <= 1.25 * one, (four, one)


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


class TestFiniteCheck:
    """One squared sum per step; the parameters are walked only when it is
    not finite, and a finite walk means the sum itself overflowed."""

    def state(self):
        state = EncoderState(desk_config(vocab_size=7, d_model=8, n_heads=2,
                                         n_layers=1, dtype="float32"), seed=0)
        for _, p in state.named_parameters():
            p.grad = np.full(p.data.shape, 1e30, np.float32)
        return state

    LOSS = Tensor(np.float32(0.5))

    def test_overflowing_square_sum_does_not_raise(self):
        state = self.state()
        g = state["embed.token"].grad.reshape(-1)
        with np.errstate(over="ignore"):
            assert np.isinf(np.dot(g, g))  # the sum overflows float32
        _check_finite(self.LOSS, state, 0, 0)

    @pytest.mark.parametrize("value, position", [(np.nan, "last"),
                                                 (np.inf, "middle")])
    def test_names_the_non_finite_parameter(self, value, position):
        state = self.state()
        names = [n for n, _ in state.named_parameters()]
        name = names[-1] if position == "last" else names[len(names) // 2]
        state[name].grad.reshape(-1)[-1] = value
        with pytest.raises(NonFiniteError, match=(
                r"epoch 2, global step 9: loss 0\.5, first non-finite "
                rf"gradient {re.escape(name)}$")):
            _check_finite(self.LOSS, state, 2, 9)

    def test_non_finite_loss_with_finite_gradients(self):
        with pytest.raises(NonFiniteError,
                           match=r"loss nan, first non-finite gradient none"):
            _check_finite(Tensor(np.float32(np.nan)), self.state(), 0, 3)

    def test_missing_gradients_become_read_only_zeros(self):
        state = self.state()
        for name in ("lpp.fc1.w", "lpp.fc2.b"):
            state[name].grad = None
        _check_finite(self.LOSS, state, 0, 0)
        for name in ("lpp.fc1.w", "lpp.fc2.b"):
            g = state[name].grad
            assert g.shape == state[name].data.shape
            assert g.dtype == np.float32 and not g.flags.writeable
            assert not any(g.strides) and not g.any()
            assert g.reshape(-1).base is not None  # a view, no copy
