"""Pretraining and finetuning loops, evaluation, and run manifests."""

import dataclasses
import functools
import hashlib
import json
import math
import os
import platform
import subprocess
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from .. import HEAP_POLICY, __version__
from ..errors import CheckpointError, ConfigError, NonFiniteError
from ..files import atomic_write
from ..nn.checkpoint import load_state, save_state
from ..nn.encoder import EncoderConfig, EncoderState, desk_config, paper_config
from ..objectives import (
    Batch,
    TargetScaler,
    combined_objective,
    encode_batch,
    finetune_head,
    lpp_head,
    lpp_objective,
    lpp_scaler,
    mlm_objective,
    regression_objective,
)
from ..tokens import (
    ElementEmbeddingTable,
    build_vocabulary,
    embed_formulas,
    formula_rows,
    sequence_length,
    tokenize_crystal,
)
from ..datasets import dataset_checksum, split as split_records, SplitSpec
from .optimizer import AdamW
from .schedule import ScheduleSpec, lr_at

CONFIG_VERSION = 1
OBJECTIVES = ("mlm", "lpp", "mlm+lpp", "regression")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def derive_seed(*parts):
    """Stable 64-bit sub-seed from a tuple of integers/strings.

    Strings are mixed in via crc32, not hash(), so the derivation is
    identical across processes and platforms.
    """
    mixed = [zlib.crc32(p.encode("utf-8")) if isinstance(p, str) else int(p)
             for p in parts]
    return int(np.random.SeedSequence(mixed).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class TrainConfig:
    """Run configuration. Every field but ``max_seq_len`` mirrors a CLI
    flag; all of them are config-file keys."""

    objective: str = "regression"
    preset: str = "desk"
    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    warmup_fraction: float = 0.05
    masking_ratio: float = 0.25
    lambda_mlm: float = 1.0
    seed: int = 0
    split: str = "ratio:0.7,0.15,0.15"
    early_stopping_patience: int = 0
    info_layout: tuple = ()
    dropout: float = None
    dtype: str = "float32"
    max_seq_len: int = 64

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"objective must be one of {OBJECTIVES}")
        if self.preset not in ("desk", "paper"):
            raise ConfigError("preset must be 'desk' or 'paper'")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch size >= 1")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError("dtype must be 'float32' or 'float64'")
        if self.dropout is not None and not (
                isinstance(self.dropout, (int, float))
                and 0.0 <= self.dropout < 1.0):
            raise ConfigError("dropout must lie in [0, 1)")
        for name in ("weight_decay", "lambda_mlm"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0")
        object.__setattr__(self, "info_layout", tuple(self.info_layout))

    def to_json(self):
        payload = dataclasses.asdict(self)
        payload["config_version"] = CONFIG_VERSION
        payload["info_layout"] = list(self.info_layout)
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        version = payload.pop("config_version", CONFIG_VERSION)
        if version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {version}")
        payload["info_layout"] = tuple(payload.get("info_layout", ()))
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown config fields {sorted(unknown)}")
        return cls(**payload)

    def encoder_config(self, vocab_size):
        overrides = {"dtype": self.dtype, "max_seq_len": self.max_seq_len}
        if self.dropout is not None:
            overrides.update(attention_dropout=self.dropout,
                             hidden_dropout=self.dropout,
                             head_dropout=self.dropout)
        maker = desk_config if self.preset == "desk" else paper_config
        return maker(vocab_size, **overrides)


@dataclass
class PreparedCorpus:
    """Records tokenized once, reused every epoch.

    Formulas are kept compact (``tokens.formula_rows``: 320 bytes a
    record); ``batch`` builds only that batch's formula matrices.
    """

    ids: list
    sequences: list
    formula_fractions: np.ndarray
    formula_index: np.ndarray
    element_rows: np.ndarray
    lattice_targets: np.ndarray = None
    targets: np.ndarray = None

    def __len__(self):
        return len(self.sequences)

    def batch(self, indices):
        return Batch(
            sequences=[self.sequences[i] for i in indices],
            formula_matrices=embed_formulas(self.formula_fractions[indices],
                                            self.formula_index[indices],
                                            self.element_rows),
            lattice_targets=(None if self.lattice_targets is None
                             else self.lattice_targets[indices]),
            targets=None if self.targets is None else self.targets[indices],
            ids=[self.ids[i] for i in indices],
        )

    def batches(self, batch_size):
        """Consecutive batches of at most ``batch_size`` in corpus order."""
        for start in range(0, len(self), batch_size):
            yield self.batch(np.arange(start,
                                       min(start + batch_size, len(self))))


def prepare_corpus(records, vocab, table):
    sequences, compositions, ids = [], [], []
    lattices, targets = [], []
    for record in records:
        comp = record.composition
        sequences.append(tokenize_crystal(record.spacegroup, comp,
                                          record.informatics, vocab,
                                          provenance=record.id))
        compositions.append(comp)
        ids.append(record.id)
        lattices.append(None if record.lattice is None
                        else record.lattice.as_array())
        targets.append(record.target)
    lattice_arr = None
    if lattices and all(lat is not None for lat in lattices):
        lattice_arr = np.stack(lattices)
    target_arr = None
    if targets and all(t is not None for t in targets):
        target_arr = np.array(targets, dtype=np.float64)
    fractions, index, element_rows = formula_rows(compositions, table)
    return PreparedCorpus(ids=ids, sequences=sequences,
                          formula_fractions=fractions, formula_index=index,
                          element_rows=element_rows,
                          lattice_targets=lattice_arr, targets=target_arr)


@dataclass
class RunManifest:
    """Append-only record of one run, written next to its artifacts."""

    config: dict
    seed: int
    dataset_checksum: str
    metrics: list = field(default_factory=list)
    checkpoints: list = field(default_factory=list)
    wall_clock_seconds: float = 0.0
    environment: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)

    def save(self, path):
        _write_text(path, self.to_json() + "\n")


def _write_text(path, text):
    with atomic_write(path) as fh:
        fh.write(text)


def write_metrics(rows, path):
    """One delimiter-separated line per epoch."""
    if not rows:
        _write_text(path, "")
        return
    columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float)
                              else str(row[c]) for c in columns))
    _write_text(path, "\n".join(lines) + "\n")


@functools.cache
def _git_sha(directory=Path(__file__).resolve().parent):
    """``git rev-parse HEAD`` in ``directory`` (this source tree), or None
    without git or outside a checkout. Read once per process, since it
    names the code the process imported."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=directory,
                              stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=5, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _environment():
    """What a run's numbers depend on besides its config and data: the
    Python, numpy, scipy and crysgram versions, the git commit of the
    source tree, the BLAS numpy was built with, the BLAS thread variables
    and the heap policy in force."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "crysgram": __version__,
        "git_sha": _git_sha(),
        "blas": blas.get("name"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "heap_policy": HEAP_POLICY,
    }


def _manifest(config, records, metrics, start, checkpoints=()):
    return RunManifest(
        config=json.loads(config.to_json()),
        seed=config.seed,
        dataset_checksum=dataset_checksum(records),
        metrics=metrics,
        checkpoints=list(checkpoints),
        wall_clock_seconds=time.perf_counter() - start,
        environment=_environment(),
    )


def _vocab_sha256(vocab):
    return hashlib.sha256(vocab.to_text().encode("utf-8")).hexdigest()


def _write_run(out_dir, manifest, vocab, state=None, extra=None,
               global_step=0, predictions=None):
    """Write a run's artifacts to ``out_dir``; returns the checkpoint path.

    Always writes ``vocab.txt``, ``metrics.csv`` (the manifest's rows) and
    ``manifest.json``. With a state, also ``checkpoint.ckpt`` whose header
    ``extra`` gains the objective, the info layout and the vocabulary
    hash; with predictions, also ``predictions.csv``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vocab.save(out / "vocab.txt")
    checkpoint = None
    if state is not None:
        checkpoint = str(out / "checkpoint.ckpt")
        extra = dict(extra or {}, objective=manifest.config["objective"],
                     info_layout=list(vocab.info_layout),
                     vocab_sha256=_vocab_sha256(vocab))
        save_state(state, checkpoint, global_step=global_step,
                   rng_seed=manifest.seed, extra=extra)
        manifest.checkpoints.append(checkpoint)
    write_metrics(manifest.metrics, out / "metrics.csv")
    if predictions:
        write_predictions(predictions, out / "predictions.csv")
    manifest.save(out / "manifest.json")
    return checkpoint


def _check_finite(loss, state, epoch, global_step):
    """Give every parameter that backward left without a gradient a
    read-only zero, then raise NonFiniteError if the loss or any gradient
    is not finite, naming the step and the first offending parameter.

    One dot product per gradient sums the squares; only a non-finite sum
    walks the parameters. If every gradient is finite the sum overflowed,
    and the step goes on.
    """
    squares = 0.0
    with np.errstate(over="ignore"):
        for p in state.params.values():
            if p.grad is None:
                # zero strides: no memory, and reshapes to 1-D as a view
                p.grad = np.broadcast_to(p.data.dtype.type(0), p.data.shape)
            else:
                g = p.grad.reshape(-1)
                squares += float(np.dot(g, g))
    value = float(loss.data)
    bad = None
    if not math.isfinite(squares):
        bad = next((name for name, p in state.named_parameters()
                    if not np.isfinite(p.grad).all()), None)
    if math.isfinite(value) and bad is None:
        return
    raise NonFiniteError(
        f"non-finite training step at epoch {epoch}, global step "
        f"{global_step}: loss {value!r}, first non-finite gradient "
        f"{'none' if bad is None else bad}")


def _fit(state, corpus, config, step, seed_labels, val_corpus=None,
         scaler=None, log=None):
    """The training loop shared by pretraining and finetuning.

    ``step(batch, global_step, rng)`` returns the batch loss Tensor and a
    dict of statistics averaged into the epoch row; ``rng`` drives
    dropout. ``seed_labels`` name the (shuffle, dropout) seed families.
    With a validation corpus each epoch row gains ``val_mae``; with
    ``early_stopping_patience`` above 0 the loop stops after that many
    epochs without improvement and returns the best state. A non-finite
    loss or gradient raises NonFiniteError before the optimizer step.
    Returns (state, epoch rows, optimizer steps taken).
    """
    shuffle_label, drop_label = seed_labels
    patience = config.early_stopping_patience
    optimizer = AdamW(state, config.learning_rate, config.weight_decay)
    steps_per_epoch = max(1, math.ceil(len(corpus) / config.batch_size))
    schedule = ScheduleSpec(total_steps=max(1, config.epochs * steps_per_epoch),
                            base_rate=config.learning_rate,
                            warmup_fraction=config.warmup_fraction)
    rows = []
    best_state, best_mae, best_epoch = None, math.inf, -1
    global_step = 0
    for epoch in range(config.epochs):
        order = np.random.default_rng(np.random.PCG64(
            derive_seed(config.seed, shuffle_label, epoch))).permutation(
                len(corpus))
        losses, stats = [], {}
        for start in range(0, len(corpus), config.batch_size):
            batch = corpus.batch(order[start:start + config.batch_size])
            rng = np.random.default_rng(np.random.PCG64(
                derive_seed(config.seed, drop_label, global_step)))
            loss, step_stats = step(batch, global_step, rng)
            loss.backward()
            _check_finite(loss, state, epoch, global_step)
            optimizer.step(lr_at(global_step, schedule))
            losses.append(float(loss.data))
            for key, value in step_stats.items():
                stats.setdefault(key, []).append(value)
            global_step += 1
        row = {"epoch": epoch, "loss": float(np.mean(losses))}
        row.update((key, float(np.mean(values)))
                   for key, values in stats.items())
        if val_corpus is not None:
            row["val_mae"], _ = evaluate(state, val_corpus, scaler)
            if row["val_mae"] < best_mae:
                best_mae, best_epoch = row["val_mae"], epoch
                if patience:
                    best_state = state.clone()
        rows.append(row)
        if log:
            log(f"epoch {epoch}: " + " ".join(
                f"{k}={v:.6g}" for k, v in row.items() if k != "epoch"))
        if (patience and val_corpus is not None
                and epoch - best_epoch >= patience):
            if log:
                log(f"early stop at epoch {epoch} (best {best_mae:.6g})")
            break
    return (state if best_state is None else best_state), rows, global_step


@dataclass
class PretrainResult:
    state: EncoderState
    vocab: object
    scaler: TargetScaler
    metrics: list
    manifest: RunManifest
    checkpoint_path: str = None


def pretrain(records, config, vocab=None, table=None, out_dir=None,
             log=None):
    """Train under one of the pretraining objectives; returns PretrainResult.

    The vocabulary and the lattice-target scaler are fitted on the given
    corpus. Checkpoints, metrics, vocabulary, and the run manifest are
    written to ``out_dir`` when given.
    """
    if config.objective not in ("mlm", "lpp", "mlm+lpp"):
        raise ConfigError(f"pretrain cannot run objective {config.objective!r}")
    records = list(records)
    vocab = vocab or build_vocabulary(datasets=records,
                                      info_layout=config.info_layout)
    table = table or ElementEmbeddingTable.deterministic()
    corpus = prepare_corpus(records, vocab, table)
    if sequence_length(len(vocab.info_layout)) > config.max_seq_len:
        raise ConfigError("max_seq_len too small for the vocabulary layout")

    scaler = None
    if config.objective in ("lpp", "mlm+lpp"):
        if corpus.lattice_targets is None:
            raise ConfigError(
                f"objective {config.objective!r} needs lattice parameters "
                "on every record")
        scaler = lpp_scaler(corpus.lattice_targets)

    state = EncoderState(config.encoder_config(vocab.size), seed=config.seed)

    def step(batch, global_step, rng):
        mask_seed = derive_seed(config.seed, "mask", global_step)
        if config.objective == "lpp":
            return lpp_objective(state, batch, scaler, rng=rng)
        if config.objective == "mlm":
            loss, stats = mlm_objective(state, batch, config.masking_ratio,
                                        seed=mask_seed, rng=rng)
            del stats["n_masked"]
            return loss, stats
        return combined_objective(
            state, batch, scaler, ratio=config.masking_ratio,
            lam=config.lambda_mlm, seed=mask_seed, rng=rng)

    start = time.perf_counter()
    state, metrics, steps = _fit(state, corpus, config, step,
                                 ("shuffle", "drop"), log=log)
    manifest = _manifest(config, records, metrics, start)
    result = PretrainResult(state=state, vocab=vocab, scaler=scaler,
                            metrics=metrics, manifest=manifest)
    if out_dir is not None:
        extra = {} if scaler is None else {"lpp_scaler": scaler.to_dict()}
        result.checkpoint_path = _write_run(out_dir, manifest, vocab, state,
                                            extra, global_step=steps)
    return result


def encode_corpus(state, corpus, batch_size=64, encode=None):
    """Eval-mode [CLS] vectors of a prepared corpus, one batch at a time.

    Yields (Batch, cls Tensor) pairs in corpus order. ``encode`` replaces
    ``encode_batch`` as the function that runs the encoder.
    """
    encode = encode or encode_batch
    for batch in corpus.batches(batch_size):
        _, cls, _ = encode(state, batch.sequences, batch.formula_matrices,
                           mode="eval", rows=1)
        yield batch, cls


def evaluate(state, corpus, scaler, batch_size=64):
    """Eval-mode MAE in natural units plus per-record predictions."""
    if len(corpus) == 0:
        raise ConfigError("cannot evaluate an empty split")
    if scaler is None:
        raise ConfigError("evaluation requires the fitted target scaler")
    predictions = []
    for batch, cls in encode_corpus(state, corpus, batch_size):
        pred_std = finetune_head(cls, state, mode="eval").data.reshape(-1)
        pred_nat = scaler.inverse(pred_std.astype(np.float64))
        targets = ([None] * len(batch.ids) if batch.targets is None
                   else batch.targets.tolist())
        predictions.extend(zip(batch.ids, targets, pred_nat.tolist()))
    mae = None
    if predictions and all(t is not None for _, t, _ in predictions):
        mae = float(np.mean([abs(t - p) for _, t, p in predictions]))
    return mae, predictions


def predict_lattice(state, corpus, scaler, batch_size=64):
    """Natural-unit (n, 6) lattice predictions for a prepared corpus."""
    return np.concatenate([
        scaler.inverse(lpp_head(cls, state, mode="eval").data
                       .astype(np.float64))
        for _, cls in encode_corpus(state, corpus, batch_size)], axis=0)


@dataclass
class FoldResult:
    fold: int
    test_mae: float
    predictions: list


@dataclass
class FinetuneResult:
    state: EncoderState
    vocab: object
    scaler: TargetScaler
    metrics: list
    manifest: RunManifest
    test_mae: float = None
    predictions: list = field(default_factory=list)
    fold_results: list = field(default_factory=list)

    @property
    def fold_maes(self):
        return [fr.test_mae for fr in self.fold_results]

    @property
    def fold_summary(self):
        maes = self.fold_maes
        if not maes:
            return None
        return float(np.mean(maes)), float(np.std(maes))


def _finetune_split(records, train_recs, val_recs, test_recs, config,
                    init_state, vocab, table, out_dir, log):
    """Train on one split, test it, and write its run when ``out_dir``.

    Returns (state, scaler, manifest, test MAE, test predictions); the
    manifest's metrics are the epoch rows.
    """
    start = time.perf_counter()
    scaler = TargetScaler.fit([r.target for r in train_recs])
    train_corpus = prepare_corpus(train_recs, vocab, table)
    val_corpus = prepare_corpus(val_recs, vocab, table) if val_recs else None
    test_corpus = prepare_corpus(test_recs, vocab, table)
    state = init_state.clone()

    def step(batch, global_step, rng):
        loss, _ = regression_objective(state, batch, scaler, rng=rng)
        return loss, {}

    state, metrics, _ = _fit(state, train_corpus, config, step,
                             ("ft-shuffle", "ft-drop"), val_corpus, scaler,
                             log)
    test_mae, predictions = evaluate(state, test_corpus, scaler)
    manifest = _manifest(config, records, metrics, start)
    if out_dir is not None:
        _write_run(out_dir, manifest, vocab, state,
                   {"target_scaler": scaler.to_dict()},
                   predictions=predictions)
    return state, scaler, manifest, test_mae, predictions


def finetune(records, config, init_state=None, vocab=None, table=None,
             out_dir=None, log=None):
    """Property-regression finetuning under the configured split protocol.

    ``init_state`` carries pretrained weights; None trains from scratch.
    It is cloned, never modified. k-fold splits return per-fold MAEs plus
    mean and standard deviation; with ``out_dir`` each fold's run goes to
    ``out_dir/fold<k>/`` and the top level holds the fold-MAE metrics.
    """
    if config.objective != "regression":
        raise ConfigError("finetune runs the 'regression' objective")
    records = list(records)
    if any(r.target is None for r in records):
        raise ConfigError("finetuning requires a target on every record")
    vocab = vocab or build_vocabulary(datasets=records,
                                      info_layout=config.info_layout)
    table = table or ElementEmbeddingTable.deterministic()
    spec = SplitSpec.parse(config.split, seed=config.seed)

    if init_state is None:
        init_state = EncoderState(config.encoder_config(vocab.size),
                                  seed=config.seed)
    elif init_state.config.vocab_size != vocab.size:
        raise ConfigError(
            f"checkpoint vocab size {init_state.config.vocab_size} != "
            f"vocabulary size {vocab.size}")

    parts = split_records(records, spec)
    out = None if out_dir is None else Path(out_dir)
    if spec.kind == "kfold":
        start = time.perf_counter()
        result = FinetuneResult(state=None, vocab=vocab, scaler=None,
                                metrics=[], manifest=None)
        checkpoints = []
        for k, (train_recs, test_recs) in enumerate(parts.folds):
            _, _, fold_manifest, mae, predictions = _finetune_split(
                records, train_recs, (), test_recs, config, init_state,
                vocab, table, None if out is None else out / f"fold{k}", log)
            checkpoints += fold_manifest.checkpoints
            result.fold_results.append(FoldResult(k, mae, predictions))
            result.metrics.append({"fold": k, "test_mae": mae})
            if log:
                log(f"fold {k}: test MAE {mae:.6g}")
        result.test_mae = result.fold_summary[0]
        result.manifest = _manifest(config, records, result.metrics, start,
                                    checkpoints)
        if out is not None:
            _write_run(out, result.manifest, vocab)
        return result

    state, scaler, manifest, test_mae, predictions = _finetune_split(
        records, parts.train, parts.val, parts.test, config, init_state,
        vocab, table, out, log)
    return FinetuneResult(state=state, vocab=vocab, scaler=scaler,
                          metrics=manifest.metrics, manifest=manifest,
                          test_mae=test_mae, predictions=predictions)


def format_predictions(predictions):
    """``id,target,prediction`` CSV text, one line per record."""
    lines = ["id,target,prediction"]
    for record_id, target, pred in predictions:
        target_text = "" if target is None else repr(float(target))
        lines.append(f"{record_id},{target_text},{repr(float(pred))}")
    return "\n".join(lines) + "\n"


def write_predictions(predictions, path):
    _write_text(path, format_predictions(predictions))


def load_pretrained(path, vocab=None):
    """Load a checkpoint; verifies vocabulary compatibility when given."""
    state, header = load_state(path)
    extra = header.get("extra", {})
    if vocab is not None:
        if state.config.vocab_size != vocab.size:
            raise CheckpointError(
                f"checkpoint expects vocabulary of {state.config.vocab_size} "
                f"tokens, got {vocab.size}")
        stored = extra.get("vocab_sha256")
        if stored:
            actual = _vocab_sha256(vocab)
            if stored != actual:
                raise CheckpointError(
                    "checkpoint was trained with a different vocabulary "
                    f"(sha {stored[:12]}... != {actual[:12]}...)")
    return state, header
