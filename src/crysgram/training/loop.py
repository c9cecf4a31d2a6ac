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
    TargetScaler,
    combined_objective,
    encode_batch,
    finetune_head,
    lpp_head,
    lpp_objective,
    lpp_scaler,
    mask_positions,
    mlm_logits,
    mlm_objective,
    regression_objective,
)
from ..tokens import (
    SG_POSITIONS,
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
PRETRAIN_OBJECTIVES = ("mlm", "lpp", "mlm+lpp")
OBJECTIVES = (*PRETRAIN_OBJECTIVES, "regression")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# records per forward pass of encode_corpus, which every inference reader
# (evaluate, predict_lattice, masked_position_accuracy) runs on
EVAL_BATCH_SIZE = 64


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
        for name in ("weight_decay", "lambda_mlm", "early_stopping_patience"):
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

    ``tokens`` is the (N, L) array of token ids. Formulas are kept
    compact (``tokens.formula_rows``: 320 bytes a record), and
    ``formula_matrices`` builds them on each read, so a batch, which is a
    ``subset``, builds only its own. ``prepare_corpus`` leaves
    ``lattice_targets`` None; ``pretrain`` sets the (N, 6) array for the
    lpp objectives, the only readers.
    """

    ids: list
    tokens: np.ndarray
    formula_fractions: np.ndarray
    formula_index: np.ndarray
    element_rows: np.ndarray
    lattice_targets: np.ndarray = None
    targets: np.ndarray = None

    def __len__(self):
        return len(self.tokens)

    def subset(self, indices):
        """The records at ``indices``, in order; shares ``element_rows``."""
        def take(values):
            return None if values is None else values[indices]

        return dataclasses.replace(
            self, ids=[self.ids[i] for i in indices],
            tokens=self.tokens[indices],
            formula_fractions=self.formula_fractions[indices],
            formula_index=self.formula_index[indices],
            lattice_targets=take(self.lattice_targets),
            targets=take(self.targets))

    @property
    def formula_matrices(self):
        """The (N, 20, dim + 1) formula matrices, built anew on each read."""
        return embed_formulas(self.formula_fractions, self.formula_index,
                              self.element_rows)

    def batches(self, batch_size):
        """Consecutive subsets of at most ``batch_size`` in corpus order."""
        for start in range(0, len(self), batch_size):
            yield self.subset(np.arange(start,
                                        min(start + batch_size, len(self))))


def prepare_corpus(records, vocab, table):
    rows, compositions, ids, targets = [], [], [], []
    for record in records:
        comp = record.composition
        rows.append(tokenize_crystal(record.spacegroup, comp,
                                     record.informatics, vocab))
        compositions.append(comp)
        ids.append(record.id)
        targets.append(record.target)
    target_arr = None
    if all(t is not None for t in targets):
        target_arr = np.array(targets, dtype=np.float64)
    fractions, index, element_rows = formula_rows(compositions, table)
    tokens = np.array(rows, dtype=np.intp).reshape(
        len(rows), sequence_length(len(vocab.info_layout)))
    return PreparedCorpus(ids=ids, tokens=tokens,
                          formula_fractions=fractions, formula_index=index,
                          element_rows=element_rows, targets=target_arr)


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


def _manifest(config, checksum, metrics, start, checkpoints=()):
    return RunManifest(
        config=json.loads(config.to_json()),
        seed=config.seed,
        dataset_checksum=checksum,
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
            batch = corpus.subset(order[start:start + config.batch_size])
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


def _new_state(config, vocab, table):
    """A seeded encoder whose formula projection takes the table's width."""
    encoder = dataclasses.replace(config.encoder_config(vocab.size),
                                  d_formula=table.dimension + 1)
    return EncoderState(encoder, seed=config.seed)


def pretrain(records, config, vocab=None, table=None, out_dir=None,
             log=None):
    """Train under one of the pretraining objectives; returns PretrainResult.

    The vocabulary and the lattice-target scaler are fitted on the given
    corpus. Checkpoints, metrics, vocabulary, and the run manifest are
    written to ``out_dir`` when given.
    """
    if config.objective not in PRETRAIN_OBJECTIVES:
        raise ConfigError(f"pretrain cannot run objective {config.objective!r}")
    if config.early_stopping_patience:
        raise ConfigError("early_stopping_patience needs a validation split, "
                          "which pretraining does not have")
    records = list(records)
    vocab = vocab or build_vocabulary(datasets=records,
                                      info_layout=config.info_layout)
    table = table or ElementEmbeddingTable.deterministic()
    corpus = prepare_corpus(records, vocab, table)
    if sequence_length(len(vocab.info_layout)) > config.max_seq_len:
        raise ConfigError("max_seq_len too small for the vocabulary layout")

    scaler = None
    if config.objective in ("lpp", "mlm+lpp"):
        if not records or any(r.lattice is None for r in records):
            raise ConfigError(
                f"objective {config.objective!r} needs lattice parameters "
                "on every record")
        corpus.lattice_targets = np.stack([r.lattice.as_array()
                                           for r in records])
        scaler = lpp_scaler(corpus.lattice_targets)

    state = _new_state(config, vocab, table)

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
    manifest = _manifest(config, dataset_checksum(records), metrics, start)
    result = PretrainResult(state=state, vocab=vocab, scaler=scaler,
                            metrics=metrics, manifest=manifest)
    if out_dir is not None:
        extra = {} if scaler is None else {"lpp_scaler": scaler.to_dict()}
        result.checkpoint_path = _write_run(out_dir, manifest, vocab, state,
                                            extra, global_step=steps)
    return result


def encode_corpus(state, corpus, encode=None, rows=1):
    """Eval-mode leading hidden rows of a prepared corpus, one batch of
    ``EVAL_BATCH_SIZE`` records at a time.

    Yields (batch, array) pairs in corpus order: the batch as a subset of
    the corpus and its (B, rows, d_model) first hidden rows as a plain
    array; row 0 is [CLS]. Neither the generator nor the caller holds the
    encoder's output Tensor, so a batch's autodiff graph is freed before
    the next batch is encoded. ``encode`` replaces ``encode_batch`` as the
    function that runs the encoder.
    """
    encode = encode or encode_batch
    # a gather from rows cast to the model dtype equals the cast of the
    # float64 gather, without building the float64 matrices
    corpus = dataclasses.replace(corpus, element_rows=corpus.element_rows
                                 .astype(state["embed.token"].dtype))
    for batch in corpus.batches(EVAL_BATCH_SIZE):
        yield batch, encode(state, batch.tokens, batch.formula_matrices,
                            mode="eval", rows=rows)[0].data[:, :rows]


def evaluate(state, corpus, scaler):
    """Eval-mode MAE in natural units plus per-record predictions."""
    if len(corpus) == 0:
        raise ConfigError("cannot evaluate an empty split")
    if scaler is None:
        raise ConfigError("evaluation requires the fitted target scaler")
    predictions = []
    for batch, hidden in encode_corpus(state, corpus):
        pred_std = finetune_head(hidden[:, 0], state,
                                 mode="eval").data.reshape(-1)
        pred_nat = scaler.inverse(pred_std.astype(np.float64))
        targets = ([None] * len(batch.ids) if batch.targets is None
                   else batch.targets.tolist())
        predictions.extend(zip(batch.ids, targets, pred_nat.tolist()))
    mae = None
    if predictions and all(t is not None for _, t, _ in predictions):
        mae = float(np.mean([abs(t - p) for _, t, p in predictions]))
    return mae, predictions


def masked_position_accuracy(state, corpus, positions):
    """Accuracy of recovering tokens at specific masked positions.

    Every sequence of the prepared corpus gets exactly the given
    positions masked; predictions run in eval mode through
    ``encode_corpus``. Returns overall accuracy plus per-position detail.
    """
    if len(corpus) == 0:
        raise ConfigError("cannot score masked positions of an empty corpus")
    if (not positions or len(set(positions)) != len(positions)
            or not set(positions) <= set(SG_POSITIONS)):
        raise ConfigError(f"positions must be distinct space-group positions "
                          f"{SG_POSITIONS[0]}..{SG_POSITIONS[-1]}, got "
                          f"{positions!r}")
    chosen = np.broadcast_to(np.array(positions, dtype=np.intp),
                             (len(corpus), len(positions)))
    masked = dataclasses.replace(
        corpus, tokens=mask_positions(corpus.tokens, chosen))
    # the batch holds masked ids, so only the logits are read here
    predicted = np.concatenate([
        np.argmax(mlm_logits(state, hidden, batch.tokens,
                             chosen[:len(batch)])[0].data, axis=-1)
        for batch, hidden in encode_corpus(state, masked,
                                           rows=max(positions) + 1)])
    hits = predicted.reshape(chosen.shape) == np.take_along_axis(
        corpus.tokens, chosen, axis=1)
    correct = hits.sum(axis=0).tolist()
    per_position = {p: c / len(corpus) for p, c in zip(positions, correct)}
    return sum(correct) / hits.size, per_position


def predict_lattice(state, corpus, scaler):
    """Natural-unit (n, 6) lattice predictions for a prepared corpus."""
    return np.concatenate([
        scaler.inverse(lpp_head(hidden[:, 0], state, mode="eval").data
                       .astype(np.float64))
        for _, hidden in encode_corpus(state, corpus)], axis=0)


@dataclass
class FoldResult:
    fold: int
    test_mae: float
    predictions: list


@dataclass
class FinetuneResult:
    state: EncoderState
    scaler: TargetScaler
    metrics: list
    vocab: object = None
    manifest: RunManifest = None
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


def finetune_corpora(train, val, test, config, init_state, log=None):
    """Regression-train a clone of ``init_state`` on prepared corpora.

    The target scaler is fitted on ``train``; ``val`` (or None) scores
    each epoch and drives early stopping, which needs it. The trained
    state is tested on ``test``. Returns a FinetuneResult whose metrics
    are the epoch rows; it carries no vocabulary and no manifest.
    """
    if config.early_stopping_patience and val is None:
        raise ConfigError("early_stopping_patience needs a validation split "
                          "(a ratio split of three fractions)")
    scaler = TargetScaler.fit(train.targets)
    state = init_state.clone()

    def step(batch, global_step, rng):
        loss, _ = regression_objective(state, batch, scaler, rng=rng)
        return loss, {}

    state, metrics, _ = _fit(state, train, config, step,
                             ("ft-shuffle", "ft-drop"), val, scaler, log)
    test_mae, predictions = evaluate(state, test, scaler)
    return FinetuneResult(state=state, scaler=scaler, metrics=metrics,
                          test_mae=test_mae, predictions=predictions)


def finetune(records, config, init_state=None, vocab=None, table=None,
             out_dir=None, log=None):
    """Property-regression finetuning under the configured split protocol.

    The records are prepared once and split by position; each split
    trains through ``finetune_corpora``. ``init_state`` carries
    pretrained weights; None trains from scratch. It is cloned, never
    modified. k-fold splits return per-fold MAEs plus mean and standard
    deviation; with ``out_dir`` each fold's run goes to
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
        init_state = _new_state(config, vocab, table)
    elif init_state.config.vocab_size != vocab.size:
        raise ConfigError(
            f"checkpoint vocab size {init_state.config.vocab_size} != "
            f"vocabulary size {vocab.size}")

    corpus = prepare_corpus(records, vocab, table)
    checksum = dataset_checksum(records)
    parts = split_records(range(len(corpus)), spec)
    out = None if out_dir is None else Path(out_dir)

    def run(train, val, test, run_dir):
        start = time.perf_counter()
        result = finetune_corpora(
            corpus.subset(train), corpus.subset(val) if val else None,
            corpus.subset(test), config, init_state, log)
        result.vocab = vocab
        result.manifest = _manifest(config, checksum, result.metrics, start)
        if run_dir is not None:
            _write_run(run_dir, result.manifest, vocab, result.state,
                       {"target_scaler": result.scaler.to_dict()},
                       predictions=result.predictions)
        return result

    if spec.kind == "ratio":
        return run(parts.train, parts.val, parts.test, out)
    start = time.perf_counter()
    result = FinetuneResult(state=None, scaler=None, metrics=[], vocab=vocab)
    checkpoints = []
    for k, (train, test) in enumerate(parts.folds):
        fold = run(train, None, test,
                   None if out is None else out / f"fold{k}")
        checkpoints += fold.manifest.checkpoints
        result.fold_results.append(FoldResult(k, fold.test_mae,
                                              fold.predictions))
        result.metrics.append({"fold": k, "test_mae": fold.test_mae})
        if log:
            log(f"fold {k}: test MAE {fold.test_mae:.6g}")
    result.test_mae = result.fold_summary[0]
    result.manifest = _manifest(config, checksum, result.metrics, start,
                                checkpoints)
    if out is not None:
        _write_run(out, result.manifest, vocab)
    return result


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
