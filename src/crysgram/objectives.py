"""Pretraining objectives (masked tokens, lattice-parameter regression,
their combination) and the finetuning regression head."""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, VocabularyError
from .grammar import CrystalSystem, lattice_constraints
from .nn.encoder import encoder_forward
from .nn.tensor import dropout, linear, log_softmax, silu
# kept as a module name: bench/tracing.py wraps objectives.matmul
from .nn.tensor import matmul  # noqa: F401
from .tokens.embedding import assemble_batch
from .tokens.tokenizer import N_SG_TOKENS, SG_POSITIONS
from .tokens.vocab import MASK_ID

LATTICE_FIELDS = ("a", "b", "c", "alpha", "beta", "gamma")


@dataclass(frozen=True)
class LatticeParameters:
    """Unit-cell edge lengths (angstrom) and angles (degrees)."""

    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"lattice length {name} must be positive")
        for name in ("alpha", "beta", "gamma"):
            if not 0.0 < getattr(self, name) < 180.0:
                raise ConfigError(
                    f"lattice angle {name} must lie in (0, 180) degrees")

    def as_array(self):
        return np.array([getattr(self, name) for name in LATTICE_FIELDS])

    def constraint_violations(self, system: CrystalSystem,
                              rtol=1e-3, atol_deg=0.1):
        constraints = lattice_constraints(system)
        return constraints.violations((self.a, self.b, self.c),
                                      (self.alpha, self.beta, self.gamma),
                                      rtol=rtol, atol_deg=atol_deg)


# -- masking ------------------------------------------------------------------


@dataclass(frozen=True)
class MaskingPlan:
    """Masked space-group positions and the labels they hid."""

    positions: tuple
    original_ids: tuple
    ratio: float
    seed: int = None


def apply_masking(seq, ratio=0.25, rng=None):
    """Replace a fixed-count uniform sample of space-group positions by [MASK].

    Exactly round(ratio * 12) positions are masked, drawn without
    replacement from the 12 space-group positions only; [CLS], informatics,
    and formula positions are never touched.
    """
    if not 0.0 < ratio <= 1.0:
        raise ConfigError(f"masking ratio must lie in (0, 1], got {ratio}")
    seed = None
    if rng is None or isinstance(rng, (int, np.integer)):
        seed = 0 if rng is None else int(rng)
        rng = np.random.default_rng(np.random.PCG64(seed))
    count = round(ratio * N_SG_TOKENS)
    count = max(count, 1)
    chosen = tuple(int(p) for p in np.sort(
        rng.choice(np.array(SG_POSITIONS), size=count, replace=False)))
    masked, original = _masked_copy(seq, chosen)
    return masked, MaskingPlan(chosen, original, ratio, seed)


def _masked_copy(seq, positions):
    """``seq`` with [MASK] at ``positions``, plus the ids it replaced."""
    ids = list(seq.ids)
    original = tuple(ids[p] for p in positions)
    for p in positions:
        ids[p] = MASK_ID
    return dataclasses.replace(seq, ids=tuple(ids)), original


def mask_batch(sequences, ratio, seed):
    """Deterministic per-sample masking for one step; returns (seqs, plans)."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    masked, plans = [], []
    for seq in sequences:
        m, plan = apply_masking(seq, ratio, rng)
        masked.append(m)
        plans.append(plan)
    return masked, plans


# -- target standardization ----------------------------------------------------


@dataclass(frozen=True)
class TargetScaler:
    """Per-target standardization fitted on the training split.

    ``log_mask`` marks targets that are log-transformed before
    standardization (used for lattice lengths, which span decades).
    """

    mean: tuple
    std: tuple
    log_mask: tuple

    @classmethod
    def fit(cls, values, log_mask=None):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        k = values.shape[1]
        log_mask = tuple(bool(b) for b in (log_mask or (False,) * k))
        work = values.copy()
        for j, take_log in enumerate(log_mask):
            if take_log:
                if (work[:, j] <= 0).any():
                    raise ConfigError(
                        f"target column {j} has non-positive values; "
                        "cannot log-transform")
                work[:, j] = np.log(work[:, j])
        mean = work.mean(axis=0)
        std = work.std(axis=0)
        if (std <= 0).any():
            bad = int(np.argmin(std))
            raise ConfigError(f"degenerate target column {bad}: zero variance")
        return cls(tuple(mean.tolist()), tuple(std.tolist()), log_mask)

    @property
    def n_targets(self):
        return len(self.mean)

    def transform(self, values):
        values = np.asarray(values, dtype=np.float64)
        squeeze = values.ndim == 1 and self.n_targets == 1
        work = values.reshape(-1, self.n_targets).copy()
        for j, take_log in enumerate(self.log_mask):
            if take_log:
                work[:, j] = np.log(work[:, j])
        out = (work - np.array(self.mean)) / np.array(self.std)
        return out.reshape(-1) if squeeze else out

    def inverse(self, standardized):
        z = np.asarray(standardized, dtype=np.float64)
        squeeze = z.ndim == 1 and self.n_targets == 1
        work = z.reshape(-1, self.n_targets) * np.array(self.std) \
            + np.array(self.mean)
        for j, take_log in enumerate(self.log_mask):
            if take_log:
                work[:, j] = np.exp(work[:, j])
        return work.reshape(-1) if squeeze else work

    def to_dict(self):
        return {"mean": list(self.mean), "std": list(self.std),
                "log_mask": [int(b) for b in self.log_mask]}

    @classmethod
    def from_dict(cls, payload):
        return cls(tuple(payload["mean"]), tuple(payload["std"]),
                   tuple(bool(b) for b in payload["log_mask"]))


def lpp_scaler(lattice_targets):
    """Scaler for the six lattice parameters: log-lengths, raw angles."""
    return TargetScaler.fit(lattice_targets,
                            log_mask=(True, True, True, False, False, False))


# -- forward helpers ------------------------------------------------------------


@dataclass
class Batch:
    """One training batch: token sequences plus aligned targets."""

    sequences: list
    formula_matrices: np.ndarray
    lattice_targets: np.ndarray = None
    targets: np.ndarray = None
    ids: list = field(default_factory=list)


def encode_batch(state, sequences, formula_matrices, mode="eval", rng=None,
                 record_attention=False, rows=None):
    """Assemble embeddings and run the encoder; returns (hidden, cls, attn).

    The batch is embedded and encoded only up to its last attended
    column: trailing [PAD] slots that no row attends to cannot change an
    attended row, so they are never built. ``rows`` is how many leading
    positions the caller reads (1 for [CLS]); the last block computes
    only those, or ``MIN_QUERY_ROWS`` if that is more, so ``hidden`` is
    (B, R, d_model) with R no wider than the attended width. Training
    dropout still draws at the padded full-width shapes, so a seed gives
    the masks of the untrimmed batch. ``attn`` is None unless attention
    is recorded; its map keeps every row, the full width and each
    record's token labels, which its maps are laid out against.
    """
    mask = np.array([seq.attention_mask for seq in sequences], dtype=bool)
    padded = mask.shape[1]
    attended = np.flatnonzero(mask.any(axis=0))
    width = (padded if record_attention or not attended.size
             else int(attended[-1]) + 1)
    x, mask = assemble_batch(
        sequences, formula_matrices,
        state["embed.token"], state["embed.formula.w"],
        state["embed.formula.b"], state["embed.position"], width=width)
    hidden, cls, attn = encoder_forward(
        x, mask, state, mode=mode, rng=rng,
        record_attention=record_attention,
        rows=None if record_attention else rows, _padded_len=padded)
    if attn is not None:
        attn.token_labels = [seq.token_labels for seq in sequences]
    return hidden, cls, attn


# Leading positions the masked-token loss reads: [CLS] and the space group.
MLM_ROWS = 1 + N_SG_TOKENS


def mlm_logits(state, hidden, plans):
    """Tied-weight vocabulary logits at every masked position.

    Returns (logits Tensor of shape (K, vocab), labels array of K ids)
    where K is the total number of masked positions in the batch.
    """
    rows_b, rows_p, labels = [], [], []
    for b, plan in enumerate(plans):
        for position, original in zip(plan.positions, plan.original_ids):
            rows_b.append(b)
            rows_p.append(position)
            labels.append(original)
    if not labels:
        raise ConfigError("empty masking plan: no positions to score")
    rows = hidden[np.array(rows_b), np.array(rows_p)]
    logits = linear(rows, state["embed.token"].swap_last2(), state["mlm.bias"])
    return logits, np.array(labels)


def mlm_loss(logits, labels):
    """Mean cross-entropy over masked positions only."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ConfigError("empty masking plan: no positions to score")
    logp = log_softmax(logits, axis=-1)
    picked = logp[np.arange(labels.size), labels]
    return -picked.mean()


def _two_layer_head(state, prefix, cls, mode="eval", rng=None):
    h = linear(cls, state[f"{prefix}.fc1.w"], state[f"{prefix}.fc1.b"])
    h = silu(h)
    h = dropout(h, state.config.head_dropout, rng, mode == "train")
    return linear(h, state[f"{prefix}.fc2.w"], state[f"{prefix}.fc2.b"])


def lpp_head(cls, state, mode="eval", rng=None):
    """Six standardized lattice-parameter predictions from the [CLS] vector."""
    return _two_layer_head(state, "lpp", cls, mode, rng)


def finetune_head(cls, state, mode="eval", rng=None):
    """Single standardized property prediction from the [CLS] vector."""
    return _two_layer_head(state, "reg", cls, mode, rng)


def lpp_loss(pred, target, scaler):
    """Mean squared error in standardized target space.

    ``pred`` is the head output (already standardized); ``target`` is in
    natural units and gets standardized by the fitted scaler.
    """
    if scaler is None:
        raise ConfigError("lpp_loss requires a fitted TargetScaler")
    target_std = scaler.transform(np.asarray(target))
    target_std = np.asarray(target_std).reshape(-1, scaler.n_targets)
    pred = pred.reshape(-1, scaler.n_targets)
    diff = pred - target_std.astype(pred.data.dtype)
    return (diff * diff).mean()


def mae_loss(pred, target, scaler):
    """Mean absolute error in standardized space (finetuning loss)."""
    if scaler is None:
        raise ConfigError("mae_loss requires a fitted TargetScaler")
    target_std = np.asarray(scaler.transform(np.asarray(target))).reshape(-1)
    pred = pred.reshape(-1)
    return (pred - target_std.astype(pred.data.dtype)).abs().mean()


# -- full objectives -------------------------------------------------------------


def mlm_objective(state, batch, ratio=0.25, seed=0, mode="train", rng=None):
    """Masked-token objective; returns (loss Tensor, stats dict)."""
    masked, plans = mask_batch(batch.sequences, ratio, seed)
    hidden, _, _ = encode_batch(state, masked, batch.formula_matrices,
                                mode=mode, rng=rng, rows=MLM_ROWS)
    logits, labels = mlm_logits(state, hidden, plans)
    loss = mlm_loss(logits, labels)
    predicted = np.argmax(logits.data, axis=-1)
    stats = {"mlm_accuracy": float((predicted == labels).mean()),
             "n_masked": int(labels.size)}
    return loss, stats


def lpp_objective(state, batch, scaler, mode="train", rng=None):
    """Lattice-parameter regression objective; returns (loss, stats)."""
    if batch.lattice_targets is None:
        raise ConfigError("batch carries no lattice targets")
    _, cls, _ = encode_batch(state, batch.sequences, batch.formula_matrices,
                             mode=mode, rng=rng, rows=1)
    pred = lpp_head(cls, state, mode=mode, rng=rng)
    loss = lpp_loss(pred, batch.lattice_targets, scaler)
    return loss, {"lpp_mse": float(loss.data)}


def combined_objective(state, batch, scaler, ratio=0.25, lam=1.0, seed=0,
                       mode="train", rng=None):
    """Masked-input lattice regression plus lam * masked-token loss.

    Both terms share a single forward pass over the masked inputs.
    """
    if batch.lattice_targets is None:
        raise ConfigError("batch carries no lattice targets")
    masked, plans = mask_batch(batch.sequences, ratio, seed)
    hidden, cls, _ = encode_batch(state, masked, batch.formula_matrices,
                                  mode=mode, rng=rng, rows=MLM_ROWS)
    pred = lpp_head(cls, state, mode=mode, rng=rng)
    loss_lpp = lpp_loss(pred, batch.lattice_targets, scaler)
    logits, labels = mlm_logits(state, hidden, plans)
    loss_mlm = mlm_loss(logits, labels)
    loss = loss_lpp + loss_mlm * lam if lam != 0.0 else loss_lpp
    predicted = np.argmax(logits.data, axis=-1)
    stats = {"lpp_mse": float(loss_lpp.data),
             "mlm_loss": float(loss_mlm.data),
             "mlm_accuracy": float((predicted == labels).mean())}
    return loss, stats


def regression_objective(state, batch, scaler, mode="train", rng=None):
    """Finetuning objective: MAE between head output and standardized target."""
    if batch.targets is None:
        raise ConfigError("batch carries no regression targets")
    _, cls, _ = encode_batch(state, batch.sequences, batch.formula_matrices,
                             mode=mode, rng=rng, rows=1)
    pred = finetune_head(cls, state, mode=mode, rng=rng)
    loss = mae_loss(pred, batch.targets, scaler)
    return loss, {"mae_std": float(loss.data)}


def masked_position_accuracy(state, corpus, positions, batch_size=64):
    """Accuracy of recovering tokens at specific masked positions.

    Every sequence of the prepared corpus gets exactly the given
    positions masked; predictions run in eval mode, ``batch_size``
    records at a time. Returns overall accuracy plus per-position detail.
    """
    if len(corpus) == 0:
        raise ConfigError("cannot score masked positions of an empty corpus")
    correct = {p: 0 for p in positions}
    for batch in corpus.batches(batch_size):
        masked, plans = [], []
        for seq in batch.sequences:
            m, original = _masked_copy(seq, positions)
            masked.append(m)
            plans.append(MaskingPlan(tuple(positions), original, 0.0))
        hidden, _, _ = encode_batch(state, masked, batch.formula_matrices,
                                    mode="eval", rows=max(positions) + 1)
        logits, labels = mlm_logits(state, hidden, plans)
        predicted = np.argmax(logits.data, axis=-1)
        hits = (predicted == labels).reshape(len(masked), len(positions))
        for j, p in enumerate(positions):
            correct[p] += int(hits[:, j].sum())
    per_position = {p: correct[p] / len(corpus) for p in positions}
    overall = sum(correct.values()) / (len(corpus) * len(positions))
    return overall, per_position
