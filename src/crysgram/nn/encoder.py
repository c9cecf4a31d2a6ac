"""Transformer encoder: scaled dot-product attention, post-norm blocks,
[CLS] pooling, and per-head attention recording."""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from ..errors import CrysgramError, DegenerateMaskError
from .tensor import (Tensor, as_tensor, dropout, gelu, layer_norm, linear,
                     matmul, softmax)

MASK_FILL = -1e30

# The last block computes at least this many query rows: numpy's matmul
# sends a one-row product to gemv, which sums in another order than the
# gemm that serves two or more rows, so a one-row [CLS] would differ from
# the full-width run in its last bits.
MIN_QUERY_ROWS = 2


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    n_layers: int = 2
    n_heads: int = 4
    d_model: int = 64
    d_ff: int = 0  # 0 means 4 * d_model
    attention_dropout: float = 0.1
    hidden_dropout: float = 0.1
    head_dropout: float = 0.1
    max_seq_len: int = 64
    d_formula: int = 201
    dtype: str = "float32"

    def __post_init__(self):
        if self.d_ff == 0:
            object.__setattr__(self, "d_ff", 4 * self.d_model)
        if self.d_model % self.n_heads:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        for name in ("vocab_size", "n_layers", "n_heads", "d_model", "d_ff",
                     "max_seq_len", "d_formula"):
            if getattr(self, name) < 0 or (name != "n_layers"
                                           and getattr(self, name) == 0):
                raise ValueError(f"{name} must be positive")

    @property
    def d_head(self):
        return self.d_model // self.n_heads

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload):
        return cls(**payload)


def desk_config(vocab_size, **overrides):
    """Small preset used by tests and demos."""
    base = dict(vocab_size=vocab_size, n_layers=2, n_heads=4, d_model=64,
                max_seq_len=64)
    base.update(overrides)
    return EncoderConfig(**base)


def paper_config(vocab_size, **overrides):
    """Published-scale preset: 8 blocks, 12 heads, hidden size 768."""
    base = dict(vocab_size=vocab_size, n_layers=8, n_heads=12, d_model=768,
                max_seq_len=64)
    base.update(overrides)
    return EncoderConfig(**base)


class EncoderState:
    """All learnable parameters, addressable by stable canonical names.

    A fresh state's parameters have no gradients (``grad`` is None) until
    a backward pass gives them one. The training loop keeps the first
    array backward hands each parameter and gives a read-only zero to
    those backward did not reach; ``zero_grads`` fills every gradient
    with writable zeros instead.
    """

    LPP_OUTPUTS = 6

    def __init__(self, config, seed=0):
        self.config = config
        self.seed = seed
        self.params = {}
        rng = np.random.default_rng(np.random.PCG64(seed))
        d, ff, v = config.d_model, config.d_ff, config.vocab_size

        def put(name, data):
            self.params[name] = Tensor(data, requires_grad=True, name=name)

        def normal(name, shape):
            # truncated at two standard deviations, the usual init recipe
            std = 0.02
            raw = rng.normal(0.0, std, size=shape)
            put(name, np.clip(raw, -2 * std, 2 * std).astype(config.np_dtype))

        def zeros(name, shape):
            put(name, np.zeros(shape, dtype=config.np_dtype))

        def ones(name, shape):
            put(name, np.ones(shape, dtype=config.np_dtype))

        normal("embed.token", (v, d))
        normal("embed.position", (config.max_seq_len, d))
        normal("embed.formula.w", (config.d_formula, d))
        zeros("embed.formula.b", (d,))
        for i in range(config.n_layers):
            prefix = f"layers.{i}"
            for proj in ("q", "k", "v", "o"):
                normal(f"{prefix}.attn.{proj}.w", (d, d))
                zeros(f"{prefix}.attn.{proj}.b", (d,))
            ones(f"{prefix}.norm1.gain", (d,))
            zeros(f"{prefix}.norm1.bias", (d,))
            normal(f"{prefix}.ffn.fc1.w", (d, ff))
            zeros(f"{prefix}.ffn.fc1.b", (ff,))
            normal(f"{prefix}.ffn.fc2.w", (ff, d))
            zeros(f"{prefix}.ffn.fc2.b", (d,))
            ones(f"{prefix}.norm2.gain", (d,))
            zeros(f"{prefix}.norm2.bias", (d,))
        # MLM output layer shares weights with embed.token; only a bias here
        zeros("mlm.bias", (v,))
        normal("lpp.fc1.w", (d, d))
        zeros("lpp.fc1.b", (d,))
        normal("lpp.fc2.w", (d, self.LPP_OUTPUTS))
        zeros("lpp.fc2.b", (self.LPP_OUTPUTS,))
        normal("reg.fc1.w", (d, d))
        zeros("reg.fc1.b", (d,))
        normal("reg.fc2.w", (d, 1))
        zeros("reg.fc2.b", (1,))

    def __getitem__(self, name):
        return self.params[name]

    def named_parameters(self):
        return list(self.params.items())

    def parameter_count(self):
        return sum(p.data.size for p in self.params.values())

    def zero_grads(self):
        for p in self.params.values():
            p.grad = np.zeros_like(p.data)

    @classmethod
    def from_arrays(cls, config, seed, arrays):
        """State whose parameters wrap the name -> array map ``arrays``, in
        its order, with no gradients (``grad`` is None)."""
        state = cls.__new__(cls)
        state.config, state.seed = config, seed
        state.params = {name: Tensor(data, requires_grad=True, name=name)
                        for name, data in arrays.items()}
        return state

    def clone(self):
        """Copy of the parameters with no gradients (``grad`` is None) until
        a backward pass gives them one."""
        return EncoderState.from_arrays(
            self.config, self.seed,
            {name: p.data.copy() for name, p in self.params.items()})


@dataclass
class AttentionMap:
    """Recorded attention weights of one batch: a (B, n_heads, R, L) array
    per layer and the (B, L) attention mask."""

    layers: list = field(default_factory=list)
    attention_mask: np.ndarray = None

    @property
    def n_layers(self):
        return len(self.layers)

    def one_record(self):
        """(n_heads, R, L) layers of a one-record map, else CrysgramError."""
        if not self.layers:
            raise CrysgramError(
                "attention recording was disabled for this pass")
        if len(self.layers[0]) != 1:
            raise CrysgramError(
                f"attention export reads one record, this map holds "
                f"{len(self.layers[0])}")
        return [w[0] for w in self.layers]

    def cls_attention(self, layer):
        """Per-head attention from [CLS] to every position: (n_heads, L)."""
        return self.one_record()[layer][:, 0, :]


def scaled_dot_attention(q, k, v, mask=None, dropout_rate=0.0, rng=None,
                         train=False):
    """Row-softmax(q kT / sqrt(d_k)) v with optional key masking.

    ``mask`` holds 1/True for attendable keys and broadcasts against the
    score rows. A row left with no attendable key raises
    DegenerateMaskError rather than returning an arbitrary distribution.
    In training, dropout at ``dropout_rate`` applies to the weights before
    they multiply ``v``. Returns (output, weights before dropout).
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.shape[-1] != k.shape[-1]:
        raise ValueError(f"query dim {q.shape[-1]} != key dim {k.shape[-1]}")
    if k.shape[-2] != v.shape[-2]:
        raise ValueError(f"{k.shape[-2]} keys but {v.shape[-2]} values")
    d_k = q.shape[-1]
    scores = matmul(q, k.swap_last2()) * (1.0 / math.sqrt(d_k))
    if mask is not None:
        valid = np.asarray(mask).astype(bool)
        if not valid.any(axis=-1).all():
            raise DegenerateMaskError("attention row with every key masked")
        fill = np.where(valid, 0.0, MASK_FILL).astype(scores.dtype)
        scores = scores + fill
    weights = softmax(scores, axis=-1)
    applied = dropout(weights, dropout_rate, rng, train)
    return matmul(applied, v), weights


def multi_head_attention(x, layer_params, mask=None, n_heads=1,
                         attention_dropout=0.0, mode="eval", rng=None,
                         rows=None):
    """Multi-head self-attention over x (B, L, d) with a (B, L) key mask.

    ``rows`` limits the queries to the first ``rows`` positions (all L
    when None); keys and values still come from every position. Returns
    the output-projected context (B, rows, d) and the recorded weights
    (B, n_heads, rows, L). Weights are recorded before attention dropout.
    """
    x = as_tensor(x)
    B, L, d = x.shape
    R = L if rows is None else rows
    d_head = d // n_heads

    def project(name, source):
        h = linear(source, layer_params[f"{name}.w"], layer_params[f"{name}.b"])
        return h.reshape(B, source.shape[1], n_heads,
                         d_head).transpose(0, 2, 1, 3)

    if mask is not None:
        mask = np.asarray(mask).reshape(B, 1, 1, L)
    queries = x if R == L else x[:, :R]
    context, weights = scaled_dot_attention(
        project("q", queries), project("k", x), project("v", x), mask,
        attention_dropout, rng, mode == "train")
    context = context.transpose(0, 2, 1, 3).reshape(B, R, d)
    return linear(context, layer_params["o.w"], layer_params["o.b"]), weights


def _layer_view(state, index):
    prefix = f"layers.{index}."
    return {name[len(prefix):]: p for name, p in state.params.items()
            if name.startswith(prefix)}


class _PaddedDraws:
    """Generator view that draws dropout uniforms at the padded shape.

    ``shapes`` maps each cut draw shape to the padded shape it came from;
    such a draw takes the padded shape from the generator and keeps its
    leading corner, so a cut batch, or a last block run on fewer rows,
    gets the same dropout masks, and leaves the generator in the same
    state, as the padded full-width batch.
    """

    def __init__(self, rng, shapes):
        self._rng = rng
        self._shapes = shapes

    def random(self, shape):
        padded = self._shapes.get(tuple(shape))
        if padded is None:
            return self._rng.random(shape)
        return self._rng.random(padded)[tuple(slice(0, n) for n in shape)]


def encoder_forward(x, mask, state, mode="eval", rng=None,
                    record_attention=True, rows=None, *, _padded_len=None):
    """Run the full encoder stack over the (B, L, d_model) input ``x``
    with its (B, L) attention ``mask``.

    Returns (hidden, cls, attention) where hidden is (B, R, d_model), cls
    is the hidden row at position 0 and attention is an AttentionMap when
    ``record_attention`` is set, else None. ``rows`` (all L positions
    when None) is how many leading positions the caller reads: the last
    block computes only the first R = min(max(rows, MIN_QUERY_ROWS), L),
    with keys and values from every position, and its recorded attention
    has R query rows. ``_padded_len`` is internal: the sequence length
    before the unattended trailing columns were left out of the input
    (see ``objectives.encode_batch``). Training dropout draws at the
    padded full-width shapes either way.
    """
    config = state.config
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if (mode == "train" and rng is None
            and (config.attention_dropout > 0 or config.hidden_dropout > 0)):
        raise ValueError("a train-mode pass with dropout needs a generator: "
                         "pass rng")

    x = as_tensor(x)
    if x.shape[1] > config.max_seq_len:
        raise ValueError(
            f"sequence length {x.shape[1]} exceeds max {config.max_seq_len}")

    train = mode == "train"
    B, L, d = x.shape
    attn_map = (AttentionMap([], np.array(mask))
                if record_attention else None)
    R = (L if rows is None or config.n_layers == 0
         else min(max(rows, MIN_QUERY_ROWS), L))
    P = L if _padded_len is None else _padded_len
    if train and (P != L or R != L):
        H = config.n_heads
        rng = _PaddedDraws(rng, {(B, L, d): (B, P, d),
                                 (B, H, L, L): (B, H, P, P),
                                 (B, R, d): (B, P, d),
                                 (B, H, R, L): (B, H, P, P)})
    for i in range(config.n_layers):
        layer = _layer_view(state, i)
        attn_params = {k[len("attn."):]: v for k, v in layer.items()
                       if k.startswith("attn.")}
        last = i == config.n_layers - 1
        a, weights = multi_head_attention(
            x, attn_params, mask=mask, n_heads=config.n_heads,
            attention_dropout=config.attention_dropout, mode=mode, rng=rng,
            rows=R if last else None)
        if attn_map is not None:
            attn_map.layers.append(np.array(weights.data, dtype=np.float64))
        if last and R < L:
            x = x[:, :R]
        x = layer_norm(x + dropout(a, config.hidden_dropout, rng, train),
                       layer["norm1.gain"], layer["norm1.bias"])
        h = linear(x, layer["ffn.fc1.w"], layer["ffn.fc1.b"])
        h = linear(gelu(h), layer["ffn.fc2.w"], layer["ffn.fc2.b"])
        x = layer_norm(x + dropout(h, config.hidden_dropout, rng, train),
                       layer["norm2.gain"], layer["norm2.bias"])

    return x, x[:, 0, :], attn_map
