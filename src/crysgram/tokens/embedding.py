"""Element embedding table, (N, 201) formula matrices, and assembly of the
embedded batch consumed by the encoder."""

import numpy as np

from ..errors import EmbeddingError
from ..files import atomic_write
from ..grammar import SYMBOLS
from ..nn.tensor import as_tensor, concat, gather_rows, linear
# kept as a module name: bench/tracing.py wraps tokens.embedding.matmul
from ..nn.tensor import matmul  # noqa: F401
from .tokenizer import N_FORMULA_SLOTS

D_ELEMENT = 200


class ElementEmbeddingTable:
    """Element symbol -> fixed-dimension real vector.

    The on-disk format is one line per element: the symbol followed by
    the vector components. The default table is a deterministic seeded
    surrogate with the same shape as published literature embeddings;
    point ``from_file`` at a real embedding file to replace it.
    """

    def __init__(self, vectors):
        if not vectors:
            raise EmbeddingError("empty element embedding table")
        self._vectors = {}
        self._dim = None
        for symbol, vec in vectors.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.ndim != 1:
                raise EmbeddingError(f"{symbol}: vector must be 1-D")
            if self._dim is None:
                self._dim = arr.size
            elif arr.size != self._dim:
                raise EmbeddingError(
                    f"{symbol}: dimension {arr.size} != {self._dim}")
            self._vectors[symbol] = arr

    @property
    def dimension(self):
        return self._dim

    def __contains__(self, symbol):
        return symbol in self._vectors

    def __len__(self):
        return len(self._vectors)

    def vector(self, symbol):
        try:
            return self._vectors[symbol]
        except KeyError:
            raise EmbeddingError(f"no embedding vector for element {symbol!r}") \
                from None

    @classmethod
    def deterministic(cls, dimension=D_ELEMENT, seed=7, symbols=SYMBOLS):
        rng = np.random.default_rng(np.random.PCG64(seed))
        scale = 1.0 / np.sqrt(dimension)
        return cls({s: rng.normal(0.0, scale, size=dimension) for s in symbols})

    @classmethod
    def from_file(cls, path, dimension=None):
        vectors = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts or parts[0].startswith("#"):
                    continue
                symbol, values = parts[0], parts[1:]
                if dimension is not None and len(values) != dimension:
                    raise EmbeddingError(
                        f"{path}:{lineno}: {symbol} has {len(values)} "
                        f"components, expected {dimension}")
                vectors[symbol] = np.array([float(v) for v in values])
        return cls(vectors)

    def save(self, path):
        with atomic_write(path) as fh:
            for symbol, vec in self._vectors.items():
                fh.write(symbol + " "
                         + " ".join(repr(float(v)) for v in vec) + "\n")


def embed_formula(composition, table):
    """(20, d_el + 1) matrix: row i = [fraction_i, element vector_i].

    Rows beyond the element count are zero padding.
    """
    out = np.zeros((N_FORMULA_SLOTS, table.dimension + 1), dtype=np.float64)
    for i, (symbol, fraction) in enumerate(composition.items()):
        out[i, 0] = fraction
        out[i, 1:] = table.vector(symbol)
    return out


def assemble_batch(sequences, formula_matrices, token_embedding,
                   formula_projection_w, formula_projection_b,
                   positional_table, width=None):
    """Embed the first ``width`` positions (default: all) of a batch.

    Discrete positions pull rows from the token-embedding table; formula
    slots get linearly projected (fraction || vector) rows; learned
    positional embeddings are added, and [PAD] rows are all-zero. Tables
    may be Tensors (training) or plain arrays. ``width`` must reach into
    the formula slots. All 20 slots are projected at any width, so the
    projection's weight gradient is always the same (B * 20)-row GEMM.
    Returns the (B, width, d_model) input and its (B, width) attention
    mask.
    """
    token_embedding = as_tensor(token_embedding)
    w = as_tensor(formula_projection_w)
    b = as_tensor(formula_projection_b)
    positional = as_tensor(positional_table)
    dtype = token_embedding.data.dtype

    lengths = {len(seq) for seq in sequences}
    if len(lengths) != 1:
        raise EmbeddingError(f"mixed sequence lengths in one batch: {lengths}")
    (L,) = lengths
    start = L - N_FORMULA_SLOTS
    width = L if width is None else width
    if not start < width <= L:
        raise EmbeddingError(f"width {width} must lie in ({start}, {L}]")
    if w.data.shape[1] != token_embedding.data.shape[1]:
        raise EmbeddingError(
            f"projection output {w.data.shape[1]} != d_model "
            f"{token_embedding.data.shape[1]}")
    if positional.data.shape[0] < L:
        raise EmbeddingError(
            f"positional table covers {positional.data.shape[0]} positions, "
            f"sequence needs {L}")

    ids = np.array([seq.ids[:start] for seq in sequences], dtype=np.intp)
    mask = np.array([seq.attention_mask[:width] for seq in sequences],
                    dtype=np.int8)
    formula = np.asarray(formula_matrices, dtype=dtype)
    if formula.shape[1] != N_FORMULA_SLOTS:
        raise EmbeddingError(
            f"formula matrix has {formula.shape[1]} rows, "
            f"expected {N_FORMULA_SLOTS}")
    if formula.shape[2] != w.data.shape[0]:
        raise EmbeddingError(
            f"formula feature width {formula.shape[2]} != projection input "
            f"{w.data.shape[0]}")

    nonpad = mask[..., None].astype(dtype)
    discrete = gather_rows(token_embedding, ids)
    projected = linear(formula, w, b)[:, :width - start]
    combined = concat([discrete, projected], axis=1)
    return (combined + positional[:width]) * nonpad, mask
