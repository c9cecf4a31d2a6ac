"""Element embedding table, (20, 201) formula matrices, and assembly of
the embedded batch consumed by the encoder."""

import numpy as np

from ..errors import EmbeddingError
from ..files import atomic_write
from ..grammar import SYMBOLS
from ..nn.tensor import as_tensor, concat, gather_rows, linear
# kept as a module name: bench/tracing.py wraps tokens.embedding.matmul
from ..nn.tensor import matmul  # noqa: F401
from .tokenizer import N_FORMULA_SLOTS
from .vocab import PAD_ID

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
    def deterministic(cls, dimension=D_ELEMENT, seed=7):
        rng = np.random.default_rng(np.random.PCG64(seed))
        scale = 1.0 / np.sqrt(dimension)
        return cls({s: rng.normal(0.0, scale, size=dimension)
                    for s in SYMBOLS})

    @classmethod
    def from_file(cls, path):
        vectors = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if not parts or parts[0].startswith("#"):
                    continue
                vectors[parts[0]] = np.array([float(v) for v in parts[1:]])
        return cls(vectors)

    def save(self, path):
        with atomic_write(path) as fh:
            for symbol, vec in self._vectors.items():
                fh.write(symbol + " " + " ".join(map(repr, vec.tolist()))
                         + "\n")


def formula_rows(compositions, table):
    """Compact formulas: ``(fractions, index, element_rows)``.

    ``fractions`` (N, 20) holds each formula's element fractions and
    ``index`` (N, 20) the row of ``element_rows`` that holds each
    element's [0, vector]: each element the formulas name gets one row,
    after an all-zero row 0 for the empty slots. ``embed_formulas``
    turns any rows of the first two into formula matrices. Raises
    EmbeddingError for an element missing from the table.
    """
    fractions = np.zeros((len(compositions), N_FORMULA_SLOTS))
    index = np.zeros((len(compositions), N_FORMULA_SLOTS), dtype=np.intp)
    rows = {}
    vectors = []
    for n, composition in enumerate(compositions):
        for i, (symbol, fraction) in enumerate(composition.items()):
            row = rows.get(symbol)
            if row is None:
                vectors.append(table.vector(symbol))
                row = rows[symbol] = len(vectors)
            fractions[n, i] = fraction
            index[n, i] = row
    element_rows = np.zeros((len(vectors) + 1, table.dimension + 1))
    for row, vector in enumerate(vectors, start=1):
        element_rows[row, 1:] = vector
    return fractions, index, element_rows


def embed_formulas(fractions, index, element_rows):
    """(B, 20, d_el + 1) formula matrices of (B, 20) compact formulas.

    Row i of a record's matrix is [fraction_i, element vector_i]; rows
    beyond its element count are zero padding. The only definition of a
    formula matrix: ``embed_formula`` is a batch of one, and
    ``PreparedCorpus.formula_matrices`` builds each batch's matrices
    here.
    """
    out = element_rows[index]
    out[..., 0] = fractions
    return out


def embed_formula(composition, table):
    """(20, d_el + 1) formula matrix of one composition."""
    return embed_formulas(*formula_rows([composition], table))[0]


def assemble_batch(tokens, formula_matrices, token_embedding,
                   formula_projection_w, formula_projection_b,
                   positional_table, width=None):
    """Embed the first ``width`` positions (default: all) of a batch.

    ``tokens`` is the (B, L) array of token ids. Discrete positions
    pull rows from the token-embedding table; formula slots get linearly
    projected (fraction || vector) rows; learned positional embeddings
    are added, and [PAD] rows are all-zero. Tables may be Tensors
    (training) or plain arrays. ``width`` must reach into the formula
    slots. All 20 slots are projected at any width, so the projection's
    weight gradient is always the same (B * 20)-row GEMM. Returns the
    (B, width, d_model) input and its (B, width) attention mask, which
    is 0 exactly at [PAD] ids.
    """
    token_embedding = as_tensor(token_embedding)
    w = as_tensor(formula_projection_w)
    b = as_tensor(formula_projection_b)
    positional = as_tensor(positional_table)
    dtype = token_embedding.data.dtype

    L = tokens.shape[1]
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

    mask = (tokens[:, :width] != PAD_ID).astype(np.int8)
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
    discrete = gather_rows(token_embedding, tokens[:, :start])
    projected = linear(formula, w, b)[:, :width - start]
    combined = concat([discrete, projected], axis=1)
    return (combined + positional[:width]) * nonpad, mask
