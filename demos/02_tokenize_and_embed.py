"""From a crystal record to the embedded transformer input.

Builds the vocabulary, tokenizes (space-group tokens + informatics +
formula slots), embeds the formula as a (20, 201) matrix, and assembles
the encoder input, a batch of one (1, L, d_model) matrix.
"""

import numpy as np

from crysgram.grammar import parse_formula
from crysgram.nn import EncoderState, desk_config
from crysgram.tokens import (
    PAD_ID,
    ElementEmbeddingTable,
    InformaticsFields,
    assemble_batch,
    build_vocabulary,
    embed_formula,
    sequence_categories,
    tokenize_crystal,
)

info = InformaticsFields(topology="pcu.cat0", unit_cell_volume=4823.5,
                         atom_count=112, porosity_fraction=61.2,
                         accessible_void_fraction=44.0)
vocab = build_vocabulary(datasets=[info],
                         info_layout=("topology", "unit_cell_volume",
                                      "atom_count", "porosity_fraction",
                                      "accessible_void_fraction"))
print(f"vocabulary: {vocab.size} tokens, "
      f"info layout {vocab.info_layout}")

comp = parse_formula("C6H6CuN2O4")
ids = tokenize_crystal(1, comp, info, vocab)
categories = sequence_categories(vocab.info_layout)
n_info = len(vocab.info_layout)
print(f"\nsequence length {len(ids)} = 1 + 12 + {n_info} + 20")
for pos in list(range(0, 20)) + [32, 33]:
    label = vocab.token_at(ids[pos])[1]
    print(f"  {pos:>2} {categories[pos]:<26} {label:<12} "
          f"id={ids[pos]:>4} mask={int(ids[pos] != PAD_ID)}")

table = ElementEmbeddingTable.deterministic()
matrix = embed_formula(comp, table)
print(f"\nformula matrix: {matrix.shape}, "
      f"row 0 = [fraction {matrix[0, 0]:.3f} | 200-dim vector]")
print(f"zero-padding rows: {np.count_nonzero(~matrix.any(axis=1))}")

config = desk_config(vocab.size)
state = EncoderState(config, seed=0)
x, mask = assemble_batch(
    np.array([ids]), [matrix], state["embed.token"],
    state["embed.formula.w"], state["embed.formula.b"],
    state["embed.position"])
print(f"\nembedded input: {x.shape[1:]} "
      f"(d_model {config.d_model}), "
      f"attended positions {int(np.sum(mask))}")
