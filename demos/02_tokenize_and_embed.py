"""From a crystal record to the embedded transformer input.

Builds the vocabulary, tokenizes (space-group tokens + informatics +
formula slots), embeds the formula as a (20, 201) matrix, and assembles
the final L x d_model input.
"""

import numpy as np

from crysgram.grammar import parse_formula
from crysgram.nn import EncoderState, desk_config
from crysgram.tokens import (
    ElementEmbeddingTable,
    InformaticsFields,
    assemble_batch,
    build_vocabulary,
    embed_formula,
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
seq = tokenize_crystal(1, comp, info, vocab, provenance="demo-mof")
print(f"\nsequence length {len(seq)} = 1 + 12 + {seq.n_info} + 20")
for pos in list(range(0, 20)) + [32, 33]:
    print(f"  {pos:>2} {seq.categories[pos]:<26} {seq.token_labels[pos]:<12} "
          f"id={seq.ids[pos]:>4} mask={seq.attention_mask[pos]}")

table = ElementEmbeddingTable.deterministic()
matrix = embed_formula(comp, table)
print(f"\nformula matrix: {matrix.shape}, "
      f"row 0 = [fraction {matrix[0, 0]:.3f} | 200-dim vector]")
print(f"zero-padding rows: {np.count_nonzero(~matrix.any(axis=1))}")

config = desk_config(vocab.size)
state = EncoderState(config, seed=0)
embedded = assemble_batch(
    [seq], [matrix], state["embed.token"], state["embed.formula.w"],
    state["embed.formula.b"], state["embed.position"])
print(f"\nembedded input: {embedded.matrix.shape[1:]} "
      f"(d_model {config.d_model}), "
      f"attended positions {int(np.sum(embedded.attention_mask))}")
