"""Attention-map and [CLS]-embedding export for external plotting.

Trains a few epochs, records per-head attention weights, serializes the
last layer with token labels, and dumps [CLS] vectors (the rows a t-SNE
or UMAP projection would consume).
"""

import json

import numpy as np

from crysgram.datasets import generate_synthetic_corpus
from crysgram.nn.export import export_attention
from crysgram.objectives import encode_batch
from crysgram.tokens import ElementEmbeddingTable
from crysgram.training import TrainConfig, prepare_corpus, pretrain

records = generate_synthetic_corpus(128, seed=6, task="lpp")
config = TrainConfig(objective="lpp", epochs=10, batch_size=64,
                     learning_rate=1e-3, seed=6)
table = ElementEmbeddingTable.deterministic()
result = pretrain(records, config, table=table)

first = prepare_corpus(records[:1], result.vocab, table)
_, _, attn = encode_batch(result.state, first.tokens, first.formula_matrices,
                          mode="eval", record_attention=True)
labels = [result.vocab.token_at(i)[1] for i in first.tokens[0]]

document = export_attention(attn, labels, layers=[-1])
(key,) = document["layers"]
weights = np.asarray(document["layers"][key])
print(f"last-layer export: {weights.shape[0]} heads of "
      f"{weights.shape[1]}x{weights.shape[2]} weights")
print("token labels:", document["token_labels"][:13], "...")

strongest = np.unravel_index(np.argmax(weights[0]), weights[0].shape)
print(f"head 0 strongest link: "
      f"{document['token_labels'][strongest[0]]} -> "
      f"{document['token_labels'][strongest[1]]} "
      f"(weight {weights[0][strongest]:.3f})")

cls_rows = attn.cls_attention(-1)
print(f"\n[CLS] attention rows: {cls_rows.shape} (heads x positions)")

corpus = prepare_corpus(records[:8], result.vocab, table)
_, cls, _ = encode_batch(result.state, corpus.tokens,
                         corpus.formula_matrices, mode="eval")
print(f"[CLS] embeddings for external projection: {cls.shape} "
      f"(records x d_model)")
print("first row, first 5 dims:",
      json.dumps([round(float(v), 4) for v in cls.data[0][:5]]))
