"""Masked-token pretraining on the deterministic knowledge-base corpus.

Every masked space-group attribute is a function of the visible ones,
so the encoder can learn the crystallographic grammar to high accuracy:
crystal system from space-group number, point group from symbol, and
so on. With 200 epochs at lr 2e-3 and seed 1 it prints 97.8% masked
point-group and 100.0% crystal-system recovery, in about 46 s on one
BLAS thread (Python 3.11, numpy 2.4, OpenBLAS 0.3.31). At 40 epochs
it reached only 21.7% and 33.9%, barely above always guessing the most
common crystal system (29.6%).
"""

from crysgram.datasets import kb_corpus
from crysgram.objectives import masked_position_accuracy
from crysgram.tokens import ElementEmbeddingTable
from crysgram.training import TrainConfig, prepare_corpus, pretrain

config = TrainConfig(objective="mlm", epochs=200, batch_size=64,
                     learning_rate=2e-3, masking_ratio=0.25, seed=1)
print(f"masking ratio {config.masking_ratio} -> "
      f"{round(config.masking_ratio * 12)} of 12 space-group positions")

result = pretrain(kb_corpus(), config, log=print)

table = ElementEmbeddingTable.deterministic()
corpus = prepare_corpus(kb_corpus(), result.vocab, table)
# positions 4 and 5 hold the point-group and crystal-system tokens
overall, per_position = masked_position_accuracy(result.state, corpus,
                                                 (4, 5))
print(f"\nmasked-recovery accuracy after {config.epochs} epochs: "
      f"point group {per_position[4]:.1%}, "
      f"crystal system {per_position[5]:.1%}")
