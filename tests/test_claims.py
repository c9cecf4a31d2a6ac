"""The paper's claims, each as one seeded run with a stated margin.

Claim 1, in the paper's words: MatInFormer learns "the grammar of
crystallography through the tokenization of pertinent space group
information". If the model learns a grammar and not a list of groups,
the grammar tokens should carry a property to space groups that
finetuning never saw, and a group's own id tokens should not.

Set-up: the synthetic ``regression`` corpus of seed 11 with 600
records, whose target is the crystal-system index plus twice the
composition entropy (1% noise). Training uses the groups whose number is
not a multiple of 5; the 124 records of the other 46 groups are the test
set. Desk preset, float32, 15 epochs at batch 64, no validation split.
Two variants blank space-group positions with ``[EMPTY]``:

- "ids only" keeps the full-symbol and number tokens (positions 1-2) and
  blanks the ten grammar tokens (positions 3-12);
- "grammar only" blanks positions 1-2 and keeps 3-12.

Measured test MAE (config seeds 1 / 2 / 3; about 2.7 s CPU per run on
a 2-vCPU x86-64 host, one BLAS thread):

- ids only: 1.368 / 1.404 / 1.254
- grammar only: 0.220 / 0.265 / 0.262
- predicting the training mean: 1.544

The smallest gap, ids only minus grammar only, is 0.992, so the test
asserts a gap above half of it, 0.5. Grammar only must also stay below
half the training-mean baseline. Ids only at least as good as grammar
only on the unseen groups would refute the claim.
"""

import numpy as np

from crysgram.datasets import generate_synthetic_corpus
from crysgram.nn import EncoderState
from crysgram.tokens import EMPTY_ID, ElementEmbeddingTable, build_vocabulary
from crysgram.training import TrainConfig, finetune_corpora, prepare_corpus

SEED = 1
MIN_GAP = 0.5
ID_POSITIONS = slice(1, 3)
GRAMMAR_POSITIONS = slice(3, 13)


def heldout_mae(records, vocab, table, train, test, blank, config):
    """Test MAE of a fresh desk state finetuned with the space-group
    positions ``blank`` set to [EMPTY] in every record."""
    corpus = prepare_corpus(records, vocab, table)
    corpus.tokens[:, blank] = EMPTY_ID
    state = EncoderState(config.encoder_config(vocab.size), seed=config.seed)
    return finetune_corpora(corpus.subset(train), None, corpus.subset(test),
                            config, state).test_mae


def test_grammar_tokens_carry_a_property_to_unseen_space_groups():
    records = generate_synthetic_corpus(600, seed=11, task="regression")
    vocab = build_vocabulary(datasets=records)
    table = ElementEmbeddingTable.deterministic()
    unseen = np.array([r.spacegroup % 5 == 0 for r in records])
    train, test = np.flatnonzero(~unseen), np.flatnonzero(unseen)
    assert len(test) == 124
    targets = np.array([r.target for r in records])
    baseline = np.mean(np.abs(targets[test] - targets[train].mean()))
    config = TrainConfig(preset="desk", epochs=15, seed=SEED)

    ids_only = heldout_mae(records, vocab, table, train, test,
                           GRAMMAR_POSITIONS, config)
    grammar_only = heldout_mae(records, vocab, table, train, test,
                               ID_POSITIONS, config)

    assert ids_only - grammar_only > MIN_GAP, (ids_only, grammar_only)
    assert grammar_only < baseline / 2, (grammar_only, baseline)
