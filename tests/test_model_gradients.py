"""Full-model gate: every parameter's gradient against central differences.

A tiny float64 encoder (2 blocks, 2 heads, d_model 8, no dropout) runs the
masked-token plus lattice loss and, separately, the regression loss through
the same entry points training uses. Sampled coordinates of every
parameter, the largest-gradient one among them, must match central
differences.
"""

import dataclasses

import numpy as np
import pytest

from crysgram.datasets import CrystalRecord
from crysgram.nn import EncoderState, desk_config
from crysgram.objectives import (
    TargetScaler,
    combined_objective,
    lpp_scaler,
    regression_objective,
)
from crysgram.tokens import ElementEmbeddingTable, build_vocabulary
from crysgram.training import prepare_corpus

VOCAB = build_vocabulary()
TABLE = ElementEmbeddingTable.deterministic(dimension=6, seed=2)
RECORDS = ((225, "NaCl"), (14, "Fe2O3"), (62, "LiFePO4"))
EPS = 1e-6
TOL = 1e-6


def tiny_state():
    config = desk_config(VOCAB.size, n_layers=2, n_heads=2, d_model=8,
                         d_formula=TABLE.dimension + 1, dtype="float64",
                         attention_dropout=0.0, hidden_dropout=0.0,
                         head_dropout=0.0)
    state = EncoderState(config, seed=8)
    # move off the 0.02-std init so every nonlinearity bends
    rng = np.random.default_rng(9)
    for _, p in state.named_parameters():
        p.data += rng.normal(0.0, 0.3, size=p.data.shape)
    return state


def tiny_batch():
    corpus = prepare_corpus(
        [CrystalRecord(id=f"r{i}", formula=f, spacegroup=sg)
         for i, (sg, f) in enumerate(RECORDS)], VOCAB, TABLE)
    rng = np.random.default_rng(10)
    lattice = np.concatenate([rng.uniform(3, 9, size=(len(corpus), 3)),
                              rng.uniform(60, 120, size=(len(corpus), 3))],
                             axis=1)
    return dataclasses.replace(corpus, lattice_targets=lattice,
                               targets=rng.normal(size=len(corpus)))


BATCH = tiny_batch()
LOSSES = {
    "mlm+lpp": (lambda state: combined_objective(
        state, BATCH, lpp_scaler(BATCH.lattice_targets), ratio=0.25, lam=1.0,
        seed=5, mode="train", rng=np.random.default_rng(0))[0],
        {"reg."}),
    "regression": (lambda state: regression_objective(
        state, BATCH, TargetScaler.fit(BATCH.targets), mode="train",
        rng=np.random.default_rng(0))[0],
        {"lpp.", "mlm."}),
}


@pytest.mark.parametrize("name", sorted(LOSSES))
def test_every_parameter_matches_central_differences(name):
    loss_of, unused_prefixes = LOSSES[name]
    state = tiny_state()
    state.zero_grads()
    loss_of(state).backward()
    rng = np.random.default_rng(11)
    for pname, p in state.named_parameters():
        analytic = p.grad.reshape(-1)
        if pname.startswith(tuple(unused_prefixes)):
            assert not analytic.any(), pname
            continue
        assert analytic.any(), pname
        flat = p.data.reshape(-1)
        picks = {int(np.argmax(np.abs(analytic)))}
        picks.update(int(i) for i in rng.choice(
            flat.size, size=min(2, flat.size), replace=False))
        for i in sorted(picks):
            orig = flat[i]
            flat[i] = orig + EPS
            plus = loss_of(state).item()
            flat[i] = orig - EPS
            minus = loss_of(state).item()
            flat[i] = orig
            numeric = (plus - minus) / (2 * EPS)
            assert abs(numeric - analytic[i]) <= TOL * max(1.0, abs(numeric)), \
                (pname, i, numeric, analytic[i])
