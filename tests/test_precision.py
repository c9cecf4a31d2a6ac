"""Float64 as the oracle of float32: one seeded run at both dtypes.

Each objective trains the same seeded state for 4 epochs of 6 steps at
float32 and at float64. Over config seeds 2, 3 and 4 (one BLAS thread)
the largest relative distances were 8.7e-8 for an epoch loss or loss
term, 4.6e-7 for the [CLS] rows (L2) and 3.3e-9 for the test
predictions (L2); the bounds below sit at least 10 times above those
and far below the 1e-3 to 1e-2 drift seen after 100 to 200 steps.
"""

import numpy as np
import pytest

from crysgram.datasets import generate_synthetic_corpus
from crysgram.tokens import ElementEmbeddingTable
from crysgram.training import (
    TrainConfig,
    encode_corpus,
    finetune,
    prepare_corpus,
    pretrain,
)

LOSS_BOUND = 1e-6
CLS_BOUND = 1e-5
PREDICTION_BOUND = 1e-7
LOSS_KEYS = ("loss", "mlm_loss", "lpp_mse")
TABLE = ElementEmbeddingTable.deterministic()


def relative(value, reference):
    value = np.asarray(value, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    return np.linalg.norm(value - reference) / np.linalg.norm(reference)


def config(objective, dtype, **kwargs):
    return TrainConfig(objective=objective, epochs=4, batch_size=16, seed=2,
                       dtype=dtype, **kwargs)


def epoch_losses(metrics):
    return {key: [row[key] for row in metrics]
            for key in LOSS_KEYS if key in metrics[0]}


@pytest.mark.parametrize("objective", ["mlm", "lpp", "mlm+lpp"])
def test_pretraining_float32_tracks_float64(objective):
    records = generate_synthetic_corpus(96, seed=11, task="lpp")
    runs = {dtype: pretrain(records, config(objective, dtype), table=TABLE)
            for dtype in ("float32", "float64")}
    losses = {dtype: epoch_losses(run.metrics) for dtype, run in runs.items()}
    assert losses["float32"].keys() == losses["float64"].keys()
    for key, reference in losses["float64"].items():
        distance = max(abs(a - b) / abs(b)
                       for a, b in zip(losses["float32"][key], reference))
        assert distance < LOSS_BOUND, key
    cls = {}
    for dtype, run in runs.items():
        corpus = prepare_corpus(records, run.vocab, TABLE)
        cls[dtype] = np.concatenate(
            [hidden[:, 0] for _, hidden in encode_corpus(run.state, corpus)])
    assert cls["float32"].dtype == np.float32
    assert relative(cls["float32"], cls["float64"]) < CLS_BOUND


def test_finetuning_and_evaluate_float32_track_float64():
    records = generate_synthetic_corpus(120, seed=11, task="regression")
    runs = {dtype: finetune(records, config("regression", dtype,
                                            split="ratio:0.8,0.2"),
                            table=TABLE)
            for dtype in ("float32", "float64")}
    single, double = runs["float32"], runs["float64"]
    assert len(double.predictions) == 24
    for a, b in zip(single.metrics, double.metrics):
        assert abs(a["loss"] - b["loss"]) / abs(b["loss"]) < LOSS_BOUND
    # test predictions and MAE come from ``evaluate``
    assert [p[:2] for p in single.predictions] \
        == [p[:2] for p in double.predictions]
    assert relative([p[2] for p in single.predictions],
                    [p[2] for p in double.predictions]) < PREDICTION_BOUND
    assert abs(single.test_mae - double.test_mae) / double.test_mae \
        < PREDICTION_BOUND
