"""Atomic writes: a write that fails, before or while it writes, leaves the
previous file byte-identical and no temporary file behind."""

import os

import numpy as np
import pytest

from crysgram import cli, files
from crysgram.datasets import generate_synthetic_corpus, write_dataset
from crysgram.nn import EncoderState, desk_config, save_state
from crysgram.porosity import PeriodicStructure, save_structure
from crysgram.tokens import (
    ElementEmbeddingTable,
    InformaticsFields,
    build_vocabulary,
)
from crysgram.training.loop import RunManifest, write_metrics, write_predictions


def _vocab(version):
    if version == 0:
        return build_vocabulary()
    return build_vocabulary(datasets=[InformaticsFields(topology="pcu")],
                            info_layout=("topology",))


# every artifact writer, called with a path and a content version
WRITERS = {
    "checkpoint": lambda path, v: save_state(
        EncoderState(desk_config(11, d_model=8, n_heads=2), seed=v), path),
    "manifest": lambda path, v: RunManifest(
        config={}, seed=v, dataset_checksum="0" * 64).save(path),
    "metrics": lambda path, v: write_metrics([{"epoch": v, "loss": 0.5}],
                                             path),
    "vocab": lambda path, v: _vocab(v).save(path),
    "predictions": lambda path, v: write_predictions([("r1", 1.0, v + 0.5)],
                                                     path),
    "emit": lambda path, v: cli.emit(f"output {v}", str(path)),
    "structure": lambda path, v: save_structure(PeriodicStructure(
        np.eye(3) * (8.0 + v), [("C", np.full(3, 0.5))]), path),
    "dataset-csv": lambda path, v: write_dataset(
        generate_synthetic_corpus(3, seed=v), path, fmt="delimited-table"),
    "dataset-jsonl": lambda path, v: write_dataset(
        generate_synthetic_corpus(3, seed=v), path, fmt="record-lines"),
    "embeddings": lambda path, v: ElementEmbeddingTable.deterministic(
        dimension=4, seed=v).save(path),
}


def _fail(*args, **kwargs):
    raise OSError("injected failure")


@pytest.mark.parametrize("point", ["fsync", "replace"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer,
                                          point):
    path = tmp_path / "artifact"
    WRITERS[writer](path, 0)
    before = path.read_bytes()
    monkeypatch.setattr(files.os, point, _fail)
    with pytest.raises(OSError, match="injected failure"):
        WRITERS[writer](path, 1)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["artifact"]
    WRITERS[writer](path, 1)
    assert path.read_bytes() != before
    assert os.listdir(tmp_path) == ["artifact"]


class _HalfWrite:
    """A file whose first write stores half its data, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        raise OSError("injected failure")

    def __getattr__(self, name):
        return getattr(self._fh, name)


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failure_mid_write_keeps_previous_file(tmp_path, monkeypatch,
                                               writer):
    path = tmp_path / "artifact"
    WRITERS[writer](path, 0)
    before = path.read_bytes()
    monkeypatch.setattr(files, "open",
                        lambda *args, **kwargs: _HalfWrite(open(*args,
                                                                **kwargs)),
                        raising=False)
    with pytest.raises(OSError, match="injected failure"):
        WRITERS[writer](path, 1)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["artifact"]


def test_dataset_csv_keeps_csv_line_endings(tmp_path):
    path = tmp_path / "records.csv"
    WRITERS["dataset-csv"](path, 0)
    lines = path.read_bytes().split(b"\n")
    assert len(lines) == 5 and lines[-1] == b""
    assert all(line.endswith(b"\r") for line in lines[:-1])


def test_failed_first_write_leaves_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(files.os, "replace", _fail)
    with pytest.raises(OSError):
        cli.emit("text", str(tmp_path / "out.txt"))
    assert os.listdir(tmp_path) == []
