"""The traced benchmark run (``bench/run.py --trace 1``) wraps crysgram
functions by module and attribute name (``bench/tracing.py``). Every name
it patches must exist, and restoring must put each original back, so a
rename or deletion in the package fails here rather than in the traced
run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets(patches):
    """(owner, attribute name) of every patched attribute."""
    found = []
    for module_name, path, _, _ in patches:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        found.append((owner, attr))
    return found


def test_install_wraps_every_patch_and_restore_puts_originals_back():
    tracing = load_tracing()
    places = targets(tracing.PATCHES)
    originals = [owner.__dict__[attr] for owner, attr in places]
    restore = tracing.install(tracing.Tracer())
    try:
        for (owner, attr), original in zip(places, originals):
            assert owner.__dict__[attr] is not original, (owner, attr)
    finally:
        restore()
    for (owner, attr), original in zip(places, originals):
        assert owner.__dict__[attr] is original, (owner, attr)


def test_traced_encode_records_the_encoder_spans():
    from crysgram import cli
    from crysgram.grammar import parse_formula
    from crysgram.nn import EncoderState, desk_config
    from crysgram.tokens import (
        ElementEmbeddingTable,
        build_vocabulary,
        embed_formula,
        tokenize_crystal,
    )

    vocab = build_vocabulary()
    table = ElementEmbeddingTable.deterministic()
    comp = parse_formula("NaCl")
    ids = tokenize_crystal(225, comp, None, vocab)
    state = EncoderState(desk_config(vocab.size), seed=0)
    tracing = load_tracing()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        _, cls, _ = cli.encode_batch(state, np.array([ids]),
                                     embed_formula(comp, table)[None], rows=1)
    finally:
        restore()
    assert cls.shape == (1, state.config.d_model)
    assert np.isfinite(cls.data).all()
    names = {span.name for span in tracer.spans}
    assert {"objectives.encode", "tokens.assemble", "nn.encoder_forward",
            "nn.attention", "nn.matmul"} <= names
