"""Span arithmetic and counters of the traced benchmark run."""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_time_subtracts_nested_children():
    # op [0, 10] > forward [1, 6] > attention [2, 4]; backward [6, 9]
    spans = [
        Span(2, "attention", 2.0, 4.0, 1, 0),
        Span(1, "forward", 1.0, 6.0, 0, 0),
        Span(3, "backward", 6.0, 9.0, 0, 0),
        Span(0, "op", 0.0, 10.0, None, 0),
    ]
    own = tracing.self_times(spans)
    assert own == {0: pytest.approx(2.0), 1: pytest.approx(3.0),
                   2: pytest.approx(2.0), 3: pytest.approx(3.0)}
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_merges_overlaps_and_clips_children():
    parent = Span(0, "p", 0.0, 10.0, None, 0)
    children = [Span(1, "c", 1.0, 3.0, 0, 0), Span(2, "c", 2.0, 5.0, 0, 0),
                Span(3, "c", 8.0, 12.0, 0, 0)]
    own = tracing.self_times([parent, *children])
    # covered: [1, 5] and [8, 10]
    assert own[0] == pytest.approx(4.0)
    assert tracing.self_time_by_name([parent, *children])["c"] == \
        pytest.approx(9.0)


def test_tracer_records_parent_and_operation():
    tracer = tracing.Tracer()
    tracer.op = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.id and outer.parent is None
    assert inner.op == outer.op == 7
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_matmul_flops_from_broadcast_shapes():
    a = np.zeros((4, 3, 5, 6))
    b = np.zeros((6, 7))
    assert tracing.matmul_flops(a, b) == 2 * 4 * 3 * 5 * 6 * 7
    assert tracing.matmul_flops(np.zeros((1, 2, 3)), np.zeros((5, 3, 4))) \
        == 2 * 5 * 2 * 3 * 4


def test_graph_size_counts_interior_nodes_once():
    from crysgram.nn import Tensor

    w = Tensor.parameter(np.ones((3, 3)), "w")
    h = w * 2.0
    loss = (h + h).sum()
    nodes, nbytes = tracing.graph_size(loss)
    assert nodes == 3  # h, h + h, sum; the parameter is a leaf
    assert nbytes == 72 + 72 + 8


def test_install_restores_every_attribute():
    import crysgram.nn.encoder as encoder
    from crysgram.training.optimizer import AdamW

    before = (encoder.layer_norm, AdamW.__dict__["step"])
    restore = tracing.install(tracing.Tracer())
    assert encoder.layer_norm is not before[0]
    restore()
    assert (encoder.layer_norm, AdamW.__dict__["step"]) == before
