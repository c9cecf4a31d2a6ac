"""Spans around calls into crysgram's layers, for the traced benchmark run.

The wrappers are installed by replacing module and class attributes of
the crysgram package (``install``) and removed again afterwards, so the
untraced run executes the program exactly as shipped. Spans stay in
memory; ``write_spans`` writes them out when the run ends.
"""

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from time import process_time

# Every benchmark timing is CPU time of the process. The benchmark runs
# BLAS on one thread, so on an idle core this equals wall time, while
# time the shared machine steals from the virtual CPU is left out.
clock = process_time


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # None for a root span
    op: int  # shared by every span of one operation

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects nested spans and per-operation counters in memory."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op = None
        self._open = []
        self._next_id = 0

    @contextmanager
    def span(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            self._open.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.op))

    def count(self, name, amount=1):
        self.counts[name] += amount


class NullTracer:
    """Stand-in for the untraced run: spans cost one attribute lookup."""

    _null = nullcontext()

    def span(self, name):
        return self._null

    def count(self, name, amount=1):
        pass


def covered_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    run_start = run_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans):
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered_length(children[s.id], s.start, s.end)
            for s in spans}


def self_time_by_name(spans):
    """Span name -> summed self time over all spans of that name."""
    own = self_times(spans)
    totals = defaultdict(float)
    for s in spans:
        totals[s.name] += own[s.id]
    return dict(totals)


def write_spans(spans, path):
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(asdict(s)) + "\n")


# -- counters computed at layer boundaries ------------------------------------


def graph_size(root):
    """(nodes, bytes) of the autodiff graph that ends at ``root``.

    A node is a tensor that recorded a backward closure or parents;
    parameters and constants are leaves and are not counted. Bytes are
    the nodes' array sizes, so arrays held only by closures are missed.
    """
    seen, stack = set(), [root]
    nodes = nbytes = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._parents or t._backward is not None:
            nodes += 1
            nbytes += t.data.nbytes
            stack.extend(t._parents)
    return nodes, nbytes


def matmul_flops(a, b):
    """Multiply-add count x2 of a broadcast matmul, from operand shapes."""
    a = getattr(a, "data", a)
    b = getattr(b, "data", b)
    k = a.shape[-1]
    batch = _broadcast_size(a.shape[:-2], b.shape[:-2])
    return 2 * batch * a.shape[-2] * k * b.shape[-1]


def _broadcast_size(sa, sb):
    size = 1
    for i in range(1, max(len(sa), len(sb)) + 1):
        da = sa[-i] if i <= len(sa) else 1
        db = sb[-i] if i <= len(sb) else 1
        size *= max(da, db)
    return size


# -- wrappers -----------------------------------------------------------------


def _walk(tracer, root):
    with tracer.span("trace.graph_walk"):
        nodes, nbytes = graph_size(root)
    tracer.count("nn.graph_nodes", nodes)
    tracer.count("nn.graph_bytes", nbytes)


def _plain(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _matmul(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(a, b):
        tracer.count("nn.matmul_flops", matmul_flops(a, b))
        with tracer.span(name):
            return fn(a, b)
    return wrapper


def _backward(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        _walk(tracer, self)
        with tracer.span(name):
            return fn(self, *args, **kwargs)
    return wrapper


def _eval_head(tracer, name, fn):
    """Head called by the inference loops: walk the graph it returns."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        _walk(tracer, out)
        return out
    return wrapper


def _eval_encode(tracer, name, fn):
    """encode_batch as called by the [CLS] export loop: walk from [CLS]."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        _walk(tracer, out[1])
        return out
    return wrapper


def _step(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count("training.steps")
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


# (module, attribute path, span name, wrapper kind). Every module that
# imported a name gets its own entry, because a caller looks the name up
# in its own module's globals.
PATCHES = (
    ("crysgram.datasets", "load_dataset", "datasets.load", _plain),
    ("crysgram.training.loop", "prepare_corpus", "tokens.prepare", _plain),
    ("crysgram.cli", "prepare_corpus", "tokens.prepare", _plain),
    ("crysgram.objectives", "assemble_batch", "tokens.assemble", _plain),
    ("crysgram.objectives", "encoder_forward", "nn.encoder_forward", _plain),
    ("crysgram.nn.encoder", "multi_head_attention", "nn.attention", _plain),
    ("crysgram.nn.encoder", "layer_norm", "nn.layer_norm", _plain),
    ("crysgram.nn.encoder", "gelu", "nn.gelu", _plain),
    ("crysgram.nn.encoder", "matmul", "nn.matmul", _matmul),
    ("crysgram.objectives", "matmul", "nn.matmul", _matmul),
    ("crysgram.tokens.embedding", "matmul", "nn.matmul", _matmul),
    ("crysgram.nn.tensor", "Tensor.backward", "nn.backward", _backward),
    ("crysgram.nn.encoder", "EncoderState.zero_grads", "nn.zero_grads",
     _plain),
    ("crysgram.training.loop", "load_state", "nn.checkpoint_load", _plain),
    ("crysgram.training.loop", "combined_objective", "objectives.forward",
     _plain),
    ("crysgram.training.loop", "mlm_objective", "objectives.forward", _plain),
    ("crysgram.training.loop", "lpp_objective", "objectives.forward", _plain),
    ("crysgram.training.loop", "regression_objective", "objectives.forward",
     _plain),
    ("crysgram.objectives", "mask_batch", "objectives.mask", _plain),
    ("crysgram.objectives", "mlm_logits", "objectives.heads", _plain),
    ("crysgram.objectives", "lpp_head", "objectives.heads", _plain),
    ("crysgram.objectives", "finetune_head", "objectives.heads", _plain),
    ("crysgram.training.loop", "finetune_head", "objectives.heads",
     _eval_head),
    ("crysgram.cli", "encode_batch", "objectives.encode", _eval_encode),
    ("crysgram.training.optimizer", "AdamW.step", "training.optimizer",
     _step),
    ("crysgram.training.loop", "evaluate", "training.evaluate", _plain),
    ("crysgram.cli", "evaluate", "training.evaluate", _plain),
    ("crysgram.nn.encoder", "EncoderState.clone", "training.clone", _plain),
)


def install(tracer, patches=PATCHES):
    """Replace the patched attributes with traced wrappers.

    Returns a function that puts the originals back.
    """
    saved = []
    wrapped = {}
    try:
        for module_name, path, name, kind in patches:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            key = (id(original), name)
            if key not in wrapped:
                wrapped[key] = kind(tracer, name, original)
            setattr(owner, attr, wrapped[key])
            saved.append((owner, attr, original))
    except BaseException:
        _restore(saved)
        raise
    return lambda: _restore(saved)


def _restore(saved):
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
