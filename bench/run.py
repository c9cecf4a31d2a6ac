r"""crysgram benchmark: one workload, measured for a fixed time.

Run from the repository root:

    python3 bench/run.py --workload pretrain-desk --seed 1 --seconds 20 \
        --trace 0

The program is imported from ``src/`` beside this directory; without it
the benchmark exits with code 1 and prints no result. ``--trace 0``
measures the end-to-end metrics with nothing patched. ``--trace 1``
alternates untraced and traced operations and reports the per-layer
metrics plus the tracing overhead. The last line of standard output is
the result object; the lines before it give the machine, every metric
by name with its unit, and the error rate.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_OPS = 3

# Relative tolerance against the recorded per-seed reference. Training in
# float32 over a few steps; a change that reorders sums moves losses by
# far less than this, a change that alters the math moves them by more.
REFERENCE_RTOL = 1e-4

# per_layer time metric -> the span name whose self time it reports
LAYER_TIMES = (
    ("datasets.load_s", "datasets.load"),
    ("tokens.prepare_s", "tokens.prepare"),
    ("tokens.assemble_s", "tokens.assemble"),
    ("nn.encoder_forward_s", "nn.encoder_forward"),
    ("nn.attention_s", "nn.attention"),
    ("nn.layer_norm_s", "nn.layer_norm"),
    ("nn.gelu_s", "nn.gelu"),
    ("nn.matmul_s", "nn.matmul"),
    ("nn.backward_s", "nn.backward"),
    ("nn.zero_grads_s", "nn.zero_grads"),
    ("nn.checkpoint_load_s", "nn.checkpoint_load"),
    ("objectives.forward_s", "objectives.forward"),
    ("objectives.mask_s", "objectives.mask"),
    ("objectives.heads_s", "objectives.heads"),
    ("training.optimizer_s", "training.optimizer"),
    ("training.evaluate_s", "training.evaluate"),
    ("training.clone_s", "training.clone"),
)
LAYER_COUNTS = (("nn.graph_nodes", "count"), ("nn.graph_bytes", "B"),
                ("nn.matmul_flops", "FLOP"), ("training.steps", "count"),
                ("porosity.grid_points", "count"))


def limit_threads():
    """Run BLAS and OpenMP on one thread (must precede importing numpy).

    With one thread the process CPU time that every timing uses equals
    the wall time on an idle core, and time stolen by the hypervisor or
    spent by neighbours does not count.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Put the checkout's ``src`` first on the path; exit 1 if absent."""
    if not (SRC / "crysgram" / "__init__.py").is_file():
        sys.exit(f"error: no crysgram sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import crysgram

    if Path(crysgram.__file__).resolve().parent != SRC / "crysgram":
        sys.exit(f"error: crysgram imported from {crysgram.__file__}")


def machine_facts():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def quartile_spread(values):
    """(q3 - q1) of the values; 0 for fewer than two."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def run_setup(workload, seed, size, workdir):
    """Set the workload up SETUP_REPEATS times; keep the last context."""
    times = []
    for i in range(SETUP_REPEATS):
        ctx = None  # free the previous context before building the next
        rep_dir = os.path.join(workdir, f"setup{i}")
        os.makedirs(rep_dir)
        start = tracing.clock()
        ctx = workload.setup(seed, size, rep_dir)
        times.append(tracing.clock() - start)
    return ctx, times


def measure(workload, ctx, seconds, reference, trace):
    """Closed loop of operations for ``seconds``; returns a summary dict.

    In a traced run operation 0 is untraced, then odd operations run
    with the wrappers installed and even ones without.
    """
    tracer = tracing.Tracer()
    ops = []  # (traced, CPU seconds, units)
    failed = 0
    first = None
    problems = []
    # the run's length is wall time; an operation's cost is CPU time
    start = time.perf_counter()
    elapsed = last_op = 0.0
    while len(ops) < MIN_OPS or elapsed + last_op <= seconds:
        traced = trace and len(ops) % 2 == 1
        took, units, outputs, found = _one_op(workload, ctx, tracer, traced,
                                              len(ops))
        ops.append((traced, took, units))
        last_op = time.perf_counter() - start - elapsed
        elapsed += last_op
        if not found:
            values = workload.reference_values(outputs)
            if reference is not None:
                found = compare_reference(values, reference)
            if first is None:
                first = values
            elif values != first:
                found.append(f"output {values} differs from the run's "
                             f"first operation {first}")
        if found:
            failed += 1
            problems.extend(f"op {len(ops) - 1}: {p}" for p in found)
    return {"ops": ops, "attempted": len(ops), "failed": failed,
            "problems": problems, "tracer": tracer}


def _one_op(workload, ctx, tracer, traced, index):
    """Time one operation and check it: (seconds, units, outputs, problems).

    A failed operation counts zero units.
    """
    spans = tracer if traced else tracing.NullTracer()
    restore = None
    t0 = tracing.clock()
    try:
        if traced:
            tracer.op = index
            restore = tracing.install(tracer)
            t0 = tracing.clock()
        with spans.span("op"):
            result = workload.run_op(ctx, spans)
        took = tracing.clock() - t0
    except Exception as exc:  # noqa: BLE001 - a failed op is counted
        return (tracing.clock() - t0, 0, None,
                [f"{type(exc).__name__}: {exc}"])
    finally:
        if restore is not None:
            restore()
    if traced and hasattr(workload, "trace_probe"):
        workload.trace_probe(ctx, tracer)
    try:
        found = workload.check(ctx, result.outputs)
    except Exception as exc:  # noqa: BLE001 - unreadable output fails
        found = [f"check raised {type(exc).__name__}: {exc}"]
    return took, (0 if found else result.units), result.outputs, found


def _close(value, expected, rtol=REFERENCE_RTOL):
    return abs(value - expected) <= rtol * max(1.0, abs(expected))


def compare_reference(outputs, reference):
    """Problems where ``outputs`` deviate from a recorded reference."""
    problems = []
    for key, expected in reference.items():
        value = outputs[key]
        if isinstance(expected, float):
            ok = _close(value, expected)
        else:
            ok = value == expected
        if not ok:
            problems.append(f"{key}={value!r} differs from reference "
                            f"{expected!r}")
    return problems


def end_to_end(summary, setup_s):
    rates = [units / took for traced, took, units in summary["ops"]
             if not traced and units]
    return {
        "throughput_per_s": (statistics.median(rates) if rates else None,
                             "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(summary):
    """Per-operation means over the traced operations."""
    tracer = summary["tracer"]
    traced = [took for t, took, _ in summary["ops"] if t]
    # operation 0 absorbs warm-up, so it is left out of the overhead base
    untraced = [took for i, (t, took, _) in enumerate(summary["ops"])
                if not t and i > 0]
    n = max(len(traced), 1)
    own = tracing.self_time_by_name(tracer.spans)
    out = {}
    for metric, span in LAYER_TIMES:
        out[metric] = (own.get(span, 0.0) / n, "s")
    for name, unit in LAYER_COUNTS:
        out[name] = (tracer.counts.get(name, 0.0) / n, unit)
    matmul_s = sum(s.duration for s in tracer.spans if s.name == "nn.matmul")
    out["nn.matmul_gflops"] = (
        tracer.counts.get("nn.matmul_flops", 0.0) / matmul_s / 1e9
        if matmul_s else 0.0, "GFLOP/s")

    # porosity: per traced operation, the paired passes of trace_probe
    by_op = defaultdict(lambda: defaultdict(float))
    for s in tracer.spans:
        if s.name.startswith("porosity."):
            by_op[s.op][s.name] += s.duration
    overlap = [v["porosity.overlap"] for v in by_op.values()]
    flood = [v["porosity.flood_fill"] - v["porosity.overlap"]
             for v in by_op.values()]
    out["porosity.overlap_s"] = (statistics.median(overlap) if overlap
                                 else 0.0, "s")
    out["porosity.floodfill_s"] = (statistics.median(flood) if flood
                                   else 0.0, "s")
    out["porosity.floodfill_iqr_s"] = (quartile_spread(flood), "s")

    overhead = 0.0
    if traced and untraced:
        overhead = 100.0 * (statistics.median(traced)
                            / statistics.median(untraced) - 1.0)
    out["trace.overhead_pct"] = (overhead, "%")
    out["trace.spans"] = (len(tracer.spans) / n, "count")
    return out


def load_reference(workload, size, seed):
    if not REFERENCE.is_file():
        return None
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return table.get(size, {}).get(workload, {}).get(str(seed))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pretrain-desk", "finetune-paper",
                                 "predict-desk", "porosity-grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long smoke inputs for the tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    t0 = tracing.clock()
    limit_threads()
    import_program()
    from workloads import WORKLOADS

    import_s = tracing.clock() - t0
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        ctx, setup_times = run_setup(workload, args.seed, args.size, workdir)
        setup_s = import_s + statistics.median(setup_times)
        reference = load_reference(args.workload, args.size, args.seed)
        summary = measure(workload, ctx, args.seconds, reference,
                          bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = (per_layer(summary) if args.trace
               else end_to_end(summary, setup_s))
    attempted, failed = summary["attempted"], summary["failed"]
    facts = machine_facts()
    print("machine " + json.dumps(facts, sort_keys=True))
    for problem in summary["problems"]:
        print(f"FAILED {problem}")
    durations = [took for _, took, _ in summary["ops"]]
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(durations)} operations, median CPU "
          f"{statistics.median(durations):.4g} s, reference "
          f"{'checked' if reference else 'not recorded for this seed'}")
    if not args.trace:
        print(f"  {workload.throughput_name} = "
              f"{metrics['throughput_per_s'][0]} 1/s (throughput_per_s)")
        print(f"  setup_s = {setup_s} s (import {import_s:.4g} s, set-up "
              f"repeats {', '.join(f'{t:.4g}' for t in setup_times)})")
        print(f"  peak_rss_mb = {metrics['peak_rss_mb'][0]} MB")
    else:
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value} {unit}")
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracing.write_spans(summary["tracer"].spans, spans)
        print(f"  spans written to {spans.relative_to(ROOT)}")
    print(f"  error_rate = {failed / attempted} ({failed} of {attempted})")
    bad = [name for name, (value, _) in metrics.items() if value is None]
    if bad:
        sys.exit(f"error: no successful operation measured {bad}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
