r"""Per-operation process counters for one benchmark workload.

Run from the repository root:

    python3 tools/opstat.py --workload finetune-paper --seed 3 --ops 5

Sets up the workload once, runs one warm-up operation, then prints for
each further operation its CPU, user and system seconds, the minor page
faults it took and the process's peak RSS so far. ``bench/run.py``
reports only throughput, set-up time and peak RSS; these counters show
where a saving lands, for example system time spent faulting in memory
the process had just freed. The workloads and the one-BLAS-thread
set-up are imported from ``bench/`` unchanged.

With ``--py-peak`` it also prints each operation's tracemalloc peak:
the most memory Python and numpy held at once during that operation,
free of what earlier operations left in the heap, which peak RSS
carries over. Tracing every allocation slows the process down, so the
CPU columns then read high.
"""

import argparse
import resource
import shutil
import sys
import tempfile
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def counters():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime, usage.ru_stime, usage.ru_minflt, usage.ru_maxrss


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pretrain-desk", "finetune-paper",
                                 "predict-desk", "porosity-grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--py-peak", action="store_true",
                        help="also print each operation's tracemalloc peak "
                        "(MB); tracing inflates the CPU columns")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.ops < 1:
        parser.error("--seed must be >= 0 and --ops >= 1")

    sys.path.insert(0, str(BENCH))
    import run  # bench/run.py: thread limit and checkout import

    run.limit_threads()  # before anything imports numpy
    run.import_program()
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    spans = tracing.NullTracer()
    workdir = tempfile.mkdtemp(prefix=f"opstat-{args.workload}-")
    try:
        ctx = workload.setup(args.seed, "full", workdir)
        workload.run_op(ctx, spans)  # warm-up
        if args.py_peak:
            tracemalloc.start()
        print("op  cpu_s   user_s  sys_s   minflt   maxrss_mb  problems"
              + "  py_peak_mb" * args.py_peak)
        for op in range(args.ops):
            if args.py_peak:
                tracemalloc.reset_peak()
            user0, sys0, flt0, _ = counters()
            result = workload.run_op(ctx, spans)
            user1, sys1, flt1, maxrss = counters()
            peak = tracemalloc.get_traced_memory()[1] if args.py_peak else 0
            problems = workload.check(ctx, result.outputs)
            line = (f"{op:<3} {user1 - user0 + sys1 - sys0:<7.3f} "
                    f"{user1 - user0:<7.3f} {sys1 - sys0:<7.3f} "
                    f"{flt1 - flt0:<8d} {maxrss / 1024.0:<10.1f} "
                    f"{len(problems)}")
            if args.py_peak:
                line = f"{line:<58}{peak / 2**20:.1f}"
            print(line)
    finally:
        tracemalloc.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
