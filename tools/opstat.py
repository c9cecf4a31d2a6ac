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
"""

import argparse
import resource
import shutil
import sys
import tempfile
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
        print("op  cpu_s   user_s  sys_s   minflt   maxrss_mb  problems")
        for op in range(args.ops):
            user0, sys0, flt0, _ = counters()
            result = workload.run_op(ctx, spans)
            user1, sys1, flt1, maxrss = counters()
            problems = workload.check(ctx, result.outputs)
            print(f"{op:<3} {user1 - user0 + sys1 - sys0:<7.3f} "
                  f"{user1 - user0:<7.3f} {sys1 - sys0:<7.3f} "
                  f"{flt1 - flt0:<8d} {maxrss / 1024.0:<10.1f} "
                  f"{len(problems)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
