"""Record per-seed reference outputs into bench/reference.json.

    python3 bench/make_reference.py --seeds 0-19

Runs one full-size operation per workload and seed with the program as
it is, so rerun it only when a change is meant to alter results. A run
whose seed is recorded fails any operation that deviates (see
``run.compare_reference``); other seeds check only that every operation
of the run repeats the first.
"""

import argparse
import json
import shutil
import sys
import tempfile

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="range such as 0-19")
    parser.add_argument("--workload", action="append",
                        help="limit to these workloads (repeatable)")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    run.limit_threads()
    run.import_program()
    from workloads import WORKLOADS

    table = {}
    if run.REFERENCE.is_file():
        table = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    run.OUT.mkdir(exist_ok=True)
    for name in args.workload or WORKLOADS:
        workload = WORKLOADS[name]
        recorded = table.setdefault("full", {}).setdefault(name, {})
        for seed in seeds:
            workdir = tempfile.mkdtemp(prefix=f"ref-{name}-", dir=run.OUT)
            try:
                ctx = workload.setup(seed, "full", workdir)
                result = workload.run_op(ctx, run.tracing.NullTracer())
                outputs = result.outputs
                problems = workload.check(ctx, outputs)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if problems:
                sys.exit(f"{name} seed {seed}: {problems}")
            recorded[str(seed)] = workload.reference_values(outputs)
            print(name, seed, recorded[str(seed)], flush=True)
            run.REFERENCE.write_text(
                json.dumps(table, indent=1, sort_keys=True) + "\n",
                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
