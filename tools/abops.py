r"""Alternating single operations of one benchmark workload, parent
against change, each in its own long-lived worker.

Run from the repository root, with a second checkout of the parent
commit in PARENT:

    python3 tools/abops.py --parent PARENT --workload porosity-grid \
        --seed 3 --ops 100 [--json BENCH_<n>.json]

One worker process per checkout imports that checkout's unchanged
``bench/run.py`` and ``bench/workloads.py``: it runs BLAS on one
thread, sets the workload up once and runs one warm-up operation. The main process then asks the workers for one
operation at a time, both sides each round, and flips which side goes
first from round to round. Only one worker runs at any moment, so the
two do not compete for cores, and slow drift of the host falls on both
sides alike. Each worker times its operation in process CPU seconds,
reads the operation's system seconds and minor page faults and the
process's peak RSS so far from ``getrusage``, and passes the outputs
through ``workload.check``.

The main process prints each round with both sides' counters, then the
median, q1 and q3 of the per-round ratio change CPU / parent CPU, how
many rounds the change was faster, both sides' median operation CPU,
system seconds and minor faults, and their last peak RSS. System time
and faults show where a saving lands, for example in faulting in memory
the process had just freed; an A/A run (``--parent`` set to this
checkout) gives one side's readings twice. Exits 1 if any operation
failed its check. CPU time does not see set-up or time spent waiting,
and a worker's peak RSS includes its warm-up, so ``setup_s`` and
``peak_rss_mb`` still come from ``bench/run.py`` pairs
(``tools/pairs.py``).

With ``--json PATH`` it also appends one block to the ``ops`` list of
the workload's record in PATH, which ``tools/pairs.py --json`` must have
written: the seed, both checkouts' commits (as ``tools/pairs.py``
records them), a digest of each side's ``src`` files, both sides'
per-operation CPU seconds, ``summarize`` of them and whether every
operation was correct. A block whose two digests are equal is an A/A
run, whose ratio quartiles are the band that a change of nothing reads
inside.
"""

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from pairs import git_head, write_json

CHANGE = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
WORKLOADS = ("pretrain-desk", "finetune-paper", "predict-desk",
             "porosity-grid")


def worker(checkout, name, seed):
    """Serve operations of workload ``name`` from ``checkout``: one line
    on standard input runs one, one JSON line on standard output answers
    with its CPU and system seconds, its minor page faults, the peak RSS
    so far and the problems ``workload.check`` found."""
    sys.path.insert(0, str(Path(checkout) / "bench"))
    import run  # the checkout's bench/run.py: thread limit and import

    run.limit_threads()  # before anything imports numpy
    run.import_program()
    import tracing
    from workloads import WORKLOADS as BENCH_WORKLOADS

    workload = BENCH_WORKLOADS[name]
    spans = tracing.NullTracer()
    workdir = tempfile.mkdtemp(prefix=f"abops-{name}-")
    try:
        ctx = workload.setup(seed, "full", workdir)
        workload.run_op(ctx, spans)  # warm-up
        print("ready", flush=True)
        while sys.stdin.readline():
            before = resource.getrusage(resource.RUSAGE_SELF)
            start = time.process_time()
            result = workload.run_op(ctx, spans)
            cpu = time.process_time() - start
            after = resource.getrusage(resource.RUSAGE_SELF)
            problems = workload.check(ctx, result.outputs)
            print(json.dumps({
                "cpu_s": cpu, "sys_s": after.ru_stime - before.ru_stime,
                "minflt": after.ru_minflt - before.ru_minflt,
                "maxrss_mb": after.ru_maxrss / 1024.0,  # KiB on Linux
                "problems": problems}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summarize(parent_cpu, change_cpu):
    """Per-round ratios change / parent: their median and quartiles
    (inclusive method), the rounds the change was faster, and both
    sides' median CPU seconds. Needs at least two rounds."""
    ratios = [new / old for old, new in zip(parent_cpu, change_cpu)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {"ops": len(ratios),
            "ratio": {"q1": q1, "median": median, "q3": q3},
            "change_faster": sum(r < 1.0 for r in ratios),
            "parent_median_cpu_s": statistics.median(parent_cpu),
            "change_median_cpu_s": statistics.median(change_cpu)}


def src_digest(root):
    """SHA-256 over the relative path and bytes of every file under
    ``root/src`` (caches aside), in path order."""
    digest = hashlib.sha256()
    for path in sorted(Path(root, "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def append_ops(path, workload, block):
    """Append ``block`` to the ``ops`` list of ``workload``'s record in
    the file at ``path``."""
    record = json.loads(Path(path).read_text())[workload]
    record.setdefault("ops", []).append(block)
    write_json(path, workload, record)


def start_worker(root, args):
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--worker",
         str(root), "--workload", args.workload, "--seed", str(args.seed)],
        cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    if proc.stdout.readline().strip() != "ready":
        proc.kill()
        sys.exit(f"{root}: worker failed to set up {args.workload}")
    return proc


def one_op(proc, root):
    proc.stdin.write("op\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        sys.exit(f"{root}: worker exited (code {proc.wait()})")
    return json.loads(line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, help="operations per side")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="append the operations and their summary to "
                        "the workload's record in PATH")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker, args.workload, args.seed)
        return 0
    if args.parent is None or args.ops is None:
        parser.error("--parent and --ops are required")
    if args.seed < 0 or args.ops < 2:
        parser.error("--seed must be >= 0 and --ops >= 2")
    roots = {"parent": args.parent.resolve(), "change": CHANGE}
    if not (roots["parent"] / "bench" / "run.py").is_file():
        parser.error(f"no bench/run.py under {roots['parent']}")
    if args.json and args.workload not in (
            json.loads(args.json.read_text()) if args.json.is_file() else {}):
        parser.error(f"{args.json} holds no {args.workload} record from "
                     "tools/pairs.py --json")

    procs = {}
    try:
        for side in SIDES:  # one after the other: set-up competes too
            procs[side] = start_worker(roots[side], args)
        answers = {side: [] for side in SIDES}
        failed = 0
        for op in range(args.ops):
            order = SIDES if op % 2 == 0 else SIDES[::-1]
            for side in order:
                answer = one_op(procs[side], roots[side])
                answers[side].append(answer)
                for problem in answer["problems"]:
                    failed += 1
                    print(f"op {op} {side}: {problem}")
            parent, change = (answers[side][-1] for side in SIDES)
            print(f"op {op} ({order[0]} first): parent "
                  f"{parent['cpu_s']:.4f} s, change {change['cpu_s']:.4f} s, "
                  f"ratio {change['cpu_s'] / parent['cpu_s']:.3f}; sys "
                  f"{parent['sys_s']:.3f} / {change['sys_s']:.3f} s, minflt "
                  f"{parent['minflt']} / {change['minflt']}, maxrss "
                  f"{parent['maxrss_mb']:.1f} / {change['maxrss_mb']:.1f} MB",
                  flush=True)
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait()
    cpu = {side: [a["cpu_s"] for a in answers[side]] for side in SIDES}
    s = summarize(cpu["parent"], cpu["change"])
    ratio = s["ratio"]
    print(f"\n{args.workload} seed {args.seed}: {s['ops']} operations per "
          f"side; CPU ratio change / parent: median {ratio['median']:.3f} "
          f"(q1 {ratio['q1']:.3f}, q3 {ratio['q3']:.3f}); change faster in "
          f"{s['change_faster']}/{s['ops']}; median operation "
          f"{s['parent_median_cpu_s']:.4f} s -> "
          f"{s['change_median_cpu_s']:.4f} s")
    for side, rows in answers.items():
        sys_s = statistics.median(a["sys_s"] for a in rows)
        minflt = statistics.median(a["minflt"] for a in rows)
        print(f"{side}: median {sys_s:.3f} s system and {minflt:.0f} minor "
              f"faults per operation; peak RSS {rows[-1]['maxrss_mb']:.1f} MB")
    print(f"every operation correct: {'NO' if failed else 'yes'}")
    if args.json:
        append_ops(args.json, args.workload, {
            "seed": args.seed,
            "commits": {side: git_head(roots[side]) for side in SIDES},
            "src_sha256": {side: src_digest(roots[side]) for side in SIDES},
            "cpu_s": cpu, "summary": s, "every_op_correct": not failed})
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
