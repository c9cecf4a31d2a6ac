r"""Alternating parent/change pairs of one benchmark workload.

Run from the repository root, with a second checkout of the parent
commit in PARENT:

    python3 tools/pairs.py --parent PARENT --workload predict-desk \
        --seeds 3-7 --seconds 20 [--json BENCH_<n>.json]

For each seed it runs the unchanged ``bench/run.py`` once in PARENT and
once in this checkout, one after the other; which side runs first
alternates from pair to pair, so slow drift of the host falls on both
sides alike. It prints every pair, then for each end-to-end metric
declared in ``BENCHMARK.json`` the median and quartiles of both sides,
the ratio of the medians, the parent's interquartile range, how many
pairs the change won and the verdict (see ``verdict``), and last whether
every run was correct (no failed operation, references checked where
recorded). Exits 1 if any run failed or was not correct.

With ``--json PATH`` it also writes all of that to PATH, under the
workload's name (other workloads already in the file are kept): the
machine block ``bench/run.py`` printed, both checkouts' ``git rev-parse
HEAD`` and whether their tracked files differ from it, the seeds,
``--seconds``, every pair with the side that ran first, the summary per
metric and ``every_run_correct``. ``summarize`` recomputes the summary
from the pairs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
MACHINE = "machine "


def parse_seeds(text):
    """'A-B' (inclusive) or 'A' -> list of seeds."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds or seeds[0] < 0:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}")
    return seeds


def run_once(root, workload, seed, seconds):
    """One ``bench/run.py`` run in checkout ``root``: (its result object,
    its machine block), or (None, None) when it printed no result."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    machine = next((json.loads(line[len(MACHINE):]) for line in lines
                    if line.startswith(MACHINE)), None)
    try:
        return json.loads(lines[-1]), machine
    except (IndexError, ValueError):
        sys.stderr.write(f"{root} seed {seed}: no result "
                         f"(exit {done.returncode})\n{done.stderr}")
        return None, None


def git_head(root):
    """``git rev-parse HEAD`` of ``root`` and whether its tracked files
    differ from that commit; both None outside a git checkout."""
    def git(*args):
        done = subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    return {"head": head, "dirty": None if head is None else bool(
        git("status", "--porcelain", "--untracked-files=no"))}


def quartiles(values):
    """(q1, median, q3), inclusive method so both stay inside the data;
    all equal for a single value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(row, sides, bound):
    """One metric's verdict from its summary ``row``, both sides' values
    and its ``BENCHMARK.json`` bound, a fraction of the parent's median.

    ``gain``: the change won at least nine tenths of the pairs and its
    median is better by more than the parent's interquartile range.
    ``regression``: its median is worse than the bound allows.
    ``unresolved``: the parent's interquartile range is wider than the
    bound, unless every change run beats every parent run.
    ``no change``: none of these.
    """
    sign = 1 if row["better"] == "higher" else -1
    parent = row["parent"]
    spread = parent["q3"] - parent["q1"]
    allowed = bound * abs(parent["median"])
    better_by = sign * (row["change"]["median"] - parent["median"])
    if 10 * row["wins"] >= 9 * row["pairs"] and better_by > spread:
        return "gain"
    if -better_by > allowed:
        return "regression"
    if spread > allowed and (min(sign * v for v in sides["change"])
                             <= max(sign * v for v in sides["parent"])):
        return "unresolved"
    return "no change"


def summarize(pairs, metrics, bounds=None):
    """Per metric over the pairs where both sides gave a result: both
    sides' quartiles, the ratio of the medians (change / parent), how
    many pairs the change won and, for a metric ``bounds`` maps to its
    bound, the ``verdict``. ``metrics`` is [(name, better), ...]."""
    done = [p for p in pairs if p["parent"] and p["change"]]
    if not done:
        return {}
    summary = {}
    for name, better in metrics:
        sides = {side: [p[side]["metrics"][name] for p in done]
                 for side in SIDES}
        row = {"better": better, "pairs": len(done)}
        for side in SIDES:
            q1, median, q3 = quartiles(sides[side])
            row[side] = {"q1": q1, "median": median, "q3": q3}
        pm, cm = row["parent"]["median"], row["change"]["median"]
        row["ratio"] = cm / pm if pm else None
        row["wins"] = sum((new > old) if better == "higher" else (new < old)
                          for old, new in zip(sides["parent"],
                                              sides["change"]))
        if bounds and name in bounds:
            row["verdict"] = verdict(row, sides, bounds[name])
        summary[name] = row
    return summary


def write_json(path, workload, record):
    """Put ``record`` under ``workload`` in the JSON object at ``path``."""
    path = Path(path)
    data = json.loads(path.read_text()) if path.is_file() else {}
    data[workload] = record
    tmp = path.with_name(f".{path.name}.tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    tmp.replace(path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--workload", required=True,
                        choices=("pretrain-desk", "finetune-paper",
                                 "predict-desk", "porosity-grid"))
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="inclusive range A-B, or one seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write the pairs and summary to PATH")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": CHANGE}
    if not (roots["parent"] / "bench" / "run.py").is_file():
        parser.error(f"no bench/run.py under {roots['parent']}")
    declared = json.loads((CHANGE / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in declared["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    pairs, machine = [], None
    all_correct = True
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results = {}
        for side in order:
            results[side], facts = run_once(roots[side], args.workload,
                                            seed, args.seconds)
            machine = machine or facts
        if any(r is None or not r["correct"] for r in results.values()):
            all_correct = False
        pairs.append({"seed": seed, "first": order[0], **{
            side: None if r is None else {
                "correct": r["correct"],
                "metrics": {name: r["metrics"][name]["value"]
                            for name, _ in metrics}}
            for side, r in results.items()}})
        if any(r is None for r in results.values()):
            continue
        cells = [f"{name} {pairs[-1]['parent']['metrics'][name]:.4g} -> "
                 f"{pairs[-1]['change']['metrics'][name]:.4g}"
                 for name, _ in metrics]
        flags = "" if all(r["correct"] for r in results.values()) \
            else "  NOT CORRECT"
        print(f"seed {seed} ({order[0]} first): {'; '.join(cells)}{flags}",
              flush=True)

    summary = summarize(pairs, metrics, bounds)
    count = sum(1 for p in pairs if p["parent"] and p["change"])
    print(f"\n{args.workload}: {count} pairs, --seconds {args.seconds:g}")
    for name, row in summary.items():
        (p1, pm, p3), (c1, cm, c3) = (
            (row[side]["q1"], row[side]["median"], row[side]["q3"])
            for side in SIDES)
        ratio = float("nan") if row["ratio"] is None else row["ratio"]
        print(f"  {name} ({row['better']} is better): parent {pm:.4g} "
              f"(q1 {p1:.4g}, q3 {p3:.4g}, IQR {p3 - p1:.4g}) -> change "
              f"{cm:.4g} (q1 {c1:.4g}, q3 {c3:.4g}); x{ratio:.3f}; "
              f"change better in {row['wins']}/{count}; {row['verdict']}")
    print(f"every run correct: {'yes' if all_correct else 'NO'}")
    if args.json:
        write_json(args.json, args.workload, {
            "machine": machine, "seeds": args.seeds,
            "commits": {side: git_head(roots[side]) for side in SIDES},
            "seconds": args.seconds, "pairs": pairs, "summary": summary,
            "every_run_correct": all_correct})
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
