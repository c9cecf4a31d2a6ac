r"""Alternating parent/change pairs of one benchmark workload.

Run from the repository root, with a second checkout of the parent
commit in PARENT:

    python3 tools/pairs.py --parent PARENT --workload predict-desk \
        --seeds 3-7 --seconds 20

For each seed it runs the unchanged ``bench/run.py`` once in PARENT and
once in this checkout, one after the other; which side runs first
alternates from pair to pair, so slow drift of the host falls on both
sides alike. It prints every pair, then for each end-to-end metric
declared in ``BENCHMARK.json`` the median and quartiles of both sides,
the ratio of the medians, the parent's interquartile range and how many
pairs the change won, and last whether every run was correct (no
failed operation, references checked where recorded). Exits 1 if any
run failed or was not correct.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_seeds(text):
    """'A-B' (inclusive) or 'A' -> list of seeds."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds or seeds[0] < 0:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}")
    return seeds


def run_once(root, workload, seed, seconds):
    """One ``bench/run.py`` run in checkout ``root``: its result object,
    or None when it printed none."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(f"{root} seed {seed}: no result "
                         f"(exit {done.returncode})\n{done.stderr}")
        return None


def quartiles(values):
    """(q1, median, q3); all equal for a single value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


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
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": CHANGE}
    if not (roots["parent"] / "bench" / "run.py").is_file():
        parser.error(f"no bench/run.py under {roots['parent']}")
    declared = json.loads((CHANGE / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in declared["end_to_end"]]

    values = {side: {name: [] for name, _ in metrics} for side in SIDES}
    wins = {name: 0 for name, _ in metrics}
    all_correct = True
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results = {side: run_once(roots[side], args.workload, seed,
                                  args.seconds) for side in order}
        if any(r is None or not r["correct"] for r in results.values()):
            all_correct = False
        if any(r is None for r in results.values()):
            continue
        cells = []
        for name, better in metrics:
            old, new = (results[side]["metrics"][name]["value"]
                        for side in SIDES)
            values["parent"][name].append(old)
            values["change"][name].append(new)
            if (new > old) if better == "higher" else (new < old):
                wins[name] += 1
            cells.append(f"{name} {old:.4g} -> {new:.4g}")
        flags = "" if all(r["correct"] for r in results.values()) \
            else "  NOT CORRECT"
        print(f"seed {seed} ({order[0]} first): {'; '.join(cells)}{flags}",
              flush=True)

    pairs = len(values["parent"][metrics[0][0]])
    print(f"\n{args.workload}: {pairs} pairs, --seconds {args.seconds:g}")
    for name, better in metrics:
        if not pairs:
            break
        p1, pm, p3 = quartiles(values["parent"][name])
        c1, cm, c3 = quartiles(values["change"][name])
        ratio = cm / pm if pm else float("nan")
        print(f"  {name} ({better} is better): parent {pm:.4g} "
              f"(q1 {p1:.4g}, q3 {p3:.4g}, IQR {p3 - p1:.4g}) -> change "
              f"{cm:.4g} (q1 {c1:.4g}, q3 {c3:.4g}); x{ratio:.3f}; "
              f"change better in {wins[name]}/{pairs}")
    print(f"every run correct: {'yes' if all_correct else 'NO'}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
