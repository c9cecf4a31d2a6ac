r"""Check that a change leaves every CLI artifact byte-identical:
``python3 tools/samebytes.py --parent ../parent-checkout``.

Each checkout writes the same seeded synthetic data with its own ``src``,
then runs pretrain (mlm, lpp, mlm+lpp; float32 and float64; weight decay),
finetune from mlm+lpp with early stopping, predict and both exports.
Every file and standard output must be equal; manifests are compared
without their wall time and git commit. Exits 1 on any difference.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
DATA = ("from crysgram.datasets import generate_synthetic_corpus as g, "
        "write_dataset as w; w(g(160, seed=5, task='lpp'), 'lpp.csv'); "
        "w(g(128, seed=21, task='regression'), 'reg.csv')")
TRAIN = ("--epochs", "3", "--seed", "3", "--weight-decay", "0.01")
READERS = (("predict",), ("export", "cls-embeddings"), ("export", "attention"))


def commands():
    for dtype in ("float32", "float64"):
        for objective in ("mlm", "lpp", "mlm+lpp"):
            yield ["pretrain", "--data", "lpp.csv", "--objective", objective,
                   "--dtype", dtype, "--out", f"{objective}-{dtype}", *TRAIN]
        ft = f"ft-{dtype}"
        yield ["finetune", "--data", "reg.csv", "--out", ft, "--checkpoint",
               f"mlm+lpp-{dtype}/checkpoint.ckpt", "--patience", "2", *TRAIN]
        for reader in READERS:
            yield [*reader, "--checkpoint", f"{ft}/checkpoint.ckpt", "--data",
                   "reg.csv", "--out", f"{ft}/{reader[-1]}.out"]


def content(path):
    if not path.is_file() or path.name != "manifest.json":
        return path.is_file() and path.read_bytes()
    manifest = json.loads(path.read_text())
    del manifest["wall_clock_seconds"], manifest["environment"]["git_sha"]
    return manifest


def run_all(checkout, work):
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    work.mkdir()
    subprocess.run([sys.executable, "-c", DATA], cwd=work, env=env, check=True)
    for n, command in enumerate(commands()):
        done = subprocess.run([sys.executable, "-m", "crysgram.cli", *command],
                              cwd=work, env=env, capture_output=True)
        if done.returncode:
            sys.exit(f"{done.stderr.decode()}{checkout}: {command} failed")
        (work / f"stdout-{n}.txt").write_bytes(done.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help="checkout of the commit to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp, "ours"), Path(tmp, "parent")
        run_all(args.parent, theirs)
        run_all(HERE, ours)
        files = sorted({p.relative_to(root) for root in (ours, theirs)
                        for p in root.rglob("*") if p.is_file()})
        differ = [f for f in files if content(ours / f) != content(theirs / f)]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(files) - len(differ)} of {len(files)} artifacts identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
