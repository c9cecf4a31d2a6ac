r"""Check that a change leaves every CLI artifact byte-identical:
``python3 tools/samebytes.py --parent ../parent-checkout``.

Each checkout writes the same seeded synthetic data with its own ``src``,
then runs pretrain (mlm, lpp, mlm+lpp; float32 and float64; weight decay),
finetune from mlm+lpp with early stopping, predict and both exports
(attention once for the first record and every layer, once for a later
record and the last layer). Predict and the cls-embeddings export also
run on TSV and JSONL copies of the finetuning data, so that every
dataset reader is compared.
It also writes seeded structures with ``save_structure`` (a framework-like
cell, a triclinic cell, a cell whose stamps wrap the grid twice, a
hexagonal cell and a rotated cube with no zero lattice entry, so that
every zero pattern of the clearance-field sums is covered) and runs
``porosity --format json`` on each at two grid densities, with and
without flood fill, and once with a radius override file; a 300-atom
framework-like cell runs once at 5 points per angstrom, where the
clearance field is stamped in many chunks of mixed box shapes. It prints
one crystal's token sequence with a value for every informatics flag
(``tokenize``, in text and json), whose ids, labels and attention mask
must not move, and another read through the vocabulary that a pretrain
run wrote (``tokenize --vocab``), so that labels read from a loaded
vocabulary are compared too; and, in text and json, ``parse-formula``
on four nested or decimal formulas and ``lookup`` on space groups of
every crystal system and of every centering letter the table uses (P,
A, C, I, R, F).
Last it runs every script in the checkout's ``demos/``, whose standard
output is saved as ``demo-<name>.txt``.
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
        "r = g(128, seed=21, task='regression'); w(r, 'reg.csv'); "
        "w(r, 'reg.tsv', fmt='delimited-table'); "
        "w(r, 'reg.jsonl', fmt='record-lines')")
STRUCTURES = r"""
import numpy as np
from crysgram.porosity import PeriodicStructure, save_structure

rng = np.random.default_rng(12)
elements = ["C", "H", "O", "N", "Zn"]


def sites(n):
    return [(elements[i % 5], rng.random(3)) for i in range(n)]


save_structure(PeriodicStructure(np.eye(3) * 14.0, sites(120)),
               "framework.json")
save_structure(PeriodicStructure([[9.0, 0.0, 0.0], [-1.7, 9.8, 0.0],
                                  [1.9, -3.5, 10.2]], sites(30)),
               "triclinic.json")
save_structure(PeriodicStructure([[4.0, 0.0, 0.0], [8.2, 1.8, 0.0],
                                  [0.0, 0.0, 4.0]], [("X", [0.2, 0.3, 0.4])],
                                 radius_overrides={"X": 2.6}), "wraps.json")
save_structure(PeriodicStructure([[16.0, 0.0, 0.0],
                                  [-8.0, 8.0 * np.sqrt(3.0), 0.0],
                                  [0.0, 0.0, 12.0]], sites(60)),
               "hexagonal.json")
c, s = np.cos(0.5), np.sin(0.5)
turn = (np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        @ np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        @ np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]))
assert (turn != 0.0).all()
save_structure(PeriodicStructure(12.0 * turn.T, sites(60)), "rotated.json")
save_structure(PeriodicStructure(np.eye(3) * 22.0, sites(300)),
               "framework300.json")
with open("radii.txt", "w", encoding="utf-8") as fh:
    fh.write("C 1.9\nH 1.0\nO 1.6\nN 1.7\nZn 1.2\n")
"""
TRAIN = ("--epochs", "3", "--seed", "3", "--weight-decay", "0.01")
TOKENIZE = ("tokenize", "--spacegroup", "1", "--formula", "C6H6CuN2O4",
            "--topology", "pcu", "--volume", "4823.5", "--natoms", "112",
            "--porosity", "61.2", "--acc-porosity", "44.0",
            "--organic-cation", "CH3NH3")
TOKENIZE_VOCAB = ("tokenize", "--vocab", "mlm-float32/vocab.txt",
                  "--spacegroup", "14", "--formula", "Fe2O3")
FORMULAS = ("K(Al(OH)2)3", "Ba2(Ca(Nb0.333Ta0.667)O3)1.5",
            "Li0.33Fe0.5Mn0.17PO4", "(NH4)2SO4")
LOOKUPS = ("1", "2", "5", "14", "38", "62", "88", "146", "166", "194",
           "225", "227", "230")
READERS = {"predict": ("predict",),
           "cls-embeddings": ("export", "cls-embeddings"),
           "attention": ("export", "attention"),
           "attention-record-4": ("export", "attention", "--record-id",
                                  "syn-regression-21-00004", "--layer", "-1")}


def commands():
    for dtype in ("float32", "float64"):
        for objective in ("mlm", "lpp", "mlm+lpp"):
            yield ["pretrain", "--data", "lpp.csv", "--objective", objective,
                   "--dtype", dtype, "--out", f"{objective}-{dtype}", *TRAIN]
        ft = f"ft-{dtype}"
        yield ["finetune", "--data", "reg.csv", "--out", ft, "--checkpoint",
               f"mlm+lpp-{dtype}/checkpoint.ckpt", "--patience", "2", *TRAIN]
        for name, reader in READERS.items():
            yield [*reader, "--checkpoint", f"{ft}/checkpoint.ckpt", "--data",
                   "reg.csv", "--out", f"{ft}/{name}.out"]
        for suffix in ("tsv", "jsonl"):
            for name in ("predict", "cls-embeddings"):
                yield [*READERS[name], "--checkpoint",
                       f"{ft}/checkpoint.ckpt", "--data", f"reg.{suffix}",
                       "--out", f"{ft}/{name}-{suffix}.out"]
    for structure in ("framework", "triclinic", "wraps", "hexagonal",
                      "rotated"):
        for rho in ("2", "3.5"):
            for flood in ((), ("--no-floodfill",)):
                yield ["porosity", f"{structure}.json", "--format", "json",
                       "--rho-grid", rho, *flood]
    yield ["porosity", "framework.json", "--format", "json", "--radii",
           "radii.txt"]
    yield ["porosity", "framework300.json", "--format", "json", "--rho-grid",
           "5"]
    for fmt in ("text", "json"):
        yield [*TOKENIZE, "--format", fmt]
        yield [*TOKENIZE_VOCAB, "--format", fmt]
        for formula in FORMULAS:
            yield ["parse-formula", formula, "--format", fmt]
        for number in LOOKUPS:
            yield ["lookup", number, "--format", fmt]


def content(path):
    if not path.is_file() or path.name != "manifest.json":
        return path.is_file() and path.read_bytes()
    manifest = json.loads(path.read_text())
    del manifest["wall_clock_seconds"], manifest["environment"]["git_sha"]
    return manifest


def run_all(checkout, work):
    checkout = Path(checkout).resolve()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    work.mkdir()
    for script in (DATA, STRUCTURES):
        subprocess.run([sys.executable, "-c", script], cwd=work, env=env,
                       check=True)

    def run(argv, stdout_name):
        done = subprocess.run([sys.executable, *argv], cwd=work, env=env,
                              capture_output=True)
        if done.returncode:
            sys.exit(f"{done.stderr.decode()}{checkout}: {argv} failed")
        (work / stdout_name).write_bytes(done.stdout)

    for n, command in enumerate(commands()):
        run(["-m", "crysgram.cli", *command], f"stdout-{n}.txt")
    for demo in sorted((checkout / "demos").glob("*.py")):
        run([str(demo)], f"demo-{demo.stem}.txt")


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
