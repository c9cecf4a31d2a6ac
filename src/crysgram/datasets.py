"""Dataset ingestion, validation, splitting, and synthetic corpus generation.

One canonical column schema, ``COLUMNS``, decouples the toolkit from
upstream dataset formats: id, formula, spacegroup, the informatics
columns of ``tokens.vocab.INFO_SCHEMA``, the six lattice parameters,
target and target_unit. The same field names apply to the record-lines
(JSONL) format. Unknown columns are ignored with a warning.
"""

import csv
import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetError
from .files import atomic_write
from .grammar import (
    CrystalSystem,
    FormulaComposition,
    crystal_system_of,
    parse_formula,
)
from .objectives import LATTICE_FIELDS, LatticeParameters
from .tokens.vocab import COUNT, INFO_SCHEMA, TEXT, InformaticsFields

COLUMNS = ("id", "formula", "spacegroup",
           *(spec.column for spec in INFO_SCHEMA.values()),
           *LATTICE_FIELDS, "target", "target_unit")
_COLUMN_SET = frozenset(COLUMNS)


def _integer(raw):
    """An integer cell: an int that is not a bool, a float with no
    fractional part (as JSON writers emit 8.0), or text of ASCII digits.
    Anything else, such as 14.7, true or "14.0", is refused, not
    truncated."""
    text = raw.strip() if isinstance(raw, str) else ""
    if (isinstance(raw, int) and not isinstance(raw, bool)
            or isinstance(raw, float) and raw.is_integer()
            or text.isascii() and text.isdigit()):
        return int(raw)
    raise ValueError(f"{raw!r} is not an integer")


def _real(raw):
    """A real cell, never a bool: NaN, infinities and text that overflows
    to infinity (1e400) are refused."""
    value = float(raw)
    if isinstance(raw, bool) or not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite real number")
    return value


_READ = {TEXT: str, COUNT: _integer}  # any other kind is a real


@dataclass
class CrystalRecord:
    """One dataset row: formula + space group + optional extras."""

    id: str
    formula: str
    spacegroup: int
    informatics: InformaticsFields = field(default_factory=InformaticsFields)
    lattice: LatticeParameters = None
    target: float = None
    target_unit: str = ""
    # parsed ``formula``; kept in step with it by __setattr__
    composition: FormulaComposition = field(init=False, repr=False,
                                            compare=False)

    def __setattr__(self, name, value):
        if name == "formula":
            # raises on malformed formulas, leaving the record unchanged
            object.__setattr__(self, "composition", parse_formula(value))
        object.__setattr__(self, name, value)

    def __post_init__(self):
        if (not isinstance(self.spacegroup, int)
                or isinstance(self.spacegroup, bool)
                or not 1 <= self.spacegroup <= 230):
            raise DatasetError(
                f"record {self.id!r}: space group {self.spacegroup!r} is "
                f"not an integer in 1..230")

    def validation_warnings(self, rtol=1e-3, atol_deg=0.1):
        """Non-fatal diagnostics: lattice vs crystal-system constraints.

        Real datasets carry off-site relaxation, so mismatches warn
        rather than reject.
        """
        if self.lattice is None:
            return []
        system = crystal_system_of(self.spacegroup)
        problems = self.lattice.constraint_violations(system, rtol, atol_deg)
        return [f"record {self.id!r} ({system.value}): {p}" for p in problems]


def _parse_optional(row, key, kind=_real):
    """``row[key]`` read as ``kind``; None when the cell is missing, null
    or whitespace only, which is how every optional column reads blank."""
    raw = row.get(key)
    # str() of a JSON value that is not text is never blank
    if raw is None or isinstance(raw, str) and not raw.strip():
        return None
    try:
        return kind(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"{key}: {exc}") from None


def _record_from_mapping(row, lineno, unknown):
    """The record of one row. ``unknown`` lists the row's columns outside
    ``COLUMNS``, sorted; they are ignored with a warning."""
    if unknown:
        warnings.warn(f"ignoring unknown columns {unknown}", stacklevel=3)
    try:
        spacegroup = _parse_optional(row, "spacegroup", _integer)
        # the record type checks each value, its message led by the column
        info = InformaticsFields(**{
            name: _parse_optional(row, spec.column,
                                  _READ.get(spec.kind, _real))
            for name, spec in INFO_SCHEMA.items()})
        cell = [_parse_optional(row, c) for c in LATTICE_FIELDS]
        if any(v is not None for v in cell):
            if any(v is None for v in cell):
                missing = [c for c, v in zip(LATTICE_FIELDS, cell)
                           if v is None]
                raise DatasetError(f"incomplete lattice: missing {missing}")
            lattice = LatticeParameters(*cell)
        else:
            lattice = None
        record = CrystalRecord(
            id=_parse_optional(row, "id", str) or f"row{lineno}",
            formula=str(row.get("formula", "")),
            spacegroup=spacegroup,
            informatics=info,
            lattice=lattice,
            target=_parse_optional(row, "target"),
            target_unit=_parse_optional(row, "target_unit", str) or "",
        )
    except DatasetError:
        raise
    except Exception as exc:
        raise DatasetError(str(exc)) from exc
    return record


def load_dataset(path):
    """Read records from a delimited table or record-lines file.

    The suffix picks the reader: ``.csv`` or ``.tsv`` for a table,
    ``.jsonl`` or ``.ndjson`` for record lines. Every row is validated;
    any malformed row rejects the whole load and the error names the
    offending line numbers. Constraint mismatches between lattice and
    space group are warnings, not rejections.
    """
    path = str(path)
    records, failures = [], []
    if path.endswith((".csv", ".tsv")):
        delimiter = "\t" if path.endswith(".tsv") else ","
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            header = next((row for row in reader if row), None)
            if header is None:
                raise DatasetError(f"{path}: missing header row")
            unknown = sorted(set(header) - _COLUMN_SET)
            for values in reader:
                if not values:
                    continue
                lineno = reader.line_num  # physical, as for record lines
                if len(values) != len(header):
                    failures.append(f"line {lineno}: {len(values)} values "
                                    f"for {len(header)} header columns")
                    continue
                try:
                    records.append(_record_from_mapping(
                        dict(zip(header, values)), lineno, unknown))
                except Exception as exc:
                    failures.append(f"line {lineno}: {exc}")
    elif path.endswith((".jsonl", ".ndjson")):
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                    # items() refuses a line that is not an object
                    unknown = sorted(k for k, _ in row.items()
                                     if k not in _COLUMN_SET)
                    records.append(_record_from_mapping(row, lineno, unknown))
                except Exception as exc:
                    failures.append(f"line {lineno}: {exc}")
    else:
        raise DatasetError(f"{path}: unknown dataset suffix; expected .csv, "
                           ".tsv, .jsonl or .ndjson")

    if failures:
        preview = "; ".join(failures[:5])
        more = f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""
        raise DatasetError(f"{path}: {len(failures)} invalid rows: "
                           f"{preview}{more}")
    for record in records:
        for message in record.validation_warnings():
            warnings.warn(message, stacklevel=2)
    return records


def record_to_mapping(record):
    row = {"id": record.id, "formula": record.formula,
           "spacegroup": record.spacegroup}
    info = record.informatics
    for name, spec in INFO_SCHEMA.items():
        value = getattr(info, name)
        if value is not None:
            row[spec.column] = value
    if record.lattice is not None:
        for name in LATTICE_FIELDS:
            row[name] = getattr(record.lattice, name)
    if record.target is not None:
        row["target"] = record.target
        if record.target_unit:
            row["target_unit"] = record.target_unit
    return row


def write_dataset(records, path, fmt=None):
    path = str(path)
    if fmt is None:
        fmt = "record-lines" if path.endswith((".jsonl", ".ndjson")) \
            else "delimited-table"
    if fmt == "record-lines":
        with atomic_write(path) as fh:
            for record in records:
                fh.write(json.dumps(record_to_mapping(record),
                                    sort_keys=True) + "\n")
        return
    delimiter = "\t" if path.endswith(".tsv") else ","
    with atomic_write(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=COLUMNS, delimiter=delimiter)
        writer.writeheader()
        for record in records:
            writer.writerow(record_to_mapping(record))


def dataset_checksum(records):
    """Order-sensitive SHA-256 over the canonical record serialization."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(record_to_mapping(record),
                                 sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


# -- splitting ------------------------------------------------------------------


@dataclass(frozen=True)
class SplitSpec:
    """kfold(k) or ratio(train, val?, test) splitting, seeded."""

    kind: str
    k: int = 5
    fractions: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if self.kind == "kfold":
            if self.k < 2:
                raise DatasetError(f"k-fold needs k >= 2, got {self.k}")
        elif self.kind == "ratio":
            if len(self.fractions) not in (2, 3):
                raise DatasetError("ratio split needs 2 or 3 fractions")
            if abs(sum(self.fractions) - 1.0) > 1e-9:
                raise DatasetError(
                    f"ratio fractions must sum to 1, got {self.fractions}")
            if any(f <= 0 for f in self.fractions):
                raise DatasetError("ratio fractions must be positive")
        else:
            raise DatasetError(f"unknown split kind {self.kind!r}")

    @classmethod
    def parse(cls, text, seed=0):
        """Parse CLI-style specs: 'kfold5', 'ratio:0.7,0.15,0.15'."""
        text = text.strip().lower()
        if text.startswith("kfold"):
            return cls(kind="kfold", k=int(text[len("kfold"):] or 5), seed=seed)
        if text.startswith("ratio:"):
            fractions = tuple(float(v) for v in text[len("ratio:"):].split(","))
            return cls(kind="ratio", fractions=fractions, seed=seed)
        raise DatasetError(f"cannot parse split spec {text!r}")


@dataclass
class RatioSplit:
    train: list
    val: list
    test: list


@dataclass
class KFoldSplit:
    folds: list  # list of (train_records, test_records)

    @property
    def k(self):
        return len(self.folds)


def split(records, spec):
    """Seeded disjoint cover of the records per the spec."""
    records = list(records)
    n = len(records)
    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    order = rng.permutation(n)

    if spec.kind == "kfold":
        if spec.k > n:
            raise DatasetError(f"k={spec.k} folds but only {n} records")
        folds = []
        fold_indices = [order[i::spec.k] for i in range(spec.k)]
        for i in range(spec.k):
            test_idx = set(fold_indices[i].tolist())
            test = [records[j] for j in fold_indices[i]]
            train = [records[j] for j in order if j not in test_idx]
            folds.append((train, test))
        return KFoldSplit(folds)

    fractions = spec.fractions
    if n < len(fractions):
        raise DatasetError(f"{n} records cannot fill {len(fractions)} parts")
    cut1 = round(n * fractions[0])
    if len(fractions) == 2:
        train_idx, test_idx = order[:cut1], order[cut1:]
        val_idx = np.array([], dtype=int)
    else:
        cut2 = round(n * (fractions[0] + fractions[1]))
        train_idx, val_idx, test_idx = (order[:cut1], order[cut1:cut2],
                                        order[cut2:])
    return RatioSplit(train=[records[i] for i in train_idx],
                      val=[records[i] for i in val_idx],
                      test=[records[i] for i in test_idx])


# -- synthetic corpora ------------------------------------------------------------


_ELEMENT_POOL = ("H", "Li", "B", "C", "N", "O", "F", "Na", "Mg", "Al", "Si",
                 "P", "S", "Cl", "K", "Ca", "Ti", "V", "Cr", "Mn", "Fe", "Co",
                 "Ni", "Cu", "Zn", "Ga", "Ge", "As", "Se", "Br", "Rb", "Sr",
                 "Y", "Zr", "Nb", "Mo", "Ag", "Cd", "In", "Sn", "Sb", "Te",
                 "I", "Cs", "Ba", "La", "W", "Pt", "Au", "Pb")

REGRESSION_TARGET_UNIT = "arb"


def _shannon_entropy(fractions):
    return -sum(f * math.log(f) for f in fractions if f > 0)


def _draw_lattice(system, rng, scale):
    """Lattice parameters satisfying the system's constraints exactly.

    Free lengths sit near ``scale`` angstroms with mild lognormal spread;
    free angles draw from documented plausible ranges.
    """
    def length():
        return float(scale * np.exp(rng.normal(0.0, 0.10)))

    a = length()
    if system is CrystalSystem.CUBIC:
        return LatticeParameters(a, a, a, 90.0, 90.0, 90.0)
    if system is CrystalSystem.TETRAGONAL:
        c = a * float(rng.uniform(0.55, 1.9))
        return LatticeParameters(a, a, c, 90.0, 90.0, 90.0)
    if system in (CrystalSystem.TRIGONAL, CrystalSystem.HEXAGONAL):
        c = a * float(rng.uniform(0.55, 1.9))
        return LatticeParameters(a, a, c, 90.0, 90.0, 120.0)
    if system is CrystalSystem.ORTHORHOMBIC:
        return LatticeParameters(a, length(), length(), 90.0, 90.0, 90.0)
    if system is CrystalSystem.MONOCLINIC:
        beta = float(rng.uniform(95.0, 130.0))
        return LatticeParameters(a, length(), length(), 90.0, beta, 90.0)
    angles = [float(rng.uniform(72.0, 108.0)) for _ in range(3)]
    return LatticeParameters(a, length(), length(), *angles)


def generate_synthetic_corpus(n, seed=0, task="lpp"):
    """Deterministic desk-scale corpora for pretraining and finetuning tests.

    lpp: space groups uniform over 1..230; lattice parameters satisfy the
    system constraints exactly, with the length scale tied to the mean
    atomic number of the composition.

    regression: target = crystal_system_index + 2 * H(fractions) + u where
    H is the Shannon entropy of the element fractions and u is seeded
    uniform noise bounded by 1% of the theoretical target range.
    """
    if n < 1:
        raise DatasetError(f"corpus size must be >= 1, got {n}")
    if task not in ("lpp", "regression"):
        raise DatasetError(f"unknown synthetic task {task!r}")
    from .grammar import ATOMIC_NUMBER

    rng = np.random.default_rng(np.random.PCG64(seed))
    records = []
    target_range = 6.0 + 2.0 * math.log(20.0)
    for i in range(n):
        sg = int(rng.integers(1, 231))
        n_elements = int(rng.integers(1, 5))
        symbols = list(rng.choice(_ELEMENT_POOL, size=n_elements,
                                  replace=False))
        counts = rng.integers(1, 5, size=n_elements)
        formula = "".join(
            s if c == 1 else f"{s}{int(c)}"
            for s, c in zip(symbols, counts))
        # built first so the formula is parsed once, by the record
        record = CrystalRecord(id=f"syn-{task}-{seed}-{i:05d}",
                               formula=formula, spacegroup=sg)
        comp = record.composition
        system = crystal_system_of(sg)

        mean_z = sum(ATOMIC_NUMBER[s] * f for s, f in comp.items())
        scale = 3.0 + 0.06 * mean_z
        record.lattice = _draw_lattice(system, rng, scale)

        if task == "regression":
            noise = float(rng.uniform(-0.01, 0.01)) * target_range
            record.target = (system.index
                             + 2.0 * _shannon_entropy(comp.fractions) + noise)
            record.target_unit = REGRESSION_TARGET_UNIT
        records.append(record)
    return records


def kb_corpus(formula="Si"):
    """The deterministic 230-record corpus: one record per space group."""
    return [CrystalRecord(id=f"kb-{number:03d}", formula=formula,
                          spacegroup=number)
            for number in range(1, 231)]

