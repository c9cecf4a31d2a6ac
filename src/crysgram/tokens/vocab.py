"""Token vocabulary: reserved ids, per-category dense id ranges, the
informatics schema and numeric binning, and bit-exact text serialization."""

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import VocabularyError
from ..files import atomic_write
from ..grammar import EMPTY_SLOT, SYMBOLS, all_space_groups

CLS, MASK, PAD, EMPTY, UNK = "[CLS]", "[MASK]", "[PAD]", "[EMPTY]", "[UNK]"
RESERVED = (CLS, MASK, PAD, EMPTY, UNK)
CLS_ID, MASK_ID, PAD_ID, EMPTY_ID, UNK_ID = range(5)

SPECIAL = "special"

# categories of the 12 space-group positions, in table order
SG_CATEGORIES = (
    "full_symbol", "number", "order", "point_group", "crystal_system",
    "laue_class", "symmetry", "polarity", "centering",
    "directional", "directional", "directional",
)

# kinds of informatics value: each has one validity rule and one token rule
TEXT, VOLUME, COUNT, PERCENT = "text", "volume", "count", "percent"


class InfoSpec(NamedTuple):
    column: str  # dataset column, and the ``tokenize --<column>`` flag
    kind: str  # TEXT, VOLUME, COUNT or PERCENT
    prefix: str = None  # bin-token prefix of a VOLUME or PERCENT field


def _info(column, kind, prefix=None):
    return dataclasses.field(
        default=None, metadata={"spec": InfoSpec(column, kind, prefix)})


@dataclass(frozen=True)
class InformaticsFields:
    """Optional per-record informatics values (hMOF/HOIP style). Each
    attribute declares its ``INFO_SCHEMA`` entry, in layout order."""

    topology: str = _info("topology", TEXT)
    unit_cell_volume: float = _info("volume", VOLUME, "vol")
    atom_count: int = _info("natoms", COUNT)
    porosity_fraction: float = _info("porosity", PERCENT, "por")
    accessible_void_fraction: float = _info("acc_porosity", PERCENT, "acc")
    organic_cation: str = _info("organic_cation", TEXT)

    def __post_init__(self):
        for name in INFO_SCHEMA:
            if getattr(self, name) is not None:
                _check_informatics(name, getattr(self, name))

    def present_fields(self):
        return tuple(name for name in INFO_SCHEMA
                     if getattr(self, name) is not None)


# informatics field -> InfoSpec, in layout order
INFO_SCHEMA = {f.name: f.metadata["spec"]
               for f in dataclasses.fields(InformaticsFields)}

ELEMENT = "element"

CATEGORY_ORDER = (SPECIAL, *dict.fromkeys(SG_CATEGORIES), *INFO_SCHEMA,
                  ELEMENT)

N_VOLUME_BINS = 64


def _check_informatics(field, value):
    """The kind of ``field``; VocabularyError, led by the field's dataset
    column, unless ``value`` is text with no tab or line break
    (``vocab.txt`` is tab-separated lines), a finite volume > 0, an
    integer count >= 1 or a percentage in [0, 100]."""
    spec = INFO_SCHEMA.get(field)
    if spec is None:
        raise VocabularyError(f"unknown informatics field {field!r}")
    where = f"{spec.column}: "
    if spec.kind == TEXT:
        if (not isinstance(value, str) or "\t" in value
                or "".join(value.splitlines()) != value):
            raise VocabularyError(f"{where}{field} must be text with no tab "
                                  f"or line break: {value!r}")
        return TEXT
    if not np.isfinite(value):
        raise VocabularyError(f"{where}non-finite {field} value: {value!r}")
    if spec.kind == VOLUME and not value > 0:
        raise VocabularyError(f"{where}unit cell volume must be positive: "
                              f"{value}")
    if spec.kind == COUNT and (int(value) != value or value < 1):
        raise VocabularyError(f"{where}atom count must be a positive "
                              f"integer: {value}")
    if spec.kind == PERCENT and not 0.0 <= value <= 100.0:
        raise VocabularyError(f"{where}{field} must lie in [0, 100]: {value}")
    return spec.kind


def _bin_token(field, k):
    return f"{INFO_SCHEMA[field].prefix}_b{k:02d}"


@dataclass(frozen=True)
class InformaticsBinning:
    """Bin layout for numeric informatics fields.

    Volumes get log-spaced half-open bins [lo, hi) with the top bin
    closed; porosity percentages get uniform bins over [0, 100]; atom
    counts are direct integer tokens up to a cap plus one overflow bin.
    """

    volume_edges: tuple
    atom_count_max: int = 512
    porosity_bins: int = 20

    @classmethod
    def from_observations(cls, volumes=()):
        volumes = [v for v in volumes if v is not None and np.isfinite(v) and v > 0]
        lo = min(volumes) if volumes else 1.0
        hi = max(volumes) if volumes else 1e5
        if hi <= lo:
            hi = lo * 10.0
        edges = np.exp(np.linspace(math.log(lo), math.log(hi),
                                   N_VOLUME_BINS + 1))
        return cls(volume_edges=tuple(float(e) for e in edges))

    @property
    def n_volume_bins(self):
        return len(self.volume_edges) - 1

    def all_tokens(self, field):
        kind = INFO_SCHEMA[field].kind if field in INFO_SCHEMA else None
        if kind == COUNT:
            return ([str(n) for n in range(1, self.atom_count_max + 1)]
                    + [f">{self.atom_count_max}"])
        if kind not in (VOLUME, PERCENT):
            raise VocabularyError(f"{field!r} is not a binned field")
        n_bins = self.n_volume_bins if kind == VOLUME else self.porosity_bins
        return [_bin_token(field, k) for k in range(n_bins)]


def quantize_informatics(value, field, binning):
    """Deterministic token for one informatics value: the text itself for
    a text field, its bin token otherwise.

    Bins are half-open [lo, hi): a value on an interior edge lands in the
    upper bin; the top bin is closed so the maximum stays representable.
    """
    kind = _check_informatics(field, value)
    if kind == TEXT:
        return value
    if kind == VOLUME:
        edges = np.asarray(binning.volume_edges)
        k = int(np.searchsorted(edges, value, side="right")) - 1
        return _bin_token(field, min(max(k, 0), binning.n_volume_bins - 1))
    if kind == COUNT:
        n = int(value)
        return str(n) if n <= binning.atom_count_max else f">{binning.atom_count_max}"
    return _bin_token(field, min(int(value * binning.porosity_bins / 100.0),
                                 binning.porosity_bins - 1))


def _parsed(read, text, lineno, problem):
    """``read(text)``; VocabularyError naming the line and the
    ``problem`` when ``read`` refuses ``text``."""
    try:
        return read(text)
    except (ValueError, OverflowError):
        raise VocabularyError(f"line {lineno}: {problem}: {text!r}") from None


class TokenVocabulary:
    """Bidirectional (category, token) <-> dense id map."""

    def __init__(self, tokens_by_category, info_layout, binning):
        for field in info_layout:
            if field not in INFO_SCHEMA:
                raise VocabularyError(f"unknown informatics field {field!r}")
        unknown = sorted(set(tokens_by_category) - set(CATEGORY_ORDER))
        if unknown:
            raise VocabularyError(f"unknown token categories {unknown}")
        self.info_layout = tuple(info_layout)
        self.binning = binning
        self._by_id = [(SPECIAL, t) for t in RESERVED]
        for category in CATEGORY_ORDER:
            if category == SPECIAL:
                continue
            for token in tokens_by_category.get(category, ()):
                self._by_id.append((category, token))
        self._by_key = {key: i for i, key in enumerate(self._by_id)}
        if len(self._by_key) != len(self._by_id):
            raise VocabularyError("duplicate (category, token) pair")

    @property
    def size(self):
        return len(self._by_id)

    def __len__(self):
        return len(self._by_id)

    def __eq__(self, other):
        return (isinstance(other, TokenVocabulary)
                and self._by_id == other._by_id
                and self.info_layout == other.info_layout
                and self.binning == other.binning)

    def id_of(self, category, token):
        """Dense id; unseen tokens map to [UNK]."""
        return self._by_key.get((category, token), UNK_ID)

    def token_at(self, token_id):
        return self._by_id[token_id]

    # -- serialization ------------------------------------------------------

    def to_text(self):
        lines = ["# crysgram vocabulary format 1"]
        lines.append("!info_layout\t" + ",".join(self.info_layout))
        lines.append(f"!atom_count_max\t{self.binning.atom_count_max}")
        lines.append(f"!porosity_bins\t{self.binning.porosity_bins}")
        lines.append("!volume_edges\t" + ",".join(
            float(e).hex() for e in self.binning.volume_edges))
        for i, (category, token) in enumerate(self._by_id):
            lines.append(f"{i}\t{category}\t{token}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        layout, edges, settings = (), (), {}
        tokens_by_category = {}
        token_lines = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line or line.startswith("#"):
                continue
            if line.startswith("!"):
                key, _, value = line[1:].partition("\t")
                if key == "info_layout":
                    layout = tuple(v for v in value.split(",") if v)
                elif key in ("atom_count_max", "porosity_bins"):
                    settings[key] = _parsed(int, value, lineno,
                                            f"!{key} is not an integer")
                elif key == "volume_edges":
                    edges = tuple(_parsed(float.fromhex, v, lineno,
                                          "!volume_edges holds a non-hex "
                                          "float")
                                  for v in value.split(","))
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise VocabularyError(
                    f"line {lineno}: {len(fields)} tab-separated fields, "
                    f"expected 3 (id, category, token)")
            token_id, category, token = fields
            expected = len(token_lines)
            if _parsed(int, token_id, lineno,
                       "token id is not an integer") != expected:
                raise VocabularyError(
                    f"non-dense id {token_id} (expected {expected})")
            token_lines.append((lineno, category, token))
            if category == SPECIAL:
                if expected >= len(RESERVED) or token != RESERVED[expected]:
                    raise VocabularyError(f"reserved slot mismatch: {line!r}")
                continue
            tokens_by_category.setdefault(category, []).append(token)
        binning = InformaticsBinning(volume_edges=edges, **settings)
        vocab = cls(tokens_by_category, layout, binning)
        # ids follow category order: a block out of order moves them
        for token_id, (lineno, category, token) in enumerate(token_lines):
            if vocab.id_of(category, token) != token_id:
                raise VocabularyError(
                    f"line {lineno}: {category} token {token!r} has id "
                    f"{token_id}, but the category order gives it "
                    f"{vocab.id_of(category, token)}")
        return vocab

    def save(self, path):
        with atomic_write(path) as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            return cls.from_text(text)
        except VocabularyError as exc:
            raise VocabularyError(f"{path}: {exc}") from None


def build_vocabulary(datasets=(), info_layout=()):
    """Vocabulary covering the knowledge base plus observed dataset tokens.

    ``datasets`` is any iterable of records carrying an ``informatics``
    attribute (or InformaticsFields directly); it supplies topology and
    organic-cation strings and the observed volume range for binning.
    Deterministic given identical inputs.
    """
    by_category = {category: [] for category in CATEGORY_ORDER
                   if category != SPECIAL}
    seen = {category: set() for category in by_category}

    def add(category, token):
        if token not in seen[category]:
            seen[category].add(token)
            by_category[category].append(token)

    for record in all_space_groups():
        for category, token in zip(SG_CATEGORIES, record.token_strings()):
            if category == "directional" and token == EMPTY_SLOT:
                continue
            add(category, token)

    observed = {name: set() for name in INFO_SCHEMA}
    for item in datasets:
        info = getattr(item, "informatics", item)
        for name, values in observed.items():
            if getattr(info, name, None) is not None:
                values.add(getattr(info, name))
    binning = InformaticsBinning.from_observations(
        observed["unit_cell_volume"])

    for name, spec in INFO_SCHEMA.items():
        tokens = (sorted(observed[name]) if spec.kind == TEXT
                  else binning.all_tokens(name))
        for token in tokens:
            add(name, token)
    for symbol in SYMBOLS:
        add(ELEMENT, symbol)

    return TokenVocabulary(by_category, info_layout, binning)
