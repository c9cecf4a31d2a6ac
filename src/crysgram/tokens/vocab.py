"""Token vocabulary: reserved ids, per-category dense id ranges, numeric
binning for informatics fields, and bit-exact text serialization."""

import math
from dataclasses import dataclass

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

INFO_FIELDS = ("topology", "unit_cell_volume", "atom_count",
               "porosity_fraction", "accessible_void_fraction",
               "organic_cation")

ELEMENT = "element"

CATEGORY_ORDER = (SPECIAL, "full_symbol", "number", "order", "point_group",
                  "crystal_system", "laue_class", "symmetry", "polarity",
                  "centering", "directional", *INFO_FIELDS, ELEMENT)


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
    def from_observations(cls, volumes=(), n_volume_bins=64,
                          atom_count_max=512, porosity_bins=20):
        volumes = [v for v in volumes if v is not None and np.isfinite(v) and v > 0]
        lo = min(volumes) if volumes else 1.0
        hi = max(volumes) if volumes else 1e5
        if hi <= lo:
            hi = lo * 10.0
        edges = np.exp(np.linspace(math.log(lo), math.log(hi),
                                   n_volume_bins + 1))
        return cls(volume_edges=tuple(float(e) for e in edges),
                   atom_count_max=atom_count_max, porosity_bins=porosity_bins)

    @property
    def n_volume_bins(self):
        return len(self.volume_edges) - 1

    def all_tokens(self, field):
        if field == "unit_cell_volume":
            return [f"vol_b{k:02d}" for k in range(self.n_volume_bins)]
        if field == "atom_count":
            return ([str(n) for n in range(1, self.atom_count_max + 1)]
                    + [f">{self.atom_count_max}"])
        if field == "porosity_fraction":
            return [f"por_b{k:02d}" for k in range(self.porosity_bins)]
        if field == "accessible_void_fraction":
            return [f"acc_b{k:02d}" for k in range(self.porosity_bins)]
        raise VocabularyError(f"{field!r} is not a binned field")


def quantize_informatics(value, field, binning):
    """Deterministic bin token for one numeric informatics value.

    Bins are half-open [lo, hi): a value on an interior edge lands in the
    upper bin; the top bin is closed so the maximum stays representable.
    """
    if not np.isfinite(value):
        raise VocabularyError(f"non-finite {field} value: {value!r}")
    if field == "unit_cell_volume":
        if value <= 0:
            raise VocabularyError(f"unit cell volume must be positive: {value}")
        edges = np.asarray(binning.volume_edges)
        k = int(np.searchsorted(edges, value, side="right")) - 1
        k = min(max(k, 0), binning.n_volume_bins - 1)
        return f"vol_b{k:02d}"
    if field == "atom_count":
        n = int(value)
        if n != value or n < 1:
            raise VocabularyError(f"atom count must be a positive integer: {value}")
        return str(n) if n <= binning.atom_count_max else f">{binning.atom_count_max}"
    if field in ("porosity_fraction", "accessible_void_fraction"):
        if not 0.0 <= value <= 100.0:
            raise VocabularyError(f"{field} must lie in [0, 100]: {value}")
        k = min(int(value * binning.porosity_bins / 100.0),
                binning.porosity_bins - 1)
        prefix = "por" if field == "porosity_fraction" else "acc"
        return f"{prefix}_b{k:02d}"
    raise VocabularyError(f"{field!r} is not a binned field")


class TokenVocabulary:
    """Bidirectional (category, token) <-> dense id map."""

    def __init__(self, tokens_by_category, info_layout, binning):
        for field in info_layout:
            if field not in INFO_FIELDS:
                raise VocabularyError(f"unknown informatics field {field!r}")
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
        ranges = {}
        for i, (category, _) in enumerate(self._by_id):
            if category not in ranges:
                ranges[category] = [i, i + 1]
            else:
                ranges[category][1] = i + 1
        self.category_ranges = {c: tuple(v) for c, v in ranges.items()}

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
        layout, edges = (), ()
        atom_count_max, porosity_bins = 512, 20
        tokens_by_category = {}
        expected = 0
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            if line.startswith("!"):
                key, _, value = line[1:].partition("\t")
                if key == "info_layout":
                    layout = tuple(v for v in value.split(",") if v)
                elif key == "atom_count_max":
                    atom_count_max = int(value)
                elif key == "porosity_bins":
                    porosity_bins = int(value)
                elif key == "volume_edges":
                    edges = tuple(float.fromhex(v) for v in value.split(","))
                continue
            token_id, category, token = line.split("\t")
            if int(token_id) != expected:
                raise VocabularyError(
                    f"non-dense id {token_id} (expected {expected})")
            expected += 1
            if category == SPECIAL:
                if token != RESERVED[int(token_id)]:
                    raise VocabularyError(f"reserved slot mismatch: {line!r}")
                continue
            tokens_by_category.setdefault(category, []).append(token)
        binning = InformaticsBinning(volume_edges=edges,
                                     atom_count_max=atom_count_max,
                                     porosity_bins=porosity_bins)
        return cls(tokens_by_category, layout, binning)

    def save(self, path):
        with atomic_write(path) as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_text(fh.read())


def build_vocabulary(kb_records=None, datasets=(), info_layout=(),
                     binning=None):
    """Vocabulary covering the knowledge base plus observed dataset tokens.

    ``datasets`` is any iterable of records carrying an ``informatics``
    attribute (or InformaticsFields directly); it supplies topology and
    organic-cation strings and the observed volume range for binning.
    Deterministic given identical inputs.
    """
    kb_records = list(kb_records) if kb_records is not None else all_space_groups()

    by_category = {category: [] for category in CATEGORY_ORDER
                   if category != SPECIAL}
    seen = {category: set() for category in by_category}

    def add(category, token):
        if token not in seen[category]:
            seen[category].add(token)
            by_category[category].append(token)

    for record in kb_records:
        for category, token in zip(SG_CATEGORIES, record.token_strings()):
            if category == "directional" and token == EMPTY_SLOT:
                continue
            add(category, token)

    topologies, cations, volumes = set(), set(), []
    for item in datasets:
        info = getattr(item, "informatics", item)
        if info is None:
            continue
        if getattr(info, "topology", None) is not None:
            topologies.add(info.topology)
        if getattr(info, "organic_cation", None) is not None:
            cations.add(info.organic_cation)
        if getattr(info, "unit_cell_volume", None) is not None:
            volumes.append(info.unit_cell_volume)
    if binning is None:
        binning = InformaticsBinning.from_observations(volumes)

    for topology in sorted(topologies):
        add("topology", topology)
    for cation in sorted(cations):
        add("organic_cation", cation)
    for field in ("unit_cell_volume", "atom_count", "porosity_fraction",
                  "accessible_void_fraction"):
        for token in binning.all_tokens(field):
            add(field, token)
    for symbol in SYMBOLS:
        add(ELEMENT, symbol)

    return TokenVocabulary(by_category, info_layout, binning)
