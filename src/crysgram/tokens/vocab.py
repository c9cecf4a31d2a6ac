"""Token vocabulary: reserved ids, per-category dense id ranges, the
informatics schema and numeric binning, and bit-exact text serialization."""

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import VocabularyError
from ..files import atomic_write
from ..grammar import (EMPTY_SLOT, SYMBOLS, all_space_groups,
                       lookup_space_group)

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
ATOM_COUNT_MAX = 512  # counts above it share the overflow token
POROSITY_BINS = 20


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

    Volumes get N_VOLUME_BINS log-spaced half-open bins [lo, hi) between
    ``volume_edges``, with the top bin closed; porosity percentages get
    POROSITY_BINS uniform bins over [0, 100]; atom counts are direct
    integer tokens up to ATOM_COUNT_MAX plus one overflow bin.
    """

    volume_edges: tuple

    def __post_init__(self):
        edges = np.asarray(self.volume_edges, dtype=np.float64)
        if not (edges.shape == (N_VOLUME_BINS + 1,)
                and np.isfinite(edges).all()
                and (np.diff(edges, prepend=0.0) > 0).all()):
            raise VocabularyError(
                f"volume edges must be {N_VOLUME_BINS + 1} finite, positive, "
                "strictly increasing numbers")

    @classmethod
    def from_observations(cls, volumes=()):
        volumes = [v for v in volumes if v is not None and np.isfinite(v) and v > 0]
        lo = min(volumes) if volumes else 1.0
        hi = max(volumes) if volumes else 1e5
        if hi <= lo * (1.0 + 1e-9):  # too narrow for distinct edges
            hi = lo * 10.0
        edges = np.exp(np.linspace(math.log(lo), math.log(hi),
                                   N_VOLUME_BINS + 1))
        return cls(volume_edges=tuple(float(e) for e in edges))


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
        k = int(np.searchsorted(binning.volume_edges, value,
                                side="right")) - 1
        return _bin_token(field, min(max(k, 0), N_VOLUME_BINS - 1))
    if kind == COUNT:
        n = int(value)
        return str(n) if n <= ATOM_COUNT_MAX else f">{ATOM_COUNT_MAX}"
    return _bin_token(field, min(int(value * POROSITY_BINS / 100.0),
                                 POROSITY_BINS - 1))


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
        # each space group's 12 ids, in number order; an empty
        # directional slot reads [EMPTY], an unseen token [UNK]
        ids = {**self._by_key, ("directional", EMPTY_SLOT): EMPTY_ID}
        self._group_ids = [
            tuple([ids.get(pair, UNK_ID)
                   for pair in zip(SG_CATEGORIES, record.token_strings())])
            for record in all_space_groups()]

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

    def space_group_ids(self, number):
        """The ids of space group ``number``'s 12 tokens, [EMPTY] for an
        empty directional slot."""
        return self._group_ids[lookup_space_group(number).number - 1]

    # -- serialization ------------------------------------------------------

    def to_text(self):
        lines = ["# crysgram vocabulary format 1",
                 "!info_layout\t" + ",".join(self.info_layout),
                 f"!atom_count_max\t{ATOM_COUNT_MAX}",
                 f"!porosity_bins\t{POROSITY_BINS}",
                 "!volume_edges\t" + ",".join(
                     float(e).hex() for e in self.binning.volume_edges)]
        lines += [f"{i}\t{category}\t{token}"
                  for i, (category, token) in enumerate(self._by_id)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """The vocabulary whose ``to_text()`` is ``text``, byte for byte.

        Only three things are read: the info layout (line 2), the volume
        edges (line 5) and the text-field token lines; the vocabulary
        built from them must write every line of ``text`` back, or
        VocabularyError names the first line that differs (a missing
        line reads as None).
        """
        lines = text.split("\n")
        _, layout_line, _, _, edges_line = (lines + [""] * 5)[:5]
        layout = tuple(field for field in layout_line.partition("\t")[2]
                       .split(",") if field in INFO_SCHEMA)
        edges = []
        try:
            for value in edges_line.partition("\t")[2].split(","):
                edges.append(float.fromhex(value))
            binning = InformaticsBinning(tuple(edges))
        except (ValueError, OverflowError):
            raise VocabularyError(f"line 5: !volume_edges holds a non-hex "
                                  f"float: {value!r}") from None
        except VocabularyError as exc:
            raise VocabularyError(f"line 5: {exc}") from None
        tokens = {}  # category -> its tokens in the file
        for fields in (line.split("\t") for line in lines[5:]):
            if (len(fields) == 3
                    and "".join(fields[2].splitlines()) == fields[2]):
                tokens.setdefault(fields[1], set()).add(fields[2])
        vocab = _assemble(tokens, layout, binning)
        for lineno, (found, expected) in enumerate(itertools.zip_longest(
                lines, vocab.to_text().split("\n")), start=1):
            if found != expected:
                raise VocabularyError(f"line {lineno}: found {found!r}, "
                                      f"expected {expected!r}")
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


@functools.cache
def _fixed_tokens():
    """Category -> the tokens of every vocabulary: the knowledge base's
    distinct space-group tokens in table order (without the empty
    directional slot), the bin tokens and the elements."""
    pairs = [pair for record in all_space_groups()
             for pair in zip(SG_CATEGORIES, record.token_strings())
             if pair != ("directional", EMPTY_SLOT)]
    fixed = {category: tuple(dict.fromkeys(t for c, t in pairs
                                           if c == category))
             for category in dict.fromkeys(SG_CATEGORIES)}
    for name, spec in INFO_SCHEMA.items():
        if spec.kind == COUNT:
            fixed[name] = (*map(str, range(1, ATOM_COUNT_MAX + 1)),
                           f">{ATOM_COUNT_MAX}")
        elif spec.kind != TEXT:
            n_bins = N_VOLUME_BINS if spec.kind == VOLUME else POROSITY_BINS
            fixed[name] = tuple(_bin_token(name, k) for k in range(n_bins))
    fixed[ELEMENT] = SYMBOLS
    return fixed


def _assemble(texts, info_layout, binning):
    """The vocabulary of the fixed tokens and the text fields' tokens in
    ``texts`` (field -> tokens, sorted here; other keys are ignored). A
    vocabulary file chooses ``info_layout``, the volume edges of
    ``binning`` and the text tokens; every other line follows from
    them."""
    by_category = dict(_fixed_tokens())
    for name, spec in INFO_SCHEMA.items():
        if spec.kind == TEXT:
            by_category[name] = sorted(set(texts.get(name, ())))
    return TokenVocabulary(by_category, info_layout, binning)


def build_vocabulary(datasets=(), info_layout=()):
    """Vocabulary covering the knowledge base plus observed dataset tokens.

    ``datasets`` is any iterable of records carrying an ``informatics``
    attribute (or InformaticsFields directly); it supplies topology and
    organic-cation strings and the observed volume range for binning.
    Deterministic given identical inputs.
    """
    observed = {name: set() for name in INFO_SCHEMA}
    for item in datasets:
        info = getattr(item, "informatics", item)
        for name, values in observed.items():
            if getattr(info, name, None) is not None:
                values.add(getattr(info, name))
    binning = InformaticsBinning.from_observations(
        observed["unit_cell_volume"])
    return _assemble(observed, info_layout, binning)
