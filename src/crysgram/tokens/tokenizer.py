"""Crystal record -> fixed-layout token sequence.

Layout: [CLS] + 12 space-group tokens + n_info informatics tokens +
20 formula slots. Absent informatics values emit [EMPTY]; formula slots
past the element count are [PAD] and masked out of attention.
"""

from dataclasses import dataclass, field

from ..errors import VocabularyError
from ..grammar import EMPTY_SLOT, lookup_space_group
from .vocab import (
    CLS,
    CLS_ID,
    EMPTY,
    EMPTY_ID,
    INFO_FIELDS,
    PAD,
    PAD_ID,
    SG_CATEGORIES,
    SPECIAL,
    quantize_informatics,
)

N_SG_TOKENS = 12
N_FORMULA_SLOTS = 20
SG_POSITIONS = tuple(range(1, 1 + N_SG_TOKENS))

_STRING_FIELDS = ("topology", "organic_cation")
_NUMERIC_FIELDS = ("unit_cell_volume", "atom_count", "porosity_fraction",
                   "accessible_void_fraction")


@dataclass(frozen=True)
class InformaticsFields:
    """Optional per-record informatics values (hMOF/HOIP style)."""

    topology: str = None
    unit_cell_volume: float = None
    atom_count: int = None
    porosity_fraction: float = None
    accessible_void_fraction: float = None
    organic_cation: str = None

    def __post_init__(self):
        if self.unit_cell_volume is not None and not self.unit_cell_volume > 0:
            raise VocabularyError(
                f"unit cell volume must be positive: {self.unit_cell_volume}")
        if self.atom_count is not None and self.atom_count < 1:
            raise VocabularyError(f"atom count must be >= 1: {self.atom_count}")
        for name in ("porosity_fraction", "accessible_void_fraction"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 100.0:
                raise VocabularyError(f"{name} must lie in [0, 100]: {value}")

    def present_fields(self):
        return tuple(name for name in INFO_FIELDS
                     if getattr(self, name) is not None)


@dataclass(frozen=True)
class TokenSequence:
    """Token ids plus per-position category tags and attention mask."""

    ids: tuple
    categories: tuple
    attention_mask: tuple
    token_labels: tuple
    n_info: int
    provenance: str = None
    formula_elements: tuple = field(default=(), repr=False)

    def __len__(self):
        return len(self.ids)


def sequence_length(n_info):
    return 1 + N_SG_TOKENS + n_info + N_FORMULA_SLOTS


def tokenize_crystal(sg_number, formula, info, vocab, provenance=None):
    """Build the [CLS]+12+n_info+20 token sequence for one crystal.

    ``formula`` is a parsed FormulaComposition, ``info`` an
    InformaticsFields or None. Informatics fields present on the record
    but absent from the vocabulary layout raise VocabularyError.
    """
    record = lookup_space_group(sg_number)
    info = info or InformaticsFields()
    extra = set(info.present_fields()) - set(vocab.info_layout)
    if extra:
        raise VocabularyError(
            f"record carries informatics fields {sorted(extra)} absent from "
            f"the vocabulary layout {list(vocab.info_layout)}")

    ids = [CLS_ID]
    categories = [SPECIAL]
    labels = [CLS]
    mask = [1]

    for category, token in zip(SG_CATEGORIES, record.token_strings()):
        if category == "directional" and token == EMPTY_SLOT:
            ids.append(EMPTY_ID)
            labels.append(EMPTY)
        else:
            ids.append(vocab.id_of(category, token))
            labels.append(token)
        categories.append(category)
        mask.append(1)

    for field_name in vocab.info_layout:
        value = getattr(info, field_name)
        if value is None:
            ids.append(EMPTY_ID)
            labels.append(EMPTY)
        elif field_name in _STRING_FIELDS:
            ids.append(vocab.id_of(field_name, value))
            labels.append(value)
        else:
            token = quantize_informatics(value, field_name, vocab.binning)
            ids.append(vocab.id_of(field_name, token))
            labels.append(token)
        categories.append(field_name)
        mask.append(1)

    elements = formula.elements
    if len(elements) > N_FORMULA_SLOTS:
        raise VocabularyError(
            f"{len(elements)} elements exceed the {N_FORMULA_SLOTS} formula slots")
    for i in range(N_FORMULA_SLOTS):
        if i < len(elements):
            ids.append(vocab.id_of("element", elements[i]))
            labels.append(elements[i])
            mask.append(1)
        else:
            ids.append(PAD_ID)
            labels.append(PAD)
            mask.append(0)
        categories.append("element")

    return TokenSequence(
        ids=tuple(ids),
        categories=tuple(categories),
        attention_mask=tuple(mask),
        token_labels=tuple(labels),
        n_info=len(vocab.info_layout),
        provenance=provenance,
        formula_elements=tuple(elements),
    )
