"""Crystal record -> fixed-layout token sequence.

Layout: [CLS] + 12 space-group tokens + n_info informatics tokens +
20 formula slots. Absent informatics values emit [EMPTY]; formula slots
past the element count are [PAD] and masked out of attention.
"""

from dataclasses import dataclass

from ..errors import VocabularyError
from ..grammar import EMPTY_SLOT, lookup_space_group
from .vocab import (
    CLS,
    CLS_ID,
    EMPTY,
    EMPTY_ID,
    PAD,
    PAD_ID,
    SG_CATEGORIES,
    SPECIAL,
    InformaticsFields,
    quantize_informatics,
)

N_SG_TOKENS = 12
N_FORMULA_SLOTS = 20
SG_POSITIONS = tuple(range(1, 1 + N_SG_TOKENS))


@dataclass(frozen=True)
class TokenSequence:
    """Token ids plus per-position category tags and token labels."""

    ids: tuple
    categories: tuple
    token_labels: tuple
    n_info: int
    provenance: str = None

    def __len__(self):
        return len(self.ids)

    @property
    def attention_mask(self):
        """1 at every position the encoder attends to, 0 at [PAD]."""
        return tuple(int(i != PAD_ID) for i in self.ids)


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

    for category, token in zip(SG_CATEGORIES, record.token_strings()):
        if category == "directional" and token == EMPTY_SLOT:
            ids.append(EMPTY_ID)
            labels.append(EMPTY)
        else:
            ids.append(vocab.id_of(category, token))
            labels.append(token)
        categories.append(category)

    for field_name in vocab.info_layout:
        value = getattr(info, field_name)
        if value is None:
            ids.append(EMPTY_ID)
            labels.append(EMPTY)
        else:
            token = quantize_informatics(value, field_name, vocab.binning)
            ids.append(vocab.id_of(field_name, token))
            labels.append(token)
        categories.append(field_name)

    elements = formula.elements
    if len(elements) > N_FORMULA_SLOTS:
        raise VocabularyError(
            f"{len(elements)} elements exceed the {N_FORMULA_SLOTS} formula slots")
    for i in range(N_FORMULA_SLOTS):
        if i < len(elements):
            ids.append(vocab.id_of("element", elements[i]))
            labels.append(elements[i])
        else:
            ids.append(PAD_ID)
            labels.append(PAD)
        categories.append("element")

    return TokenSequence(
        ids=tuple(ids),
        categories=tuple(categories),
        token_labels=tuple(labels),
        n_info=len(vocab.info_layout),
        provenance=provenance,
    )
