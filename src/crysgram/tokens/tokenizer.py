"""Crystal record -> fixed-layout token sequence.

Layout: [CLS] + 12 space-group tokens + n_info informatics tokens +
20 formula slots. Absent informatics values emit [EMPTY]; formula slots
past the element count are [PAD] and masked out of attention.
"""

from ..errors import VocabularyError
from ..grammar import EMPTY_SLOT, lookup_space_group
from .vocab import (
    CLS_ID,
    ELEMENT,
    EMPTY_ID,
    PAD_ID,
    SG_CATEGORIES,
    SPECIAL,
    InformaticsFields,
    quantize_informatics,
)

N_SG_TOKENS = 12
N_FORMULA_SLOTS = 20
SG_POSITIONS = tuple(range(1, 1 + N_SG_TOKENS))


def sequence_length(n_info):
    return 1 + N_SG_TOKENS + n_info + N_FORMULA_SLOTS


def sequence_categories(info_layout):
    """The category of each position of a sequence with ``info_layout``."""
    return (SPECIAL, *SG_CATEGORIES, *info_layout,
            *(ELEMENT,) * N_FORMULA_SLOTS)


def tokenize_crystal(sg_number, formula, info, vocab, group_ids=None):
    """The [CLS]+12+n_info+20 token ids of one crystal, as a tuple.

    ``formula`` is a parsed FormulaComposition, ``info`` an
    InformaticsFields or None. Informatics fields present on the record
    but absent from the vocabulary layout raise VocabularyError. A
    position's label is ``vocab.token_at(id)[1]`` and its category is
    ``sequence_categories(vocab.info_layout)``. ``group_ids``, if given,
    is a dict from space-group number to its 12 ids in ``vocab`` that
    the call reads and fills, so a caller tokenizing many crystals
    (``prepare_corpus``) looks each group's tokens up once.
    """
    record = lookup_space_group(sg_number)
    group_ids = {} if group_ids is None else group_ids
    if sg_number not in group_ids:
        group_ids[sg_number] = tuple(
            EMPTY_ID if category == "directional" and token == EMPTY_SLOT
            else vocab.id_of(category, token)
            for category, token in zip(SG_CATEGORIES,
                                        record.token_strings()))
    info = info or InformaticsFields()
    extra = set(info.present_fields()) - set(vocab.info_layout)
    if extra:
        raise VocabularyError(
            f"record carries informatics fields {sorted(extra)} absent from "
            f"the vocabulary layout {list(vocab.info_layout)}")

    ids = [CLS_ID, *group_ids[sg_number]]
    for field_name in vocab.info_layout:
        value = getattr(info, field_name)
        ids.append(EMPTY_ID if value is None else vocab.id_of(
            field_name,
            quantize_informatics(value, field_name, vocab.binning)))

    elements = formula.elements
    if len(elements) > N_FORMULA_SLOTS:
        raise VocabularyError(
            f"{len(elements)} elements exceed the {N_FORMULA_SLOTS} formula slots")
    ids.extend(vocab.id_of(ELEMENT, symbol) for symbol in elements)
    ids.extend([PAD_ID] * (N_FORMULA_SLOTS - len(elements)))
    return tuple(ids)
