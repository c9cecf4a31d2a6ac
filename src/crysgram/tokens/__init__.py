"""Vocabulary, tokenization, and input embedding."""

from .embedding import (
    D_ELEMENT,
    ElementEmbeddingTable,
    assemble_batch,
    embed_formula,
)
from .tokenizer import (
    N_FORMULA_SLOTS,
    N_SG_TOKENS,
    SG_POSITIONS,
    InformaticsFields,
    TokenSequence,
    sequence_length,
    tokenize_crystal,
)
from .vocab import (
    CLS_ID,
    EMPTY_ID,
    INFO_FIELDS,
    MASK_ID,
    PAD_ID,
    SG_CATEGORIES,
    UNK_ID,
    InformaticsBinning,
    TokenVocabulary,
    build_vocabulary,
    quantize_informatics,
)

__all__ = [
    "D_ELEMENT", "ElementEmbeddingTable", "assemble_batch", "embed_formula",
    "N_FORMULA_SLOTS", "N_SG_TOKENS", "SG_POSITIONS", "InformaticsFields",
    "TokenSequence", "sequence_length", "tokenize_crystal",
    "CLS_ID", "EMPTY_ID", "INFO_FIELDS", "MASK_ID", "PAD_ID", "SG_CATEGORIES",
    "UNK_ID", "InformaticsBinning", "TokenVocabulary", "build_vocabulary",
    "quantize_informatics",
]
