"""Vocabulary, tokenization, and input embedding."""

from .embedding import (
    D_ELEMENT,
    ElementEmbeddingTable,
    assemble_batch,
    embed_formula,
    embed_formulas,
    formula_rows,
)
from .tokenizer import (
    N_FORMULA_SLOTS,
    N_SG_TOKENS,
    SG_POSITIONS,
    sequence_categories,
    sequence_length,
    tokenize_crystal,
)
from .vocab import (
    CLS_ID,
    EMPTY_ID,
    INFO_SCHEMA,
    MASK_ID,
    PAD_ID,
    SG_CATEGORIES,
    UNK_ID,
    InformaticsBinning,
    InformaticsFields,
    TokenVocabulary,
    build_vocabulary,
    quantize_informatics,
)

__all__ = [
    "D_ELEMENT", "ElementEmbeddingTable", "assemble_batch", "embed_formula",
    "embed_formulas", "formula_rows",
    "N_FORMULA_SLOTS", "N_SG_TOKENS", "SG_POSITIONS",
    "sequence_categories", "sequence_length", "tokenize_crystal",
    "CLS_ID", "EMPTY_ID", "INFO_SCHEMA", "MASK_ID", "PAD_ID", "SG_CATEGORIES",
    "UNK_ID", "InformaticsBinning", "InformaticsFields", "TokenVocabulary",
    "build_vocabulary", "quantize_informatics",
]
