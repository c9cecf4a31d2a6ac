"""Exception types shared across the package."""


class CrysgramError(Exception):
    """Base class for all crysgram errors."""


class InvalidSpaceGroupError(CrysgramError):
    """Space-group number outside 1..230 or unknown symbol."""


class SymbolGrammarError(CrysgramError):
    """Hermann-Mauguin string that cannot be decomposed."""


class FormulaError(CrysgramError):
    """Malformed or unsupported stoichiometric formula."""


class VocabularyError(CrysgramError):
    """Token/vocabulary layout mismatch."""


class EmbeddingError(CrysgramError):
    """Missing element vector or dimension mismatch in embedding tables."""


class DegenerateMaskError(CrysgramError):
    """Attention row with no unmasked key to attend to."""


class CheckpointError(CrysgramError):
    """Corrupt or incompatible model checkpoint."""


class DatasetError(CrysgramError):
    """Dataset file that fails validation."""


class ConfigError(CrysgramError):
    """Invalid run configuration."""


class NonFiniteError(CrysgramError):
    """Training step whose loss or a parameter gradient is NaN or infinite."""


class PorosityError(CrysgramError):
    """Invalid structure or grid settings for the porosity calculator."""
