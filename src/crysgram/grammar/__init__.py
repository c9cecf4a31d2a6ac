"""Space-group knowledge base and formula parsing."""

from .elements import ATOMIC_NUMBER, SYMBOLS, is_element
from .formula import MAX_ELEMENTS, FormulaComposition, parse_formula
from .lattice import (
    ANGLE_NAMES,
    LENGTH_NAMES,
    CrystalSystem,
    LatticeConstraints,
    lattice_constraints,
)
from .spacegroups import (
    EMPTY_SLOT,
    Polarity,
    SpaceGroupRecord,
    Symmetry,
    all_space_groups,
    crystal_system_of,
    derive_fields,
    lookup_space_group,
)

__all__ = [
    "ATOMIC_NUMBER", "SYMBOLS", "is_element",
    "MAX_ELEMENTS", "FormulaComposition", "parse_formula",
    "ANGLE_NAMES", "LENGTH_NAMES", "CrystalSystem", "LatticeConstraints",
    "lattice_constraints",
    "EMPTY_SLOT", "Polarity", "SpaceGroupRecord", "Symmetry",
    "all_space_groups", "crystal_system_of", "derive_fields",
    "lookup_space_group",
]
