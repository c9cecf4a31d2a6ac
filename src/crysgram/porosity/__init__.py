"""Grid Point Approach porosity calculator for periodic structures."""

from .gpa import (
    DEFAULT_R_PROBE,
    DEFAULT_RHO_GRID,
    GridSpec,
    PeriodicStructure,
    PorosityResult,
    accessible_void_fraction,
    default_radius_table,
    load_radius_table,
    load_structure,
    save_structure,
    structure_informatics,
)

__all__ = [
    "DEFAULT_R_PROBE", "DEFAULT_RHO_GRID", "GridSpec", "PeriodicStructure",
    "PorosityResult", "accessible_void_fraction", "default_radius_table",
    "load_radius_table", "load_structure", "save_structure",
    "structure_informatics",
]
