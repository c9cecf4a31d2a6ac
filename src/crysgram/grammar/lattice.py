"""The seven crystal systems and the lattice-parameter constraints they impose.

Trigonal groups are handled on hexagonal axes throughout (the knowledge
base's canonical setting), so they share the hexagonal constraint set.
"""

import enum
from dataclasses import dataclass, field

LENGTH_NAMES = ("a", "b", "c")
ANGLE_NAMES = ("alpha", "beta", "gamma")


class CrystalSystem(enum.Enum):
    TRICLINIC = "triclinic"
    MONOCLINIC = "monoclinic"
    ORTHORHOMBIC = "orthorhombic"
    TETRAGONAL = "tetragonal"
    TRIGONAL = "trigonal"
    HEXAGONAL = "hexagonal"
    CUBIC = "cubic"

    @classmethod
    def from_string(cls, name: str) -> "CrystalSystem":
        return cls(name.strip().lower())

    @property
    def index(self) -> int:
        """Stable 0-based index in declaration order (triclinic..cubic)."""
        return list(CrystalSystem).index(self)


@dataclass(frozen=True)
class LatticeConstraints:
    """Equality classes over cell lengths plus pinned angle values.

    ``length_classes`` partitions a subset of {a, b, c} into groups that
    must be equal; ``fixed_angles`` pins angles to exact degree values.
    """

    length_classes: tuple = ()
    fixed_angles: dict = field(default_factory=dict)

    def violations(self, lengths, angles, rtol=1e-3, atol_deg=0.1):
        """Return human-readable constraint violations for one cell.

        ``lengths`` is (a, b, c) in angstroms, ``angles`` is
        (alpha, beta, gamma) in degrees. Tolerances default to the
        dataset-validation levels.
        """
        values = dict(zip(LENGTH_NAMES, lengths)) | dict(zip(ANGLE_NAMES, angles))
        problems = []
        for group in self.length_classes:
            ref = values[group[0]]
            for name in group[1:]:
                if abs(values[name] - ref) > rtol * max(abs(ref), 1e-12):
                    problems.append(
                        f"{name}={values[name]:g} != {group[0]}={ref:g}")
        for name, target in self.fixed_angles.items():
            if abs(values[name] - target) > atol_deg:
                problems.append(f"{name}={values[name]:g} != {target:g}")
        return problems


_ALL_90 = {"alpha": 90.0, "beta": 90.0, "gamma": 90.0}
_HEX_ANGLES = {"alpha": 90.0, "beta": 90.0, "gamma": 120.0}

_CONSTRAINTS = {
    CrystalSystem.TRICLINIC: LatticeConstraints(),
    CrystalSystem.MONOCLINIC: LatticeConstraints(
        fixed_angles={"alpha": 90.0, "gamma": 90.0}),
    CrystalSystem.ORTHORHOMBIC: LatticeConstraints(fixed_angles=dict(_ALL_90)),
    CrystalSystem.TETRAGONAL: LatticeConstraints(
        length_classes=(("a", "b"),), fixed_angles=dict(_ALL_90)),
    CrystalSystem.TRIGONAL: LatticeConstraints(
        length_classes=(("a", "b"),), fixed_angles=dict(_HEX_ANGLES)),
    CrystalSystem.HEXAGONAL: LatticeConstraints(
        length_classes=(("a", "b"),), fixed_angles=dict(_HEX_ANGLES)),
    CrystalSystem.CUBIC: LatticeConstraints(
        length_classes=(("a", "b", "c"),), fixed_angles=dict(_ALL_90)),
}


def lattice_constraints(system: CrystalSystem) -> LatticeConstraints:
    """Constraint set a crystal system imposes on (a, b, c, alpha, beta, gamma)."""
    if not isinstance(system, CrystalSystem):
        system = CrystalSystem.from_string(str(system))
    return _CONSTRAINTS[system]
