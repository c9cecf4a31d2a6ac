"""The 230 space groups.

Each group is listed by its full symbol in the standard setting
(monoclinic unique axis b, cell choice 1; rhombohedral groups on
hexagonal axes). ``derive_fields`` reads its order, point group, crystal
system, Laue class, symmetry and polarity off the centering letter and
the directional components by fixed rules, once, at first use.
"""

import enum
import functools
from dataclasses import dataclass

from ..errors import InvalidSpaceGroupError
from .lattice import CrystalSystem

EMPTY_SLOT = "."

# Full symbols of groups 1..230 in number order, ten to a line, components
# space-separated, overbars written as leading minus signs.
_FULL_SYMBOLS = """\
P 1 | P -1 | P 1 2 1 | P 1 21 1 | C 1 2 1 | P 1 m 1 | P 1 c 1 | C 1 m 1 | C 1 c 1 | P 1 2/m 1
P 1 21/m 1 | C 1 2/m 1 | P 1 2/c 1 | P 1 21/c 1 | C 1 2/c 1 | P 2 2 2 | P 2 2 21 | P 21 21 2 | P 21 21 21 | C 2 2 21
C 2 2 2 | F 2 2 2 | I 2 2 2 | I 21 21 21 | P m m 2 | P m c 21 | P c c 2 | P m a 2 | P c a 21 | P n c 2
P m n 21 | P b a 2 | P n a 21 | P n n 2 | C m m 2 | C m c 21 | C c c 2 | A m m 2 | A b m 2 | A m a 2
A b a 2 | F m m 2 | F d d 2 | I m m 2 | I b a 2 | I m a 2 | P 2/m 2/m 2/m | P 2/n 2/n 2/n | P 2/c 2/c 2/m | P 2/b 2/a 2/n
P 21/m 2/m 2/a | P 2/n 21/n 2/a | P 2/m 2/n 21/a | P 21/c 2/c 2/a | P 21/b 21/a 2/m | P 21/c 21/c 2/n | P 2/b 21/c 21/m | P 21/n 21/n 2/m | P 21/m 21/m 2/n | P 21/b 2/c 21/n
P 21/b 21/c 21/a | P 21/n 21/m 21/a | C 2/m 2/c 21/m | C 2/m 2/c 21/a | C 2/m 2/m 2/m | C 2/c 2/c 2/m | C 2/m 2/m 2/a | C 2/c 2/c 2/a | F 2/m 2/m 2/m | F 2/d 2/d 2/d
I 2/m 2/m 2/m | I 2/b 2/a 2/m | I 2/b 2/c 2/a | I 2/m 2/m 2/a | P 4 | P 41 | P 42 | P 43 | I 4 | I 41
P -4 | I -4 | P 4/m | P 42/m | P 4/n | P 42/n | I 4/m | I 41/a | P 4 2 2 | P 4 21 2
P 41 2 2 | P 41 21 2 | P 42 2 2 | P 42 21 2 | P 43 2 2 | P 43 21 2 | I 4 2 2 | I 41 2 2 | P 4 m m | P 4 b m
P 42 c m | P 42 n m | P 4 c c | P 4 n c | P 42 m c | P 42 b c | I 4 m m | I 4 c m | I 41 m d | I 41 c d
P -4 2 m | P -4 2 c | P -4 21 m | P -4 21 c | P -4 m 2 | P -4 c 2 | P -4 b 2 | P -4 n 2 | I -4 m 2 | I -4 c 2
I -4 2 m | I -4 2 d | P 4/m 2/m 2/m | P 4/m 2/c 2/c | P 4/n 2/b 2/m | P 4/n 2/n 2/c | P 4/m 21/b 2/m | P 4/m 21/n 2/c | P 4/n 21/m 2/m | P 4/n 21/c 2/c
P 42/m 2/m 2/c | P 42/m 2/c 2/m | P 42/n 2/b 2/c | P 42/n 2/n 2/m | P 42/m 21/b 2/c | P 42/m 21/n 2/m | P 42/n 21/m 2/c | P 42/n 21/c 2/m | I 4/m 2/m 2/m | I 4/m 2/c 2/m
I 41/a 2/m 2/d | I 41/a 2/c 2/d | P 3 | P 31 | P 32 | R 3 | P -3 | R -3 | P 3 1 2 | P 3 2 1
P 31 1 2 | P 31 2 1 | P 32 1 2 | P 32 2 1 | R 3 2 | P 3 m 1 | P 3 1 m | P 3 c 1 | P 3 1 c | R 3 m
R 3 c | P -3 1 2/m | P -3 1 2/c | P -3 2/m 1 | P -3 2/c 1 | R -3 2/m | R -3 2/c | P 6 | P 61 | P 65
P 62 | P 64 | P 63 | P -6 | P 6/m | P 63/m | P 6 2 2 | P 61 2 2 | P 65 2 2 | P 62 2 2
P 64 2 2 | P 63 2 2 | P 6 m m | P 6 c c | P 63 c m | P 63 m c | P -6 m 2 | P -6 c 2 | P -6 2 m | P -6 2 c
P 6/m 2/m 2/m | P 6/m 2/c 2/c | P 63/m 2/c 2/m | P 63/m 2/m 2/c | P 2 3 | F 2 3 | I 2 3 | P 21 3 | I 21 3 | P 2/m -3
P 2/n -3 | F 2/m -3 | F 2/d -3 | I 2/m -3 | P 21/a -3 | I 21/a -3 | P 4 3 2 | P 42 3 2 | F 4 3 2 | F 41 3 2
I 4 3 2 | P 43 3 2 | P 41 3 2 | I 41 3 2 | P -4 3 m | F -4 3 m | I -4 3 m | P -4 3 n | F -4 3 c | I -4 3 d
P 4/m -3 2/m | P 4/n -3 2/n | P 42/m -3 2/n | P 42/n -3 2/m | F 4/m -3 2/m | F 4/m -3 2/c | F 41/d -3 2/m | F 41/d -3 2/c | I 4/m -3 2/m | I 41/a -3 2/d"""

# Lattice points per conventional cell of each centering letter.
_LATTICE_POINTS = {"P": 1, "A": 2, "B": 2, "C": 2, "I": 2, "F": 4, "R": 3}

# Point-group element of each screw axis and glide plane.
_POINT_ELEMENT = {**dict.fromkeys("abcden", "m"),
                  "21": "2", "31": "3", "32": "3", "41": "4", "42": "4",
                  "43": "4", "61": "6", "62": "6", "63": "6", "64": "6",
                  "65": "6"}

# Reduced directional components -> canonical symbol of the crystal class.
_CLASS_OF = {
    "1": "1", "-1": "-1",
    "1|2|1": "2", "1|m|1": "m", "1|2/m|1": "2/m",
    "2|2|2": "222", "m|m|2": "mm2", "2/m|2/m|2/m": "mmm",
    "4": "4", "-4": "-4", "4/m": "4/m",
    "4|2|2": "422", "4|m|m": "4mm",
    "-4|2|m": "-42m", "-4|m|2": "-42m",
    "4/m|2/m|2/m": "4/mmm",
    "3": "3", "-3": "-3",
    "3|1|2": "32", "3|2|1": "32", "3|2": "32",
    "3|m|1": "3m", "3|1|m": "3m", "3|m": "3m",
    "-3|1|2/m": "-3m", "-3|2/m|1": "-3m", "-3|2/m": "-3m",
    "6": "6", "-6": "-6", "6/m": "6/m",
    "6|2|2": "622", "6|m|m": "6mm",
    "-6|m|2": "-6m2", "-6|2|m": "-6m2",
    "6/m|2/m|2/m": "6/mmm",
    "2|3": "23", "2/m|-3": "m-3",
    "4|3|2": "432", "-4|3|m": "-43m",
    "4/m|-3|2/m": "m-3m",
}

# Crystal class -> (order, Laue class). A class is centrosymmetric exactly
# when it is its own Laue class.
_CLASSES = {
    "1": (1, "-1"), "-1": (2, "-1"),
    "2": (2, "2/m"), "m": (2, "2/m"), "2/m": (4, "2/m"),
    "222": (4, "mmm"), "mm2": (4, "mmm"), "mmm": (8, "mmm"),
    "4": (4, "4/m"), "-4": (4, "4/m"), "4/m": (8, "4/m"),
    "422": (8, "4/mmm"), "4mm": (8, "4/mmm"), "-42m": (8, "4/mmm"),
    "4/mmm": (16, "4/mmm"),
    "3": (3, "-3"), "-3": (6, "-3"),
    "32": (6, "-3m"), "3m": (6, "-3m"), "-3m": (12, "-3m"),
    "6": (6, "6/m"), "-6": (6, "6/m"), "6/m": (12, "6/m"),
    "622": (12, "6/mmm"), "6mm": (12, "6/mmm"), "-6m2": (12, "6/mmm"),
    "6/mmm": (24, "6/mmm"),
    "23": (12, "m-3"), "m-3": (24, "m-3"),
    "432": (24, "m-3m"), "-43m": (24, "m-3m"), "m-3m": (48, "m-3m"),
}

_SYSTEM_OF_LAUE = {
    "-1": CrystalSystem.TRICLINIC, "2/m": CrystalSystem.MONOCLINIC,
    "mmm": CrystalSystem.ORTHORHOMBIC,
    "4/m": CrystalSystem.TETRAGONAL, "4/mmm": CrystalSystem.TETRAGONAL,
    "-3": CrystalSystem.TRIGONAL, "-3m": CrystalSystem.TRIGONAL,
    "6/m": CrystalSystem.HEXAGONAL, "6/mmm": CrystalSystem.HEXAGONAL,
    "m-3": CrystalSystem.CUBIC, "m-3m": CrystalSystem.CUBIC,
}

_POLAR = frozenset({"1", "2", "m", "mm2", "4", "4mm", "3", "3m", "6", "6mm"})


class Symmetry(enum.Enum):
    CENTROSYMMETRIC = "Centrosymmetric"
    NON_CENTROSYMMETRIC = "Non-centrosymmetric"


class Polarity(enum.Enum):
    POLAR = "polar"
    NON_POLAR = "non-polar"


@dataclass(frozen=True)
class SpaceGroupRecord:
    """Full crystallographic identity of one space group."""

    number: int
    full_symbol: str
    order: int
    point_group: str
    crystal_system: CrystalSystem
    laue_class: str
    symmetry: Symmetry
    polarity: Polarity
    centering: str
    directional_symbols: tuple

    @property
    def short_symbol(self) -> str:
        """Short Hermann-Mauguin form, e.g. Fm-3m for F 4/m -3 2/m."""
        parts = [p for p in self.directional_symbols if p != EMPTY_SLOT]

        def mirror(comp):
            return comp.split("/")[1] if "/" in comp else comp

        system = self.crystal_system
        if system is CrystalSystem.TRICLINIC:
            keep = parts
        elif system is CrystalSystem.MONOCLINIC:
            keep = [p for p in parts if p != "1"]
        elif system in (CrystalSystem.ORTHORHOMBIC, CrystalSystem.CUBIC):
            keep = [mirror(p) for p in parts]
        else:
            keep = [parts[0]] + [mirror(p) for p in parts[1:]]
        return self.centering + "".join(keep)

    def token_strings(self) -> tuple:
        """The 12 space-group token strings in canonical table order."""
        return (
            self.full_symbol.replace(" ", ""),
            str(self.number),
            str(self.order),
            self.point_group,
            self.crystal_system.value,
            self.laue_class,
            self.symmetry.value,
            self.polarity.value,
            self.centering,
            *self.directional_symbols,
        )


def _reduce(component):
    """Point-group element of a directional component: a screw axis
    becomes its rotation and a glide plane a mirror."""
    axis, slash, _ = component.partition("/")
    return _POINT_ELEMENT.get(axis, axis) + ("/m" if slash else "")


def derive_fields(centering, directional):
    """(order, point group, crystal system, Laue class, symmetry, polarity)
    of a group, from its centering letter and its three directional slots
    as tokenized (EMPTY_SLOT marks an empty one)."""
    reduced = "|".join(_reduce(c) for c in directional if c != EMPTY_SLOT)
    if centering not in _LATTICE_POINTS or reduced not in _CLASS_OF:
        raise InvalidSpaceGroupError(
            f"no crystal class for {centering!r} with {tuple(directional)!r}")
    point_group = _CLASS_OF[reduced]
    class_order, laue = _CLASSES[point_group]
    return (class_order * _LATTICE_POINTS[centering], point_group,
            _SYSTEM_OF_LAUE[laue], laue,
            Symmetry.CENTROSYMMETRIC if point_group == laue
            else Symmetry.NON_CENTROSYMMETRIC,
            Polarity.POLAR if point_group in _POLAR else Polarity.NON_POLAR)


@functools.cache
def _table():
    """The 230 records in number order."""
    records = []
    symbols = _FULL_SYMBOLS.replace("\n", "|").split("|")
    for number, full in enumerate(map(str.strip, symbols), start=1):
        centering, *parts = full.split()
        directional = (*parts, *[EMPTY_SLOT] * (3 - len(parts)))
        records.append(SpaceGroupRecord(
            number, full, *derive_fields(centering, directional),
            centering, directional))
    return records


def all_space_groups():
    """All 230 records in number order."""
    return list(_table())


def lookup_space_group(number) -> SpaceGroupRecord:
    """Record for one space-group number (1..230)."""
    if not isinstance(number, int) or isinstance(number, bool):
        raise InvalidSpaceGroupError(f"space-group number must be an integer, "
                                     f"got {number!r}")
    if not 1 <= number <= 230:
        raise InvalidSpaceGroupError(
            f"space-group number {number} outside 1..230")
    return _table()[number - 1]


def crystal_system_of(number) -> CrystalSystem:
    """Crystal system of a space-group number via the knowledge base."""
    return lookup_space_group(number).crystal_system

