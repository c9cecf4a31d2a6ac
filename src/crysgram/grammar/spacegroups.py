"""Knowledge base of the 230 space groups and Hermann-Mauguin decomposition.

The table ships as a checksummed TSV generated once from published
crystallographic tables (standard settings: monoclinic unique axis b,
cell choice 1; rhombohedral groups on hexagonal axes). Nothing is
computed from symmetry operations at runtime.
"""

import enum
import hashlib
import re
from dataclasses import dataclass
from importlib import resources

from ..errors import InvalidSpaceGroupError, SymbolGrammarError
from .lattice import CrystalSystem

EMPTY_SLOT = "."

CENTERING_LETTERS = frozenset("PABCIFR")

# One directional component: a rotoinversion, a rotation or screw axis with
# an optional mirror or glide, or a lone mirror or glide. Screw pairs come
# first in the alternation, so a valid pair is read as one component.
_COMPONENT = re.compile(
    r"-[12346]|(?:21|3[12]|4[1-3]|6[1-5]|[12346])(?:/[mabcden])?|[mabcden]")


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


def _data_bytes(name):
    return resources.files("crysgram.grammar").joinpath("data", name).read_bytes()


def _load_table():
    payload = _data_bytes("spacegroups.tsv")
    expected = _data_bytes("spacegroups.sha256").decode().strip()
    actual = hashlib.sha256(payload).hexdigest()
    if actual != expected:
        raise InvalidSpaceGroupError(
            f"space-group table checksum mismatch: {actual} != {expected}")

    records = {}
    for line in payload.decode("utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 12:
            raise InvalidSpaceGroupError(f"malformed table row: {line!r}")
        (full, num, order, pg, system, laue, symmetry, polarity,
         centering, d0, d1, d2) = fields
        record = SpaceGroupRecord(
            number=int(num),
            full_symbol=full,
            order=int(order),
            point_group=pg,
            crystal_system=CrystalSystem.from_string(system),
            laue_class=laue,
            symmetry=Symmetry(symmetry),
            polarity=Polarity(polarity),
            centering=centering,
            directional_symbols=(d0, d1, d2),
        )
        if record.centering != full[0]:
            raise InvalidSpaceGroupError(
                f"centering/symbol mismatch in table row {num}")
        records[record.number] = record
    if sorted(records) != list(range(1, 231)):
        raise InvalidSpaceGroupError(
            f"table must contain groups 1..230, got {len(records)} rows")
    return records


_RECORDS = None
_BY_SYMBOL = None


def _records():
    global _RECORDS, _BY_SYMBOL
    if _RECORDS is None:
        _RECORDS = _load_table()
        _BY_SYMBOL = {}
        for rec in _RECORDS.values():
            _BY_SYMBOL[rec.full_symbol.replace(" ", "")] = rec
            _BY_SYMBOL.setdefault(rec.short_symbol, rec)
    return _RECORDS


def all_space_groups():
    """All 230 records in number order."""
    return [_records()[n] for n in range(1, 231)]


def lookup_space_group(number) -> SpaceGroupRecord:
    """Record for one space-group number (1..230)."""
    if not isinstance(number, int) or isinstance(number, bool):
        raise InvalidSpaceGroupError(f"space-group number must be an integer, "
                                     f"got {number!r}")
    if not 1 <= number <= 230:
        raise InvalidSpaceGroupError(
            f"space-group number {number} outside 1..230")
    return _records()[number]


def find_by_symbol(symbol: str):
    """Record whose full or short symbol matches, ignoring spaces; None if absent."""
    _records()
    return _BY_SYMBOL.get(symbol.replace(" ", ""))


def crystal_system_of(number) -> CrystalSystem:
    """Crystal system of a space-group number via the knowledge base."""
    return lookup_space_group(number).crystal_system


def _scan_components(body: str, symbol: str):
    """Greedy left-to-right component scan of an unspaced symbol body.

    Digit pairs that form a valid screw axis are consumed together, so
    strings like P4332 whose reading depends on the actual group should
    be resolved via the knowledge base before reaching this scanner.
    """
    comps = []
    pos = 0
    while pos < len(body):
        match = _COMPONENT.match(body, pos)
        if match is None:
            raise SymbolGrammarError(f"{symbol!r}: unexpected character "
                                     f"{body[pos]!r} at position {pos}")
        comps.append(match.group())
        pos = match.end()
    return comps


def split_hm_symbol(symbol: str):
    """Split a Hermann-Mauguin symbol into centering + 3 directional slots.

    Accepts spaced full symbols ("F 4/m -3 2/m"), condensed short or full
    symbols ("Fm-3m", "P21/c"), and pads missing directions with ".".
    Known symbols are resolved against the knowledge base first; only
    unknown strings go through the grammar scanner.
    """
    if not isinstance(symbol, str) or not symbol.strip():
        raise SymbolGrammarError("empty Hermann-Mauguin symbol")
    text = symbol.strip()

    record = find_by_symbol(text)
    if record is not None:
        return record.centering, record.directional_symbols

    pieces = text.split()
    head = pieces[0]
    if head[0] not in CENTERING_LETTERS:
        raise SymbolGrammarError(
            f"{symbol!r}: centering letter expected first, got {head[0]!r}")
    centering = head[0]
    comps = []
    for body in (head[1:], *pieces[1:]):
        comps += _scan_components(body, symbol)
    if not comps:
        raise SymbolGrammarError(f"{symbol!r}: no directional symbols")
    if len(comps) > 3:
        raise SymbolGrammarError(
            f"{symbol!r}: {len(comps)} directional symbols, at most 3 allowed")
    comps += [EMPTY_SLOT] * (3 - len(comps))
    return centering, tuple(comps)
