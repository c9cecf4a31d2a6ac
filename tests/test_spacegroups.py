"""Knowledge-base fidelity tests."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crysgram.errors import InvalidSpaceGroupError
from crysgram.grammar import (
    EMPTY_SLOT,
    CrystalSystem,
    Polarity,
    Symmetry,
    all_space_groups,
    crystal_system_of,
    derive_fields,
    lattice_constraints,
    lookup_space_group,
)

SYSTEM_RANGES = [
    (1, 2, CrystalSystem.TRICLINIC),
    (3, 15, CrystalSystem.MONOCLINIC),
    (16, 74, CrystalSystem.ORTHORHOMBIC),
    (75, 142, CrystalSystem.TETRAGONAL),
    (143, 167, CrystalSystem.TRIGONAL),
    (168, 194, CrystalSystem.HEXAGONAL),
    (195, 230, CrystalSystem.CUBIC),
]


def expected_system(number):
    for lo, hi, system in SYSTEM_RANGES:
        if lo <= number <= hi:
            return system
    raise AssertionError(number)


class TestLookup:
    def test_fm3m_record(self):
        # canonical cubic example: rock-salt structure group
        rec = lookup_space_group(225)
        assert rec.full_symbol == "F 4/m -3 2/m"
        assert rec.short_symbol == "Fm-3m"
        assert rec.order == 192
        assert rec.point_group == "m-3m"
        assert rec.crystal_system is CrystalSystem.CUBIC
        assert rec.laue_class == "m-3m"
        assert rec.symmetry is Symmetry.CENTROSYMMETRIC
        assert rec.polarity is Polarity.NON_POLAR
        assert rec.centering == "F"
        assert rec.directional_symbols == ("4/m", "-3", "2/m")

    def test_fm3m_token_strings(self):
        assert lookup_space_group(225).token_strings() == (
            "F4/m-32/m", "225", "192", "m-3m", "cubic", "m-3m",
            "Centrosymmetric", "non-polar", "F", "4/m", "-3", "2/m")

    def test_group_one(self):
        rec = lookup_space_group(1)
        assert rec.crystal_system is CrystalSystem.TRICLINIC
        assert rec.centering == "P"
        assert rec.order == 1
        assert rec.polarity is Polarity.POLAR

    @pytest.mark.parametrize("bad", [0, 231, -5, 10**6])
    def test_out_of_range(self, bad):
        with pytest.raises(InvalidSpaceGroupError):
            lookup_space_group(bad)

    def test_non_integer(self):
        with pytest.raises(InvalidSpaceGroupError):
            lookup_space_group("225")

    def test_lookup_is_pure(self):
        assert lookup_space_group(14) is lookup_space_group(14)


class TestKnowledgeBaseInvariants:
    def test_exactly_230_records(self):
        records = all_space_groups()
        assert len(records) == 230
        assert [r.number for r in records] == list(range(1, 231))

    def test_centering_is_first_symbol_letter(self):
        for rec in all_space_groups():
            assert rec.centering == rec.full_symbol[0]

    def test_crystal_system_ranges(self):
        for rec in all_space_groups():
            assert rec.crystal_system is expected_system(rec.number)

    def test_centrosymmetric_implies_non_polar(self):
        for rec in all_space_groups():
            if rec.symmetry is Symmetry.CENTROSYMMETRIC:
                assert rec.polarity is Polarity.NON_POLAR

    def test_concatenation_reproduces_symbol(self):
        for rec in all_space_groups():
            joined = rec.centering + "".join(
                p for p in rec.directional_symbols if p != EMPTY_SLOT)
            assert joined == rec.full_symbol.replace(" ", "")

    def test_point_group_census(self):
        # 32 crystal classes, 11 Laue classes over the 230 groups
        records = all_space_groups()
        assert len({r.point_group for r in records}) == 32
        assert len({r.laue_class for r in records}) == 11
        assert sum(r.symmetry is Symmetry.CENTROSYMMETRIC for r in records) == 92
        assert sum(r.polarity is Polarity.POLAR for r in records) == 68

    def test_orders_factor_through_centering(self):
        mult = {"P": 1, "A": 2, "B": 2, "C": 2, "I": 2, "F": 4, "R": 3}
        for rec in all_space_groups():
            assert rec.order % mult[rec.centering] == 0

    def test_short_symbols_are_distinct(self):
        assert len({r.short_symbol for r in all_space_groups()}) == 230


class TestDerivedTable:
    # SHA-256 of the table in the layout it once shipped in as a TSV file
    DIGEST = "17a92611a63e3dfb0085094a294d0e4ce7a12fde0cc11c15ea9f715cd29cb0c2"
    HEADER = (
        "# crysgram space-group knowledge base, format version 1",
        "# standard settings: monoclinic unique axis b cell choice 1;"
        " rhombohedral groups on hexagonal axes",
        "# columns: full_symbol\tnumber\torder\tpoint_group\tcrystal_system"
        "\tlaue_class\tsymmetry\tpolarity\tcentering\tdir0\tdir1\tdir2",
        "# '.' marks an empty directional slot",
    )

    def test_table_digest_is_pinned(self):
        rows = ["\t".join((rec.full_symbol, *rec.token_strings()[1:]))
                for rec in all_space_groups()]
        payload = "\n".join((*self.HEADER, *rows)) + "\n"
        assert hashlib.sha256(payload.encode()).hexdigest() == self.DIGEST

    SPOT_GROUPS = [
        (1, "P 1", "P1", 1, "1", CrystalSystem.TRICLINIC),
        (2, "P -1", "P-1", 2, "-1", CrystalSystem.TRICLINIC),
        (14, "P 1 21/c 1", "P21/c", 4, "2/m", CrystalSystem.MONOCLINIC),
        (25, "P m m 2", "Pmm2", 4, "mm2", CrystalSystem.ORTHORHOMBIC),
        (62, "P 21/n 21/m 21/a", "Pnma", 8, "mmm",
         CrystalSystem.ORTHORHOMBIC),
        (139, "I 4/m 2/m 2/m", "I4/mmm", 32, "4/mmm",
         CrystalSystem.TETRAGONAL),
        (146, "R 3", "R3", 9, "3", CrystalSystem.TRIGONAL),
        (166, "R -3 2/m", "R-3m", 36, "-3m", CrystalSystem.TRIGONAL),
        (168, "P 6", "P6", 6, "6", CrystalSystem.HEXAGONAL),
        (194, "P 63/m 2/m 2/c", "P63/mmc", 24, "6/mmm",
         CrystalSystem.HEXAGONAL),
        (225, "F 4/m -3 2/m", "Fm-3m", 192, "m-3m", CrystalSystem.CUBIC),
        (227, "F 41/d -3 2/m", "Fd-3m", 192, "m-3m", CrystalSystem.CUBIC),
        (230, "I 41/a -3 2/d", "Ia-3d", 96, "m-3m", CrystalSystem.CUBIC)]

    # A case is named by every column but the short symbol.
    @pytest.mark.parametrize(
        "number, full, short, order, point_group, system", SPOT_GROUPS,
        ids=["-".join(map(str, (n, full, order, pg, system)))
             for n, full, _, order, pg, system in SPOT_GROUPS])
    def test_spot_groups(self, number, full, short, order, point_group,
                         system):
        rec = lookup_space_group(number)
        assert (rec.full_symbol, rec.short_symbol, rec.order, rec.point_group,
                rec.crystal_system) == (full, short, order, point_group,
                                        system)
        if number == 225:
            assert rec.laue_class == "m-3m"
            assert rec.symmetry is Symmetry.CENTROSYMMETRIC
            assert rec.polarity is Polarity.NON_POLAR
            assert rec.directional_symbols == ("4/m", "-3", "2/m")

    def test_derivation_reproduces_every_record(self):
        for rec in all_space_groups():
            assert derive_fields(rec.centering, rec.directional_symbols) == (
                rec.order, rec.point_group, rec.crystal_system,
                rec.laue_class, rec.symmetry, rec.polarity)

    @pytest.mark.parametrize("centering, directional", [
        ("Q", ("1", EMPTY_SLOT, EMPTY_SLOT)),
        ("P", ("4", "3", EMPTY_SLOT)),
        ("P", (EMPTY_SLOT,) * 3)])
    def test_derivation_refuses_unknown_classes(self, centering, directional):
        with pytest.raises(InvalidSpaceGroupError):
            derive_fields(centering, directional)


class TestCrystalSystemOf:
    @pytest.mark.parametrize("number,system", [
        (225, CrystalSystem.CUBIC),
        (1, CrystalSystem.TRICLINIC),
        (168, CrystalSystem.HEXAGONAL),
        (14, CrystalSystem.MONOCLINIC),
        (146, CrystalSystem.TRIGONAL),
    ])
    def test_examples(self, number, system):
        assert crystal_system_of(number) is system

    @given(st.integers(min_value=1, max_value=230))
    def test_matches_record(self, number):
        assert crystal_system_of(number) is lookup_space_group(number).crystal_system

    def test_out_of_range(self):
        with pytest.raises(InvalidSpaceGroupError):
            crystal_system_of(231)


class TestLatticeConstraints:
    def test_hexagonal(self):
        c = lattice_constraints(CrystalSystem.HEXAGONAL)
        assert c.length_classes == (("a", "b"),)
        assert c.fixed_angles == {"alpha": 90.0, "beta": 90.0, "gamma": 120.0}

    def test_cubic(self):
        c = lattice_constraints(CrystalSystem.CUBIC)
        assert c.length_classes == (("a", "b", "c"),)
        assert c.fixed_angles == {"alpha": 90.0, "beta": 90.0, "gamma": 90.0}

    def test_triclinic_unconstrained(self):
        c = lattice_constraints(CrystalSystem.TRICLINIC)
        assert c.length_classes == ()
        assert c.fixed_angles == {}

    def test_violation_reporting(self):
        c = lattice_constraints(CrystalSystem.CUBIC)
        assert c.violations((4.0, 4.0, 4.0), (90.0, 90.0, 90.0)) == []
        problems = c.violations((4.0, 4.2, 4.0), (90.0, 90.0, 92.0))
        assert len(problems) == 2

    def test_accepts_names(self):
        assert lattice_constraints("cubic").length_classes == (("a", "b", "c"),)
