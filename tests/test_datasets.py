"""Dataset loading, splitting, and synthetic corpora."""

import dataclasses

import numpy as np
import pytest

from crysgram.datasets import (
    CrystalRecord,
    KFoldSplit,
    SplitSpec,
    dataset_checksum,
    generate_synthetic_corpus,
    kb_corpus,
    load_dataset,
    split,
    write_dataset,
)
from crysgram.errors import DatasetError, FormulaError
from crysgram.grammar import (
    crystal_system_of,
    lattice_constraints,
    parse_formula,
)
from crysgram.tokens import InformaticsFields

CSV_HEADER = ("id,formula,spacegroup,topology,volume,natoms,porosity,"
              "acc_porosity,organic_cation,a,b,c,alpha,beta,gamma,target,"
              "target_unit")


class TestLoading:
    def test_single_valid_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(CSV_HEADER + "\n"
                        "r1,Fe2O3,167,,,,,,,,,,,,,1.5,eV\n")
        records = load_dataset(path)
        assert len(records) == 1
        assert records[0].formula == "Fe2O3"
        assert records[0].spacegroup == 167
        assert records[0].target == 1.5
        assert records[0].target_unit == "eV"

    def test_out_of_range_spacegroup_names_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(CSV_HEADER + "\n"
                        "ok,SiO2,152,,,,,,,,,,,,,0.1,\n"
                        "bad,SiO2,231,,,,,,,,,,,,,0.1,\n")
        with pytest.raises(DatasetError, match="line 3"):
            load_dataset(path)

    @pytest.mark.parametrize("name, text, line", [
        ("data.csv", "id,formula,spacegroup\nr1,Si,1\n\nr3,Si,999\n", 4),
        ("data.csv", "\nid,formula,spacegroup\nr1,Si,1\nr3,Si,999\n", 4),
        ("data.jsonl", '{"id": "r1", "formula": "Si", "spacegroup": 1}\n\n'
                       '{"id": "r3", "formula": "Si", "spacegroup": 999}\n',
         3),
    ])
    def test_error_names_physical_line_after_blank(self, tmp_path, name,
                                                    text, line):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(DatasetError,
                           match=f"1 invalid rows: line {line}:"):
            load_dataset(path)

    @pytest.mark.parametrize("name, text, ids", [
        ("data.csv", "formula,spacegroup\nSi,1\n\nSi,2\n", ["row2", "row4"]),
        ("data.tsv", "formula\tspacegroup\nSi\t1\n\nSi\t2\n",
         ["row2", "row4"]),
        ("data.csv", "\nid,formula,spacegroup\nr1,Si,1\n", ["r1"]),
        ("data.jsonl", '{"formula": "Si", "spacegroup": 1}\n\n'
                       '{"formula": "Si", "spacegroup": 2}\n',
         ["row1", "row3"]),
    ])
    def test_default_ids_name_physical_lines(self, tmp_path, name, text, ids):
        path = tmp_path / name
        path.write_text(text)
        assert [record.id for record in load_dataset(path)] == ids

    def test_hmof_style_row_carries_informatics(self, tmp_path):
        path = tmp_path / "mofs.csv"
        path.write_text(CSV_HEADER + "\n"
                        "m1,C6H6CuN2O4,1,pcu.cat0,4823.5,112,61.2,44.0,,"
                        ",,,,,,2.2,mol/kg\n")
        (record,) = load_dataset(path)
        assert record.informatics.topology == "pcu.cat0"
        assert record.informatics.unit_cell_volume == 4823.5
        assert record.informatics.atom_count == 112
        assert record.informatics.porosity_fraction == 61.2

    @pytest.mark.parametrize("name, text, default_id", [
        ("data.jsonl", '{"id": null, "formula": "Si", "spacegroup": 1, '
                       '"topology": "  ", "volume": null, "natoms": null, '
                       '"porosity": " ", "acc_porosity": null, '
                       '"organic_cation": "\\t", "target": null, '
                       '"target_unit": " "}\n', "row1"),
        ("data.csv", CSV_HEADER + "\n ,Si,1,  ,  , , , ,\t,,,,,,, , \n",
         "row2"),
    ], ids=["jsonl", "csv"])
    def test_blank_optional_cells_read_as_absent(self, tmp_path, name, text,
                                                 default_id):
        # null or whitespace only is absent in every optional column
        path = tmp_path / name
        path.write_text(text)
        (record,) = load_dataset(path)
        assert record.informatics == InformaticsFields()
        assert record.id == default_id
        assert (record.target, record.target_unit) == (None, "")

    def test_informatics_cells_read_as_their_column_type(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "r1", "formula": "Si", "spacegroup": 1, '
                        '"topology": "pcu", "volume": 40, "natoms": 8.0, '
                        '"porosity": "12.5"}\n')
        (record,) = load_dataset(path)
        assert record.informatics == InformaticsFields(
            topology="pcu", unit_cell_volume=40.0, atom_count=8,
            porosity_fraction=12.5)
        assert type(record.informatics.unit_cell_volume) is float
        assert type(record.informatics.atom_count) is int

    @pytest.mark.parametrize("name, text, column, line", [
        ("data.jsonl", '{"formula": "Si", "spacegroup": 14.7}\n',
         "spacegroup", 1),
        ("data.jsonl", '{"formula": "Si", "spacegroup": 1, "natoms": 112.9}\n',
         "natoms", 1),
        ("data.jsonl", '{"formula": "Si", "spacegroup": true}\n',
         "spacegroup", 1),
        ("data.csv", "id,formula,spacegroup\nr1,Si,1\nr2,Si,14.0\n",
         "spacegroup", 3),
    ], ids=["jsonl-float-group", "jsonl-float-natoms", "jsonl-bool-group",
            "csv-decimal-group"])
    def test_integer_columns_refuse_non_integers(self, tmp_path, name, text,
                                                 column, line):
        # an integer column is never truncated: the row is refused
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(DatasetError,
                           match=f"line {line}: {column}: .* is not an "
                           "integer"):
            load_dataset(path)

    FINITE = "is not a finite real number"

    @pytest.mark.parametrize("name, text, column, line, message", [
        ("data.csv", "id,formula,spacegroup,target\nr1,Si,1,0.5\nr2,Si,1,"
                     "nan\n", "target", 3, FINITE),
        ("data.csv", "formula,spacegroup,a,b,c,alpha,beta,gamma\n"
                     "Si,1,4,4,4,90,90,90\nSi,1,inf,inf,inf,90,90,90\n", "a",
         3, FINITE),
        ("data.csv", "formula,spacegroup,volume\nSi,1,40\nSi,1,1e400\n",
         "volume", 3, FINITE),
        ("data.jsonl", '{"formula": "Si", "spacegroup": 1}\n'
                       '{"formula": "Si", "spacegroup": 1, "volume": true}\n',
         "volume", 2, FINITE),
        ("data.jsonl", '{"formula": "Si", "spacegroup": 1}\n'
                       '{"formula": "Si", "spacegroup": 1, "target": true}\n',
         "target", 2, FINITE),
        ("data.jsonl", '{"formula": "Si", "spacegroup": 1}\n'
                       '{"formula": "Si", "spacegroup": 1, "a": true, "b": 4, '
                       '"c": 4, "alpha": 90, "beta": 90, "gamma": 90}\n', "a",
         2, FINITE),
        ("data.jsonl", '{"formula": "Si", "spacegroup": 1}\n'
                       '{"formula": "Si", "spacegroup": 1, "target": 1'
                       + "0" * 400 + '}\n', "target", 2, "int too large"),
    ], ids=["csv-nan-target", "csv-inf-lattice", "csv-overflow-volume",
            "jsonl-bool-volume", "jsonl-bool-target", "jsonl-bool-lattice",
            "jsonl-overflow-target"])
    def test_real_columns_refuse_non_finite_and_bool(self, tmp_path, name,
                                                     text, column, line,
                                                     message):
        # every real cell is finite and not a bool; the error names the
        # line and the column
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(DatasetError, match=f"1 invalid rows: line {line}: "
                           f"{column}: .*{message}"):
            load_dataset(path)

    def test_incomplete_lattice_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(CSV_HEADER + "\n"
                        "r1,Si,1,,,,,,,4.0,4.0,,,,,0.5,\n")
        with pytest.raises(DatasetError, match="incomplete lattice"):
            load_dataset(path)

    def test_bad_formula_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(CSV_HEADER + "\nr1,Xq3,1,,,,,,,,,,,,,0.5,\n")
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_constraint_mismatch_warns_not_rejects(self, tmp_path):
        path = tmp_path / "data.csv"
        # cubic group with a != c: validation warning only
        path.write_text(CSV_HEADER + "\n"
                        "r1,NaCl,225,,,,,,,4.0,4.0,5.0,90,90,90,0.5,\n")
        with pytest.warns(UserWarning, match="cubic"):
            records = load_dataset(path)
        assert len(records) == 1

    def test_unknown_columns_warn(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,formula,spacegroup,mystery\nr1,Si,1,42\n")
        with pytest.warns(UserWarning, match="mystery"):
            load_dataset(path)

    @pytest.mark.parametrize("name, text", [
        ("data.csv", "id,zeta,formula,spacegroup,mystery\n"
                     "r1,0,Si,1,42\nr2,0,Si,x,42\n"),
        ("data.jsonl", '{"id": "r1", "zeta": 0, "formula": "Si", '
                       '"spacegroup": 1, "mystery": 42}\n'
                       '{"id": "r2", "formula": "Si", "spacegroup": "x", '
                       '"zeta": 0, "mystery": 42}\n')])
    def test_unknown_columns_warn_once_per_row_at_the_caller(
            self, tmp_path, name, text):
        # a row that then fails to parse still warns first
        path = tmp_path / name
        path.write_text(text)
        with pytest.warns(UserWarning) as caught:
            with pytest.raises(DatasetError,
                               match=r"1 invalid rows: line \d: spacegroup"):
                load_dataset(path)
        assert [str(w.message) for w in caught] == [
            "ignoring unknown columns ['mystery', 'zeta']"] * 2
        assert {w.filename for w in caught} == {__file__}

    @pytest.mark.parametrize("line, message", [
        ("[1, 2]", "'list' object has no attribute 'items'"),
        ('"Si"', "'str' object has no attribute 'items'")])
    def test_jsonl_line_that_is_not_an_object(self, tmp_path, line,
                                              message):
        path = tmp_path / "data.jsonl"
        path.write_text('{"formula": "Si", "spacegroup": 1}\n' + line
                        + "\n")
        with pytest.raises(DatasetError, match=f"line 2: {message}"):
            load_dataset(path)

    @pytest.mark.filterwarnings("ignore:ignoring unknown columns")
    @pytest.mark.parametrize("header, row, counts", [
        (CSV_HEADER, "r1,Si,1,,,,,,,,,,,,,0.5,eV,extra", "18 values for 17"),
        ("id,formula,spacegroup,mystery", "r1,Si,1,42,43", "5 values for 4"),
        (CSV_HEADER, "r1,Si,1,,,,,,,,,,,,,0.5", "16 values for 17"),
        ("id,formula,spacegroup,target", "r1,Si,1", "3 values for 4"),
    ])
    def test_ragged_row_names_line_and_counts(self, tmp_path, header, row,
                                              counts):
        path = tmp_path / "data.csv"
        path.write_text(header + "\nr0,Si,1" + ",0.5" * (
            header.count(",") - 2) + "\n" + row + "\n")
        with pytest.raises(DatasetError, match=f"line 3: {counts} header"):
            load_dataset(path)

    def test_ragged_rows_are_all_reported(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("id\tformula\tspacegroup\n"
                        "r1\tSi\n\nr2\tSi\t1\nr3\tSi\t1\t\n")
        with pytest.raises(DatasetError,
                           match="2 invalid rows: line 2: 2 values .*; "
                                 "line 5: 4 values"):
            load_dataset(path)

    def test_jsonl_missing_keys_still_load(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "r1", "formula": "Si", "spacegroup": 1}\n')
        (record,) = load_dataset(path)
        assert record.target is None

    def test_roundtrip_csv_and_jsonl(self, tmp_path):
        records = generate_synthetic_corpus(12, seed=3, task="regression")
        for name in ("out.csv", "out.jsonl"):
            path = tmp_path / name
            write_dataset(records, path)
            again = load_dataset(path)
            assert dataset_checksum(again) == dataset_checksum(records)

    def test_unknown_suffix_needs_fmt(self, tmp_path):
        for name in ("data.dat", "x.txt"):
            path = tmp_path / name
            path.write_text(CSV_HEADER + "\n")
            with pytest.raises(DatasetError,
                               match=r"\.csv, \.tsv, \.jsonl or \.ndjson"):
                load_dataset(path)


class TestRecordComposition:
    def test_composition_is_the_parsed_formula(self):
        record = CrystalRecord(id="r", formula="Fe2O3", spacegroup=167)
        assert record.composition == parse_formula("Fe2O3")

    def test_bool_space_group_refused(self):
        with pytest.raises(DatasetError, match="space group True"):
            CrystalRecord(id="r", formula="Fe2O3", spacegroup=True)

    def test_replace_reparses(self):
        record = CrystalRecord(id="r", formula="Fe2O3", spacegroup=167)
        other = dataclasses.replace(record, formula="NaCl")
        assert other.composition == parse_formula("NaCl")
        assert record.composition == parse_formula("Fe2O3")

    def test_assignment_reparses(self):
        record = CrystalRecord(id="r", formula="Fe2O3", spacegroup=167)
        record.formula = "CaTiO3"
        assert record.composition == parse_formula("CaTiO3")

    def test_bad_assignment_leaves_record_unchanged(self):
        record = CrystalRecord(id="r", formula="Fe2O3", spacegroup=167)
        with pytest.raises(FormulaError):
            record.formula = "Xx2"
        assert record.formula == "Fe2O3"
        assert record.composition == parse_formula("Fe2O3")


class TestSplit:
    RECORDS = generate_synthetic_corpus(1000, seed=1, task="regression")

    def test_ratio_70_15_15(self):
        parts = split(self.RECORDS, SplitSpec.parse("ratio:0.7,0.15,0.15"))
        assert (len(parts.train), len(parts.val), len(parts.test)) \
            == (700, 150, 150)

    def test_ratio_80_20(self):
        parts = split(self.RECORDS, SplitSpec.parse("ratio:0.8,0.2"))
        assert (len(parts.train), len(parts.test)) == (800, 200)
        assert parts.val == []

    def test_kfold_sizes_on_ten(self):
        records = self.RECORDS[:10]
        folds = split(records, SplitSpec(kind="kfold", k=5, seed=0))
        assert isinstance(folds, KFoldSplit)
        for train, test in folds.folds:
            assert len(test) == 2
            assert len(train) == 8

    def test_kfold_disjoint_cover(self):
        folds = split(self.RECORDS[:103], SplitSpec(kind="kfold", k=5, seed=2))
        seen = []
        for train, test in folds.folds:
            test_ids = {r.id for r in test}
            train_ids = {r.id for r in train}
            assert not test_ids & train_ids
            seen.extend(test_ids)
        assert len(seen) == 103
        assert len(set(seen)) == 103
        sizes = [len(test) for _, test in folds.folds]
        assert max(sizes) - min(sizes) <= 1

    def test_same_seed_identical(self):
        s1 = split(self.RECORDS, SplitSpec.parse("ratio:0.7,0.15,0.15", seed=9))
        s2 = split(self.RECORDS, SplitSpec.parse("ratio:0.7,0.15,0.15", seed=9))
        assert [r.id for r in s1.train] == [r.id for r in s2.train]

    def test_different_seed_differs(self):
        s1 = split(self.RECORDS, SplitSpec.parse("ratio:0.8,0.2", seed=1))
        s2 = split(self.RECORDS, SplitSpec.parse("ratio:0.8,0.2", seed=2))
        assert [r.id for r in s1.train] != [r.id for r in s2.train]

    def test_k_exceeding_records(self):
        with pytest.raises(DatasetError):
            split(self.RECORDS[:3], SplitSpec(kind="kfold", k=5))

    def test_bad_specs(self):
        with pytest.raises(DatasetError):
            SplitSpec(kind="kfold", k=1)
        with pytest.raises(DatasetError):
            SplitSpec(kind="ratio", fractions=(0.5, 0.2))
        with pytest.raises(DatasetError):
            SplitSpec.parse("nonsense")


class TestSyntheticCorpus:
    def test_lpp_constraints_exact(self):
        records = generate_synthetic_corpus(300, seed=5, task="lpp")
        for record in records:
            system = crystal_system_of(record.spacegroup)
            constraints = lattice_constraints(system)
            lengths = (record.lattice.a, record.lattice.b, record.lattice.c)
            angles = (record.lattice.alpha, record.lattice.beta,
                      record.lattice.gamma)
            assert constraints.violations(lengths, angles,
                                          rtol=1e-12, atol_deg=1e-9) == []

    def test_cubic_records_exact_angles(self):
        records = generate_synthetic_corpus(300, seed=5, task="lpp")
        cubic = [r for r in records
                 if crystal_system_of(r.spacegroup).value == "cubic"]
        assert cubic
        for r in cubic:
            assert r.lattice.a == r.lattice.b == r.lattice.c
            assert (r.lattice.alpha, r.lattice.beta, r.lattice.gamma) \
                == (90.0, 90.0, 90.0)

    def test_hexagonal_records_gamma_120(self):
        records = generate_synthetic_corpus(400, seed=6, task="lpp")
        hexes = [r for r in records
                 if crystal_system_of(r.spacegroup).value == "hexagonal"]
        assert hexes
        for r in hexes:
            assert r.lattice.gamma == 120.0

    def test_regeneration_identical(self):
        a = generate_synthetic_corpus(50, seed=7, task="regression")
        b = generate_synthetic_corpus(50, seed=7, task="regression")
        assert dataset_checksum(a) == dataset_checksum(b)

    def test_regression_targets_present_and_bounded_noise(self):
        import math
        records = generate_synthetic_corpus(200, seed=8, task="regression")
        from crysgram.grammar import parse_formula
        for r in records:
            comp = parse_formula(r.formula)
            entropy = -sum(f * math.log(f) for f in comp.fractions)
            base = crystal_system_of(r.spacegroup).index + 2.0 * entropy
            assert abs(r.target - base) <= 0.01 * (6.0 + 2.0 * math.log(20.0))

    @pytest.mark.parametrize("n,seed,task,digest", [
        (64, 7, "regression",
         "99d169e409d040805c9c45aef92c3af49beea6adb89d64eb31bd7fb4d82e07b6"),
        (64, 3, "lpp",
         "c1d10e234ab7c3b373cc6dfdb11a53318486d8d74163f8814b2f0228565c7a11"),
    ])
    def test_corpus_is_pinned(self, n, seed, task, digest):
        records = generate_synthetic_corpus(n, seed=seed, task=task)
        assert dataset_checksum(records) == digest

    def test_each_formula_parsed_once(self, monkeypatch):
        import crysgram.datasets as datasets
        calls = []

        def counting(formula):
            calls.append(formula)
            return parse_formula(formula)
        monkeypatch.setattr(datasets, "parse_formula", counting)
        records = generate_synthetic_corpus(20, seed=4, task="regression")
        assert calls == [r.formula for r in records]

    def test_validator_confirms_generator(self):
        for record in generate_synthetic_corpus(100, seed=9, task="lpp"):
            assert record.validation_warnings() == []


class TestKbCorpus:
    def test_230_records(self):
        records = kb_corpus()
        assert len(records) == 230
        assert [r.spacegroup for r in records] == list(range(1, 231))
