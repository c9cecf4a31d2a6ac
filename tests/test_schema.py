"""The informatics schema: every field of ``INFO_SCHEMA`` through the
dataset files, the ``tokenize`` flags and the tokenizer."""

import json
import re

import pytest

from crysgram.cli import main
from crysgram.datasets import (
    COLUMNS,
    CrystalRecord,
    load_dataset,
    write_dataset,
)
from crysgram.errors import DatasetError, VocabularyError
from crysgram.grammar import parse_formula
from crysgram.tokens import (
    INFO_SCHEMA,
    InformaticsBinning,
    InformaticsFields,
    build_vocabulary,
    TokenVocabulary,
    quantize_informatics,
    sequence_categories,
    tokenize_crystal,
)
from crysgram.tokens.vocab import COUNT, PERCENT, TEXT, VOLUME

# one value each kind takes, and for a binned kind one it refuses
VALID = {TEXT: "pcu.cat0", VOLUME: 4823.5, COUNT: 112, PERCENT: 61.2}
INVALID = {VOLUME: float("inf"), COUNT: 0, PERCENT: 101.0}
FIELDS = list(INFO_SCHEMA)
BINNED = [name for name, spec in INFO_SCHEMA.items() if spec.kind in INVALID]


def flag(name):
    return "--" + INFO_SCHEMA[name].column.replace("_", "-")


def test_columns_and_flags_keep_their_names(capsys):
    assert ",".join(COLUMNS) == (
        "id,formula,spacegroup,topology,volume,natoms,porosity,"
        "acc_porosity,organic_cation,a,b,c,alpha,beta,gamma,target,"
        "target_unit")
    assert [flag(name) for name in FIELDS] == [
        "--topology", "--volume", "--natoms", "--porosity", "--acc-porosity",
        "--organic-cation"]
    with pytest.raises(SystemExit):
        main(["tokenize", "--help"])
    tokenize_help = capsys.readouterr().out
    for name in FIELDS:
        assert f"[{flag(name)} " in tokenize_help


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
@pytest.mark.parametrize("name", FIELDS)
def test_value_round_trips_through_dataset_files(tmp_path, name, suffix):
    value = VALID[INFO_SCHEMA[name].kind]
    record = CrystalRecord(id="r1", formula="Si", spacegroup=1,
                           informatics=InformaticsFields(**{name: value}))
    path = tmp_path / f"data{suffix}"
    write_dataset([record], path)
    (again,) = load_dataset(path)
    assert again.informatics == record.informatics
    assert type(getattr(again.informatics, name)) is type(value)


@pytest.mark.parametrize("name", FIELDS)
def test_tokenize_flag_matches_tokenize_crystal(capsys, name):
    value = VALID[INFO_SCHEMA[name].kind]
    code = main(["tokenize", "--spacegroup", "1", "--formula", "C6H6",
                 flag(name), str(value), "--format", "json"])
    assert code == 0
    info = InformaticsFields(**{name: value})
    vocab = build_vocabulary(datasets=[info],
                             info_layout=info.present_fields())
    ids = tokenize_crystal(1, parse_formula("C6H6"), info, vocab)
    payload = json.loads(capsys.readouterr().out)
    assert payload["ids"] == list(ids)
    assert payload["labels"] == [vocab.token_at(i)[1] for i in ids]
    assert payload["categories"] == list(
        sequence_categories(vocab.info_layout))
    assert payload["categories"][13] == name


def write_column(path, column, values):
    """A dataset of one Si record per value, ``column`` holding the value
    (blank for ""); the record lines are 1, 2, ... in a .jsonl file and
    2, 3, ... in a .csv file, after its header."""
    if path.suffix == ".csv":
        path.write_text(f"formula,spacegroup,{column}\n" + "".join(
            f"Si,1,{v}\n" for v in values))
    else:
        path.write_text("".join(json.dumps(
            {"formula": "Si", "spacegroup": 1, column: v}) + "\n"
            for v in values))


@pytest.mark.parametrize("name", BINNED)
class TestInvalidValueRefused:
    def value(self, name):
        return INVALID[INFO_SCHEMA[name].kind]

    def test_by_the_record(self, name):
        with pytest.raises(VocabularyError):
            InformaticsFields(**{name: self.value(name)})

    @pytest.mark.parametrize("suffix, line", [(".csv", 3), (".jsonl", 2)])
    def test_by_the_loader_naming_the_line(self, tmp_path, name, suffix,
                                           line):
        column = INFO_SCHEMA[name].column
        path = tmp_path / f"data{suffix}"
        write_column(path, column, ["", self.value(name)])
        with pytest.raises(DatasetError,
                           match=f"1 invalid rows: line {line}: {column}: "):
            load_dataset(path)

    def test_by_the_command_line(self, capsys, name):
        code = main(["tokenize", "--spacegroup", "1", "--formula", "Si",
                     flag(name), str(self.value(name))])
        assert code == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name, value", [
    ("unit_cell_volume", float("inf")), ("unit_cell_volume", float("nan")),
    ("atom_count", 2.5), ("porosity_fraction", float("nan"))])
def test_record_refuses_what_quantizing_refuses(name, value):
    # one rule set: a record is never built with a value that cannot be
    # tokenized
    binning = InformaticsBinning.from_observations()
    with pytest.raises(VocabularyError):
        quantize_informatics(value, name, binning)
    with pytest.raises(VocabularyError):
        InformaticsFields(**{name: value})


@pytest.mark.parametrize("suffix, line", [(".csv", 2), (".jsonl", 1)])
@pytest.mark.parametrize("column, value, message", [
    ("porosity", 101, "porosity_fraction must lie in [0, 100]: 101"),
    ("natoms", 0, "atom count must be a positive integer: 0"),
    ("volume", -1, "unit cell volume must be positive: -1")])
def test_loader_range_error_names_the_column(tmp_path, suffix, line, column,
                                             value, message):
    path = tmp_path / f"data{suffix}"
    write_column(path, column, [value])
    with pytest.raises(DatasetError, match=re.escape(
            f"line {line}: {column}: {message}")):
        load_dataset(path)


def test_loader_reads_a_row_before_checking_its_values(tmp_path):
    # the range error comes first in the row, the type error later; the
    # record type checks values only once every cell has been read
    path = tmp_path / "data.csv"
    path.write_text("formula,spacegroup,volume,natoms\nSi,1,-1,x\n")
    with pytest.raises(DatasetError,
                       match=re.escape("line 2: natoms: 'x' is not an "
                                       "integer")):
        load_dataset(path)


TEXT_FIELDS = [name for name, spec in INFO_SCHEMA.items()
               if spec.kind == TEXT]
# a tab splits a vocab.txt line into columns; the others split it in two
NOT_ONE_LINE = ["pcu\tx", "pcu\nx", "pcu\r", "pcu\x1cx", "pcu\u2028x"]


@pytest.mark.parametrize("name", TEXT_FIELDS)
class TestTextValueStaysOnOneVocabularyLine:
    @pytest.mark.parametrize("value", NOT_ONE_LINE)
    def test_by_the_record(self, name, value):
        with pytest.raises(VocabularyError, match="no tab or line break"):
            InformaticsFields(**{name: value})

    def test_one_line_values_round_trip_through_the_vocabulary(self, name):
        info = InformaticsFields(**{name: "pcu x;y"})
        vocab = build_vocabulary(datasets=[info], info_layout=(name,))
        assert TokenVocabulary.from_text(vocab.to_text()) == vocab

    @pytest.mark.parametrize("value", ["pcu\tx", "pcu\nx"])
    def test_by_the_loader_naming_the_line(self, tmp_path, name, value):
        column = INFO_SCHEMA[name].column
        path = tmp_path / "data.jsonl"
        write_column(path, column, ["", value])
        with pytest.raises(DatasetError, match=re.escape(
                f"1 invalid rows: line 2: {column}: ")):
            load_dataset(path)

    def test_by_the_command_line(self, capsys, name):
        code = main(["tokenize", "--spacegroup", "1", "--formula", "Si",
                     flag(name), "pcu\tx"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no tab or line break" in captured.err
