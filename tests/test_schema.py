"""The informatics schema: every field of ``INFO_SCHEMA`` through the
dataset files, the ``tokenize`` flags and the tokenizer."""

import json

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
    quantize_informatics,
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
    seq = tokenize_crystal(1, parse_formula("C6H6"), info, vocab)
    payload = json.loads(capsys.readouterr().out)
    assert payload["ids"] == list(seq.ids)
    assert payload["categories"][13] == name


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
        rows = [("Si", 1, ""), ("Si", 1, self.value(name))]
        path = tmp_path / f"data{suffix}"
        if suffix == ".csv":
            path.write_text(f"formula,spacegroup,{column}\n" + "".join(
                f"{f},{g},{v}\n" for f, g, v in rows))
        else:
            path.write_text("".join(json.dumps(
                {"formula": f, "spacegroup": g, column: v}) + "\n"
                for f, g, v in rows))
        with pytest.raises(DatasetError, match=f"1 invalid rows: line {line}:"):
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
