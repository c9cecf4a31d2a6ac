"""End-to-end command-line surface: outputs, files, exit codes, determinism."""

import json

import numpy as np
import pytest

from crysgram import cli
from crysgram.cli import main
from crysgram.datasets import (
    CrystalRecord,
    generate_synthetic_corpus,
    write_dataset,
)
from crysgram.porosity import (
    PeriodicStructure,
    default_radius_table,
    save_structure,
)
from crysgram.porosity.gpa import MAX_GRID_POINTS
from crysgram.tokens import (
    UNK_ID,
    ElementEmbeddingTable,
    InformaticsFields,
    build_vocabulary,
    tokenize_crystal,
)
from crysgram.training import loop


@pytest.fixture
def capsysbytes(capsys):
    return capsys


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def regression_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "regression.csv"
    write_dataset(generate_synthetic_corpus(48, seed=21, task="regression"),
                  path)
    return str(path)


@pytest.fixture(scope="module")
def finetuned(tmp_path_factory, regression_csv):
    out = tmp_path_factory.mktemp("run") / "ft"
    code = main(["finetune", "--data", regression_csv, "--out", str(out),
                 "--epochs", "2", "--split", "ratio:0.8,0.2",
                 "--seed", "3", "--lr", "1e-3"])
    assert code == 0
    return out


class TestLookup:
    def test_lookup_225_matches_published_listing(self, capsys):
        code, out, _ = run(capsys, "lookup", "225")
        assert code == 0
        for token in ("F4/m-32/m", "225", "192", "m-3m", "cubic",
                      "Centrosymmetric", "non-polar"):
            assert token in out

    def test_lookup_out_of_range_exits_2(self, capsys):
        code, _, err = run(capsys, "lookup", "0")
        assert code == 2
        assert "230" in err

    def test_lookup_json(self, capsys):
        code, out, _ = run(capsys, "lookup", "14", "--format", "json")
        payload = json.loads(out)
        assert payload["short_symbol"] == "P21/c"
        assert len(payload["tokens"]) == 12


class TestParseFormula:
    def test_fractions(self, capsys):
        code, out, _ = run(capsys, "parse-formula", "Fe2O3")
        assert code == 0
        assert "Fe" in out and "0.4" in out and "0.6" in out

    def test_bad_formula_exits_2(self, capsys):
        code, _, _ = run(capsys, "parse-formula", "Xz3")
        assert code == 2

    def test_usage_error_exits_1(self, capsys):
        code, _, _ = run(capsys, "parse-formula")
        assert code == 1


class TestTokenize:
    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "tokenize", "--spacegroup", "225",
                           "--formula", "NaCl")
        assert code == 0
        assert "[CLS]" in out and "cubic" in out

    def test_with_informatics(self, capsys):
        code, out, _ = run(capsys, "tokenize", "--spacegroup", "1",
                           "--formula", "C6H6", "--topology", "pcu.cat0",
                           "--volume", "1234.5", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert "pcu.cat0" in payload["labels"]
        assert len(payload["ids"]) == 1 + 12 + 2 + 20

    def test_value_the_vocabulary_lacks_is_labelled_unk(self, capsys,
                                                         tmp_path):
        vocab = tmp_path / "vocab.txt"
        build_vocabulary(info_layout=("topology",)).save(vocab)
        code, out, _ = run(capsys, "tokenize", "--spacegroup", "1",
                           "--formula", "C6H6", "--topology", "pcu",
                           "--vocab", str(vocab), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ids"][13] == UNK_ID == 4
        assert payload["labels"][13] == "[UNK]"

    @pytest.mark.parametrize("line,message", [
        ("5\tnot_a_category\tP1", "unknown token categories"),
        ("5\tfull_symbol\tP1\textra", "line 11: 4 tab-separated fields"),
        ("x\tfull_symbol\tP1", "line 11: token id is not an integer")])
    def test_damaged_vocabulary_exits_2_naming_file_and_fault(
            self, capsys, tmp_path, line, message):
        vocab = tmp_path / "vocab.txt"
        text = build_vocabulary().to_text().replace("5\tfull_symbol\tP1\n",
                                                    line + "\n")
        vocab.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "tokenize", "--spacegroup", "1",
                             "--formula", "Si", "--vocab", str(vocab))
        assert code == 2
        assert out == ""
        assert f"error: {vocab}: " in err and message in err

    @pytest.mark.parametrize("prefix, line, message", [
        ("!atom_count_max\t", "!atom_count_max\tabc",
         "line 3: !atom_count_max is not an integer"),
        ("!volume_edges\t", "!volume_edges\t0x1p0,zz",
         "line 5: !volume_edges holds a non-hex float")])
    def test_unreadable_vocabulary_header_exits_2_naming_the_line(
            self, capsys, tmp_path, prefix, line, message):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(
            line if old.startswith(prefix) else old
            for old in build_vocabulary().to_text().split("\n")),
            encoding="utf-8")
        code, out, err = run(capsys, "tokenize", "--spacegroup", "1",
                             "--formula", "Si", "--vocab", str(vocab))
        assert code == 2
        assert out == ""
        assert f"error: {vocab}: {message}" in err


class TestPorosity:
    def test_fixture_values(self, capsys, tmp_path):
        path = tmp_path / "sphere.json"
        save_structure(PeriodicStructure(
            lattice=np.eye(3) * 10.0,
            sites=[("X", np.array([0.5, 0.5, 0.5]))],
            radius_overrides={"X": 2.0}), path)
        code, out, _ = run(capsys, "porosity", str(path), "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["phi_void_percent"] - 96.65) < 0.3
        assert abs(payload["phi_accessible_percent"] - 86.27) < 0.5
        assert payload["grid_dims"] == [50, 50, 50]

    def test_defaults_match_recommended_settings(self, capsys, tmp_path):
        parser_defaults = {"rho_grid": 5.0, "r_probe": 1.2}
        from crysgram.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(["porosity", "x.json"])
        assert args.rho_grid == parser_defaults["rho_grid"]
        assert args.r_probe == parser_defaults["r_probe"]

    def test_probe_zero_no_floodfill_equalizes(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        save_structure(PeriodicStructure(
            lattice=np.eye(3) * 6.0,
            sites=[("C", np.array([0.25, 0.25, 0.25]))]), path)
        code, out, _ = run(capsys, "porosity", str(path), "--r-probe", "0",
                           "--no-floodfill", "--rho-grid", "3",
                           "--format", "json")
        payload = json.loads(out)
        assert payload["phi_void_percent"] == payload["phi_accessible_percent"]

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "porosity", "no-such-file.json")
        assert code == 2

    @pytest.mark.parametrize("lattice, site, message", [
        ([10, 0, 0, 0, 10, 0, float("nan"), 0, 10], [0.5, 0.5, 0.5],
         "lattice entries"),
        ([10, 0, 0, 0, 10, 0, 0, 0, float("inf")], [0.5, 0.5, 0.5],
         "lattice entries"),
        ([10, 0, 0, 0, 10, 0, 0, 0, 10], [0.5, float("nan"), 0.5],
         "site 0"),
    ])
    def test_non_finite_structure_exits_2(self, capsys, tmp_path, lattice,
                                          site, message):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"lattice": lattice,
                                    "sites": [["C", *site]]}))
        code, out, err = run(capsys, "porosity", str(path), "--rho-grid", "1")
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("option, value, message", [
        ("--r-probe", "nan", "probe radius"),
        ("--r-probe", "inf", "probe radius"),
        ("--rho-grid", "1e300", "does not fit"),
        # 2.16e17 points: refused before the field is allocated
        ("--rho-grid", "1e5", f"at most {MAX_GRID_POINTS}"),
        ("--rho-grid", "inf", "grid density"),
        ("--rho-grid", "nan", "grid density"),
    ])
    def test_non_finite_probe_or_grid_exits_2(self, capsys, tmp_path, option,
                                              value, message):
        path = tmp_path / "s.json"
        save_structure(PeriodicStructure(
            lattice=np.eye(3) * 6.0,
            sites=[("C", np.array([0.25, 0.25, 0.25]))]), path)
        code, out, err = run(capsys, "porosity", str(path), option, value)
        assert code == 2
        assert out == ""
        assert message in err

    def test_probe_far_past_the_cell_reports_no_access(self, capsys,
                                                         tmp_path):
        # stamped at most to the 15 A reach cap, not over 1e13 A boxes
        path = tmp_path / "s.json"
        save_structure(PeriodicStructure(
            lattice=np.eye(3) * 10.0,
            sites=[("C", np.array([0.1, 0.2, 0.3]))]), path)
        code, out, _ = run(capsys, "porosity", str(path), "--r-probe", "1e13",
                           "--rho-grid", "0.5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n_accessible"] == 0
        assert payload["n_total"] == 125

    def test_nan_radius_override_exits_2(self, capsys, tmp_path):
        path, radii = tmp_path / "s.json", tmp_path / "radii.txt"
        save_structure(PeriodicStructure(
            lattice=np.eye(3) * 6.0,
            sites=[("C", np.array([0.25, 0.25, 0.25]))]), path)
        radii.write_text("C nan\n")
        code, out, err = run(capsys, "porosity", str(path), "--radii",
                             str(radii), "--rho-grid", "2")
        assert code == 2
        assert out == ""
        assert "'C'" in err and "nan" in err

    def test_malformed_radius_file_exits_2(self, capsys, tmp_path):
        path, radii = tmp_path / "s.json", tmp_path / "radii.txt"
        save_structure(PeriodicStructure(
            lattice=np.eye(3) * 6.0,
            sites=[("C", np.array([0.25, 0.25, 0.25]))]), path)
        radii.write_text("# symbol radius\nC 1.7\nZn 1.2 extra\n")
        code, out, err = run(capsys, "porosity", str(path), "--radii",
                             str(radii), "--rho-grid", "2")
        assert code == 2
        assert out == ""
        assert f"{radii}:3" in err

    def test_partial_radius_file_overrides_the_bundled_table(self, capsys,
                                                              tmp_path):
        path = tmp_path / "s.json"
        save_structure(PeriodicStructure(
            lattice=np.eye(3) * 8.0,
            sites=[("C", np.array([0.25, 0.25, 0.25])),
                   ("Zn", np.array([0.75, 0.5, 0.5]))]), path)
        partial, full = tmp_path / "partial.txt", tmp_path / "full.txt"
        partial.write_text("Zn 2.5\n")
        table = {**default_radius_table(), "Zn": 2.5}
        full.write_text("".join(f"{s} {r!r}\n" for s, r in table.items()))
        outputs = []
        for radii in ((), ("--radii", str(partial)), ("--radii", str(full))):
            code, out, err = run(capsys, "porosity", str(path), *radii,
                                 "--rho-grid", "3", "--format", "json")
            assert code == 0, err
            outputs.append(json.loads(out))
        bundled, partial_out, full_out = outputs
        assert partial_out == full_out
        assert partial_out["phi_void_percent"] < bundled["phi_void_percent"]


class TestTrainingCommands:
    def test_pretrain_writes_metrics_lines(self, capsys, tmp_path):
        out = tmp_path / "run"
        code, stdout, _ = run(capsys, "pretrain", "--data", "kb-corpus",
                              "--objective", "mlm", "--epochs", "5",
                              "--out", str(out), "--seed", "1")
        assert code == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 6  # header + 5 epochs
        assert (out / "checkpoint.ckpt").exists()
        assert (out / "manifest.json").exists()
        assert (out / "vocab.txt").exists()

    def test_finetune_kfold_emits_five_maes(self, capsys, regression_csv,
                                            tmp_path):
        code, stdout, _ = run(capsys, "finetune", "--data", regression_csv,
                              "--out", str(tmp_path / "cv"),
                              "--split", "kfold5", "--epochs", "1")
        assert code == 0
        payload = json.loads(stdout)
        assert len(payload["folds"]) == 5
        assert "mean_mae" in payload and "std_mae" in payload

    def test_predict_writes_one_line_per_record(self, capsys, finetuned,
                                                regression_csv, tmp_path):
        out_file = tmp_path / "predictions.csv"
        code, _, _ = run(capsys, "predict",
                         "--checkpoint", str(finetuned / "checkpoint.ckpt"),
                         "--data", regression_csv, "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert len(lines) == 49  # header + 48 records

    def test_evaluate_reports_mae(self, capsys, finetuned, regression_csv):
        code, stdout, _ = run(capsys, "evaluate",
                              "--checkpoint", str(finetuned / "checkpoint.ckpt"),
                              "--data", regression_csv)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["n_records"] == 48
        assert payload["mae"] >= 0

    def test_predict_on_an_unknown_suffix_exits_2(self, capsys, finetuned,
                                                  tmp_path):
        data = tmp_path / "x.txt"
        data.write_text("id,formula,spacegroup\nr1,Si,1\n")
        code, _, err = run(capsys, "predict",
                           "--checkpoint", str(finetuned / "checkpoint.ckpt"),
                           "--data", str(data))
        assert code == 2, err
        assert ".csv, .tsv, .jsonl or .ndjson" in err

    def test_config_file_with_cli_override(self, capsys, tmp_path,
                                           regression_csv):
        config_path = tmp_path / "config.json"
        from crysgram.training import TrainConfig
        config_path.write_text(TrainConfig(
            objective="regression", epochs=7, split="ratio:0.8,0.2",
            learning_rate=1e-3).to_json())
        out = tmp_path / "run"
        code, _, _ = run(capsys, "finetune", "--data", regression_csv,
                         "--out", str(out), "--config", str(config_path),
                         "--epochs", "1")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 1  # CLI wins over config

    def test_bad_config_exits_2(self, capsys, tmp_path, regression_csv):
        config_path = tmp_path / "bad.json"
        config_path.write_text('{"config_version": 1, "objective": "bogus"}')
        code, _, _ = run(capsys, "finetune", "--data", regression_csv,
                         "--out", str(tmp_path / "x"),
                         "--config", str(config_path))
        assert code == 2

    @pytest.mark.parametrize("config, flags", [
        ({"dtype": "int32"}, ()),
        ({}, ("--dropout", "1.0")),
        ({}, ("--dropout", "-0.5"))])
    def test_out_of_range_setting_exits_2(self, capsys, tmp_path,
                                          regression_csv, config, flags):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"config_version": 1, **config}))
        out = tmp_path / "x"
        code, _, err = run(capsys, "finetune", "--data", regression_csv,
                           "--out", str(out), "--config", str(config_path),
                           "--epochs", "1", *flags)
        assert code == 2, err
        assert "dtype" in err or "dropout" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, field", [("--weight-decay", "weight_decay"),
                                             ("--lambda-mlm", "lambda_mlm")])
    def test_negative_weight_decay_or_lambda_exits_2(self, capsys, tmp_path,
                                                     flag, field):
        data = tmp_path / "lpp.csv"
        write_dataset(generate_synthetic_corpus(16, seed=5, task="lpp"), data)
        out = tmp_path / "x"
        code, _, err = run(capsys, "pretrain", "--data", str(data),
                           "--objective", "mlm+lpp", "--out", str(out),
                           "--epochs", "1", flag, "-1")
        assert code == 2, err
        assert field in err
        assert not out.exists()


    @pytest.mark.parametrize("flags, message", [
        (("--patience", "-1"), "early_stopping_patience"),
        (("--patience", "1", "--split", "ratio:0.8,0.2"), "validation split"),
        (("--patience", "1", "--split", "kfold3"), "validation split")])
    def test_patience_that_cannot_act_exits_2(self, capsys, tmp_path,
                                              regression_csv, flags, message):
        out = tmp_path / "x"
        code, _, err = run(capsys, "finetune", "--data", regression_csv,
                           "--out", str(out), "--epochs", "1", *flags)
        assert code == 2, err
        assert message in err
        assert not out.exists()

    def test_pretrain_patience_from_config_exits_2(self, capsys, tmp_path,
                                                   regression_csv):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"config_version": 1,
                                           "objective": "mlm",
                                           "early_stopping_patience": 1}))
        out = tmp_path / "x"
        code, _, err = run(capsys, "pretrain", "--data", regression_csv,
                           "--out", str(out), "--config", str(config_path),
                           "--epochs", "1")
        assert code == 2, err
        assert "early_stopping_patience" in err
        assert not out.exists()

    def test_empty_training_split_exits_2(self, capsys, tmp_path):
        data = tmp_path / "three.csv"
        write_dataset(generate_synthetic_corpus(3, seed=21,
                                                task="regression"), data)
        out = tmp_path / "x"
        code, _, err = run(capsys, "finetune", "--data", str(data),
                           "--out", str(out), "--epochs", "1",
                           "--split", "ratio:0.1,0.45,0.45")
        assert code == 2, err
        assert "zero rows" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value, field, expected", [
        ("pretrain", "--objective", "lpp", "objective", "lpp"),
        ("pretrain", "--preset", "paper", "preset", "paper"),
        ("pretrain", "--epochs", "3", "epochs", 3),
        ("finetune", "--batch-size", "5", "batch_size", 5),
        ("finetune", "--lr", "0.25", "learning_rate", 0.25),
        ("pretrain", "--weight-decay", "0.5", "weight_decay", 0.5),
        ("finetune", "--warmup-fraction", "0.5", "warmup_fraction", 0.5),
        ("pretrain", "--masking-ratio", "0.5", "masking_ratio", 0.5),
        ("pretrain", "--lambda-mlm", "0.5", "lambda_mlm", 0.5),
        ("finetune", "--seed", "11", "seed", 11),
        ("finetune", "--split", "kfold3", "split", "kfold3"),
        ("finetune", "--patience", "4", "early_stopping_patience", 4),
        ("pretrain", "--info-layout", "topology,,atom_count", "info_layout",
         ("topology", "atom_count")),
        ("finetune", "--dropout", "0.5", "dropout", 0.5),
        ("pretrain", "--dtype", "float64", "dtype", "float64")])
    def test_config_key_flag_sets_its_field(self, command, flag, value,
                                            field, expected):
        args = cli.build_parser().parse_args(
            [command, "--data", "d.csv", "--out", "o", flag, value])
        config = cli._train_config(args, default_objective="mlm")
        assert getattr(config, field) == expected
        assert getattr(cli.TrainConfig(objective="mlm"), field) != expected

    @pytest.mark.parametrize("command, flag, value", [
        ("pretrain", "--split", "kfold5"),
        ("pretrain", "--patience", "2"),
        ("finetune", "--masking-ratio", "0.5"),
        ("finetune", "--lambda-mlm", "0.5"),
        ("finetune", "--objective", "mlm"),
        ("pretrain", "--objective", "regression")])
    def test_flag_the_command_ignores_exits_1(self, capsys, tmp_path,
                                              regression_csv, command, flag,
                                              value):
        out = tmp_path / "x"
        code, _, err = run(capsys, command, "--data", regression_csv,
                           "--out", str(out), "--epochs", "1", flag, value)
        assert code == 1
        assert flag in err
        assert not out.exists()


class TestRunRoundTrip:
    @pytest.mark.parametrize("split, run_dir", [("ratio:0.8,0.2", "."),
                                                ("kfold5", "fold0")])
    def test_finetune_output_loads_in_every_reader(self, capsys, tmp_path,
                                                   regression_csv, split,
                                                   run_dir):
        out = tmp_path / "ft"
        code, _, err = run(capsys, "finetune", "--data", regression_csv,
                           "--out", str(out), "--split", split,
                           "--epochs", "1")
        assert code == 0, err
        checkpoint = str(out / run_dir / "checkpoint.ckpt")
        for command in (["predict"], ["evaluate"],
                        ["export", "cls-embeddings"]):
            code, stdout, err = run(capsys, *command, "--checkpoint",
                                    checkpoint, "--data", regression_csv)
            assert code == 0, f"{command}: {err}"
            assert stdout

    def test_kfold_writes_one_run_per_fold(self, capsys, tmp_path,
                                           regression_csv):
        out = tmp_path / "cv"
        code, _, _ = run(capsys, "finetune", "--data", regression_csv,
                         "--out", str(out), "--split", "kfold5",
                         "--epochs", "1")
        assert code == 0
        assert not (out / "checkpoint.ckpt").exists()
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "fold,test_mae" and len(lines) == 6
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["checkpoints"] == [
            str(out / f"fold{k}" / "checkpoint.ckpt") for k in range(5)]
        for k in range(5):
            for name in ("checkpoint.ckpt", "vocab.txt", "metrics.csv",
                         "predictions.csv", "manifest.json"):
                assert (out / f"fold{k}" / name).exists()

    def test_narrow_element_table_round_trip(self, capsys, tmp_path,
                                             regression_csv):
        table = tmp_path / "elements.txt"
        ElementEmbeddingTable.deterministic(dimension=50).save(table)
        flag = ("--element-embeddings", str(table))
        pre, ft = tmp_path / "pre", tmp_path / "ft"
        for argv in (["pretrain", "--out", str(pre)],
                     ["finetune", "--out", str(tmp_path / "scratch")],
                     ["finetune", "--out", str(ft), "--checkpoint",
                      str(pre / "checkpoint.ckpt")]):
            code, _, err = run(capsys, *argv, "--data", regression_csv,
                               "--epochs", "1", *flag)
            assert code == 0, f"{argv}: {err}"
        predict = ("predict", "--checkpoint", str(ft / "checkpoint.ckpt"),
                   "--data", regression_csv)
        code, stdout, err = run(capsys, *predict, *flag)
        assert code == 0, err
        assert stdout
        code, _, err = run(capsys, *predict)
        assert code == 2
        assert "201" in err and "51" in err


class TestNonFinite:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_finetune_exits_3(self, capsys, tmp_path,
                                          regression_csv):
        out = tmp_path / "ft"
        code, _, err = run(capsys, "finetune", "--data", regression_csv,
                           "--out", str(out), "--split", "ratio:0.8,0.2",
                           "--epochs", "3", "--batch-size", "8",
                           "--lr", "1e30")
        assert code == 3
        assert "non-finite training step at epoch 0, global step" in err
        assert "first non-finite gradient" in err
        assert not (out / "checkpoint.ckpt").exists()


class TestExport:
    def test_attention_export_shapes(self, capsys, finetuned, regression_csv,
                                     tmp_path):
        out_file = tmp_path / "attention.json"
        code, _, _ = run(capsys, "export", "attention",
                         "--checkpoint", str(finetuned / "checkpoint.ckpt"),
                         "--data", regression_csv, "--layer", "-1",
                         "--out", str(out_file))
        assert code == 0
        payload = json.loads(out_file.read_text())
        (key,) = payload["layers"].keys()
        arr = np.asarray(payload["layers"][key])
        assert arr.shape == (4, 33, 33)  # desk preset heads, L = 33
        assert len(payload["token_labels"]) == 33

    def test_attention_export_of_a_later_record(self, capsys, finetuned,
                                                regression_csv, tmp_path):
        out_file = tmp_path / "attention.json"
        code, _, _ = run(capsys, "export", "attention",
                         "--checkpoint", str(finetuned / "checkpoint.ckpt"),
                         "--data", regression_csv, "--layer", "-1",
                         "--record-id", "syn-regression-21-00004",
                         "--out", str(out_file))
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["record_id"] == "syn-regression-21-00004"
        assert payload["n_heads"] == 4
        assert list(payload["layers"]) == ["1"]  # desk preset: 2 layers
        assert len(payload["attention_mask"]) == 33
        assert {"K", "Sr"} <= set(payload["token_labels"])

    def test_attention_export_tokenizes_one_record(self, capsys, finetuned,
                                                   regression_csv, tmp_path,
                                                   monkeypatch):
        records, calls = [], []
        load_records = cli._load_records

        def loading(path):
            records.extend(load_records(path))
            return records

        def counting(sg, composition, *args):
            # the record whose parsed formula this call tokenizes
            calls.append(next(r.id for r in records
                              if r.composition is composition))
            return tokenize_crystal(sg, composition, *args)

        monkeypatch.setattr(cli, "_load_records", loading)
        monkeypatch.setattr(loop, "tokenize_crystal", counting)
        code, _, _ = run(capsys, "export", "attention",
                         "--checkpoint", str(finetuned / "checkpoint.ckpt"),
                         "--data", regression_csv,
                         "--record-id", "syn-regression-21-00004",
                         "--out", str(tmp_path / "attention.json"))
        assert code == 0
        assert calls == ["syn-regression-21-00004"]

    def test_attention_export_labels_a_value_the_vocabulary_lacks_unk(
            self, capsys, tmp_path):
        def dataset(name, topology):
            path = tmp_path / name
            write_dataset([CrystalRecord(
                id=name, formula="NaCl", spacegroup=225,
                informatics=InformaticsFields(topology=topology))], path)
            return str(path)

        out = tmp_path / "run"
        code, _, _ = run(capsys, "pretrain", "--data",
                         dataset("seen.jsonl", "pcu"), "--epochs", "0",
                         "--info-layout", "topology", "--out", str(out))
        assert code == 0
        code, stdout, _ = run(capsys, "export", "attention", "--checkpoint",
                              str(out / "checkpoint.ckpt"), "--data",
                              dataset("unseen.jsonl", "dia"))
        assert code == 0
        labels = json.loads(stdout)["token_labels"]
        assert labels[:3] == ["[CLS]", "F4/m-32/m", "225"]
        assert labels[13:16] == ["[UNK]", "Na", "Cl"]

    def test_attention_export_of_an_empty_dataset_exits_2(
            self, capsys, finetuned, regression_csv, tmp_path):
        empty = tmp_path / "empty.csv"
        with open(regression_csv, encoding="utf-8", newline="") as fh:
            empty.write_text(fh.readline(), encoding="utf-8", newline="")
        code, _, err = run(capsys, "export", "attention",
                           "--checkpoint", str(finetuned / "checkpoint.ckpt"),
                           "--data", str(empty))
        assert code == 2 and "no record" in err

    def test_cls_export_one_row_per_record(self, capsys, finetuned,
                                           regression_csv, tmp_path):
        out_file = tmp_path / "cls.csv"
        code, _, _ = run(capsys, "export", "cls-embeddings",
                         "--checkpoint", str(finetuned / "checkpoint.ckpt"),
                         "--data", regression_csv, "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert len(lines) == 48
        assert len(lines[0].split(",")) == 1 + 64  # id + d_model values

    def test_export_byte_identical_reruns(self, capsys, finetuned,
                                          regression_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(capsys, "export", "attention",
                             "--checkpoint", str(finetuned / "checkpoint.ckpt"),
                             "--data", regression_csv, "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestHelp:
    # each training command lists the config keys it reads, and only those
    KEYS = {"pretrain": ("objective", "masking_ratio", "lambda_mlm"),
            "finetune": ("split", "early_stopping_patience")}

    def test_help_lists_config_keys(self, capsys):
        for command, other in (("pretrain", "finetune"),
                               ("finetune", "pretrain")):
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            for key in ("learning_rate", "warmup_fraction",
                        *self.KEYS[command]):
                assert key in out
            for key in self.KEYS[other]:
                assert key not in out
