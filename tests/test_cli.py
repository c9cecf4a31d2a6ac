"""End-to-end command-line surface: outputs, files, exit codes, determinism."""

import json

import numpy as np
import pytest

from crysgram.cli import main
from crysgram.datasets import generate_synthetic_corpus, write_dataset
from crysgram.porosity import PeriodicStructure, save_structure
from crysgram.tokens import tokenize_crystal
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
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("provenance"))
            return tokenize_crystal(*args, **kwargs)

        monkeypatch.setattr(loop, "tokenize_crystal", counting)
        code, _, _ = run(capsys, "export", "attention",
                         "--checkpoint", str(finetuned / "checkpoint.ckpt"),
                         "--data", regression_csv,
                         "--record-id", "syn-regression-21-00004",
                         "--out", str(tmp_path / "attention.json"))
        assert code == 0
        assert calls == ["syn-regression-21-00004"]

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
    def test_help_lists_config_keys(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pretrain", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for key in ("learning_rate", "masking_ratio", "warmup_fraction",
                    "lambda_mlm", "early_stopping_patience"):
            assert key in out
