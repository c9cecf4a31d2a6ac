"""Command-line entry point.

Subcommands: lookup, parse-formula, tokenize, porosity, pretrain,
finetune, evaluate, predict, export. Exit codes: 0 success, 1 usage
error, 2 validation/config error, 3 runtime failure (including a
non-finite loss or gradient in training). Logs go to stderr;
data goes to stdout or --out files.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CrysgramError, NonFiniteError
from .files import atomic_write
from .grammar import lookup_space_group, parse_formula
from .nn.export import export_attention
from .objectives import TargetScaler, encode_batch
from .porosity import (
    GridSpec,
    accessible_void_fraction,
    load_radius_table,
    load_structure,
)
from .tokens import (
    ElementEmbeddingTable,
    InformaticsFields,
    TokenVocabulary,
    build_vocabulary,
    tokenize_crystal,
)
from .training import (
    TrainConfig,
    encode_corpus,
    evaluate,
    finetune,
    format_predictions,
    load_pretrained,
    prepare_corpus,
    pretrain,
    write_predictions,
)

EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_RUNTIME = 0, 1, 2, 3


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def log(message):
    print(message, file=sys.stderr)


def emit(text, out=None):
    text = text if text.endswith("\n") else text + "\n"
    if out:
        with atomic_write(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- simple commands --------------------------------------------------------


def cmd_lookup(args):
    record = lookup_space_group(args.number)
    tokens = record.token_strings()
    if args.format == "json":
        payload = {
            "number": record.number,
            "tokens": list(tokens),
            "short_symbol": record.short_symbol,
        }
        emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
        return EXIT_OK
    names = ("full symbol", "number", "order", "point group",
             "crystal system", "laue class", "symmetry", "polarity",
             "centering", "directional 0", "directional 1", "directional 2")
    lines = [f"{i:>2}  {name:<14} {token}"
             for i, (name, token) in enumerate(zip(names, tokens))]
    emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_parse_formula(args):
    comp = parse_formula(args.formula)
    if args.format == "json":
        payload = {"elements": [{"symbol": s, "fraction": f}
                                for s, f in comp.items()],
                   "reduced_formula": comp.to_formula()}
        emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
        return EXIT_OK
    lines = [f"{symbol:<3} {fraction:.10g}" for symbol, fraction in comp.items()]
    emit("\n".join(lines), args.out)
    return EXIT_OK


def _informatics_from_args(args):
    return InformaticsFields(
        topology=args.topology,
        unit_cell_volume=args.volume,
        atom_count=args.natoms,
        porosity_fraction=args.porosity,
        accessible_void_fraction=args.acc_porosity,
        organic_cation=args.organic_cation,
    )


def cmd_tokenize(args):
    info = _informatics_from_args(args)
    if args.vocab:
        vocab = TokenVocabulary.load(args.vocab)
    else:
        vocab = build_vocabulary(datasets=[info],
                                 info_layout=info.present_fields())
    comp = parse_formula(args.formula)
    seq = tokenize_crystal(args.spacegroup, comp, info, vocab)
    if args.format == "json":
        payload = {"ids": list(seq.ids),
                   "labels": list(seq.token_labels),
                   "categories": list(seq.categories),
                   "attention_mask": list(seq.attention_mask)}
        emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
        return EXIT_OK
    lines = [f"{pos:>2}  {cat:<24} {label:<16} id={tid} mask={m}"
             for pos, (cat, label, tid, m)
             in enumerate(zip(seq.categories, seq.token_labels, seq.ids,
                              seq.attention_mask))]
    emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_porosity(args):
    structure = load_structure(args.structure)
    radius_table = load_radius_table(args.radii) if args.radii else None
    result = accessible_void_fraction(
        structure, GridSpec(args.rho_grid), r_probe=args.r_probe,
        flood_fill=not args.no_floodfill, radius_table=radius_table)
    payload = result.to_dict()
    if args.format == "json":
        emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
        return EXIT_OK
    emit("\n".join(f"{key}: {value}" for key, value in payload.items()),
         args.out)
    return EXIT_OK


# -- training commands ---------------------------------------------------------


_CONFIG_FLAGS = {
    # flag destination -> TrainConfig field (the config-file key)
    "objective": "objective",
    "preset": "preset",
    "epochs": "epochs",
    "batch_size": "batch_size",
    "lr": "learning_rate",
    "weight_decay": "weight_decay",
    "warmup_fraction": "warmup_fraction",
    "masking_ratio": "masking_ratio",
    "lambda_mlm": "lambda_mlm",
    "seed": "seed",
    "split": "split",
    "patience": "early_stopping_patience",
    "info_layout": "info_layout",
    "dropout": "dropout",
    "dtype": "dtype",
}


def _train_config(args, default_objective):
    if args.config:
        config = TrainConfig.from_json(Path(args.config).read_text())
    else:
        config = TrainConfig(objective=default_objective)
    overrides = {}
    for flag, field_name in _CONFIG_FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            if field_name == "info_layout":
                value = tuple(v for v in value.split(",") if v)
            overrides[field_name] = value
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _load_records(path):
    from .datasets import kb_corpus, load_dataset

    if path == "kb-corpus":
        return kb_corpus()
    return load_dataset(path)


def _element_table(args):
    if getattr(args, "element_embeddings", None):
        return ElementEmbeddingTable.from_file(args.element_embeddings)
    return ElementEmbeddingTable.deterministic()


def cmd_pretrain(args):
    config = _train_config(args, default_objective="mlm")
    records = _load_records(args.data)
    result = pretrain(records, config, table=_element_table(args),
                      out_dir=args.out, log=log)
    last = result.metrics[-1] if result.metrics else {}
    emit(json.dumps({"epochs": config.epochs,
                     "final": last,
                     "checkpoint": result.checkpoint_path},
                    indent=2, sort_keys=True))
    return EXIT_OK


def cmd_finetune(args):
    config = _train_config(args, default_objective="regression")
    if config.objective != "regression":
        config = dataclasses.replace(config, objective="regression")
    records = _load_records(args.data)
    table = _element_table(args)

    init_state = None
    vocab = None
    if args.checkpoint:
        vocab_path = args.vocab or str(Path(args.checkpoint).parent / "vocab.txt")
        vocab = TokenVocabulary.load(vocab_path)
        init_state, _ = load_pretrained(args.checkpoint, vocab=vocab)
    result = finetune(records, config, init_state=init_state, vocab=vocab,
                      table=table, out_dir=args.out, log=log)
    if result.fold_results:
        mean, std = result.fold_summary
        payload = {"folds": [{"fold": fr.fold, "test_mae": fr.test_mae}
                             for fr in result.fold_results],
                   "mean_mae": mean, "std_mae": std}
    else:
        payload = {"test_mae": result.test_mae}
    emit(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _load_checkpoint(args):
    """(encoder state, target scaler or None, vocabulary) of --checkpoint."""
    vocab_path = args.vocab or str(Path(args.checkpoint).parent / "vocab.txt")
    vocab = TokenVocabulary.load(vocab_path)
    state, header = load_pretrained(args.checkpoint, vocab=vocab)
    extra = header.get("extra", {})
    scaler = None
    if "target_scaler" in extra:
        scaler = TargetScaler.from_dict(extra["target_scaler"])
    return state, scaler, vocab


def _load_eval_bundle(args):
    state, scaler, vocab = _load_checkpoint(args)
    records = _load_records(args.data)
    corpus = prepare_corpus(records, vocab, _element_table(args))
    return state, scaler, corpus


def _predictions(args):
    """(MAE, predictions) of a finetuned checkpoint; writes --out if given."""
    state, scaler, corpus = _load_eval_bundle(args)
    if scaler is None:
        raise CrysgramError("checkpoint carries no target scaler; "
                            "run finetune first")
    mae, predictions = evaluate(state, corpus, scaler)
    if args.out:
        write_predictions(predictions, args.out)
    return mae, predictions


def cmd_evaluate(args):
    mae, predictions = _predictions(args)
    emit(json.dumps({"mae": mae, "n_records": len(predictions)},
                    indent=2, sort_keys=True))
    return EXIT_OK


def cmd_predict(args):
    _, predictions = _predictions(args)
    if not args.out:
        emit(format_predictions(predictions))
    return EXIT_OK


def cmd_export(args):
    if args.what == "attention":
        return _export_attention(args)

    state, _, corpus = _load_eval_bundle(args)
    # cls embeddings: one hidden row per record. The encoder runs through
    # this module's encode_batch, which the traced benchmark run wraps.
    lines = [record_id + "," + ",".join(map(repr, row))
             for batch, cls in encode_corpus(state, corpus,
                                             encode=encode_batch)
             for record_id, row in zip(batch.ids, np.asarray(
                 cls.data, dtype=np.float64).tolist())]
    emit("\n".join(lines), args.out)
    return EXIT_OK


def _export_attention(args):
    """Attention maps of the first record, or of --record-id. Every row
    of the dataset is read and validated; only that record is tokenized."""
    state, _, vocab = _load_checkpoint(args)
    records = _load_records(args.data)
    if not records:
        raise CrysgramError(f"{args.data}: no record to export")
    index = 0
    if args.record_id:
        ids = [record.id for record in records]
        if args.record_id not in ids:
            raise CrysgramError(f"record {args.record_id!r} not in dataset")
        index = ids.index(args.record_id)
    one = prepare_corpus(records[index:index + 1], vocab,
                         _element_table(args)).batch([0])
    _, _, attn = encode_batch(state, one.sequences, one.formula_matrices,
                              mode="eval", record_attention=True)
    layers = None if args.layer is None else [args.layer]
    document = export_attention(attn, layers=layers)
    document["record_id"] = one.ids[0]
    emit(json.dumps(document, sort_keys=True), args.out)
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def _add_format(parser):
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (machine-readable: json)")
    parser.add_argument("--out", help="write output to this file instead of "
                        "standard output")


def _add_train_flags(parser):
    parser.add_argument("--config", help="JSON config file; CLI flags "
                        "override config values")
    parser.add_argument("--objective", choices=("mlm", "lpp", "mlm+lpp",
                                                "regression"),
                        help="config key: objective")
    parser.add_argument("--preset", choices=("desk", "paper"),
                        help="config key: preset")
    parser.add_argument("--epochs", type=int, help="config key: epochs")
    parser.add_argument("--batch-size", type=int, dest="batch_size",
                        help="config key: batch_size")
    parser.add_argument("--lr", type=float, help="config key: learning_rate")
    parser.add_argument("--weight-decay", type=float, dest="weight_decay",
                        help="config key: weight_decay")
    parser.add_argument("--warmup-fraction", type=float,
                        dest="warmup_fraction",
                        help="config key: warmup_fraction")
    parser.add_argument("--masking-ratio", type=float, dest="masking_ratio",
                        help="config key: masking_ratio")
    parser.add_argument("--lambda-mlm", type=float, dest="lambda_mlm",
                        help="config key: lambda_mlm")
    parser.add_argument("--seed", type=int, help="config key: seed")
    parser.add_argument("--split", help="config key: split "
                        "(kfold5 or ratio:0.7,0.15,0.15)")
    parser.add_argument("--patience", type=int,
                        help="config key: early_stopping_patience")
    parser.add_argument("--info-layout", dest="info_layout",
                        help="config key: info_layout (comma-separated)")
    parser.add_argument("--dropout", type=float, help="config key: dropout")
    parser.add_argument("--dtype", choices=("float32", "float64"),
                        help="config key: dtype")
    parser.add_argument("--element-embeddings", dest="element_embeddings",
                        help="element embedding file (default: deterministic "
                        "surrogate table)")


def build_parser():
    parser = Parser(prog="crysgram",
                    description="Coordinate-free crystal tokenization, "
                    "transformer property regression, and porosity analysis")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("lookup", help="space-group knowledge-base lookup")
    p.add_argument("number", type=int)
    _add_format(p)
    p.set_defaults(fn=cmd_lookup)

    p = commands.add_parser("parse-formula",
                            help="stoichiometric formula to fractions")
    p.add_argument("formula")
    _add_format(p)
    p.set_defaults(fn=cmd_parse_formula)

    p = commands.add_parser("tokenize", help="token sequence for one crystal")
    p.add_argument("--spacegroup", type=int, required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--topology")
    p.add_argument("--volume", type=float)
    p.add_argument("--natoms", type=int)
    p.add_argument("--porosity", type=float)
    p.add_argument("--acc-porosity", type=float, dest="acc_porosity")
    p.add_argument("--organic-cation", dest="organic_cation")
    p.add_argument("--vocab", help="vocabulary file (default: build from "
                   "the knowledge base)")
    _add_format(p)
    p.set_defaults(fn=cmd_tokenize)

    p = commands.add_parser("porosity",
                            help="grid-point void fractions of a structure")
    p.add_argument("structure", help="JSON structure file (lattice + sites)")
    p.add_argument("--rho-grid", type=float, default=5.0, dest="rho_grid",
                   help="grid points per angstrom (default 5)")
    p.add_argument("--r-probe", type=float, default=1.2, dest="r_probe",
                   help="probe radius in angstrom (default 1.2)")
    p.add_argument("--no-floodfill", action="store_true",
                   help="count all probe-admissible points as accessible")
    p.add_argument("--radii", help="radius override file (element radius)")
    _add_format(p)
    p.set_defaults(fn=cmd_porosity)

    p = commands.add_parser("pretrain", help="train under mlm/lpp/mlm+lpp")
    p.add_argument("--data", required=True,
                   help="dataset path or 'kb-corpus'")
    p.add_argument("--out", required=True, help="output directory")
    _add_train_flags(p)
    p.set_defaults(fn=cmd_pretrain)

    p = commands.add_parser("finetune", help="property-regression finetuning")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", help="pretrained checkpoint to start from "
                   "(default: random initialization)")
    p.add_argument("--vocab", help="vocabulary file for the checkpoint")
    _add_train_flags(p)
    p.set_defaults(fn=cmd_finetune)

    for name, fn, help_text in (
            ("evaluate", cmd_evaluate, "MAE of a checkpoint on a dataset"),
            ("predict", cmd_predict, "per-record predictions")):
        p = commands.add_parser(name, help=help_text)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--vocab")
        p.add_argument("--out", help="predictions file")
        p.add_argument("--element-embeddings", dest="element_embeddings")
        p.set_defaults(fn=fn)

    p = commands.add_parser("export",
                            help="attention maps or [CLS] embeddings")
    p.add_argument("what", choices=("attention", "cls-embeddings"))
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab")
    p.add_argument("--record-id", dest="record_id",
                   help="record to export attention for (default: first)")
    p.add_argument("--layer", type=int,
                   help="layer index (negative counts from the end; "
                   "default: all layers)")
    p.add_argument("--out")
    p.add_argument("--element-embeddings", dest="element_embeddings")
    p.set_defaults(fn=cmd_export)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        log(f"usage error: {exc}")
        return EXIT_USAGE
    try:
        return args.fn(args)
    except NonFiniteError as exc:
        log(f"runtime failure: {exc}")
        return EXIT_RUNTIME
    except (CrysgramError, FileNotFoundError, json.JSONDecodeError,
            ValueError) as exc:
        log(f"error: {exc}")
        return EXIT_VALIDATION
    except KeyboardInterrupt:
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 3
        log(f"runtime failure: {type(exc).__name__}: {exc}")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
