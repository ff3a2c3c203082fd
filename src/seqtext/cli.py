"""Command-line front door: preprocess, train, evaluate, predict.

``preprocess`` takes the encoding settings --vocab-size and --max-len,
which the dataset keeps, and --train-fraction and --seed for the split;
--vocab reuses a vocabulary and its size in place of --vocab-size.
``train`` takes every option of the experiment configuration as a flag
with the same name (hyphen or underscore spelling both accepted); a
config file given with --config supplies defaults and explicit flags
win. Each run logs its
resolved settings to stderr before reading its input; the printout of
train, evaluate and predict is itself valid config-file syntax.

Exit codes: 0 success, 1 usage or configuration error (a split fraction
outside (0, 1) included), 2 data or file error (a class too small to
split, a line of predict's standard input that is not UTF-8 and a
standard output that closes early included), 3 numerical divergence
during training.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from dataclasses import replace
from itertools import islice

import numpy as np

from . import engine, metrics
from .config import SETTINGS, ExperimentConfig, parse_config_text, parse_config_value
from .errors import ConfigError, DataError, DivergenceError
from .model import forward, predict_classes
from .pipeline import (PipelineConfig, Vocabulary, clean, decoded, encode,
                       load_stopwords, read_lines)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this project reserves
    # 2 for data problems, so usage trouble becomes a ConfigError instead.
    def error(self, message):
        raise ConfigError(message)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _add_flag(p: argparse.ArgumentParser, name: str, **kwargs) -> None:
    """A flag under both spellings of ``name``: --hidden-size and --hidden_size."""
    spellings = dict.fromkeys(["--" + name.replace("_", "-"), "--" + name])
    p.add_argument(*spellings, dest=name, metavar="V", **kwargs)


def _merged_config(args) -> ExperimentConfig:
    values = {}
    if args.config:
        text = "".join(read_lines(args.config, ConfigError))
        values.update(parse_config_text(text, source=args.config))
    for name in SETTINGS:
        raw = getattr(args, name, None)
        if raw is not None:
            values[name] = parse_config_value(name, raw)
    return ExperimentConfig(**values)


def _print_resolved(lines: str) -> None:
    _log("resolved configuration:")
    for line in lines.splitlines():
        _log("  " + line)


def _out_path(args, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _cmd_preprocess(args) -> int:
    stop = load_stopwords(args.stopwords) if args.stopwords else frozenset()
    if args.vocab and args.vocab_size is not None:
        raise ConfigError("--vocab-size caps a vocabulary being built; it cannot be given "
                          "with --vocab")
    vocab = Vocabulary.load(args.vocab) if args.vocab else None
    size = vocab.size if vocab else args.vocab_size
    pipe = PipelineConfig(vocab_size=PipelineConfig.vocab_size if size is None else size,
                          max_len=args.max_len, stopwords=stop)
    _print_resolved(f"vocab_size = {pipe.vocab_size}\nmax_len = {pipe.max_len}\n"
                    f"seed = {args.seed}")
    ds, vocab = engine.load_csv_dataset(args.data, args.text_column, args.label_column,
                                        pipe, vocab=vocab)
    if args.train_fraction is not None:
        ds = engine.split(ds, train_fraction=args.train_fraction, seed=args.seed)
    stats = engine.corpus_stats(ds)
    print(f"documents: {stats['documents']}")
    for name, n in stats["classes"].items():
        print(f"class {name}: {n}")
    print(f"avg_length: {stats['avg_length']:.2f}")
    print(f"oov_rate: {stats['oov_rate']:.4f}")
    print(f"truncated: {stats['truncated']}")
    if ds.train_idx is not None:
        print(f"split: {ds.train_idx.size} train / {ds.test_idx.size} test")
    vocab_path = _out_path(args, "vocab.tsv")
    data_path = _out_path(args, "dataset.sqt")
    vocab.save(vocab_path)
    engine.save_dataset(data_path, ds, vocab, pipe)
    _log(f"wrote {vocab_path} ({vocab.size} entries)")
    _log(f"wrote {data_path}")
    return 0


def _cmd_train(args) -> int:
    ds, vocab, pipe = engine.load_dataset(args.data)
    cfg = _merged_config(args).resolved(vocab.size, ds.n_classes)
    _print_resolved(cfg.describe())
    if ds.train_idx is None:
        _log(f"splitting 0.5 train / 0.5 test with seed {cfg.seed}")
        ds = engine.split(ds, train_fraction=0.5, seed=cfg.seed)
    log = None if args.quiet else _log
    model, curve = engine.train(cfg, ds, vocab, log=log)
    model_path = _out_path(args, "model.sqt")
    curve_path = _out_path(args, "curve.csv")
    metrics_path = _out_path(args, "metrics.txt")
    engine.save_checkpoint(model_path, model, cfg, ds.class_names, vocab, pipe)
    engine.emit_learning_curve(curve, curve_path)
    # the last epoch's test pass scored this model; with no epoch, score it here
    report = curve[-1].report if curve else engine.evaluate(model, ds, "test")
    metrics.write_metrics(report, metrics_path, ds.class_names)
    print(metrics.format_report(report, ds.class_names), end="")
    _log(f"wrote {model_path}")
    _log(f"wrote {curve_path}")
    _log(f"wrote {metrics_path}")
    return 0


def _cmd_evaluate(args) -> int:
    ckpt = engine.load_checkpoint(args.model)
    ds, _, _ = engine.load_dataset(args.data)
    names = ckpt.class_names
    _print_resolved(ckpt.config.describe())
    unknown = [n for n in ds.class_names if n not in names]
    if unknown:
        raise DataError(f"dataset classes {ds.class_names} do not match the checkpoint's "
                        f"{names}: the model has no class {unknown[0]!r}")
    # A file encoded with --vocab names its classes in the order its labels
    # first appear; renumber them to the model's order.
    order = np.array([names.index(n) for n in ds.class_names], dtype=np.int64)
    ds = replace(ds, labels=order[ds.labels], class_names=names)
    which = args.split
    if which is None:
        which = "test" if ds.train_idx is not None else "all"
        _log(f"evaluating the {which} split")
    report = engine.evaluate(ckpt.model, ds, which)
    print(metrics.format_report(report, ds.class_names), end="")
    path = _out_path(args, "eval_metrics.txt")
    metrics.write_metrics(report, path, ds.class_names)
    _log(f"wrote {path}")
    return 0


def _stdin_lines():
    """Standard input's lines, split at line feeds as ``sys.stdin`` splits
    them on POSIX, and decoded as strict UTF-8 whatever the locale."""
    stdin = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", newline="\n")
    try:
        yield from decoded(stdin, "<stdin>")
    finally:
        stdin.detach()  # sys.stdin.buffer stays open


def _cmd_predict(args) -> int:
    ckpt = engine.load_checkpoint(args.model)
    model, names = ckpt.model, ckpt.class_names
    _print_resolved(ckpt.config.describe())
    vocab, pipe = ckpt.vocab, ckpt.pipeline
    # One forward pass per chunk of lines. Answers keep input order and
    # are flushed per chunk, so a line's answer appears once its chunk
    # fills or stdin ends.
    stdin = _stdin_lines()
    while lines := list(islice(stdin, engine.INFERENCE_BATCH_SIZE)):
        rows = encode([clean(line.rstrip("\n"), pipe) for line in lines], vocab, pipe)
        probs = forward(model, rows, trace=False)[0]
        classes = predict_classes(model, probs)
        chosen = probs if model.head == "sigmoid" else probs.max(axis=1)
        sys.stdout.write("".join(f"{names[c]}\t{p:.6f}\n" for c, p in zip(classes, chosen)))
        sys.stdout.flush()
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="seqtext",
                     description="Recurrent text classifiers: preprocess, train, "
                                 "evaluate, predict.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)

    pre = sub.add_parser("preprocess", help="encode a CSV corpus")
    pre.add_argument("--data", required=True, help="CSV file with header row")
    pre.add_argument("--text-column", default="text")
    pre.add_argument("--label-column", default="label")
    pre.add_argument("--vocab", help="reuse an existing vocabulary file")
    pre.add_argument("--stopwords", help="file with one stopword per line")
    pre.add_argument("--train-fraction", type=float,
                     help="share of each class that trains, in (0, 1); default no split")
    _add_flag(pre, "vocab_size", type=int, help="keep the most frequent tokens, pad and OOV "
              f"included (default {PipelineConfig.vocab_size}; not with --vocab)")
    _add_flag(pre, "max_len", type=int, default=PipelineConfig.max_len,
              help="tokens per encoded document")
    _add_flag(pre, "seed", type=int, default=0, help="seed of the split")

    tr = sub.add_parser("train", help="fit a model on an encoded dataset")
    tr.add_argument("--data", required=True, help="encoded dataset artifact")
    tr.add_argument("--quiet", action="store_true", help="suppress per-epoch progress")

    ev = sub.add_parser("evaluate", help="score a checkpoint on an encoded dataset")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--split", choices=("train", "test", "all"))

    pr = sub.add_parser("predict", help="classify raw text lines from standard input")
    pr.add_argument("--model", required=True)

    tr.add_argument("--config", help="key = value option file")
    for name in SETTINGS:
        _add_flag(tr, name)
    for p in (pre, tr, ev):
        p.add_argument("--out-dir", default=".", help="where artifacts are written")
    return parser


def _main(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise ConfigError("a command is required: preprocess, train, evaluate or predict")
    handler = {
        "preprocess": _cmd_preprocess,
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
        "predict": _cmd_predict,
    }[args.command]
    return handler(args)


def stdout_gone(e: BrokenPipeError) -> int:
    """Report that standard output's reader is gone and return exit code 2.
    What is still buffered for it goes to the null device, so the
    interpreter's flush at exit cannot fail on it a second time."""
    print(f"error: <stdout>: {e.strerror}", file=sys.stderr)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return 2


def entry(argv=None) -> int:
    try:
        return _main(sys.argv[1:] if argv is None else list(argv))
    except BrokenPipeError as e:
        return stdout_gone(e)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
