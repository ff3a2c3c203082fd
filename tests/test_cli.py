"""End-to-end command-line flows: preprocess, train, evaluate, predict."""

import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seqtext import __main__ as seqtext_main
from seqtext import cli, engine, pipeline
from seqtext.model import forward

from helpers import all_rows_on, no_rows, rewrite_artifact, rewrite_manifest


def _stdin(text):
    """A standard input that holds ``text`` as UTF-8 bytes."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")))


def _read_metrics(path):
    out = {}
    for line in path.read_text(encoding="utf-8").strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One preprocessed corpus and one trained model shared by the tests."""
    root = tmp_path_factory.mktemp("cliws")
    csv = root / "corpus.csv"
    engine.make_synthetic_csv(csv, 24, 2, seed=3, filler_tokens=30,
                              min_len=10, max_len=20)
    pre = root / "pre"
    rc = cli.entry([
        "preprocess", "--data", str(csv), "--train-fraction", "0.5",
        "--vocab-size", "200", "--max-len", "32", "--seed", "3",
        "--out-dir", str(pre),
    ])
    assert rc == 0
    run = root / "run"
    rc = cli.entry([
        "train", "--data", str(pre / "dataset.sqt"), "--cell", "gru",
        "--hidden-size", "8", "--batch-size", "8", "--epochs", "60",
        "--seed", "3", "--quiet", "--out-dir", str(run),
    ])
    assert rc == 0
    return {"root": root, "csv": csv, "pre": pre, "run": run}


class TestHappyPath:
    def test_preprocess_artifacts(self, workspace):
        assert (workspace["pre"] / "vocab.tsv").exists()
        assert (workspace["pre"] / "dataset.sqt").exists()
        ds, vocab, _ = engine.load_dataset(workspace["pre"] / "dataset.sqt")
        assert len(ds) == 24
        assert ds.train_idx.size == 12

    def test_preprocess_stats_output(self, workspace, tmp_path, capsys):
        rc = cli.entry([
            "preprocess", "--data", str(workspace["csv"]),
            "--train-fraction", "0.5", "--vocab-size", "200",
            "--max-len", "32", "--seed", "3", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr()
        lines = out.out.splitlines()
        assert "documents: 24" in lines
        assert "class neg: 12" in lines
        assert "class pos: 12" in lines
        assert "split: 12 train / 12 test" in lines
        assert any(l.startswith("avg_length: ") for l in lines)
        assert any(l.startswith("oov_rate: ") for l in lines)
        assert any(l.startswith("truncated: ") for l in lines)
        assert "resolved configuration:" in out.err

    def test_train_artifacts(self, workspace):
        for name in ("model.sqt", "curve.csv", "metrics.txt"):
            assert (workspace["run"] / name).exists()
        curve = (workspace["run"] / "curve.csv").read_text(encoding="utf-8")
        assert len(curve.splitlines()) == 61
        # metrics.txt scores the held-out split
        got = _read_metrics(workspace["run"] / "metrics.txt")
        assert 0.0 <= float(got["accuracy"]) <= 100.0

    def test_train_memorizes_its_split(self, workspace, tmp_path, capsys):
        rc = cli.entry([
            "evaluate", "--model", str(workspace["run"] / "model.sqt"),
            "--data", str(workspace["pre"] / "dataset.sqt"),
            "--split", "train", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        capsys.readouterr()
        got = _read_metrics(tmp_path / "eval_metrics.txt")
        assert float(got["accuracy"]) == 100.0

    @pytest.mark.parametrize("epochs", [2, 0])
    def test_train_scores_its_test_split_once_per_epoch(self, workspace, tmp_path, capsys,
                                                        monkeypatch, epochs):
        # metrics.txt is the last epoch's test pass; with no epoch, train
        # scores the initial model itself
        scored, calls = engine._scored_rows, []

        def counted(model, X, rows):
            calls.append(rows.size)
            return scored(model, X, rows)

        monkeypatch.setattr(engine, "_scored_rows", counted)
        data, out = str(workspace["pre"] / "dataset.sqt"), tmp_path / "run"
        assert cli.entry(["train", "--data", data, "--cell", "gru", "--hidden-size", "8",
                          "--batch-size", "8", "--epochs", str(epochs), "--seed", "3",
                          "--quiet", "--out-dir", str(out)]) == 0
        assert calls == [12] * max(epochs, 1)
        monkeypatch.undo()
        assert cli.entry(["evaluate", "--model", str(out / "model.sqt"), "--data", data,
                          "--split", "test", "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert (out / "metrics.txt").read_bytes() == (out / "eval_metrics.txt").read_bytes()

    @pytest.mark.parametrize("run", ["sgd-gru", "adam-lstm", "lstm-epochs-0"])
    def test_train_report_equals_evaluate_over_two_scoring_batches(
            self, pinned, pinned_train, tmp_path, capsys, run):
        # the 300 test rows span two scoring batches of 256, and length 70
        # ends the recurrence on a partial 32-step chunk
        out, _ = pinned_train(run, 1)
        assert cli.entry(["evaluate", "--model", str(out / "model.sqt"),
                          "--data", str(pinned / "built" / "dataset.sqt"),
                          "--split", "test", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        metrics = _read_metrics(out / "metrics.txt")
        assert int(metrics["support_neg"]) + int(metrics["support_pos"]) == 300
        assert (out / "metrics.txt").read_bytes() == (tmp_path / "eval_metrics.txt").read_bytes()

    def test_evaluate_over_two_batches_is_quiet_and_scores_as_one_core(
            self, pinned, pinned_train, tmp_path, capsys, monkeypatch):
        # on two cores the second batch of 256 is a forked worker's; with
        # every warning shown, a fork of this multi-threaded process (OpenBLAS
        # runs threads) must print none, and the report is the one-core one
        out, _ = pinned_train("adam-lstm", 1)
        args = ["evaluate", "--model", out / "model.sqt",
                "--data", pinned / "built" / "dataset.sqt", "--split", "test"]
        proc = subprocess.run([sys.executable, "-W", "default", "-m", "seqtext", *map(str, args),
                               "--out-dir", str(tmp_path / "forked")],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert cli.entry([*map(str, args), "--out-dir", str(tmp_path / "serial")]) == 0
        capsys.readouterr()
        assert (tmp_path / "forked" / "eval_metrics.txt").read_bytes() == \
            (tmp_path / "serial" / "eval_metrics.txt").read_bytes()

    def test_evaluate_prints_report_table(self, workspace, tmp_path, capsys):
        rc = cli.entry([
            "evaluate", "--model", str(workspace["run"] / "model.sqt"),
            "--data", str(workspace["pre"] / "dataset.sqt"),
            "--split", "test", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr()
        header = out.out.splitlines()[0].split()
        assert header == ["Accuracy", "Precision", "Recall", "F1", "Score"]
        assert "confusion (rows = true, cols = predicted):" in out.out

    def test_predict_labels_signal_lines(self, workspace, capsys, monkeypatch):
        text = ("sig1w00 sig1w01 sig1w02 sig1w03 sig1w04\n"
                "sig0w00 sig0w01 sig0w02 sig0w03 sig0w04\n")
        monkeypatch.setattr(sys, "stdin", _stdin(text))
        rc = cli.entry(["predict", "--model", str(workspace["run"] / "model.sqt")])
        assert rc == 0
        out = capsys.readouterr()
        lines = out.out.splitlines()
        assert len(lines) == 2
        for line in lines:
            name, prob = line.split("\t")
            assert name in ("neg", "pos")
            assert 0.0 <= float(prob) <= 1.0
            # six decimals, as printed
            assert len(prob.split(".")[1]) == 6
        assert lines[0].split("\t")[0] == "pos"
        assert lines[1].split("\t")[0] == "neg"


def _predict_alone(ckpt, line):
    """The answer for one line, from a forward pass over its row alone."""
    rows = pipeline.encode([pipeline.clean(line, ckpt.pipeline)], ckpt.vocab, ckpt.pipeline)
    probs = forward(ckpt.model, rows)[0][0]
    if ckpt.model.head == "sigmoid":
        cls, prob = int(probs >= 0.5), probs
    else:
        cls = int(probs.argmax())
        prob = probs[cls]
    return f"{ckpt.class_names[cls]}\t{float(prob):.6f}"


class _FlushLog(io.StringIO):
    """A stdout that records how many lines it held at each flush."""

    def __init__(self):
        super().__init__()
        self.flushed_at = []

    def flush(self):
        self.flushed_at.append(self.getvalue().count("\n"))


class TestBatchedPredict:
    def test_chunks_keep_input_order(self, workspace, monkeypatch, capsys):
        texts = [line.split(",")[0] for line in
                 workspace["csv"].read_text(encoding="utf-8").splitlines()[1:]]
        lines = [" ".join(texts[i % len(texts)].split()[:3 + i % 7]) for i in range(600)]
        lines[5] = ""
        lines[300] = "qqqunseen zzzunseen xyzzy"
        lines[301] = "sig1w00 sig1w01 sig1w02 sig1w03 sig1w04"
        lines[599] = "sig0w00 sig0w01 sig0w02 sig0w03 sig0w04"
        out = _FlushLog()
        monkeypatch.setattr(sys, "stdin", _stdin("".join(l + "\n" for l in lines)))
        monkeypatch.setattr(sys, "stdout", out)
        model = workspace["run"] / "model.sqt"
        assert cli.entry(["predict", "--model", str(model)]) == 0
        capsys.readouterr()
        got = out.getvalue().splitlines()
        assert len(got) == 600
        ckpt = engine.load_checkpoint(model)
        assert got == [_predict_alone(ckpt, line) for line in lines]
        assert got[301].startswith("pos\t") and got[599].startswith("neg\t")
        # one flush per chunk of 256 lines, the last one partial
        assert out.flushed_at == [256, 512, 600]

    @pytest.mark.parametrize("encoding", [None, "utf-8:strict"],
                             ids=["host-locale", "utf8-locale"])
    def test_line_not_utf8_exits_2(self, workspace, encoding):
        # a UTF-8 locale gives stdin the strict decoder that the C locale
        # does not; predict decodes strictly under both. The 800 good
        # lines put whole chunks of answers ahead of the bad line.
        lines = [f"sig{i % 2}w{i % 20:02d} sig{i % 2}w{i % 13:02d} fill{i % 30:04d} x{i}"
                 for i in range(800)]
        data = "".join(l + "\n" for l in lines).encode() + b"\xff\xfe bad\nsig1w00\n"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
        if encoding:
            env["PYTHONIOENCODING"] = encoding
        model = workspace["run"] / "model.sqt"
        proc = subprocess.run([sys.executable, "-m", "seqtext", "predict", "--model", str(model)],
                              input=data, capture_output=True, env=env, timeout=120)
        err = proc.stderr.decode("utf-8")
        assert proc.returncode == 2
        assert "Traceback" not in err
        assert "error: <stdin>: not UTF-8 text (" in err
        got = proc.stdout.decode("utf-8").splitlines()
        assert len(got) >= engine.INFERENCE_BATCH_SIZE
        ckpt = engine.load_checkpoint(model)
        assert got == [_predict_alone(ckpt, line) for line in lines[:len(got)]]

    def test_empty_stdin_prints_nothing(self, workspace, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", _stdin(""))
        rc = cli.entry(["predict", "--model", str(workspace["run"] / "model.sqt")])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_multiclass_prints_argmax_names(self, tmp_path, monkeypatch, capsys):
        csv = tmp_path / "tri.csv"
        engine.make_synthetic_csv(csv, 30, 3, seed=2, filler_tokens=20,
                                  min_len=8, max_len=12)
        pre, run = tmp_path / "pre", tmp_path / "run"
        assert cli.entry(["preprocess", "--data", str(csv), "--train-fraction", "0.5",
                          "--vocab-size", "200", "--max-len", "16", "--seed", "2",
                          "--out-dir", str(pre)]) == 0
        # three classes pick a softmax head with no setting to say so
        assert cli.entry(["train", "--data", str(pre / "dataset.sqt"),
                          "--cell", "lstm", "--hidden-size", "6", "--epochs", "20",
                          "--seed", "2", "--quiet", "--out-dir", str(run)]) == 0
        err = capsys.readouterr().err
        assert "  learning_rate = 0.005\n" in err and "task =" not in err
        assert cli.entry(["evaluate", "--model", str(run / "model.sqt"),
                          "--data", str(pre / "dataset.sqt"), "--out-dir", str(run)]) == 0
        capsys.readouterr()
        supports = [k for k in _read_metrics(run / "eval_metrics.txt") if k.startswith("support_")]
        assert supports == ["support_class0", "support_class1", "support_class2"]
        lines = [f"sig{i % 3}w{i % 10:02d} sig{i % 3}w{(i + 3) % 10:02d}" for i in range(300)]
        monkeypatch.setattr(sys, "stdin", _stdin("".join(l + "\n" for l in lines)))
        assert cli.entry(["predict", "--model", str(run / "model.sqt")]) == 0
        got = capsys.readouterr().out.splitlines()
        ckpt = engine.load_checkpoint(run / "model.sqt")
        assert ckpt.model.head == "softmax"
        assert got == [_predict_alone(ckpt, line) for line in lines]
        assert {g.split("\t")[0] for g in got} == set(ckpt.class_names)


class TestEvaluateBatchSize:
    def test_confusion_does_not_depend_on_batch_size(self, workspace, monkeypatch):
        ckpt = engine.load_checkpoint(workspace["run"] / "model.sqt")
        ds, _, _ = engine.load_dataset(workspace["pre"] / "dataset.sqt")
        for which in ("test", "all"):
            n = ds.test_idx.size if which == "test" else len(ds)
            monkeypatch.setattr(engine, "INFERENCE_BATCH_SIZE", 1)
            reference = engine.evaluate(ckpt.model, ds, which).confusion
            assert reference.sum() == n
            for batch_size in (5, 64, 256, n):
                monkeypatch.setattr(engine, "INFERENCE_BATCH_SIZE", batch_size)
                got = engine.evaluate(ckpt.model, ds, which)
                assert np.array_equal(got.confusion, reference)


class TestDeterminism:
    def test_identical_train_runs_write_identical_bytes(self, workspace, tmp_path, capsys):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            rc = cli.entry([
                "train", "--data", str(workspace["pre"] / "dataset.sqt"),
                "--cell", "gru", "--hidden-size", "8", "--batch-size", "8",
                "--epochs", "3", "--seed", "3", "--quiet", "--out-dir", str(out),
            ])
            assert rc == 0
        capsys.readouterr()
        for name in ("model.sqt", "curve.csv", "metrics.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("run", ["adam-lstm", "rmsprop-lstm", "sgd-gru", "adam-rnn"])
    def test_reruns_in_processes_with_other_hash_seeds_write_identical_bytes(
            self, pinned_train, run):
        # one interpreter has one string-hash seed: a set's or a dict's
        # iteration order that reaches an artifact shows only across two
        (first, err1), (second, err2) = pinned_train(run, 1), pinned_train(run, 2)
        for name in ("model.sqt", "curve.csv", "metrics.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        assert "Warning" not in err1 + err2

    def test_replay_from_the_logged_configuration_writes_identical_bytes(
            self, workspace, tmp_path, capsys):
        # both data-dependent settings are left to the data: no rate, "auto" dim
        data = str(workspace["pre"] / "dataset.sqt")
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert cli.entry(["train", "--data", data, "--cell", "gru", "--embedding-dim", "auto",
                          "--hidden-size", "8", "--batch-size", "8", "--epochs", "2",
                          "--seed", "3", "--quiet", "--out-dir", str(first)]) == 0
        err = capsys.readouterr().err.splitlines()
        start = err.index("resolved configuration:") + 1
        logged = [line[2:] for line in err[start:] if line.startswith("  ")]
        assert "learning_rate = 0.001" in logged and "embedding_dim = auto" not in logged
        cfg_file = tmp_path / "replay.cfg"
        cfg_file.write_text("\n".join(logged) + "\n", encoding="utf-8")
        assert cli.entry(["train", "--data", data, "--config", str(cfg_file), "--quiet",
                          "--out-dir", str(replay)]) == 0
        capsys.readouterr()
        for name in ("model.sqt", "curve.csv", "metrics.txt"):
            assert (first / name).read_bytes() == (replay / name).read_bytes(), name

    def test_checkpoint_with_an_unset_rate_loads_and_logs_it_resolved(
            self, workspace, tmp_path, capsys):
        # earlier writers stored learning_rate as given: null when unset
        model = workspace["run"] / "model.sqt"
        older = rewrite_artifact(model, tmp_path / "older.sqt",
                                 lambda h: h["config"].update(learning_rate=None))
        assert engine.load_checkpoint(older).config == engine.load_checkpoint(model).config
        assert engine.load_checkpoint(older).config.learning_rate == 0.001
        runs = []
        for path, out in ((model, tmp_path / "now"), (older, tmp_path / "older")):
            assert cli.entry(["evaluate", "--model", str(path), "--data",
                              str(workspace["pre"] / "dataset.sqt"), "--out-dir", str(out)]) == 0
            captured = capsys.readouterr()
            assert "  learning_rate = 0.001" in captured.err.splitlines()
            runs.append((captured.out, (out / "eval_metrics.txt").read_bytes()))
        assert runs[0] == runs[1]


class TestConfigHandling:
    def test_flag_overrides_config_file(self, workspace, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("epochs = 9\ncell = rnn\n", encoding="utf-8")
        rc = cli.entry([
            "train", "--data", str(workspace["pre"] / "dataset.sqt"),
            "--config", str(cfgfile), "--epochs", "1", "--quiet",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "  epochs = 1" in err
        assert "  cell = rnn" in err

    def test_underscore_flag_spelling_accepted(self, workspace, tmp_path, capsys):
        rc = cli.entry([
            "train", "--data", str(workspace["pre"] / "dataset.sqt"),
            "--hidden_size", "4", "--epochs", "1", "--quiet",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        assert "  hidden_size = 4" in capsys.readouterr().err

    def test_resplit_logged_when_artifact_has_no_split(self, tmp_path, capsys):
        csv = tmp_path / "c.csv"
        engine.make_synthetic_csv(csv, 12, 2, seed=1, filler_tokens=20,
                                  min_len=8, max_len=12)
        pre = tmp_path / "pre"
        cli.entry(["preprocess", "--data", str(csv), "--vocab-size", "100",
                   "--max-len", "16", "--out-dir", str(pre)])
        rc = cli.entry([
            "train", "--data", str(pre / "dataset.sqt"), "--epochs", "1",
            "--quiet", "--out-dir", str(tmp_path / "run"),
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "splitting 0.5 train / 0.5 test" in err

    def test_vocabulary_past_the_default_cap_trains(self, tmp_path, capsys):
        # 12,000 distinct tokens: the dataset's cap of 20,000 keeps them all,
        # and train needs no cap of its own
        csv = tmp_path / "wide.csv"
        rows = [" ".join(f"w{d * 60 + k}" for k in range(60)) + "," + ("neg", "pos")[d % 2]
                for d in range(200)]
        csv.write_text("text,label\n" + "\n".join(rows) + "\n", encoding="utf-8")
        pre, run = tmp_path / "pre", tmp_path / "run"
        assert cli.entry(["preprocess", "--data", str(csv), "--vocab-size", "20000",
                          "--max-len", "8", "--train-fraction", "0.5", "--out-dir", str(pre)]) == 0
        assert cli.entry(["train", "--data", str(pre / "dataset.sqt"), "--hidden-size", "4",
                          "--epochs", "1", "--quiet", "--out-dir", str(run)]) == 0
        capsys.readouterr()
        assert engine.load_checkpoint(run / "model.sqt").model.embedding.shape[0] == 12002

    def test_reused_vocabulary_sets_the_size(self, workspace, tmp_path, capsys):
        # the workspace vocabulary was built under a cap of 200 but holds fewer
        vocab = pipeline.Vocabulary.load(workspace["pre"] / "vocab.tsv")
        assert vocab.size < 200
        pre = tmp_path / "pre"
        assert cli.entry(["preprocess", "--data", str(workspace["csv"]),
                          "--vocab", str(workspace["pre"] / "vocab.tsv"), "--max-len", "32",
                          "--out-dir", str(pre)]) == 0
        assert f"  vocab_size = {vocab.size}\n" in capsys.readouterr().err
        ds, _, pipe = engine.load_dataset(pre / "dataset.sqt")
        assert pipe.vocab_size == vocab.size
        assert ds.vocab_sha == vocab.sha256()
        # the model trained on the first encoding scores the second
        assert cli.entry(["evaluate", "--model", str(workspace["run"] / "model.sqt"),
                          "--data", str(pre / "dataset.sqt"), "--out-dir", str(pre)]) == 0

    def test_per_epoch_progress_unless_quiet(self, workspace, tmp_path, capsys):
        rc = cli.entry([
            "train", "--data", str(workspace["pre"] / "dataset.sqt"),
            "--epochs", "2", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "epoch 1/2" in err
        assert "epoch 2/2" in err


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert cli.entry([]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_flag_is_usage_error(self, workspace, capsys):
        rc = cli.entry(["train", "--data", "x", "--bogus"])
        assert rc == 1
        capsys.readouterr()

    def test_bad_config_value_names_the_key(self, workspace, capsys):
        rc = cli.entry([
            "train", "--data", str(workspace["pre"] / "dataset.sqt"),
            "--epochs", "many",
        ])
        assert rc == 1
        assert "epochs" in capsys.readouterr().err

    def test_unknown_config_file_key_names_line(self, workspace, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("seed = 1\nmomentum = 0.9\n", encoding="utf-8")
        rc = cli.entry([
            "train", "--data", str(workspace["pre"] / "dataset.sqt"),
            "--config", str(cfgfile),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "momentum" in err
        assert ":2" in err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        rc = cli.entry(["train", "--data", str(tmp_path / "absent.sqt")])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("content,message", [
        (b"", "empty file"),
        ("text,label\ncaf\u00e9,pos\n".encode("latin-1"), "not UTF-8 text"),
        (b"text,label\nfine,pos\n" + b"w" * 140_000 + b",neg\n",
         "line 3: field larger than field limit"),
    ], ids=["empty", "non-utf8", "oversized-field"])
    def test_malformed_csv_is_data_error(self, tmp_path, content, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        proc = _run_cli("preprocess", "--data", bad, "--out-dir", tmp_path)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"error: {bad}: {message}" in proc.stderr

    def test_divergence_exit_code(self, workspace, tmp_path, capsys):
        rc = cli.entry([
            "train", "--data", str(workspace["pre"] / "dataset.sqt"),
            "--cell", "rnn", "--optimizer", "sgd", "--learning-rate", "1e12",
            "--epochs", "40", "--quiet", "--out-dir", str(tmp_path),
        ])
        assert rc == 3
        assert "diverged at epoch" in capsys.readouterr().err

    def test_predict_with_diverged_weights_exits_3(self, workspace, tmp_path, capsys):
        # one sgd step at rate 1e308 leaves weights of both signs near the
        # float64 limit: the test split still scores, but some inputs would
        # overflow to inf - inf, so train stops and stores no model
        csv = tmp_path / "corpus.csv"
        engine.make_synthetic_csv(csv, 60, 2, seed=0)
        assert cli.entry(["preprocess", "--data", str(csv), "--vocab-size", "300",
                          "--max-len", "40", "--train-fraction", "0.5",
                          "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert cli.entry(["train", "--data", str(tmp_path / "dataset.sqt"), "--optimizer",
                          "sgd", "--learning-rate", "1e308", "--epochs", "1", "--quiet",
                          "--out-dir", str(tmp_path)]) == 3
        assert "error: diverged at epoch 1: block 'cell.W' can overflow the forward pass" \
            in capsys.readouterr().err
        assert not (tmp_path / "model.sqt").exists()
        # a stored model with such weights is refused before it scores a line
        model = rewrite_artifact(workspace["run"] / "model.sqt", tmp_path / "bad.sqt",
                                 edit_arrays=lambda a: a["cell.U"].__setitem__(0, 1e308))
        proc = _run_cli("predict", "--model", model, stdin="sig1w00 fill0001\n")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"error: {model}: block 'cell.U' can overflow the forward pass\n" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_closed_stdout_is_one_error_line(self, workspace, tmp_path, command, buffering):
        # the reader is gone before the first answers. predict's input still
        # holds lines, so its reader is cut off mid-stream too; a buffered
        # stdout still holds the failed chunk, and evaluate's buffered
        # report first fails at the final flush
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if buffering == "unbuffered":
            env["PYTHONUNBUFFERED"] = "1"
        args = ["--model", str(workspace["run"] / "model.sqt")]
        if command == "evaluate":
            args += ["--data", str(workspace["pre"] / "dataset.sqt"), "--out-dir", str(tmp_path)]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "seqtext", command, *args],
                                  input="sig1w00 sig1w01\n" * 300, stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert [line for line in proc.stderr.splitlines() if line.startswith("error:")] == [
            "error: <stdout>: Broken pipe"]
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr

    def test_diverged_train_prints_no_numpy_warning(self, tmp_path):
        # the run overflows on its way to the bound check; stderr ends with
        # the error line, and no raw RuntimeWarning comes before it
        csv = tmp_path / "corpus.csv"
        engine.make_synthetic_csv(csv, 60, 2, seed=0)
        proc = _run_cli("preprocess", "--data", csv, "--vocab-size", "300", "--max-len", "40",
                        "--train-fraction", "0.5", "--out-dir", tmp_path)
        assert proc.returncode == 0
        proc = _run_cli("train", "--data", tmp_path / "dataset.sqt", "--optimizer", "sgd",
                        "--learning-rate", "1e308", "--epochs", "1", "--quiet",
                        "--out-dir", tmp_path)
        assert proc.returncode == 3
        assert "Warning" not in proc.stderr
        assert proc.stderr.endswith("\nerror: diverged at epoch 1: block 'cell.W' can overflow "
                                    "the forward pass; try a lower learning_rate or a "
                                    "gradient_clip\n")

    def test_evaluate_rejects_mismatched_classes(self, workspace, tmp_path, capsys):
        csv = tmp_path / "tri.csv"
        engine.make_synthetic_csv(csv, 15, 3, seed=1, filler_tokens=20,
                                  min_len=8, max_len=12)
        pre = tmp_path / "pre3"
        cli.entry(["preprocess", "--data", str(csv), "--vocab-size", "200",
                   "--max-len", "16", "--out-dir", str(pre)])
        rc = cli.entry([
            "evaluate", "--model", str(workspace["run"] / "model.sqt"),
            "--data", str(pre / "dataset.sqt"), "--out-dir", str(tmp_path),
        ])
        assert rc == 2
        assert "do not match" in capsys.readouterr().err

    def test_evaluate_split_choices_enforced(self, workspace, tmp_path, capsys):
        rc = cli.entry([
            "evaluate", "--model", str(workspace["run"] / "model.sqt"),
            "--data", str(workspace["pre"] / "dataset.sqt"),
            "--split", "validation", "--out-dir", str(tmp_path),
        ])
        assert rc == 1
        capsys.readouterr()

    def test_predict_needs_embedded_vocabulary(self, workspace, tmp_path, capsys, monkeypatch):
        bare = rewrite_artifact(workspace["run"] / "model.sqt", tmp_path / "bare.sqt",
                                edit_header=lambda h: h.pop("vocab_text"))
        monkeypatch.setattr(sys, "stdin", _stdin("hello\n"))
        rc = cli.entry(["predict", "--model", str(bare)])
        assert rc == 2
        assert "header field 'vocab_text' is missing" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,code", [
        ("--stopwords", 2), ("--vocab", 2), ("--pretrained-vectors", 2), ("--config", 1),
    ])
    def test_side_file_not_utf8(self, workspace, tmp_path, flag, code):
        side = tmp_path / "side.txt"
        side.write_bytes("caf\u00e9 1.0\n".encode("latin-1"))
        if flag in ("--stopwords", "--vocab"):
            args = ["preprocess", "--data", workspace["csv"]]
        else:
            args = ["train", "--data", workspace["pre"] / "dataset.sqt", "--epochs", 1]
        proc = _run_cli(*args, flag, side, "--out-dir", tmp_path)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert f"error: {side}: not UTF-8 text (" in proc.stderr

    @pytest.mark.parametrize("word", ["The", "don't"])
    def test_stopword_that_cleaning_cannot_produce_is_data_error(self, workspace, tmp_path, word):
        side = tmp_path / "stop.txt"
        side.write_text(f"the\n{word}\n", encoding="utf-8")
        proc = _run_cli("preprocess", "--data", workspace["csv"], "--stopwords", side,
                        "--out-dir", tmp_path / "out")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert [l for l in proc.stderr.splitlines() if l.startswith("error:")] == [
            f"error: {side} line 2: stopword {word!r} is not lowercase ASCII letters and "
            "digits, so no cleaned text can reach it"]
        assert not (tmp_path / "out" / "vocab.tsv").exists()

    @pytest.mark.parametrize("flag", ["--stopwords", "--vocab", "--pretrained-vectors",
                                      "--config"])
    def test_side_file_may_start_with_a_bom(self, workspace, tmp_path, capsys, flag):
        vocab = workspace["pre"] / "vocab.tsv"
        token = pipeline.Vocabulary.load(vocab).index_to_token[2]
        text = {"--stopwords": f"{token}\n", "--vocab": vocab.read_text(encoding="utf-8"),
                "--pretrained-vectors": f"{token} 0.5 0.25\n", "--config": "cell = gru\n"}[flag]
        side = tmp_path / "side.txt"
        side.write_text(text, encoding="utf-8-sig")
        if flag in ("--stopwords", "--vocab"):
            args = ["preprocess", "--data", workspace["csv"], "--max-len", 32]
        else:
            args = ["train", "--data", workspace["pre"] / "dataset.sqt", "--epochs", 1,
                    "--embedding-dim", 2]
        assert cli.entry([*map(str, args), flag, str(side), "--out-dir", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        if flag == "--stopwords":
            assert token not in (tmp_path / "vocab.tsv").read_text(encoding="utf-8").split()
        elif flag == "--vocab":
            assert (tmp_path / "vocab.tsv").read_text(encoding="utf-8") == text
        elif flag == "--pretrained-vectors":
            assert "pretrained vectors: matched 1 of" in err
        else:
            assert "\n  cell = gru\n" in err

    def test_stdin_bom_is_cleaned_away(self, workspace, monkeypatch, capsys):
        # stdin is decoded as strict UTF-8; clean drops the BOM as a separator
        line = "sig0w01 fill0001 sig1w02"
        monkeypatch.setattr(sys, "stdin", _stdin(f"\ufeff{line}\n{line}\n"))
        assert cli.entry(["predict", "--model", str(workspace["run"] / "model.sqt")]) == 0
        first, second = capsys.readouterr().out.splitlines()
        assert first == second


def _run_cli(*args, stdin="", env=None):
    return subprocess.run([sys.executable, "-m", "seqtext", *map(str, args)],
                          input=stdin, capture_output=True, text=True, timeout=120, env=env)


class TestMalformedArtifacts:
    """Well-formed containers with bad contents exit 2 without a traceback."""

    @pytest.mark.parametrize("bad", [1_000_000, -1])
    def test_dataset_index_outside_vocabulary(self, workspace, tmp_path, bad):
        data = rewrite_artifact(workspace["pre"] / "dataset.sqt", tmp_path / "bad.sqt",
                                edit_arrays=lambda a: a["indices"].__setitem__((2, 5), bad))
        proc = _run_cli("evaluate", "--model", workspace["run"] / "model.sqt",
                        "--data", data, "--out-dir", tmp_path)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"error: {data}: embedding index {bad} at position (2, 5) out of range" \
            in proc.stderr

    # The workspace dataset has max_len 32, and row 2 is shorter than that.
    @pytest.mark.parametrize("edit,message", [
        (lambda a: a.update(indices=a["indices"][:, 12:]),
         "rows hold 20 ids, but the pipeline records max_len 32"),
        (lambda a: a["original_lengths"].__setitem__(2, -5), "row 2 records length -5"),
        (lambda a: a["original_lengths"].__setitem__(2, a["original_lengths"][2] + 1),
         "row 2 holds"),
        (lambda a: a["indices"].__setitem__(2, np.roll(a["indices"][2], 1)),
         "row 2 has a pad after a token"),
    ], ids=["width", "negative-length", "length", "pad-after-token"])
    def test_dataset_rows_that_break_the_row_rule(self, workspace, tmp_path, edit, message):
        data = rewrite_artifact(workspace["pre"] / "dataset.sqt", tmp_path / "bad.sqt",
                                edit_arrays=edit)
        proc = _run_cli("evaluate", "--model", workspace["run"] / "model.sqt",
                        "--data", data, "--out-dir", tmp_path)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"error: {data}: {message}" in proc.stderr

    def test_dataset_with_an_empty_test_side_trains_nothing(self, workspace, tmp_path):
        data = rewrite_artifact(workspace["pre"] / "dataset.sqt", tmp_path / "bad.sqt",
                                edit_arrays=all_rows_on("train_idx"))
        out = tmp_path / "run"
        proc = _run_cli("train", "--data", data, "--epochs", "1", "--out-dir", out)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "epoch 1/1" not in proc.stderr
        assert f"error: {data}: dataset: the test split is empty" in proc.stderr
        assert not (out / "model.sqt").exists() and not (out / "curve.csv").exists()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_checkpoint_without_config(self, workspace, tmp_path, command):
        model = rewrite_artifact(workspace["run"] / "model.sqt", tmp_path / "bad.sqt",
                                 edit_header=lambda h: h.pop("config"))
        args = ["--model", model]
        if command == "evaluate":
            args += ["--data", workspace["pre"] / "dataset.sqt", "--out-dir", tmp_path]
        proc = _run_cli(command, *args)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "'config'" in proc.stderr


    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_embedding_rows_differ_from_vocabulary(self, workspace, tmp_path, command):
        cut = lambda a: a.update({"embedding.weights": a["embedding.weights"][:10]})
        model = rewrite_artifact(workspace["run"] / "model.sqt", tmp_path / "bad.sqt",
                                 edit_arrays=cut)
        args = ["--model", model]
        if command == "evaluate":
            args += ["--data", workspace["pre"] / "dataset.sqt", "--out-dir", tmp_path]
        proc = _run_cli(command, *args, stdin="sig1w00 sig1w01 sig1w02\n")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "error:" in proc.stderr
        assert "the embedding table has 10 rows" in proc.stderr

    # The workspace model has dense size 8 and one head row.
    @pytest.mark.parametrize("block,shape", [("dense.b", (1,)), ("head.b", (3, 1))],
                             ids=["dense.b-1", "head.b-3x1"])
    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_bias_of_the_wrong_shape(self, workspace, tmp_path, command, block, shape):
        model = rewrite_artifact(workspace["run"] / "model.sqt", tmp_path / "bad.sqt",
                                 edit_arrays=lambda a: a.update({block: np.zeros(shape)}))
        args = ["--model", model]
        if command == "evaluate":
            args += ["--data", workspace["pre"] / "dataset.sqt", "--out-dir", tmp_path]
        proc = _run_cli(command, *args, stdin="sig1w00 sig1w01 sig1w02\n")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"error: {model}: model: " in proc.stderr
        assert "do not chain" in proc.stderr

    @pytest.mark.parametrize("artifact", ["dataset", "checkpoint"])
    def test_other_cleaning_value(self, workspace, tmp_path, artifact):
        lowercase_off = lambda h: h["pipeline"].update(lowercase=False)
        data, model = workspace["pre"] / "dataset.sqt", workspace["run"] / "model.sqt"
        if artifact == "dataset":
            bad = data = rewrite_artifact(data, tmp_path / "bad.sqt", lowercase_off)
        else:
            bad = model = rewrite_artifact(model, tmp_path / "bad.sqt", lowercase_off)
        proc = _run_cli("evaluate", "--model", model, "--data", data, "--out-dir", tmp_path)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"error: {bad}: pipeline: lowercase must be True, got False" in proc.stderr

    @pytest.mark.parametrize("key,value", [("max_len", True), ("max_len", 70.0),
                                           ("stopwords", "the")],
                             ids=["max_len-bool", "max_len-float", "stopwords-string"])
    def test_pipeline_setting_of_the_wrong_type(self, workspace, tmp_path, key, value):
        model = rewrite_artifact(workspace["run"] / "model.sqt", tmp_path / "bad.sqt",
                                 lambda h: h["pipeline"].update({key: value}))
        proc = _run_cli("predict", "--model", model, stdin="sig1w00\n")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"error: {model}: pipeline: {key} must be" in proc.stderr

    @pytest.mark.parametrize("key", ["max_len", "stopwords", "lowercase"])
    def test_pipeline_setting_missing(self, workspace, tmp_path, key):
        # no default stands in: the model scores only under its own encoding
        model = rewrite_artifact(workspace["run"] / "model.sqt", tmp_path / "bad.sqt",
                                 lambda h: h["pipeline"].pop(key))
        proc = _run_cli("predict", "--model", model, stdin="sig1w00\n")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"error: {model}: pipeline lacks {key}\n" in proc.stderr

    @pytest.mark.parametrize("block,where,value", [
        ("cell.b", 0, np.inf), ("embedding.weights", -1, np.nan),
        ("cell.U", (0, 0), np.nan), ("embedding.weights", 0, np.nan),
    ], ids=["cell.b-inf", "last-embedding-row-nan", "cell.U-nan", "pad-row-nan"])
    def test_block_that_is_not_finite(self, workspace, tmp_path, block, where, value):
        model = rewrite_artifact(workspace["run"] / "model.sqt", tmp_path / "bad.sqt",
                                 edit_arrays=lambda a: a[block].__setitem__(where, value))
        proc = _run_cli("predict", "--model", model, stdin="sig1w00 sig1w01\n")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"error: {model}: block {block!r} is not finite\n" in proc.stderr

    @pytest.mark.parametrize("edit,message", [
        (lambda h: h["blocks"][0].pop("shape"), "malformed block manifest entry"),
        (lambda h: h["blocks"][0].update(shape="xy"), "malformed block manifest entry"),
        (lambda h: h["blocks"].__setitem__(0, "embedding.weights"),
         "malformed block manifest entry"),
        (lambda h: h["blocks"][-1].update(name="dense.b"), "block 'dense.b' is listed twice"),
    ], ids=["no-shape", "shape-xy", "entry-not-object", "name-twice"])
    def test_malformed_block_manifest(self, workspace, tmp_path, edit, message):
        model = rewrite_manifest(workspace["run"] / "model.sqt", tmp_path / "bad.sqt", edit)
        proc = _run_cli("predict", "--model", model, stdin="sig1w00\n")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"error: {model}: {message}" in proc.stderr


@pytest.fixture(scope="module")
def lstm_tri(tmp_path_factory):
    """An untrained three-class lstm checkpoint with peepholes."""
    root = tmp_path_factory.mktemp("tri")
    csv = root / "tri.csv"
    engine.make_synthetic_csv(csv, 30, 3, seed=2, filler_tokens=20, min_len=8, max_len=12)
    assert cli.entry(["preprocess", "--data", str(csv), "--train-fraction", "0.5",
                      "--max-len", "16", "--out-dir", str(root)]) == 0
    assert cli.entry(["train", "--data", str(root / "dataset.sqt"),
                      "--cell", "lstm", "--hidden-size", "6", "--epochs", "0", "--quiet",
                      "--out-dir", str(root)]) == 0
    return root / "model.sqt"


# (id, which checkpoint, header edit, stderr text). The workspace model
# is a binary gru of hidden size 8.
_DISAGREEING_HEADERS = [
    ("cell", "gru", lambda h: h["config"].update(cell="lstm"), "lstm cell block"),
    ("task", "gru", lambda h: h["config"].update(task="multiclass"),
     "the config records task 'multiclass', but 2 classes make it 'binary'"),
    ("hidden-size", "gru", lambda h: h["config"].update(hidden_size=4),
     "the config calls for hidden_size 4, but the model has 8"),
    ("peepholes", "lstm", lambda h: h["config"].update(peepholes=False),
     "the config calls for peepholes False, but the model has True"),
    # the recorded task follows the names, so that only the class count disagrees
    ("short-class-names", "lstm",
     lambda h: (h.update(class_names=h["class_names"][:2]), h["config"].update(task="binary")),
     "the model scores 3 classes, but 2 are named"),
]


class TestConfigAgainstBlocks:
    """A checkpoint states its head, class count and cell only through its
    config and class names; blocks that disagree with them exit 2."""

    @pytest.mark.parametrize("which,edit,message", [c[1:] for c in _DISAGREEING_HEADERS],
                             ids=[c[0] for c in _DISAGREEING_HEADERS])
    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_disagreement_exits_2(self, workspace, lstm_tri, tmp_path, which, edit, message,
                                  command):
        src = workspace["run"] / "model.sqt" if which == "gru" else lstm_tri
        model = rewrite_artifact(src, tmp_path / "bad.sqt", edit_header=edit)
        args = ["--model", model]
        if command == "evaluate":
            args += ["--data", workspace["pre"] / "dataset.sqt", "--out-dir", tmp_path]
        proc = _run_cli(command, *args, stdin="sig1w00 sig1w01\n")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_softmax_over_2_is_refused_by_its_task(self, workspace, tmp_path, command):
        # the recorded task is checked before the blocks, whose 2 head rows
        # no longer chain
        args = ["--model", _softmax_over_2_checkpoint(workspace, tmp_path)]
        if command == "evaluate":
            args += ["--data", workspace["pre"] / "dataset.sqt", "--out-dir", tmp_path]
        proc = _run_cli(command, *args, stdin="sig1w00\n")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.endswith("the config records task 'multiclass', but 2 classes "
                                    "make it 'binary'; retrain the model\n")


def _reencoded(ws, tmp, name, edit_rows):
    """The workspace corpus with its data rows changed by ``edit_rows``,
    encoded with the workspace vocabulary; returns the dataset path."""
    lines = ws["csv"].read_text(encoding="utf-8").splitlines(keepends=True)
    csv = tmp / f"{name}.csv"
    csv.write_text("".join(lines[:1] + edit_rows(lines[1:])), encoding="utf-8")
    proc = _run_cli("preprocess", "--data", csv, "--vocab", ws["pre"] / "vocab.tsv",
                    "--max-len", 32, "--out-dir", tmp / name)
    assert proc.returncode == 0, proc.stderr
    return tmp / name / "dataset.sqt"


class TestEvaluateClassOrder:
    """A file encoded with ``--vocab`` names its classes in the order its
    labels first appear; evaluate scores it in the model's order."""

    def test_reversed_rows_score_like_the_original(self, workspace, tmp_path):
        same = _reencoded(workspace, tmp_path, "same", lambda rows: rows)
        flipped = _reencoded(workspace, tmp_path, "flipped", lambda rows: rows[::-1])
        assert engine.load_dataset(flipped)[0].class_names == ["pos", "neg"]
        reports = []
        for data in (same, flipped):
            proc = _run_cli("evaluate", "--model", workspace["run"] / "model.sqt",
                            "--data", data, "--split", "all", "--out-dir", data.parent)
            assert proc.returncode == 0, proc.stderr
            reports.append((proc.stdout, _read_metrics(data.parent / "eval_metrics.txt")))
        assert "confusion (rows = true, cols = predicted):" in reports[0][0]
        assert reports[1] == reports[0]

    def test_subset_of_the_model_classes(self, workspace, tmp_path):
        data = _reencoded(workspace, tmp_path, "pos", lambda rows: [r for r in rows
                                                                    if r.endswith(",pos\n")])
        assert engine.load_dataset(data)[0].class_names == ["pos"]
        proc = _run_cli("evaluate", "--model", workspace["run"] / "model.sqt",
                        "--data", data, "--split", "all", "--out-dir", tmp_path)
        assert proc.returncode == 0, proc.stderr
        metrics = _read_metrics(tmp_path / "eval_metrics.txt")
        assert (metrics["support_neg"], metrics["support_pos"]) == ("0", "12")

    def test_class_the_model_lacks_exits_2(self, workspace, tmp_path):
        data = _reencoded(workspace, tmp_path, "extra",
                          lambda rows: rows + ["sig0w00 sig1w00,maybe\n"])
        proc = _run_cli("evaluate", "--model", workspace["run"] / "model.sqt",
                        "--data", data, "--split", "all", "--out-dir", tmp_path)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "error:" in proc.stderr and "the model has no class 'maybe'" in proc.stderr


def _bare_short_checkpoint(ws, tmp):
    """The trained checkpoint without its embedded vocabulary, so only the
    vocabulary hash would tie it to the data, and with its embedding table
    cut to 10 rows. Every checkpoint embeds its vocabulary, so the missing
    header field stops it before the table is compared with the data."""
    return rewrite_artifact(ws["run"] / "model.sqt", tmp / "bare.sqt",
                            edit_header=lambda h: h.pop("vocab_text"),
                            edit_arrays=lambda a: a.update(
                                {"embedding.weights": a["embedding.weights"][:10]}))


def _format_2_checkpoint(ws, tmp):
    """The trained checkpoint with a format-2 header: the `loss` config key
    and the `embedding_trainable` field that format carried."""
    def downgrade(h):
        h.update(format=2, embedding_trainable=True)
        h["config"]["loss"] = None
    return rewrite_artifact(ws["run"] / "model.sqt", tmp / "old.sqt", edit_header=downgrade)


def _vectors_file(tmp, line):
    vectors = tmp / "vectors.txt"
    vectors.write_text(line + "\n", encoding="utf-8")
    return vectors


def _tokenless_csv(tmp):
    csv = tmp / "marks.csv"
    csv.write_text("text,label\n!!!,pos\n...,neg\n", encoding="utf-8")
    return csv


def _two_entry_vocab(tmp):
    vocab = tmp / "vocab.tsv"
    vocab.write_text("0\t<PAD>\t0\n1\t<UNK>\t0\n", encoding="utf-8")
    return vocab


def _pad_entry_taken_vocab(ws, tmp):
    """The workspace vocabulary with entries 0 and 2 trading tokens: a real
    token on the pad row would encode as padding."""
    rows = [line.split("\t")
            for line in (ws["pre"] / "vocab.tsv").read_text(encoding="utf-8").splitlines()]
    rows[0][1:], rows[2][1:] = rows[2][1:], rows[0][1:]
    vocab = tmp / "vocab.tsv"
    vocab.write_text("".join("\t".join(r) + "\n" for r in rows), encoding="utf-8")
    return vocab


def _uncleanable_token_vocab(ws, tmp):
    """The workspace vocabulary with entry 2 renamed to a token that
    cleaning never produces, so no document could reach its row."""
    rows = [line.split("\t")
            for line in (ws["pre"] / "vocab.tsv").read_text(encoding="utf-8").splitlines()]
    rows[2][1] = "Fill-0001"
    vocab = tmp / "vocab.tsv"
    vocab.write_text("".join("\t".join(r) + "\n" for r in rows), encoding="utf-8")
    return vocab


def _unsplit_dataset(ws, tmp):
    """The workspace corpus encoded with its vocabulary and no split."""
    assert cli.entry(["preprocess", "--data", str(ws["csv"]), "--vocab",
                      str(ws["pre"] / "vocab.tsv"), "--max-len", "32",
                      "--out-dir", str(tmp / "unsplit")]) == 0
    return tmp / "unsplit" / "dataset.sqt"


def _zero_row_dataset(ws, tmp):
    """The workspace corpus encoded without a split, cut to zero rows."""
    return rewrite_artifact(_unsplit_dataset(ws, tmp), tmp / "zero-rows.sqt", edit_arrays=no_rows)


def _softmax_over_2_checkpoint(ws, tmp):
    """The trained binary checkpoint as earlier versions could store a
    softmax head over its 2 classes: 2 head rows and task multiclass."""
    return rewrite_artifact(ws["run"] / "model.sqt", tmp / "softmax2.sqt",
                            edit_header=lambda h: h["config"].update(task="multiclass"),
                            edit_arrays=lambda a: a.update(
                                {"head.W": np.vstack([a["head.W"], -a["head.W"]]),
                                 "head.b": np.zeros(2)}))


def _config_file(tmp, line):
    cfg = tmp / "run.cfg"
    cfg.write_text(f"epochs = 1\n{line}\n", encoding="utf-8")
    return cfg


# (id, command line from the workspace and tmp_path, exit code, stderr text)
_EXIT_CODE_CASES = [
    ("train", lambda ws, tmp: [
        "train", "--data", ws["pre"] / "dataset.sqt", "--epochs", 1, "--quiet",
        "--out-dir", tmp], 0, "wrote"),
    ("evaluate", lambda ws, tmp: [
        "evaluate", "--model", ws["run"] / "model.sqt", "--data", ws["pre"] / "dataset.sqt",
        "--out-dir", tmp], 0, "eval_metrics.txt"),
    ("predict", lambda ws, tmp: ["predict", "--model", ws["run"] / "model.sqt"], 0,
     "resolved configuration:"),
    ("loss-flag", lambda ws, tmp: [
        "train", "--data", ws["pre"] / "dataset.sqt", "--loss", "bce", "--out-dir", tmp], 1,
     "unrecognized arguments: --loss bce"),
    ("loss-config-line", lambda ws, tmp: [
        "train", "--data", ws["pre"] / "dataset.sqt", "--config", _config_file(tmp, "loss = bce"),
        "--out-dir", tmp], 1,
     "unknown configuration key 'loss'"),
    ("task-flag", lambda ws, tmp: [
        "train", "--data", ws["pre"] / "dataset.sqt", "--task", "multiclass", "--out-dir", tmp],
     1, "unrecognized arguments: --task multiclass"),
    ("task-config-line", lambda ws, tmp: [
        "train", "--data", ws["pre"] / "dataset.sqt",
        "--config", _config_file(tmp, "task = binary"), "--out-dir", tmp], 1,
     "unknown configuration key 'task'"),
    ("train-fraction-on-train", lambda ws, tmp: [
        "train", "--data", ws["pre"] / "dataset.sqt", "--train-fraction", 0.8, "--out-dir", tmp],
     1, "unrecognized arguments: --train-fraction 0.8"),
    ("split-counts", lambda ws, tmp: [
        "preprocess", "--data", ws["csv"], "--train-count", 5, "--test-count", 5,
        "--out-dir", tmp], 1, "unrecognized arguments: --train-count 5 --test-count 5"),
    ("evaluate-train-without-split", lambda ws, tmp: [
        "evaluate", "--model", ws["run"] / "model.sqt", "--data", _unsplit_dataset(ws, tmp),
        "--split", "train", "--out-dir", tmp], 1,
     "the dataset has no train/test split, so no train split; use --split all"),
    ("evaluate-test-without-split", lambda ws, tmp: [
        "evaluate", "--model", ws["run"] / "model.sqt", "--data", _unsplit_dataset(ws, tmp),
        "--split", "test", "--out-dir", tmp], 1,
     "the dataset has no train/test split, so no test split; use --split all"),
    ("evaluate-zero-row-dataset", lambda ws, tmp: [
        "evaluate", "--model", ws["run"] / "model.sqt", "--data", _zero_row_dataset(ws, tmp),
        "--out-dir", tmp], 2, "zero-rows.sqt: dataset: a dataset needs at least one document"),
    ("softmax-over-2-checkpoint", lambda ws, tmp: [
        "predict", "--model", _softmax_over_2_checkpoint(ws, tmp)], 2,
     "the config records task 'multiclass', but 2 classes make it 'binary'; retrain the model"),
    ("max-len-flag", lambda ws, tmp: [
        "train", "--data", ws["pre"] / "dataset.sqt", "--max-len", 3, "--out-dir", tmp], 1,
     "unrecognized arguments: --max-len 3"),
    ("max-len-above-the-bound", lambda ws, tmp: [
        "preprocess", "--data", ws["csv"], "--max-len", 65537, "--out-dir", tmp], 1,
     "error: max_len must be <= 65536, got 65537\n"),
    ("checkpoint-max-len-above-the-bound", lambda ws, tmp: [
        "predict", "--model", rewrite_artifact(ws["run"] / "model.sqt", tmp / "long.sqt",
                                               lambda h: h["pipeline"].update(max_len=10**30))],
     2, f"long.sqt: pipeline: max_len must be <= 65536, got {10**30}\n"),
    ("vocab-size-config-line", lambda ws, tmp: [
        "train", "--data", ws["pre"] / "dataset.sqt",
        "--config", _config_file(tmp, "vocab_size = 20000"), "--out-dir", tmp], 1,
     "unknown configuration key 'vocab_size'"),
    ("vocab-with-vocab-size", lambda ws, tmp: [
        "preprocess", "--data", ws["csv"], "--vocab", ws["pre"] / "vocab.tsv",
        "--vocab-size", 50, "--out-dir", tmp], 1,
     "--vocab-size caps a vocabulary being built; it cannot be given with --vocab"),
    ("model-flag-on-preprocess", lambda ws, tmp: [
        "preprocess", "--data", ws["csv"], "--hidden-size", 4, "--out-dir", tmp], 1,
     "unrecognized arguments: --hidden-size 4"),
    ("missing-file", lambda ws, tmp: ["train", "--data", tmp / "absent.sqt"], 2,
     "No such file"),
    ("non-finite-pretrained-vector", lambda ws, tmp: [
        "train", "--data", ws["pre"] / "dataset.sqt", "--pretrained-vectors",
        _vectors_file(tmp, "sig1w00 " + " ".join(["nan"] * 16)), "--out-dir", tmp], 2,
     "pretrained vectors line 1: 'sig1w00' has a value that is not a finite number"),
    ("format-2-checkpoint", lambda ws, tmp: [
        "evaluate", "--model", _format_2_checkpoint(ws, tmp), "--data", ws["pre"] / "dataset.sqt",
        "--out-dir", tmp], 2, "checkpoint format 2 is not supported"),
    ("short-embedding-table", lambda ws, tmp: [
        "evaluate", "--model", _bare_short_checkpoint(ws, tmp),
        "--data", ws["pre"] / "dataset.sqt", "--out-dir", tmp], 2,
     "header field 'vocab_text' is missing"),
    ("csv-without-tokens", lambda ws, tmp: [
        "preprocess", "--data", _tokenless_csv(tmp), "--out-dir", tmp], 2,
     "marks.csv: no document has a token after cleaning"),
    ("two-entry-vocabulary", lambda ws, tmp: [
        "preprocess", "--data", ws["csv"], "--vocab", _two_entry_vocab(tmp), "--out-dir", tmp], 2,
     "vocabulary must hold pad, OOV and at least one token, got 2 entries"),
    ("vocabulary-pad-entry-taken", lambda ws, tmp: [
        "preprocess", "--data", ws["csv"], "--vocab", _pad_entry_taken_vocab(ws, tmp),
        "--out-dir", tmp], 2,
     "error: vocabulary line 1: entry 0 must be '<PAD>', got "),
    ("vocabulary-token-clean-never-makes", lambda ws, tmp: [
        "preprocess", "--data", ws["csv"], "--vocab", _uncleanable_token_vocab(ws, tmp),
        "--out-dir", tmp], 2,
     "error: vocabulary line 3: token 'Fill-0001' is not lowercase ASCII letters and digits"),
    ("checkpoint-config-type", lambda ws, tmp: [
        "evaluate", "--model", rewrite_artifact(ws["run"] / "model.sqt", tmp / "bad.sqt",
                                                lambda h: h["config"].update(seed="x")),
        "--data", ws["pre"] / "dataset.sqt", "--out-dir", tmp], 2,
     "seed must be of type int, got 'x'"),
    ("negative-seed-flag", lambda ws, tmp: [
        "train", "--data", ws["pre"] / "dataset.sqt", "--seed", -1, "--out-dir", tmp], 1,
     "seed must be an integer >= 0, got -1"),
    ("negative-seed-config-line", lambda ws, tmp: [
        "train", "--data", ws["pre"] / "dataset.sqt", "--config", _config_file(tmp, "seed = -1"),
        "--out-dir", tmp], 1,
     "seed must be an integer >= 0, got -1"),
    ("negative-seed-preprocess", lambda ws, tmp: [
        "preprocess", "--data", ws["csv"], "--train-fraction", 0.5, "--seed", -5,
        "--out-dir", tmp], 1,
     "seed must be an integer >= 0, got -5"),
    ("infinite-learning-rate", lambda ws, tmp: [
        "train", "--data", ws["pre"] / "dataset.sqt",
        "--config", _config_file(tmp, "learning_rate = inf"), "--out-dir", tmp], 1,
     "learning_rate must be positive and finite, got inf"),
    ("infinite-gradient-clip", lambda ws, tmp: [
        "train", "--data", ws["pre"] / "dataset.sqt", "--gradient-clip", "inf",
        "--out-dir", tmp], 1,
     "gradient_clip must be positive and finite, got inf"),
    ("divergence", lambda ws, tmp: [
        "train", "--data", ws["pre"] / "dataset.sqt", "--cell", "rnn", "--optimizer", "sgd",
        "--learning-rate", "1e12", "--epochs", 40, "--quiet", "--out-dir", tmp], 3,
     "diverged at epoch"),
]


class TestExitCodeTable:
    """The README's exit codes, from the command line as a user runs it:
    0 success, 1 usage or configuration error, 2 data or file error,
    3 divergence; never a traceback."""

    @pytest.mark.parametrize("make_args,code,message",
                             [c[1:] for c in _EXIT_CODE_CASES],
                             ids=[c[0] for c in _EXIT_CODE_CASES])
    def test_documented_exit_code(self, workspace, tmp_path, make_args, code, message):
        proc = _run_cli(*make_args(workspace, tmp_path), stdin="sig1w00 sig1w01\n")
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == (1 if code else 0)


# Imports the package and every module in it, and prints the modules
# walked and the top-level modules that loaded from outside the standard
# library, numpy and seqtext. Site hooks such as _distutils_hack and
# certifi load before the first line.
_IMPORT_EVERY_MODULE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
seqtext = importlib.import_module("seqtext")
names = [m.name for m in pkgutil.walk_packages(seqtext.__path__, "seqtext.")]
for name in names:
    importlib.import_module(name)
tops = {m.partition(".")[0] for m in set(sys.modules) - before}
print(json.dumps([names, sorted(tops - set(sys.stdlib_module_names) - {"numpy", "seqtext"})]))
"""


class TestModuleEntry:
    def test_numpy_is_the_only_runtime_dependency(self):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_EVERY_MODULE],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        names, foreign = json.loads(proc.stdout)
        package = Path(cli.__file__).parent
        assert sorted(names) == sorted(f"seqtext.{p.stem}" for p in package.glob("*.py")
                                       if p.stem != "__init__")
        assert foreign == []

    def test_python_dash_m_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "seqtext", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "preprocess" in proc.stdout
        assert "predict" in proc.stdout

    def test_console_script_runs_the_module_main(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text("utf-8"))
        module, _, name = project["project"]["scripts"]["seqtext"].partition(":")
        assert getattr(importlib.import_module(module), name) is seqtext_main.main


# A dataset is integer work only, so its bytes do not depend on the BLAS
# build or the host. Case b re-encodes with case a's vocabulary; case c
# drops two stopwords and caps the vocabulary where counts tie, and its
# length cuts most documents.
_PREPROCESS_PINS = [
    ("built", lambda d: ["--train-fraction", 0.5, "--vocab-size", 500, "--max-len", 70],
     "8192a1731f13e59d7dcc63b9680c476f0d7d1a89fac35bc55b6e3f58d5e797da",
     "565da1ec7e7d00718b3bc0dfabd4694e3f0dc7e5b66cb8f1a93c44f07ff7d5fb"),
    ("vocab-reuse", lambda d: ["--vocab", d / "built" / "vocab.tsv", "--max-len", 100],
     "11656014a9070036982c482952213ed0547b9106a6f8a7eaaad432ef23a6f26b",
     "565da1ec7e7d00718b3bc0dfabd4694e3f0dc7e5b66cb8f1a93c44f07ff7d5fb"),
    ("stopwords", lambda d: ["--stopwords", d / "stop.txt", "--vocab-size", 40,
                             "--max-len", 20],
     "49927403063fe5a8743723c490097a52aa0fe2dbf33b781df3f3e95ad0c53583",
     "0f3652e6fcd8f552697f6c281145cd1595b3c3ae82f0d6f98f75704436514194"),
]


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    """A 600-document corpus preprocessed three ways, in case order. The
    "built" case holds 300 test rows of length 70."""
    root = tmp_path_factory.mktemp("pins")
    engine.make_synthetic_csv(root / "corpus.csv", 600, 2, seed=0)
    (root / "stop.txt").write_text("fill0001\nfill0002\n", encoding="utf-8")
    for name, args, _, _ in _PREPROCESS_PINS:
        proc = _run_cli("preprocess", "--data", root / "corpus.csv", *args(root),
                        "--out-dir", root / name)
        assert proc.returncode == 0, proc.stderr
    return root


# train flags of the runs on the pinned corpus: each optimizer's in-place
# update, each cell, and an lstm that train scores with no epoch run
_PINNED_RUNS = {
    "adam-lstm": ["--optimizer", "adam", "--cell", "lstm", "--epochs", 2],
    "rmsprop-lstm": ["--optimizer", "rmsprop", "--cell", "lstm", "--epochs", 2],
    "sgd-gru": ["--optimizer", "sgd", "--cell", "gru", "--epochs", 2],
    "adam-rnn": ["--optimizer", "adam", "--cell", "rnn", "--epochs", 2],
    "lstm-epochs-0": ["--cell", "lstm", "--epochs", 0],
}


@pytest.fixture(scope="module")
def pinned_train(pinned):
    """``run(name, hash_seed)`` trains ``_PINNED_RUNS[name]`` on the pinned
    "built" dataset in a child process with that PYTHONHASHSEED, once, and
    returns its output directory and stderr."""
    done = {}

    def run(name, hash_seed):
        if (name, hash_seed) not in done:
            out = pinned / "runs" / f"{name}-{hash_seed}"
            proc = _run_cli("train", "--data", pinned / "built" / "dataset.sqt",
                            *_PINNED_RUNS[name], "--quiet", "--out-dir", out,
                            env={**os.environ, "PYTHONHASHSEED": str(hash_seed)})
            assert proc.returncode == 0, proc.stderr
            done[name, hash_seed] = out, proc.stderr
        return done[name, hash_seed]

    return run


class TestPreprocessBytes:
    def test_generated_corpus_is_pinned(self, pinned):
        # clean strips punctuation, so the dataset and vocabulary pins
        # cannot see a comma that the generator moves
        got = hashlib.sha256((pinned / "corpus.csv").read_bytes()).hexdigest()
        assert got == "7e170b0cd76348c8e7c8a2b6f5328f629bc181e57140d2011c37650dc232ec04"

    @pytest.mark.parametrize("case", _PREPROCESS_PINS, ids=[c[0] for c in _PREPROCESS_PINS])
    def test_artifact_bytes_are_pinned(self, pinned, case):
        name, _, dataset_sha, vocab_sha = case
        for file, want in (("dataset.sqt", dataset_sha), ("vocab.tsv", vocab_sha)):
            got = hashlib.sha256((pinned / name / file).read_bytes()).hexdigest()
            assert got == want, file
