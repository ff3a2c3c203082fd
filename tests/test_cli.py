"""End-to-end command-line flows: preprocess, train, evaluate, predict."""

import io
import subprocess
import sys

import numpy as np
import pytest

from seqtext import cli, engine, pipeline
from seqtext.model import forward

from helpers import rewrite_artifact


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
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
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
    row = pipeline.encode(pipeline.clean(line, ckpt.pipeline), ckpt.vocab, ckpt.pipeline)
    probs = forward(ckpt.model, row)[0]
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
        monkeypatch.setattr(sys, "stdin", io.StringIO("".join(l + "\n" for l in lines)))
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

    def test_empty_stdin_prints_nothing(self, workspace, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
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
        assert cli.entry(["train", "--data", str(pre / "dataset.sqt"), "--task", "multiclass",
                          "--cell", "lstm", "--hidden-size", "6", "--epochs", "20",
                          "--seed", "2", "--quiet", "--out-dir", str(run)]) == 0
        lines = [f"sig{i % 3}w{i % 10:02d} sig{i % 3}w{(i + 3) % 10:02d}" for i in range(300)]
        monkeypatch.setattr(sys, "stdin", io.StringIO("".join(l + "\n" for l in lines)))
        capsys.readouterr()
        assert cli.entry(["predict", "--model", str(run / "model.sqt")]) == 0
        got = capsys.readouterr().out.splitlines()
        ckpt = engine.load_checkpoint(run / "model.sqt")
        assert ckpt.model.head == "softmax"
        assert got == [_predict_alone(ckpt, line) for line in lines]
        assert {g.split("\t")[0] for g in got} == set(ckpt.class_names)


class TestEvaluateBatchSize:
    def test_confusion_does_not_depend_on_batch_size(self, workspace):
        ckpt = engine.load_checkpoint(workspace["run"] / "model.sqt")
        ds, _, _ = engine.load_dataset(workspace["pre"] / "dataset.sqt")
        for which in ("test", "all"):
            n = ds.test_idx.size if which == "test" else len(ds)
            reference = engine.evaluate(ckpt.model, ds, which, batch_size=1).confusion
            assert reference.sum() == n
            for batch_size in (5, 64, 256, n):
                got = engine.evaluate(ckpt.model, ds, which, batch_size=batch_size)
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
        assert engine.load_checkpoint(run / "model.sqt").model.embedding.vocab_size == 12002

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, workspace, tmp_path, capsys):
        rc = cli.entry([
            "train", "--data", str(workspace["pre"] / "dataset.sqt"),
            "--cell", "rnn", "--optimizer", "sgd", "--learning-rate", "1e12",
            "--epochs", "40", "--quiet", "--out-dir", str(tmp_path),
        ])
        assert rc == 3
        assert "diverged at epoch" in capsys.readouterr().err

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
        monkeypatch.setattr(sys, "stdin", io.StringIO("hello\n"))
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


def _run_cli(*args, stdin=""):
    return subprocess.run([sys.executable, "-m", "seqtext", *map(str, args)],
                          input=stdin, capture_output=True, text=True, timeout=120)


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
        assert f"row 2 holds token index {bad}" in proc.stderr

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


@pytest.fixture(scope="module")
def lstm_tri(tmp_path_factory):
    """An untrained three-class lstm checkpoint with peepholes."""
    root = tmp_path_factory.mktemp("tri")
    csv = root / "tri.csv"
    engine.make_synthetic_csv(csv, 30, 3, seed=2, filler_tokens=20, min_len=8, max_len=12)
    assert cli.entry(["preprocess", "--data", str(csv), "--train-fraction", "0.5",
                      "--max-len", "16", "--out-dir", str(root)]) == 0
    assert cli.entry(["train", "--data", str(root / "dataset.sqt"), "--task", "multiclass",
                      "--cell", "lstm", "--hidden-size", "6", "--epochs", "0", "--quiet",
                      "--out-dir", str(root)]) == 0
    return root / "model.sqt"


# (id, which checkpoint, header edit, stderr text). The workspace model
# is a binary gru of hidden size 8.
_DISAGREEING_HEADERS = [
    ("cell", "gru", lambda h: h["config"].update(cell="lstm"), "lstm cell block"),
    ("task", "gru", lambda h: h["config"].update(task="multiclass"),
     "head rows 2, but the model has 1"),
    ("hidden-size", "gru", lambda h: h["config"].update(hidden_size=4),
     "the config calls for hidden_size 4, but the model has 8"),
    ("peepholes", "lstm", lambda h: h["config"].update(peepholes=False),
     "the config calls for peepholes False, but the model has True"),
    ("short-class-names", "lstm", lambda h: h.update(class_names=h["class_names"][:2]),
     "head rows 2, but the model has 3"),
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
    ("max-len-flag", lambda ws, tmp: [
        "train", "--data", ws["pre"] / "dataset.sqt", "--max-len", 3, "--out-dir", tmp], 1,
     "unrecognized arguments: --max-len 3"),
    ("vocab-size-config-line", lambda ws, tmp: [
        "train", "--data", ws["pre"] / "dataset.sqt",
        "--config", _config_file(tmp, "vocab_size = 20000"), "--out-dir", tmp], 1,
     "unknown configuration key 'vocab_size'"),
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
        if code:
            assert "error:" in proc.stderr


class TestModuleEntry:
    def test_python_dash_m_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "seqtext", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "preprocess" in proc.stdout
        assert "predict" in proc.stdout
