"""Config parsing, splits, CSV loading, training loop, and artifacts."""

import math
import re
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from seqtext import engine, pipeline
from seqtext import model as M
from seqtext.artifacts import read_container, write_container
from seqtext.config import ExperimentConfig, parse_config_text
from seqtext.cells import make_cell
from seqtext.embedding import embedding_dim_heuristic, init_table
from seqtext.engine import (
    Dataset,
    build_model,
    corpus_stats,
    emit_learning_curve,
    evaluate,
    load_checkpoint,
    load_csv_dataset,
    load_dataset,
    make_synthetic_csv,
    save_checkpoint,
    save_dataset,
    split,
    train,
    train_epochs,
)
from seqtext.errors import (
    ConfigError,
    DataError,
    DivergenceError,
    IntegrityError,
    VocabularyMismatchError,
)
from seqtext.metrics import metrics_lines

from helpers import (all_rows_on, make_synthetic_corpus, no_rows, reseal, rewrite_artifact,
                     rewrite_manifest)


class TestConfigParsing:
    def test_typed_values_and_comments(self):
        text = """
        # an experiment
        cell = gru
        epochs = 12

        learning_rate = 0.25
        peepholes = off
        embedding_dim = auto
        gradient_clip = none
        """
        got = parse_config_text(text)
        assert got == {
            "cell": "gru",
            "epochs": 12,
            "learning_rate": 0.25,
            "peepholes": False,
            "embedding_dim": "auto",
            "gradient_clip": None,
        }

    def test_unknown_key_names_source_and_line(self):
        with pytest.raises(ConfigError, match=r"run\.cfg:2.*momentum"):
            parse_config_text("epochs = 3\nmomentum = 0.9\n", source="run.cfg")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match=r":3.*duplicate.*epochs"):
            parse_config_text("epochs = 3\nseed = 1\nepochs = 4\n")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigError, match=":1"):
            parse_config_text("epochs 3\n")

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError, match="epochs"):
            parse_config_text("epochs = many\n")

    def test_bad_boolean_rejected(self):
        with pytest.raises(ConfigError, match="peepholes"):
            parse_config_text("peepholes = maybe\n")

    @pytest.mark.parametrize("line,message", [
        ("seed = 1.5", "seed must be an integer, got '1.5'"),
        ("embedding_dim = 2.5", "embedding_dim must be an integer or 'auto', got '2.5'"),
        ("learning_rate = fast", "learning_rate must be a number, got 'fast'"),
        ("peepholes = maybe", "peepholes must be a boolean, got 'maybe'"),
    ], ids=["int", "int-or-auto", "float", "bool"])
    def test_bad_value_names_source_line_and_kind(self, line, message):
        with pytest.raises(ConfigError, match=re.escape(f"run.cfg:2: {message}")):
            parse_config_text(f"epochs = 3\n{line}\n", source="run.cfg")

    def test_readme_example_lists_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```\n(# run\.cfg\n.*?)```", readme, re.S).group(1)
        cfg = ExperimentConfig(**parse_config_text(block, source="README.md"))
        # it spells out the rate that an unset learning_rate resolves to for 2 classes
        assert cfg.learning_rate == ExperimentConfig().resolved(100, 2).learning_rate
        assert replace(cfg, learning_rate=None) == ExperimentConfig()


class TestExperimentConfig:
    def test_learning_rate_resolution_by_task(self):
        # the class count is the task: binary for 2 classes, multiclass for more
        assert ExperimentConfig().resolved(100, 2).learning_rate == 0.001
        assert ExperimentConfig().resolved(100, 3).learning_rate == 0.005
        assert ExperimentConfig(learning_rate=0.2).resolved(100, 2).learning_rate == 0.2
        assert ExperimentConfig(learning_rate=0.2).resolved(100, 5).learning_rate == 0.2

    def test_task_is_not_a_setting(self):
        with pytest.raises(ConfigError, match="task"):
            parse_config_text("task = binary\n")
        with pytest.raises(TypeError, match="task"):
            ExperimentConfig(**{"task": "multiclass"})
        assert "task" not in ExperimentConfig().describe()

    def test_loss_resolution_by_head(self):
        # the class count picks the head, and the head fixes the loss
        vocab = pipeline.Vocabulary([f"t{i}" for i in range(20)], [0] * 20)
        for head, n_classes, loss in [("sigmoid", 2, M.bce_loss), ("softmax", 3, M.cce_loss)]:
            model = build_model(ExperimentConfig(), n_classes, vocab)
            assert model.head == head
            probs = M.forward(model, np.array([[0, 2, 3, 4], [5, 6, 7, 8]]))[0]
            y = np.array([1, 0])
            np.testing.assert_array_equal(M.loss_values(model, probs, y), loss(probs, y))

    def test_embedding_dim_auto_uses_vocab_size(self):
        cfg = ExperimentConfig(embedding_dim="auto")
        assert cfg.resolved(65536, 2).embedding_dim == 16
        assert cfg.resolved(16, 2).embedding_dim == 2
        assert ExperimentConfig(embedding_dim=24).resolved(500, 2).embedding_dim == 24

    @pytest.mark.parametrize("kwargs", [
        {},
        {"embedding_dim": "auto"},
        {"embedding_dim": "auto", "learning_rate": 0.2, "cell": "gru"},
    ], ids=["defaults", "auto", "auto-with-rate"])
    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_resolved_config_resolves_to_itself(self, kwargs, n_classes):
        cfg = ExperimentConfig(**kwargs).resolved(500, n_classes)
        assert cfg.learning_rate is not None and cfg.embedding_dim != "auto"
        # whatever the data, once resolved nothing is left to fill in
        for vocab_size, classes in ((500, n_classes), (16, 2), (65536, 5)):
            assert cfg.resolved(vocab_size, classes) == cfg
        # only the two data-dependent settings change
        assert replace(cfg, learning_rate=None, embedding_dim="auto") == \
            replace(ExperimentConfig(**kwargs), learning_rate=None, embedding_dim="auto")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"literal_recurrence": True, "cell": "gru"},
            {"cell": "transformer"},
            {"optimizer": "lbfgs"},
            {"hidden_size": 0},
            {"dense_size": 0},
            {"hidden_size": 2.5},
            {"epochs": -1},
            {"batch_size": 0},
            {"embedding_dim": 0},
            {"embedding_dim": "wide"},
            {"learning_rate": 0.0},
            {"gradient_clip": -1.0},
            {"literal_recurrence": True, "cell": "lstm"},
            {"seed": -1},
            {"learning_rate": float("inf")},
            {"gradient_clip": float("inf")},
            {"learning_rate": float("nan")},
        ],
    )
    def test_validate_rejects(self, kwargs):
        # the constructor validates, and replace() validates the copy, so
        # train_epochs and save_checkpoint are never handed a bad config
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)
        with pytest.raises(ConfigError):
            replace(ExperimentConfig(), **kwargs)

    def test_fields_cannot_be_reassigned(self):
        # so the checks hold for the object's lifetime
        cfg = ExperimentConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.cell = "transformer"
        assert cfg.cell == "lstm"

    def test_describe_round_trips_as_config_text(self):
        cfg = ExperimentConfig(cell="gru", embedding_dim="auto", hidden_size=8, seed=5)
        text = cfg.resolved(500, 3).describe()
        back = ExperimentConfig(**parse_config_text(text))
        assert back.cell == "gru"
        assert back.hidden_size == 8
        assert back.seed == 5
        # the described form is the resolved one
        assert back.learning_rate == 0.005
        assert back.embedding_dim == embedding_dim_heuristic(500)

    def test_from_dict_rejects_unknown_keys(self):
        # parse_config_text names the line; the constructor refuses a bare keyword
        with pytest.raises(TypeError, match="momentum"):
            ExperimentConfig(**{"momentum": 0.9})

    @pytest.mark.parametrize("key", ["vocab_size", "max_len"])
    def test_encoding_settings_belong_to_the_dataset(self, key):
        # the vocabulary cap and the length are fixed by preprocess
        with pytest.raises(TypeError, match=key):
            ExperimentConfig(**{key: 100})
        with pytest.raises(ConfigError, match=key):
            parse_config_text(f"{key} = 100\n")

    def test_from_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("cell = rnn\nепochs = 3\n".replace("еп", "ep"), encoding="utf-8")
        cfg = ExperimentConfig(**parse_config_text(p.read_text(encoding="utf-8")))
        assert cfg.cell == "rnn"
        assert cfg.epochs == 3


class TestSplit:
    def test_fraction_is_stratified(self):
        ds, _, _ = make_synthetic_corpus(10, 2, seed=0)
        out = split(ds, train_fraction=0.8, seed=1)
        assert out.train_idx.size == 8
        assert out.test_idx.size == 2
        y = out.labels
        assert np.bincount(y[out.train_idx]).tolist() == [4, 4]
        assert np.bincount(y[out.test_idx]).tolist() == [1, 1]

    def test_split_partitions_the_corpus(self):
        ds, _, _ = make_synthetic_corpus(21, 3, seed=2)
        out = split(ds, train_fraction=0.7, seed=0)
        both = np.concatenate([out.train_idx, out.test_idx])
        assert np.array_equal(np.sort(both), np.arange(21))

    def test_rows_are_pinned(self):
        # 7 documents per class, labels 0 1 2 0 1 2 ...: each class puts
        # ceil(4.9) = 5 on the training side. The rows follow the seed's
        # draws, so this list changes only when the split's draws change.
        labels = np.arange(21) % 3
        ds = Dataset(indices=np.zeros((21, 4), dtype=np.int32), labels=labels,
                     lengths=np.zeros(21, dtype=np.int32), class_names=["a", "b", "c"])
        out = split(ds, train_fraction=0.7, seed=0)
        assert out.train_idx.tolist() == [2, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 16, 18, 19, 20]
        assert out.test_idx.tolist() == [0, 1, 3, 10, 14, 17]

    def test_seed_determinism(self):
        ds, _, _ = make_synthetic_corpus(20, 2, seed=3)
        a = split(ds, train_fraction=0.5, seed=9)
        b = split(ds, train_fraction=0.5, seed=9)
        c = split(ds, train_fraction=0.5, seed=10)
        assert np.array_equal(a.train_idx, b.train_idx)
        assert not np.array_equal(a.train_idx, c.train_idx)

    def test_source_dataset_is_untouched(self):
        ds, _, _ = make_synthetic_corpus(10, 2, seed=0)
        split(ds, train_fraction=0.5)
        assert ds.train_idx is None and ds.test_idx is None

    def test_argument_validation(self):
        ds, _, _ = make_synthetic_corpus(10, 2, seed=0)
        with pytest.raises(TypeError, match="train_fraction"):
            split(ds)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ConfigError, match=r"train_fraction must be in \(0, 1\)"):
                split(ds, train_fraction=bad)

    def test_negative_seed_rejected(self):
        ds, _, _ = make_synthetic_corpus(10, 2, seed=0)
        with pytest.raises(ConfigError, match="seed must be an integer >= 0, got -1"):
            split(ds, train_fraction=0.5, seed=-1)

    def test_fraction_leaving_empty_test_rejected(self):
        ds, _, _ = make_synthetic_corpus(4, 2, seed=0)
        with pytest.raises(ConfigError, match="the test split is empty"):
            split(ds, train_fraction=0.9)

    def test_tiny_class_rejected(self):
        ds, _, _ = make_synthetic_corpus(6, 2, seed=0)
        keep = np.concatenate([np.flatnonzero(ds.labels == 1)[:1],
                               np.flatnonzero(ds.labels == 0)])
        lonely = Dataset(indices=ds.indices[keep], labels=ds.labels[keep],
                         lengths=ds.lengths[keep], class_names=ds.class_names)
        with pytest.raises(DataError, match="at least 2 per class"):
            split(lonely, train_fraction=0.5)


def _write_csv(path, rows, header=("text", "label"), encoding="utf-8"):
    lines = [",".join(header)]
    lines += [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding=encoding)


class TestLoadCsv:
    def test_basic_load(self, tmp_path):
        p = tmp_path / "toy.csv"
        _write_csv(p, [
            ("good fine good", "pos"),
            ("bad awful bad", "neg"),
            ("fine good", "pos"),
        ])
        cfg = pipeline.PipelineConfig(vocab_size=50, max_len=8)
        ds, vocab = load_csv_dataset(p, "text", "label", cfg)
        assert len(ds) == 3
        # class order follows first appearance in the file
        assert ds.class_names == ["pos", "neg"]
        assert ds.labels.tolist() == [0, 1, 0]
        assert vocab.token_to_index["good"] >= 2
        assert ds.vocab_sha == vocab.sha256()

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "toy.csv"
        _write_csv(p, [("hi", "pos")])
        cfg = pipeline.PipelineConfig(vocab_size=10, max_len=4)
        with pytest.raises(ConfigError, match="review"):
            load_csv_dataset(p, "review", "label", cfg)

    def test_short_row_names_row_number(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_text("text,label\nfine,pos\nonlyonefield\n", encoding="utf-8")
        cfg = pipeline.PipelineConfig(vocab_size=10, max_len=4)
        with pytest.raises(DataError, match="row 3"):
            load_csv_dataset(p, "text", "label", cfg)

    def test_empty_label_rejected(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_text("text,label\nfine,pos\nbad,\n", encoding="utf-8")
        cfg = pipeline.PipelineConfig(vocab_size=10, max_len=4)
        with pytest.raises(DataError, match="row 3.*empty label"):
            load_csv_dataset(p, "text", "label", cfg)

    def test_empty_and_headerless_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        cfg = pipeline.PipelineConfig(vocab_size=10, max_len=4)
        with pytest.raises(DataError, match="empty file"):
            load_csv_dataset(empty, "text", "label", cfg)
        headonly = tmp_path / "head.csv"
        headonly.write_text("text,label\n", encoding="utf-8")
        with pytest.raises(DataError, match="no data rows"):
            load_csv_dataset(headonly, "text", "label", cfg)

    def test_vocab_reuse_keeps_indices_comparable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _write_csv(a, [("alpha beta", "x"), ("beta gamma", "y")])
        _write_csv(b, [("gamma alpha", "y"), ("beta beta", "x")])
        cfg = pipeline.PipelineConfig(vocab_size=10, max_len=4)
        ds_a, vocab = load_csv_dataset(a, "text", "label", cfg)
        ds_b, vocab_b = load_csv_dataset(b, "text", "label", cfg, vocab=vocab)
        assert vocab_b is vocab
        assert ds_b.vocab_sha == ds_a.vocab_sha

    def test_non_utf8_file_is_data_error(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes("text,label\ncaf\u00e9,pos\n".encode("latin-1"))
        cfg = pipeline.PipelineConfig(vocab_size=10, max_len=4)
        with pytest.raises(DataError, match=r"latin1\.csv: not UTF-8 text"):
            load_csv_dataset(p, "text", "label", cfg)

    def test_field_over_the_csv_limit_names_the_line(self, tmp_path):
        p = tmp_path / "long.csv"
        p.write_text("text,label\nfine,pos\n" + "w" * 140_000 + ",neg\n", encoding="utf-8")
        cfg = pipeline.PipelineConfig(vocab_size=10, max_len=4)
        with pytest.raises(DataError, match=r"long\.csv: line 3: field larger than field limit"):
            load_csv_dataset(p, "text", "label", cfg)

    @pytest.mark.parametrize("reuse", [False, True], ids=["built", "reused"])
    def test_rows_match_encode(self, tmp_path, reuse):
        # predict encodes its lines with encode; the stored rows must be its rows
        p = tmp_path / "toy.csv"
        texts = ["b a c d e f a", "", "a a z", "c b; a. e d c b a"]
        _write_csv(p, [(t, "x") for t in texts])
        cfg = pipeline.PipelineConfig(vocab_size=5, max_len=4)
        vocab = pipeline.build_vocabulary({"e": 9, "b": 2, "zz": 3}, cfg) if reuse else None
        ds, vocab = load_csv_dataset(p, "text", "label", cfg, vocab=vocab)
        rows = pipeline.encode([pipeline.clean(text, cfg) for text in texts], vocab, cfg)
        assert ds.indices.tolist() == rows.tolist()
        assert ds.lengths.tolist() == [7, 0, 3, 8]

    def test_utf8_bom_is_transparent(self, tmp_path):
        p = tmp_path / "bom.csv"
        _write_csv(p, [("fine", "pos"), ("bad", "neg")], encoding="utf-8-sig")
        cfg = pipeline.PipelineConfig(vocab_size=10, max_len=4)
        ds, _ = load_csv_dataset(p, "text", "label", cfg)
        assert ds.class_names == ["pos", "neg"]


class TestPreprocessMemory:
    """Preprocessing holds memory in proportion to what it writes, not to
    the raw text: the CSV smoke corpus of 600 documents, traced."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("mem") / "corpus.csv"
        make_synthetic_csv(path, 600, 2, seed=0)
        return path, pipeline.PipelineConfig(vocab_size=500, max_len=70)

    @staticmethod
    def _peak(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_load_csv_dataset_peak_within_6x_the_indices(self, corpus):
        path, cfg = corpus
        (ds, _), peak = self._peak(load_csv_dataset, path, "text", "label", cfg)
        assert peak <= 6 * ds.indices.nbytes

    def test_save_dataset_peak_within_the_file_size(self, corpus, tmp_path):
        path, cfg = corpus
        ds, vocab = load_csv_dataset(path, "text", "label", cfg)
        ds = split(ds, train_fraction=0.5, seed=0)
        out = tmp_path / "dataset.sqt"
        _, peak = self._peak(save_dataset, out, ds, vocab, cfg)
        assert peak <= out.stat().st_size


class TestSyntheticCorpus:
    def test_balanced_labels_and_names(self):
        ds, vocab, cfg = make_synthetic_corpus(30, 3, seed=1)
        assert np.bincount(ds.labels).tolist() == [10, 10, 10]
        assert ds.class_names == ["class0", "class1", "class2"]
        binary, _, _ = make_synthetic_corpus(10, 2, seed=1)
        assert binary.class_names == ["neg", "pos"]

    def test_own_tokens_in_document_tail(self):
        # two class markers always land in the final five positions
        ds, vocab, _ = make_synthetic_corpus(60, 3, seed=4, pad_len=64)
        for row, label in zip(ds.indices, ds.labels):
            toks = [vocab.index_to_token[i] for i in row if i != pipeline.PAD_INDEX]
            tail = toks[-5:]
            own = sum(1 for t in tail if t.startswith(f"sig{label}"))
            assert own >= 2

    def test_determinism(self):
        a, va, _ = make_synthetic_corpus(20, 2, seed=9)
        b, vb, _ = make_synthetic_corpus(20, 2, seed=9)
        assert va.sha256() == vb.sha256()
        assert np.array_equal(a.indices, b.indices)

    def test_csv_variant_loads_back(self, tmp_path):
        p = tmp_path / "syn.csv"
        make_synthetic_csv(p, 12, 2, seed=3, filler_tokens=30, min_len=10, max_len=20)
        cfg = pipeline.PipelineConfig(vocab_size=200, max_len=32)
        ds, vocab = load_csv_dataset(p, "text", "label", cfg)
        assert len(ds) == 12
        assert sorted(ds.class_names) == ["neg", "pos"]
        stats = corpus_stats(ds)
        assert stats["documents"] == 12
        assert stats["truncated"] == 0

    def test_corpus_stats_equals_per_document_loop(self, tmp_path):
        p = tmp_path / "syn.csv"
        make_synthetic_csv(p, 30, 3, seed=2, filler_tokens=60, min_len=5, max_len=40)
        cfg = pipeline.PipelineConfig(vocab_size=40, max_len=24)
        ds, _ = load_csv_dataset(p, "text", "label", cfg)
        hist = dict.fromkeys(ds.class_names, 0)
        oov = nonpad = truncated = 0
        for row, label, length in zip(ds.indices, ds.labels, ds.lengths):
            hist[ds.class_names[label]] += 1
            kept = row[row != pipeline.PAD_INDEX]
            oov += int((kept == pipeline.OOV_INDEX).sum())
            nonpad += kept.size
            truncated += int(length > row.size)
        assert 0 < truncated < 30 and oov > 0
        assert corpus_stats(ds) == {
            "documents": 30, "classes": hist, "avg_length": sum(ds.lengths.tolist()) / 30,
            "oov_rate": oov / nonpad, "truncated": truncated}

    def test_corpus_stats_fields(self):
        ds, _, _ = make_synthetic_corpus(10, 2, seed=0, min_len=12, max_len=12, pad_len=6)
        stats = corpus_stats(ds)
        assert stats["documents"] == 10
        assert stats["classes"] == {"neg": 5, "pos": 5}
        assert stats["avg_length"] == 12.0
        assert stats["truncated"] == 10
        assert 0.0 <= stats["oov_rate"] <= 1.0


def _toy_setup(n_docs=16, n_classes=2, seed=0, **cfg_kwargs):
    ds, vocab, pcfg = make_synthetic_corpus(n_docs, n_classes, seed=seed,
                                            signal_rate=0.5, filler_tokens=20)
    base = dict(cell="rnn", epochs=2, batch_size=8, hidden_size=6,
                dense_size=4, embedding_dim=8, seed=1)
    base.update(cfg_kwargs)
    return ds, vocab, pcfg, ExperimentConfig(**base)


class TestTrain:
    def test_zero_epochs_returns_initialized_model(self):
        ds, vocab, _, cfg = _toy_setup(epochs=0)
        model, curve = train(cfg, ds, vocab)
        assert len(curve) == 0
        probs, _ = engine.forward(model, ds.indices)
        assert probs.shape == (len(ds),)

    def test_curve_has_one_point_per_epoch(self):
        ds, vocab, _, cfg = _toy_setup(epochs=3)
        _, curve = train(cfg, split(ds, train_fraction=0.5, seed=0), vocab)
        assert [p.epoch for p in curve] == [1, 2, 3]
        for p in curve:
            assert math.isfinite(p.train_loss)
            assert 0.0 <= p.train_acc <= 100.0
            assert math.isfinite(p.test_loss)

    def test_no_split_gives_nan_test_columns(self):
        ds, vocab, _, cfg = _toy_setup(epochs=1)
        _, curve = train(cfg, ds, vocab)
        point = curve[0]
        assert math.isnan(point.test_loss)
        assert math.isnan(point.test_acc)

    def test_bitwise_determinism(self):
        ds, vocab, _, cfg = _toy_setup(epochs=2, cell="gru")
        m1, c1 = train(cfg, ds, vocab)
        m2, c2 = train(cfg, ds, vocab)
        for (n1, a1), (n2, a2) in zip(m1.state_blocks(), m2.state_blocks()):
            assert n1 == n2
            assert np.array_equal(a1, a2)
        # the test columns are NaN here (no split), so compare NaN-aware,
        # and each point's five figures bit for bit
        t1 = np.array([p[:5] for p in c1])
        t2 = np.array([p[:5] for p in c2])
        assert np.array_equal(t1, t2, equal_nan=True)
        assert t1.tobytes() == t2.tobytes()
        assert [p.report for p in c1] == [p.report for p in c2]

    def test_last_point_holds_the_test_report(self):
        ds, vocab, _, cfg = _toy_setup(epochs=2)
        ds = split(ds, train_fraction=0.5, seed=0)
        model, curve = train(cfg, ds, vocab)
        assert curve[-1].report == evaluate(model, ds, "test")
        assert [p.test_acc for p in curve] == [p.report.accuracy for p in curve]

    def test_seed_changes_the_run(self):
        ds, vocab, _, cfg = _toy_setup(epochs=1)
        other = ExperimentConfig(**{**cfg.to_dict(), "seed": cfg.seed + 1})
        m1, _ = train(cfg, ds, vocab)
        m2, _ = train(other, ds, vocab)
        assert not np.array_equal(m1.head_W, m2.head_W)

    def test_log_callback_sees_every_epoch(self):
        ds, vocab, _, cfg = _toy_setup(epochs=2)
        lines = []
        train(cfg, ds, vocab, log=lines.append)
        epoch_lines = [l for l in lines if l.startswith("epoch ")]
        assert len(epoch_lines) == 2
        assert "train_loss" in epoch_lines[0]

    def test_divergence_names_epoch_and_batch(self):
        ds, vocab, _, cfg = _toy_setup(epochs=40, cell="rnn", optimizer="sgd",
                                       learning_rate=1e12)
        with pytest.raises(DivergenceError, match=r"diverged at epoch \d+, batch \d+"):
            train(cfg, ds, vocab)

    def test_a_probability_that_is_not_a_number_stops_the_first_batch(self):
        ds, vocab, _, cfg = _toy_setup()
        model = build_model(cfg, ds.n_classes, vocab)
        model.head_b[:] = np.nan
        with pytest.raises(DivergenceError, match="diverged at epoch 1, batch 1: the model "
                                                  "yields a probability that is not a number"):
            next(train_epochs(model, cfg, ds))

    def test_a_divergence_in_the_test_pass_names_its_epoch(self):
        ds, vocab, _ = make_synthetic_corpus(60, 2, seed=0, filler_tokens=200, zipf_filler=True)
        ds = split(ds, train_fraction=0.5, seed=0)
        cfg = ExperimentConfig(cell="gru", epochs=2, seed=0)
        model = build_model(cfg, ds.n_classes, vocab)
        # a token that no training document holds: no training batch reads its row
        only_test = np.setdiff1d(ds.indices[ds.test_idx], ds.indices[ds.train_idx])
        assert only_test.size
        model.embedding[only_test[0]] = np.nan
        with pytest.raises(DivergenceError, match="diverged at epoch 1, test pass: the model "
                                                  "yields a probability that is not a number; "
                                                  "try a lower learning_rate"):
            next(train_epochs(model, cfg, ds))

    @pytest.mark.parametrize("cell", ["rnn", "lstm", "gru"])
    def test_weights_that_can_overflow_end_the_run(self, cell):
        # one batch at these rates leaves finite weights near the float64
        # limit, which the test pass still scores; 1e50 leaves a usable model
        for rate in (1e308, 1e200):
            ds, vocab, _, cfg = _toy_setup(epochs=1, optimizer="sgd", learning_rate=rate,
                                           cell=cell, batch_size=16)
            with pytest.raises(DivergenceError, match="diverged at epoch 1: block 'cell.W' "
                                                      "can overflow the forward pass; try a lower"):
                train(cfg, ds, vocab)
        ds, vocab, _, cfg = _toy_setup(epochs=1, optimizer="sgd", learning_rate=1e50,
                                       cell=cell, batch_size=16)
        train(cfg, ds, vocab)

    def test_a_model_over_another_vocabulary_is_refused(self):
        ds, vocab, _, cfg = _toy_setup()
        model = build_model(cfg, ds.n_classes, vocab)
        # the same vocabulary size, so every index would fit the table
        other, other_vocab, _ = make_synthetic_corpus(16, 2, seed=99, signal_rate=0.5,
                                                      filler_tokens=20)
        assert other_vocab.size == vocab.size and other.vocab_sha != ds.vocab_sha
        with pytest.raises(VocabularyMismatchError, match="re-encode"):
            next(train_epochs(model, cfg, other))

    def test_a_model_for_another_class_count_is_refused(self):
        tri, vocab, _, cfg = _toy_setup(n_docs=15, n_classes=3)
        model = build_model(cfg, tri.n_classes, vocab)
        ds, _, _ = make_synthetic_corpus(16, 2, seed=0, signal_rate=0.5, filler_tokens=20)
        with pytest.raises(ConfigError, match="model has 3 classes, dataset names 2"):
            next(train_epochs(model, cfg, replace(ds, vocab_sha=None)))

    def test_gradient_clip_rescues_the_same_run(self):
        ds, vocab, _, cfg = _toy_setup(epochs=40, cell="rnn", optimizer="sgd",
                                       learning_rate=1e12, gradient_clip=1.0)
        _, curve = train(cfg, ds, vocab)
        assert len(curve) == 40

    def test_stop_when_train_acc(self):
        ds, vocab, _, cfg = _toy_setup(n_docs=32, epochs=200, cell="gru",
                                       hidden_size=8, seed=3)
        model = build_model(cfg, ds.n_classes, vocab)
        epochs = 0
        for epochs, _ in enumerate(train_epochs(model, cfg, ds), start=1):
            if evaluate(model, ds, "all").accuracy >= 100.0:
                break
        assert epochs < 200

    def test_stop_when_test_acc_stops_immediately_at_zero_bar(self):
        ds, vocab, _, cfg = _toy_setup(epochs=5)
        ds = split(ds, train_fraction=0.5, seed=0)
        model = build_model(cfg, ds.n_classes, vocab)
        curve = []
        for point in train_epochs(model, cfg, ds):
            curve.append(point)
            if point.test_acc >= 0.0:
                break
        assert len(curve) == 1

    @pytest.mark.parametrize("cell", ["rnn", "lstm", "gru"])
    def test_broken_stream_equals_shorter_train(self, cell):
        # breaking a 5-epoch stream after epoch 2 leaves the model that a
        # 2-epoch train returns, and train's curve is the stream's points
        ds, vocab, _, cfg = _toy_setup(epochs=5, cell=cell)
        ds = split(ds, train_fraction=0.5, seed=0)
        model = build_model(cfg, ds.n_classes, vocab)
        stream = []
        for point in train_epochs(model, cfg, ds):
            stream.append(point)
            if point.epoch == 2:
                break
        short, curve = train(replace(cfg, epochs=2), ds, vocab)
        assert curve == stream
        for (n1, a1), (n2, a2) in zip(model.state_blocks(), short.state_blocks()):
            assert n1 == n2 and a1.tobytes() == a2.tobytes()
        _, full = train(cfg, ds, vocab)
        assert full[:2] == stream and len(full) == 5

    def test_three_classes_train_a_softmax_head_at_the_multiclass_rate(self):
        ds, vocab, _, cfg = _toy_setup(n_docs=15, n_classes=3, epochs=1)
        model, curve = train(cfg, ds, vocab)
        assert (model.head, model.n_classes, model.head_W.shape[0]) == ("softmax", 3, 3)
        resolved = cfg.resolved(vocab.size, ds.n_classes)
        assert "learning_rate = 0.005" in resolved.describe().splitlines()
        assert len(curve) == 1


class TestTrainMemory:
    def test_paper_shape_lstm_epoch_peak(self):
        # vocab 10,000, length 250, E = H = 16, batch 32: an epoch gathers
        # its batches by index and scatters the embedding gradient column by
        # column. Traced peaks: 11.8 MB; 12.8 MB with a 1 MB copy of the
        # train split; 14.6 MB with that copy, batch-sized scatter scratch
        # and the history alive through the optimizer step.
        rng = np.random.default_rng(1)
        V, n_train, n_test = 10_000, 1024, 32
        N = n_train + n_test
        ds = Dataset(indices=rng.integers(1, V, size=(N, 250)).astype(np.int32),
                     labels=rng.integers(0, 2, size=N), lengths=np.full(N, 250),
                     class_names=["neg", "pos"], train_idx=np.arange(n_train),
                     test_idx=np.arange(n_train, N))
        model = M.ClassifierModel.build(init_table(V, 16, rng),
                                        make_cell("lstm", 16, 16, rng), 8, 2, rng)
        cfg = ExperimentConfig(cell="lstm", epochs=1, batch_size=32, seed=0)
        tracemalloc.start()
        try:
            next(train_epochs(model, cfg, ds))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12.3 * 2**20


class TestTrainingLossDescends:
    def test_running_mean_loss_is_nearly_monotone(self):
        # smooth descent on the separable corpus; tiny rebounds between
        # consecutive epochs are tolerated, sustained rises are not
        ds, vocab, _ = make_synthetic_corpus(32, 2, seed=7,
                                             signal_rate=0.5, filler_tokens=20)
        cfg = ExperimentConfig(cell="lstm", epochs=60,
                               batch_size=8, hidden_size=8, seed=3)
        _, curve = train(cfg, ds, vocab)
        losses = [p.train_loss for p in curve]
        violations = sum(1 for a, b in zip(losses[5:], losses[6:]) if b > a + 1e-9)
        assert violations <= 3
        assert losses[-1] < losses[5]


class TestLearningCurveFile:
    def _curve(self, n):
        rng = np.random.default_rng(0)
        return [engine.CurvePoint(ep, rng.random(), rng.random() * 100,
                                  rng.random(), rng.random() * 100)
                for ep in range(1, n + 1)]

    def test_thirty_epochs_give_thirty_one_lines(self, tmp_path):
        path = tmp_path / "curve.csv"
        emit_learning_curve(self._curve(30), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 31
        assert lines[0] == "epoch,train_loss,train_acc,test_loss,test_acc"

    def test_empty_curve_is_header_only(self, tmp_path):
        path = tmp_path / "curve.csv"
        emit_learning_curve([], path)
        assert path.read_text(encoding="utf-8") == "epoch,train_loss,train_acc,test_loss,test_acc\n"

    def test_floats_round_trip_at_full_precision(self, tmp_path):
        curve = self._curve(5)
        path = tmp_path / "curve.csv"
        emit_learning_curve(curve, path)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        for point, line in zip(curve, lines):
            ep, tl, ta, el, ea = line.split(",")
            assert int(ep) == point.epoch
            assert float(tl) == point.train_loss
            assert float(ta) == point.train_acc
            assert float(el) == point.test_loss
            assert float(ea) == point.test_acc

    def test_nan_columns_survive(self, tmp_path):
        curve = [engine.CurvePoint(1, 0.5, 50.0, float("nan"), float("nan"))]
        path = tmp_path / "curve.csv"
        emit_learning_curve(curve, path)
        _, _, _, el, ea = path.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert math.isnan(float(el))
        assert math.isnan(float(ea))


class TestContainer:
    def _sample(self, tmp_path, name="box.sqt"):
        path = tmp_path / name
        arrays = [
            ("weights", np.arange(6, dtype=np.float64).reshape(2, 3)),
            ("ids", np.array([3, 1, 4], dtype=np.int32)),
        ]
        write_container(path, {"kind": "demo", "note": "x"}, arrays)
        return path, arrays

    def test_round_trip(self, tmp_path):
        path, arrays = self._sample(tmp_path)
        header, got = read_container(path)
        assert header["kind"] == "demo"
        assert [b["name"] for b in header["blocks"]] == ["weights", "ids"]
        for name, arr in arrays:
            assert got[name].dtype == arr.dtype
            assert np.array_equal(got[name], arr)

    def test_read_holds_the_file_once(self, tmp_path):
        # the file's bytes and the arrays copied out of them, but no second
        # copy of the file: the checks read the bytes through a view
        path = tmp_path / "big.sqt"
        write_container(path, {}, [("x", np.zeros(2**17))])
        tracemalloc.start()
        try:
            _, got = read_container(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got["x"].flags.writeable
        assert peak <= 2.25 * path.stat().st_size

    def test_identical_inputs_identical_bytes(self, tmp_path):
        p1, _ = self._sample(tmp_path, "a.sqt")
        p2, _ = self._sample(tmp_path, "b.sqt")
        assert p1.read_bytes() == p2.read_bytes()

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="dtype"):
            write_container(tmp_path / "bad.sqt", {},
                            [("x", np.zeros(3, dtype=np.float32))])

    def test_truncation_detected(self, tmp_path):
        path, _ = self._sample(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(IntegrityError):
            read_container(path)

    def test_bad_magic_detected(self, tmp_path):
        path, _ = self._sample(tmp_path)
        data = path.read_bytes()
        path.write_bytes(b"NOTSQT" + data[6:])
        with pytest.raises(IntegrityError, match="magic"):
            read_container(path)

    def test_flipped_byte_detected(self, tmp_path):
        path, _ = self._sample(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(IntegrityError, match="checksum|length"):
            read_container(path)

    def test_appended_garbage_detected(self, tmp_path):
        path, _ = self._sample(tmp_path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(IntegrityError):
            read_container(path)

    # Each edit breaks the manifest of the sample's (2, 3) f8 and (3,) i4
    # blocks behind a valid checksum.
    @pytest.mark.parametrize("edit,match", [
        (lambda h: h["blocks"][0].pop("shape"), "malformed block manifest entry"),
        (lambda h: h["blocks"][0].update(shape="xy"), "malformed block manifest entry"),
        (lambda h: h["blocks"][0].update(shape=[-2, -3]), "malformed block manifest entry"),
        (lambda h: h["blocks"][0].update(shape=[2.0, 3]), "malformed block manifest entry"),
        (lambda h: h["blocks"][0].update(dtype=["f8"]), "malformed block manifest entry"),
        (lambda h: h["blocks"][0].update(dtype="f4"), "malformed block manifest entry"),
        (lambda h: h["blocks"][0].update(name=7), "malformed block manifest entry"),
        (lambda h: h["blocks"].__setitem__(1, "ids"), "malformed block manifest entry"),
        (lambda h: h["blocks"][1].update(name="weights", dtype="f8", shape=[1, 1]),
         "block 'weights' is listed twice"),
        (lambda h: h.update(blocks={"weights": [2, 3]}), "no block manifest"),
        (lambda h: h.pop("blocks"), "no block manifest"),
    ], ids=["no-shape", "shape-xy", "negative-dims", "float-dim", "dtype-list",
            "unknown-dtype", "name-int", "entry-not-object", "name-twice", "not-a-list",
            "missing"])
    def test_malformed_manifest_is_integrity_error(self, tmp_path, edit, match):
        path, _ = self._sample(tmp_path)
        rewrite_manifest(path, path, edit)
        with pytest.raises(IntegrityError, match=match) as err:
            read_container(path)
        assert str(path) in str(err.value)

    def test_zero_size_block_round_trips(self, tmp_path):
        path = tmp_path / "empty.sqt"
        write_container(path, {}, [("head.W", np.zeros((0, 8))),
                                   ("ids", np.arange(3, dtype=np.int32))])
        _, got = read_container(path)
        assert got["head.W"].shape == (0, 8)
        assert got["ids"].tolist() == [0, 1, 2]

    def test_header_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "list.sqt"
        hb = b"[1,2]"
        path.write_bytes(reseal(b"SQTX1\n" + len(hb).to_bytes(8, "little") + hb))
        with pytest.raises(IntegrityError, match="no block manifest"):
            read_container(path)


class TestCheckpoint:
    @pytest.mark.parametrize("kwargs", [
        {"cell": "rnn"},
        {"cell": "rnn", "literal_recurrence": True},
        {"cell": "lstm"},
        {"cell": "lstm", "peepholes": False},
        {"cell": "gru"},
    ])
    def test_round_trip_every_cell(self, tmp_path, kwargs):
        ds, vocab, pcfg, cfg = _toy_setup(epochs=1, **kwargs)
        model, _ = train(cfg, ds, vocab)
        path = tmp_path / "model.sqt"
        save_checkpoint(path, model, cfg, ds.class_names, vocab, pcfg)
        ck = load_checkpoint(path)
        for (n1, a1), (n2, a2) in zip(model.state_blocks(), ck.model.state_blocks()):
            assert n1 == n2
            assert np.array_equal(a1, a2)
        assert ck.config == cfg.resolved(vocab.size, ds.n_classes)
        assert ck.class_names == ds.class_names
        assert ck.vocab.serialize() == vocab.serialize()
        assert ck.pipeline.to_dict() == pcfg.to_dict()
        assert type(ck.model.cell) is type(model.cell)

    def test_loaded_model_predicts_identically(self, tmp_path):
        ds, vocab, pcfg, cfg = _toy_setup(epochs=1, cell="gru")
        model, _ = train(cfg, ds, vocab)
        path = tmp_path / "model.sqt"
        save_checkpoint(path, model, cfg, ds.class_names, vocab, pcfg)
        ck = load_checkpoint(path)
        p1, _ = engine.forward(model, ds.indices)
        p2, _ = engine.forward(ck.model, ds.indices)
        assert np.array_equal(p1, p2)

    def test_wrong_artifact_kind_rejected(self, tmp_path):
        ds, vocab, pcfg, cfg = _toy_setup(epochs=0)
        model, _ = train(cfg, ds, vocab)
        mpath, dpath = tmp_path / "model.sqt", tmp_path / "data.sqt"
        save_checkpoint(mpath, model, cfg, ds.class_names, vocab, pcfg)
        save_dataset(dpath, ds, vocab, pcfg)
        with pytest.raises(DataError, match="not a checkpoint"):
            load_checkpoint(dpath)
        with pytest.raises(DataError, match="not an encoded dataset"):
            load_dataset(mpath)

    def test_missing_parameter_block_detected(self, tmp_path):
        ds, vocab, pcfg, cfg = _toy_setup(epochs=0)
        model, _ = train(cfg, ds, vocab)
        path = tmp_path / "model.sqt"
        save_checkpoint(path, model, cfg, ds.class_names, vocab, pcfg)
        header, arrays = read_container(path)
        header["blocks"] = [b for b in header["blocks"] if b["name"] != "head.W"]
        del arrays["head.W"]
        write_container(path, {k: v for k, v in header.items() if k != "blocks"},
                        list(arrays.items()))
        with pytest.raises(IntegrityError, match="head.W"):
            load_checkpoint(path)

    def test_save_refuses_a_model_the_header_cannot_describe(self, tmp_path):
        ds, vocab, pcfg, cfg = _toy_setup(epochs=0)
        model, _ = train(cfg, ds, vocab)
        other_vocab = make_synthetic_corpus(16, 2, seed=9, filler_tokens=21)[1]
        cases = [
            # a config has no nonlinearity key, so this would reload as tanh
            (replace(model, cell=replace(model.cell, nonlinearity="sigmoid")), cfg,
             ds.class_names, vocab, "sigmoid rnn cell"),
            (model, replace(cfg, hidden_size=7), ds.class_names, vocab, "hidden_size 7"),
            (model, cfg, ds.class_names + ["other"], vocab, "3 are named"),
            (model, cfg, ds.class_names, other_vocab, "another vocabulary"),
            # without a vocabulary hash, the rows are checked as load checks them
            (replace(build_model(cfg, 2, other_vocab), vocab_sha=None), cfg, ds.class_names,
             vocab, re.escape(f"the embedding table has {other_vocab.size} rows but the "
                              f"embedded vocabulary has {vocab.size} entries")),
        ]
        for m, c, names, v, match in cases:
            with pytest.raises(ConfigError, match=match):
                save_checkpoint(tmp_path / "model.sqt", m, c, names, v, pcfg)
        assert not (tmp_path / "model.sqt").exists()

    def test_header_records_the_resolved_settings(self, tmp_path):
        ds, vocab, pcfg, cfg = _toy_setup(epochs=0, embedding_dim="auto")
        assert cfg.learning_rate is None
        model, _ = train(cfg, ds, vocab)
        path = tmp_path / "model.sqt"
        save_checkpoint(path, model, cfg, ds.class_names, vocab, pcfg)
        stored = read_container(path)[0]["config"]
        dim = embedding_dim_heuristic(vocab.size)
        assert (stored["learning_rate"], stored["embedding_dim"]) == (0.001, dim)
        # the same run, its settings given resolved, writes the same bytes
        again = tmp_path / "again.sqt"
        save_checkpoint(again, model, replace(cfg, learning_rate=0.001, embedding_dim=dim),
                        ds.class_names, vocab, pcfg)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("bad,message", [
        (dict(learning_rate=-1.0), "learning_rate must be positive and finite, got -1.0"),
        (dict(optimizer="adagrad"),
         "optimizer must be one of ('sgd', 'rmsprop', 'adam'), got 'adagrad'"),
        (dict(seed=-3), "seed must be an integer >= 0, got -3"),
        (dict(epochs=-1), "epochs must be an integer >= 0, got -1"),
    ], ids=["learning_rate", "optimizer", "seed", "epochs"])
    def test_no_config_that_load_refuses_is_saved(self, tmp_path, bad, message):
        # the copy is refused when it is made, before save_checkpoint runs
        ds, vocab, pcfg, cfg = _toy_setup(epochs=0)
        model, _ = train(cfg, ds, vocab)
        path = tmp_path / "model.sqt"
        with pytest.raises(ConfigError, match=re.escape(message)):
            save_checkpoint(path, model, replace(cfg, **bad), ds.class_names, vocab, pcfg)
        assert not path.exists()

    @pytest.mark.parametrize("field,name,value", [("head_b", "head.b", np.inf),
                                                  ("embedding", "embedding.weights", np.nan)],
                             ids=["head.b-inf", "embedding.weights-nan"])
    def test_save_refuses_a_block_that_is_not_finite(self, tmp_path, field, name, value):
        # load refuses such a block, so no writer stores one
        ds, vocab, pcfg, cfg = _toy_setup(epochs=0)
        model, _ = train(cfg, ds, vocab)
        bad = getattr(model, field).copy()
        bad[-1] = value
        path = tmp_path / "model.sqt"
        with pytest.raises(DivergenceError, match=f"block '{name}' is not finite"):
            save_checkpoint(path, replace(model, **{field: bad}), cfg, ds.class_names,
                            vocab, pcfg)
        assert not path.exists()

    @pytest.mark.parametrize("blocks,name", [
        (dict(V=1e307), "cell.V"),
        (dict(dense_W=1e200, head_W=1e200), "head.W"),
        (dict(U=1e308, b=1.5e308), "cell.b"),
    ], ids=["peepholes-times-max_len", "head-times-dense", "largest-term"])
    def test_save_and_load_refuse_weights_that_can_overflow(self, tmp_path, blocks, name):
        # every block is finite, but a bound on a pre-activation is not
        ds, vocab, pcfg, cfg = _toy_setup(epochs=0, cell="lstm")
        model, _ = train(cfg, ds, vocab)
        path = tmp_path / "model.sqt"
        save_checkpoint(path, model, cfg, ds.class_names, vocab, pcfg)
        for block, value in blocks.items():
            owner = model.cell if block in ("U", "V", "b") else model
            getattr(owner, block).flat[0] = value
        with pytest.raises(DivergenceError, match=re.escape(
                f"cannot store this model: block '{name}' can overflow the forward pass")):
            save_checkpoint(tmp_path / "bad.sqt", model, cfg, ds.class_names, vocab, pcfg)
        assert not (tmp_path / "bad.sqt").exists()
        stored = dict(model.state_blocks())
        rewrite_artifact(path, tmp_path / "bad.sqt", edit_arrays=lambda a: a.update(stored))
        with pytest.raises(IntegrityError, match=re.escape(
                f"bad.sqt: block '{name}' can overflow the forward pass")):
            load_checkpoint(tmp_path / "bad.sqt")


def _unparsable_vocabulary(h):
    h["vocab_text"] = "0\t<PAD>\t0\n"
    h["vocab_sha"] = pipeline.text_sha256(h["vocab_text"])


# Faults of the header fields that every artifact kind shares, written
# here only. TestSharedHeader runs each on both kinds; the checkpoint- and
# dataset-only cases that name one take it through _shared_fault. A
# kind's own format is 4 for a checkpoint and 1 for a dataset.
_SHARED_HEADER_FAULTS = [
    pytest.param(lambda h: h.update(kind="model"), DataError,
                 "this is a 'model' artifact, not a", id="kind-other"),
    pytest.param(lambda h: h.pop("kind"), DataError, "this is a None artifact", id="kind-missing"),
    pytest.param(lambda h: h.update(format=99), IntegrityError, "format 99 is not supported",
                 id="format-other"),
    pytest.param(lambda h: h.update(format=str(h["format"])), IntegrityError,
                 "format '[14]' is not supported", id="format-string"),
    pytest.param(lambda h: h.update(format=float(h["format"])), IntegrityError,
                 r"format [14]\.0 is not supported", id="format-float"),
    pytest.param(lambda h: h.pop("format"), IntegrityError, "format None is not supported",
                 id="format-missing"),
    pytest.param(lambda h: h.update(format={"checkpoint": 1, "dataset": 4}[h["kind"]]),
                 IntegrityError, "(checkpoint format 1|dataset format 4) is not supported",
                 id="format-of-the-other-kind"),
    pytest.param(lambda h: h.update(format=h["format"] - 1), IntegrityError,
                 "(checkpoint format 3|dataset format 0) is not supported", id="format-earlier"),
    *[pytest.param(lambda h, f=field: h.pop(f), IntegrityError,
                   f"header field '{field}' is missing", id=f"{field}-missing")
      for field in ("class_names", "vocab_sha", "vocab_text", "pipeline")],
    pytest.param(lambda h: h.update(class_names="neg,pos"), IntegrityError,
                 "header field 'class_names' is missing or has the wrong type",
                 id="class_names-string"),
    pytest.param(lambda h: h.update(vocab_sha=None), IntegrityError,
                 "header field 'vocab_sha'", id="vocab_sha-None"),
    pytest.param(lambda h: h.update(vocab_text=3), IntegrityError,
                 "header field 'vocab_text'", id="vocab_text-int"),
    pytest.param(lambda h: h.update(vocab_text=None), IntegrityError,
                 "header field 'vocab_text'", id="vocab_text-None"),
    pytest.param(lambda h: h.update(pipeline=[]), IntegrityError,
                 "header field 'pipeline'", id="pipeline-list"),
    pytest.param(lambda h: h.update(pipeline=3), IntegrityError,
                 "header field 'pipeline'", id="pipeline-int"),
    pytest.param(lambda h: h.update(pipeline=None), IntegrityError,
                 "header field 'pipeline'", id="pipeline-None"),
    pytest.param(lambda h: h.update(class_names=["neg", 7]), IntegrityError,
                 "class_names: class names must be distinct strings", id="class_names-int"),
    pytest.param(lambda h: h.update(class_names=["neg", True]), IntegrityError,
                 "class_names: class names must be distinct strings", id="class_names-bool"),
    pytest.param(lambda h: h.update(class_names=["neg", "neg"]), IntegrityError,
                 "class_names: class names must be distinct strings", id="class_names-repeat"),
    # another token, and the same entries in a non-canonical form, under the old hash
    pytest.param(lambda h: h.update(vocab_text=h["vocab_text"].replace("<UNK>", "<OOV>")),
                 IntegrityError, "embedded vocabulary does not match the recorded hash",
                 id="vocab_text-token"),
    pytest.param(lambda h: h.update(vocab_text=h["vocab_text"] + "\n"),
                 IntegrityError, "embedded vocabulary does not match the recorded hash",
                 id="vocab_text-blank-line"),
    pytest.param(_unparsable_vocabulary, IntegrityError,
                 "vocabulary: vocabulary must hold pad, OOV and at least one token",
                 id="vocab_text-unparsable"),
    pytest.param(lambda h: h["pipeline"].update(max_len=0), IntegrityError,
                 "pipeline: max_len must be >= 1", id="pipeline-max_len"),
    # max_len is at most 2**16, however large the stored integer
    *[pytest.param(lambda h, v=value: h["pipeline"].update(max_len=v), IntegrityError,
                   f"pipeline: max_len must be <= 65536, got {value}$",
                   id=f"pipeline-max_len-{tag}")
      for value, tag in ((65537, "65537"), (2**31, "2^31"), (2**63, "2^63"),
                         (10**30, "10^30"))],
    pytest.param(lambda h: h["pipeline"].update(vocab_size="many"), IntegrityError,
                 "pipeline: ", id="pipeline-vocab_size"),
    *[pytest.param(lambda h, k=key, v=value: h["pipeline"].update({k: v}), IntegrityError,
                   f"pipeline: {key} must be an integer, got {value!r}", id=f"pipeline-{key}-{tag}")
      for key in ("vocab_size", "max_len")
      for value, tag in ((True, "bool"), (70.0, "float"))],
    pytest.param(lambda h: h["pipeline"].update(stopwords="the"), IntegrityError,
                 "pipeline: stopwords must be a list of strings, got 'the'",
                 id="pipeline-stopwords-string"),
    pytest.param(lambda h: h["pipeline"].update(stopwords=["the", 3]), IntegrityError,
                 r"pipeline: stopwords must be a list of strings, got \['the', 3\]",
                 id="pipeline-stopwords-int"),
    pytest.param(lambda h: h["pipeline"].update(lowercase=False), IntegrityError,
                 "pipeline: lowercase must be True", id="pipeline-lowercase"),
    pytest.param(lambda h: h["pipeline"].update(stemming=True), IntegrityError,
                 "pipeline: .*stemming", id="pipeline-unknown-key"),
    # every writer stores all seven keys, so none falls back to a default
    *[pytest.param(lambda h, k=key: h["pipeline"].pop(k), IntegrityError,
                   f"pipeline lacks {key}$", id=f"pipeline-{key}-missing")
      for key in ("vocab_size", "max_len", "stopwords", "lowercase", "strip_nonalpha",
                  "oov_token", "pad_token")],
]


def _shared_fault(fault_id, test_id):
    """The IntegrityError fault `fault_id` of _SHARED_HEADER_FAULTS as an
    (edit, match) case named `test_id`, for a test of one artifact kind."""
    (fault,) = [p for p in _SHARED_HEADER_FAULTS if p.id == fault_id]
    edit, error, match = fault.values
    assert error is IntegrityError
    return pytest.param(edit, match, id=test_id)


class TestCheckpointHeader:
    @pytest.fixture
    def ckpt(self, tmp_path):
        ds, vocab, pcfg, cfg = _toy_setup(epochs=0, cell="lstm")
        model, _ = train(cfg, ds, vocab)
        path = tmp_path / "model.sqt"
        save_checkpoint(path, model, cfg, ds.class_names, vocab, pcfg)
        return path

    def test_stacked_cell_blocks_and_format(self, ckpt):
        header, arrays = read_container(ckpt)
        assert header["format"] == 4
        # the head, the class count and the cell are not restated beside config
        assert sorted(header) == ["blocks", "class_names", "config", "format", "kind",
                                  "pipeline", "vocab_sha", "vocab_text"]
        assert sorted(n for n in arrays if n.startswith("cell.")) == \
            ["cell.U", "cell.V", "cell.W", "cell.b"]
        assert arrays["cell.W"].shape == (4 * 6, 8) and arrays["cell.V"].shape == (3 * 6, 6)

    @pytest.mark.parametrize("n_classes,task", [(2, "binary"), (3, "multiclass")])
    def test_recorded_task_follows_the_class_count(self, tmp_path, n_classes, task):
        # earlier readers require config.task, so it is still written
        ds, vocab, pcfg, cfg = _toy_setup(n_docs=15, n_classes=n_classes, epochs=0)
        model, _ = train(cfg, ds, vocab)
        path = tmp_path / "model.sqt"
        save_checkpoint(path, model, cfg, ds.class_names, vocab, pcfg)
        assert read_container(path)[0]["config"]["task"] == task
        assert load_checkpoint(path).config == cfg.resolved(vocab.size, ds.n_classes)

    # The cell kind comes from config.cell and the class count, which
    # picks the head, from class_names; config.task is recorded for
    # earlier readers and must agree; that is checked before the blocks are
    # read. So the cases named after the fields that format 3 stored take
    # those away instead.
    @pytest.mark.parametrize("edit,match", [
        pytest.param(lambda h: h.pop("config"), "config", id="config"),
        pytest.param(lambda h: h["config"].pop("cell"), "config lacks cell", id="cell"),
        pytest.param(lambda h: h["config"].pop("task"), "config lacks task", id="head"),
        pytest.param(lambda h: h["class_names"].pop(),
                     "names 1 class\\(es\\), but a model scores at least 2", id="n_classes"),
        *[_shared_fault(f"{field}-missing", field)
          for field in ("class_names", "vocab_sha", "vocab_text", "pipeline", "format")],
    ])
    def test_missing_field_is_integrity_error(self, ckpt, edit, match):
        rewrite_artifact(ckpt, ckpt, edit)
        with pytest.raises(IntegrityError, match=match):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("edit,match", [
        pytest.param(lambda h: h.update(config="lstm"), "config", id="config-lstm"),
        _shared_fault("class_names-int", "n_classes-2"),
        _shared_fault("class_names-bool", "n_classes-True"),
        pytest.param(lambda h: h["config"].update(task=1), "task", id="head-1"),
        _shared_fault("class_names-string", "class_names-neg,pos"),
        _shared_fault("pipeline-int", "pipeline-3"),
    ])
    def test_wrong_field_type_is_integrity_error(self, ckpt, edit, match):
        rewrite_artifact(ckpt, ckpt, edit)
        with pytest.raises(IntegrityError, match=match):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("edit", [
        lambda h: h["config"].update(hidden_size="six"),
        lambda h: h["config"].update(learning_rate="fast"),
        lambda h: h["config"].update(cell="transformer"),
        lambda h: h["config"].update(literal_recurrence=True),
        lambda h: h["config"].update(gates=4),
        lambda h: h["config"].update(task="argmax"),
        lambda h: h["class_names"].append("other"),
        _shared_fault("pipeline-max_len", "pipeline").values[0],
        lambda h: h["config"].update(seed="x"),
        lambda h: h["config"].update(learning_rate=True),
        lambda h: h["config"].update(gradient_clip=True),
        lambda h: h["config"].update(pretrained_vectors=5),
    ], ids=["config-int", "config-float", "cell-kind", "cell-literal",
            "cell-unknown-key", "head", "n_classes", "pipeline", "seed-str",
            "learning_rate-bool", "gradient_clip-bool", "pretrained_vectors-int"])
    def test_bad_field_contents_are_integrity_errors(self, ckpt, edit):
        rewrite_artifact(ckpt, ckpt, edit)
        with pytest.raises(IntegrityError):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("n_classes,rate", [(2, 0.001), (3, 0.005)])
    def test_unresolved_settings_of_earlier_writers_load_resolved(self, tmp_path, n_classes,
                                                                   rate):
        # earlier writers stored the settings as given: null and "auto"
        ds, vocab, pcfg, cfg = _toy_setup(n_docs=15, n_classes=n_classes, epochs=0,
                                          embedding_dim="auto")
        model, _ = train(cfg, ds, vocab)
        path = tmp_path / "model.sqt"
        save_checkpoint(path, model, cfg, ds.class_names, vocab, pcfg)
        rewrite_artifact(path, path, lambda h: h["config"].update(
            learning_rate=None, embedding_dim="auto"))
        got = load_checkpoint(path).config
        assert got == cfg.resolved(vocab.size, n_classes)
        assert (got.learning_rate, got.embedding_dim) == \
            (rate, embedding_dim_heuristic(vocab.size))

    def test_unknown_config_key_is_integrity_error(self, ckpt):
        rewrite_artifact(ckpt, ckpt, lambda h: h["config"].update(gates=4, momentum=0.9))
        with pytest.raises(IntegrityError, match=re.escape(
                f"{ckpt}: config: unknown configuration keys ['gates', 'momentum']")):
            load_checkpoint(ckpt)

    # The fixture holds binary lstm blocks with peepholes: hidden size 6,
    # embedding dim 8, dense size 4, over two named classes.
    @pytest.mark.parametrize("edit,match", [
        (lambda c: c.update(cell="gru"), "peephole weights, not gru"),
        (lambda c: c.update(task="multiclass"),
         "records task 'multiclass', but 2 classes make it 'binary'"),
        (lambda c: c.update(hidden_size=5), "hidden_size 5"),
        (lambda c: c.update(embedding_dim="auto"), "embedding_dim 3"),
        (lambda c: c.update(dense_size=3), "dense_size 3"),
        (lambda c: c.update(peepholes=False), "peepholes False"),
    ], ids=["cell", "task", "hidden_size", "embedding_dim", "dense_size", "peepholes"])
    def test_config_disagreeing_with_blocks_is_integrity_error(self, ckpt, edit, match):
        rewrite_artifact(ckpt, ckpt, lambda h: edit(h["config"]))
        with pytest.raises(IntegrityError, match=match):
            load_checkpoint(ckpt)

    # The fixture's blocks: embedding (V, 8), dense.W (4, 6), dense.b (4,),
    # head.W (1, 4) and head.b (1,).
    @pytest.mark.parametrize("edit,match", [
        (lambda a: a.update({"dense.b": a["dense.b"][:1]}), "do not chain"),
        (lambda a: a.update({"dense.b": a["dense.b"][:, None]}), "do not chain"),
        (lambda a: a.update({"head.b": np.zeros(3)}), "do not chain"),
        (lambda a: a.update({"head.b": np.zeros((3, 1))}), "do not chain"),
        (lambda a: a.update({"head.W": a["head.W"][:0], "head.b": a["head.b"][:0]}),
         "do not chain"),
        (lambda a: a.update({"embedding.weights": a["embedding.weights"][:, 0]}),
         r"embedding \(\d+,\), .* do not chain"),
        (lambda a: a.pop("dense.b"), "block 'dense.b' is missing"),
        (lambda a: a.update({"dense.c": np.zeros(4)}), r"unexpected parameter blocks \['dense.c'\]"),
        (lambda a: a.update({"cell.Z": np.zeros(4)}), "unexpected keyword argument 'Z'"),
    ], ids=["dense.b-length", "dense.b-rank", "head.b-length", "head.b-rank", "head.W-no-rows",
            "embedding-1-d", "missing-block", "extra-block", "extra-cell-block"])
    def test_blocks_that_do_not_chain_are_integrity_errors(self, ckpt, edit, match):
        rewrite_artifact(ckpt, ckpt, edit_arrays=edit)
        with pytest.raises(IntegrityError, match=match):
            load_checkpoint(ckpt)

    def test_embedding_rows_must_match_vocabulary(self, ckpt):
        rewrite_artifact(ckpt, ckpt, edit_arrays=lambda a: a.update(
            {"embedding.weights": a["embedding.weights"][:-1]}))
        with pytest.raises(IntegrityError, match="embedding table has"):
            load_checkpoint(ckpt)

    def test_cell_validates_its_own_blocks(self, ckpt):
        rewrite_artifact(ckpt, ckpt,
                         edit_arrays=lambda a: a.update({"cell.U": a["cell.U"][:18]}))
        with pytest.raises(IntegrityError, match="cell"):
            load_checkpoint(ckpt)
        rewrite_artifact(ckpt, ckpt, edit_arrays=lambda a: a.pop("cell.W"))
        with pytest.raises(IntegrityError, match="argument: 'W'"):
            load_checkpoint(ckpt)


@pytest.fixture(params=["checkpoint", "dataset"])
def artifact(request, tmp_path):
    """A stored artifact of each kind, and the function that loads it."""
    ds, vocab, pcfg, cfg = _toy_setup(epochs=0, cell="lstm")
    path = tmp_path / f"{request.param}.sqt"
    if request.param == "dataset":
        save_dataset(path, ds, vocab, pcfg)
        return path, load_dataset
    model, _ = train(cfg, ds, vocab)
    save_checkpoint(path, model, cfg, ds.class_names, vocab, pcfg)
    return path, load_checkpoint


class TestSharedHeader:
    """Both artifact kinds check the header fields they share the same way."""

    @pytest.mark.parametrize("edit,error,match", _SHARED_HEADER_FAULTS)
    def test_fault_is_refused(self, artifact, edit, error, match):
        path, load = artifact
        rewrite_artifact(path, path, edit)
        with pytest.raises(error, match=match):
            load(path)


def _blocks(ds):
    """The arrays of a split Dataset, named as the dataset file names them."""
    return {"indices": ds.indices.copy(), "labels": ds.labels.copy(),
            "original_lengths": ds.lengths.copy(),
            "train_idx": ds.train_idx.copy(), "test_idx": ds.test_idx.copy()}


# Each case breaks the blocks of an 8-document, 2-class, 4/4-split dataset.
_BAD_BLOCKS = [
    pytest.param(lambda a: a["labels"].__setitem__(3, 2), DataError,
                 "document 3 has label 2", id="label-too-large"),
    pytest.param(lambda a: a["labels"].__setitem__(3, -1), DataError,
                 "document 3 has label -1", id="label-negative"),
    pytest.param(lambda a: a.update(test_idx=np.append(a["test_idx"][1:], a["train_idx"][0])),
                 ConfigError, "overlap", id="overlapping-splits"),
    pytest.param(lambda a: a.update(test_idx=a["test_idx"][1:]), ConfigError,
                 "cover every document exactly once", id="split-misses-a-row"),
    pytest.param(lambda a: a["train_idx"].__setitem__(0, a["train_idx"][1]), ConfigError,
                 "cover every document exactly once", id="split-repeats-a-row"),
    pytest.param(lambda a: a["test_idx"].__setitem__(0, 8), ConfigError,
                 r"split rows must lie in \[0, 8\)", id="split-row-out-of-range"),
    pytest.param(lambda a: a.update(labels=a["labels"][:-1]), DataError,
                 "inconsistent shapes", id="short-labels"),
    pytest.param(lambda a: a.update(original_lengths=a["original_lengths"][:-1]), DataError,
                 "inconsistent shapes", id="short-lengths"),
    pytest.param(lambda a: a.update(indices=a["indices"][0]), DataError,
                 "inconsistent shapes", id="1-d-indices"),
    pytest.param(no_rows, DataError, "a dataset needs at least one document", id="no-rows"),
    pytest.param(all_rows_on("test_idx"), ConfigError, "the train split is empty",
                 id="empty-train-side"),
    pytest.param(all_rows_on("train_idx"), ConfigError, "the test split is empty",
                 id="empty-test-side"),
]


# Each case breaks the rows of the same dataset against its recorded
# lengths and max_len 40, where every row is shorter than 40 and row 3
# holds 26 tokens. Only a dataset file is checked for these.
_BAD_ROWS = [
    pytest.param(lambda a: a.update(indices=a["indices"][:, 10:]),
                 "rows hold 30 ids, but the pipeline records max_len 40", id="narrow-rows"),
    pytest.param(lambda a: a["original_lengths"].__setitem__(0, -5),
                 "row 0 records length -5", id="negative-length"),
    pytest.param(lambda a: a["original_lengths"].__setitem__(3, 27),
                 "row 3 holds 26 tokens, but its recorded length 27 keeps 27", id="longer"),
    pytest.param(lambda a: a["original_lengths"].__setitem__(3, 25),
                 "row 3 holds 26 tokens, but its recorded length 25 keeps 25", id="shorter"),
    pytest.param(lambda a: a["original_lengths"].__setitem__(3, 100),
                 "row 3 holds 26 tokens, but its recorded length 100 keeps 40", id="cut"),
    pytest.param(lambda a: a["indices"].__setitem__(3, np.roll(a["indices"][3], 1)),
                 "row 3 has a pad after a token", id="token-before-pad"),
    pytest.param(lambda a: a["indices"].__setitem__((3, 20), 0),
                 "row 3 has a pad after a token", id="pad-among-tokens"),
]


# Each case stores blocks that the header of the same dataset does not
# call for. A Dataset has no header, so only the file is refused.
_BAD_FILES = [
    pytest.param(lambda h: h.update(has_split=False), None,
                 "unexpected blocks ['test_idx', 'train_idx'] in a dataset with has_split false",
                 id="split-blocks-without-split"),
    pytest.param(None, lambda a: a.update(notes=np.zeros(3, dtype=np.int32)),
                 "unexpected blocks ['notes'] in a dataset with has_split true",
                 id="unread-block"),
]


class TestDatasetChecks:
    """A Dataset checks its own arrays; a dataset file holding the same
    faults is an integrity error."""

    @pytest.fixture
    def saved(self, tmp_path):
        ds, vocab, pcfg = make_synthetic_corpus(8, 2, seed=5)
        ds = split(ds, train_fraction=0.5, seed=2)
        path = tmp_path / "data.sqt"
        save_dataset(path, ds, vocab, pcfg)
        return ds, path

    @pytest.mark.parametrize("edit,error,match", _BAD_BLOCKS)
    def test_constructor_rejects(self, saved, edit, error, match):
        ds, _ = saved
        a = _blocks(ds)
        edit(a)
        with pytest.raises(error, match=match):
            Dataset(indices=a["indices"], labels=a["labels"], lengths=a["original_lengths"],
                    class_names=ds.class_names, train_idx=a["train_idx"],
                    test_idx=a["test_idx"])

    @pytest.mark.parametrize("edit,error,match", _BAD_BLOCKS)
    def test_file_is_integrity_error(self, saved, edit, error, match):
        _, path = saved
        rewrite_artifact(path, path, edit_arrays=edit)
        with pytest.raises(IntegrityError, match=re.escape(f"{path}: dataset: ") + ".*" + match):
            load_dataset(path)

    @pytest.mark.parametrize("edit,match", _BAD_ROWS)
    def test_file_rows_must_keep_the_row_rule(self, saved, edit, match):
        _, path = saved
        rewrite_artifact(path, path, edit_arrays=edit)
        with pytest.raises(IntegrityError, match=re.escape(f"{path}: {match}")):
            load_dataset(path)

    @pytest.mark.parametrize("edit,match", _BAD_ROWS)
    def test_constructor_leaves_rows_to_the_file_check(self, saved, edit, match):
        ds, _ = saved
        a = _blocks(ds)
        edit(a)
        Dataset(indices=a["indices"], labels=a["labels"], lengths=a["original_lengths"],
                class_names=ds.class_names, train_idx=a["train_idx"], test_idx=a["test_idx"])

    @pytest.mark.parametrize("edit_header,edit_arrays,match", _BAD_FILES)
    def test_file_holds_only_what_preprocess_writes(self, saved, edit_header, edit_arrays,
                                                    match):
        _, path = saved
        rewrite_artifact(path, path, edit_header, edit_arrays)
        with pytest.raises(IntegrityError, match=re.escape(f"{path}: {match}")):
            load_dataset(path)

    @pytest.mark.parametrize("side", ["train_idx", "test_idx"])
    def test_half_a_split_is_refused(self, saved, side):
        # one side alone would read as no split and be dropped on save
        ds, _ = saved
        with pytest.raises(ConfigError, match="a split needs both train_idx and test_idx"):
            replace(ds, **{side: None})
        unsplit = replace(ds, train_idx=None, test_idx=None)
        with pytest.raises(ConfigError, match="a split needs both train_idx and test_idx"):
            replace(unsplit, **{side: np.arange(4)})

    def test_fields_cannot_be_reassigned(self, saved):
        # so the checks hold for the object's lifetime; replace() runs them again
        ds, _ = saved
        with pytest.raises(FrozenInstanceError):
            ds.test_idx = ds.test_idx[:0]

    def test_valid_arrays_are_accepted(self, saved):
        ds, _ = saved
        a = _blocks(ds)
        back = Dataset(indices=a["indices"], labels=a["labels"], lengths=a["original_lengths"],
                       class_names=ds.class_names, train_idx=a["train_idx"],
                       test_idx=a["test_idx"])
        assert len(back) == 8

    @pytest.mark.parametrize("name", ["indices", "labels", "original_lengths", "train_idx"])
    def test_block_not_int32_is_integrity_error(self, saved, name):
        _, path = saved
        rewrite_artifact(path, path, edit_arrays=lambda a: a.update({name: a[name] * 1.0}))
        with pytest.raises(IntegrityError, match=f"int32 block '{name}'"):
            load_dataset(path)


class TestDatasetArtifact:
    def test_round_trip_with_split(self, tmp_path):
        ds, vocab, pcfg = make_synthetic_corpus(12, 2, seed=5)
        ds = split(ds, train_fraction=0.5, seed=2)
        path = tmp_path / "data.sqt"
        save_dataset(path, ds, vocab, pcfg)
        back, vocab2, pcfg2 = load_dataset(path)
        assert len(back) == 12
        assert back.class_names == ds.class_names
        assert vocab2.serialize() == vocab.serialize()
        assert pcfg2.to_dict() == pcfg.to_dict()
        assert np.array_equal(back.train_idx, ds.train_idx)
        assert np.array_equal(back.test_idx, ds.test_idx)
        for name in ("indices", "labels", "lengths"):
            a, b = getattr(ds, name), getattr(back, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_round_trip_without_split(self, tmp_path):
        ds, vocab, pcfg = make_synthetic_corpus(8, 2, seed=5)
        path = tmp_path / "data.sqt"
        save_dataset(path, ds, vocab, pcfg)
        back, _, _ = load_dataset(path)
        assert back.train_idx is None and back.test_idx is None

    @pytest.mark.parametrize("bad", [-1, None, 1_000_000])  # None: the vocabulary size
    def test_index_outside_vocabulary_names_the_row(self, tmp_path, bad):
        ds, vocab, pcfg = make_synthetic_corpus(8, 2, seed=5)
        bad = vocab.size if bad is None else bad
        path = tmp_path / "data.sqt"
        save_dataset(path, ds, vocab, pcfg)
        rewrite_artifact(path, path,
                         edit_arrays=lambda a: a["indices"].__setitem__((5, 3), bad))
        with pytest.raises(IntegrityError, match=re.escape(
                f"{path}: embedding index {bad} at position (5, 3) out of range "
                f"[0, {vocab.size})")):
            load_dataset(path)

    @staticmethod
    def _refuses(tmp_path, edit, match):
        ds, vocab, pcfg = make_synthetic_corpus(8, 2, seed=5)
        path = tmp_path / "data.sqt"
        save_dataset(path, ds, vocab, pcfg)
        rewrite_artifact(path, path, edit)
        with pytest.raises(IntegrityError, match=match):
            load_dataset(path)

    @pytest.mark.parametrize("edit,match", [
        *[_shared_fault(f"{field}-missing", field)
          for field in ("class_names", "vocab_text", "vocab_sha", "pipeline")],
        pytest.param(lambda h: h.pop("has_split"), "has_split", id="has_split"),
    ])
    def test_missing_header_field_is_integrity_error(self, tmp_path, edit, match):
        self._refuses(tmp_path, edit, match)

    # a repeated name, and vocab_text that breaks its recorded hash, are
    # TestSharedHeader's dataset-class_names-repeat and dataset-vocab_text-*
    @pytest.mark.parametrize("edit,match", [
        _shared_fault("class_names-int", "non-string"),
    ])
    def test_class_names_must_be_distinct_strings(self, tmp_path, edit, match):
        self._refuses(tmp_path, edit, match)

    @pytest.mark.parametrize("with_split", [True, False])
    def test_load_then_save_is_byte_identical(self, tmp_path, with_split):
        ds, vocab, pcfg = make_synthetic_corpus(12, 2, seed=5)
        if with_split:
            ds = split(ds, train_fraction=0.5, seed=2)
        p1, p2 = tmp_path / "a.sqt", tmp_path / "b.sqt"
        save_dataset(p1, ds, vocab, pcfg)
        save_dataset(p2, *load_dataset(p1))
        assert p2.read_bytes() == p1.read_bytes()

    def test_identical_bytes_across_writes(self, tmp_path):
        ds, vocab, pcfg = make_synthetic_corpus(8, 2, seed=5)
        p1, p2 = tmp_path / "a.sqt", tmp_path / "b.sqt"
        save_dataset(p1, ds, vocab, pcfg)
        save_dataset(p2, ds, vocab, pcfg)
        assert p1.read_bytes() == p2.read_bytes()


def _damaged(data: bytes, seed: int):
    """Every truncation of a container's bytes ``data``, then two flips of
    each body byte (the low bit and a seeded random mask) under a
    recomputed trailer, so the header and block parsing behind the
    checksum runs; yields (what, offset, bytes)."""
    for i in range(len(data)):
        yield "truncated", i, data[:i]
    body = data[:-12]
    masks = np.random.default_rng(seed).integers(1, 256, size=len(body))
    for i in range(len(body)):
        for mask in (0x01, int(masks[i])):
            flipped = bytearray(body)
            flipped[i] ^= mask
            yield f"mask {mask:#04x}", i, reseal(bytes(flipped))


class TestByteSweep:
    """A damaged artifact either loads or raises IntegrityError or
    DataError; no other exception reaches the command line."""

    @staticmethod
    def _escapes(path, load, seed=0):
        data = path.read_bytes()
        escaped = []
        for what, i, blob in _damaged(data, seed):
            path.write_bytes(blob)
            try:
                load(path)
            except DataError:
                pass
            except Exception as e:  # noqa: BLE001 - the sweep reports whatever escapes
                escaped.append(f"{what} at byte {i}: {type(e).__name__}: {e}")
        return escaped

    def test_dataset(self, tmp_path):
        ds, vocab, pcfg = make_synthetic_corpus(8, 2, seed=4, tokens_per_class=4,
                                                filler_tokens=6, min_len=4, max_len=8)
        path = tmp_path / "data.sqt"
        save_dataset(path, split(ds, train_fraction=0.5, seed=0), vocab, pcfg)
        assert 1_000 < path.stat().st_size < 4_000
        assert self._escapes(path, load_dataset) == []

    def test_checkpoint(self, tmp_path):
        ds, vocab, pcfg = make_synthetic_corpus(8, 3, seed=4, tokens_per_class=4,
                                                filler_tokens=6, min_len=4, max_len=8)
        cfg = ExperimentConfig(cell="lstm", embedding_dim=2,
                               hidden_size=2, dense_size=2, epochs=0, seed=1)
        model, _ = train(cfg, ds, vocab)
        path = tmp_path / "model.sqt"
        save_checkpoint(path, model, cfg, ds.class_names, vocab, pcfg)
        assert 1_000 < path.stat().st_size < 4_000
        assert self._escapes(path, load_checkpoint) == []


class TestEvaluate:
    @staticmethod
    def _padded_setup(n_classes):
        """600 documents of 5 to 60 tokens cut to 50, and a paper-size gru
        trained for one epoch on half of them: scoring makes three batches
        of 256 rows or fewer, and the rows' leading pads differ."""
        ds, vocab, _ = make_synthetic_corpus(600, n_classes, seed=2, min_len=5, max_len=60,
                                             pad_len=50)
        ds = split(ds, train_fraction=0.5, seed=0)
        model, _ = train(ExperimentConfig(cell="gru", epochs=1, seed=1), ds, vocab)
        return ds, model

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_scored_rows_follow_their_rows(self, n_classes):
        ds, model = self._padded_setup(n_classes)
        X = ds.indices
        probs = engine._scored_rows(model, X, np.arange(len(X)))
        perm = np.random.default_rng(0).permutation(len(X))
        assert engine._scored_rows(model, X, perm).tobytes() == probs[perm].tobytes()
        shuffled = engine._scored_rows(model, X[perm], np.arange(len(X)))
        assert shuffled.tobytes() == probs[perm].tobytes()
        # batched by leading pad, each row scores as in its input-order batch
        B = engine.INFERENCE_BATCH_SIZE
        traced = np.concatenate([M.forward(model, X[b0:b0 + B])[0] for b0 in range(0, len(X), B)])
        assert probs.tobytes() == traced.tobytes()

    def test_report_is_unchanged_by_a_row_permutation(self):
        ds, model = self._padded_setup(3)
        perm = np.random.default_rng(1).permutation(len(ds))
        moved = np.argsort(perm)  # row i of ds is row moved[i] of the permuted set
        permuted = replace(ds, indices=ds.indices[perm], labels=ds.labels[perm],
                           lengths=ds.lengths[perm], train_idx=np.sort(moved[ds.train_idx]),
                           test_idx=np.sort(moved[ds.test_idx]))
        for which in ("train", "test", "all"):
            report = evaluate(model, ds, which)
            assert np.count_nonzero(report.confusion.sum(axis=0)) > 1  # not a single class
            again = evaluate(model, permuted, which)
            assert again.confusion.tobytes() == report.confusion.tobytes(), which
            assert metrics_lines(again, ds.class_names) == metrics_lines(report, ds.class_names)

    def test_split_selection_and_errors(self):
        ds, vocab, _, cfg = _toy_setup(epochs=1)
        ds = split(ds, train_fraction=0.5, seed=0)
        model, _ = train(cfg, ds, vocab)
        for which in ("train", "test", "all"):
            rep = evaluate(model, ds, which=which)
            assert 0.0 <= rep.accuracy <= 100.0
        assert evaluate(model, ds, which="all").confusion.sum() == len(ds)
        with pytest.raises(ConfigError, match="split must be"):
            evaluate(model, ds, which="validation")

    @pytest.mark.parametrize("which", ["train", "test"])
    def test_no_stored_split_has_no_train_or_test_side(self, which):
        # without a split, "train" would silently score the whole corpus
        ds, vocab, _, cfg = _toy_setup(epochs=0)
        model, _ = train(cfg, ds, vocab)
        with pytest.raises(ConfigError, match=f"no train/test split, so no {which} split; "
                                              "use --split all"):
            evaluate(model, ds, which=which)
        assert evaluate(model, ds, which="all").confusion.sum() == len(ds)

    def test_vocabulary_mismatch_rejected(self):
        ds, vocab, _, cfg = _toy_setup(epochs=0)
        model, _ = train(cfg, ds, vocab)
        other, _, _ = make_synthetic_corpus(16, 2, seed=99, signal_rate=0.5,
                                            filler_tokens=21)
        assert other.vocab_sha != ds.vocab_sha
        with pytest.raises(VocabularyMismatchError, match="re-encode"):
            evaluate(model, other, which="all")

    def test_class_count_mismatch_rejected(self):
        ds, vocab, _, cfg = _toy_setup(epochs=0)
        model, _ = train(cfg, ds, vocab)
        tri, _, _ = make_synthetic_corpus(15, 3, seed=1)
        tri = replace(tri, vocab_sha=None)
        with pytest.raises(ConfigError, match="classes"):
            evaluate(model, tri, which="all")
