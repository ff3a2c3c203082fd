"""Config parsing, splits, CSV loading, training loop, and artifacts."""

import math
from dataclasses import replace

import numpy as np
import pytest

from seqtext import engine, pipeline
from seqtext import model as M
from seqtext.engine import (
    Dataset,
    ExperimentConfig,
    build_model,
    corpus_stats,
    emit_learning_curve,
    evaluate,
    load_checkpoint,
    load_csv_dataset,
    load_dataset,
    make_synthetic_corpus,
    make_synthetic_csv,
    parse_config_text,
    read_container,
    save_checkpoint,
    save_dataset,
    split,
    train,
    write_container,
)
from seqtext.errors import (
    ConfigError,
    DataError,
    DivergenceError,
    IntegrityError,
    VocabularyMismatchError,
)

from helpers import rewrite_artifact


class TestConfigParsing:
    def test_typed_values_and_comments(self):
        text = """
        # an experiment
        task = multiclass
        epochs = 12

        learning_rate = 0.25
        peepholes = off
        embedding_dim = auto
        gradient_clip = none
        """
        got = parse_config_text(text)
        assert got == {
            "task": "multiclass",
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


class TestExperimentConfig:
    def test_learning_rate_resolution_by_task(self):
        assert ExperimentConfig(task="binary").resolved_learning_rate() == 0.001
        assert ExperimentConfig(task="multiclass").resolved_learning_rate() == 0.005
        assert ExperimentConfig(learning_rate=0.2).resolved_learning_rate() == 0.2

    def test_loss_resolution_by_head(self):
        # the task fixes the head, and the head fixes the loss
        vocab = pipeline.Vocabulary([f"t{i}" for i in range(20)], [0] * 20)
        for task, head, n_classes, loss in [("binary", "sigmoid", 2, M.bce_loss),
                                             ("multiclass", "softmax", 3, M.cce_loss)]:
            cfg = ExperimentConfig(task=task)
            assert cfg.head == head
            model = build_model(cfg, n_classes, vocab)
            probs = M.forward(model, np.array([[0, 2, 3, 4], [5, 6, 7, 8]]))[0]
            y = np.array([1, 0])
            np.testing.assert_array_equal(M.loss_values(model, probs, y), loss(probs, y))

    def test_embedding_dim_auto_uses_vocab_size(self):
        cfg = ExperimentConfig(embedding_dim="auto")
        assert cfg.resolve_embedding_dim(65536) == 16
        assert cfg.resolve_embedding_dim(16) == 2
        assert ExperimentConfig(embedding_dim=24).resolve_embedding_dim(500) == 24

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"task": "regression"},
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
        ],
    )
    def test_validate_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs).validate()

    def test_describe_round_trips_as_config_text(self):
        cfg = ExperimentConfig(task="multiclass", cell="gru", embedding_dim="auto",
                               hidden_size=8, seed=5)
        text = cfg.describe(500)
        back = ExperimentConfig.from_dict(parse_config_text(text))
        assert back.task == "multiclass"
        assert back.cell == "gru"
        assert back.hidden_size == 8
        assert back.seed == 5
        # resolution is baked into the described form
        assert back.learning_rate == 0.005
        assert back.embedding_dim == engine.embedding_dim_heuristic(500)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="momentum"):
            ExperimentConfig.from_dict({"momentum": 0.9})

    @pytest.mark.parametrize("key", ["vocab_size", "max_len"])
    def test_encoding_settings_belong_to_the_dataset(self, key):
        # the vocabulary cap and the length are fixed by preprocess
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict({key: 100})
        with pytest.raises(ConfigError, match=key):
            parse_config_text(f"{key} = 100\n")

    def test_from_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("cell = rnn\nепochs = 3\n".replace("еп", "ep"), encoding="utf-8")
        cfg = ExperimentConfig.from_dict(parse_config_text(p.read_text(encoding="utf-8")))
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

    def test_explicit_counts_largest_remainder(self):
        # 5 + 5 + 5 examples, 10 train slots: the first class wins the tie
        ds, _, _ = make_synthetic_corpus(15, 3, seed=0)
        out = split(ds, train_count=10, test_count=5, seed=0)
        y = out.labels
        assert np.bincount(y[out.train_idx]).tolist() == [4, 3, 3]

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
        with pytest.raises(ConfigError, match="not both"):
            split(ds, train_fraction=0.5, train_count=5, test_count=5)
        with pytest.raises(ConfigError, match="not both"):
            split(ds)
        with pytest.raises(ConfigError, match="train_fraction"):
            split(ds, train_fraction=1.0)
        with pytest.raises(ConfigError, match="both train_count and test_count"):
            split(ds, train_count=5)
        with pytest.raises(ConfigError, match="corpus size"):
            split(ds, train_count=5, test_count=6)

    def test_fraction_leaving_empty_test_rejected(self):
        ds, _, _ = make_synthetic_corpus(4, 2, seed=0)
        with pytest.raises(ConfigError, match="empty test split"):
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

    def test_pinned_class_names(self, tmp_path):
        p = tmp_path / "toy.csv"
        _write_csv(p, [("fine", "pos"), ("bad", "neg")])
        cfg = pipeline.PipelineConfig(vocab_size=10, max_len=4)
        ds, _ = load_csv_dataset(p, "text", "label", cfg, class_names=["neg", "pos"])
        assert ds.class_names == ["neg", "pos"]
        assert ds.labels.tolist() == [1, 0]
        with pytest.raises(DataError, match="row 2.*'pos'"):
            load_csv_dataset(p, "text", "label", cfg, class_names=["neg", "other"])

    def test_vocab_reuse_keeps_indices_comparable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _write_csv(a, [("alpha beta", "x"), ("beta gamma", "y")])
        _write_csv(b, [("gamma alpha", "y"), ("beta beta", "x")])
        cfg = pipeline.PipelineConfig(vocab_size=10, max_len=4)
        ds_a, vocab = load_csv_dataset(a, "text", "label", cfg)
        ds_b, vocab_b = load_csv_dataset(b, "text", "label", cfg, vocab=vocab,
                                         class_names=ds_a.class_names)
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

    def test_utf8_bom_is_transparent(self, tmp_path):
        p = tmp_path / "bom.csv"
        _write_csv(p, [("fine", "pos"), ("bad", "neg")], encoding="utf-8-sig")
        cfg = pipeline.PipelineConfig(vocab_size=10, max_len=4)
        ds, _ = load_csv_dataset(p, "text", "label", cfg)
        assert ds.class_names == ["pos", "neg"]


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
    base = dict(task="binary" if n_classes == 2 else "multiclass",
                cell="rnn", epochs=2, batch_size=8, hidden_size=6,
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
        # the test columns are NaN here (no split), so compare NaN-aware
        t1 = np.array(c1)
        t2 = np.array(c2)
        assert np.array_equal(t1, t2, equal_nan=True)

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_epoch_and_batch(self):
        ds, vocab, _, cfg = _toy_setup(epochs=40, cell="rnn", optimizer="sgd",
                                       learning_rate=1e12)
        with pytest.raises(DivergenceError, match=r"diverged at epoch \d+, batch \d+"):
            train(cfg, ds, vocab)

    def test_gradient_clip_rescues_the_same_run(self):
        ds, vocab, _, cfg = _toy_setup(epochs=40, cell="rnn", optimizer="sgd",
                                       learning_rate=1e12, gradient_clip=1.0)
        _, curve = train(cfg, ds, vocab)
        assert len(curve) == 40

    def test_stop_when_train_acc(self):
        ds, vocab, _, cfg = _toy_setup(n_docs=32, epochs=200, cell="gru",
                                       hidden_size=8, seed=3)
        _, curve = train(cfg, ds, vocab, stop_when_train_acc=100.0)
        assert len(curve) < 200

    def test_stop_when_test_acc_stops_immediately_at_zero_bar(self):
        ds, vocab, _, cfg = _toy_setup(epochs=5)
        _, curve = train(cfg, split(ds, train_fraction=0.5, seed=0), vocab,
                         stop_when_test_acc=0.0)
        assert len(curve) == 1

    def test_empty_dataset_rejected(self):
        _, vocab, _, cfg = _toy_setup()
        empty = Dataset(indices=np.zeros((0, 4), dtype=np.int32),
                        labels=np.zeros(0, dtype=np.int64),
                        lengths=np.zeros(0, dtype=np.int32), class_names=["neg", "pos"])
        with pytest.raises(ConfigError, match="empty"):
            train(cfg, empty, vocab)

    def test_empty_training_split_rejected(self):
        ds, vocab, _, cfg = _toy_setup()
        starved = replace(ds, train_idx=np.array([], dtype=np.int64),
                          test_idx=np.arange(len(ds)))
        with pytest.raises(ConfigError, match="training split is empty"):
            train(cfg, starved, vocab)

    def test_binary_task_needs_two_classes(self):
        ds, vocab, _, cfg = _toy_setup(n_docs=15, n_classes=3, task="binary")
        with pytest.raises(ConfigError, match="exactly 2"):
            train(cfg, ds, vocab)


class TestTrainingLossDescends:
    def test_running_mean_loss_is_nearly_monotone(self):
        # smooth descent on the separable corpus; tiny rebounds between
        # consecutive epochs are tolerated, sustained rises are not
        ds, vocab, _ = make_synthetic_corpus(32, 2, seed=7,
                                             signal_rate=0.5, filler_tokens=20)
        cfg = ExperimentConfig(task="binary", cell="lstm", epochs=60,
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
        assert ck.config == cfg
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
            (model, replace(cfg, task="multiclass"), ds.class_names, vocab, "head 'softmax'"),
            (model, cfg, ds.class_names + ["other"], vocab, "3 are named"),
            (model, cfg, ds.class_names, other_vocab, "another vocabulary"),
        ]
        for m, c, names, v, match in cases:
            with pytest.raises(ConfigError, match=match):
                save_checkpoint(tmp_path / "model.sqt", m, c, names, v, pcfg)
        assert not (tmp_path / "model.sqt").exists()


# Edits to a stored vocabulary text that leave the recorded hash as it was:
# another token, and the same entries in a non-canonical form.
_VOCAB_TEXT_EDITS = [lambda t: t.replace("<UNK>", "<OOV>"), lambda t: t + "\n"]
_VOCAB_TEXT_EDIT_IDS = ["token", "blank-line"]


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

    # The cell kind comes from config.cell, the head from config.task and
    # the class count from class_names, so the cases named after the
    # fields that format 3 stored take those away instead.
    @pytest.mark.parametrize("edit,match", [
        (lambda h: h.pop("config"), "config"),
        (lambda h: h["config"].pop("cell"), "config lacks cell"),
        (lambda h: h["config"].pop("task"), "config lacks task"),
        (lambda h: h["class_names"].pop(), "exactly 2 classes, got 1"),
        (lambda h: h.pop("class_names"), "class_names"),
        (lambda h: h.pop("vocab_sha"), "vocab_sha"),
        (lambda h: h.pop("vocab_text"), "vocab_text"),
        (lambda h: h.pop("pipeline"), "pipeline"),
        (lambda h: h.pop("format"), "format"),
    ], ids=["config", "cell", "head", "n_classes", "class_names", "vocab_sha", "vocab_text",
            "pipeline", "format"])
    def test_missing_field_is_integrity_error(self, ckpt, edit, match):
        rewrite_artifact(ckpt, ckpt, edit)
        with pytest.raises(IntegrityError, match=match):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("edit,match", [
        (lambda h: h.update(config="lstm"), "config"),
        (lambda h: h.update(class_names=["neg", 2]), "class_names"),
        (lambda h: h.update(class_names=["neg", True]), "class_names"),
        (lambda h: h["config"].update(task=1), "task"),
        (lambda h: h.update(class_names="neg,pos"), "class_names"),
        (lambda h: h.update(pipeline=3), "pipeline"),
        (lambda h: h.update(vocab_sha=None), "vocab_sha"),
        (lambda h: h.update(vocab_text=None), "vocab_text"),
        (lambda h: h.update(pipeline=None), "pipeline"),
    ], ids=["config-lstm", "n_classes-2", "n_classes-True", "head-1", "class_names-neg,pos",
            "pipeline-3", "vocab_sha-None", "vocab_text-None", "pipeline-None"])
    def test_wrong_field_type_is_integrity_error(self, ckpt, edit, match):
        rewrite_artifact(ckpt, ckpt, edit)
        with pytest.raises(IntegrityError, match=match):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("edit", [
        lambda h: h.update(format=1),
        lambda h: h.update(format=3),
        lambda h: h["config"].update(hidden_size="six"),
        lambda h: h["config"].update(learning_rate="fast"),
        lambda h: h["config"].update(cell="transformer"),
        lambda h: h["config"].update(literal_recurrence=True),
        lambda h: h["config"].update(gates=4),
        lambda h: h["config"].update(task="argmax"),
        lambda h: h["class_names"].append("other"),
        lambda h: h["pipeline"].update(max_len=0),
    ], ids=["format1", "format3", "config-int", "config-float", "cell-kind", "cell-literal",
            "cell-unknown-key", "head", "n_classes", "pipeline"])
    def test_bad_field_contents_are_integrity_errors(self, ckpt, edit):
        rewrite_artifact(ckpt, ckpt, edit)
        with pytest.raises(IntegrityError):
            load_checkpoint(ckpt)

    def test_class_names_must_be_distinct(self, ckpt):
        # a name that is not a string is the n_classes-2 case above
        rewrite_artifact(ckpt, ckpt, lambda h: h.update(class_names=["neg", "neg"]))
        with pytest.raises(IntegrityError, match="distinct strings"):
            load_checkpoint(ckpt)

    # The fixture holds binary lstm blocks with peepholes: hidden size 6,
    # embedding dim 8, dense size 4, over two named classes.
    @pytest.mark.parametrize("edit,match", [
        (lambda c: c.update(cell="gru"), "peephole weights, not gru"),
        (lambda c: c.update(task="multiclass"), "head rows 2, but the model has 1"),
        (lambda c: c.update(hidden_size=5), "hidden_size 5"),
        (lambda c: c.update(embedding_dim="auto"), "embedding_dim 3"),
        (lambda c: c.update(dense_size=3), "dense_size 3"),
        (lambda c: c.update(peepholes=False), "peepholes False"),
    ], ids=["cell", "task", "hidden_size", "embedding_dim", "dense_size", "peepholes"])
    def test_config_disagreeing_with_blocks_is_integrity_error(self, ckpt, edit, match):
        rewrite_artifact(ckpt, ckpt, lambda h: edit(h["config"]))
        with pytest.raises(IntegrityError, match=match):
            load_checkpoint(ckpt)

    def test_embedding_rows_must_match_vocabulary(self, ckpt):
        rewrite_artifact(ckpt, ckpt, edit_arrays=lambda a: a.update(
            {"embedding.weights": a["embedding.weights"][:-1]}))
        with pytest.raises(IntegrityError, match="embedding table has"):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("edit", _VOCAB_TEXT_EDITS, ids=_VOCAB_TEXT_EDIT_IDS)
    def test_vocab_text_must_match_recorded_hash(self, ckpt, edit):
        rewrite_artifact(ckpt, ckpt, lambda h: h.update(vocab_text=edit(h["vocab_text"])))
        with pytest.raises(IntegrityError, match="recorded hash"):
            load_checkpoint(ckpt)

    def test_cell_validates_its_own_blocks(self, ckpt):
        rewrite_artifact(ckpt, ckpt,
                         edit_arrays=lambda a: a.update({"cell.U": a["cell.U"][:18]}))
        with pytest.raises(IntegrityError, match="cell"):
            load_checkpoint(ckpt)
        rewrite_artifact(ckpt, ckpt, edit_arrays=lambda a: a.pop("cell.W"))
        with pytest.raises(IntegrityError, match="argument: 'W'"):
            load_checkpoint(ckpt)


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
        with pytest.raises(IntegrityError, match=match):
            load_dataset(path)

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
        with pytest.raises(IntegrityError, match=f"row 5 holds token index {bad}"):
            load_dataset(path)

    @pytest.mark.parametrize("field", ["class_names", "vocab_text", "vocab_sha",
                                       "pipeline", "has_split"])
    def test_missing_header_field_is_integrity_error(self, tmp_path, field):
        ds, vocab, pcfg = make_synthetic_corpus(8, 2, seed=5)
        path = tmp_path / "data.sqt"
        save_dataset(path, ds, vocab, pcfg)
        rewrite_artifact(path, path, lambda h: h.pop(field))
        with pytest.raises(IntegrityError, match=field):
            load_dataset(path)

    @pytest.mark.parametrize("names", [["neg", 7], ["neg", "neg"]],
                             ids=["non-string", "duplicate"])
    def test_class_names_must_be_distinct_strings(self, tmp_path, names):
        ds, vocab, pcfg = make_synthetic_corpus(8, 2, seed=5)
        path = tmp_path / "data.sqt"
        save_dataset(path, ds, vocab, pcfg)
        rewrite_artifact(path, path, lambda h: h.update(class_names=names))
        with pytest.raises(IntegrityError, match="distinct strings"):
            load_dataset(path)

    @pytest.mark.parametrize("edit", _VOCAB_TEXT_EDITS, ids=_VOCAB_TEXT_EDIT_IDS)
    def test_vocab_text_must_match_recorded_hash(self, tmp_path, edit):
        ds, vocab, pcfg = make_synthetic_corpus(8, 2, seed=5)
        path = tmp_path / "data.sqt"
        save_dataset(path, ds, vocab, pcfg)
        rewrite_artifact(path, path, lambda h: h.update(vocab_text=edit(h["vocab_text"])))
        with pytest.raises(IntegrityError, match="recorded hash"):
            load_dataset(path)

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


class TestEvaluate:
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

    def test_empty_split_rejected(self):
        ds, vocab, _, cfg = _toy_setup(epochs=0)
        model, _ = train(cfg, ds, vocab)
        with pytest.raises(ConfigError, match="test split is empty"):
            evaluate(model, ds, which="test")

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
