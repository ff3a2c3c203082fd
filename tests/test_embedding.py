"""Embedding table lookup and pretrained-vector loading."""

import numpy as np
import pytest

from seqtext.embedding import (EmbeddingMatrix, embedding_dim_heuristic,
                               load_pretrained, lookup)
from seqtext.errors import ConfigError, DataError
from seqtext.pipeline import PipelineConfig, build_vocabulary


def test_pad_row_zero_after_init():
    emb = EmbeddingMatrix.init(7, 4, np.random.default_rng(0))
    np.testing.assert_array_equal(emb.weights[0], np.zeros(4))
    np.testing.assert_array_equal(lookup([0], emb)[0], np.zeros(4))


def test_init_range():
    emb = EmbeddingMatrix.init(100, 8, np.random.default_rng(1))
    w = emb.weights[1:]
    assert w.min() >= 0.0
    assert w.max() <= 1.0 / 8


def test_row_selection():
    emb = EmbeddingMatrix.init(5, 2, np.random.default_rng(2))
    emb.weights[3] = [0.1, 0.2]
    np.testing.assert_array_equal(lookup([3], emb), [[0.1, 0.2]])


def test_lookup_equals_one_hot_product():
    rng = np.random.default_rng(3)
    emb = EmbeddingMatrix.init(12, 5, rng)
    for i in rng.integers(0, 12, size=10):
        onehot = np.zeros((1, 12))
        onehot[0, i] = 1.0
        np.testing.assert_array_equal(lookup([int(i)], emb), onehot @ emb.weights)


def test_lookup_batch_shapes():
    emb = EmbeddingMatrix.init(9, 3, np.random.default_rng(4))
    out = lookup(np.array([[1, 2], [3, 4]]), emb)
    assert out.shape == (2, 2, 3)


def test_out_of_range_index_names_position():
    emb = EmbeddingMatrix.init(4, 2, np.random.default_rng(5))
    with pytest.raises(IndexError, match="position"):
        lookup([1, 9], emb)
    with pytest.raises(IndexError):
        lookup([-1], emb)


def test_dim_heuristic():
    assert embedding_dim_heuristic(65536) == 16
    assert embedding_dim_heuristic(10000) == 10
    assert embedding_dim_heuristic(1) == 1
    with pytest.raises(ConfigError):
        embedding_dim_heuristic(0)


def _tiny_vocab(tokens):
    cfg = PipelineConfig(vocab_size=len(tokens) + 2, max_len=4)
    return build_vocabulary([tokens], cfg)


class TestLoadPretrained:
    def test_direct_copy(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("cat 1.0 2.0\n", encoding="utf-8")
        vocab = _tiny_vocab(["cat"])
        emb, matched = load_pretrained(p, vocab, 2, np.random.default_rng(0))
        assert matched == 1
        np.testing.assert_array_equal(emb.weights[vocab.token_to_index["cat"]], [1.0, 2.0])

    def test_unmatched_token_is_noop(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("dog 1.0 2.0\n", encoding="utf-8")
        vocab = _tiny_vocab(["cat"])
        emb, matched = load_pretrained(p, vocab, 2, np.random.default_rng(0))
        fresh = EmbeddingMatrix.init(vocab.size, 2, np.random.default_rng(0))
        assert matched == 0
        np.testing.assert_array_equal(emb.weights, fresh.weights)

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("cat 1.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 1"):
            load_pretrained(p, _tiny_vocab(["cat"]), 2, np.random.default_rng(0))

    def test_unparsable_number(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("cat 1.0 oops\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 1"):
            load_pretrained(p, _tiny_vocab(["cat"]), 2, np.random.default_rng(0))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_the_line(self, tmp_path, value):
        p = tmp_path / "vec.txt"
        p.write_text(f"cat 1.0 2.0\ndog 1.0 {value}\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2: 'dog' has a value that is not a finite"):
            load_pretrained(p, _tiny_vocab(["cat"]), 2, np.random.default_rng(0))

    def test_count_dim_header_skipped(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("1 2\ncat 3.0 4.0\n", encoding="utf-8")
        vocab = _tiny_vocab(["cat"])
        emb, matched = load_pretrained(p, vocab, 2, np.random.default_rng(0))
        assert matched == 1
        np.testing.assert_array_equal(emb.weights[vocab.token_to_index["cat"]], [3.0, 4.0])

    def test_header_dim_mismatch(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("1 3\ncat 1.0 2.0 3.0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="3-dimensional"):
            load_pretrained(p, _tiny_vocab(["cat"]), 2, np.random.default_rng(0))

    def test_pad_row_forced_zero(self, tmp_path):
        # a file entry for the pad display token must not overwrite row 0
        p = tmp_path / "vec.txt"
        p.write_text("<PAD> 9.0 9.0\ncat 1.0 1.0\n", encoding="utf-8")
        vocab = _tiny_vocab(["cat"])
        emb, _ = load_pretrained(p, vocab, 2, np.random.default_rng(0))
        np.testing.assert_array_equal(emb.weights[0], [0.0, 0.0])
