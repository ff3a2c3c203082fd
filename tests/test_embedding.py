"""Embedding table initialization, index checks, row gradients and
pretrained-vector loading."""

from collections import Counter

import numpy as np
import pytest

from seqtext.embedding import (check_indices, embedding_dim_heuristic, init_table,
                               load_pretrained, lookup_grad)
from seqtext.errors import ConfigError, DataError
from seqtext.pipeline import PipelineConfig, build_vocabulary


def test_pad_row_zero_after_init():
    table = init_table(7, 4, np.random.default_rng(0))
    np.testing.assert_array_equal(table[0], np.zeros(4))
    np.testing.assert_array_equal(table[check_indices([0], 7)][0], np.zeros(4))


def test_init_range():
    table = init_table(100, 8, np.random.default_rng(1))
    w = table[1:]
    assert w.min() >= 0.0
    assert w.max() <= 1.0 / 8


def test_init_is_the_scaled_uniform_draw_bitwise():
    want = np.random.default_rng(11).uniform(0.0, 1.0, size=(30, 6)) / 6
    want[0] = 0.0
    table = init_table(30, 6, np.random.default_rng(11))
    assert table.dtype == np.float64 and table.shape == (30, 6)
    assert table.tobytes() == want.tobytes()


def test_row_selection():
    table = init_table(5, 2, np.random.default_rng(2))
    table[3] = [0.1, 0.2]
    np.testing.assert_array_equal(table[check_indices([3], 5)], [[0.1, 0.2]])


def test_lookup_equals_one_hot_product():
    rng = np.random.default_rng(3)
    table = init_table(12, 5, rng)
    for i in rng.integers(0, 12, size=10):
        onehot = np.zeros((1, 12))
        onehot[0, i] = 1.0
        np.testing.assert_array_equal(table[check_indices([int(i)], 12)], onehot @ table)


def test_lookup_batch_shapes():
    table = init_table(9, 3, np.random.default_rng(4))
    idx = np.array([[1, 2], [3, 4]])
    assert check_indices(idx, 9) is idx
    assert table[idx].shape == (2, 2, 3)


def test_out_of_range_index_names_position():
    with pytest.raises(IndexError, match=r"embedding index 9 at position 1 out of range \[0, 4\)"):
        check_indices([1, 9], 4)
    with pytest.raises(IndexError, match=r"index -1 at position \(1, 0\)"):
        check_indices([[1, 2], [-1, 3]], 4)
    assert check_indices([0, 3], 4).tolist() == [0, 3]


def test_lookup_grad_equals_add_at_bitwise():
    # Mostly pad, one heavily repeated token, and magnitudes spread over 16
    # decades, so that any change in the order of the additions shows.
    rng = np.random.default_rng(6)
    V, D = 50, 16
    idx = rng.integers(0, V, size=(32, 250))
    idx[:, :150] = 0
    idx[:, 150:170] = 7
    g = rng.normal(size=(250, 32, D)) * 10.0 ** rng.integers(-8, 8, size=(250, 32, D))
    g = np.swapaxes(g, 0, 1)  # (32, 250, D), strided as the model's backward passes it
    ref = np.zeros((V, D))
    np.add.at(ref, idx.reshape(-1), g.reshape(-1, D))
    ref[0] = 0.0
    out = lookup_grad(idx, g, V)
    assert out.shape == (V, D) and out.tobytes() == ref.tobytes()
    assert not out[0].any()
    flat = lookup_grad(idx.reshape(-1), np.ascontiguousarray(g).reshape(-1, D), V)
    assert flat.tobytes() == ref.tobytes()


def test_dim_heuristic():
    assert embedding_dim_heuristic(65536) == 16
    assert embedding_dim_heuristic(10000) == 10
    assert embedding_dim_heuristic(1) == 1
    with pytest.raises(ConfigError):
        embedding_dim_heuristic(0)


def _tiny_vocab(tokens):
    cfg = PipelineConfig(vocab_size=len(tokens) + 2, max_len=4)
    return build_vocabulary(Counter(tokens), cfg)


class TestLoadPretrained:
    def test_direct_copy(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("cat 1.0 2.0\n", encoding="utf-8")
        vocab = _tiny_vocab(["cat"])
        emb, matched = load_pretrained(p, vocab, 2, np.random.default_rng(0))
        assert matched == 1
        np.testing.assert_array_equal(emb[vocab.token_to_index["cat"]], [1.0, 2.0])

    def test_unmatched_token_is_noop(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("dog 1.0 2.0\n", encoding="utf-8")
        vocab = _tiny_vocab(["cat"])
        emb, matched = load_pretrained(p, vocab, 2, np.random.default_rng(0))
        fresh = init_table(vocab.size, 2, np.random.default_rng(0))
        assert matched == 0
        np.testing.assert_array_equal(emb, fresh)

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
        np.testing.assert_array_equal(emb[vocab.token_to_index["cat"]], [3.0, 4.0])

    def test_header_dim_mismatch(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("1 3\ncat 1.0 2.0 3.0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="3-dimensional"):
            load_pretrained(p, _tiny_vocab(["cat"]), 2, np.random.default_rng(0))

    @pytest.mark.parametrize("text", ["1 2\ncat 3.0 4.0\n", "cat 3.0 4.0\n"],
                             ids=["header", "no-header"])
    def test_file_may_start_with_a_bom(self, tmp_path, text):
        p = tmp_path / "vec.txt"
        p.write_text(text, encoding="utf-8-sig")
        vocab = _tiny_vocab(["cat"])
        emb, matched = load_pretrained(p, vocab, 2, np.random.default_rng(0))
        assert matched == 1
        np.testing.assert_array_equal(emb[vocab.token_to_index["cat"]], [3.0, 4.0])

    def test_pad_row_forced_zero(self, tmp_path):
        # a file entry for the pad display token must not overwrite row 0
        p = tmp_path / "vec.txt"
        p.write_text("<PAD> 9.0 9.0\ncat 1.0 1.0\n", encoding="utf-8")
        vocab = _tiny_vocab(["cat"])
        emb, _ = load_pretrained(p, vocab, 2, np.random.default_rng(0))
        np.testing.assert_array_equal(emb[0], [0.0, 0.0])
