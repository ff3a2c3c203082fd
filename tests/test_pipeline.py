"""Text cleaning, vocabulary construction, and encoding contracts."""

import re
import tracemalloc
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from seqtext.engine import load_csv_dataset
from seqtext.errors import ConfigError, DataError
from seqtext.pipeline import (PAD_INDEX, OOV_INDEX, PipelineConfig, Vocabulary,
                              build_vocabulary, clean, encode, load_stopwords, pad_rows)


def small_cfg(**kw):
    base = dict(vocab_size=50, max_len=5)
    base.update(kw)
    return PipelineConfig(**base)


def _tokens(indices, vocab):
    """The tokens of an encoded document's non-pad positions."""
    return [vocab.index_to_token[i] for i in indices if i != PAD_INDEX]


class TestClean:
    def test_lowercase_strip_stopwords(self):
        cfg = small_cfg(stopwords=frozenset({"the"}))
        assert clean("The CAT sat!!", cfg) == ["cat", "sat"]

    def test_empty_input(self):
        assert clean("", small_cfg()) == []

    def test_punctuation_to_separators(self):
        assert clean("Hello, hello.", small_cfg()) == ["hello", "hello"]

    def test_digits_survive_stripping(self):
        assert clean("room 101!", small_cfg()) == ["room", "101"]


class TestBuildVocabulary:
    def test_frequency_ranking_and_oov(self):
        cfg = small_cfg(vocab_size=4)
        vocab = build_vocabulary(Counter("aaabbc"), cfg)
        assert vocab.token_to_index["a"] == 2
        assert vocab.token_to_index["b"] == 3
        assert "c" not in vocab.token_to_index
        assert vocab.size == 4

    def test_singleton_corpus(self):
        vocab = build_vocabulary(Counter(["x"]), small_cfg(vocab_size=3))
        assert vocab.token_to_index["x"] == 2

    def test_lexicographic_tie_break(self):
        vocab = build_vocabulary(Counter(["n", "m"]), small_cfg(vocab_size=4))
        assert vocab.token_to_index["m"] == 2
        assert vocab.token_to_index["n"] == 3

    def test_empty_corpus_rejected(self):
        # counts cannot tell no document from documents without a token
        with pytest.raises(DataError, match="no document has a token"):
            build_vocabulary(Counter(), small_cfg())

    def test_corpus_without_tokens_rejected(self, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text("text,label\n...,pos\n!?,neg\n", encoding="utf-8")
        with pytest.raises(DataError, match="blank.csv: no document has a token"):
            load_csv_dataset(p, "text", "label", small_cfg())

    def test_reserved_indices(self):
        vocab = build_vocabulary(Counter(["a"]), small_cfg())
        assert vocab.index_to_token[PAD_INDEX] == "<PAD>"
        assert vocab.index_to_token[OOV_INDEX] == "<UNK>"

    def test_deterministic_construction(self):
        corpus = Counter(["q", "w", "e", "q", "w", "q"])
        v1 = build_vocabulary(corpus, small_cfg())
        v2 = build_vocabulary(corpus, small_cfg())
        assert v1.index_to_token == v2.index_to_token
        assert v1.sha256() == v2.sha256()


class TestEncode:
    def test_pre_padding(self):
        cfg = small_cfg(vocab_size=4, max_len=5)
        vocab = build_vocabulary(Counter(["a", "a", "b"]), cfg)
        out = encode([["a", "b"], ["b"]], vocab, cfg)
        assert out.dtype == np.int32
        np.testing.assert_array_equal(out, [[0, 0, 0, 2, 3], [0, 0, 0, 0, 3]])

    def test_tail_truncation(self):
        cfg = small_cfg(vocab_size=20, max_len=4)
        toks = ["a", "b", "c", "d", "e", "f"]
        vocab = build_vocabulary(Counter(toks), cfg)
        out = encode([toks, toks[:4]], vocab, cfg)
        assert out.shape == (2, 4)
        assert _tokens(out[0], vocab) == _tokens(out[1], vocab) == ["a", "b", "c", "d"]

    def test_oov_replacement(self):
        cfg = small_cfg(vocab_size=3, max_len=2)
        vocab = build_vocabulary(Counter(["a"]), cfg)
        np.testing.assert_array_equal(encode([["z"], ["a", "z"]], vocab, cfg),
                                      [[0, OOV_INDEX], [2, OOV_INDEX]])

    def test_empty_tokens_all_pad(self):
        cfg = small_cfg(max_len=3)
        vocab = build_vocabulary(Counter(["a"]), cfg)
        np.testing.assert_array_equal(encode([[], ["a"], []], vocab, cfg),
                                      [[0, 0, 0], [0, 0, 2], [0, 0, 0]])
        assert encode([], vocab, cfg).shape == (0, 3)

    def test_length_law(self):
        rng = np.random.default_rng(3)
        words = [f"w{k}" for k in range(30)]
        cfg = small_cfg(vocab_size=40, max_len=7)
        vocab = build_vocabulary(Counter(words), cfg)
        docs = [[words[int(rng.integers(30))] for _ in range(int(rng.integers(0, 20)))]
                for _ in range(200)]
        out = encode(docs, vocab, cfg)
        assert out.shape == (200, 7)
        for row, toks in zip(out, docs):
            assert (row != 0).sum() == min(len(toks), 7)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        words = [f"w{k}" for k in range(10)]
        cfg = small_cfg(vocab_size=20, max_len=8)
        vocab = build_vocabulary(Counter(words), cfg)
        docs = [[words[int(rng.integers(10))] for _ in range(int(rng.integers(1, 9)))]
                for _ in range(100)]
        for row, toks in zip(encode(docs, vocab, cfg), docs):
            assert _tokens(row, vocab) == toks


# One document under the row rule at max_len 4: its ids, then its row.
_ROWS = [
    ([], [0, 0, 0, 0]),
    ([5, 6], [0, 0, 5, 6]),
    ([5, 6, 7, 8], [5, 6, 7, 8]),
    ([5, 6, 7, 8, 9, 3], [5, 6, 7, 8]),
]
_ROW_IDS = ["empty", "short", "exactly-max_len", "longer"]


class TestPadRows:
    @pytest.mark.parametrize("ids,row", _ROWS, ids=_ROW_IDS)
    def test_one_document(self, ids, row):
        out = pad_rows(np.array(ids, dtype=np.int32), [len(ids)], 4)
        assert out.dtype == np.int32
        assert out.tolist() == [row]

    @pytest.mark.parametrize("order", [[0, 1, 2, 3], [3, 2, 1, 0], [3, 0, 3, 1, 2, 0]],
                             ids=["table", "reversed", "mixed"])
    def test_documents_back_to_back_are_their_rows(self, order):
        ids = np.array([i for k in order for i in _ROWS[k][0]], dtype=np.int32)
        lengths = np.array([len(_ROWS[k][0]) for k in order], dtype=np.int32)
        assert pad_rows(ids, lengths, 4).tolist() == [_ROWS[k][1] for k in order]

    def test_holds_only_its_output(self):
        # preprocess's shape: some documents are cut, some padded, some empty
        rng = np.random.default_rng(0)
        lengths = rng.integers(0, 301, 4000).tolist()
        ids = rng.integers(2, 10000, sum(lengths)).astype(np.int32)
        tracemalloc.start()
        try:
            out = pad_rows(ids, lengths, 250)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * out.nbytes


class TestVocabularyPersistence:
    def test_serialize_round_trip(self):
        vocab = build_vocabulary(Counter(["a", "b", "a"]), small_cfg())
        again = Vocabulary.from_text(vocab.serialize())
        assert again.index_to_token == vocab.index_to_token
        assert again.frequencies == vocab.frequencies
        assert again.sha256() == vocab.sha256()

    def test_save_load(self, tmp_path):
        vocab = build_vocabulary(Counter(["a", "b"]), small_cfg())
        p = tmp_path / "vocab.tsv"
        vocab.save(p)
        assert Vocabulary.load(p).sha256() == vocab.sha256()

    def test_bad_field_count(self):
        with pytest.raises(DataError, match="line 1"):
            Vocabulary.from_text("0\t<PAD>\n")

    def test_non_dense_index(self):
        text = "0\t<PAD>\t0\n2\t<UNK>\t0\n"
        with pytest.raises(DataError, match="dense"):
            Vocabulary.from_text(text)

    def test_pad_and_oov_alone_rejected(self):
        with pytest.raises(DataError, match="at least one token, got 2 entries"):
            Vocabulary.from_text("0\t<PAD>\t0\n1\t<UNK>\t0\n")

    def test_non_integer_fields(self):
        with pytest.raises(DataError):
            Vocabulary.from_text("zero\t<PAD>\t0\n")

    @pytest.mark.parametrize("text,message", [
        ("0\tfill\t9\n1\t<PAD>\t0\n2\t<UNK>\t0\n", "line 1: entry 0 must be '<PAD>', got 'fill'"),
        ("0\t<PAD>\t0\n1\tfill\t9\n2\t<UNK>\t0\n", "line 2: entry 1 must be '<UNK>', got 'fill'"),
    ], ids=["pad", "oov"])
    def test_reserved_entries_lead(self, text, message):
        with pytest.raises(DataError, match=message):
            Vocabulary.from_text(text)

    @pytest.mark.parametrize("token,first", [("a", 3), ("<PAD>", 1), ("<UNK>", 2)])
    def test_repeated_token_rejected(self, token, first):
        text = f"0\t<PAD>\t0\n1\t<UNK>\t0\n2\ta\t5\n3\t{token}\t1\n"
        with pytest.raises(DataError, match=f"line 4: token '{token}' repeats line {first}"):
            Vocabulary.from_text(text)

    @pytest.mark.parametrize("token", ["Fill0001", "fill-0001", "caf\u00e9", "\u00b2", "a b",
                                       "<UNK2>", ""])
    def test_token_clean_cannot_produce_rejected(self, token):
        # such a row is unreachable: every occurrence in a text encodes as OOV
        text = f"0\t<PAD>\t0\n1\t<UNK>\t0\n2\ta\t5\n3\t{token}\t1\n"
        with pytest.raises(DataError, match=f"line 4: token '{token}' is not lowercase ASCII"):
            Vocabulary.from_text(text)

    def test_every_token_clean_produces_is_accepted(self):
        raw = "Caf\u00e9 NO.1, x\u00b2 -- Fill-0001 \u0130stanbul 42"
        vocab = build_vocabulary(Counter(clean(raw, small_cfg())), small_cfg())
        assert Vocabulary.from_text(vocab.serialize()).index_to_token == vocab.index_to_token


def test_load_stopwords(tmp_path):
    p = tmp_path / "stop.txt"
    p.write_text("the\n\na\n  \nan\n", encoding="utf-8")
    assert load_stopwords(p) == frozenset({"the", "a", "an"})


@pytest.mark.parametrize("word", ["The", "don't", "caf\u00e9", "a b"])
def test_stopword_that_cleaning_cannot_produce_is_refused(tmp_path, word):
    p = tmp_path / "stop.txt"
    p.write_text(f"the\n{word}\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{p} line 2: stopword {word!r} is not "
                                                  "lowercase ASCII letters and digits")):
        load_stopwords(p)


def test_stopwords_file_may_start_with_a_bom(tmp_path):
    p = tmp_path / "stop.txt"
    p.write_text("the\nand\n", encoding="utf-8-sig")
    assert load_stopwords(p) == frozenset({"the", "and"})


def test_vocabulary_file_may_start_with_a_bom(tmp_path):
    vocab = build_vocabulary(Counter(["b", "a", "b"]), small_cfg())
    p = tmp_path / "vocab.tsv"
    p.write_text(vocab.serialize(), encoding="utf-8-sig")
    assert Vocabulary.load(p).serialize() == vocab.serialize()


def test_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(vocab_size=2)
    with pytest.raises(ConfigError):
        PipelineConfig(max_len=0)


@pytest.mark.parametrize("key,value", [
    ("max_len", 70.0), ("max_len", True), ("vocab_size", 50.0), ("vocab_size", True),
    ("stopwords", "the"), ("stopwords", ["the", 3]),
], ids=["max_len-float", "max_len-bool", "vocab_size-float", "vocab_size-bool",
        "stopwords-string", "stopwords-int"])
def test_config_refuses_a_value_of_the_wrong_type(key, value):
    what = "an integer" if key != "stopwords" else "a list of strings"
    message = re.escape(f"{key} must be {what}, got {value!r}")
    with pytest.raises(ConfigError, match=message):
        PipelineConfig(**{key: value})
    # a copy is checked as it is made
    with pytest.raises(ConfigError, match=message):
        replace(small_cfg(), **{key: value})


def test_config_stores_stopwords_as_a_frozenset():
    cfg = small_cfg(stopwords=["the", "a", "the"])
    assert cfg.stopwords == frozenset({"the", "a"}) and type(cfg.stopwords) is frozenset
    assert cfg == small_cfg(stopwords=("a", "the"))


def test_config_dict_round_trip():
    cfg = PipelineConfig(vocab_size=9, max_len=4, stopwords=frozenset({"x"}))
    again = PipelineConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_records_the_fixed_cleaning_values():
    assert [f.name for f in fields(PipelineConfig)] == ["vocab_size", "max_len", "stopwords"]
    d = PipelineConfig().to_dict()
    assert {k: d[k] for k in ("lowercase", "strip_nonalpha", "oov_token", "pad_token")} == {
        "lowercase": True, "strip_nonalpha": True, "oov_token": "<UNK>", "pad_token": "<PAD>"}


@pytest.mark.parametrize("key,value", [("lowercase", False), ("strip_nonalpha", 1),
                                       ("oov_token", "<OOV>"), ("pad_token", "")])
def test_config_rejects_other_cleaning_values(key, value):
    d = PipelineConfig().to_dict()
    d[key] = value
    with pytest.raises(ValueError, match=f"{key} must be"):
        PipelineConfig.from_dict(d)


def test_make_document_records_original_length(tmp_path):
    # an encoded dataset keeps each document's token count before truncation
    p = tmp_path / "toy.csv"
    p.write_text("text,label\nz,neg\na b c d,pos\n", encoding="utf-8")
    ds, _ = load_csv_dataset(p, "text", "label", small_cfg(vocab_size=10, max_len=3))
    assert ds.lengths.tolist() == [1, 4]
    assert ds.indices.shape == (2, 3) and ds.indices.dtype == np.int32
    assert ds.labels.tolist() == [0, 1]
