"""Committed format-4 files still read as they did when they were written.

``tests/fixtures/format4`` holds a binary dataset file, one checkpoint per
cell trained on it, one checkpoint whose config an older writer stored
as given, and a 3-class dataset with a softmax-head checkpoint; see
``tests/fixtures/write_format4.py``. The expected predictions are checked
exactly as classes and at 1e-9 as probabilities, so they do not depend
on the BLAS kernel that scores them.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from seqtext.artifacts import read_container
from seqtext.embedding import embedding_dim_heuristic
from seqtext.engine import load_checkpoint, load_dataset
from seqtext.model import forward, predict_classes

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "format4"
EXPECTED = json.loads((FIXTURES / "expected.json").read_text(encoding="utf-8"))


def test_the_dataset_file_reads_as_written():
    for name, want in EXPECTED["datasets"].items():
        ds, vocab, pipe = load_dataset(FIXTURES / name)
        assert ds.class_names == want["class_names"]
        assert vocab.sha256() == ds.vocab_sha == want["vocab_sha"]
        assert pipe.max_len == ds.indices.shape[1] == want["max_len"]
        assert ds.labels.tolist() == want["labels"]
        assert ds.lengths.tolist() == want["lengths"]
        assert ds.train_idx.tolist() == want["train_idx"]
        assert ds.test_idx.tolist() == want["test_idx"]


@pytest.mark.parametrize("name", sorted(EXPECTED["models"]))
def test_each_checkpoint_predicts_as_it_did(name):
    want = EXPECTED["models"][name]
    ds, vocab, _ = load_dataset(FIXTURES / want["dataset"])
    ckpt = load_checkpoint(FIXTURES / f"{name}.sqt")
    assert ckpt.config.to_dict() == want["config"]
    assert ckpt.vocab.sha256() == vocab.sha256()
    probs = forward(ckpt.model, ds.indices, trace=False)[0]
    assert predict_classes(ckpt.model, probs).tolist() == want["classes"]
    np.testing.assert_allclose(probs, want["probabilities"], rtol=0, atol=1e-9)


def test_the_softmax_fixture_has_a_softmax_head():
    ckpt = load_checkpoint(FIXTURES / "gru-tri.sqt")
    assert ckpt.model.head == "softmax"
    assert ckpt.class_names == EXPECTED["datasets"]["tri.sqt"]["class_names"]
    assert sorted(set(EXPECTED["models"]["gru-tri"]["classes"])) == [0, 1, 2]


def test_a_config_stored_as_given_loads_resolved():
    path = FIXTURES / "gru-auto.sqt"
    stored = read_container(path)[0]["config"]
    assert (stored["learning_rate"], stored["embedding_dim"]) == (None, "auto")
    ckpt = load_checkpoint(path)
    assert ckpt.config.learning_rate == 0.001
    assert ckpt.config.embedding_dim == embedding_dim_heuristic(ckpt.vocab.size)
