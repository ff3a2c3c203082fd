"""Metamorphic invariances of the forward and backward passes.

Each test changes a batch or the model in a way that must not change
what the model computes, for all three cells and both heads: it permutes
the rows, splits the batch in two, renumbers the vocabulary together
with the embedding rows, scores the rows in smaller batches, or permutes
a softmax head's rows. A change that only moves independent work must
give bitwise-equal results. One that reorders a sum over the batch must
agree within ``BOUND`` of each gradient block's largest entry. Scoring
in batches of another size and permuting the softmax rows leave a
probability's last ulp free, so they must agree within ``PROB_BOUND``.

Not covered: a longer pad prefix changes the rnn's result, because its
state moves over pad steps. The tests take about 5 s on a 2-core
machine.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from seqtext.engine import ExperimentConfig, build_model
from seqtext.model import backward, forward

from helpers import make_synthetic_corpus

# The worst cases measured over these cases are 2.5e-14 of a block's
# largest entry for a permuted batch and 1.0e-14 for a split one, both
# on the binary rnn.
BOUND = 1e-13

# The worst absolute differences measured are 1.1e-16 for a permuted
# softmax head, whose probabilities were bitwise equal in 12 of its 60
# traced and untraced comparisons, and 1.1e-16 for rows scored in
# batches of 1 to 32, over seeds 0-4 for each cell and 2, 3 or 5 classes.
PROB_BOUND = 1e-15


def _cases(class_counts):
    """Each cell with each class count and seeds 0-4."""
    return [pytest.param(cell, n_classes, seed, id=f"{cell}-{n_classes}-classes-seed{seed}")
            for cell in ("rnn", "lstm", "gru") for n_classes in class_counts
            for seed in range(5)]


# In rnn-2-classes-seed2 every dense unit starts negative on all 64
# documents, so each gradient of its balanced batch is exactly zero and
# the gradient comparisons of that case hold trivially.
CASES = _cases((2, 3))
SOFTMAX_CASES = _cases((3, 5))


@lru_cache(maxsize=None)
def _corpus(n_classes, seed):
    """The first 32 documents of a seeded corpus, and its vocabulary; the
    tests only read them."""
    ds, vocab, _ = make_synthetic_corpus(64, n_classes, seed=seed)
    return vocab, ds.indices[:32], ds.labels[:32]


def _setup(cell, n_classes, seed):
    """A model with hidden size and embedding dim 16 and dense size 8, and
    a 32-document batch of its corpus."""
    vocab, X, y = _corpus(n_classes, seed)
    cfg = ExperimentConfig(cell=cell, embedding_dim=16, hidden_size=16, dense_size=8,
                           seed=seed)
    return build_model(cfg, n_classes, vocab), X, y


def _grads(model, X, y):
    probs, trace = forward(model, X)
    return probs, backward(model, trace, y)


def _assert_close(got, want):
    for name, g in want.items():
        assert np.abs(got[name] - g).max() <= BOUND * np.abs(g).max(), name


@pytest.mark.parametrize("cell,n_classes,seed", CASES)
def test_row_permutation_permutes_the_results(cell, n_classes, seed):
    model, X, y = _setup(cell, n_classes, seed)
    perm = np.random.default_rng(seed).permutation(len(X))
    probs, grads = _grads(model, X, y)
    probs_p, grads_p = _grads(model, X[perm], y[perm])
    assert probs_p.tobytes() == probs[perm].tobytes()
    untraced = forward(model, X, trace=False)[0]
    assert forward(model, X[perm], trace=False)[0].tobytes() == untraced[perm].tobytes()
    _assert_close(grads_p, grads)


@pytest.mark.parametrize("cell,n_classes,seed", CASES)
def test_gradient_is_the_mean_of_its_halves(cell, n_classes, seed):
    model, X, y = _setup(cell, n_classes, seed)
    _, grads = _grads(model, X, y)
    _, first = _grads(model, X[:16], y[:16])
    _, second = _grads(model, X[16:], y[16:])
    _assert_close({name: (first[name] + second[name]) / 2 for name in grads}, grads)


@pytest.mark.parametrize("cell,n_classes,seed", CASES)
def test_relabelled_vocabulary_gives_the_same_model(cell, n_classes, seed):
    model, X, y = _setup(cell, n_classes, seed)
    V = model.embedding.shape[0]
    # new id of each old id: pad and OOV keep theirs, the tokens are shuffled
    new_id = np.concatenate([[0, 1], 2 + np.random.default_rng(seed).permutation(V - 2)])
    table = np.empty_like(model.embedding)
    table[new_id] = model.embedding
    probs, grads = _grads(model, X, y)
    probs_r, grads_r = _grads(replace(model, embedding=table), new_id[X], y)
    assert probs_r.tobytes() == probs.tobytes()
    grads["embedding.weights"][new_id] = grads["embedding.weights"].copy()
    for name, g in grads.items():
        assert grads_r[name].tobytes() == g.tobytes(), name


@pytest.mark.parametrize("cell,n_classes,seed", SOFTMAX_CASES)
def test_permuted_softmax_rows_permute_the_probabilities(cell, n_classes, seed):
    model, X, _ = _setup(cell, n_classes, seed)
    perm = np.random.default_rng(seed).permutation(n_classes)
    permuted = replace(model, head_W=model.head_W[perm], head_b=model.head_b[perm])
    for trace in (True, False):
        want = forward(model, X, trace=trace)[0][:, perm]
        assert np.abs(forward(permuted, X, trace=trace)[0] - want).max() <= PROB_BOUND


@pytest.mark.parametrize("cell", ["rnn", "lstm", "gru"])
@pytest.mark.parametrize("n_classes", [2, 3, 5])
def test_batch_size_leaves_each_row_unchanged(cell, n_classes):
    model, X, _ = _setup(cell, n_classes, 0)
    whole = forward(model, X, trace=False)[0]
    for size in range(1, len(X) + 1):
        parts = [forward(model, X[b0:b0 + size], trace=False)[0]
                 for b0 in range(0, len(X), size)]
        assert np.abs(np.concatenate(parts) - whole).max() <= PROB_BOUND, size
