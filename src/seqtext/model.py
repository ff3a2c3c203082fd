"""Embedding -> recurrent cell -> dense relu layer -> classification head.

The class count picks the head: 2 classes end in a single sigmoid unit
trained with binary cross-entropy, C >= 3 in a C-way softmax trained
with categorical cross-entropy on integer class targets. Both heads
share the fused gradient at the logits: probabilities minus targets.

A :class:`ClassifierModel` is its blocks: the rows of ``head.W`` fix the
head and the class count (1 row: 2 classes; R >= 3 rows: R), construction
checks the whole shape chain, and only ``state_blocks`` and its inverse
``from_blocks`` name the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import cells
from .cells import sigmoid
from .embedding import check_indices, lookup_grad
from .errors import ConfigError, DivergenceError, ShapeError

PROB_FLOOR = 1e-12
# Time steps per input projection when forward runs without a trace. It
# bounds the projection buffer and the gathered embedding rows at
# (INFERENCE_CHUNK, batch, width) instead of the whole document's.
INFERENCE_CHUNK = 32

def _centered_init(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (2.0 * rng.random((rows, cols)) - 1.0) / np.sqrt(cols)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax (max-shifted before exponentiation)."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def bce_loss(y_hat, y) -> np.ndarray:
    """-y log(a) - (1-y) log(1-a), elementwise over examples.

    Each log argument is floored at 1e-12, so a perfect prediction gives
    exactly zero.
    """
    a = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not np.isin(y, (0.0, 1.0)).all():
        raise ConfigError("bce targets must be 0 or 1")
    return -(y * np.log(np.maximum(a, PROB_FLOOR))
             + (1.0 - y) * np.log(np.maximum(1.0 - a, PROB_FLOOR)))


def cce_loss(probs: np.ndarray, y) -> np.ndarray:
    """-log of the true-class probability for each row of the (batch, C)
    ``probs``, given (batch,) integer class indices ``y``."""
    p = np.asarray(probs, dtype=np.float64)
    idx = np.asarray(y).astype(int)
    if (idx < 0).any() or (idx >= p.shape[-1]).any():
        raise ConfigError(f"class index out of range [0, {p.shape[-1]})")
    picked = p[np.arange(p.shape[0]), idx]
    return -np.log(np.maximum(picked, PROB_FLOOR))


class ModelTrace(NamedTuple):
    indices: np.ndarray        # (batch, T) int
    cell_cache: cells.SequenceCache
    h_final: np.ndarray        # (batch, hidden)
    dense_pre: np.ndarray      # (batch, dense)
    dense_out: np.ndarray      # (batch, dense)
    probs: np.ndarray          # (batch,) sigmoid or (batch, C) softmax


@dataclass
class ClassifierModel:
    embedding: np.ndarray      # (vocab, dim)
    cell: cells.Cell
    dense_W: np.ndarray        # (dense, hidden)
    dense_b: np.ndarray        # (dense,)
    head_W: np.ndarray         # (rows, dense)
    head_b: np.ndarray         # (rows,)
    vocab_sha: Optional[str] = None

    def __post_init__(self):
        E, D, H = self.embedding, self.cell.input_size, self.cell.hidden_size
        W1, b1, W2, b2 = self.dense_W, self.dense_b, self.head_W, self.head_b
        if not (E.ndim == 2 and E.shape[1] == D and W1.ndim == 2 and W1.shape[1] == H
                and b1.shape == W1.shape[:1] and W2.ndim == 2 and W2.shape[0] not in (0, 2)
                and W2.shape[1:] == W1.shape[:1] and b2.shape == W2.shape[:1]):
            raise ShapeError(
                f"embedding {E.shape}, dense.W {W1.shape}, dense.b {b1.shape}, head.W "
                f"{W2.shape} and head.b {b2.shape} do not chain with a cell of input size {D} "
                f"and hidden size {H}: expected (V, {D}), (S, {H}), (S,), (R, S) and (R,), "
                "R = 1 for 2 classes or R >= 3")

    @property
    def head(self) -> str:
        """The head kind: sigmoid for one head row, softmax for more."""
        return "sigmoid" if self.head_W.shape[0] == 1 else "softmax"

    @property
    def n_classes(self) -> int:
        return max(2, self.head_W.shape[0])

    @classmethod
    def build(cls, embedding: np.ndarray, cell: cells.Cell, dense_size: int,
              n_classes: int, rng: np.random.Generator,
              vocab_sha: Optional[str] = None) -> "ClassifierModel":
        """Initialize the dense and head weights over ``embedding`` and ``cell``:
        a sigmoid head for 2 classes, a softmax head for more."""
        if n_classes < 2:
            raise ConfigError(f"a classifier needs at least 2 classes, got {n_classes}")
        out = 1 if n_classes == 2 else n_classes
        # The dense and head layers use a zero-centered draw: recurrent
        # activations are all positive under the positive cell init, so a
        # positive-only readout would start rank-1 with logits far from 0.
        dense_W = _centered_init(rng, dense_size, cell.hidden_size)
        dense_b = np.zeros(dense_size)
        head_W = _centered_init(rng, out, dense_size)
        head_b = np.zeros(out)
        return cls(embedding=embedding, cell=cell, dense_W=dense_W, dense_b=dense_b,
                   head_W=head_W, head_b=head_b, vocab_sha=vocab_sha)

    @classmethod
    def from_blocks(cls, blocks: dict[str, np.ndarray], cell_kind: str, literal_mode: bool,
                    vocab_sha: Optional[str] = None) -> "ClassifierModel":
        """The inverse of :meth:`state_blocks`; a missing or unexpected block is a ShapeError."""
        cell = cells.Cell(kind=cell_kind, literal_mode=literal_mode,
                          **{n[5:]: a for n, a in blocks.items() if n.startswith("cell.")})
        try:
            model = cls(embedding=blocks["embedding.weights"], cell=cell,
                        dense_W=blocks["dense.W"], dense_b=blocks["dense.b"],
                        head_W=blocks["head.W"], head_b=blocks["head.b"], vocab_sha=vocab_sha)
        except KeyError as e:
            raise ShapeError(f"parameter block {e} is missing") from None
        unexpected = set(blocks) - {n for n, _ in model.state_blocks()}
        if unexpected:
            raise ShapeError(f"unexpected parameter blocks {sorted(unexpected)}")
        return model

    def state_blocks(self) -> list[tuple[str, np.ndarray]]:
        """Every parameter array, trained or pinned, for checkpointing."""
        out = [("embedding.weights", self.embedding)]
        out += [(f"cell.{n}", a) for n, a in self.cell.state_blocks()]
        out += [("dense.W", self.dense_W), ("dense.b", self.dense_b),
                ("head.W", self.head_W), ("head.b", self.head_b)]
        return out

    def named_params(self) -> dict[str, np.ndarray]:
        """The trained blocks: :meth:`state_blocks` but the cell's pinned ones."""
        trained = {f"cell.{n}" for n, _ in self.cell.named_params()}
        return {n: a for n, a in self.state_blocks() if n in trained or not n.startswith("cell.")}


def forward(model: ClassifierModel, indices,
            trace: bool = True) -> tuple[np.ndarray, Optional[ModelTrace]]:
    """Probabilities for a document batch.

    ``indices`` is (batch, T) or a single (T,) row. Sigmoid heads return
    (batch,) positive-class probabilities; softmax heads (batch, C) rows
    summing to 1. An index outside the embedding table raises IndexError,
    and a probability that is not a number raises DivergenceError.
    With ``trace`` the second value is the :class:`ModelTrace` for
    :func:`backward`. Without, it is None: the recurrence keeps no
    history and walks the document in chunks of ``INFERENCE_CHUNK``
    steps, and the probabilities are bitwise those of the traced pass.
    """
    idx = np.asarray(indices)
    single = idx.ndim == 1
    idx = np.atleast_2d(idx)
    if idx.shape[1] == 0:
        raise ShapeError("cannot classify an empty index sequence")
    check_indices(idx, model.embedding.shape[0])
    if trace:
        xs = np.swapaxes(model.embedding[idx], 0, 1)   # (T, B, D)
        h, cache = cells.run_sequence(xs, model.cell)
    else:
        state = None
        for t0 in range(0, idx.shape[1], INFERENCE_CHUNK):
            xs = np.swapaxes(model.embedding[idx[:, t0:t0 + INFERENCE_CHUNK]], 0, 1)
            state = cells.run_sequence(xs, model.cell, state, history=False)
        h = state.h
    dense_pre = h @ model.dense_W.T + model.dense_b
    dense_out = np.maximum(dense_pre, 0.0)
    logits = dense_out @ model.head_W.T + model.head_b
    if model.head == "sigmoid":
        probs = sigmoid(logits[:, 0])
    else:
        probs = softmax(logits)
    if not np.isfinite(probs).all():
        raise DivergenceError("the model yields a probability that is not a number")
    tr = ModelTrace(indices=idx, cell_cache=cache, h_final=h, dense_pre=dense_pre,
                    dense_out=dense_out, probs=probs) if trace else None
    return (probs[0] if single else probs), tr


def loss_values(model: ClassifierModel, probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-example losses for this model's head."""
    if model.head == "sigmoid":
        return bce_loss(probs, y)
    return cce_loss(probs, y)


def backward(model: ClassifierModel, trace: ModelTrace, y: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the mean loss over the traced batch.

    Uses the fused head gradient (probabilities minus targets) at the
    logits, then walks the dense layer, the cell (through time) and the
    embedding rows. The pad embedding row's gradient is forced to zero.
    The cell part of the trace is overwritten, so a trace serves one
    backward pass.
    """
    B = trace.indices.shape[0]
    w = 1.0 / B
    if model.head == "sigmoid":
        target = y.astype(np.float64)
        dlogits = ((trace.probs - target) * w)[:, None]          # (B, 1)
    else:
        target = np.zeros_like(trace.probs)
        target[np.arange(B), y.astype(int)] = 1.0
        dlogits = (trace.probs - target) * w                      # (B, C)

    grads: dict[str, np.ndarray] = {}
    grads["head.W"] = dlogits.T @ trace.dense_out
    grads["head.b"] = dlogits.sum(axis=0)
    ddense = dlogits @ model.head_W
    dpre = ddense * (trace.dense_pre > 0)
    grads["dense.W"] = dpre.T @ trace.h_final
    grads["dense.b"] = dpre.sum(axis=0)
    dh = dpre @ model.dense_W

    cell_grads, dxs = cells.backward_sequence(trace.cell_cache, dh, model.cell)
    for name, g in cell_grads.items():
        grads[f"cell.{name}"] = g

    grads["embedding.weights"] = lookup_grad(trace.indices, np.swapaxes(dxs, 0, 1),
                                             model.embedding.shape[0])
    return grads


def predict_classes(model: ClassifierModel, probs: np.ndarray) -> np.ndarray:
    """Class indices for a batch of :func:`forward` probabilities: argmax
    for softmax heads, the 0.5 threshold for sigmoid heads (ties go to
    class 1)."""
    if model.head == "sigmoid":
        return (probs >= 0.5).astype(np.int64)
    return np.argmax(probs, axis=-1)
