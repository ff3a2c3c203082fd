"""Token-index to dense-vector mapping.

The table is a (vocab_size x dim) float64 matrix; looking an index up is
row selection, which is mathematically the one-hot-times-matrix product.
Row 0 belongs to the pad token: it is held at zero and never receives
gradient, so padding cannot inject signal into the recurrent stack.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DataError
from .pipeline import PAD_INDEX, Vocabulary, read_lines


def init_table(vocab_size: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """A (vocab_size, dim) table of random rows in U(0,1)/dim, pad row zeroed.

    The plain U(0,1) draw keeps entries slightly above zero; the 1/dim
    scale keeps summed activations out of tanh saturation at realistic
    dims.
    """
    table = rng.uniform(0.0, 1.0, size=(vocab_size, dim)) / dim
    table[PAD_INDEX] = 0.0
    return table


def embedding_dim_heuristic(vocab_size: int) -> int:
    """Fourth root of the vocabulary size, rounded, at least 1."""
    if vocab_size < 1:
        raise ConfigError(f"vocab_size must be >= 1, got {vocab_size}")
    return max(1, round(vocab_size ** 0.25))


def check_indices(indices, vocab_size: int) -> np.ndarray:
    """``indices`` as an array; an index outside a table of ``vocab_size``
    rows raises IndexError naming the first one in row-major order and
    its position."""
    idx = np.asarray(indices)
    bad = (idx < 0) | (idx >= vocab_size)
    if bad.any():
        pos = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), idx.shape))
        pos = pos[0] if len(pos) == 1 else pos
        raise IndexError(
            f"embedding index {int(idx[pos])} at position {pos} out of range [0, {vocab_size})"
        )
    return idx


def lookup_grad(indices: np.ndarray, grad_rows: np.ndarray, vocab_size: int) -> np.ndarray:
    """The gradient of the table from the gradients of the looked-up rows.

    ``grad_rows`` is shaped like ``table[indices]``. Row i of the
    result sums the gradients of every occurrence of index i, in the
    row-major order of ``indices``; the pad row gets none. Each column
    is one weighted ``bincount`` over the flat indices, which adds a
    bin's weights in that same order, as ``np.add.at`` into a zero table
    does, so the sums are bitwise equal. Working a column at a time, it
    makes no scratch array of the batch's (..., dim) size.
    """
    dim = grad_rows.shape[-1]
    flat_idx = np.asarray(indices, dtype=np.intp).reshape(-1)
    out = np.empty((vocab_size, dim))
    for d in range(dim):
        out[:, d] = np.bincount(flat_idx, weights=grad_rows[..., d].reshape(-1),
                                minlength=vocab_size)
    out[PAD_INDEX] = 0.0
    return out


def load_pretrained(path, vocab: Vocabulary, dim: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Build an embedding table and copy in matching pretrained rows.

    The file holds space-separated "token v1 ... v_dim" lines; an
    optional leading "count dim" header is detected and skipped. Tokens
    absent from the vocabulary are ignored; vocabulary tokens absent
    from the file keep their random initialization. A value that is not a
    finite number is a DataError naming the line. Returns the table and
    the number of matched tokens.
    """
    table = init_table(vocab.size, dim, rng)
    matched = 0
    for n, line in enumerate(read_lines(path), start=1):
        parts = line.rstrip("\n").split(" ")
        parts = [p for p in parts if p]
        if not parts:
            continue
        if n == 1 and len(parts) == 2:
            try:
                file_dim = int(parts[1])
                int(parts[0])
            except ValueError:
                pass
            else:
                if file_dim != dim:
                    raise ConfigError(
                        f"pretrained vectors are {file_dim}-dimensional, expected {dim}"
                    )
                continue
        if len(parts) != dim + 1:
            raise DataError(
                f"pretrained vectors line {n}: expected token + {dim} values, got {len(parts)} fields"
            )
        token = parts[0]
        try:
            values = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise DataError(f"pretrained vectors line {n}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise DataError(f"pretrained vectors line {n}: {token!r} has a value that is "
                            "not a finite number")
        idx = vocab.token_to_index.get(token)
        if idx is not None and idx != PAD_INDEX:
            table[idx] = values
            matched += 1
    return table, matched
