"""Shared numerical-testing utilities.

The central-difference gradient checker perturbs every entry of a
parameter array in place, so callers hand in a closure that recomputes
the scalar loss from current parameter values.
"""

import json
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np

from seqtext.artifacts import read_container, write_container
from seqtext.cells import GATES, Cell, CellState, SequenceCache, backward_sequence, run_sequence
from seqtext.engine import build_model, load_csv_dataset, make_synthetic_csv, train_epochs
from seqtext.errors import ConfigError, ShapeError
from seqtext.metrics import EvalReport
from seqtext.optim import ADAM_BETA1, ADAM_BETA2, EPS, RMSPROP_RHO
from seqtext.pipeline import PipelineConfig


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-based relative disagreement between two gradient blocks.

    Uses max(|a|, |b|) in the denominator so a zero analytic gradient
    against a zero numerical gradient compares as 0, not NaN.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a.ravel()), np.linalg.norm(b.ravel()), 1e-12)
    return float(np.linalg.norm((a - b).ravel()) / denom)


def cost(losses) -> float:
    """Mean per-example loss over a batch: the scalar that the gradient
    checks differentiate."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        raise ConfigError("cost over an empty batch is undefined")
    return float(np.mean(losses))


def fd_gradient(loss_fn, arr: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of loss_fn with respect to arr.

    arr is mutated entry by entry and restored; loss_fn takes no
    arguments and must read arr by reference.
    """
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + eps
        above = loss_fn()
        flat[k] = orig - eps
        below = loss_fn()
        flat[k] = orig
        gflat[k] = (above - below) / (2.0 * eps)
    return grad


def gate_errors(analytic: np.ndarray, numeric: np.ndarray, hidden: int) -> list:
    """rel_error of each ``hidden``-row gate slice of a stacked block, so a
    large gate cannot hide the error of a small one in a shared norm."""
    n = analytic.shape[0] // hidden
    return [rel_error(a, b) for a, b in zip(np.split(analytic, n), np.split(numeric, n))]


def _complex_mean_loss(model, blocks: dict, idx: np.ndarray, y: np.ndarray):
    """The mean loss of ``model.forward`` on the (batch, T) ``idx``, with
    every block taken from ``blocks`` and written with functions that
    are analytic in each weight, so complex blocks carry a derivative in
    the imaginary part. ReLU and the softmax shift read the real part."""
    cell = model.cell
    H, kind = cell.hidden_size, cell.kind
    W, U, b, V = (blocks.get(f"cell.{n}") for n in "WUbV")
    xs = blocks["embedding.weights"][idx]
    B, T = idx.shape

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    h = np.zeros((B, H), dtype=complex)
    c = np.zeros((B, H), dtype=complex)
    for t in range(T):
        a = xs[:, t] @ W.T + b
        if kind == "gru":
            zr = sig(a[:, :2 * H] + h @ U[:2 * H].T)
            z, r = zr[:, :H], zr[:, H:]
            cand = np.tanh(a[:, 2 * H:] + (r * h) @ U[2 * H:].T)
            h = (1.0 - z) * h + z * cand
        elif kind == "lstm":
            a = a + h @ U.T
            ifg = a[:, :2 * H] + (c @ V[:2 * H].T if V is not None else 0.0)
            i, f = sig(ifg[:, :H]), sig(ifg[:, H:])
            c = f * c + i * np.tanh(a[:, 3 * H:])
            o = sig(a[:, 2 * H:3 * H] + (c @ V[2 * H:].T if V is not None else 0.0))
            h = o * np.tanh(c)
        else:
            a = a + h @ U.T
            h = np.tanh(a) if cell.nonlinearity == "tanh" else sig(a)
    pre = h @ blocks["dense.W"].T + blocks["dense.b"]
    logits = np.where(pre.real > 0, pre, 0.0) @ blocks["head.W"].T + blocks["head.b"]
    if model.head == "sigmoid":
        z = logits[:, 0]
        losses = y * np.log(1.0 + np.exp(-z)) + (1.0 - y) * np.log(1.0 + np.exp(z))
    else:
        shift = logits - logits.real.max(axis=1, keepdims=True)
        losses = np.log(np.exp(shift).sum(axis=1)) - shift[np.arange(B), y]
    return losses.mean()


def complex_step_gradients(model, idx: np.ndarray, y: np.ndarray,
                           step: float = 1e-30) -> dict:
    """The gradient of the mean loss in every trained block of ``model``,
    one entry at a time as Im f(w + i*step) / step. No difference of two
    losses is taken, so nothing cancels: the result is the derivative to
    within rounding of the loss itself, about 1e-16 relative, which lets
    a check hold ``model.backward`` to a bound far tighter than finite
    differences can. The pad embedding row gets its true gradient here,
    though ``backward`` zeroes it."""
    blocks = {n: a.astype(complex) for n, a in model.state_blocks()}
    grads = {}
    for name in model.named_params():
        flat = blocks[name].reshape(-1)
        g = np.empty(flat.size)
        for k in range(flat.size):
            flat[k] += 1j * step
            g[k] = _complex_mean_loss(model, blocks, idx, y).imag / step
            flat[k] = flat[k].real
        grads[name] = g.reshape(blocks[name].shape)
    return grads


def make_synthetic_corpus(n_docs: int, n_classes: int, seed: int, *,
                          tokens_per_class: int = 20, filler_tokens: int = 40,
                          signal_rate: float = 0.35, noise_rate: float = 0.0,
                          min_len: int = 10, max_len: int = 40, pad_len=None,
                          zipf_filler: bool = False):
    """A seeded separable corpus, encoded the way ``preprocess`` encodes
    it: ``make_synthetic_csv`` writes the raw text to a temporary file and
    ``load_csv_dataset`` reads it back under a vocabulary cap that keeps
    every token. Returns the dataset (without a split), its vocabulary
    and its pipeline config."""
    cfg = PipelineConfig(vocab_size=2 + n_classes * tokens_per_class + filler_tokens,
                         max_len=pad_len or max_len)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.csv"
        make_synthetic_csv(path, n_docs, n_classes, seed, tokens_per_class=tokens_per_class,
                           filler_tokens=filler_tokens, signal_rate=signal_rate,
                           noise_rate=noise_rate, min_len=min_len, max_len=max_len,
                           zipf_filler=zipf_filler)
        ds, vocab = load_csv_dataset(path, "text", "label", cfg)
    return ds, vocab, cfg


def train_until(cfg, dataset, vocab, stop):
    """``train`` ended after the first epoch for which ``stop(model,
    point)`` holds; returns the model and the curve up to that epoch."""
    model = build_model(cfg, dataset.n_classes, vocab)
    curve = []
    for point in train_epochs(model, cfg, dataset):
        curve.append(point)
        if stop(model, point):
            break
    return model, curve


def rewrite_artifact(src, dst, edit_header=None, edit_arrays=None):
    """Write ``src`` to ``dst`` with its header or blocks changed in place
    by the edit functions, under a valid checksum; returns ``dst``."""
    header, arrays = read_container(src)
    del header["blocks"]
    if edit_header:
        edit_header(header)
    if edit_arrays:
        edit_arrays(arrays)
    write_container(dst, header, list(arrays.items()))
    return dst


def all_rows_on(side):
    """An edit for ``rewrite_artifact`` that moves every row of a stored
    split to ``side`` (``train_idx`` or ``test_idx``), leaving the other
    side empty."""
    other = "test_idx" if side == "train_idx" else "train_idx"
    return lambda a: a.update({side: np.sort(np.concatenate([a[side], a[other]])),
                               other: a[other][:0]})


def no_rows(arrays):
    """An edit for ``rewrite_artifact`` that cuts every block to zero rows."""
    arrays.update({name: block[:0] for name, block in arrays.items()})


def reseal(body: bytes) -> bytes:
    """A container's ``body`` (magic, header and blocks) with a valid
    length + CRC32 trailer appended, so a reader gets past the checksum."""
    return body + struct.pack("<QI", len(body), zlib.crc32(body) & 0xFFFFFFFF)


def rewrite_manifest(src, dst, edit):
    """Write ``src`` to ``dst`` with its JSON header, the block manifest
    included, changed in place by ``edit`` and the block bytes kept as
    they were, under a valid checksum; returns ``dst``."""
    body = Path(src).read_bytes()[:-12]
    (hlen,) = struct.unpack("<Q", body[6:14])
    header = json.loads(body[14:14 + hlen])
    edit(header)
    hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    Path(dst).write_bytes(reseal(body[:6] + struct.pack("<Q", len(hb)) + hb + body[14 + hlen:]))
    return dst


def zero_cell(kind: str, hidden: int, inputs: int, **settings) -> Cell:
    """A cell whose weights are all zero, but for the U = I that literal
    mode pins; an LSTM gets zero peepholes."""
    G = GATES[kind]
    U = np.eye(hidden) if settings.get("literal_mode") else np.zeros((G * hidden, hidden))
    V = np.zeros((3 * hidden, hidden)) if kind == "lstm" else None
    return Cell(kind, W=np.zeros((G * hidden, inputs)), U=U, b=np.zeros(G * hidden), V=V,
                **settings)


def _one_row(a):
    return None if a is None else np.asarray(a, dtype=np.float64)[None]


def run_document(xs, cell: Cell, state=None, history: bool = True):
    """``run_sequence`` over one (T, input) document from an (H,) state,
    as a batch of one: the batch axis is added to the inputs and the
    state and dropped from the returned state. The cache keeps it."""
    if state is not None:
        state = CellState(h=_one_row(state.h), c=_one_row(state.c))
    out = run_sequence(np.asarray(xs, dtype=np.float64)[:, None], cell, state, history)
    if not history:
        return CellState(h=out.h[0], c=None if out.c is None else out.c[0])
    h, cache = out
    return h[0], cache


def backward_document(cache, grad_h_final, cell: Cell):
    """``backward_sequence`` for a cache of ``run_document``: takes an (H,)
    final gradient and returns (T, input) input gradients."""
    grads, dxs = backward_sequence(cache, _one_row(grad_h_final), cell)
    return grads, dxs[:, 0]


def two_branch_sigmoid(x):
    """The logistic function as 1/(1+e) for x >= 0 and e/(1+e) below,
    with e = exp(-|x|): both divisions taken for every element."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def reference_run_sequence(xs, cell: Cell, state=None, history: bool = True):
    """``run_sequence`` with a fresh array per operation: the same
    operands in the same order, the same ``U.T`` and ``V[...].T`` views
    and :func:`two_branch_sigmoid`. Kept as the bitwise oracle for the
    loops that work in scratch rows and write into their slots."""
    T, B, _ = xs.shape
    H = cell.hidden_size
    lstm, gru = cell.kind == "lstm", cell.kind == "gru"
    acts = xs @ cell.W.T
    n = T + 1 if history else 2
    hs = np.empty((n, B, H))
    cs = np.empty((n, B, H)) if lstm else None
    hs[0] = 0.0 if state is None else state.h
    if lstm:
        cs[0] = 0.0 if state is None or state.c is None else state.c
    Ut, b, V = cell.U.T, cell.b, cell.V
    for t in range(T):
        a, h = acts[t], hs[t % n]
        if gru:
            zr = two_branch_sigmoid(a[:, :2 * H] + h @ Ut[:, :2 * H] + b[:2 * H])
            z, r = zr[:, :H], zr[:, H:]
            cand = np.tanh(a[:, 2 * H:] + (r * h) @ Ut[:, 2 * H:] + b[2 * H:])
            a[:, :2 * H], a[:, 2 * H:] = zr, cand
            hs[(t + 1) % n] = (1.0 - z) * h + z * cand
        elif lstm:
            c = cs[t % n]
            pre = a + h @ Ut + b
            ifg = pre[:, :2 * H] + c @ V[:2 * H].T if V is not None else pre[:, :2 * H]
            ifg = two_branch_sigmoid(ifg)
            cand = np.tanh(pre[:, 3 * H:])
            c = ifg[:, H:] * c + ifg[:, :H] * cand
            o = pre[:, 2 * H:3 * H] + c @ V[2 * H:].T if V is not None else pre[:, 2 * H:3 * H]
            o = two_branch_sigmoid(o)
            a[:, :2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:] = ifg, o, cand
            cs[(t + 1) % n] = c
            hs[(t + 1) % n] = o * np.tanh(c)
        else:
            a[...] = a + h @ Ut + b
            g = np.tanh if cell.nonlinearity == "tanh" else two_branch_sigmoid
            hs[(t + 1) % n] = g(a)
    last = T % n
    if not history:
        return CellState(h=hs[last], c=cs[last] if lstm else None)
    return hs[last].copy(), SequenceCache(xs=xs, hs=hs, acts=acts, cs=cs)


def reference_backward_sequence(cache, grad_h_final, cell: Cell):
    """``backward_sequence`` as a per-step loop that forms every gate delta
    from the activations of its own step. Kept as the oracle for the
    loop with precomputed gate factors; like it, it overwrites
    ``cache.acts``."""
    xs, hs, acts, cs = cache
    T, B, D = xs.shape
    H = cell.hidden_size
    dh = grad_h_final
    U = cell.U
    if cell.kind == "gru":
        Uzr, Uc = U[:2 * H], U[2 * H:]
        rh = acts[:, :, H:2 * H] * hs[:-1]
        for t in range(T - 1, -1, -1):
            a, h_prev = acts[t], hs[t]
            z, r, cand = a[:, :H], a[:, H:2 * H], a[:, 2 * H:]
            da_z = dh * (cand - h_prev) * z * (1.0 - z)
            da_c = dh * z * (1.0 - cand * cand)
            drh = da_c @ Uc
            da_r = drh * h_prev * r * (1.0 - r)
            dh_direct = dh * (1.0 - z) + drh * r
            a[:, :H], a[:, H:2 * H], a[:, 2 * H:] = da_z, da_r, da_c
            dh = dh_direct + a[:, :2 * H] @ Uzr
    elif cell.kind == "lstm":
        V = cell.V
        dc = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            a, tanh_c, c_prev = acts[t], np.tanh(cs[t + 1]), cs[t]
            i, f, o, cand = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
            da_o = dh * tanh_c * o * (1.0 - o)
            dc = dh * o * (1.0 - tanh_c * tanh_c) + dc
            if V is not None:
                dc = dc + da_o @ V[2 * H:]
            da_i = dc * cand * i * (1.0 - i)
            da_f = dc * c_prev * f * (1.0 - f)
            da_c = dc * i * (1.0 - cand * cand)
            dc = dc * f
            a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:] = da_i, da_f, da_o, da_c
            if V is not None:
                dc = dc + a[:, :2 * H] @ V[:2 * H]
            dh = a @ U
    else:
        tanh = cell.nonlinearity == "tanh"
        for t in range(T - 1, -1, -1):
            h = hs[t + 1]
            da = dh * (1.0 - h * h) if tanh else dh * h * (1.0 - h)
            acts[t] = da
            dh = da @ U

    DA = acts.reshape(T * B, -1)
    grads = {"W": DA.T @ xs.reshape(T * B, D)}
    if not cell.literal_mode:
        h_prev = hs[:-1].reshape(T * B, H)
        if cell.kind == "gru":
            grads["U"] = np.concatenate([DA[:, :2 * H].T @ h_prev,
                                         DA[:, 2 * H:].T @ rh.reshape(T * B, H)])
        else:
            grads["U"] = DA.T @ h_prev
        grads["b"] = DA.sum(axis=0)
    if cell.V is not None:
        grads["V"] = np.concatenate([DA[:, :2 * H].T @ cs[:-1].reshape(T * B, H),
                                     DA[:, 2 * H:3 * H].T @ cs[1:].reshape(T * B, H)])
    return grads, (DA @ cell.W).reshape(T, B, D)


class ReferenceSgd:
    """``optim.Sgd``'s update as one expression, leaving the gradient intact."""

    def __init__(self, learning_rate):
        self.learning_rate = learning_rate

    def step(self, params, grads):
        for name, p in params.items():
            p -= self.learning_rate * grads[name]


class ReferenceRmsProp:
    """``optim.RmsProp``'s update as expressions with fresh temporaries."""

    def __init__(self, learning_rate):
        self.learning_rate = learning_rate
        self.s = {}

    def step(self, params, grads):
        for name, p in params.items():
            g = grads[name]
            s = self.s.setdefault(name, np.zeros_like(p))
            s *= RMSPROP_RHO
            s += (1.0 - RMSPROP_RHO) * g * g
            p -= self.learning_rate * g / (np.sqrt(s) + EPS)


class ReferenceAdam:
    """``optim.Adam``'s update as expressions with fresh temporaries."""

    def __init__(self, learning_rate):
        self.learning_rate = learning_rate
        self.m, self.v, self.t = {}, {}, 0

    def step(self, params, grads):
        self.t += 1
        for name, p in params.items():
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            m_hat = m / (1.0 - ADAM_BETA1 ** self.t)
            v_hat = v / (1.0 - ADAM_BETA2 ** self.t)
            p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)


def one_step(x, cell: Cell, h_prev, c_prev=None):
    """Hidden state, cell state (None but for an LSTM) and the list of
    gate activations after one step of a single document from the given
    state."""
    h, cache = run_document([x], cell, CellState(h=h_prev, c=c_prev))
    c = cache.cs[1, 0] if cache.cs is not None else None
    return h, c, np.split(cache.acts[0, 0], GATES[cell.kind])


def brute_force_scores_oracle(preds, labels, n_classes: int) -> EvalReport:
    """Same report computed by direct pairwise counting, with no
    confusion-matrix intermediate. Exists to cross-check scores()."""
    preds = [int(p) for p in np.asarray(preds).tolist()]
    labels = [int(l) for l in np.asarray(labels).tolist()]
    if len(preds) != len(labels) or not preds:
        raise ShapeError("predictions and labels must be equal-length and nonempty")
    if any(v < 0 or v >= n_classes for v in preds + labels):
        raise ConfigError(f"class out of range [0, {n_classes})")
    total = len(labels)
    correct = sum(1 for p, l in zip(preds, labels) if p == l)
    precision, recall, f1, support = [], [], [], []
    zero_division = False
    for j in range(n_classes):
        tp = sum(1 for p, l in zip(preds, labels) if p == j and l == j)
        fp = sum(1 for p, l in zip(preds, labels) if p == j and l != j)
        fn = sum(1 for p, l in zip(preds, labels) if p != j and l == j)
        if tp + fp == 0:
            p_j = 0.0
            zero_division = True
        else:
            p_j = tp / (tp + fp) * 100.0
        if tp + fn == 0:
            r_j = 0.0
            zero_division = True
        else:
            r_j = tp / (tp + fn) * 100.0
        precision.append(p_j)
        recall.append(r_j)
        f1.append(0.0 if p_j + r_j == 0.0 else 2.0 * p_j * r_j / (p_j + r_j))
        support.append(tp + fn)
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    for p, l in zip(preds, labels):
        cm[l, p] += 1
    wp = sum(p * n for p, n in zip(precision, support)) / total
    wr = sum(r * n for r, n in zip(recall, support)) / total
    wf = sum(f * n for f, n in zip(f1, support)) / total
    return EvalReport(
        accuracy=correct / total * 100.0,
        precision=precision, recall=recall, f1=f1, support=support,
        macro_precision=sum(precision) / n_classes,
        macro_recall=sum(recall) / n_classes,
        macro_f1=sum(f1) / n_classes,
        weighted_precision=wp, weighted_recall=wr, weighted_f1=wf,
        confusion=cm,
        zero_division=zero_division,
    )
