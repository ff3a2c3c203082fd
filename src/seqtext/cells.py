"""Recurrent cells: plain RNN, peephole LSTM, and GRU, as one cell type.

A :class:`Cell` stores the weights of its G gates stacked row-wise, in
the layout of Appleyard, Kočiský & Blunsom (2016):

    W  (G*H, input)   input weights
    U  (G*H, H)       recurrent weights
    b  (G*H,)         biases
    V  (3*H, H)       LSTM peepholes only, rows i | f | o

with H the hidden size. Row block k of W, U and b belongs to gate k:

    rnn   G = 1   the single pre-activation
    lstm  G = 4   i | f | o | cand
    gru   G = 3   z | r | cand

:func:`run_sequence` projects all T inputs with one matrix product
before the time loop, so each step adds one fused U product (the GRU
candidate keeps its own, because its U acts on r * h_prev).
:func:`backward_sequence` keeps only the recurrent terms in its loop;
the input, recurrent, bias and peephole gradients and the input
gradients are matrix products over all steps after it.

Update rules, with ``@`` the matrix product and ``*`` elementwise:

RNN      h = g(W x + U h_prev + b), g in {tanh, sigmoid}.
         Literal mode pins U to the identity and b to zero (and keeps
         both out of training), giving the bare h = g(W x + h_prev)
         recurrence.

LSTM     i = sig(W_i x + U_i h_prev + V_i c_prev + b_i)
         f = sig(W_f x + U_f h_prev + V_f c_prev + b_f)
         cand = tanh(W_c x + U_c h_prev + b_c)
         c = f * c_prev + i * cand
         o = sig(W_o x + U_o h_prev + V_o c + b_o)   <- the NEW c
         h = o * tanh(c)
         The V terms are the peephole connections, each a full hidden x
         hidden matrix; with peepholes off the cell has no V.

GRU      z = sig(W_z x + U_z h_prev + b_z)
         r = sig(W_r x + U_r h_prev + b_r)
         cand = tanh(W_c x + U_c (r * h_prev) + b_c)
         h = (1 - z) * h_prev + z * cand
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError, ShapeError
from .linalg import sigmoid

GATES = {"rnn": 1, "lstm": 4, "gru": 3}


def init_weight(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """U(0,1) draw scaled by 1/sqrt(fan_in)."""
    return rng.uniform(0.0, 1.0, size=(rows, cols)) / math.sqrt(cols)


@dataclass
class CellState:
    h: np.ndarray
    c: Optional[np.ndarray] = None


@dataclass(eq=False)
class Cell:
    kind: str                       # rnn | lstm | gru
    W: np.ndarray
    U: np.ndarray
    b: np.ndarray
    V: Optional[np.ndarray] = None
    nonlinearity: str = "tanh"      # rnn: tanh or sigmoid
    literal_mode: bool = False      # rnn: U = I and b = 0, both untrained

    def __post_init__(self):
        if self.kind not in GATES:
            raise ConfigError(f"unknown cell kind {self.kind!r} (expected rnn, lstm or gru)")
        if self.nonlinearity not in ("tanh", "sigmoid") or (
                self.kind != "rnn" and self.nonlinearity != "tanh"):
            raise ConfigError(f"{self.kind} cell cannot use nonlinearity {self.nonlinearity!r}")
        if not isinstance(self.literal_mode, bool) or (self.literal_mode and self.kind != "rnn"):
            raise ConfigError(f"literal_mode must be a boolean, and true only for rnn, "
                              f"got {self.literal_mode!r} for {self.kind}")
        if self.V is not None and self.kind != "lstm":
            raise ConfigError(f"only the lstm cell has peephole weights, not {self.kind}")
        G = GATES[self.kind]
        H = self.U.shape[-1] if self.U.ndim == 2 else 0
        D = self.W.shape[-1] if self.W.ndim == 2 else 0
        shapes = [("W", self.W, (G * H, D)), ("U", self.U, (G * H, H)), ("b", self.b, (G * H,))]
        if self.V is not None:
            shapes.append(("V", self.V, (3 * H, H)))
        for name, arr, want in shapes:
            if arr.shape != want or H < 1 or D < 1:
                raise ShapeError(f"{self.kind} cell block {name} has shape {arr.shape}, "
                                 f"expected {want} for {G} stacked gates of hidden size {H}")
        if self.literal_mode and (not np.array_equal(self.U, np.eye(H)) or self.b.any()):
            raise ConfigError("literal_mode pins U to the identity and b to zero")

    @property
    def input_size(self) -> int:
        return self.W.shape[1]

    @property
    def hidden_size(self) -> int:
        return self.U.shape[1]

    def state_blocks(self) -> list[tuple[str, np.ndarray]]:
        """Every block, trained or pinned, for checkpointing."""
        out = [("W", self.W), ("U", self.U), ("b", self.b)]
        return out + ([("V", self.V)] if self.V is not None else [])

    def named_params(self) -> list[tuple[str, np.ndarray]]:
        """The trained blocks."""
        pinned = ("U", "b") if self.literal_mode else ()
        return [(n, a) for n, a in self.state_blocks() if n not in pinned]


def make_cell(kind: str, input_size: int, hidden_size: int, rng: np.random.Generator,
              literal_mode: bool = False, peepholes: bool = True) -> Cell:
    """Initialize a cell. The stacked blocks are drawn in the order of
    per-gate draws: every W gate, then every U gate."""
    if kind not in GATES:
        raise ConfigError(f"unknown cell kind {kind!r} (expected rnn, lstm or gru)")
    rows = GATES[kind] * hidden_size
    W = init_weight(rng, rows, input_size)
    if literal_mode:
        U = np.eye(hidden_size)
    else:
        U = init_weight(rng, rows, hidden_size)
    V = None
    if kind == "lstm" and peepholes:
        # Peephole matrices start at zero: the cell state is unbounded,
        # so any all-positive V feeds back into the forget gate and
        # saturates c within ~20 steps. Their gradient is nonzero at
        # V = 0, so they still train.
        V = np.zeros((3 * hidden_size, hidden_size))
    return Cell(kind=kind, W=W, U=U, b=np.zeros(rows), V=V, literal_mode=literal_mode)


class SequenceCache(NamedTuple):
    """What the backward pass needs of a forward pass over (T, B) steps."""
    xs: np.ndarray              # (T, B, input)
    hs: np.ndarray              # (T+1, B, H); hs[0] is the initial state
    acts: np.ndarray            # (T, B, G*H) gate activations
    cs: Optional[np.ndarray]    # lstm: (T+1, B, H) cell states


def run_sequence(xs, cell: Cell, state: Optional[CellState] = None):
    """Fold the cell over a sequence from ``state`` (zero by default).

    ``xs`` is (T, input) for a single document or (T, batch, input) for a
    batch; a list of vectors is also accepted. Returns the final hidden
    state and the :class:`SequenceCache` for :func:`backward_sequence`.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim not in (2, 3):
        raise ShapeError(f"run_sequence expects (T, input) or (T, batch, input), got {xs.shape}")
    if xs.shape[0] == 0:
        raise ShapeError("run_sequence requires a nonempty sequence")
    if xs.shape[-1] != cell.input_size:
        raise ShapeError(f"run_sequence: input has size {xs.shape[-1]}, "
                         f"the cell expects {cell.input_size}")
    single = xs.ndim == 2
    T, D, H = xs.shape[0], cell.input_size, cell.hidden_size
    xs = xs.reshape(T, -1, D)
    B = xs.shape[1]
    lstm, gru = cell.kind == "lstm", cell.kind == "gru"

    # One buffer holds the input projections, then each step's gate
    # activations, and after backward_sequence the gate deltas.
    acts = xs @ cell.W.T
    hs = np.empty((T + 1, B, H))
    cs = np.empty((T + 1, B, H)) if lstm else None
    if state is not None:
        for s in (state.h, state.c):
            if s is not None and np.shape(s) not in ((H,), (B, H)):
                raise ShapeError(f"run_sequence: initial state has shape {np.shape(s)}, "
                                 f"expected ({B}, {H})")
    hs[0] = 0.0 if state is None else state.h
    if lstm:
        cs[0] = 0.0 if state is None or state.c is None else state.c

    Ut, b = cell.U.T, cell.b
    if gru:
        Uzr, Uc, bzr, bc = Ut[:, :2 * H], Ut[:, 2 * H:], b[:2 * H], b[2 * H:]
        for t in range(T):
            a, h = acts[t], hs[t]
            zr = a[:, :2 * H]
            zr += h @ Uzr
            zr += bzr
            zr[...] = sigmoid(zr)
            z = a[:, :H]
            rh = a[:, H:2 * H] * h  # the reset acts before U
            cand = a[:, 2 * H:]
            cand += rh @ Uc
            cand += bc
            np.tanh(cand, out=cand)
            hs[t + 1] = (1.0 - z) * h + z * cand
    elif lstm:
        V = cell.V
        for t in range(T):
            a, c = acts[t], cs[t]
            a += hs[t] @ Ut
            a += b
            ifg = a[:, :2 * H]
            if V is not None:
                ifg += c @ V[:2 * H].T
            ifg[...] = sigmoid(ifg)
            cand = a[:, 3 * H:]
            np.tanh(cand, out=cand)
            c = cs[t + 1] = a[:, H:2 * H] * c + a[:, :H] * cand
            o = a[:, 2 * H:3 * H]
            if V is not None:
                o += c @ V[2 * H:].T  # the output gate peeks at the updated cell
            o[...] = sigmoid(o)
            hs[t + 1] = o * np.tanh(c)
    else:
        g = np.tanh if cell.nonlinearity == "tanh" else sigmoid
        for t in range(T):
            a = acts[t]
            a += hs[t] @ Ut
            a += b
            hs[t + 1] = g(a)
    h = hs[T, 0] if single else hs[T]
    return h.copy(), SequenceCache(xs=xs, hs=hs, acts=acts, cs=cs)


def backward_sequence(cache: SequenceCache, grad_h_final: np.ndarray,
                      cell: Cell) -> tuple[dict, np.ndarray]:
    """Exact reverse-mode gradients through a recorded forward pass.

    Returns (parameter gradients keyed like ``named_params``, input
    gradients shaped like the forward input sequence; a 1-D
    ``grad_h_final`` marks a single document). The gate deltas overwrite
    ``cache.acts``, so a cache serves one backward pass.
    """
    xs, hs, acts, cs = cache
    T, B, D = xs.shape
    H = cell.hidden_size
    dh = np.asarray(grad_h_final, dtype=np.float64)
    single = dh.ndim == 1
    if dh.size != B * H:
        raise ShapeError(f"backward_sequence: gradient shape {dh.shape} does not match "
                         f"{B} rows of hidden size {H}")
    dh = dh.reshape(B, H)
    U = cell.U

    if cell.kind == "gru":
        Uzr, Uc = U[:2 * H], U[2 * H:]
        rh = acts[:, :, H:2 * H] * hs[:-1]  # U_c's input, before the deltas replace r
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
    dxs = (DA @ cell.W).reshape(T, B, D)
    return grads, (dxs[:, 0] if single else dxs)
