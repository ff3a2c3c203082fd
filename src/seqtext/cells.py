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

:func:`run_sequence` projects all of its inputs with one matrix product
before the time loop, so each step adds one fused U product (the GRU
candidate keeps its own, because its U acts on r * h_prev). Training
runs it over the whole document and keeps every step for the backward
pass. Inference runs it without history, one time chunk at a time: the
projection then covers one chunk, the state lives in two alternating
slots, and the returned :class:`CellState` starts the next chunk.
:func:`backward_sequence` keeps only the recurrent terms in its loop:
the gate factors that depend on the recorded activations alone are
computed before it, and the input, recurrent, bias and peephole
gradients and the input gradients are matrix products over all steps
after it.

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

GATES = {"rnn": 1, "lstm": 4, "gru": 3}
# Steps per window of the gate factors that backward_sequence computes
# ahead of its loop. It bounds each factor at (BPTT_WINDOW, batch, H)
# instead of the whole document's, which keeps training's peak memory.
BPTT_WINDOW = 32


def _gates(kind: str) -> int:
    """The stacked gate count of a cell ``kind``."""
    if kind not in GATES:
        raise ConfigError(f"unknown cell kind {kind!r} (expected rnn, lstm or gru)")
    return GATES[kind]


def sigmoid(x, out=None):
    """Numerically stable logistic function, elementwise, written into
    ``out`` when given (which may be ``x`` itself).

    exp() is only ever taken of -|x|, so it never overflows for finite
    input; the sign of x picks the numerator, 1 or e, of one correctly
    rounded division by 1 + e, which gives the bits of 1/(1+e) and
    e/(1+e) taken branch by branch.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)


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
        G = _gates(self.kind)
        if self.nonlinearity not in ("tanh", "sigmoid") or (
                self.kind != "rnn" and self.nonlinearity != "tanh"):
            raise ConfigError(f"{self.kind} cell cannot use nonlinearity {self.nonlinearity!r}")
        if not isinstance(self.literal_mode, bool) or (self.literal_mode and self.kind != "rnn"):
            raise ConfigError(f"literal_mode must be a boolean, and true only for rnn, "
                              f"got {self.literal_mode!r} for {self.kind}")
        if self.V is not None and self.kind != "lstm":
            raise ConfigError(f"only the lstm cell has peephole weights, not {self.kind}")
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
    rows = _gates(kind) * hidden_size
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


def run_sequence(xs: np.ndarray, cell: Cell, state: Optional[CellState] = None,
                 history: bool = True):
    """Fold the cell over the (T, batch, input) array ``xs`` from
    ``state``, whose arrays are (batch, H), or from zero.

    With ``history`` it returns the final hidden state and the
    :class:`SequenceCache` for :func:`backward_sequence`. Without, it
    keeps only the current step and returns the final :class:`CellState`,
    which as ``state`` continues the sequence bitwise as one longer run
    would.
    """
    if xs.ndim != 3:
        raise ShapeError(f"run_sequence expects (T, batch, input), got {xs.shape}")
    if xs.shape[0] == 0:
        raise ShapeError("run_sequence requires a nonempty sequence")
    if xs.shape[-1] != cell.input_size:
        raise ShapeError(f"run_sequence: input has size {xs.shape[-1]}, "
                         f"the cell expects {cell.input_size}")
    T, B, _ = xs.shape
    H = cell.hidden_size
    lstm, gru = cell.kind == "lstm", cell.kind == "gru"

    # One buffer holds the input projections, then each step's gate
    # activations, and after backward_sequence the gate deltas. Step t
    # reads state slot t % n and writes slot (t + 1) % n: with history the
    # slots span all T + 1 states, without it two slots alternate.
    acts = xs @ cell.W.T
    n = T + 1 if history else 2
    hs = np.empty((n, B, H))
    cs = np.empty((n, B, H)) if lstm else None
    if state is not None:
        for s in (state.h, state.c):
            if s is not None and s.shape != (B, H):
                raise ShapeError(f"run_sequence: initial state has shape {s.shape}, "
                                 f"expected ({B}, {H})")
    hs[0] = 0.0 if state is None else state.h
    if lstm:
        cs[0] = 0.0 if state is None or state.c is None else state.c

    # Each step's products and sums go through contiguous scratch rows,
    # and each gate group and state is written straight into its slot.
    # The operands, their order and the U.T and V[...].T views are those
    # of one fresh array per operation, so every bit is too.
    Ut, b = cell.U.T, cell.b
    s1, s2 = np.empty((B, H)), np.empty((B, H))
    if gru:
        Uzr, Uc, bzr, bc = Ut[:, :2 * H], Ut[:, 2 * H:], b[:2 * H], b[2 * H:]
        szr = np.empty((B, 2 * H))
        for t in range(T):
            a, h, h_next = acts[t], hs[t % n], hs[(t + 1) % n]
            zr, z, r, cand = a[:, :2 * H], a[:, :H], a[:, H:2 * H], a[:, 2 * H:]
            np.matmul(h, Uzr, out=szr)
            np.add(zr, szr, out=szr)
            np.add(szr, bzr, out=szr)
            sigmoid(szr, out=zr)
            np.multiply(r, h, out=s1)  # the reset acts before U
            np.matmul(s1, Uc, out=s2)
            np.add(cand, s2, out=s2)
            np.add(s2, bc, out=s2)
            np.tanh(s2, out=cand)
            np.subtract(1.0, z, out=s1)
            np.multiply(s1, h, out=s1)
            np.multiply(z, cand, out=s2)
            np.add(s1, s2, out=h_next)
    elif lstm:
        V = cell.V
        if V is not None:
            Vif, Vo = V[:2 * H].T, V[2 * H:].T
        s4, sif = np.empty((B, 4 * H)), np.empty((B, 2 * H))
        for t in range(T):
            a, h, c = acts[t], hs[t % n], cs[t % n]
            h_next, c_next = hs[(t + 1) % n], cs[(t + 1) % n]
            ifg, o = a[:, :2 * H], a[:, 2 * H:3 * H]
            i, f, cand = a[:, :H], a[:, H:2 * H], a[:, 3 * H:]
            np.matmul(h, Ut, out=s4)
            np.add(a, s4, out=a)
            np.add(a, b, out=a)
            if V is not None:
                np.matmul(c, Vif, out=sif)
                np.add(ifg, sif, out=ifg)
            sigmoid(ifg, out=ifg)
            np.tanh(cand, out=cand)
            np.multiply(f, c, out=s1)
            np.multiply(i, cand, out=s2)
            np.add(s1, s2, out=c_next)
            if V is not None:
                np.matmul(c_next, Vo, out=s1)  # the output gate peeks at the updated cell
                np.add(o, s1, out=o)
            sigmoid(o, out=o)
            np.tanh(c_next, out=s1)
            np.multiply(o, s1, out=h_next)
    else:
        g = np.tanh if cell.nonlinearity == "tanh" else sigmoid
        for t in range(T):
            a = acts[t]
            np.matmul(hs[t % n], Ut, out=s1)
            np.add(a, s1, out=a)
            np.add(a, b, out=a)
            g(a, out=hs[(t + 1) % n])
    last = T % n
    if not history:
        return CellState(h=hs[last], c=cs[last] if lstm else None)
    return hs[last].copy(), SequenceCache(xs=xs, hs=hs, acts=acts, cs=cs)


def _windows(T: int) -> list[slice]:
    """Slices of at most ``BPTT_WINDOW`` steps that cover range(T), the
    last steps first."""
    return [slice(max(t1 - BPTT_WINDOW, 0), t1) for t1 in range(T, 0, -BPTT_WINDOW)]


def backward_sequence(cache: SequenceCache, grad_h_final: np.ndarray,
                      cell: Cell) -> tuple[dict, np.ndarray]:
    """Exact reverse-mode gradients through a recorded forward pass.

    ``grad_h_final`` is (batch, H) and is not modified. Returns (parameter
    gradients keyed like ``named_params``, (T, batch, input) input
    gradients). The gate deltas overwrite ``cache.acts``, so a cache
    serves one backward pass.

    Each gate delta is the gradient flowing back (dh, and for the LSTM
    dc) times a factor of the recorded activations alone. Those factors
    are computed with whole-array operations ahead of the step loop:
    the RNN's 1 - h^2 (h(1 - h) for a sigmoid) for all T steps, into
    ``acts`` itself, and the gated cells' one window of ``BPTT_WINDOW``
    steps at a time. The loop keeps only their products with dh and dc,
    written into the gate slots of ``acts``, and the recurrent matrix
    products. The tanh RNN's arithmetic is that of a per-step loop; the
    gated cells multiply in another grouping, and their gradients agree
    with a per-step loop to rounding.
    """
    xs, hs, acts, cs = cache
    T, B, D = xs.shape
    H = cell.hidden_size
    dh = grad_h_final
    if dh.shape != (B, H):
        raise ShapeError(f"backward_sequence: gradient shape {dh.shape} does not match "
                         f"{B} rows of hidden size {H}")
    U = cell.U

    if cell.kind == "gru":
        Uzr, Uc = U[:2 * H], U[2 * H:]
        rh = acts[:, :, H:2 * H] * hs[:-1]  # U_c's input, before the deltas replace r
        for w in _windows(T):
            aw, h_prev = acts[w], hs[w]
            z, r, cand = aw[..., :H], aw[..., H:2 * H], aw[..., 2 * H:]
            keep = 1.0 - z
            z_f = (cand - h_prev) * z * keep
            c_f = z * (1.0 - cand * cand)
            r_f = rh[w] * (1.0 - r)
            for k in range(len(aw) - 1, -1, -1):
                a = aw[k]
                np.multiply(dh, z_f[k], out=a[:, :H])
                da_c = np.multiply(dh, c_f[k], out=a[:, 2 * H:])
                drh = da_c @ Uc
                dh_direct = dh * keep[k]
                dh_direct += drh * a[:, H:2 * H]  # r, read before its delta replaces it
                np.multiply(drh, r_f[k], out=a[:, H:2 * H])
                dh = a[:, :2 * H] @ Uzr
                dh += dh_direct
    elif cell.kind == "lstm":
        V = cell.V
        dc = np.zeros((B, H))
        for w in _windows(T):
            aw, c_prev = acts[w], cs[w]
            i, f, o, cand = (aw[..., k * H:(k + 1) * H] for k in range(4))
            tanh_c = np.tanh(cs[w.start + 1:w.stop + 1])
            o_f = tanh_c * o * (1.0 - o)
            dc_f = o * (1.0 - tanh_c * tanh_c)
            i_f = cand * i * (1.0 - i)
            f_f = c_prev * f * (1.0 - f)
            c_f = i * (1.0 - cand * cand)
            for k in range(len(aw) - 1, -1, -1):
                a = aw[k]
                da_o = np.multiply(dh, o_f[k], out=a[:, 2 * H:3 * H])
                dc_t = dh * dc_f[k]
                dc_t += dc
                if V is not None:
                    dc_t += da_o @ V[2 * H:]
                np.multiply(dc_t, i_f[k], out=a[:, :H])
                np.multiply(dc_t, c_f[k], out=a[:, 3 * H:])
                dc = dc_t * a[:, H:2 * H]  # f, read before its delta replaces it
                np.multiply(dc_t, f_f[k], out=a[:, H:2 * H])
                if V is not None:
                    dc += a[:, :2 * H] @ V[:2 * H]
                dh = a @ U
    else:
        h = hs[1:]
        if cell.nonlinearity == "tanh":
            np.subtract(1.0, np.multiply(h, h, out=acts), out=acts)
        else:
            np.multiply(h, np.subtract(1.0, h), out=acts)
        for t in range(T - 1, -1, -1):
            da = np.multiply(dh, acts[t], out=acts[t])
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
