"""Recurrent cell step semantics, sequence folding, and exact gradients.

Every backward pass is checked against central finite differences on
randomized small instances, one gate slice of each stacked block at a
time; the analytic step fixtures pin the update rules themselves to
hand-computed values.
"""

import numpy as np
import pytest

from seqtext.cells import (GATES, Cell, CellState, backward_sequence, init_weight,
                           make_cell, run_sequence, sigmoid)
from seqtext.errors import ConfigError, ShapeError

from helpers import (backward_document, fd_gradient, gate_errors, one_step,
                     reference_backward_sequence, reference_run_sequence, rel_error,
                     run_document, two_branch_sigmoid, zero_cell)


class TestActivations:
    def test_sigmoid_fixed_points(self):
        assert sigmoid(0.0) == 0.5
        assert abs(sigmoid(np.log(3.0)) - 0.75) < 1e-12

    def test_sigmoid_bounds_and_symmetry(self):
        rng = np.random.default_rng(7)
        # strict bounds only hold while e^-|x| stays above float64 eps;
        # past |x| ~ 36.7 the result rounds to exactly 0 or 1
        x = rng.uniform(-36, 36, size=20000)
        s = sigmoid(x)
        assert np.all(s > 0.0) and np.all(s < 1.0)
        wide = rng.uniform(-500, 500, size=20000)
        np.testing.assert_allclose(sigmoid(wide) + sigmoid(-wide), 1.0, atol=1e-12)

    def test_sigmoid_survives_extreme_input(self):
        big = sigmoid(np.array([-1e6, 1e6]))
        assert np.isfinite(big).all()
        assert big[0] == 0.0 and big[1] == 1.0

    def test_sigmoid_equals_two_branch_form_bitwise(self):
        # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, taken branch by branch
        rng = np.random.default_rng(12)
        x = np.concatenate([rng.uniform(-750, 750, size=5000), rng.normal(size=5000) * 8,
                            [700.0, -700.0, 745.0, -745.0, 1e-300, -1e-300, 0.0, -0.0]])
        want = np.array([1.0 / (1.0 + np.exp(-v)) if v >= 0 else np.exp(v) / (1.0 + np.exp(v))
                         for v in x])
        got = sigmoid(x)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(two_branch_sigmoid(x).view(np.int64), want.view(np.int64))
        strided = np.repeat(x[:, None], 3, axis=1)[:, 1]
        assert np.array_equal(sigmoid(strided), got)
        # written into a strided column, and in place
        cols = np.zeros((x.size, 3))
        sigmoid(x, out=cols[:, 1])
        assert cols[:, 1].tobytes() == got.tobytes() and not cols[:, ::2].any()
        inplace = x.copy()
        sigmoid(inplace, out=inplace)
        assert inplace.tobytes() == got.tobytes()


class TestAnalyticSteps:
    def test_literal_rnn_zero_fixed_point(self):
        p = zero_cell("rnn", 2, 3, literal_mode=True)
        h, _ = run_document(np.zeros((1, 3)), p)
        np.testing.assert_array_equal(h, np.zeros(2))

    def test_literal_rnn_carries_state_through_tanh(self):
        p = zero_cell("rnn", 1, 2, literal_mode=True)
        h, _, _ = one_step([5.0, -3.0], p, [1.0])
        assert abs(h[0] - 0.7615941559557649) < 1e-10

    def test_literal_rnn_sigmoid_variant(self):
        p = zero_cell("rnn", 1, 1, nonlinearity="sigmoid", literal_mode=True)
        h, _ = run_document(np.zeros((1, 1)), p)
        assert h[0] == 0.5

    def test_lstm_zero_params_cell_carry(self):
        # all gates at sigmoid(0) = 0.5; c = 0.5 * 2 = 1; h = 0.5 * tanh(1)
        p = zero_cell("lstm", 1, 2)
        h, c, _ = one_step([7.0, -7.0], p, np.zeros(1), np.array([2.0]))
        assert abs(c[0] - 1.0) < 1e-12
        assert abs(h[0] - 0.38080) < 1e-5

    def test_lstm_zero_everything_stays_zero(self):
        p = zero_cell("lstm", 3, 2)
        h, c, _ = one_step([1.0, 2.0], p, np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(c, np.zeros(3))
        np.testing.assert_array_equal(h, np.zeros(3))

    def test_gru_zero_params_halves_state(self):
        p = zero_cell("gru", 1, 2)
        h, _, _ = one_step([4.0, 4.0], p, [1.0])
        assert abs(h[0] - 0.5) < 1e-12

    def test_gru_closed_update_gate_keeps_state(self):
        p = zero_cell("gru", 2, 2)
        p.b[:2] = -40.0  # the z rows: z -> 0, so h must equal h_prev
        h_prev = np.array([0.3, -0.8])
        h, _, _ = one_step(np.ones(2), p, h_prev)
        assert np.abs(h - h_prev).max() < 1e-6


class TestGateRangesAndConvexity:
    def test_gate_ranges(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            r = np.random.default_rng(seed)
            lp = make_cell("lstm", 3, 4, r)
            gp = make_cell("gru", 3, 4, r)
            x = rng.normal(size=3) * 3
            h_prev = rng.uniform(-1, 1, size=4)
            c_prev = rng.normal(size=4)
            _, _, (i, f, o, cand) = one_step(x, lp, h_prev, c_prev)
            for gate in (i, f, o):
                assert np.all(gate > 0.0) and np.all(gate < 1.0)
            assert np.all(np.abs(cand) < 1.0)
            _, _, (z, rg, gcand) = one_step(x, gp, h_prev)
            for gate in (z, rg):
                assert np.all(gate > 0.0) and np.all(gate < 1.0)
            assert np.all(np.abs(gcand) < 1.0)

    def test_gru_convex_combination(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            p = make_cell("gru", 2, 5, np.random.default_rng(seed))
            x = rng.normal(size=2)
            h_prev = rng.uniform(-1, 1, size=5)
            h, _, (_, _, cand) = one_step(x, p, h_prev)
            lo = np.minimum(h_prev, cand)
            hi = np.maximum(h_prev, cand)
            assert np.all(h >= lo - 1e-12) and np.all(h <= hi + 1e-12)


def test_lstm_memory_carry_over_50_steps():
    # f pinned at ~1 and i at ~0 by large biases; the cell value must
    # survive 50 steps of noisy input essentially unchanged
    rng = np.random.default_rng(2)
    p = make_cell("lstm", 2, 3, rng, peepholes=False)
    p.b[3:6] = 40.0    # f rows
    p.b[:3] = -40.0    # i rows
    c0 = np.array([0.7, -1.3, 2.2])
    xs = np.stack([rng.normal(size=2) for _ in range(50)])
    _, cache = run_document(xs, p, CellState(h=np.zeros(3), c=c0))
    assert np.abs(cache.cs[-1, 0] - c0).max() < 1e-6


class TestRunSequence:
    def test_length_one_equals_single_step(self):
        # one GRU step from the zero state, by the documented update rule
        p = make_cell("gru", 2, 3, np.random.default_rng(3))
        p.b[:] = np.random.default_rng(4).normal(size=9)
        x = np.array([[0.5, -0.5]])
        h_run, _ = run_document(x, p)
        Wz, _, Wc = np.split(p.W, 3)
        bz, _, bc = np.split(p.b, 3)
        z = sigmoid(Wz @ x[0] + bz)
        cand = np.tanh(Wc @ x[0] + bc)  # U_c acts on r * h_prev = 0
        np.testing.assert_allclose(h_run, z * cand, rtol=1e-14, atol=0)

    def test_all_pad_literal_rnn_stays_zero(self):
        p = zero_cell("rnn", 3, 2, literal_mode=True)
        h, _ = run_document(np.zeros((6, 2)), p)
        np.testing.assert_array_equal(h, np.zeros(3))

    def test_matches_manual_composition(self):
        # seven steps at once equal seven one-step runs chained by state
        for kind in ("rnn", "lstm", "gru"):
            p = make_cell(kind, 2, 3, np.random.default_rng(4))
            xs = np.random.default_rng(5).normal(size=(7, 2))
            h_run, cache = run_document(xs, p)
            state = CellState(h=np.zeros(3), c=np.zeros(3) if kind == "lstm" else None)
            for t in range(7):
                h, step = run_document(xs[t:t + 1], p, state)
                state = CellState(h=h, c=step.cs[-1, 0] if kind == "lstm" else None)
            np.testing.assert_array_equal(h_run, state.h)
            assert cache.acts.shape == (7, 1, GATES[kind] * 3)

    @pytest.mark.parametrize("kind", ["rnn", "lstm", "gru"])
    def test_chunks_without_history_continue_bitwise(self, kind):
        # chunks of 4, 4 and 3 steps chained by the returned state end
        # where one traced run over all 11 steps does, h and c alike
        rng = np.random.default_rng(8)
        p = make_cell(kind, 3, 4, rng)
        if p.V is not None:
            p.V[...] = rng.normal(size=p.V.shape)
        xs = rng.normal(size=(11, 5, 3))
        h_run, cache = run_sequence(xs, p)
        state = None
        for t0 in range(0, 11, 4):
            state = run_sequence(xs[t0:t0 + 4], p, state, history=False)
        assert isinstance(state, CellState)
        assert state.h.tobytes() == h_run.tobytes()
        if kind == "lstm":
            assert state.c.tobytes() == cache.cs[-1].tobytes()
        else:
            assert state.c is None
        one = run_document(xs[:, 2], p, history=False)
        assert one.h.shape == (4,) and one.h.tobytes() == run_document(xs[:, 2], p)[0].tobytes()

    def test_empty_sequence_rejected(self):
        p = make_cell("gru", 2, 3, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            run_sequence(np.zeros((0, 1, 2)), p)

    def test_batched_forward_matches_per_document(self):
        for kind in ("rnn", "lstm", "gru"):
            p = make_cell(kind, 3, 4, np.random.default_rng(6))
            xs = np.random.default_rng(7).normal(size=(5, 2, 3))  # T=5, batch=2
            h_batch, _ = run_sequence(xs, p)
            for b in range(2):
                h_single, _ = run_document(xs[:, b, :], p)
                np.testing.assert_allclose(h_batch[b], h_single, atol=1e-12)


class TestBackwardSequence:
    def test_zero_upstream_gradient(self):
        p = make_cell("lstm", 2, 3, np.random.default_rng(8))
        xs = np.random.default_rng(9).normal(size=(4, 2))
        _, cache = run_document(xs, p)
        grads, dxs = backward_document(cache, np.zeros(3), p)
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros_like(g))
        np.testing.assert_array_equal(dxs, np.zeros_like(xs))

    def test_length_one_rnn_matches_hand_gradient(self):
        p = make_cell("rnn", 2, 3, np.random.default_rng(10))
        x = np.array([0.3, -1.1])
        h, cache = run_document(x[None, :], p)
        w = np.array([1.0, -2.0, 0.5])
        grads, dxs = backward_document(cache, w, p)
        da = w * (1.0 - h * h)
        np.testing.assert_allclose(grads["W"], np.outer(da, x), atol=1e-12)
        np.testing.assert_allclose(grads["b"], da, atol=1e-12)
        np.testing.assert_allclose(grads["U"], np.zeros((3, 3)), atol=1e-12)
        np.testing.assert_allclose(dxs[0], da @ p.W, atol=1e-12)

    def test_batched_backward_equals_summed_singles(self):
        for kind in ("rnn", "lstm", "gru"):
            p = make_cell(kind, 2, 3, np.random.default_rng(11))
            xs = np.random.default_rng(12).normal(size=(4, 3, 2))
            w = np.random.default_rng(13).normal(size=(3, 3))
            _, cache = run_sequence(xs, p)
            grads_b, dxs_b = backward_sequence(cache, w, p)
            summed = {name: np.zeros_like(g) for name, g in grads_b.items()}
            for b in range(3):
                _, one = run_document(xs[:, b, :], p)
                g_one, dx_one = backward_document(one, w[b], p)
                for name in summed:
                    summed[name] += g_one[name]
                np.testing.assert_allclose(dxs_b[:, b, :], dx_one, atol=1e-10)
            for name in summed:
                np.testing.assert_allclose(grads_b[name], summed[name], atol=1e-10)

    def test_gradient_shape_mismatch_rejected(self):
        p = make_cell("gru", 2, 3, np.random.default_rng(0))
        _, cache = run_sequence(np.zeros((4, 2, 2)), p)
        with pytest.raises(ShapeError):
            backward_sequence(cache, np.zeros((3, 3)), p)


CELL_VARIANTS = [
    ("rnn tanh", lambda i, h, r: make_cell("rnn", i, h, r)),
    ("rnn sigmoid", lambda i, h, r: _sigmoid_rnn(i, h, r)),
    ("rnn literal", lambda i, h, r: make_cell("rnn", i, h, r, literal_mode=True)),
    ("lstm peepholes", lambda i, h, r: _random_peephole_lstm(i, h, r)),
    ("lstm plain", lambda i, h, r: make_cell("lstm", i, h, r, peepholes=False)),
    ("gru", lambda i, h, r: make_cell("gru", i, h, r)),
]


def _sigmoid_rnn(i, h, r):
    p = make_cell("rnn", i, h, r)
    return Cell("rnn", p.W, p.U, p.b, nonlinearity="sigmoid")


def _random_peephole_lstm(i, h, r):
    # random nonzero peephole matrices so their gradients are exercised
    p = make_cell("lstm", i, h, r, peepholes=True)
    p.V[:] = r.normal(size=(3 * h, h)) * 0.3
    return p


@pytest.mark.parametrize("label,factory", CELL_VARIANTS, ids=[v[0] for v in CELL_VARIANTS])
def test_gradients_match_finite_differences(label, factory):
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        input_size = int(rng.integers(2, 5))
        hidden = int(rng.integers(3, 6))
        T = int(rng.integers(1, 7))
        p = factory(input_size, hidden, rng)
        xs = rng.normal(size=(T, input_size))
        w = rng.normal(size=hidden)  # loss = w . h_final

        def loss():
            h, _ = run_document(xs, p)
            return float(h @ w)

        _, cache = run_document(xs, p)
        grads, dxs = backward_document(cache, w, p)
        assert sorted(grads) == sorted(n for n, _ in p.named_params())
        for name, arr in p.named_params():
            for k, err in enumerate(gate_errors(grads[name], fd_gradient(loss, arr), hidden)):
                assert err < 1e-5, f"{label} seed {seed} block {name} gate {k}: rel err {err:.2e}"
        err = gate_errors(dxs, fd_gradient(loss, xs), T)[0]
        assert err < 1e-5, f"{label} seed {seed} inputs: rel err {err:.2e}"


@pytest.mark.parametrize("label,factory", CELL_VARIANTS, ids=[v[0] for v in CELL_VARIANTS])
@pytest.mark.parametrize("T", [1, 2, 33])
@pytest.mark.parametrize("B", [1, 5, 32])
def test_backward_equals_per_step_reference(label, factory, T, B):
    # The tanh RNN keeps the per-step arithmetic exactly; the gated cells
    # regroup each gate delta's products, which moves results by rounding.
    rng = np.random.default_rng(T * 100 + B)
    p = factory(16, 16, rng)
    xs = rng.normal(size=(T, B, 16))
    w = rng.normal(size=(B, 16))
    w_before = w.copy()
    grads, dxs = backward_sequence(run_sequence(xs, p)[1], w, p)
    ref, ref_dxs = reference_backward_sequence(run_sequence(xs, p)[1], w, p)
    np.testing.assert_array_equal(w, w_before)
    assert sorted(grads) == sorted(ref)
    if p.kind == "rnn" and p.nonlinearity == "tanh":
        for name in ref:
            assert grads[name].tobytes() == ref[name].tobytes(), name
        assert dxs.tobytes() == ref_dxs.tobytes()
    else:
        for name in ref:
            assert rel_error(grads[name], ref[name]) < 1e-12, name
        assert rel_error(dxs, ref_dxs) < 1e-12


@pytest.mark.parametrize("label,factory", CELL_VARIANTS, ids=[v[0] for v in CELL_VARIANTS])
def test_run_sequence_equals_fresh_array_reference_bitwise(label, factory):
    # Random b, so that adding it at another point of the sum moves bits;
    # batch heights 1 and 2 and the odd ones take other BLAS kernels.
    rng = np.random.default_rng(21)
    for H in (8, 16, 32):
        p = factory(16, H, rng)
        if not p.literal_mode:
            p.b[:] = rng.normal(size=p.b.shape)
        for B in (1, 2, 3, 32, 33, 256):
            xs = rng.normal(size=(5, B, 16))
            state = CellState(h=rng.uniform(-1, 1, size=(B, H)),
                              c=rng.normal(size=(B, H)) if p.kind == "lstm" else None)
            h, cache = run_sequence(xs.copy(), p, state)
            ref_h, ref = reference_run_sequence(xs.copy(), p, state)
            where = f"{label} H={H} B={B}"
            assert h.tobytes() == ref_h.tobytes(), where
            for got, want in zip(cache[1:], ref[1:]):
                assert (got is None and want is None) or got.tobytes() == want.tobytes(), where
            end = run_sequence(xs, p, state, history=False)
            ref_end = reference_run_sequence(xs, p, state, history=False)
            assert end.h.tobytes() == ref_end.h.tobytes(), where
            assert (end.c is None and ref_end.c is None) or \
                end.c.tobytes() == ref_end.c.tobytes(), where


class TestShapesAndValidation:
    def test_step_input_size_mismatch(self):
        p = make_cell("rnn", 2, 3, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            run_document(np.zeros((1, 5)), p)
        with pytest.raises(ShapeError):
            run_document(np.zeros((1, 2)), p, CellState(h=np.zeros(4)))

    def test_only_batched_arrays_accepted(self):
        # a document, a state and a final gradient each carry the batch axis
        p = make_cell("lstm", 2, 3, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            run_sequence(np.zeros((4, 2)), p)
        for state in (CellState(h=np.zeros(3)), CellState(h=np.zeros((5, 3)), c=np.zeros(3))):
            with pytest.raises(ShapeError):
                run_sequence(np.zeros((4, 5, 2)), p, state)
        _, cache = run_sequence(np.zeros((4, 1, 2)), p)
        with pytest.raises(ShapeError):
            backward_sequence(cache, np.zeros(3), p)

    def test_lstm_cell_state_shape_mismatch(self):
        p = make_cell("lstm", 2, 3, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            run_document(np.zeros((1, 2)), p, CellState(h=np.zeros(3), c=np.zeros(4)))

    def test_param_shape_validation(self):
        with pytest.raises(ShapeError):
            Cell("rnn", W=np.zeros((3, 2)), U=np.zeros((2, 2)), b=np.zeros(3))
        with pytest.raises(ShapeError):  # three gates' rows where an lstm has four
            Cell("lstm", W=np.zeros((9, 2)), U=np.zeros((9, 3)), b=np.zeros(9))
        with pytest.raises(ShapeError):  # peepholes are 3H x H, rows i | f | o
            Cell("lstm", W=np.zeros((12, 2)), U=np.zeros((12, 3)), b=np.zeros(12),
                 V=np.zeros((12, 3)))
        with pytest.raises(ConfigError):
            Cell("rnn", W=np.zeros((3, 2)), U=np.zeros((3, 3)), b=np.zeros(3),
                 nonlinearity="relu")
        with pytest.raises(ConfigError):
            Cell("gru", W=np.zeros((9, 2)), U=np.zeros((9, 3)), b=np.zeros(9),
                 V=np.zeros((9, 3)))

    def test_make_cell_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_cell("transformer", 2, 3, np.random.default_rng(0))

    def test_literal_mode_pins_recurrence(self):
        p = make_cell("rnn", 2, 3, np.random.default_rng(0), literal_mode=True)
        np.testing.assert_array_equal(p.U, np.eye(3))
        np.testing.assert_array_equal(p.b, np.zeros(3))
        assert [n for n, _ in p.named_params()] == ["W"]
        with pytest.raises(ConfigError):
            Cell("rnn", W=p.W, U=np.zeros((3, 3)), b=p.b, literal_mode=True)

    def test_peepholes_off_zeroes_v_blocks(self):
        # no peepholes means no V to train, and acts as V = 0 would
        p = make_cell("lstm", 2, 3, np.random.default_rng(0), peepholes=False)
        assert p.V is None
        assert [n for n, _ in p.named_params()] == ["W", "U", "b"]
        zero_v = Cell("lstm", W=p.W, U=p.U, b=p.b, V=np.zeros((9, 3)))
        xs = np.random.default_rng(1).normal(size=(6, 2, 2))
        np.testing.assert_array_equal(run_sequence(xs, p)[0], run_sequence(xs, zero_v)[0])

    def test_init_determinism(self):
        for kind in ("rnn", "lstm", "gru"):
            a = make_cell(kind, 3, 4, np.random.default_rng(42))
            b = make_cell(kind, 3, 4, np.random.default_rng(42))
            for (name, arr_a), (_, arr_b) in zip(a.state_blocks(), b.state_blocks()):
                np.testing.assert_array_equal(arr_a, arr_b)


@pytest.mark.parametrize("kind,kw", [
    ("rnn", {}), ("rnn", {"literal_mode": True}), ("lstm", {}),
    ("lstm", {"peepholes": False}), ("gru", {"peepholes": False}), ("gru", {}),
])
def test_stacked_init_equals_per_gate_draws(kind, kw):
    # one draw per gate block, in the order W gates, U gates; the
    # peepholes start at zero and draw nothing
    D, H, G = 3, 4, GATES[kind]
    rng, cell_rng = np.random.default_rng(9), np.random.default_rng(9)
    W = np.concatenate([init_weight(rng, H, D) for _ in range(G)])
    U = np.eye(H) if kw.get("literal_mode") else np.concatenate(
        [init_weight(rng, H, H) for _ in range(G)])
    cell = make_cell(kind, D, H, cell_rng, **kw)
    np.testing.assert_array_equal(cell.W, W)
    np.testing.assert_array_equal(cell.U, U)
    np.testing.assert_array_equal(cell.b, np.zeros(G * H))
    if kind == "lstm" and kw.get("peepholes", True):
        np.testing.assert_array_equal(cell.V, np.zeros((3 * H, H)))
    else:
        assert cell.V is None
    # both generators end in the same state, so later inits (dense, head) match too
    assert rng.random() == cell_rng.random()


def test_zero_state_shapes():
    lp = make_cell("lstm", 2, 3, np.random.default_rng(0))
    h, cache = run_document(np.ones((4, 2)), lp)
    assert h.shape == (3,)
    assert cache.hs.shape == (5, 1, 3) and cache.cs.shape == (5, 1, 3)
    _, cache = run_sequence(np.ones((4, 5, 2)), lp)
    np.testing.assert_array_equal(cache.hs[0], np.zeros((5, 3)))
    np.testing.assert_array_equal(cache.cs[0], np.zeros((5, 3)))
    gp = make_cell("gru", 2, 3, np.random.default_rng(0))
    assert run_document(np.ones((4, 2)), gp)[1].cs is None


def test_cell_state_dataclass():
    s = CellState(h=np.zeros(2))
    assert s.c is None
