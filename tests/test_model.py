"""Classifier composition: heads, losses, optimizers, end-to-end gradients."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from seqtext import cells, optim
from seqtext import model as M
from seqtext.cells import make_cell, sigmoid
from seqtext.embedding import init_table
from seqtext.config import ExperimentConfig
from seqtext.errors import ConfigError, DivergenceError, ShapeError

from helpers import (ReferenceAdam, ReferenceRmsProp, ReferenceSgd, complex_step_gradients,
                     cost, fd_gradient, gate_errors, rel_error)


class TestSoftmax:
    def test_uniform_on_zero_logits(self):
        np.testing.assert_allclose(M.softmax(np.zeros(5)), np.full(5, 0.2), atol=1e-15)

    def test_log_ratio_logits(self):
        probs = M.softmax(np.log([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(probs, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(40, 6)) * 20
        np.testing.assert_allclose(M.softmax(z).sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(10, 4))
        shifted = M.softmax(z + 123.456)
        np.testing.assert_allclose(shifted, M.softmax(z), atol=1e-9)

    def test_survives_huge_logits(self):
        out = M.softmax(np.array([1000.0, 0.0, -1000.0]))
        assert np.isfinite(out).all() and abs(out.sum() - 1.0) < 1e-12


class TestLosses:
    def test_bce_fixtures(self):
        assert M.bce_loss(1.0, 1.0) == 0.0
        assert abs(M.bce_loss(0.5, 1.0) - math.log(2)) < 1e-12
        assert abs(M.bce_loss(0.5, 0.0) - math.log(2)) < 1e-12

    def test_bce_rejects_soft_targets(self):
        with pytest.raises(ConfigError):
            M.bce_loss(0.5, 0.3)

    def test_bce_floor_keeps_loss_finite(self):
        v = M.bce_loss(0.0, 1.0)
        assert np.isfinite(v) and abs(v - (-math.log(1e-12))) < 1e-9

    def test_cce_fixtures(self):
        losses = M.cce_loss(np.array([[0.0, 1.0], [0.5, 0.5]]), np.array([1, 0]))
        assert losses.shape == (2,)
        assert losses[0] == 0.0
        assert abs(losses[1] - math.log(2)) < 1e-12

    def test_cce_bad_index(self):
        with pytest.raises(ConfigError):
            M.cce_loss(np.array([[0.5, 0.5]]), np.array([2]))

    def test_cost(self):
        assert cost([1.0, 3.0]) == 2.0
        assert cost([0.0]) == 0.0
        assert cost([0.5, 0.5, 0.5]) == 0.5
        with pytest.raises(ConfigError):
            cost([])

    def test_losses_nonnegative(self):
        rng = np.random.default_rng(3)
        probs = M.softmax(rng.normal(size=(50, 3)))
        y = rng.integers(0, 3, size=50)
        assert (M.cce_loss(probs, y) >= 0).all()
        p = rng.uniform(0, 1, size=50)
        t = rng.integers(0, 2, size=50).astype(float)
        assert (M.bce_loss(p, t) >= 0).all()


def test_fused_gradient_identity():
    # d/dz BCE(sigmoid(z), y) == sigmoid(z) - y
    eps = 1e-6
    for y in (0.0, 1.0):
        z = np.linspace(-6, 6, 121)
        numeric = (M.bce_loss(sigmoid(z + eps), y) - M.bce_loss(sigmoid(z - eps), y)) / (2 * eps)
        np.testing.assert_allclose(numeric, sigmoid(z) - y, atol=1e-8)


def test_two_class_softmax_equals_sigmoid_decision():
    rng = np.random.default_rng(4)
    for _ in range(200):
        u, v = rng.normal(size=2) * 5
        soft = M.softmax(np.array([v, u]))  # class 1 carries logit u
        soft_pick = int(np.argmax(soft))
        sig_pick = int(sigmoid(u - v) >= 0.5)
        assert soft_pick == sig_pick
        # and the probabilities themselves agree
        assert abs(soft[1] - sigmoid(u - v)) < 1e-12


class TestOptimizers:
    def test_sgd_fixture(self):
        p = {"w": np.array([1.0])}
        optim.Sgd(0.1).step(p, {"w": np.array([0.5])})
        np.testing.assert_allclose(p["w"], [0.95], atol=1e-15)

    def test_zero_gradient_fixed_point(self):
        for make in optim.OPTIMIZERS.values():
            p = {"w": np.array([2.0, -3.0])}
            make(0.5).step(p, {"w": np.zeros(2)})
            np.testing.assert_array_equal(p["w"], [2.0, -3.0])

    def test_adam_first_step_magnitude_is_lr(self):
        lr = 0.01
        g = np.array([100.0, 10.0, 1.0, 0.5, -0.1, -3.0])
        p = {"w": np.zeros(6)}
        optim.Adam(lr).step(p, {"w": g.copy()})
        np.testing.assert_allclose(np.abs(p["w"]), lr, rtol=1e-5)
        np.testing.assert_allclose(np.sign(p["w"]), -np.sign(g))

    def test_rmsprop_first_step_hand_value(self):
        lr, g = 0.05, 2.0
        p = {"w": np.array([1.0])}
        optim.RmsProp(lr).step(p, {"w": np.array([g])})
        s = 0.1 * g * g
        expected = 1.0 - lr * g / (math.sqrt(s) + 1e-8)
        np.testing.assert_allclose(p["w"], [expected], atol=1e-12)

    def test_adam_converges_on_quadratic(self):
        # minimize (w - 3)^2 from w = 0
        p = {"w": np.array([0.0])}
        opt = optim.Adam(0.1)
        for _ in range(500):
            opt.step(p, {"w": 2.0 * (p["w"] - 3.0)})
        assert abs(p["w"][0] - 3.0) < 1e-3

    # The blocks of a peephole lstm at the paper's shapes: an embedding of
    # 10,000 x 16, E = H = 16, dense 8 and a sigmoid head.
    PAPER_BLOCKS = {"embedding.weights": (10_000, 16), "cell.W": (64, 16), "cell.U": (64, 16),
                    "cell.b": (64,), "cell.V": (48, 16), "dense.W": (8, 16), "dense.b": (8,),
                    "head.W": (1, 8), "head.b": (1,)}

    @staticmethod
    def _paper_grads(rng):
        grads = {n: rng.normal(size=s) * 10.0 ** rng.integers(-6, 2, size=s)
                 for n, s in TestOptimizers.PAPER_BLOCKS.items()}
        emb = grads["embedding.weights"]
        emb[rng.random(emb.shape[0]) < 0.75] = 0.0  # the rows no document of the batch holds
        return grads

    @pytest.mark.parametrize("kind,reference", [("sgd", ReferenceSgd), ("rmsprop", ReferenceRmsProp),
                                                ("adam", ReferenceAdam)])
    def test_in_place_steps_equal_reference_bitwise(self, kind, reference):
        rng = np.random.default_rng(7)
        params = {n: rng.normal(size=s) for n, s in self.PAPER_BLOCKS.items()}
        ref_params = {n: p.copy() for n, p in params.items()}
        opt, ref = optim.OPTIMIZERS[kind](0.01), reference(0.01)
        for _ in range(20):
            grads = self._paper_grads(rng)
            ref.step(ref_params, {n: g.copy() for n, g in grads.items()})
            opt.step(params, grads)
        for name in params:
            assert params[name].tobytes() == ref_params[name].tobytes(), name

    def test_adam_step_allocates_one_block(self):
        rng = np.random.default_rng(8)
        shape = self.PAPER_BLOCKS["embedding.weights"]
        p = {"embedding.weights": rng.normal(size=shape)}
        opt = optim.Adam(0.01)
        # the first step allocates the moment slots; a later one measures the update
        opt.step(p, {"embedding.weights": self._paper_grads(rng)["embedding.weights"]})
        grads = {"embedding.weights": self._paper_grads(rng)["embedding.weights"]}
        tracemalloc.start()
        try:
            opt.step(p, grads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * p["embedding.weights"].nbytes

    @pytest.mark.parametrize("kind", optim.OPTIMIZERS)
    def test_non_finite_gradient_leaves_its_block_unmodified(self, kind):
        params = {"a": np.ones(3), "b": np.full(4, 2.0)}
        opt = optim.OPTIMIZERS[kind](0.1)
        opt.step(params, {"a": np.ones(3), "b": np.ones(4)})
        before = params["b"].copy()
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DivergenceError, match="'b'"):
                opt.step(params, {"a": np.ones(3), "b": np.array([1.0, bad, 1.0, 1.0])})
            np.testing.assert_array_equal(params["b"], before)

    @pytest.mark.parametrize("kind,reference", [("sgd", ReferenceSgd), ("rmsprop", ReferenceRmsProp),
                                                ("adam", ReferenceAdam)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_a_failed_step_changes_nothing(self, kind, reference, bad):
        rng = np.random.default_rng(9)
        params = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4), "c": rng.normal(size=5)}
        grads = {n: rng.normal(size=p.shape) for n, p in params.items()}
        ref_params = {n: p.copy() for n, p in params.items()}
        ref_grads = {n: g.copy() for n, g in grads.items()}
        opt = optim.OPTIMIZERS[kind](0.01)
        failing = {n: g.copy() for n, g in grads.items()}
        failing["c"][3] = bad
        kept = {n: g.tobytes() for n, g in failing.items()}
        with pytest.raises(DivergenceError, match="non-finite gradient in parameter block 'c'"):
            opt.step(params, failing)
        for name in params:
            assert params[name].tobytes() == ref_params[name].tobytes(), name
            assert failing[name].tobytes() == kept[name], name
        # no slot and no step count moved: the next step is a first step
        opt.step(params, grads)
        reference(0.01).step(ref_params, ref_grads)
        for name in params:
            assert params[name].tobytes() == ref_params[name].tobytes(), name

    def test_non_finite_gradient_aborts_with_block_name(self):
        p = {"dense.W": np.zeros(2)}
        with pytest.raises(DivergenceError, match="dense.W"):
            optim.Sgd(0.1).step(p, {"dense.W": np.array([1.0, np.nan])})

    def test_unknown_kind_and_bad_lr(self):
        with pytest.raises(ConfigError, match=re.escape(
                "optimizer must be one of ('sgd', 'rmsprop', 'adam'), got 'adagrad'")):
            ExperimentConfig(optimizer="adagrad")
        for lr in (0.0, -0.1, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="learning_rate must be positive and finite"):
                ExperimentConfig(optimizer="sgd", learning_rate=lr)

    def test_clip_gradients(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        norm = optim.clip_gradients(grads, 1.0)
        assert abs(norm - 5.0) < 1e-12
        total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert abs(total - 1.0) < 1e-12
        small = {"a": np.array([0.3])}
        optim.clip_gradients(small, 1.0)
        np.testing.assert_array_equal(small["a"], [0.3])


def build_tiny(n_classes=2, cell_kind="gru", vocab=7, dim=3, hidden=4, dense=3, seed=0):
    rng = np.random.default_rng(seed)
    emb = init_table(vocab, dim, rng)
    cell = make_cell(cell_kind, dim, hidden, rng)
    return M.ClassifierModel.build(emb, cell, dense, n_classes, rng)


class TestForward:
    def test_sigmoid_head_zero_weights_gives_half(self):
        m = build_tiny()
        m.head_W[:] = 0.0
        m.head_b[:] = 0.0
        probs, _ = M.forward(m, np.array([[1, 2, 3]]))
        np.testing.assert_allclose(probs, [0.5], atol=1e-15)

    def test_softmax_head_rows_normalized(self):
        m = build_tiny(n_classes=4)
        probs, _ = M.forward(m, np.array([[1, 2], [3, 4], [5, 6]]))
        assert probs.shape == (3, 4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_single_document_squeeze(self):
        m = build_tiny()
        probs, _ = M.forward(m, np.array([1, 2, 3]))
        assert np.ndim(probs) == 0

    def test_empty_sequence_rejected(self):
        m = build_tiny()
        with pytest.raises(ShapeError):
            M.forward(m, np.zeros((1, 0), dtype=int))

    def test_out_of_range_index_rejected(self):
        # -1 must not wrap around to the last embedding row
        m = build_tiny(vocab=7)
        for bad in (-1, 7):
            with pytest.raises(IndexError, match="out of range"):
                M.forward(m, np.array([[1, bad, 2]]))

    def test_build_validates_dimension_chain(self):
        rng = np.random.default_rng(0)
        emb = init_table(7, 3, rng)
        cell = make_cell("gru", 5, 4, rng)  # input 5 != embedding dim 3
        with pytest.raises(ShapeError):
            M.ClassifierModel.build(emb, cell, 3, 2, rng)

    def test_build_validates_head(self):
        # the class count picks the head, so only a count below 2 is refused
        for n_classes in (1, 0):
            with pytest.raises(ConfigError, match="at least 2 classes"):
                build_tiny(n_classes=n_classes)


def build_paper_size(variant: str, n_classes: int = 2, vocab: int = 60, seed: int = 0,
                     width: int = 16, dense: int = 8) -> M.ClassifierModel:
    """A model for one cell variant, at the paper's sizes (E = H = 16,
    dense 8) unless ``width`` (E and H) and ``dense`` say otherwise; the
    peephole blocks get nonzero weights so that c reaches h."""
    rng = np.random.default_rng(seed)
    kind = variant.split("-")[0]
    cell = make_cell(kind, width, width, rng, literal_mode=variant == "rnn-literal",
                     peepholes=variant != "lstm-plain")
    if variant == "rnn-sigmoid":
        cell = replace(cell, nonlinearity="sigmoid")
    if cell.V is not None:
        cell.V[...] = rng.normal(scale=0.3, size=cell.V.shape)
    emb = init_table(vocab, width, rng)
    return M.ClassifierModel.build(emb, cell, dense, n_classes, rng)


CELL_VARIANTS = ["rnn-tanh", "rnn-sigmoid", "rnn-literal", "lstm-peepholes", "lstm-plain", "gru"]


class TestUntracedForward:
    """``forward(trace=False)`` walks the document in chunks with no
    history; its probabilities are bitwise those of the traced pass."""

    @pytest.mark.parametrize("variant", CELL_VARIANTS)
    def test_bitwise_equal_to_traced(self, variant):
        # T = 31, 32 and 33 put a chunk boundary before, at and after the
        # end; 250 carries h (and the LSTM's c) across seven boundaries.
        m = build_paper_size(variant, n_classes=3 if variant.endswith("plain") else 2)
        rng = np.random.default_rng(1)
        for B in (1, 5, 256):
            for T in (1, 31, 32, 33, 250):
                idx = rng.integers(1, 60, size=(B, T))
                pads = rng.integers(0, T + 1, size=B)
                idx[np.arange(T) < pads[:, None]] = 0  # front padding, as encoded
                traced, trace = M.forward(m, idx)
                untraced, none = M.forward(m, idx, trace=False)
                assert none is None and trace is not None
                assert untraced.tobytes() == traced.tobytes(), (B, T)
        one = idx[0]
        assert M.forward(m, one, trace=False)[0].tobytes() == M.forward(m, one)[0].tobytes()

    @staticmethod
    def _shared_pad(rng, B, T, s):
        """(B, T) front-padded rows whose shortest pad is ``s``."""
        idx = rng.integers(1, 60, size=(B, T))
        pads = rng.integers(s, T + 1, size=B)
        pads[0] = s
        idx[np.arange(T) < pads[:, None]] = 0
        return idx

    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("variant", CELL_VARIANTS)
    def test_shared_pad_bitwise_equal_to_traced(self, variant, n_classes):
        # A shared pad of 31, 32 and 33 steps ends before, at and after a
        # chunk boundary; at 250 every row is all pad.
        m = build_paper_size(variant, n_classes=n_classes)
        rng = np.random.default_rng(2)
        for B in (1, 5, 256):
            for s in (1, 31, 32, 33, 249, 250):
                idx = self._shared_pad(rng, B, 250, s)
                traced = M.forward(m, idx)[0]
                assert M.forward(m, idx, trace=False)[0].tobytes() == traced.tobytes(), (B, s)

    @pytest.mark.parametrize("B,s", [(1, 100), (5, 100), (5, 250), (256, 0), (256, 33)])
    def test_shared_pad_runs_once(self, monkeypatch, B, s):
        m = build_paper_size("lstm-peepholes")
        idx = self._shared_pad(np.random.default_rng(3), B, 250, s)
        widths = []
        run_sequence = cells.run_sequence

        def counted(xs, *args, **kwargs):
            widths.extend([xs.shape[1]] * len(xs))
            return run_sequence(xs, *args, **kwargs)

        monkeypatch.setattr(cells, "run_sequence", counted)
        M.forward(m, idx, trace=False)
        # the shared pad runs at two rows (a lone row at one), then T - s token steps
        assert widths == [min(B, 2)] * s + [B] * (250 - s)

    @pytest.mark.parametrize("position", [(0, 40), (3, 249), (2, 0)])
    def test_index_error_past_the_first_chunk(self, position):
        m = build_paper_size("lstm-peepholes")
        idx = np.ones((4, 250), dtype=np.int64)
        idx[position] = 60
        idx[3, 200] = -1 if position != (3, 249) else 1  # a later bad index is not named
        messages = []
        for trace in (True, False):
            with pytest.raises(IndexError) as info:
                M.forward(m, idx, trace=trace)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert f"index 60 at position {position}" in messages[0]

    def test_peak_memory_at_batch_256_below_traced_batch_32(self):
        m = build_paper_size("lstm-peepholes", vocab=1000)
        idx = np.random.default_rng(2).integers(0, 1000, size=(256, 250))

        def peak(rows, trace):
            tracemalloc.start()
            try:
                M.forward(m, rows, trace=trace)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(idx, trace=False) <= peak(idx[:32], trace=True)


class TestHeadLossPairing:
    """The class count picks the head and the head fixes the loss: one
    sigmoid row for 2 classes, a C-row softmax for C >= 3."""

    def test_validate_pairings(self):
        for c, head, rows in [(2, "sigmoid", 1), (3, "softmax", 3), (5, "softmax", 5)]:
            m = build_tiny(n_classes=c)
            assert (m.head, m.n_classes, m.head_W.shape[0]) == (head, c, rows)
        for c in (1, 0, -1):
            with pytest.raises(ConfigError):
                build_tiny(n_classes=c)

    @pytest.mark.parametrize("rows,head,n_classes", [(1, "sigmoid", 2), (3, "softmax", 3)])
    def test_head_and_class_count_come_from_head_rows(self, rows, head, n_classes):
        m = build_tiny()
        m = replace(m, head_W=np.zeros((rows, m.dense_W.shape[0])), head_b=np.zeros(rows))
        assert (m.head, m.n_classes) == (head, n_classes)

    def test_two_head_rows_are_refused(self):
        # two classes take the one-row sigmoid head, so a softmax over 2 has no form
        m = build_tiny()
        with pytest.raises(ShapeError, match=r"R = 1 for 2 classes or R >= 3"):
            replace(m, head_W=np.zeros((2, m.dense_W.shape[0])), head_b=np.zeros(2))


class TestBackward:
    def test_zero_loss_gradient_when_prediction_matches_target(self):
        m = build_tiny(n_classes=3)
        probs, trace = M.forward(m, np.array([[1, 2]]))
        fake = trace._replace(probs=np.array([[0.0, 1.0, 0.0]]))
        grads = M.backward(m, fake, np.array([1]))
        np.testing.assert_allclose(grads["head.b"], np.zeros(3), atol=1e-15)

    def test_head_weight_gradient_closed_form(self):
        m = build_tiny()
        probs, trace = M.forward(m, np.array([[2, 3, 4]]))
        y = np.array([1.0])
        grads = M.backward(m, trace, y)
        expected = np.outer(probs - y, trace.dense_out[0])
        np.testing.assert_allclose(grads["head.W"], expected, atol=1e-12)

    def test_pad_row_gradient_forced_zero(self):
        m = build_tiny(cell_kind="lstm")
        _, trace = M.forward(m, np.array([[0, 0, 2, 3]]))
        grads = M.backward(m, trace, np.array([1.0]))
        np.testing.assert_array_equal(grads["embedding.weights"][0], np.zeros(3))
        # non-pad accessed rows do receive gradient
        assert np.abs(grads["embedding.weights"][2]).sum() > 0

    @pytest.mark.parametrize("cell_kind", ["rnn", "lstm", "gru"])
    @pytest.mark.parametrize("head,n_classes", [("sigmoid", 2), ("softmax", 3)])
    def test_full_model_gradients_match_finite_differences(self, cell_kind, head, n_classes):
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            m = build_tiny(n_classes=n_classes, cell_kind=cell_kind,
                           vocab=9, dim=2, hidden=3, dense=3, seed=300 + seed)
            assert m.head == head
            # keep index 0 out of the batch: its row is pinned to zero
            # gradient, which finite differences would contradict
            idx = rng.integers(1, 9, size=(2, 5))
            y = rng.integers(0, n_classes, size=2)
            target = y.astype(float) if head == "sigmoid" else y

            def loss():
                probs, _ = M.forward(m, idx)
                return cost(M.loss_values(m, probs, target))

            _, trace = M.forward(m, idx)
            grads = M.backward(m, trace, target)
            params = m.named_params()
            for name, arr in params.items():
                fd = fd_gradient(loss, arr)
                if name == "embedding.weights":
                    fd[0] = 0.0
                # a stacked cell block is checked one gate slice at a time
                errs = (gate_errors(grads[name], fd, 3) if name.startswith("cell.")
                        else [rel_error(grads[name], fd)])
                for k, err in enumerate(errs):
                    assert err < 1e-4, f"{cell_kind}/{head} seed {seed} {name}[{k}]: {err:.2e}"

    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("variant", CELL_VARIANTS)
    def test_every_block_matches_complex_step(self, variant, n_classes):
        # Bound fixed before any run: 1e-11 of the block's largest entry.
        # The complex step is exact to rounding, so a gradient off by a
        # factor 1 + 1e-7 fails it; the 1e-4 finite differences above
        # cannot see that.
        rng = np.random.default_rng(31)
        m = build_paper_size(variant, n_classes, vocab=9, seed=32, width=3, dense=4)
        if not m.cell.literal_mode:
            m.cell.b[:] = rng.normal(scale=0.5, size=m.cell.b.shape)
        idx = np.array([[0, 0, 3, 1, 8, 2], [4, 0, 5, 5, 7, 6], [0, 0, 0, 0, 2, 1]])
        target = np.array([1.0, 0.0, 1.0]) if n_classes == 2 else np.array([2, 0, 1])
        _, trace = M.forward(m, idx)
        grads = M.backward(m, trace, target)
        oracle = complex_step_gradients(m, idx, target)
        assert sorted(grads) == sorted(oracle)
        grads["embedding.weights"] = grads["embedding.weights"][1:]  # backward zeroes the pad row
        oracle["embedding.weights"] = oracle["embedding.weights"][1:]
        for name, want in oracle.items():
            err = np.abs(grads[name] - want).max()
            assert err <= 1e-11 * np.abs(want).max(), f"{variant} {name}: {err:.2e}"

    def test_one_sgd_step_decreases_loss(self):
        for seed in range(10):
            rng = np.random.default_rng(400 + seed)
            m = build_tiny(n_classes=3, cell_kind="rnn", seed=500 + seed)
            idx = rng.integers(1, 7, size=(1, 4))
            y = np.array([int(rng.integers(0, 3))])
            probs, trace = M.forward(m, idx)
            before = cost(M.loss_values(m, probs, y))
            grads = M.backward(m, trace, y)
            optim.Sgd(1e-4).step(m.named_params(), grads)
            probs2, _ = M.forward(m, idx)
            after = cost(M.loss_values(m, probs2, y))
            assert after < before


class TestPredictClasses:
    def test_sigmoid_threshold_ties_to_positive(self):
        m = build_tiny()
        np.testing.assert_array_equal(
            M.predict_classes(m, np.array([0.49, 0.5, 0.51])), [0, 1, 1])

    def test_softmax_argmax(self):
        m = build_tiny(n_classes=3)
        probs = np.array([[0.2, 0.5, 0.3], [0.7, 0.2, 0.1]])
        np.testing.assert_array_equal(M.predict_classes(m, probs), [1, 0])


def test_named_params_order_stable():
    m = build_tiny(cell_kind="lstm")
    names = list(m.named_params())
    assert names[0] == "embedding.weights"
    assert names[-4:] == ["dense.W", "dense.b", "head.W", "head.b"]
    assert all(n.startswith("cell.") for n in names[1:-4])
