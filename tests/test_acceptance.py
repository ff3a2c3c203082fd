"""Release gate: nine end-to-end checks, one live pass/fail line each.

Every test prints its verdict straight to the terminal (bypassing
capture) before asserting, so a full ``pytest -v`` run shows the gate
outcome inline even when everything passes.
"""

import time
from collections import Counter

import numpy as np
import pytest

from seqtext import cells, cli, engine, metrics
from seqtext import model as M
from seqtext.cells import Cell, CellState, make_cell
from seqtext.embedding import init_table
from seqtext.config import ExperimentConfig
from seqtext.engine import (
    load_csv_dataset,
    make_synthetic_csv,
    split,
    train,
)
from seqtext.pipeline import PipelineConfig, build_vocabulary, encode

from helpers import (backward_document, brute_force_scores_oracle, cost, fd_gradient,
                     gate_errors, make_synthetic_corpus, one_step, rel_error, run_document,
                     train_until, zero_cell)


def _verdict(capsys, ok: bool, name: str, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line


# --- scoring -----------------------------------------------------------

def test_1_scoring_fixtures(capsys):
    checks = []
    for p, r, want in ((88.30, 85.10, 86.67), (87.51, 84.19, 85.82),
                       (86.27, 84.40, 85.32)):
        checks.append(abs(metrics.f1_score(p, r) - want) <= 0.01)
    rep = metrics.scores(np.array([[1, 1], [1, 1]]))
    for got in (rep.accuracy, *rep.headline()):
        checks.append(abs(got - 50.0) <= 0.01)
    perfect = metrics.scores(np.diag([3, 4, 5]))
    checks.append(perfect.accuracy == 100.0)
    checks.append(perfect.macro_f1 == 100.0)
    _verdict(capsys, all(checks), "1. scoring fixtures",
             f"{sum(checks)}/{len(checks)} two-decimal fixtures match")


# --- gradients ---------------------------------------------------------

def _peephole_lstm(i, h, r):
    p = make_cell("lstm", i, h, r, peepholes=True)
    for k in range(3):  # V rows i | f | o
        p.V[k * h:(k + 1) * h] = r.normal(size=(h, h)) * 0.3
    return p


def _sigmoid_rnn(i, h, r):
    p = make_cell("rnn", i, h, r)
    return Cell("rnn", p.W, p.U, p.b, nonlinearity="sigmoid")


_CELL_VARIANTS = [
    ("rnn tanh", lambda i, h, r: make_cell("rnn", i, h, r)),
    ("rnn sigmoid", _sigmoid_rnn),
    ("rnn literal", lambda i, h, r: make_cell("rnn", i, h, r, literal_mode=True)),
    ("lstm peepholes", _peephole_lstm),
    ("lstm plain", lambda i, h, r: make_cell("lstm", i, h, r, peepholes=False)),
    ("gru", lambda i, h, r: make_cell("gru", i, h, r)),
]


def _tiny_model(n_classes, cell_kind, seed):
    rng = np.random.default_rng(seed)
    emb = init_table(9, 2, rng)
    cell = make_cell(cell_kind, 2, 3, rng)
    return M.ClassifierModel.build(emb, cell, 3, n_classes, rng)


def test_2_gradient_checks(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0

    # every cell variant: each gate slice of every stacked parameter
    # block, plus the input sequence
    for label, factory in _CELL_VARIANTS:
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            input_size = int(rng.integers(2, 5))
            hidden = int(rng.integers(3, 6))
            T = int(rng.integers(1, 7))
            p = factory(input_size, hidden, rng)
            xs = rng.normal(size=(T, input_size))
            w = rng.normal(size=hidden)

            def loss():
                h, _ = run_document(xs, p)
                return float(h @ w)

            _, cache = run_document(xs, p)
            grads, dxs = backward_document(cache, w, p)
            for name, arr in p.named_params():
                errs = gate_errors(grads[name], fd_gradient(loss, arr), hidden)
                worst = max(worst, *errs)
                cases += len(errs)
            worst = max(worst, rel_error(dxs, fd_gradient(loss, xs)))
            cases += 1

    # the full classifier: embedding, cell, dense layer, both heads
    for cell_kind in ("rnn", "lstm", "gru"):
        for head, n_classes in (("sigmoid", 2), ("softmax", 3)):
            for seed in range(5):
                rng = np.random.default_rng(200 + seed)
                m = _tiny_model(n_classes, cell_kind, 300 + seed)
                idx = rng.integers(1, 9, size=(2, 5))
                y = rng.integers(0, n_classes, size=2)
                target = y.astype(float) if head == "sigmoid" else y

                def loss():
                    probs, _ = M.forward(m, idx)
                    return cost(M.loss_values(m, probs, target))

                _, trace = M.forward(m, idx)
                grads = M.backward(m, trace, target)
                for name, arr in m.named_params().items():
                    fd = fd_gradient(loss, arr)
                    if name == "embedding.weights":
                        fd[0] = 0.0  # the pad row is pinned to zero
                    errs = (gate_errors(grads[name], fd, m.cell.hidden_size)
                            if name.startswith("cell.") else [rel_error(grads[name], fd)])
                    worst = max(worst, *errs)
                    cases += len(errs)

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    _verdict(capsys, ok, "2. gradient checks",
             f"max rel err {worst:.1e} over {cases} blocks (tol 1e-4), "
             f"{elapsed:.1f}s (budget 60s)")


# --- single-step arithmetic --------------------------------------------

def test_3_single_step_arithmetic(capsys):
    checks = []
    # plain recurrence, identity feedback: h = tanh(x + h_prev)
    p = Cell("rnn", W=np.array([[1.0]]), U=np.eye(1), b=np.zeros(1), literal_mode=True)
    h, _, _ = one_step([1.0], p, np.zeros(1))
    checks.append(abs(h[0] - 0.7615941559557649) < 1e-12)
    h0, _, _ = one_step([0.0], p, np.zeros(1))
    checks.append(h0[0] == 0.0)

    # zero-weight sigmoid recurrence settles at one half
    ps = zero_cell("rnn", 2, 1, nonlinearity="sigmoid")
    hs, _, _ = one_step([0.0], ps, np.zeros(2))
    checks.append(np.all(hs == 0.5))

    # zero-weight gated memory: halve the carried cell, gate the output
    pl = zero_cell("lstm", 1, 1)
    hl, cl, _ = one_step([0.0], pl, np.zeros(1), np.array([2.0]))
    checks.append(cl[0] == 1.0)
    checks.append(abs(hl[0] - 0.3807970779778824) < 1e-12)

    # zero-weight update gate blends half old state, half candidate
    pg = zero_cell("gru", 1, 1)
    hg, _, _ = one_step([0.0], pg, np.ones(1))
    checks.append(hg[0] == 0.5)

    # a hard-closed update gate preserves the state
    pg.b[:1] = -40.0  # the z row
    hk, _, _ = one_step([1.0], pg, np.ones(1))
    checks.append(abs(hk[0] - 1.0) < 1e-6)

    _verdict(capsys, all(checks), "3. single-step arithmetic",
             f"{sum(checks)}/{len(checks)} hand-derived step values match")


# --- training ----------------------------------------------------------

def test_4_memorizes_small_corpora(capsys):
    t0 = time.perf_counter()
    details = []
    ok = True
    for n_docs, n_classes in ((32, 2), (50, 5)):
        ds, vocab, pcfg = make_synthetic_corpus(n_docs, n_classes, seed=7,
                                                signal_rate=0.5, filler_tokens=20)
        for cell in ("rnn", "lstm", "gru"):
            cfg = ExperimentConfig(cell=cell, epochs=200,
                                   batch_size=8, hidden_size=8, seed=3)
            model, curve = train_until(
                cfg, ds, vocab, lambda m, _: engine.evaluate(m, ds, "all").accuracy >= 100.0)
            acc = engine.evaluate(model, ds, "all").accuracy
            ok = ok and acc == 100.0 and len(curve) <= 200
            details.append(f"{n_classes}-class/{cell} {acc:.0f}%@ep{len(curve)}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict(capsys, ok, "4. memorization",
             "; ".join(details) + f" ({elapsed:.1f}s, budget 60s)")


def test_5_binary_benchmark_proxy(capsys, tmp_path):
    t0 = time.perf_counter()
    csv = tmp_path / "binary.csv"
    make_synthetic_csv(csv, 4000, 2, seed=7, tokens_per_class=30,
                       filler_tokens=12000, signal_rate=0.08, noise_rate=0.04,
                       min_len=40, max_len=300)
    pipe = PipelineConfig(vocab_size=10000, max_len=250)
    ds, vocab = load_csv_dataset(csv, "text", "label", pipe)
    ds = split(ds, train_fraction=0.5, seed=7)
    cfg = ExperimentConfig(cell="gru", epochs=30, seed=3)
    model, curve = train_until(cfg, ds, vocab, lambda _, p: p.test_acc >= 75.0)
    best = max(p.test_acc for p in curve)
    elapsed = time.perf_counter() - t0
    ok = best >= 75.0 and len(curve) <= 30 and elapsed < 900.0
    _verdict(capsys, ok, "5. binary benchmark proxy",
             f"test acc {best:.1f}% (bar 75%) at epoch {len(curve)}/30 "
             f"on 2000 held-out docs, {elapsed:.0f}s (budget 900s)")


def test_6_five_way_benchmark_proxy(capsys, tmp_path):
    t0 = time.perf_counter()
    csv = tmp_path / "five.csv"
    make_synthetic_csv(csv, 1500, 5, seed=7, tokens_per_class=30,
                       filler_tokens=12000, signal_rate=0.3, noise_rate=0.02,
                       min_len=40, max_len=300)
    pipe = PipelineConfig(vocab_size=10000, max_len=250)
    ds, vocab = load_csv_dataset(csv, "text", "label", pipe)
    ds = split(ds, train_fraction=0.8, seed=7)
    cfg = ExperimentConfig(cell="gru", epochs=30, seed=3)
    model, curve = train_until(cfg, ds, vocab, lambda _, p: p.test_acc >= 85.0)
    best = max(p.test_acc for p in curve)
    elapsed = time.perf_counter() - t0
    ok = best >= 85.0 and len(curve) <= 30 and elapsed < 600.0
    _verdict(capsys, ok, "6. five-way benchmark proxy",
             f"test acc {best:.1f}% (bar 85%) at epoch {len(curve)}/30 "
             f"on 300 held-out docs, {elapsed:.0f}s (budget 600s)")


# --- scoring oracle ----------------------------------------------------

def test_7_scoring_oracle_equivalence(capsys):
    rng = np.random.default_rng(11)
    mismatches = 0
    for _ in range(1000):
        C = int(rng.integers(2, 7))
        n = int(rng.integers(1, 60))
        preds = rng.integers(0, C, size=n)
        labels = rng.integers(0, C, size=n)
        fast = metrics.scores(metrics.confusion(preds, labels, C))
        slow = brute_force_scores_oracle(preds, labels, C)
        same = (fast.accuracy == slow.accuracy
                and fast.precision == slow.precision
                and fast.recall == slow.recall
                and fast.f1 == slow.f1
                and fast.support == slow.support
                and fast.macro_f1 == slow.macro_f1
                and fast.weighted_f1 == slow.weighted_f1
                and np.array_equal(fast.confusion, slow.confusion))
        mismatches += 0 if same else 1
    _verdict(capsys, mismatches == 0, "7. scoring oracle equivalence",
             f"{1000 - mismatches}/1000 random evaluations identical to "
             "pairwise counting")


# --- reproducibility ----------------------------------------------------

def test_8_bitwise_reproducibility(capsys, tmp_path):
    csv = tmp_path / "corpus.csv"
    make_synthetic_csv(csv, 24, 2, seed=3, filler_tokens=30,
                       min_len=10, max_len=20)
    rcs = []
    for tag in ("p1", "p2"):
        rcs.append(cli.entry([
            "preprocess", "--data", str(csv), "--train-fraction", "0.5",
            "--vocab-size", "200", "--max-len", "32", "--seed", "3",
            "--out-dir", str(tmp_path / tag),
        ]))
    for tag in ("r1", "r2"):
        rcs.append(cli.entry([
            "train", "--data", str(tmp_path / "p1" / "dataset.sqt"),
            "--cell", "gru", "--hidden-size", "8", "--batch-size", "8",
            "--epochs", "5", "--seed", "3", "--quiet",
            "--out-dir", str(tmp_path / tag),
        ]))
    ok = rcs == [0, 0, 0, 0]
    same = []
    pre_same = (tmp_path / "p1" / "dataset.sqt").read_bytes() == \
               (tmp_path / "p2" / "dataset.sqt").read_bytes()
    same.append(("dataset.sqt", pre_same))
    for name in ("model.sqt", "curve.csv", "metrics.txt"):
        same.append((name, (tmp_path / "r1" / name).read_bytes()
                     == (tmp_path / "r2" / name).read_bytes()))
    ok = ok and all(s for _, s in same)
    _verdict(capsys, ok, "8. bitwise reproducibility",
             f"rerun artifacts identical on one numpy build ({np.__version__}), BLAS kernel "
             "and CPU dispatch: "
             + ", ".join(f"{n} {'yes' if s else 'NO'}" for n, s in same))


# --- invariants ---------------------------------------------------------

def test_9_numeric_invariants(capsys, tmp_path):
    failures = []
    rng = np.random.default_rng(0)

    logits = rng.normal(size=(50, 7)) * 10
    probs = M.softmax(logits)
    if not (np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-12) and np.all(probs >= 0)):
        failures.append("softmax normalization")
    shifted = M.softmax(logits + 123.0)
    if not np.all(np.abs(shifted - probs) < 1e-9):
        failures.append("softmax shift invariance")

    xs = np.linspace(-36.0, 36.0, 2001)
    if not np.all(np.abs(cells.sigmoid(-xs) - (1.0 - cells.sigmoid(xs))) < 1e-12):
        failures.append("sigmoid symmetry")

    in_range = True
    interpolates = True
    for seed in range(10):
        r = np.random.default_rng(seed)
        pl = make_cell("lstm", 3, 4, r)
        _, _, (i, f, o, cand) = one_step(r.normal(size=3), pl, r.normal(size=4),
                                      r.normal(size=4))
        for gate in (i, f, o):
            in_range &= bool(np.all((gate > 0) & (gate < 1)))
        in_range &= bool(np.all(np.abs(cand) <= 1.0))
        pg = make_cell("gru", 3, 4, r)
        h_prev = r.normal(size=4)
        hg, _, (z, rg, gcand) = one_step(r.normal(size=3), pg, h_prev)
        for gate in (z, rg):
            in_range &= bool(np.all((gate > 0) & (gate < 1)))
        lo = np.minimum(h_prev, gcand) - 1e-12
        hi = np.maximum(h_prev, gcand) + 1e-12
        interpolates &= bool(np.all((hg >= lo) & (hg <= hi)))
    if not in_range:
        failures.append("gate ranges")
    if not interpolates:
        failures.append("gated interpolation")

    # a forced-open forget gate carries the cell through 50 noisy steps
    pl = Cell("lstm", W=np.zeros((12, 2)), U=np.zeros((12, 3)),
              b=np.concatenate([np.full(3, -40.0), np.full(3, 40.0), np.zeros(6)]))
    target = np.array([0.7, -1.3, 2.2])
    r = np.random.default_rng(5)
    xs = np.stack([r.normal(size=2) for _ in range(50)])
    _, cache = run_document(xs, pl, CellState(h=np.zeros(3), c=target.copy()))
    c_cur = cache.cs[-1, 0]
    if not np.all(np.abs(c_cur - target) < 1e-6):
        failures.append("long-range memory carry")

    m = _tiny_model(2, "gru", seed=1)
    idx = np.array([[0, 0, 3, 4], [0, 2, 5, 6]])
    _, trace = M.forward(m, idx)
    grads = M.backward(m, trace, np.array([1.0, 0.0]))
    if not np.all(grads["embedding.weights"][0] == 0.0):
        failures.append("pad row gradient")

    cfg = PipelineConfig(vocab_size=30, max_len=12)
    corpus = [[f"w{rng.integers(40)}" for _ in range(int(rng.integers(0, 30)))]
              for _ in range(200)]
    vocab = build_vocabulary(Counter(t for c in corpus for t in c) or Counter(["w0"]), cfg)
    if encode(corpus, vocab, cfg).shape != (len(corpus), cfg.max_len):
        failures.append("encoded length law")

    ds, vocab, pcfg = make_synthetic_corpus(12, 2, seed=1, signal_rate=0.5,
                                            filler_tokens=20)
    tcfg = ExperimentConfig(cell="lstm", epochs=1, batch_size=8,
                            hidden_size=4, dense_size=3, embedding_dim=4, seed=2)
    model, _ = train(tcfg, ds, vocab)
    path = tmp_path / "model.sqt"
    engine.save_checkpoint(path, model, tcfg, ds.class_names, vocab, pcfg)
    loaded = engine.load_checkpoint(path)
    round_trip = all(np.array_equal(a, b)
                     for (_, a), (_, b) in zip(model.state_blocks(),
                                               loaded.model.state_blocks()))
    if not round_trip:
        failures.append("checkpoint round trip")

    total = 9
    _verdict(capsys, not failures, "9. numeric invariants",
             f"{total - len(failures)}/{total} invariants hold"
             + (": failed " + ", ".join(failures) if failures else ""))
