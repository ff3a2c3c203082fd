"""The benchmark's library contract: every helper in ``bench/inputs.py``
runs against this checkout's ``seqtext`` and returns JSON, and every name
that ``bench/tracer.py`` wraps is still there and still called.

``bench/run.py`` exits 1 when any helper fails, so a name, signature or
input form that the package drops breaks the benchmark; and a wrapped
name that the program no longer has or no longer calls reads zero in the
per-layer metrics. These tests find both first. The bench files are only
loaded or run, never changed.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqtext
from seqtext import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

# The names bench/tracer.py wraps that the program has dropped; their
# spans read zero. Each is gone from the program on purpose, and the
# tracer loses them when the benchmark is next changed.
MISSING = ["seqtext.cli.make_document", "seqtext.engine._stack_indices",
           "seqtext.engine.cost", "seqtext.engine.make_document"]

# The spans that the per-layer metrics of bench/run.py read from each
# command that the score workload (preprocess, evaluate, predict) and the
# train workload trace. Only call counts are checked; times vary by machine.
SPANS = {
    "evaluate": ["cli.evaluate", "engine.load_checkpoint", "engine.load_dataset",
                 "engine.evaluate", "model.forward.evaluate", "cells.run_sequence.gru",
                 "linalg.sigmoid", "metrics.confusion", "metrics.scores",
                 "metrics.format_report", "metrics.write_metrics"],
    "preprocess": ["cli.preprocess", "engine.load_csv_dataset", "pipeline.clean",
                   "pipeline.build_vocabulary", "engine.split", "engine.corpus_stats",
                   "engine.save_dataset", "engine.write_container"],
    "predict": ["cli.predict", "engine.load_checkpoint", "pipeline.clean",
                "model.forward.predict", "cells.run_sequence.gru", "linalg.sigmoid"],
    "train": ["cli.train", "engine.load_dataset", "engine.build_model", "engine.train",
              "model.forward.step.gru", "model.loss_values", "model.backward.gru",
              "cells.run_sequence.gru", "cells.backward_sequence.gru", "linalg.sigmoid",
              "optim.step.gru", "engine.eval_pass", "model.forward.eval_pass.gru",
              "engine.save_checkpoint", "engine.write_container", "metrics.confusion",
              "metrics.scores", "metrics.format_report", "metrics.write_metrics"],
}


def _env():
    """The environment with this checkout's ``seqtext`` first on the path."""
    src = str(Path(seqtext.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}


def _call(bench_inputs, task, **kwargs):
    """One helper's JSON result, its arguments passed through JSON as
    bench/run.py hands them over."""
    result = bench_inputs.TASKS[task](**json.loads(json.dumps(kwargs, default=str)))
    json.dumps(result)
    return result


@pytest.fixture(scope="module")
def bench_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tiny(bench_inputs, tmp_path_factory):
    """An 80-document corpus, its split dataset and a 1-epoch gru model,
    made as the score workload makes its own."""
    root = tmp_path_factory.mktemp("bench")
    corpus = root / "corpus.csv"
    _call(bench_inputs, "corpus", path=corpus, docs=80, seed=1,
          params=dict(n_classes=2, filler_tokens=50, min_len=10, max_len=40))
    data, run = root / "data", root / "run"
    assert cli.entry(["preprocess", "--data", str(corpus), "--vocab-size", "300",
                      "--max-len", "40", "--train-fraction", "0.5", "--seed", "1",
                      "--out-dir", str(data)]) == 0
    assert cli.entry(["train", "--data", str(data / "dataset.sqt"), "--cell", "gru",
                      "--epochs", "1", "--learning-rate", "0.01", "--seed", "1", "--quiet",
                      "--out-dir", str(run)]) == 0
    return {"root": root, "corpus": corpus, "dataset": data / "dataset.sqt",
            "model": run / "model.sqt"}


def test_every_helper_runs_and_returns_json(bench_inputs, tiny, tmp_path):
    def call(task, **kwargs):
        return _call(bench_inputs, task, **kwargs)

    corpus, dataset, model = tiny["corpus"], tiny["dataset"], tiny["model"]
    props = call("properties", corpus=corpus, dataset=dataset, vocab_cap=300, max_len=40)
    assert props["documents"] == 80 and props["vocab_cap"] == 300
    assert call("dataset_counts", path=dataset) == {"documents": 80, "train": 40, "test": 40}
    positions = list(range(40))
    ref = call("reference", corpus=corpus, dataset=dataset, model=model,
               inputs=[(tmp_path / "lines.txt", positions)])
    assert ref["test_documents"] == 40
    assert sum(map(sum, ref["confusion"])) == 40
    assert len((tmp_path / "lines.txt").read_text(encoding="utf-8").splitlines()) == 40
    alone = call("single", dataset=dataset, model=model, positions=positions)
    assert alone["lines"] == ref["expected"][0]
    assert set(call("environment")) == {"numpy", "blas"}


def test_tracer_finds_every_name_but_the_dropped_ones():
    script = ("import json, sys; sys.path.insert(0, sys.argv[1]); import tracer; "
              "t = tracer.Tracer('gru'); tracer.install(t); print(json.dumps(t.missing))")
    proc = subprocess.run([sys.executable, "-c", script, str(BENCH)], capture_output=True,
                          text=True, timeout=60, env=_env())
    assert proc.returncode == 0, proc.stderr
    assert sorted(json.loads(proc.stdout)) == MISSING


@pytest.mark.parametrize("command", sorted(SPANS))
def test_traced_command_calls_every_span_it_reports(tiny, tmp_path, command):
    args = {
        "evaluate": ["--model", tiny["model"], "--data", tiny["dataset"], "--out-dir", tmp_path],
        "preprocess": ["--data", tiny["corpus"], "--vocab-size", 300, "--max-len", 40,
                       "--train-fraction", 0.5, "--seed", 1, "--out-dir", tmp_path],
        "predict": ["--model", tiny["model"]],
        "train": ["--data", tiny["dataset"], "--cell", "gru", "--epochs", 1,
                  "--seed", 1, "--out-dir", tmp_path],
    }[command]
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(out), "gru", "--", command,
         *map(str, args)],
        input="sig0w00 fill0001 sig0w02\nsig1w03 fill0004\n", capture_output=True,
        text=True, timeout=120, env=_env())
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    uncalled = [name for name in SPANS[command] if report["spans"].get(name, [0, 0, 0])[2] == 0]
    assert uncalled == []
    assert "tracer.hook_errors" not in report["counts"]
