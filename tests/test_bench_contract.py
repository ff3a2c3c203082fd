"""The benchmark's library contract: every helper in ``bench/inputs.py``
runs against this checkout's ``seqtext`` and returns JSON.

``bench/run.py`` exits 1 when any helper fails, so a name, signature or
input form that the package drops breaks the benchmark; this test finds
that first. The bench file is only loaded, never changed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from seqtext import cli

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"


@pytest.fixture(scope="module")
def bench_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_helper_runs_and_returns_json(bench_inputs, tmp_path):
    def call(task, **kwargs):
        # the arguments pass through JSON, as bench/run.py hands them over
        result = bench_inputs.TASKS[task](**json.loads(json.dumps(kwargs, default=str)))
        json.dumps(result)
        return result

    corpus = tmp_path / "corpus.csv"
    call("corpus", path=corpus, docs=80, seed=1,
         params=dict(n_classes=2, filler_tokens=50, min_len=10, max_len=40))
    data, run = tmp_path / "data", tmp_path / "run"
    assert cli.entry(["preprocess", "--data", str(corpus), "--vocab-size", "300",
                      "--max-len", "40", "--train-fraction", "0.5", "--seed", "1",
                      "--out-dir", str(data)]) == 0
    assert cli.entry(["train", "--data", str(data / "dataset.sqt"), "--cell", "gru",
                      "--epochs", "1", "--learning-rate", "0.01", "--seed", "1", "--quiet",
                      "--out-dir", str(run)]) == 0
    dataset, model = data / "dataset.sqt", run / "model.sqt"

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
