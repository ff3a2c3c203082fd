"""The benchmark's own uses of the seqtext library, one task per process.

    python3 bench/inputs.py TASK 'JSON arguments'

``bench/run.py`` runs these as children and reads the JSON object that
each prints, so that the measuring process never imports numpy or
seqtext. That keeps its memory small: on Linux a child's peak resident
size, as ``wait4`` reports it, is at least the parent's peak when the
child was started.
"""

from __future__ import annotations

import csv
import json
import sys


def corpus(path, docs, seed, params):
    """Write the raw CSV of ``docs`` documents drawn with ``seed``."""
    from seqtext.engine import make_synthetic_csv
    make_synthetic_csv(path, docs, seed=seed, **params)
    return {}


def _texts(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return [row[0] for row in csv.reader(fh)][1:]


def properties(corpus, dataset, vocab_cap, max_len):
    """The input counts that later ratios need as their base."""
    from seqtext.engine import read_container
    from seqtext.pipeline import PipelineConfig, clean
    _, arrays = read_container(dataset)
    idx, lengths = arrays["indices"], arrays["original_lengths"]
    pipe = PipelineConfig(vocab_size=vocab_cap, max_len=max_len)
    distinct = set()
    for text in _texts(corpus):
        distinct.update(clean(text, pipe))
    return {"documents": int(idx.shape[0]),
            "mean_length": float(lengths.mean()),
            "truncated_documents": int((lengths > max_len).sum()),
            "pad_fraction": float((idx == 0).mean()),
            "distinct_tokens": len(distinct),
            "vocab_cap": vocab_cap}


def dataset_counts(path):
    """Load a dataset artifact the way the program does, and count it."""
    from seqtext.engine import load_dataset
    ds, _, _ = load_dataset(path)
    split = ds.train_idx is not None and ds.test_idx is not None
    return {"documents": len(ds),
            "train": len(ds.train_idx) if split else None,
            "test": len(ds.test_idx) if split else None}


def _model_rows(model, dataset):
    import numpy as np
    from seqtext.engine import load_checkpoint, read_container
    ckpt = load_checkpoint(model)
    _, arrays = read_container(dataset)
    test = arrays["test_idx"].astype(np.int64)
    return ckpt, arrays, test


def _line(names, p):
    return f"{names[1 if p >= 0.5 else 0]}\t{float(p):.6f}"


def reference(corpus, dataset, model, inputs):
    """Expected evaluate and predict outputs, from ``model.forward`` over
    the test rows of the dataset file in batches of 64, as evaluate runs.

    ``inputs`` lists (stdin path, test positions) for the predict
    commands; each file gets the raw text of those documents.
    """
    import numpy as np
    from seqtext.model import forward
    ckpt, arrays, test = _model_rows(model, dataset)
    names = ckpt.class_names
    rows = arrays["indices"][test]
    probs = np.concatenate([np.atleast_1d(forward(ckpt.model, rows[i:i + 64])[0])
                            for i in range(0, len(rows), 64)])
    preds = (probs >= 0.5).astype(np.int64)
    confusion = np.zeros((len(names), len(names)), dtype=np.int64)
    np.add.at(confusion, (arrays["labels"][test], preds), 1)
    texts = _texts(corpus)
    expected = []
    for path, positions in inputs:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(texts[test[i]] + "\n" for i in positions))
        expected.append([_line(names, probs[i]) for i in positions])
    return {"confusion": confusion.tolist(), "test_documents": int(test.size),
            "expected": expected}


def single(dataset, model, positions):
    """Predict lines for test rows run one at a time, as predict runs them."""
    from seqtext.model import forward
    ckpt, arrays, test = _model_rows(model, dataset)
    rows = arrays["indices"][test]
    return {"lines": [_line(ckpt.class_names, forward(ckpt.model, rows[i])[0])
                      for i in positions]}


def environment():
    import numpy
    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {"numpy": numpy.__version__, "blas": blas}


TASKS = {f.__name__: f for f in (corpus, properties, dataset_counts, reference,
                                 single, environment)}

if __name__ == "__main__":
    print(json.dumps(TASKS[sys.argv[1]](**json.loads(sys.argv[2]))))
