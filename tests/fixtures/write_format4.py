"""Write the committed format-4 fixtures that ``tests/test_formats.py`` reads.

    PYTHONPATH=src python tests/fixtures/write_format4.py

The fixtures pin how this version reads files that an earlier version
wrote, so they are rewritten only on purpose: a deliberate format change
adds a new fixture directory and keeps this one. The directory holds a
40-document binary ``dataset.sqt`` (vocabulary cap 50, ``max_len`` 16),
one checkpoint per cell trained on it (embedding, hidden and dense size
4), ``gru-auto.sqt``, whose stored config holds ``learning_rate`` null and
``embedding_dim`` "auto" as files written before checkpoints stored the
resolved settings, and ``expected.json`` with each model's predicted
classes and probabilities for every row of the dataset it was trained
on. ``tri.sqt`` is a 45-document 3-class dataset written the same way,
and ``gru-tri.sqt`` a checkpoint trained on it, whose head is a softmax.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from seqtext import cli
from seqtext.artifacts import read_container, write_container
from seqtext.engine import load_checkpoint, load_dataset, make_synthetic_csv
from seqtext.model import forward, predict_classes

OUT = Path(__file__).resolve().parent / "format4"
SIZES = ["--embedding-dim", "4", "--hidden-size", "4", "--dense-size", "4"]
MODELS = {
    "rnn": ["--cell", "rnn", *SIZES, "--learning-rate", "0.05", "--seed", "1"],
    "lstm": ["--cell", "lstm", *SIZES, "--learning-rate", "0.05", "--seed", "1"],
    "gru": ["--cell", "gru", *SIZES, "--learning-rate", "0.05", "--seed", "2"],
    "gru-auto": ["--cell", "gru", "--embedding-dim", "auto", "--hidden-size", "4",
                 "--dense-size", "4", "--seed", "2"],
    "gru-tri": ["--cell", "gru", *SIZES, "--learning-rate", "0.05", "--seed", "3"],
}
# The dataset file each model is trained on and scored against.
DATASETS = {"dataset.sqt": (2, 40), "tri.sqt": (3, 45)}
TRAINED_ON = {name: "tri.sqt" if name.endswith("-tri") else "dataset.sqt" for name in MODELS}


def _run(*args) -> None:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        rc = cli.entry([*map(str, args)])
    if rc != 0:
        raise SystemExit(f"seqtext {args[0]} failed:\n{out.getvalue()}")


def _as_given(path: Path) -> None:
    """Store the config of ``path`` as an older writer did: the unset
    learning rate as null and the embedding size as "auto"."""
    header, arrays = read_container(path)
    del header["blocks"]
    header["config"].update(learning_rate=None, embedding_dim="auto")
    write_container(path, header, list(arrays.items()))


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for data, (n_classes, n_docs) in DATASETS.items():
            corpus = Path(tmp) / "corpus.csv"
            make_synthetic_csv(corpus, n_docs, n_classes, seed=3, filler_tokens=30,
                               min_len=8, max_len=24)
            _run("preprocess", "--data", corpus, "--vocab-size", 50, "--max-len", 16,
                 "--train-fraction", 0.5, "--seed", 3, "--out-dir", tmp)
            (Path(tmp) / "dataset.sqt").replace(OUT / data)
        for name, flags in MODELS.items():
            run = Path(tmp) / name
            _run("train", "--data", OUT / TRAINED_ON[name], *flags, "--epochs", 10,
                 "--batch-size", 4, "--out-dir", run)
            (run / "model.sqt").replace(OUT / f"{name}.sqt")
    _as_given(OUT / "gru-auto.sqt")

    expected = {"datasets": {}, "models": {}}
    for data in DATASETS:
        ds, vocab, pipe = load_dataset(OUT / data)
        expected["datasets"][data] = {
            "class_names": ds.class_names, "vocab_sha": vocab.sha256(),
            "max_len": pipe.max_len, "labels": ds.labels.tolist(),
            "lengths": ds.lengths.tolist(), "train_idx": ds.train_idx.tolist(),
            "test_idx": ds.test_idx.tolist()}
    for name in MODELS:
        ckpt = load_checkpoint(OUT / f"{name}.sqt")
        ds = load_dataset(OUT / TRAINED_ON[name])[0]
        probs = forward(ckpt.model, ds.indices, trace=False)[0]
        expected["models"][name] = {
            "config": ckpt.config.to_dict(), "dataset": TRAINED_ON[name],
            "classes": predict_classes(ckpt.model, probs).tolist(),
            "probabilities": probs.tolist()}
    with open(OUT / "expected.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
