"""Experiment orchestration: CSV ingestion, stratified splitting, training
as a stream of epochs, learning curves, and the checkpoint and dataset
files, whose container ``artifacts`` writes.

Determinism contract: (config, dataset, seed) fix every parameter to the
bit. A generator seeded with ``seed`` draws, in order, the embedding
init, the cell init, the dense and head inits; a second one seeded with
``seed + 1`` draws one permutation per epoch. Artifact files contain no
timestamps, so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from . import cells, metrics, optim
from .artifacts import read_container, write_container
from .config import SETTINGS, ExperimentConfig
from .embedding import check_indices, init_table, load_pretrained
from .errors import (ConfigError, DataError, DivergenceError, IntegrityError,
                     VocabularyMismatchError)
from .model import ClassifierModel, backward, forward, loss_values, predict_classes
from .pipeline import (OOV_INDEX, PAD_INDEX, PipelineConfig, Vocabulary,
                       build_vocabulary, clean, decoded, pad_rows, row_fault, text_sha256)

# Documents per forward pass when only scoring: evaluate, predict and
# the per-epoch test pass. At hidden size 16 a time step costs mostly
# per-call overhead, which a wide batch spreads over many documents;
# past about 256 the gain stops. Scoring keeps no history, so the
# working set grows with the batch but not with T.
INFERENCE_BATCH_SIZE = 256


# ---------------------------------------------------------------------------
# datasets and splits

def _check_class_names(names) -> None:
    """Class names label the output and key the report, so they must be
    distinct strings."""
    if not all(isinstance(n, str) for n in names) or len(set(names)) != len(names):
        raise DataError(f"class names must be distinct strings, got {names!r}")


@dataclass(frozen=True)
class Dataset:
    """An encoded corpus as the row-aligned arrays of the dataset file:
    ``indices`` (N, max_len) int32 front-padded token indices, ``labels``
    (N,) int64 class indices (int32 in the file) and ``lengths`` (N,)
    token counts before truncation, N >= 1. A split is a pair of nonempty
    row-index arrays that together name every row exactly once."""

    indices: np.ndarray
    labels: np.ndarray
    lengths: np.ndarray
    class_names: list
    train_idx: Optional[np.ndarray] = None
    test_idx: Optional[np.ndarray] = None
    vocab_sha: Optional[str] = None

    def __post_init__(self):
        N = self.indices.shape[0] if self.indices.ndim == 2 else -1
        if N < 0 or self.labels.shape != (N,) or self.lengths.shape != (N,):
            raise DataError(
                f"dataset arrays have inconsistent shapes: indices {self.indices.shape}, "
                f"labels {self.labels.shape}, lengths {self.lengths.shape}")
        if N == 0:
            raise DataError("a dataset needs at least one document")
        _check_class_names(self.class_names)
        C = len(self.class_names)
        bad = np.flatnonzero((self.labels < 0) | (self.labels >= C))
        if bad.size:
            i = bad[0]
            raise DataError(f"document {i} has label {self.labels[i]}, but only {C} classes are named")
        if (self.train_idx is None) != (self.test_idx is None):
            raise ConfigError("a split needs both train_idx and test_idx")
        if self.train_idx is not None:
            for side, rows in (("train", self.train_idx), ("test", self.test_idx)):
                if rows.size == 0:
                    raise ConfigError(f"the {side} split is empty")
            if np.intersect1d(self.train_idx, self.test_idx).size:
                raise ConfigError("train and test splits overlap")
            both = np.concatenate([self.train_idx, self.test_idx]).astype(np.int64)
            if both.min() < 0 or both.max() >= N:
                raise ConfigError(f"split rows must lie in [0, {N})")
            if both.size != N or not np.bincount(both, minlength=N).all():
                raise ConfigError("splits must cover every document exactly once")

    def __len__(self) -> int:
        return self.indices.shape[0]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


def _read_csv(path):
    """The rows of a UTF-8 CSV file, header first, a leading byte-order
    mark dropped. A field over the csv module's limit is a DataError
    naming the file and the line."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(decoded(fh, path))
        try:
            yield from reader
        except csv.Error as e:
            raise DataError(f"{path}: line {reader.line_num}: {e}") from None


def load_csv_dataset(path, text_column: str, label_column: str, cfg: PipelineConfig,
                     vocab: Optional[Vocabulary] = None) -> tuple[Dataset, Vocabulary]:
    """Read a header-bearing CSV into an encoded Dataset.

    The file must be UTF-8 (a leading BOM is allowed) and no field may
    exceed the csv module's default limit of 131,072 characters; either
    violation is a DataError naming the file.

    Label values map to class indices by first appearance. When ``vocab``
    is given it is reused instead of built, so indices stay comparable
    across files. Each row is cleaned as it is read, and its tokens are
    kept only as corpus-local int32 ids, numbered by first appearance; one
    lookup array then maps them to vocabulary indices, so the memory held
    grows with the token count, not with the text.
    """
    labels, names = [], {}
    local = {}                        # token -> corpus-local id
    ids, lengths = array("i"), array("i")
    rows = _read_csv(path)
    header = next(rows, None)
    if header is None:
        raise DataError(f"{path}: empty file")
    for col in (text_column, label_column):
        if col not in header:
            raise ConfigError(f"{path}: no column named {col!r} in header {header}")
    t_i = header.index(text_column)
    l_i = header.index(label_column)
    width = max(t_i, l_i) + 1
    for rownum, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) < width:
            raise DataError(f"{path}: row {rownum} has {len(row)} fields, expected at least {width}")
        label = row[l_i].strip()
        if not label:
            raise DataError(f"{path}: row {rownum} has an empty label")
        labels.append(names.setdefault(label, len(names)))
        tokens = clean(row[t_i], cfg)
        ids.extend([local.setdefault(t, len(local)) for t in tokens])
        lengths.append(len(tokens))
    if not labels:
        raise DataError(f"{path}: no data rows")

    flat = np.frombuffer(ids, dtype=np.intc)
    if vocab is None:
        counts = np.bincount(flat, minlength=len(local)).tolist()
        try:
            vocab = build_vocabulary(dict(zip(local, counts)), cfg)
        except DataError as e:
            raise DataError(f"{path}: {e}") from None
    lookup = np.fromiter((vocab.token_to_index.get(t, OOV_INDEX) for t in local),
                         np.int32, len(local))
    ds = Dataset(indices=pad_rows(lookup[flat], lengths, cfg.max_len),
                 labels=np.array(labels, dtype=np.int64),
                 lengths=np.array(lengths, dtype=np.int32), class_names=list(names),
                 vocab_sha=vocab.sha256())
    return ds, vocab


def split(dataset: Dataset, train_fraction: float, seed: int = 0) -> Dataset:
    """Deterministic stratified split: each class puts ``train_fraction``
    of its documents, rounded up, on the training side and the rest on
    the test side.

    Returns a new Dataset sharing the arrays, with index sets filled. The
    fraction lies in (0, 1), every class needs at least 2 documents, and
    neither side may come out empty.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed}")
    class_idx = [np.flatnonzero(dataset.labels == j) for j in range(dataset.n_classes)]
    for j, idx in enumerate(class_idx):
        if idx.size < 2:
            raise DataError(
                f"class {dataset.class_names[j]!r} has {idx.size} example(s); "
                "stratified splitting needs at least 2 per class")
    # the 1e-9 guard keeps exact products like 5 * 0.8 from ceiling up
    take = [math.ceil(idx.size * train_fraction - 1e-9) for idx in class_idx]

    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for idx, tc in zip(class_idx, take):
        perm = idx[rng.permutation(idx.size)]
        train_parts.append(perm[:tc])
        test_parts.append(perm[tc:])
    train_idx = np.sort(np.concatenate(train_parts)).astype(np.int64)
    test_idx = np.sort(np.concatenate(test_parts)).astype(np.int64)
    return replace(dataset, train_idx=train_idx, test_idx=test_idx)


def corpus_stats(dataset: Dataset) -> dict:
    """Document count, class histogram, mean pre-truncation length, OOV
    rate over non-pad positions, and truncated-document count."""
    n = len(dataset)
    counts = np.bincount(dataset.labels, minlength=dataset.n_classes).tolist()
    oov = int(np.count_nonzero(dataset.indices == OOV_INDEX))
    nonpad = int(np.count_nonzero(dataset.indices != PAD_INDEX))
    return {
        "documents": n,
        "classes": dict(zip(dataset.class_names, counts)),
        "avg_length": int(dataset.lengths.sum()) / n,
        "oov_rate": oov / nonpad if nonpad else 0.0,
        "truncated": int(np.count_nonzero(dataset.lengths > dataset.indices.shape[1])),
    }


# ---------------------------------------------------------------------------
# training

class CurvePoint(NamedTuple):
    """One epoch of a learning curve; accuracies are percentages.
    ``report`` is the epoch's test pass scored in full, whose accuracy is
    ``test_acc``, or None when the dataset has no test split."""
    epoch: int
    train_loss: float
    train_acc: float
    test_loss: float
    test_acc: float
    report: Optional[metrics.EvalReport] = None


def build_model(cfg: ExperimentConfig, n_classes: int, vocab: Vocabulary,
                log=None) -> ClassifierModel:
    """Initialize a classifier for this config over ``vocab``, drawing
    from a generator seeded with ``cfg.seed``: the embedding table has
    one row per vocabulary entry."""
    rng = np.random.default_rng(cfg.seed)
    dim = cfg.resolved(vocab.size, n_classes).embedding_dim
    if cfg.pretrained_vectors:
        emb, matched = load_pretrained(cfg.pretrained_vectors, vocab, dim, rng)
        if log:
            log(f"pretrained vectors: matched {matched} of {vocab.size} tokens")
    else:
        emb = init_table(vocab.size, dim, rng)
    cell = cells.make_cell(cfg.cell, dim, cfg.hidden_size, rng,
                           literal_mode=cfg.literal_recurrence, peepholes=cfg.peepholes)
    return ClassifierModel.build(emb, cell, cfg.dense_size, n_classes, rng,
                                 vocab_sha=vocab.sha256())


def _scored_rows(model: ClassifierModel, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The model's probabilities for the rows ``rows`` of ``X``, in that
    order, from forward passes without history.

    The batches of ``INFERENCE_BATCH_SIZE`` rows are formed in order of
    leading pad, so that the pad a batch's rows share, which ``forward``
    runs once, is as long as the set allows. Each batch is gathered from
    ``X`` by index. A row scores as it would in an input-order batch
    wherever the BLAS rounds a row of a product alike at every batch
    height, as OpenBLAS does at the paper's sizes.
    """
    N, T = rows.size, X.shape[1]
    B = INFERENCE_BATCH_SIZE
    lead = np.empty(N, dtype=np.intp)
    for b0 in range(0, N, B):  # a block at a time, so no (N, T) array is built
        tokens = X[rows[b0:b0 + B]] != PAD_INDEX
        lead[b0:b0 + B] = np.where(tokens.any(axis=1), tokens.argmax(axis=1), T)
    order = np.argsort(lead, kind="stable")
    probs = np.empty((N,) if model.head == "sigmoid" else (N, model.n_classes))
    for b0 in range(0, N, B):
        batch = order[b0:b0 + B]
        probs[batch] = forward(model, X[rows[batch]], trace=False)[0]
    return probs


def _report(model: ClassifierModel, probs: np.ndarray, labels: np.ndarray) -> metrics.EvalReport:
    """The report of the classes that ``probs`` picks against ``labels``."""
    preds = predict_classes(model, probs)
    return metrics.scores(metrics.confusion(preds, labels, model.n_classes))


def _eval_loss_acc(model: ClassifierModel, X: np.ndarray, y: np.ndarray,
                   rows: np.ndarray) -> tuple[float, Optional[metrics.EvalReport]]:
    """Mean loss and report over the rows ``rows`` of ``X`` and ``y``;
    NaN and None for no rows."""
    if rows.size == 0:
        return float("nan"), None
    probs = _scored_rows(model, X, rows)
    y = y[rows]
    # the losses add up a slice of INFERENCE_BATCH_SIZE rows at a time, in
    # the order of ``rows``, as the curve's figures always have
    B = INFERENCE_BATCH_SIZE
    loss_sum = sum(float(loss_values(model, probs[b0:b0 + B], y[b0:b0 + B]).sum())
                   for b0 in range(0, rows.size, B))
    return loss_sum / rows.size, _report(model, probs, y)


def _check_fit(model: ClassifierModel, dataset: Dataset) -> None:
    """Refuse a dataset the model cannot read: both carry a vocabulary
    hash and they differ, so its index sequences mean nothing to the
    model, or it names another number of classes."""
    if model.vocab_sha and dataset.vocab_sha and model.vocab_sha != dataset.vocab_sha:
        raise VocabularyMismatchError(
            f"model was trained with vocabulary {model.vocab_sha[:12]}... but the "
            f"dataset was encoded with {dataset.vocab_sha[:12]}...; re-encode the "
            "data with the model's vocabulary")
    if dataset.n_classes != model.n_classes:
        raise ConfigError(
            f"model has {model.n_classes} classes, dataset names {dataset.n_classes}")


def _diverged(ep: int, where: str, e: DivergenceError) -> DivergenceError:
    return DivergenceError(f"diverged at epoch {ep + 1}, {where}: {e}; "
                           "try a lower learning_rate or a gradient_clip")


def train_epochs(model: ClassifierModel, cfg: ExperimentConfig, dataset: Dataset):
    """Train ``model``, built by ``build_model`` for ``cfg``, in place for
    ``cfg.epochs`` epochs, yielding one curve point as each ends. The
    epochs draw from their own generator, so a caller that breaks after
    epoch k holds the model ``train`` returns for ``epochs = k``.

    Train-side curve values are the running means over the epoch's
    batches (each measured before that batch's update); test-side values
    and the report come from a full pass at the end of the epoch, or are
    NaN and None when the dataset has no test split.
    """
    _check_fit(model, dataset)
    if dataset.train_idx is None:
        tr_idx, te_idx = np.arange(len(dataset)), np.arange(0)
    else:
        tr_idx, te_idx = dataset.train_idx, dataset.test_idx
    rng_epochs = np.random.default_rng(cfg.seed + 1)
    rate = cfg.resolved(model.embedding.shape[0], dataset.n_classes).learning_rate
    opt = optim.OPTIMIZERS[cfg.optimizer](rate)
    params = model.named_params()
    X, y = dataset.indices, dataset.labels
    Xtr, ytr = X[tr_idx], y[tr_idx]

    B = cfg.batch_size
    for ep in range(cfg.epochs):
        order = rng_epochs.permutation(tr_idx.size)
        loss_sum = 0.0
        correct = 0
        for bi, b0 in enumerate(range(0, tr_idx.size, B)):
            rows = order[b0:b0 + B]
            xb, yb = Xtr[rows], ytr[rows]
            try:
                probs, trace = forward(model, xb)
                grads = backward(model, trace, yb)
                if cfg.gradient_clip is not None:
                    optim.clip_gradients(grads, cfg.gradient_clip)
                opt.step(params, grads)
                # both are spent; freed now, the next batch reuses their memory
                del trace, grads
            except DivergenceError as e:
                raise _diverged(ep, f"batch {bi + 1}", e) from e
            loss_sum += float(loss_values(model, probs, yb).sum())
            correct += int((predict_classes(model, probs) == yb).sum())
        try:
            test_loss, report = _eval_loss_acc(model, X, y, te_idx)
        except DivergenceError as e:
            raise _diverged(ep, "test pass", e) from e
        yield CurvePoint(ep + 1, loss_sum / tr_idx.size, correct / tr_idx.size * 100.0,
                         test_loss, float("nan") if report is None else report.accuracy,
                         report)


def train(cfg: ExperimentConfig, dataset: Dataset, vocab: Vocabulary,
          log=None) -> tuple[ClassifierModel, list[CurvePoint]]:
    """Build a model for ``cfg`` over ``vocab`` and train it for all of
    ``cfg.epochs`` epochs; returns the model and its learning curve, one
    point per epoch, each also logged as a progress line."""
    model = build_model(cfg, dataset.n_classes, vocab, log=log)
    curve = []
    for p in train_epochs(model, cfg, dataset):
        curve.append(p)
        if log:
            log(f"epoch {p.epoch}/{cfg.epochs}  train_loss {p.train_loss:.4f}  "
                f"train_acc {p.train_acc:.2f}  test_loss {p.test_loss:.4f}  "
                f"test_acc {p.test_acc:.2f}")
    return model, curve


def evaluate(model: ClassifierModel, dataset: Dataset, which: str = "test") -> metrics.EvalReport:
    """Score one split of the dataset: ``train`` and ``test`` need a
    stored split, ``all`` scores every document."""
    _check_fit(model, dataset)
    if which == "all":
        idx = np.arange(len(dataset))
    elif which not in ("train", "test"):
        raise ConfigError(f"split must be train, test or all, got {which!r}")
    elif dataset.train_idx is None:
        raise ConfigError(f"the dataset has no train/test split, so no {which} split; use --split all")
    else:
        idx = dataset.train_idx if which == "train" else dataset.test_idx
    return _report(model, _scored_rows(model, dataset.indices, idx), dataset.labels[idx])


def emit_learning_curve(curve: list[CurvePoint], path) -> None:
    """Comma-separated per-epoch table at full float precision."""
    lines = ["epoch,train_loss,train_acc,test_loss,test_acc"]
    for p in curve:
        lines.append(f"{p.epoch},{p.train_loss!r},{p.train_acc!r},{p.test_loss!r},{p.test_acc!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# the shared artifact header

# Each artifact kind: its format number and how an error names it.
_KINDS = {"checkpoint": (4, "a checkpoint"), "dataset": (1, "an encoded dataset")}
# The header fields every artifact holds, with their JSON types.
_SHARED_FIELDS = {"class_names": list, "vocab_sha": str, "vocab_text": str, "pipeline": dict}
_PIPELINE_KEYS = PipelineConfig().to_dict().keys()


def _write_artifact(path, kind: str, class_names, vocab: Vocabulary,
                    pipeline_cfg: PipelineConfig, blocks: list, **own) -> None:
    """Store ``blocks`` under the header that every artifact kind shares
    (the class names, the vocabulary with its hash and the pipeline
    settings) and the kind's own header fields ``own``."""
    header = {"kind": kind, "format": _KINDS[kind][0], "class_names": list(class_names),
              "vocab_sha": vocab.sha256(), "vocab_text": vocab.serialize(),
              "pipeline": pipeline_cfg.to_dict(), **own}
    write_container(path, header, blocks)


def _read_artifact(path, kind: str, **own) -> tuple[dict, dict, Vocabulary, PipelineConfig]:
    """The header, blocks, vocabulary and pipeline settings of an artifact
    of ``kind``, whose own header fields ``own`` maps to their JSON types.
    Another kind is a DataError; any fault of the shared header is an
    integrity error."""
    header, arrays = read_container(path)
    fmt, what = _KINDS[kind]
    if header.get("kind") != kind:
        raise DataError(f"{path}: this is a {header.get('kind')!r} artifact, not {what}")
    found = header.get("format")
    if type(found) is not int or found != fmt:
        raise IntegrityError(f"{path}: {kind} format {found!r} is not supported "
                             f"(this version reads format {fmt})")
    for name, types in {**_SHARED_FIELDS, **own}.items():
        if not isinstance(header.get(name), types):
            raise IntegrityError(f"{path}: header field {name!r} is missing or has the wrong type")
    _from_header(path, "class_names", _check_class_names, header["class_names"])
    # writers store the canonical serialize() text, so any other form fails here too
    if text_sha256(header["vocab_text"]) != header["vocab_sha"]:
        raise IntegrityError(f"{path}: embedded vocabulary does not match the recorded hash")
    vocab = _from_header(path, "vocabulary", Vocabulary.from_text, header["vocab_text"])
    _check_keys(path, "pipeline", header["pipeline"], _PIPELINE_KEYS)
    pipe = _from_header(path, "pipeline", PipelineConfig.from_dict, header["pipeline"])
    return header, arrays, vocab, pipe


def _check_keys(path, what: str, stored: dict, keys) -> None:
    """A stored settings dict holds exactly the keys its writer stores."""
    missing, unknown = sorted(keys - stored.keys()), sorted(stored.keys() - keys)
    if missing:
        raise IntegrityError(f"{path}: {what} lacks {', '.join(missing)}")
    if unknown:
        raise IntegrityError(f"{path}: {what}: unknown configuration keys {unknown}")


def _from_header(path, what: str, build, *args):
    """Build an object from header fields; any rejection is an integrity error."""
    try:
        return build(*args)
    except (TypeError, ValueError) as e:
        raise IntegrityError(f"{path}: {what}: {e}") from None


# ---------------------------------------------------------------------------
# checkpoints

@dataclass
class Checkpoint:
    model: ClassifierModel
    config: ExperimentConfig
    class_names: list
    vocab: Vocabulary
    pipeline: PipelineConfig


def _disagreement(model: ClassifierModel, cfg: ExperimentConfig, class_names,
                  vocab: Vocabulary) -> Optional[str]:
    """How the model differs from what the resolved ``cfg`` builds over
    ``vocab`` for ``class_names``, or None when they agree."""
    cell, (rows, dim) = model.cell, model.embedding.shape
    if rows != vocab.size:
        return (f"the embedding table has {rows} rows but the embedded vocabulary "
                f"has {vocab.size} entries")
    if cell.nonlinearity != "tanh":
        return f"no configuration describes a {cell.nonlinearity} {cell.kind} cell"
    for key, want, found in (
            ("cell", cfg.cell, cell.kind),
            ("literal_recurrence", cfg.literal_recurrence, cell.literal_mode),
            ("hidden_size", cfg.hidden_size, cell.hidden_size),
            ("embedding_dim", cfg.embedding_dim, dim),
            ("dense_size", cfg.dense_size, model.dense_W.shape[0]),
            ("peepholes", cfg.cell == "lstm" and cfg.peepholes, cell.V is not None)):
        if found != want:
            return f"the config calls for {key} {want!r}, but the model has {found!r}"
    if len(class_names) != model.n_classes:
        return f"the model scores {model.n_classes} classes, but {len(class_names)} are named"
    return None


def _nonfinite_block(model: ClassifierModel) -> Optional[str]:
    """The name of the model's first block that holds a value that is not
    finite, or None."""
    return next((name for name, block in model.state_blocks()
                 if not np.isfinite(block).all()), None)


def _recorded_task(n_classes: int) -> str:
    # Earlier readers of format 4 require config.task; the class count fixes it.
    return "binary" if n_classes == 2 else "multiclass"


def save_checkpoint(path, model: ClassifierModel, config: ExperimentConfig,
                    class_names: list, vocab: Vocabulary,
                    pipeline_cfg: PipelineConfig) -> None:
    """Store the model's blocks beside the resolved settings that describe
    them; a model that they do not describe is refused, and a block that is
    not finite is a DivergenceError."""
    config = config.resolved(vocab.size, len(class_names))
    problem = _disagreement(model, config, class_names, vocab)
    if model.vocab_sha not in (None, vocab.sha256()):
        problem = "the model was built over another vocabulary"
    if problem is not None:
        raise ConfigError(f"cannot store this model: {problem}")
    block = _nonfinite_block(model)
    if block is not None:
        raise DivergenceError(f"cannot store this model: block {block!r} is not finite")
    _write_artifact(path, "checkpoint", class_names, vocab, pipeline_cfg,
                    model.state_blocks(),
                    config={**config.to_dict(), "task": _recorded_task(len(class_names))})


def load_checkpoint(path) -> Checkpoint:
    """Rebuild a stored model from its blocks, its config and its class
    names; blocks that disagree with them or are not finite are an
    integrity error, and so are fewer than 2 class names and a recorded
    task that disagrees with the class names, which are checked before the
    blocks are read. The
    config comes back resolved, also from an older file that stored it as given."""
    header, arrays, vocab, pipe = _read_artifact(path, "checkpoint", config=dict)
    stored = header["config"]
    _check_keys(path, "config", stored, SETTINGS.keys() | {"task"})
    task = stored.pop("task")
    cfg = _from_header(path, "config", lambda: ExperimentConfig(**stored))
    names = header["class_names"]
    if len(names) < 2:
        raise IntegrityError(f"{path}: the header names {len(names)} class(es), but a model "
                             "scores at least 2 classes")
    want = _recorded_task(len(names))
    if task != want:
        raise IntegrityError(f"{path}: the config records task {task!r}, but {len(names)} "
                             f"classes make it {want!r}; retrain the model")
    model = _from_header(path, "model", ClassifierModel.from_blocks, arrays, cfg.cell,
                         cfg.literal_recurrence, header["vocab_sha"])
    block = _nonfinite_block(model)
    if block is not None:
        raise IntegrityError(f"{path}: block {block!r} is not finite")
    cfg = cfg.resolved(vocab.size, len(names))
    problem = _disagreement(model, cfg, names, vocab)
    if problem is not None:
        raise IntegrityError(f"{path}: {problem}")
    return Checkpoint(model=model, config=cfg, class_names=list(names),
                      vocab=vocab, pipeline=pipe)


# ---------------------------------------------------------------------------
# encoded-dataset artifacts

def save_dataset(path, dataset: Dataset, vocab: Vocabulary,
                 pipeline_cfg: PipelineConfig) -> None:
    blocks = [("indices", dataset.indices), ("labels", dataset.labels),
              ("original_lengths", dataset.lengths)]
    has_split = dataset.train_idx is not None
    if has_split:
        blocks += [("train_idx", dataset.train_idx), ("test_idx", dataset.test_idx)]
    _write_artifact(path, "dataset", dataset.class_names, vocab, pipeline_cfg,
                    [(n, np.asarray(a, dtype=np.int32)) for n, a in blocks],
                    has_split=has_split)


def load_dataset(path) -> tuple[Dataset, Vocabulary, PipelineConfig]:
    """The dataset, vocabulary and pipeline settings a dataset file holds.
    Besides the checks of every artifact and of a Dataset, a block the
    header does not call for, a token index outside the vocabulary and
    rows that break the row rule are integrity errors."""
    header, arrays, vocab, pipe = _read_artifact(path, "dataset", has_split=bool)
    split_blocks = ("train_idx", "test_idx") if header["has_split"] else ()
    names = ("indices", "labels", "original_lengths") + split_blocks
    for name in names:
        if name not in arrays or arrays[name].dtype != np.int32:
            raise IntegrityError(f"{path}: int32 block {name!r} is missing")
    unexpected = sorted(arrays.keys() - set(names))
    if unexpected:
        raise IntegrityError(f"{path}: unexpected blocks {unexpected} in a dataset "
                             f"with has_split {str(header['has_split']).lower()}")
    train_idx = test_idx = None
    if split_blocks:
        train_idx, test_idx = (arrays[n].astype(np.int64) for n in split_blocks)
    ds = _from_header(path, "dataset", lambda: Dataset(
        indices=arrays["indices"], labels=arrays["labels"].astype(np.int64),
        lengths=arrays["original_lengths"], class_names=list(header["class_names"]),
        train_idx=train_idx, test_idx=test_idx, vocab_sha=header["vocab_sha"]))
    try:
        check_indices(ds.indices, vocab.size)
    except IndexError as e:
        raise IntegrityError(f"{path}: {e}") from None
    problem = row_fault(ds.indices, ds.lengths, pipe.max_len)
    if problem is not None:
        raise IntegrityError(f"{path}: {problem}")
    return ds, vocab, pipe


# ---------------------------------------------------------------------------
# synthetic corpora

def make_synthetic_csv(path, n_docs: int, n_classes: int, seed: int, *,
                       tokens_per_class: int = 20, filler_tokens: int = 200,
                       signal_rate: float = 0.2, noise_rate: float = 0.05,
                       min_len: int = 30, max_len: int = 120,
                       zipf_filler: bool = True) -> None:
    """Write a seeded, balanced, separable corpus as a raw-text CSV with
    ``text`` and ``label`` columns, with light punctuation so the
    cleaning stage has something to strip.

    Class j is marked by tokens from its own set of ``tokens_per_class``;
    filler is shared and carries no signal. Every document is guaranteed
    at least two own-class tokens, so the classes stay strictly separable
    even with cross-class noise.
    """
    rng = np.random.default_rng(seed)
    class_tokens = [[f"sig{j}w{k:02d}" for k in range(tokens_per_class)]
                    for j in range(n_classes)]
    filler = [f"fill{k:04d}" for k in range(filler_tokens)]
    if zipf_filler:
        weights = 1.0 / np.arange(1, filler_tokens + 1)
        filler_cum = np.cumsum(weights / weights.sum())
    else:
        filler_cum = None
    names = ["neg", "pos"] if n_classes == 2 else [f"class{j}" for j in range(n_classes)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "label"])
        for i in range(n_docs):
            j = i % n_classes
            L = int(rng.integers(min_len, max_len + 1))
            toks = []
            for _ in range(L):
                u = rng.random()
                if u < signal_rate:
                    toks.append(class_tokens[j][int(rng.integers(tokens_per_class))])
                elif u < signal_rate + noise_rate and n_classes > 1:
                    other = (j + 1 + int(rng.integers(n_classes - 1))) % n_classes
                    toks.append(class_tokens[other][int(rng.integers(tokens_per_class))])
                elif filler_cum is not None:
                    pick = min(int(np.searchsorted(filler_cum, rng.random())), filler_tokens - 1)
                    toks.append(filler[pick])
                else:
                    toks.append(filler[int(rng.integers(filler_tokens))])
            # Two own-class tokens always land in the final five positions:
            # a freshly initialized recurrent state forgets geometrically, so
            # evidence buried early in a document contributes almost nothing
            # to the first gradients. Tail placement keeps the corpus
            # learnable from the very first epoch without weakening the
            # separability guarantee.
            tail = max(0, L - 5)
            slots = rng.choice(L - tail, size=min(2, L - tail), replace=False)
            for s in slots:
                toks[tail + int(s)] = class_tokens[j][int(rng.integers(tokens_per_class))]
            pieces = [t + ("," if k % 9 == 8 else "") for k, t in enumerate(toks)]
            writer.writerow([" ".join(pieces) + ".", names[j]])
