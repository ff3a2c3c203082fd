"""Experiment orchestration: CSV ingestion, stratified splitting, the
mini-batch training loop, learning curves, and binary artifact files.

Determinism contract: (config, dataset, seed) fix every parameter to the
bit. A single generator seeded from the config drives, in order, the
embedding init, the cell init, the dense and head inits, then one
permutation per epoch. Artifact files contain no timestamps, so reruns
are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import struct
import zlib
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Optional

import numpy as np

from . import cells, metrics, optim
from .embedding import EmbeddingMatrix, embedding_dim_heuristic, load_pretrained
from .errors import (ConfigError, DataError, DivergenceError, IntegrityError,
                     VocabularyMismatchError)
from .model import (ClassifierModel, backward, cost, forward, loss_values,
                    predict_classes, validate_head)
from .pipeline import (OOV_INDEX, PAD_INDEX, PipelineConfig, Vocabulary,
                       build_vocabulary, clean, encode, text_sha256)

TASKS = ("binary", "multiclass")
CELL_KINDS = ("rnn", "gru", "lstm")
# Documents per forward pass when only scoring (evaluate, predict). At
# hidden size 16 a time step costs mostly per-call overhead, which a wide
# batch spreads over many documents; past about 256 the gain stops and
# the working set keeps growing.
INFERENCE_BATCH_SIZE = 256


# ---------------------------------------------------------------------------
# configuration

_INT_FIELDS = ("hidden_size", "dense_size", "epochs", "batch_size", "seed")
_FLOAT_FIELDS = ("learning_rate", "gradient_clip")
_BOOL_FIELDS = ("literal_recurrence", "peepholes")
_STR_FIELDS = ("task", "cell", "optimizer", "pretrained_vectors")
_NULLABLE_FIELDS = ("learning_rate", "gradient_clip", "pretrained_vectors")


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {raw!r}")


def parse_config_value(key: str, raw: str):
    """One typed config value from its text form."""
    raw = raw.strip()
    if key in _NULLABLE_FIELDS and raw.lower() in ("", "none"):
        return None
    try:
        if key in _INT_FIELDS:
            return int(raw)
        if key in _FLOAT_FIELDS:
            return float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None
    if key in _BOOL_FIELDS:
        return _parse_bool(key, raw)
    if key == "embedding_dim":
        if raw.lower() == "auto":
            return "auto"
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"embedding_dim must be an integer or 'auto', got {raw!r}") from None
    if key in _STR_FIELDS:
        return raw
    raise ConfigError(f"unknown configuration key {key!r}")


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Flat ``key = value`` lines to a typed option dict.

    Blank lines and '#' comments are ignored; unknown keys and repeated
    keys are errors.
    """
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_FIELD_NAMES:
            raise ConfigError(f"{source}:{lineno}: unknown configuration key {key!r}")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = parse_config_value(key, raw)
    return out


@dataclass
class ExperimentConfig:
    """Everything that determines a training run besides the encoded
    corpus, whose ``PipelineConfig`` holds the vocabulary cap and length.

    ``learning_rate`` defaults to None and resolves by task (0.001
    binary / 0.005 multiclass), and ``embedding_dim`` may be the literal
    string "auto" for the fourth-root heuristic. The task fixes the head
    and the head fixes the loss, so the loss is not a setting.
    """

    task: str = "binary"
    cell: str = "lstm"
    embedding_dim: object = 16
    hidden_size: int = 16
    dense_size: int = 8
    learning_rate: Optional[float] = None
    optimizer: str = "adam"
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    gradient_clip: Optional[float] = None
    pretrained_vectors: Optional[str] = None
    literal_recurrence: bool = False
    peepholes: bool = True

    def validate(self) -> None:
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.cell not in CELL_KINDS:
            raise ConfigError(f"cell must be one of {CELL_KINDS}, got {self.cell!r}")
        if self.optimizer not in optim.OPTIMIZER_KINDS:
            raise ConfigError(f"optimizer must be one of {optim.OPTIMIZER_KINDS}, got {self.optimizer!r}")
        for name, low in (("hidden_size", 1), ("dense_size", 1),
                          ("epochs", 0), ("batch_size", 1)):
            v = getattr(self, name)
            if not isinstance(v, int) or v < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {v!r}")
        if self.embedding_dim != "auto" and (
                not isinstance(self.embedding_dim, int) or self.embedding_dim < 1):
            raise ConfigError(f"embedding_dim must be a positive integer or 'auto', got {self.embedding_dim!r}")
        if self.learning_rate is not None and not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.gradient_clip is not None and not self.gradient_clip > 0:
            raise ConfigError(f"gradient_clip must be positive, got {self.gradient_clip}")
        if self.literal_recurrence and self.cell != "rnn":
            raise ConfigError("literal_recurrence only applies to the rnn cell")

    # resolution of task-dependent defaults

    @property
    def head(self) -> str:
        return "sigmoid" if self.task == "binary" else "softmax"

    def resolved_learning_rate(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return 0.001 if self.task == "binary" else 0.005

    def resolve_embedding_dim(self, vocab_size: int) -> int:
        if self.embedding_dim == "auto":
            return embedding_dim_heuristic(vocab_size)
        return self.embedding_dim

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = set(d) - _CONFIG_FIELD_NAMES
        if unknown:
            raise ConfigError(f"unknown configuration keys {sorted(unknown)}")
        cfg = cls(**d)
        cfg.validate()
        return cfg

    def describe(self, vocab_size: int) -> str:
        """Resolved 'key = value' lines, one per field, over a vocabulary
        of ``vocab_size`` entries.

        The output is itself a valid configuration file reproducing this
        run, so a log line is enough to rerun an experiment.
        """
        shown = self.to_dict()
        shown["learning_rate"] = self.resolved_learning_rate()
        shown["embedding_dim"] = self.resolve_embedding_dim(vocab_size)
        lines = []
        for f in fields(self):
            v = shown[f.name]
            if v is None:
                v = "none"
            elif isinstance(v, bool):
                v = "true" if v else "false"
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines)


_CONFIG_FIELD_NAMES = {f.name for f in fields(ExperimentConfig)}


# ---------------------------------------------------------------------------
# datasets and splits

def _check_class_names(names) -> None:
    """Class names label the output and key the report, so they must be
    distinct strings."""
    if not all(isinstance(n, str) for n in names) or len(set(names)) != len(names):
        raise DataError(f"class names must be distinct strings, got {names!r}")


@dataclass
class Dataset:
    """An encoded corpus as the row-aligned arrays of the dataset file:
    ``indices`` (N, max_len) int32 front-padded token indices, ``labels``
    (N,) int64 class indices (int32 in the file) and ``lengths`` (N,)
    token counts before truncation. A split is a pair of row-index arrays
    that together name every row exactly once."""

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
        _check_class_names(self.class_names)
        C = len(self.class_names)
        bad = np.flatnonzero((self.labels < 0) | (self.labels >= C))
        if bad.size:
            i = bad[0]
            raise DataError(f"document {i} has label {self.labels[i]}, but only {C} classes are named")
        if self.train_idx is not None and self.test_idx is not None:
            if np.intersect1d(self.train_idx, self.test_idx).size:
                raise ConfigError("train and test splits overlap")
            both = np.concatenate([self.train_idx, self.test_idx]).astype(np.int64)
            if both.size and (both.min() < 0 or both.max() >= N):
                raise ConfigError(f"split rows must lie in [0, {N})")
            if both.size != N or not np.bincount(both, minlength=N).all():
                raise ConfigError("splits must cover every document exactly once")

    def __len__(self) -> int:
        return self.indices.shape[0]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def train_indices(self) -> np.ndarray:
        if self.train_idx is None:
            return np.arange(len(self))
        return np.asarray(self.train_idx)

    def test_indices(self) -> np.ndarray:
        if self.test_idx is None:
            return np.arange(0)
        return np.asarray(self.test_idx)


def _encode_corpus(token_lists: list, labels: list, class_names: list,
                   vocab: Vocabulary, cfg: PipelineConfig) -> Dataset:
    """The Dataset of ``token_lists``: ``encode`` writes each document's
    row of a preallocated (N, max_len) int32 matrix."""
    indices = np.empty((len(token_lists), cfg.max_len), dtype=np.int32)
    for row, tokens in enumerate(token_lists):
        indices[row] = encode(tokens, vocab, cfg)
    return Dataset(indices=indices, labels=np.array(labels, dtype=np.int64),
                   lengths=np.array([len(t) for t in token_lists], dtype=np.int32),
                   class_names=class_names, vocab_sha=vocab.sha256())


def _read_csv(path):
    """The rows of a UTF-8 CSV file, header first. A byte that does not
    decode is a DataError naming the file; the decoder reads ahead of the
    csv reader, so its line is not known. A field over the csv module's
    limit is a DataError naming the file and the line."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield from reader
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text ({e.reason})") from None
        except csv.Error as e:
            raise DataError(f"{path}: line {reader.line_num}: {e}") from None


def load_csv_dataset(path, text_column: str, label_column: str, cfg: PipelineConfig,
                     vocab: Optional[Vocabulary] = None,
                     class_names: Optional[list] = None) -> tuple[Dataset, Vocabulary]:
    """Read a header-bearing CSV into an encoded Dataset.

    The file must be UTF-8 (a leading BOM is allowed) and no field may
    exceed the csv module's default limit of 131,072 characters; either
    violation is a DataError naming the file.

    Label values map to class indices by first appearance unless
    ``class_names`` pins an existing order (needed when encoding a test
    file against a model's classes). When ``vocab`` is given it is
    reused instead of built, so indices stay comparable across files.
    """
    texts, raw = [], []
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
        texts.append(row[t_i])
        raw.append((rownum, label))
    if not texts:
        raise DataError(f"{path}: no data rows")

    if class_names is None:
        names: list = []
        for _, lab in raw:
            if lab not in names:
                names.append(lab)
    else:
        names = list(class_names)
    known = {n: i for i, n in enumerate(names)}
    labels = []
    for rownum, lab in raw:
        if lab not in known:
            raise DataError(f"{path}: row {rownum}: label {lab!r} is not among the known classes {names}")
        labels.append(known[lab])

    token_lists = [clean(t, cfg) for t in texts]
    if vocab is None:
        vocab = build_vocabulary(token_lists, cfg)
    return _encode_corpus(token_lists, labels, names, vocab, cfg), vocab


def _apportion(counts: list, total: int) -> list:
    """Largest-remainder allocation of ``total`` slots proportional to
    ``counts`` (sum(counts) >= total)."""
    N = sum(counts)
    ideal = [c * total / N for c in counts]
    base = [math.floor(x) for x in ideal]
    leftover = total - sum(base)
    order = sorted(range(len(counts)), key=lambda j: (base[j] - ideal[j], j))
    for j in order[:leftover]:
        base[j] += 1
    return base


def split(dataset: Dataset, train_fraction: Optional[float] = None,
          train_count: Optional[int] = None, test_count: Optional[int] = None,
          seed: int = 0) -> Dataset:
    """Deterministic stratified split; the fractional remainder of each
    class goes to the training side.

    Returns a new Dataset sharing the arrays, with index sets filled;
    give either a fraction in (0, 1) or explicit counts summing to the
    corpus size.
    """
    by_fraction = train_fraction is not None
    by_count = train_count is not None or test_count is not None
    if by_fraction == by_count:
        raise ConfigError("give either train_fraction or train_count/test_count, not both")
    N = len(dataset)
    y = dataset.labels
    C = dataset.n_classes
    class_idx = [np.flatnonzero(y == j) for j in range(C)]
    for j, idx in enumerate(class_idx):
        if idx.size < 2:
            raise DataError(
                f"class {dataset.class_names[j]!r} has {idx.size} example(s); "
                "stratified splitting needs at least 2 per class")

    if by_fraction:
        if not 0.0 < train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
        # the 1e-9 guard keeps exact products like 5 * 0.8 from ceiling up
        take = [math.ceil(idx.size * train_fraction - 1e-9) for idx in class_idx]
    else:
        if train_count is None or test_count is None:
            raise ConfigError("explicit splitting needs both train_count and test_count")
        if train_count < 1 or test_count < 1 or train_count + test_count != N:
            raise ConfigError(
                f"train_count + test_count must equal the corpus size {N}, "
                f"got {train_count} + {test_count}")
        take = _apportion([idx.size for idx in class_idx], train_count)

    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for idx, tc in zip(class_idx, take):
        perm = idx[rng.permutation(idx.size)]
        train_parts.append(perm[:tc])
        test_parts.append(perm[tc:])
    train_idx = np.sort(np.concatenate(train_parts)).astype(np.int64)
    test_idx = np.sort(np.concatenate(test_parts)).astype(np.int64)
    if by_fraction and test_idx.size == 0:
        raise ConfigError(f"train_fraction {train_fraction} leaves an empty test split")
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
        "avg_length": int(dataset.lengths.sum()) / n if n else 0.0,
        "oov_rate": oov / nonpad if nonpad else 0.0,
        "truncated": int(np.count_nonzero(dataset.lengths > dataset.indices.shape[1])),
    }


# ---------------------------------------------------------------------------
# training

class CurvePoint(NamedTuple):
    """One epoch of a learning curve; accuracies are percentages."""
    epoch: int
    train_loss: float
    train_acc: float
    test_loss: float
    test_acc: float


def build_model(cfg: ExperimentConfig, n_classes: int, vocab: Vocabulary,
                rng: Optional[np.random.Generator] = None,
                log=None) -> ClassifierModel:
    """Initialize a classifier for this config over ``vocab``: the
    embedding table has one row per vocabulary entry."""
    cfg.validate()
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    dim = cfg.resolve_embedding_dim(vocab.size)
    if cfg.pretrained_vectors:
        emb, matched = load_pretrained(cfg.pretrained_vectors, vocab, dim, rng)
        if log:
            log(f"pretrained vectors: matched {matched} of {vocab.size} tokens")
    else:
        emb = EmbeddingMatrix.init(vocab.size, dim, rng)
    cell = cells.make_cell(cfg.cell, dim, cfg.hidden_size, rng,
                           literal_mode=cfg.literal_recurrence, peepholes=cfg.peepholes)
    return ClassifierModel.build(emb, cell, cfg.dense_size, cfg.head, n_classes, rng,
                                 vocab_sha=vocab.sha256())


def _eval_loss_acc(model: ClassifierModel, X: np.ndarray, y: np.ndarray,
                   batch_size: int) -> tuple[float, float]:
    if X.shape[0] == 0:
        return float("nan"), float("nan")
    loss_sum = 0.0
    correct = 0
    for b0 in range(0, X.shape[0], batch_size):
        xb = X[b0:b0 + batch_size]
        yb = y[b0:b0 + batch_size]
        probs = forward(model, xb)[0]
        loss_sum += float(loss_values(model, probs, yb).sum())
        correct += int((predict_classes(model, probs) == yb).sum())
    n = X.shape[0]
    return loss_sum / n, correct / n * 100.0


def train(cfg: ExperimentConfig, dataset: Dataset, vocab: Vocabulary, log=None,
          stop_when_train_acc: Optional[float] = None,
          stop_when_test_acc: Optional[float] = None
          ) -> tuple[ClassifierModel, list[CurvePoint]]:
    """Run the full mini-batch loop and record one curve point per epoch.

    Train-side curve values are the running means over the epoch's
    batches (each measured before that batch's update); test-side values
    come from a full pass at the end of the epoch, or NaN when the
    dataset has no test split. ``stop_when_train_acc`` ends training
    early once a full train-split pass reaches the given accuracy (in
    percent), which keeps convergence checks cheap;
    ``stop_when_test_acc`` does the same against the per-epoch test
    accuracy already on the curve.
    """
    cfg.validate()
    if len(dataset) == 0:
        raise ConfigError("dataset is empty")
    model = build_model(cfg, dataset.n_classes, vocab,
                        np.random.default_rng(cfg.seed), log)
    rng_epochs = np.random.default_rng(cfg.seed + 1)
    opt = optim.make_optimizer(cfg.optimizer, cfg.resolved_learning_rate())
    params = model.named_params()

    tr_idx = dataset.train_indices()
    te_idx = dataset.test_indices()
    if tr_idx.size == 0:
        raise ConfigError("training split is empty")
    X, y = dataset.indices, dataset.labels
    Xtr, ytr = X[tr_idx], y[tr_idx]
    Xte, yte = X[te_idx], y[te_idx]

    curve = []
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
                losses = loss_values(model, probs, yb)
                batch_cost = cost(losses)
                if not math.isfinite(batch_cost):
                    raise DivergenceError("training loss is not finite")
                grads = backward(model, trace, yb)
                if cfg.gradient_clip is not None:
                    optim.clip_gradients(grads, cfg.gradient_clip)
                opt.step(params, grads)
            except DivergenceError as e:
                raise DivergenceError(
                    f"diverged at epoch {ep + 1}, batch {bi + 1}: {e}; "
                    "try a lower learning_rate or a gradient_clip") from e
            loss_sum += float(losses.sum())
            correct += int((predict_classes(model, probs) == yb).sum())
        train_loss = loss_sum / tr_idx.size
        train_acc = correct / tr_idx.size * 100.0
        test_loss, test_acc = _eval_loss_acc(model, Xte, yte, B)
        curve.append(CurvePoint(ep + 1, train_loss, train_acc, test_loss, test_acc))
        if log:
            log(f"epoch {ep + 1}/{cfg.epochs}  train_loss {train_loss:.4f}  "
                f"train_acc {train_acc:.2f}  test_loss {test_loss:.4f}  "
                f"test_acc {test_acc:.2f}")
        if stop_when_test_acc is not None and test_acc >= stop_when_test_acc:
            break
        if stop_when_train_acc is not None:
            _, full_acc = _eval_loss_acc(model, Xtr, ytr, B)
            if full_acc >= stop_when_train_acc:
                break
    return model, curve


def evaluate(model: ClassifierModel, dataset: Dataset, which: str = "test",
             batch_size: int = INFERENCE_BATCH_SIZE) -> metrics.EvalReport:
    """Score one split of the dataset.

    Refuses to run when both sides carry a vocabulary hash and they
    differ, since index sequences would then be meaningless to the
    model.
    """
    if model.vocab_sha and dataset.vocab_sha and model.vocab_sha != dataset.vocab_sha:
        raise VocabularyMismatchError(
            f"model was trained with vocabulary {model.vocab_sha[:12]}... but the "
            f"dataset was encoded with {dataset.vocab_sha[:12]}...; re-encode the "
            "data with the model's vocabulary")
    if dataset.n_classes != model.n_classes:
        raise ConfigError(
            f"model has {model.n_classes} classes, dataset names {dataset.n_classes}")
    if which == "train":
        idx = dataset.train_indices()
    elif which == "test":
        idx = dataset.test_indices()
    elif which == "all":
        idx = np.arange(len(dataset))
    else:
        raise ConfigError(f"split must be train, test or all, got {which!r}")
    if idx.size == 0:
        raise ConfigError(f"the {which} split is empty")
    X = dataset.indices[idx]
    y = dataset.labels[idx]
    preds = np.empty(idx.size, dtype=np.int64)
    for b0 in range(0, idx.size, batch_size):
        probs = forward(model, X[b0:b0 + batch_size])[0]
        preds[b0:b0 + batch_size] = predict_classes(model, probs)
    return metrics.scores(metrics.confusion(preds, y, model.n_classes))


def emit_learning_curve(curve: list[CurvePoint], path) -> None:
    """Comma-separated per-epoch table at full float precision."""
    lines = ["epoch,train_loss,train_acc,test_loss,test_acc"]
    for p in curve:
        lines.append(f"{p.epoch},{p.train_loss!r},{p.train_acc!r},{p.test_loss!r},{p.test_acc!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# binary containers

_MAGIC = b"SQTX1\n"
_DTYPES = {"f8": np.float64, "i4": np.int32}


def write_container(path, header: dict, arrays: list) -> None:
    """Deterministic single-file artifact: magic, length-prefixed JSON
    header, raw C-order blocks, then a length + CRC32 trailer.

    ``arrays`` is an ordered list of (name, ndarray); only float64 and
    int32 blocks are stored. No timestamps enter the file, so identical
    inputs give identical bytes.
    """
    manifest = []
    blobs = []
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr)
        if arr.dtype == np.float64:
            code = "f8"
        elif arr.dtype == np.int32:
            code = "i4"
        else:
            raise ConfigError(f"block {name!r} has unsupported dtype {arr.dtype}")
        manifest.append({"name": name, "dtype": code, "shape": list(arr.shape)})
        blobs.append(arr.tobytes(order="C"))
    head = dict(header)
    head["blocks"] = manifest
    hb = json.dumps(head, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = _MAGIC + struct.pack("<Q", len(hb)) + hb + b"".join(blobs)
    trailer = struct.pack("<Q", len(body)) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(trailer)


def read_container(path) -> tuple[dict, dict]:
    """Validated read of write_container output.

    Any truncation, padding, or corruption fails the length or CRC check
    and raises IntegrityError before any array is returned.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(_MAGIC) + 8 + 12:
        raise IntegrityError(f"{path}: file is too short to be a container")
    if not data.startswith(_MAGIC):
        raise IntegrityError(f"{path}: bad magic; not a recognized artifact file")
    body, trailer = data[:-12], data[-12:]
    stated_len, crc = struct.unpack("<QI", trailer)
    if stated_len != len(body):
        raise IntegrityError(
            f"{path}: length mismatch (expected {stated_len} bytes, found {len(body)}); "
            "the file is truncated or padded")
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise IntegrityError(f"{path}: checksum mismatch; the file is corrupt")
    (hlen,) = struct.unpack("<Q", body[6:14])
    hstart = 14
    if hstart + hlen > len(body):
        raise IntegrityError(f"{path}: header overruns the file")
    try:
        head = json.loads(body[hstart:hstart + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise IntegrityError(f"{path}: unreadable header: {e}") from None
    arrays = {}
    offset = hstart + hlen
    for block in head.get("blocks", []):
        dt = _DTYPES.get(block.get("dtype"))
        if dt is None:
            raise IntegrityError(f"{path}: block {block.get('name')!r} has unknown dtype")
        shape = tuple(block["shape"])
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dt).itemsize
        if offset + nbytes > len(body):
            raise IntegrityError(f"{path}: block {block['name']!r} overruns the file")
        arrays[block["name"]] = np.frombuffer(
            body, dtype=dt, count=int(np.prod(shape, dtype=np.int64)), offset=offset
        ).reshape(shape).copy()
        offset += nbytes
    if offset != len(body):
        raise IntegrityError(f"{path}: {len(body) - offset} unexpected trailing bytes")
    return head, arrays


# ---------------------------------------------------------------------------
# checkpoints

@dataclass
class Checkpoint:
    model: ClassifierModel
    config: ExperimentConfig
    class_names: list
    vocab: Vocabulary
    pipeline: PipelineConfig


CHECKPOINT_FORMAT = 4
DATASET_FORMAT = 1
# Header fields each reader uses, with their JSON types.
_CHECKPOINT_HEADER = {
    "config": dict, "class_names": list, "vocab_sha": str, "vocab_text": str,
    "pipeline": dict,
}
_DATASET_HEADER = {
    "class_names": list, "vocab_sha": str, "vocab_text": str,
    "pipeline": dict, "has_split": bool,
}


def _check_header(path, header: dict, kind: str, fmt: int, schema: dict) -> None:
    """Reject an artifact of another kind or format, or whose header lacks
    a field or holds one of the wrong JSON type."""
    if header.get("kind") != kind:
        what = "an encoded dataset" if kind == "dataset" else "a checkpoint"
        raise DataError(f"{path}: this is a {header.get('kind')!r} artifact, not {what}")
    found = header.get("format")
    if type(found) is not int or found != fmt:
        raise IntegrityError(f"{path}: {kind} format {found!r} is not supported "
                             f"(this version reads format {fmt})")
    for name, types in schema.items():
        if not isinstance(header.get(name), types):
            raise IntegrityError(f"{path}: header field {name!r} is missing or has the wrong type")


def _from_header(path, what: str, build, *args):
    """Build an object from header fields; any rejection is an integrity error."""
    try:
        return build(*args)
    except (TypeError, ValueError) as e:
        raise IntegrityError(f"{path}: {what}: {e}") from None


def _check_vocab_hash(path, text: str, sha: str) -> None:
    """Compare the recorded hash with the stored vocabulary text itself.
    Writers store the canonical ``serialize()`` text, so a text in any
    other form is rejected too."""
    if text_sha256(text) != sha:
        raise IntegrityError(f"{path}: embedded vocabulary does not match the recorded hash")


def _disagreement(model: ClassifierModel, cfg: ExperimentConfig) -> Optional[str]:
    """How the model differs from what ``cfg`` builds over its embedding
    table and class count, or None when they agree."""
    cell, emb = model.cell, model.embedding
    if cell.nonlinearity != "tanh":
        return f"no configuration describes a {cell.nonlinearity} {cell.kind} cell"
    for key, want, found in (
            ("cell", cfg.cell, cell.kind),
            ("head", cfg.head, model.head),
            ("head rows", 1 if cfg.head == "sigmoid" else model.n_classes, model.head_W.shape[0]),
            ("literal_recurrence", cfg.literal_recurrence, cell.literal_mode),
            ("hidden_size", cfg.hidden_size, cell.hidden_size),
            ("embedding_dim", cfg.resolve_embedding_dim(emb.vocab_size), emb.dim),
            ("dense_size", cfg.dense_size, model.dense_W.shape[0]),
            ("peepholes", cfg.cell == "lstm" and cfg.peepholes, cell.V is not None)):
        if found != want:
            return f"the config calls for {key} {want!r}, but the model has {found!r}"
    return None


def save_checkpoint(path, model: ClassifierModel, config: ExperimentConfig,
                    class_names: list, vocab: Vocabulary,
                    pipeline_cfg: PipelineConfig) -> None:
    """Store the model's blocks beside the settings that describe them;
    a model that they do not describe is refused."""
    sha = vocab.sha256()
    problem = _disagreement(model, config)
    if model.n_classes != len(class_names):
        problem = f"the model scores {model.n_classes} classes, but {len(class_names)} are named"
    if model.vocab_sha not in (None, sha):
        problem = "the model was built over another vocabulary"
    if problem is not None:
        raise ConfigError(f"cannot store this model: {problem}")
    header = {
        "kind": "checkpoint",
        "format": CHECKPOINT_FORMAT,
        "config": config.to_dict(),
        "class_names": list(class_names),
        "vocab_sha": sha,
        "vocab_text": vocab.serialize(),
        "pipeline": pipeline_cfg.to_dict(),
    }
    write_container(path, header, model.state_blocks())


def load_checkpoint(path) -> Checkpoint:
    """Rebuild a stored model from its blocks, its config and its class
    names; blocks that disagree with them are an integrity error."""
    header, arrays = read_container(path)
    _check_header(path, header, "checkpoint", CHECKPOINT_FORMAT, _CHECKPOINT_HEADER)
    missing = sorted(_CONFIG_FIELD_NAMES - set(header["config"]))
    if missing:
        raise IntegrityError(f"{path}: config lacks {', '.join(missing)}")
    cfg = _from_header(path, "config", ExperimentConfig.from_dict, header["config"])
    names = header["class_names"]
    _from_header(path, "class_names", _check_class_names, names)

    def block(name):
        if name not in arrays:
            raise IntegrityError(f"{path}: parameter block {name!r} is missing")
        return arrays[name]

    cell_blocks = {n[len("cell."):]: a for n, a in arrays.items() if n.startswith("cell.")}
    cell = _from_header(path, "cell", lambda: cells.Cell(
        kind=cfg.cell, literal_mode=cfg.literal_recurrence, **cell_blocks))
    emb = EmbeddingMatrix(weights=block("embedding.weights"))
    model = ClassifierModel(
        embedding=emb, cell=cell,
        dense_W=block("dense.W"), dense_b=block("dense.b"),
        head_W=block("head.W"), head_b=block("head.b"),
        head=cfg.head, n_classes=len(names), vocab_sha=header["vocab_sha"],
    )
    _from_header(path, "head", validate_head, model.head, model.n_classes)
    if (emb.weights.ndim != 2 or emb.dim != cell.input_size
            or model.dense_W.shape[1:] != (cell.hidden_size,)
            or model.head_W.shape[1:] != model.dense_W.shape[:1]):
        raise IntegrityError(f"{path}: parameter shapes do not form a consistent model")
    _check_vocab_hash(path, header["vocab_text"], model.vocab_sha)
    vocab = _from_header(path, "vocabulary", Vocabulary.from_text, header["vocab_text"])
    if vocab.size != emb.vocab_size:
        raise IntegrityError(f"{path}: the embedding table has {emb.vocab_size} rows but "
                             f"the embedded vocabulary has {vocab.size} entries")
    problem = _disagreement(model, cfg)
    if problem is not None:
        raise IntegrityError(f"{path}: {problem}")
    pipe = _from_header(path, "pipeline", PipelineConfig.from_dict, header["pipeline"])
    return Checkpoint(model=model, config=cfg, class_names=list(names),
                      vocab=vocab, pipeline=pipe)


# ---------------------------------------------------------------------------
# encoded-dataset artifacts

def save_dataset(path, dataset: Dataset, vocab: Vocabulary,
                 pipeline_cfg: PipelineConfig) -> None:
    header = {
        "kind": "dataset",
        "format": DATASET_FORMAT,
        "class_names": list(dataset.class_names),
        "vocab_sha": vocab.sha256(),
        "vocab_text": vocab.serialize(),
        "pipeline": pipeline_cfg.to_dict(),
        "has_split": dataset.train_idx is not None and dataset.test_idx is not None,
    }
    blocks = [("indices", dataset.indices), ("labels", dataset.labels),
              ("original_lengths", dataset.lengths)]
    if header["has_split"]:
        blocks += [("train_idx", dataset.train_idx), ("test_idx", dataset.test_idx)]
    write_container(path, header, [(n, np.asarray(a, dtype=np.int32)) for n, a in blocks])


def load_dataset(path) -> tuple[Dataset, Vocabulary, PipelineConfig]:
    header, arrays = read_container(path)
    _check_header(path, header, "dataset", DATASET_FORMAT, _DATASET_HEADER)
    split_blocks = ("train_idx", "test_idx") if header["has_split"] else ()
    for name in ("indices", "labels", "original_lengths") + split_blocks:
        if name not in arrays or arrays[name].dtype != np.int32:
            raise IntegrityError(f"{path}: int32 block {name!r} is missing")
    _check_vocab_hash(path, header["vocab_text"], header["vocab_sha"])
    vocab = _from_header(path, "vocabulary", Vocabulary.from_text, header["vocab_text"])
    pipe = _from_header(path, "pipeline", PipelineConfig.from_dict, header["pipeline"])
    train_idx = test_idx = None
    if split_blocks:
        train_idx, test_idx = (arrays[n].astype(np.int64) for n in split_blocks)
    ds = _from_header(path, "dataset", lambda: Dataset(
        indices=arrays["indices"], labels=arrays["labels"].astype(np.int64),
        lengths=arrays["original_lengths"], class_names=list(header["class_names"]),
        train_idx=train_idx, test_idx=test_idx, vocab_sha=header["vocab_sha"]))
    bad = (ds.indices < 0) | (ds.indices >= vocab.size)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise IntegrityError(f"{path}: row {row} holds token index {ds.indices[row, col]}, "
                             f"outside the vocabulary range [0, {vocab.size})")
    return ds, vocab, pipe


# ---------------------------------------------------------------------------
# synthetic corpora

def _synthetic_token_lists(rng: np.random.Generator, n_docs: int, n_classes: int,
                           tokens_per_class: int, filler_tokens: int,
                           signal_rate: float, noise_rate: float,
                           min_len: int, max_len: int, zipf_filler: bool):
    """Balanced labeled token lists where class j is marked by tokens
    from its own 20-token set; filler is shared and carries no signal.

    Every document is guaranteed at least two own-class tokens, so the
    classes stay strictly separable even with cross-class noise.
    """
    class_tokens = [[f"sig{j}w{k:02d}" for k in range(tokens_per_class)]
                    for j in range(n_classes)]
    filler = [f"fill{k:04d}" for k in range(filler_tokens)]
    if zipf_filler:
        weights = 1.0 / np.arange(1, filler_tokens + 1)
        filler_cum = np.cumsum(weights / weights.sum())
    else:
        filler_cum = None
    token_lists, labels = [], []
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
        token_lists.append(toks)
        labels.append(j)
    names = ["neg", "pos"] if n_classes == 2 else [f"class{j}" for j in range(n_classes)]
    return token_lists, labels, names


def make_synthetic_corpus(n_docs: int, n_classes: int, seed: int, *,
                          tokens_per_class: int = 20, filler_tokens: int = 40,
                          signal_rate: float = 0.35, noise_rate: float = 0.0,
                          min_len: int = 10, max_len: int = 40,
                          pad_len: Optional[int] = None, zipf_filler: bool = False
                          ) -> tuple[Dataset, Vocabulary, PipelineConfig]:
    """Seeded separable corpus, already encoded. Returns the dataset
    (without a split), its vocabulary, and the pipeline config used."""
    rng = np.random.default_rng(seed)
    token_lists, labels, names = _synthetic_token_lists(
        rng, n_docs, n_classes, tokens_per_class, filler_tokens,
        signal_rate, noise_rate, min_len, max_len, zipf_filler)
    cfg = PipelineConfig(vocab_size=2 + n_classes * tokens_per_class + filler_tokens,
                         max_len=pad_len or max_len)
    vocab = build_vocabulary(token_lists, cfg)
    return _encode_corpus(token_lists, labels, names, vocab, cfg), vocab, cfg


def make_synthetic_csv(path, n_docs: int, n_classes: int, seed: int, *,
                       tokens_per_class: int = 20, filler_tokens: int = 200,
                       signal_rate: float = 0.2, noise_rate: float = 0.05,
                       min_len: int = 30, max_len: int = 120,
                       zipf_filler: bool = True,
                       text_column: str = "text", label_column: str = "label") -> None:
    """Write a raw-text CSV version of the synthetic corpus, with light
    punctuation so the cleaning stage has something to strip."""
    rng = np.random.default_rng(seed)
    token_lists, labels, names = _synthetic_token_lists(
        rng, n_docs, n_classes, tokens_per_class, filler_tokens,
        signal_rate, noise_rate, min_len, max_len, zipf_filler)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([text_column, label_column])
        for toks, lab in zip(token_lists, labels):
            pieces = []
            for k, t in enumerate(toks):
                pieces.append(t + ("," if k % 9 == 8 else ""))
            writer.writerow([" ".join(pieces) + ".", names[lab]])
