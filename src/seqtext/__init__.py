"""Recurrent text classifiers (RNN / LSTM / GRU) on plain numpy.

The package covers the whole path from raw labeled text to scored
predictions: cleaning and vocabulary building, trainable embeddings,
three recurrent cells with exact hand-derived gradients, a dense + head
classifier, mini-batch training with SGD / RMSProp / Adam, and
confusion-matrix metrics. Everything is deterministic under a seed.
"""

from .cells import Cell, make_cell, run_sequence
from .embedding import embedding_dim_heuristic, load_pretrained
from .engine import (Checkpoint, Dataset, ExperimentConfig, build_model,
                     corpus_stats, emit_learning_curve, evaluate, load_checkpoint,
                     load_csv_dataset, load_dataset, make_synthetic_csv,
                     save_checkpoint, save_dataset, split, train, train_epochs)
from .errors import (ConfigError, DataError, DivergenceError, IntegrityError,
                     ShapeError, VocabularyMismatchError)
from .metrics import EvalReport, confusion, format_report, scores
from .model import ClassifierModel, bce_loss, cce_loss, cost, forward, softmax
from .pipeline import PipelineConfig, Vocabulary, build_vocabulary, clean, encode

__version__ = "0.1.0"

__all__ = [
    "Cell", "make_cell", "run_sequence",
    "embedding_dim_heuristic", "load_pretrained",
    "Checkpoint", "Dataset", "ExperimentConfig",
    "build_model", "corpus_stats", "emit_learning_curve", "evaluate", "load_checkpoint",
    "load_csv_dataset", "load_dataset", "make_synthetic_csv",
    "save_checkpoint", "save_dataset", "split", "train", "train_epochs",
    "ConfigError", "DataError", "DivergenceError", "IntegrityError",
    "ShapeError", "VocabularyMismatchError",
    "EvalReport", "confusion", "format_report", "scores",
    "ClassifierModel", "bce_loss", "cce_loss", "cost", "forward", "softmax",
    "PipelineConfig", "Vocabulary", "build_vocabulary", "clean", "encode",
    "__version__",
]
