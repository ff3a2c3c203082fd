"""Confusion matrices and accuracy / precision / recall / F1 reporting.

All scores are percentages. Per-class precision is the correct count
over the predicted-class column, recall over the true-class row, F1
their harmonic mean; zero denominators score 0 and set a flag. The
macro aggregate is the unweighted class mean, the weighted one is
support-weighted. For binary reports, class 1 is the positive class and
the headline precision/recall/F1 refer to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass
class EvalReport:
    accuracy: float
    precision: list            # per class, percent
    recall: list
    f1: list
    support: list              # true-class counts
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    confusion: np.ndarray
    zero_division: bool = False

    def headline(self) -> tuple:
        """(precision, recall, f1) for table output: the positive class
        for binary reports, otherwise the macro aggregate."""
        if len(self.precision) == 2:
            return self.precision[1], self.recall[1], self.f1[1]
        return self.macro_precision, self.macro_recall, self.macro_f1


def confusion(preds, labels, n_classes: int) -> np.ndarray:
    """Tally matrix with entry (i, j) = count of true class i predicted
    as class j."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise ShapeError(f"predictions {preds.shape} and labels {labels.shape} must be equal-length 1-D")
    if preds.size == 0:
        raise ConfigError("cannot tally an empty evaluation")
    for name, a in (("prediction", preds), ("label", labels)):
        if (a < 0).any() or (a >= n_classes).any():
            raise ConfigError(f"{name} out of range [0, {n_classes})")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (labels, preds), 1)
    return cm


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean; 0 when both inputs are 0."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def scores(cm: np.ndarray) -> EvalReport:
    """Full report from a confusion matrix."""
    cm = np.asarray(cm, dtype=np.int64)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ShapeError(f"confusion matrix must be square, got {cm.shape}")
    total = int(cm.sum())
    if total == 0:
        raise ConfigError("confusion matrix is empty")
    C = cm.shape[0]
    tp = np.diag(cm).tolist()
    predicted = cm.sum(axis=0).tolist()
    support = cm.sum(axis=1).tolist()
    precision = [t / n * 100.0 if n else 0.0 for t, n in zip(tp, predicted)]
    recall = [t / n * 100.0 if n else 0.0 for t, n in zip(tp, support)]
    f1 = [f1_score(p, r) for p, r in zip(precision, recall)]
    acc = sum(tp) / total * 100.0
    wp = sum(p * n for p, n in zip(precision, support)) / total
    wr = sum(r * n for r, n in zip(recall, support)) / total
    wf = sum(f * n for f, n in zip(f1, support)) / total
    return EvalReport(
        accuracy=acc,
        precision=precision, recall=recall, f1=f1, support=support,
        macro_precision=sum(precision) / C,
        macro_recall=sum(recall) / C,
        macro_f1=sum(f1) / C,
        weighted_precision=wp, weighted_recall=wr, weighted_f1=wf,
        confusion=cm,
        zero_division=0 in predicted or 0 in support,
    )


def format_report(report: EvalReport, class_names) -> str:
    """Human-readable table: Accuracy, Precision, Recall, F1 Score at two
    decimals, plus per-class rows and the confusion matrix."""
    C = len(report.precision)
    p, r, f = report.headline()
    lines = []
    lines.append(f"{'Accuracy':>10} {'Precision':>10} {'Recall':>10} {'F1 Score':>10}")
    lines.append(f"{report.accuracy:>10.2f} {p:>10.2f} {r:>10.2f} {f:>10.2f}")
    lines.append("")
    lines.append(f"{'class':>16} {'precision':>10} {'recall':>10} {'f1':>10} {'support':>8}")
    for j in range(C):
        lines.append(
            f"{class_names[j]:>16} {report.precision[j]:>10.2f} {report.recall[j]:>10.2f} "
            f"{report.f1[j]:>10.2f} {report.support[j]:>8d}"
        )
    lines.append("")
    lines.append("confusion (rows = true, cols = predicted):")
    width = max(len(n) for n in [*class_names, "true\\pred"])
    cell = max(6, max(len(str(int(v))) for v in report.confusion.reshape(-1)))
    header = " " * (width + 1) + " ".join(f"{n[:cell]:>{cell}}" for n in class_names)
    lines.append(header)
    for jname, row in zip(class_names, report.confusion):
        lines.append(f"{jname:>{width}} " + " ".join(f"{int(v):>{cell}d}" for v in row))
    if report.zero_division:
        lines.append("")
        lines.append("warning: a zero-denominator precision/recall was reported as 0")
    return "\n".join(lines) + "\n"


def metrics_lines(report: EvalReport, class_names) -> str:
    """Machine-readable 'name=value' lines, full precision."""
    C = len(report.precision)
    out = [f"accuracy={report.accuracy!r}"]
    if C == 2:
        p, r, f = report.headline()
        out += [f"precision={p!r}", f"recall={r!r}", f"f1={f!r}"]
    out += [
        f"macro_precision={report.macro_precision!r}",
        f"macro_recall={report.macro_recall!r}",
        f"macro_f1={report.macro_f1!r}",
        f"weighted_precision={report.weighted_precision!r}",
        f"weighted_recall={report.weighted_recall!r}",
        f"weighted_f1={report.weighted_f1!r}",
    ]
    for j in range(C):
        tag = class_names[j].replace(" ", "_")
        out += [
            f"precision_{tag}={report.precision[j]!r}",
            f"recall_{tag}={report.recall[j]!r}",
            f"f1_{tag}={report.f1[j]!r}",
            f"support_{tag}={report.support[j]}",
        ]
    out.append(f"zero_division={int(report.zero_division)}")
    return "\n".join(out) + "\n"


def write_metrics(report: EvalReport, path, class_names) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(metrics_lines(report, class_names))
