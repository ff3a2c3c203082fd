"""Confusion tallies, per-class scores, and report formatting."""

import numpy as np
import pytest

from seqtext import metrics
from seqtext.errors import ConfigError, ShapeError

from helpers import brute_force_scores_oracle


class TestF1:
    # hand-checked harmonic means, two decimals
    @pytest.mark.parametrize(
        "p, r, expected",
        [
            (88.30, 85.10, 86.67),
            (87.51, 84.19, 85.82),
            (86.27, 84.40, 85.32),
            (100.0, 100.0, 100.0),
            (50.0, 50.0, 50.0),
        ],
    )
    def test_fixtures(self, p, r, expected):
        assert metrics.f1_score(p, r) == pytest.approx(expected, abs=0.01)

    def test_zero_inputs(self):
        assert metrics.f1_score(0.0, 0.0) == 0.0
        assert metrics.f1_score(0.0, 80.0) == 0.0
        assert metrics.f1_score(80.0, 0.0) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p, r = rng.uniform(0.0, 100.0, size=2)
            assert metrics.f1_score(p, r) == metrics.f1_score(r, p)

    def test_between_min_and_max(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p, r = rng.uniform(1.0, 100.0, size=2)
            f = metrics.f1_score(p, r)
            assert min(p, r) <= f + 1e-9
            assert f <= max(p, r) + 1e-9


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        labels = [0, 1, 2, 1, 0, 2, 2]
        cm = metrics.confusion(labels, labels, 3)
        assert cm.tolist() == [[2, 0, 0], [0, 2, 0], [0, 0, 3]]

    def test_hand_tally(self):
        # rows are true classes, columns predicted
        cm = metrics.confusion([1, 0, 0, 1], [1, 1, 0, 0], 2)
        assert cm.tolist() == [[1, 1], [1, 1]]

    def test_constant_predictor_fills_one_column(self):
        labels = [0, 1, 2, 0, 1]
        cm = metrics.confusion([2] * 5, labels, 3)
        assert cm[:, 2].tolist() == [2, 2, 1]
        assert cm.sum() == cm[:, 2].sum()

    def test_total_equals_sample_count(self):
        rng = np.random.default_rng(7)
        preds = rng.integers(0, 4, size=100)
        labels = rng.integers(0, 4, size=100)
        assert metrics.confusion(preds, labels, 4).sum() == 100

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            metrics.confusion([0, 1], [0, 1, 1], 2)

    def test_two_dimensional_rejected(self):
        with pytest.raises(ShapeError):
            metrics.confusion([[0, 1]], [[0, 1]], 2)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            metrics.confusion([], [], 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            metrics.confusion([0, 2], [0, 1], 2)
        with pytest.raises(ConfigError):
            metrics.confusion([0, 1], [-1, 1], 2)


class TestScores:
    def test_uniform_confusion(self):
        rep = metrics.scores(np.array([[1, 1], [1, 1]]))
        assert rep.accuracy == pytest.approx(50.0)
        assert rep.precision == pytest.approx([50.0, 50.0])
        assert rep.recall == pytest.approx([50.0, 50.0])
        assert rep.f1 == pytest.approx([50.0, 50.0])
        assert rep.support == [2, 2]
        assert rep.macro_f1 == pytest.approx(50.0)
        assert rep.weighted_f1 == pytest.approx(50.0)
        assert not rep.zero_division

    def test_accuracy_is_trace_over_total(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            cm = rng.integers(0, 9, size=(4, 4))
            if cm.sum() == 0:
                continue
            rep = metrics.scores(cm)
            assert rep.accuracy == pytest.approx(np.trace(cm) / cm.sum() * 100.0)

    def test_perfect_scores(self):
        rep = metrics.scores(np.diag([3, 4, 5]))
        assert rep.accuracy == 100.0
        assert rep.precision == [100.0] * 3
        assert rep.recall == [100.0] * 3
        assert rep.f1 == [100.0] * 3
        assert rep.support == [3, 4, 5]

    def test_zero_division_flag(self):
        # class 1 never predicted and never true in column/row respectively
        rep = metrics.scores(np.array([[2, 0], [1, 0]]))
        assert rep.zero_division
        assert rep.precision[1] == 0.0
        assert rep.f1[1] == 0.0
        clean = metrics.scores(np.diag([2, 2]))
        assert not clean.zero_division

    def test_weighted_uses_support(self):
        cm = np.array([[8, 2], [0, 0]])
        rep = metrics.scores(cm)
        # all ten samples are class 0, so weighted recall is class 0 recall
        assert rep.weighted_recall == pytest.approx(rep.recall[0])
        assert rep.macro_recall == pytest.approx(rep.recall[0] / 2.0)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            metrics.scores(np.zeros((2, 3)))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ConfigError):
            metrics.scores(np.zeros((3, 3)))

    def test_headline_binary_is_positive_class(self):
        cm = np.array([[5, 2], [1, 4]])
        rep = metrics.scores(cm)
        p, r, f = rep.headline()
        assert p == pytest.approx(rep.precision[1])
        assert r == pytest.approx(rep.recall[1])
        assert f == pytest.approx(rep.f1[1])

    def test_headline_multiclass_aggregates(self):
        cm = np.array([[3, 1, 0], [0, 4, 1], [1, 0, 2]])
        rep = metrics.scores(cm)
        assert rep.headline() == (rep.macro_precision, rep.macro_recall, rep.macro_f1)


def _reports_equal(a, b):
    if a.precision != b.precision or a.recall != b.recall or a.f1 != b.f1:
        return False
    if a.support != b.support or a.accuracy != b.accuracy:
        return False
    if (a.macro_precision, a.macro_recall, a.macro_f1) != (
        b.macro_precision,
        b.macro_recall,
        b.macro_f1,
    ):
        return False
    if (a.weighted_precision, a.weighted_recall, a.weighted_f1) != (
        b.weighted_precision,
        b.weighted_recall,
        b.weighted_f1,
    ):
        return False
    return (a.confusion == b.confusion).all() and a.zero_division == b.zero_division


class TestOracleEquivalence:
    def test_matches_pairwise_counting_exactly(self):
        # 1000 random evaluations, no tolerance: identical arithmetic order
        rng = np.random.default_rng(11)
        for _ in range(1000):
            C = int(rng.integers(2, 7))
            n = int(rng.integers(1, 60))
            preds = rng.integers(0, C, size=n)
            labels = rng.integers(0, C, size=n)
            fast = metrics.scores(metrics.confusion(preds, labels, C))
            slow = brute_force_scores_oracle(preds, labels, C)
            assert _reports_equal(fast, slow)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        preds = rng.integers(0, 3, size=40)
        labels = rng.integers(0, 3, size=40)
        base = metrics.scores(metrics.confusion(preds, labels, 3))
        for _ in range(10):
            order = rng.permutation(40)
            rep = metrics.scores(metrics.confusion(preds[order], labels[order], 3))
            assert _reports_equal(base, rep)

    def test_binary_accuracy_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(2, 50))
            preds = rng.integers(0, 2, size=n)
            labels = rng.integers(0, 2, size=n)
            cm = metrics.confusion(preds, labels, 2)
            rep = metrics.scores(cm)
            tp, tn = cm[1, 1], cm[0, 0]
            assert rep.accuracy == pytest.approx((tp + tn) / n * 100.0)


class TestFormatting:
    def _sample_report(self):
        return metrics.scores(np.array([[5, 2], [1, 4]]))

    def test_table_headline_row(self):
        rep = self._sample_report()
        text = metrics.format_report(rep, ["neg", "pos"])
        lines = text.splitlines()
        assert lines[0].split() == ["Accuracy", "Precision", "Recall", "F1", "Score"]
        p, r, f = rep.headline()
        assert lines[1].split() == [
            f"{rep.accuracy:.2f}",
            f"{p:.2f}",
            f"{r:.2f}",
            f"{f:.2f}",
        ]

    def test_table_lists_class_rows_and_confusion(self):
        text = metrics.format_report(self._sample_report(), ["neg", "pos"])
        assert "neg" in text
        assert "pos" in text
        assert "confusion (rows = true, cols = predicted):" in text

    def test_zero_division_warning_line(self):
        rep = metrics.scores(np.array([[2, 0], [1, 0]]))
        assert "zero-denominator" in metrics.format_report(rep, ["neg", "pos"])
        clean = metrics.format_report(self._sample_report(), ["neg", "pos"])
        assert "zero-denominator" not in clean

    def test_class_names_label_rows_and_columns(self):
        names = ["red", "green", "blue"]
        lines = metrics.format_report(metrics.scores(np.diag([1, 2, 3])), names).splitlines()
        assert [line.split()[0] for line in lines[4:7]] == names
        at = lines.index("confusion (rows = true, cols = predicted):")
        assert lines[at + 1].split() == names
        assert [line.split()[0] for line in lines[at + 2:at + 5]] == names

    def test_metrics_lines_round_trip_full_precision(self):
        rep = self._sample_report()
        text = metrics.metrics_lines(rep, ["neg", "pos"])
        got = {}
        for line in text.strip().splitlines():
            key, _, value = line.partition("=")
            got[key] = value
        # repr round trip preserves every bit of the float
        assert float(got["accuracy"]) == rep.accuracy
        assert float(got["f1"]) == rep.f1[1]
        assert float(got["macro_f1"]) == rep.macro_f1
        assert float(got["weighted_f1"]) == rep.weighted_f1
        assert float(got["precision_pos"]) == rep.precision[1]
        assert int(got["support_neg"]) == rep.support[0]
        assert got["zero_division"] == "0"

    def test_metrics_lines_multiclass_omits_binary_headline(self):
        rep = metrics.scores(np.diag([2, 2, 2]))
        text = metrics.metrics_lines(rep, ["0", "1", "2"])
        keys = [line.partition("=")[0] for line in text.splitlines()]
        assert "precision" not in keys
        assert "macro_precision" in keys
        assert "precision_0" in keys

    def test_write_metrics_matches_lines(self, tmp_path):
        rep = self._sample_report()
        path = tmp_path / "metrics.txt"
        metrics.write_metrics(rep, path, ["neg", "pos"])
        assert path.read_text(encoding="utf-8") == metrics.metrics_lines(rep, ["neg", "pos"])
