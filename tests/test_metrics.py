import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisosdm import metrics


def auc_pair_counting(scores, labels):
    """O(n^2) oracle: fraction of (pos, neg) pairs ranked correctly, ties 1/2."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        return None
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


class TestAUC:
    def test_perfect_ranking(self):
        assert metrics.auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_anti_ranking(self):
        assert metrics.auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_degenerate_returns_none(self):
        assert metrics.auc([0.1, 0.9], [1, 1]) is None
        assert metrics.auc([0.1, 0.9], [0, 0]) is None

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = 50
            scores = rng.choice(np.linspace(0, 1, 17), size=n)  # force ties
            labels = rng.integers(0, 2, size=n)
            expected = auc_pair_counting(scores, labels)
            got = metrics.auc(scores, labels)
            if expected is None:
                assert got is None
            else:
                assert abs(got - expected) < 1e-12
        tied = np.full(12, 0.25)  # one run of ties spanning every score
        labels = np.arange(12) % 2
        assert metrics.auc(tied, labels) == auc_pair_counting(tied, labels) == 0.5

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_rank_invariance_under_increasing_transform(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=30)
        labels = rng.integers(0, 2, size=30)
        if labels.min() == labels.max():
            return
        a = metrics.auc(scores, labels)
        b = metrics.auc(np.exp(2.0 * scores) + 5.0, labels)
        assert a == pytest.approx(b, abs=1e-12)


class TestErrors:
    def test_exact_prediction(self):
        t = np.array([[0.2, 0.4]])
        mask = np.ones((1, 2), bool)
        assert metrics.mae(t, t, mask) == 0.0
        assert metrics.mse(t, t, mask) == 0.0

    def test_constant_offset(self):
        truth = np.array([[0.1, 0.2], [0.3, 0.4]])
        pred = truth + 0.1
        mask = np.ones((2, 2), bool)
        assert metrics.mae(pred, truth, mask) == pytest.approx(0.1)
        assert metrics.mse(pred, truth, mask) == pytest.approx(0.01)

    def test_empty_mask_errors(self):
        with pytest.raises(ValueError):
            metrics.mae(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2), bool))

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            pred = rng.random((6, 5))
            truth = rng.random((6, 5))
            mask = rng.random((6, 5)) < 0.6
            if not mask.any():
                continue
            cells = [(i, j) for i in range(6) for j in range(5) if mask[i, j]]
            naive_mae = sum(abs(pred[i, j] - truth[i, j]) for i, j in cells) / len(cells)
            naive_mse = sum((pred[i, j] - truth[i, j]) ** 2 for i, j in cells) / len(cells)
            assert abs(metrics.mae(pred, truth, mask) - naive_mae) < 1e-12
            assert abs(metrics.mse(pred, truth, mask) - naive_mse) < 1e-12

    def test_jensen_mse_at_least_mae_squared(self):
        rng = np.random.default_rng(2)
        pred = rng.random((20, 8))
        truth = rng.random((20, 8))
        mask = np.ones((20, 8), bool)
        assert metrics.mse(pred, truth, mask) >= metrics.mae(pred, truth, mask) ** 2


def topk_enumeration(pred, truth, mask):
    """Oracle: enumerate candidate top-k sets per location."""
    scores = []
    for i in range(pred.shape[0]):
        cols = [j for j in range(pred.shape[1]) if mask[i, j]]
        positives = {j for j in cols if truth[i, j] > 0}
        k = len(positives)
        if k == 0:
            continue
        ranked = sorted(cols, key=lambda j: (-pred[i, j], j))
        best = set(ranked[:k])
        scores.append(len(best & positives) / k)
    if not scores:
        raise ValueError("no locations with positive species")
    return float(np.mean(scores) * 100.0)


def topn_bruteforce(pred, truth, mask, n):
    """Oracle: rank each location's scored species by hand; raises where topn_fixed must."""
    scores = []
    for i in range(pred.shape[0]):
        cols = [j for j in range(pred.shape[1]) if mask[i, j]]
        if cols and len(cols) < n:
            raise ValueError("n exceeds the scored species")
        positives = {j for j in cols if truth[i, j] > 0}
        if not positives:
            continue
        ranked = sorted(cols, key=lambda j: (-pred[i, j], j))
        scores.append(len(set(ranked[:n]) & positives) / min(n, len(positives)))
    if not scores:
        raise ValueError("no locations with positive species")
    return float(np.mean(scores) * 100.0)


def outcome(fn, *args):
    """The value of `fn(*args)`, or the string "ValueError" if it raises one."""
    try:
        return fn(*args)
    except ValueError:
        return "ValueError"


def assert_same_outcome(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert abs(got - want) < 1e-12


class TestTopK:
    def test_perfect_predictions(self):
        truth = np.array([[0.5, 0.0, 0.3], [0.0, 0.9, 0.0]])
        mask = np.ones((2, 3), bool)
        assert metrics.topk_adaptive(truth, truth, mask) == 100.0

    def test_half_right(self):
        pred = np.array([[0.9, 0.8, 0.1, 0.0]])
        truth = np.array([[1.0, 0.0, 1.0, 0.0]])
        mask = np.ones((1, 4), bool)
        assert metrics.topk_adaptive(pred, truth, mask) == 50.0

    def test_tie_breaks_toward_lower_species_index(self):
        pred = np.array([[0.5, 0.5, 0.5]])
        truth = np.array([[1.0, 0.0, 0.0]])
        mask = np.ones((1, 3), bool)
        assert metrics.topk_adaptive(pred, truth, mask) == 100.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        pred = rng.random((10, 6))
        truth = (rng.random((10, 6)) < 0.4).astype(float)
        mask = np.ones((10, 6), bool)
        a = metrics.topk_adaptive(pred, truth, mask)
        b = metrics.topk_adaptive(pred + 3.7, truth, mask)
        assert a == b

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(4)
        raised = 0
        for _ in range(100):
            pred = rng.choice(np.linspace(0, 1, 7), size=(5, 6))
            truth = (rng.random((5, 6)) < rng.choice([0.05, 0.5])).astype(float)
            mask = rng.random((5, 6)) < 0.8
            mask[rng.integers(5)] = rng.random() < 0.5  # sometimes an all-false row
            want = outcome(topk_enumeration, pred, truth, mask)
            assert_same_outcome(outcome(metrics.topk_adaptive, pred, truth, mask), want)
            raised += want == "ValueError"
        assert 0 < raised < 100


class TestTopN:
    def test_perfect(self):
        rng = np.random.default_rng(5)
        truth = (rng.random((4, 12)) < 0.4).astype(float)
        truth[0, 0] = 1.0  # ensure a positive row
        pred = truth.copy()
        mask = np.ones((4, 12), bool)
        assert metrics.topn_fixed(pred, truth, mask, 10) == 100.0

    def test_disjoint(self):
        pred = np.zeros((1, 12))
        pred[0, :10] = np.linspace(1, 2, 10)
        truth = np.zeros((1, 12))
        truth[0, 10:] = 1.0
        assert metrics.topn_fixed(pred, truth, np.ones((1, 12), bool), 10) == 0.0

    def test_n_larger_than_targets_errors(self):
        with pytest.raises(ValueError):
            metrics.topn_fixed(np.zeros((1, 4)), np.ones((1, 4)), np.ones((1, 4), bool), 10)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(6)
        n = 3
        raised = 0
        for _ in range(200):
            pred = rng.choice(np.linspace(0, 1, 5), size=(4, 7))
            truth = (rng.random((4, 7)) < 0.5).astype(float)
            # Full and partial masks, some rows all false, some with fewer than n scored species.
            mask = rng.random((4, 7)) < rng.choice([0.5, 0.8, 1.0])
            mask[rng.integers(4)] = rng.random() < 0.5
            want = outcome(topn_bruteforce, pred, truth, mask, n)
            assert_same_outcome(outcome(metrics.topn_fixed, pred, truth, mask, n), want)
            raised += want == "ValueError"
        assert 0 < raised < 200


class TestEvalReport:
    def test_aggregates_recomputable_and_json_roundtrip(self):
        rng = np.random.default_rng(7)
        pred = rng.random((20, 12))
        truth = rng.choice([0.0, 0.1, 0.6], size=(20, 12))
        available = rng.random((20, 12)) < 0.9
        target = np.ones(12, bool)
        species = [f"s{i}" for i in range(12)]
        report = metrics.evaluate_matrix(pred, truth, available, target, species, "proto", "rates")
        assert report.aggregates["mae_x100"] == pytest.approx(metrics.mae(pred, truth, available) * 100)
        assert 0 <= report.aggregates["topk_pct"] <= 100
        back = json.loads(report.to_json())
        assert back["aggregates"] == report.aggregates
        assert back["per_species"] == report.per_species

    def test_binary_report_uses_auc(self):
        rng = np.random.default_rng(8)
        truth = (rng.random((30, 5)) < 0.5).astype(float)
        pred = np.clip(truth + rng.normal(0, 0.3, truth.shape), 0, 1)
        report = metrics.evaluate_matrix(
            pred, truth, np.ones((30, 5), bool), np.ones(5, bool), [f"s{i}" for i in range(5)], "p", "binary"
        )
        assert "auc_pct" in report.aggregates
        assert report.aggregates["auc_pct"] > 50.0

    def test_table_formatter_lists_all_protocols(self):
        r1 = metrics.EvalReport(protocol="a", kind="rates", aggregates={"mae_x100": 1.5, "topk_pct": 70.0})
        r2 = metrics.EvalReport(protocol="b", kind="rates", aggregates={"mae_x100": 1.2, "topk_pct": 72.0})
        table = metrics.format_report_table([r1, r2])
        assert "a" in table and "b" in table and "mae_x100" in table
