from dataclasses import asdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cisosdm import features, read_json, write_json


def scalar_expand(x, cfg):
    """Straight-line per-scalar oracle for one row."""
    out = []
    clamped = {}
    for v in cfg.kept:
        lo, hi = cfg.lo[v], cfg.hi[v]
        val = min(max(x[v], lo), hi)
        clamped[v] = val
        out.append(val)
        out.append(val * val)
        for t in cfg.hinge_knots(v):
            out.append(min(max((val - t) / (hi - t), 0.0), 1.0))
        for t in cfg.hinge_knots(v):
            out.append(min(max((t - val) / (t - lo), 0.0), 1.0))
        for t in cfg.thresholds(v):
            out.append(1.0 if val > t else 0.0)
    kept = list(cfg.kept)
    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            out.append(clamped[kept[i]] * clamped[kept[j]])
    return np.array(out)


def unit_config(n_vars=1):
    train = np.vstack([np.zeros(n_vars), np.ones(n_vars)])
    return features.fit_maxent(train)


class TestFit:
    def test_default_27_vars_give_1161_features(self):
        rng = np.random.default_rng(0)
        cfg = features.fit_maxent(rng.normal(size=(50, 27)))
        assert cfg.n_features == 1161
        assert features.expand(rng.normal(size=(3, 27)), cfg).shape == (3, 1161)

    def test_count_formula(self):
        assert features.feature_count(27, 10, 10) == 1161
        assert features.feature_count(2, 10, 10) == 2 * 30 + 1

    def test_thresholds_interior_even_spacing(self):
        cfg = unit_config()
        assert np.allclose(cfg.thresholds(0), np.arange(1, 11) / 11.0)

    def test_hinge_knots_strictly_interior(self):
        cfg = unit_config()
        knots = cfg.hinge_knots(0)
        assert len(knots) == 9
        assert knots.min() > 0.0 and knots.max() < 1.0
        assert np.allclose(knots, np.arange(1, 10) / 10.0)

    def test_constant_variable_excluded(self):
        train = np.array([[1.0, 5.0], [2.0, 5.0]])
        cfg = features.fit_maxent(train)
        assert list(cfg.kept) == [0]
        assert cfg.n_features == features.feature_count(1)

    def test_json_roundtrip(self, tmp_path):
        cfg = unit_config(3)
        write_json(str(tmp_path / "maxent.json"), asdict(cfg))
        back = features.MaxentConfig(**read_json(str(tmp_path / "maxent.json")))
        assert np.array_equal(back.kept, cfg.kept)
        assert back.n_features == cfg.n_features


class TestExpand:
    def test_at_lower_boundary(self):
        cfg = unit_config()
        row = features.expand(np.array([[0.0]]), cfg)[0]
        # order: linear, quad, fwd hinges (9), rev hinges (9), thresholds (10)
        assert row[0] == 0.0 and row[1] == 0.0
        assert np.array_equal(row[2:11], np.zeros(9))  # forward hinges all 0
        assert np.all((row[11:20] > 0.0) & (row[11:20] <= 1.0))  # reverse hinges in (0, 1]
        assert np.array_equal(row[20:30], np.zeros(10))  # no threshold exceeded

    def test_at_upper_boundary(self):
        cfg = unit_config()
        row = features.expand(np.array([[1.0]]), cfg)[0]
        assert np.array_equal(row[2:11], np.ones(9))  # forward hinges all 1
        assert np.array_equal(row[20:30], np.ones(10))  # thresholds all 1

    def test_out_of_range_clamped(self):
        cfg = unit_config()
        high = features.expand(np.array([[7.0]]), cfg)
        edge = features.expand(np.array([[1.0]]), cfg)
        assert np.array_equal(high, edge)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        train = rng.normal(size=(40, 5))
        cfg = features.fit_maxent(train)
        rows = rng.normal(size=(20, 5)) * 1.5
        expanded = features.expand(rows, cfg)
        for x, row in zip(rows, expanded):
            assert np.array_equal(row, scalar_expand(x, cfg))  # same arithmetic, so bit-equal

    def test_no_rows_or_no_kept_variables_keep_their_shape(self):
        cfg = features.fit_maxent(np.random.default_rng(4).normal(size=(30, 3)))
        assert features.expand(np.zeros((0, 3)), cfg).shape == (0, cfg.n_features)
        constant = features.fit_maxent(np.ones((5, 3)))
        assert features.expand(np.zeros((4, 3)), constant).shape == (4, 0)

    def test_hinges_bounded_and_thresholds_binary(self):
        rng = np.random.default_rng(2)
        cfg = features.fit_maxent(rng.normal(size=(30, 3)))
        X = features.expand(rng.normal(size=(50, 3)) * 2.0, cfg)
        per_var = 2 + 18 + 10
        for k, v in enumerate(cfg.kept):
            block = X[:, k * per_var : (k + 1) * per_var]
            hinges = block[:, 2:20]
            thresholds = block[:, 20:30]
            assert hinges.min() >= 0.0 and hinges.max() <= 1.0
            assert set(np.unique(thresholds)) <= {0.0, 1.0}

    def test_deterministic_and_order_stable(self):
        rng = np.random.default_rng(3)
        cfg = features.fit_maxent(rng.normal(size=(30, 4)))
        x = rng.normal(size=(10, 4))
        assert np.array_equal(features.expand(x, cfg), features.expand(x, cfg))


@given(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5))
@settings(max_examples=60, deadline=None)
def test_hinge_monotonicity(v1, v2):
    cfg = unit_config()
    lo_v, hi_v = sorted((v1, v2))
    a = features.expand(np.array([[lo_v]]), cfg)[0]
    b = features.expand(np.array([[hi_v]]), cfg)[0]
    assert np.all(b[2:11] >= a[2:11] - 1e-12)  # forward hinges nondecreasing
    assert np.all(b[11:20] <= a[11:20] + 1e-12)  # reverse hinges nonincreasing
