"""Maxent-style feature expansion of normalized environmental vectors.

Five feature families per retained variable: linear, quadratic, forward and
reverse hinges at interior knots, and step thresholds, plus pairwise products
across variables. With 27 variables and default knot counts the expansion
yields exactly 1161 features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import check_value
from .dataio import check_arrays

DEFAULT_HINGE_KNOTS = 10
DEFAULT_THRESHOLDS = 10


@dataclass
class MaxentConfig:
    """Per-variable train ranges and knot schedules.

    `hinge_knots[v]` holds the n-1 strictly interior knots used by both hinge
    directions; `thresholds[v]` holds n strictly interior step positions.
    Variables with a degenerate train range are excluded entirely.
    """

    lo: np.ndarray
    hi: np.ndarray
    kept: np.ndarray  # indices of retained variables
    n_hinge_knots: int
    n_thresholds: int

    def __post_init__(self):
        check_arrays(self, lo=float, hi=float, kept=int)
        for name in ("n_hinge_knots", "n_thresholds"):
            setattr(self, name, check_value(f"MaxentConfig '{name}'", getattr(self, name), int))
        n = len(self.lo)
        if len(self.hi) != n or not set(self.kept) <= set(range(n)):
            raise ValueError(f"MaxentConfig 'hi' needs one item per 'lo' ({n}), 'kept' indices below {n}")

    def hinge_knots(self, v: int | np.ndarray) -> np.ndarray:
        lo, hi = self.lo[v], self.hi[v]
        k = np.arange(1, self.n_hinge_knots)
        return lo + k * (hi - lo) / self.n_hinge_knots

    def thresholds(self, v: int | np.ndarray) -> np.ndarray:
        lo, hi = self.lo[v], self.hi[v]
        k = np.arange(1, self.n_thresholds + 1)
        return lo + k * (hi - lo) / (self.n_thresholds + 1)

    @property
    def n_features(self) -> int:
        return feature_count(len(self.kept), self.n_hinge_knots, self.n_thresholds)


def feature_count(d: int, n_hinge_knots: int = DEFAULT_HINGE_KNOTS, n_thresholds: int = DEFAULT_THRESHOLDS) -> int:
    """d * (2 + 2*(n_knots - 1) + n_thresholds) + d*(d-1)/2."""
    return d * (2 + 2 * (n_hinge_knots - 1) + n_thresholds) + d * (d - 1) // 2


def fit_maxent(train_env: np.ndarray) -> MaxentConfig:
    """Fix knot/threshold schedules from the train split's per-variable ranges.

    Constant variables (min == max) are excluded, consistent with the
    normalization stage dropping zero-variance columns.
    """
    train_env = np.asarray(train_env, dtype=float)
    lo = train_env.min(axis=0)
    hi = train_env.max(axis=0)
    kept = np.flatnonzero(hi > lo)
    return MaxentConfig(lo=lo, hi=hi, kept=kept, n_hinge_knots=DEFAULT_HINGE_KNOTS, n_thresholds=DEFAULT_THRESHOLDS)


def expand(env: np.ndarray, config: MaxentConfig) -> np.ndarray:
    """Expand (N, n_env) rows into (N, n_features).

    Feature order per retained variable: linear, quadratic, forward hinges,
    reverse hinges, thresholds; then all pairwise products (i < j). Inputs
    outside the train range are clamped to the boundary first. Each family
    is one numpy op over all variables, so a batch costs a few dozen calls,
    not one per feature.
    """
    env = np.atleast_2d(np.asarray(env, dtype=float))
    kept = config.kept
    x = np.clip(env[:, kept], config.lo[kept], config.hi[kept])  # (N, K)
    column = kept[:, None]  # the schedules below come out as (K, n) rows
    lo, hi = config.lo[column], config.hi[column]
    knots, steps = config.hinge_knots(column), config.thresholds(column)
    xs = x[:, :, None]
    per_var = np.concatenate(
        [
            xs,
            xs * xs,
            np.clip((xs - knots) / (hi - knots), 0.0, 1.0),
            np.clip((knots - xs) / (knots - lo), 0.0, 1.0),
            (xs > steps).astype(float),
        ],
        axis=2,
    )
    first, second = np.triu_indices(len(kept), k=1)
    n, k, per = per_var.shape
    return np.concatenate([per_var.reshape(n, k * per), x[:, first] * x[:, second]], axis=1)
