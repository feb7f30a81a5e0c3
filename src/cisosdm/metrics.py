"""Evaluation metrics: macro AUC, MAE, MSE, adaptive top-k, fixed top-n.

All functions are pure numpy over prediction/truth matrices shaped
(locations, species). Aggregates follow the reporting conventions of the
toolkit's tables: AUC and top-k as percentages, MAE and MSE scaled by 100.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def auc(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """Rank-based AUC (Mann-Whitney with midrank tie handling).

    Returns None when the labels lack a positive or a negative; callers skip
    and count such species instead of erroring.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = labels > 0
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _midranks(scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank range."""
    order = np.argsort(x, kind="mergesort")
    sx = x[order]
    starts = np.flatnonzero(np.r_[True, sx[1:] != sx[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size, dtype=float)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def macro_auc(pred: np.ndarray, truth: np.ndarray, available: np.ndarray) -> tuple[dict[int, float], int]:
    """Per-species AUC over available cells. Returns ({species: auc}, skipped)."""
    per: dict[int, float] = {}
    skipped = 0
    for c in range(pred.shape[1]):
        cells = available[:, c]
        if not cells.any():
            skipped += 1
            continue
        a = auc(pred[cells, c], truth[cells, c] > 0)
        if a is None:
            skipped += 1
        else:
            per[c] = a
    return per, skipped


def mae(pred: np.ndarray, truth: np.ndarray, cell_mask: np.ndarray) -> float:
    """Mean absolute error over the masked (location, species) cells."""
    m = np.asarray(cell_mask, dtype=bool)
    if not m.any():
        raise ValueError("mae: no cells selected by the mask")
    return float(np.abs(pred[m] - truth[m]).mean())


def mse(pred: np.ndarray, truth: np.ndarray, cell_mask: np.ndarray) -> float:
    m = np.asarray(cell_mask, dtype=bool)
    if not m.any():
        raise ValueError("mse: no cells selected by the mask")
    d = pred[m] - truth[m]
    return float((d * d).mean())


def _top_hits(pred: np.ndarray, positive: np.ndarray, scored: np.ndarray, k) -> np.ndarray:
    """Positives per row among its k highest-ranked scored species (k a
    scalar or one per row). Rows rank scored species by prediction, highest
    first, ties toward the lower species index; unscored species rank last."""
    cols = np.arange(pred.shape[1])
    order = np.lexsort((np.broadcast_to(cols, pred.shape), -pred, ~scored), axis=-1)
    in_top = cols < np.reshape(k, (-1, 1))
    return (np.take_along_axis(positive, order, axis=-1) & in_top).sum(axis=1)


def topk_adaptive(pred: np.ndarray, truth: np.ndarray, cell_mask: np.ndarray) -> float:
    """Adaptive top-k accuracy in percent.

    Per location, k is the number of masked-in species with truth > 0; the
    location scores |top-k predictions ∩ positives| / k. Locations with k = 0
    are skipped.
    """
    scored = np.asarray(cell_mask, dtype=bool)
    positive = (truth > 0) & scored
    k = positive.sum(axis=1)
    rows = k > 0
    if not rows.any():
        raise ValueError("topk_adaptive: no locations with positive species")
    k = k[rows]
    return float(np.mean(_top_hits(pred[rows], positive[rows], scored[rows], k) / k) * 100.0)


def topn_fixed(pred: np.ndarray, truth: np.ndarray, cell_mask: np.ndarray, n: int) -> float:
    """Top-n accuracy in percent with n fixed; normalized by min(n, #positives)."""
    scored = np.asarray(cell_mask, dtype=bool)
    n_scored = scored.sum(axis=1)
    short = (n_scored > 0) & (n_scored < n)
    if short.any():
        raise ValueError(f"topn_fixed: n={n} exceeds the {int(n_scored[short][0])} scored species")
    positive = (truth > 0) & scored
    n_pos = positive.sum(axis=1)
    rows = n_pos > 0
    if not rows.any():
        raise ValueError("topn_fixed: no locations with positive species")
    hits = _top_hits(pred[rows], positive[rows], scored[rows], n)
    return float(np.mean(hits / np.minimum(n, n_pos[rows])) * 100.0)


@dataclass
class EvalReport:
    """Per-species and aggregate metrics for one evaluation protocol."""

    protocol: str
    kind: str  # "binary" or "rates"
    per_species: dict[str, dict[str, float]] = field(default_factory=dict)
    aggregates: dict[str, float] = field(default_factory=dict)
    skipped_species: int = 0
    skipped_locations: int = 0
    n_locations: int = 0


def evaluate_matrix(
    pred: np.ndarray,
    truth: np.ndarray,
    available: np.ndarray,
    target_mask: np.ndarray,
    species: list[str],
    protocol: str,
    kind: str,
) -> EvalReport:
    """Assemble an EvalReport from raw prediction/truth matrices.

    `target_mask` selects the scored species; `available` restricts scoring to
    observed cells. Binary datasets report macro AUC, encounter-rate datasets
    report MAE/MSE (x100) and the top-k family.
    """
    target_idx = np.flatnonzero(target_mask)
    p = pred[:, target_idx]
    t = truth[:, target_idx]
    av = available[:, target_idx]
    report = EvalReport(protocol=protocol, kind=kind, n_locations=pred.shape[0])

    if kind == "binary":
        per, skipped = macro_auc(p, t, av)
        report.skipped_species = skipped
        for local_c, value in per.items():
            report.per_species[species[target_idx[local_c]]] = {"auc": value}
        if per:
            report.aggregates["auc_pct"] = float(np.mean(list(per.values())) * 100.0)
        return report

    cells = av.copy()
    report.aggregates["mae_x100"] = mae(p, t, cells) * 100.0
    report.aggregates["mse_x100"] = mse(p, t, cells) * 100.0
    positives_per_loc = ((t > 0) & cells).sum(axis=1)
    report.skipped_locations = int((positives_per_loc == 0).sum())
    try:
        report.aggregates["topk_pct"] = topk_adaptive(p, t, cells)
    except ValueError:
        pass
    for n in (10, 30):
        if len(target_idx) >= n:
            try:
                report.aggregates[f"top{n}_pct"] = topn_fixed(p, t, cells, n)
            except ValueError:
                pass
    for local_c in range(p.shape[1]):
        col = av[:, local_c]
        if not col.any():
            report.skipped_species += 1
            continue
        d = p[col, local_c] - t[col, local_c]
        report.per_species[species[target_idx[local_c]]] = {
            "mae": float(np.abs(d).mean()),
            "mse": float((d * d).mean()),
        }
    return report


def format_report_table(reports: list[EvalReport]) -> str:
    """Render aggregate metrics as a fixed-width table, one row per report."""
    columns = ["auc_pct", "topk_pct", "mae_x100", "mse_x100", "top10_pct", "top30_pct"]
    present = [c for c in columns if any(c in r.aggregates for r in reports)]
    header = ["protocol".ljust(28)] + [c.rjust(10) for c in present]
    lines = ["".join(header), "-" * (28 + 10 * len(present))]
    for r in reports:
        cells = [r.protocol.ljust(28)]
        for c in present:
            v = r.aggregates.get(c)
            cells.append((f"{v:.2f}" if v is not None else "-").rjust(10))
        lines.append("".join(cells))
    return "\n".join(lines)
