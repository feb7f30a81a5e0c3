"""Label-mask training, checkpoint selection, evaluation protocols, and the
conditioning-delta analysis.

During training each example reveals a random subset of its available species
(k uniform on 0..min(floor(3/4 |C|), l)); revealed species take their true
state and everything else is unknown. The masked BCE loss supervises exactly
the available, unrevealed species, so revealed and unobserved entries get
zero gradient. The best checkpoint is the epoch with the highest
unconditioned validation metric: adaptive top-k for encounter-rate data,
macro AUC for binary data.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import asdict, dataclass, replace
from numbers import Integral, Real

import numpy as np

from . import numerics as nm
from .dataio import Dataset, apply_norm, fit_norm
from .encoding import assign_states
from .features import fit_maxent
from .metrics import EvalReport, evaluate_matrix, macro_auc, topk_adaptive
from .models import Model, ModelSpec, TrainedModel, build_model, predict_batch_rows

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 64
    epochs: int = 20
    seed: int = 0
    n_b: int = 1
    mask_cap_fraction: float = 0.75
    weight_decay: float = 0.01
    target_group: str | None = None  # restrict the loss to one species group

    def validate(self) -> None:
        rules = (
            ("lr", Real, lambda v: 0.0 <= v < math.inf, "a finite number >= 0"),
            ("weight_decay", Real, lambda v: 0.0 <= v < math.inf, "a finite number >= 0"),
            ("mask_cap_fraction", Real, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]"),
            ("epochs", Integral, lambda v: v >= 1, "an integer >= 1"),
            ("batch_size", Integral, lambda v: v >= 1, "an integer >= 1"),
            ("n_b", Integral, lambda v: v >= 1, "an integer >= 1"),
        )
        for name, kind, ok, wanted in rules:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
                raise ValueError(f"{name} must be {wanted}, got {value!r}")


# Hyperparameter presets for the three standard setups.
PRESETS: dict[str, TrainConfig] = {
    "splotopen": TrainConfig(lr=1e-3, batch_size=64, epochs=20, n_b=1),
    "satbird": TrainConfig(lr=1e-4, batch_size=128, epochs=50, n_b=4),
    "across": TrainConfig(lr=1e-4, batch_size=128, epochs=50, n_b=4),
}


def sample_known(available: np.ndarray, rng: np.random.Generator, cap_fraction: float = 0.75) -> np.ndarray:
    """Draw C_known uniformly from the available species of one record and
    return its species indices.

    k is uniform on [0, min(floor(cap * |C|), l)] where l counts the available
    species; unavailable species are never revealed.
    """
    available = np.asarray(available, dtype=bool)
    pool = np.flatnonzero(available)
    k_max = min(int(np.floor(cap_fraction * available.size)), pool.size)
    k = int(rng.integers(0, k_max + 1))
    if k == 0:
        return np.empty(0, dtype=np.int64)
    return rng.choice(pool, size=k, replace=False)


def _known_matrix(available: np.ndarray, rng: np.random.Generator, cap: float) -> np.ndarray:
    known = np.zeros_like(available, dtype=bool)
    for i in range(available.shape[0]):
        known[i, sample_known(available[i], rng, cap)] = True
    return known


def _selection_metric(pred, truth, available, target_mask, binary: bool) -> float:
    if pred.shape[0] == 0:
        return float("nan")
    idx = np.flatnonzero(target_mask)
    if binary:
        per, _ = macro_auc(pred[:, idx], truth[:, idx], available[:, idx])
        return float(np.mean(list(per.values()))) if per else float("nan")
    try:
        return topk_adaptive(pred[:, idx], truth[:, idx], available[:, idx])
    except ValueError:
        return float("nan")


def _rng(seed: int, stage: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stage,)))


def train(ds: Dataset, model_spec: ModelSpec, config: TrainConfig) -> tuple[TrainedModel, list[dict]]:
    """Fit one model and keep the best checkpoint by unconditioned validation.

    Returns the trained model (best-epoch parameters restored) and a history
    with one row per epoch. The dataset must carry split tags.
    """
    config.validate()
    if ds.split is None:
        raise ValueError("dataset must be split before training")
    train_idx = ds.split_indices("train")
    val_idx = ds.split_indices("val")
    if train_idx.size == 0:
        raise ValueError("empty training split")

    norm = fit_norm(ds.env[train_idx])
    env_n = apply_norm(ds.env, norm)
    spec = replace(model_spec, n_env=norm.n_kept, n_b=config.n_b)

    maxent_config = None
    if spec.family == "maxent":
        maxent_config = fit_maxent(env_n[train_idx])
    model = build_model(spec, config.seed, maxent_config=maxent_config)

    target_mask = ds.group_mask(config.target_group) if config.target_group else np.ones(ds.n_species, bool)
    binary = ds.is_binary()

    shuffle_rng = _rng(config.seed, 2)
    lmt_rng = _rng(config.seed, 3)
    drop_rng = _rng(config.seed, 4)
    val_rng_seed = config.seed

    optimizer = nm.AdamW(model.params, lr=config.lr, weight_decay=config.weight_decay)
    history: list[dict] = []
    best: tuple[float, int, dict[str, np.ndarray]] | None = None

    for epoch in range(config.epochs):
        order = train_idx.copy()
        shuffle_rng.shuffle(order)
        losses = []
        for step, start in enumerate(range(0, order.size, config.batch_size)):
            batch = order[start : start + config.batch_size]
            env_b = env_n[batch]
            y = ds.targets[batch]
            avail = ds.available[batch]
            codes = rates = None
            if spec.uses_states:
                known = _known_matrix(avail, lmt_rng, config.mask_cap_fraction)
                codes, rates = assign_states(y, avail, known, config.n_b)
                loss_mask = avail & ~known & target_mask
            else:
                loss_mask = avail & target_mask
            with nm.Tape() as tape:
                pred = model.forward(env_b, codes, rates, training=True, rng=drop_rng)
                loss = nm.bce_masked(pred, y, loss_mask)
                value = loss.item()
                if not np.isfinite(value):
                    raise RuntimeError(f"non-finite loss at epoch {epoch} step {step}")
                nm.backward(tape, loss)
            optimizer.step()
            optimizer.zero_grad()
            losses.append(value)

        val_pred = _predict_with_states(model, env_n[val_idx], None, None)
        metric_uncond = _selection_metric(val_pred, ds.targets[val_idx], ds.available[val_idx], target_mask, binary)
        metric_cond = float("nan")
        if spec.uses_states:
            val_known = _known_matrix(ds.available[val_idx], _rng(val_rng_seed, 100 + epoch), config.mask_cap_fraction)
            codes, rates = assign_states(ds.targets[val_idx], ds.available[val_idx], val_known, config.n_b)
            cond_pred = _predict_with_states(model, env_n[val_idx], codes, rates)
            cond_loss_mask = ds.available[val_idx] & ~val_known & target_mask
            if cond_loss_mask.any():
                metric_cond = _selection_metric(
                    cond_pred, ds.targets[val_idx], ds.available[val_idx] & ~val_known, target_mask, binary
                )
        history.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(losses)),
                "val_metric_uncond": metric_uncond,
                "val_metric_cond": metric_cond,
            }
        )
        log.info("epoch %d: loss %.4f val %.4f", epoch, history[-1]["train_loss"], metric_uncond)

        # Ties keep the earlier epoch; a NaN never replaces a finite best.
        if best is None or not math.isfinite(best[0]) or metric_uncond > best[0]:
            best = (metric_uncond, epoch, {k: p.values.copy() for k, p in model.params.items()})

    for name, values in best[2].items():
        model.params[name].values = values
    tm = TrainedModel(
        model=model,
        roster=list(ds.species),
        norm=norm,
        maxent_config=maxent_config,
        meta={
            "selection_epoch": best[1],
            "selection_metric": "auc" if binary else "topk",
            "selection_value": best[0],
            "train_config": asdict(config),
        },
    )
    return tm, history


def _predict_with_states(model: Model, env: np.ndarray, codes, rates) -> np.ndarray:
    return model.predict(env, codes, rates, batch_size=predict_batch_rows(model.spec))


def select_checkpoint_dual(history_a: list[float], history_b: list[float]) -> int:
    """Dual-dataset rule: an epoch replaces the incumbent only when both
    validation metrics strictly improve; epoch 0 is the initial incumbent."""
    if len(history_a) != len(history_b) or not history_a:
        raise ValueError("histories must be nonempty and equally long")
    incumbent = 0
    for e in range(1, len(history_a)):
        if history_a[e] > history_a[incumbent] and history_b[e] > history_b[incumbent]:
            incumbent = e
    return incumbent


@dataclass
class EvalProtocol:
    """A named evaluation: which species are revealed, which are scored."""

    name: str
    condition_group: str | None = None
    target_group: str | None = None
    split: str = "test"

    def resolve(self, ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
        condition = (
            ds.group_mask(self.condition_group) if self.condition_group else np.zeros(ds.n_species, bool)
        )
        target = ds.group_mask(self.target_group) if self.target_group else ~condition
        if (condition & target).any():
            overlap = [s for s, c, t in zip(ds.species, condition, target) if c and t]
            raise ValueError(f"protocol '{self.name}': condition and target masks overlap on {overlap[:5]}")
        return condition, target


def protocol_predictions(tm: TrainedModel, ds: Dataset, protocol: EvalProtocol) -> tuple[np.ndarray, np.ndarray]:
    """Prediction matrix for one protocol: (split record indices, (N, C) preds).

    Condition species are revealed at their true states wherever available.
    """
    if list(ds.species) != list(tm.roster):
        raise ValueError("dataset roster does not match the checkpoint roster")
    condition, _ = protocol.resolve(ds)
    if condition.any() and not tm.model.spec.uses_states:
        raise ValueError(f"family '{tm.model.spec.family}' cannot condition on species states")
    idx = ds.split_indices(protocol.split) if ds.split is not None else np.arange(ds.n_records)
    env_n = apply_norm(ds.env, tm.norm)[idx]
    codes = rates = None
    if tm.model.spec.uses_states:
        known = condition[None, :] & ds.available[idx]
        codes, rates = assign_states(ds.targets[idx], ds.available[idx], known, tm.model.spec.n_b)
    return idx, _predict_with_states(tm.model, env_n, codes, rates)


def evaluate(tm: TrainedModel, ds: Dataset, protocol: EvalProtocol) -> EvalReport:
    """Run one protocol: reveal the condition species at their true states
    (encounter rates binned), score the target species."""
    _, target = protocol.resolve(ds)
    idx, pred = protocol_predictions(tm, ds, protocol)
    kind = "binary" if ds.is_binary() else "rates"
    return evaluate_matrix(pred, ds.targets[idx], ds.available[idx], target, ds.species, protocol.name, kind)


def conditioning_delta(
    tm: TrainedModel, ds: Dataset, source_species: str, targets: list[str] | None = None, split: str = "test"
) -> list[dict]:
    """Mean change in prediction per target species when the source species'
    true state is revealed, over split locations where the source is present.

    Rows for the source species itself are flagged: they are predictions at a
    revealed species.
    """
    if source_species not in ds.species:
        raise ValueError(f"unknown source species '{source_species}'")
    if not tm.model.spec.uses_states:
        raise ValueError(f"family '{tm.model.spec.family}' cannot condition on species states")
    s = ds.species.index(source_species)
    idx = ds.split_indices(split)
    qualifying = idx[(ds.available[idx, s]) & (ds.targets[idx, s] > 0)]
    if qualifying.size == 0:
        raise ValueError(f"no {split} locations with a positive state for '{source_species}'")

    env_n = apply_norm(ds.env, tm.norm)[qualifying]
    uncond = _predict_with_states(tm.model, env_n, None, None)
    known = np.zeros((qualifying.size, ds.n_species), dtype=bool)
    known[:, s] = True
    codes, rates = assign_states(ds.targets[qualifying], ds.available[qualifying], known, tm.model.spec.n_b)
    cond = _predict_with_states(tm.model, env_n, codes, rates)
    delta = cond - uncond

    names = targets if targets is not None else list(ds.species)
    rows = []
    for name in names:
        if name not in ds.species:
            raise ValueError(f"unknown target species '{name}'")
        c = ds.species.index(name)
        rows.append(
            {
                "source": source_species,
                "target": name,
                "mean_delta": float(delta[:, c].mean()),
                "n_locations": int(qualifying.size),
                "revealed": bool(c == s),
            }
        )
    return rows


def predict_map(tm: TrainedModel, ds: Dataset, protocol: EvalProtocol) -> list[dict]:
    """Per-location predictions for the protocol's target species, as rows of
    (lat, lon, species, prediction) ready for plotting."""
    _, target = protocol.resolve(ds)
    idx, pred = protocol_predictions(tm, ds, protocol)
    rows = []
    target_idx = np.flatnonzero(target)
    for row, i in enumerate(idx):
        for c in target_idx:
            rows.append(
                {
                    "lat": float(ds.lats[i]),
                    "lon": float(ds.lons[i]),
                    "species": ds.species[c],
                    "prediction": float(pred[row, c]),
                }
            )
    return rows


def write_history_csv(history: list[dict], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["epoch", "train_loss", "val_metric_uncond", "val_metric_cond"])
        writer.writeheader()
        for row in history:
            writer.writerow(row)
