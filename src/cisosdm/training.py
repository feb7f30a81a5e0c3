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

import logging
import math
from dataclasses import asdict, dataclass, replace
from typing import Literal

import numpy as np

from . import check_fields, numerics as nm
from .dataio import SPLIT_TAGS, Dataset, apply_norm, fit_norm
from .encoding import assign_states
from .features import fit_maxent
from .metrics import EvalReport, evaluate_matrix, macro_auc, topk_adaptive
from .models import ModelSpec, TrainedModel, build_model, piece_rows

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

    def __post_init__(self):
        check_fields(self)
        for name, low, high in (
            ("lr", 0, math.inf), ("weight_decay", 0, math.inf), ("mask_cap_fraction", 0, 1),
            ("epochs", 1, math.inf), ("batch_size", 1, math.inf), ("n_b", 1, math.inf),
        ):
            if not low <= getattr(self, name) <= high:
                raise ValueError(f"{name} must lie in [{low}, {high}], got {getattr(self, name)!r}")


# Hyperparameter presets for the three standard setups.
PRESETS: dict[str, TrainConfig] = {
    "splotopen": TrainConfig(lr=1e-3, batch_size=64, epochs=20, n_b=1),
    "satbird": TrainConfig(lr=1e-4, batch_size=128, epochs=50, n_b=4),
    "across": TrainConfig(lr=1e-4, batch_size=128, epochs=50, n_b=4),
}


def sample_known(available: np.ndarray, rng: np.random.Generator, cap_fraction: float = 0.75) -> np.ndarray:
    """Draw C_known uniformly from the available species of each record: the
    (N, C) boolean mask of the revealed species of an (N, C) `available`.

    Row by row, k is uniform on [0, min(floor(cap * C), l)] where l counts
    the row's available species, and the k species are drawn from them
    without replacement; unavailable species are never revealed.
    """
    available = np.asarray(available, dtype=bool)
    known = np.zeros_like(available)
    cap = int(np.floor(cap_fraction * available.shape[1]))
    for row, pool in zip(known, map(np.flatnonzero, available)):
        k = int(rng.integers(0, min(cap, pool.size) + 1))
        if k > 0:
            row[rng.choice(pool, size=k, replace=False)] = True
    return known


def _reveal(targets, available, rng: np.random.Generator, config: TrainConfig) -> tuple:
    """Reveal a random subset of each record's available species at their
    true states: (codes, rates, unrevealed), where `unrevealed` marks the
    available species left to predict."""
    known = sample_known(available, rng, config.mask_cap_fraction)
    codes, rates = assign_states(targets, available, known, config.n_b)
    return codes, rates, available & ~known


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


# Fewest micro-batches per training step, by family; the rest take one. A
# CISO step at C = 10 is small GEMMs plus single-threaded GELU, softmax and
# layer norm, so BLAS leaves a second core idle: on 2 vCPUs (d = 64, 3
# blocks, B = 64) a step's micro-batches took 79 ms as one, 52 ms as two on
# two threads and 61 ms as four. Maxent and mlp++ GEMMs already use both
# cores through BLAS; split the same way, their epochs got slower (0.61 ->
# 0.97 s and 2.4 -> 3.0 s at survey-join size). A ciso step also takes
# enough micro-batches that each fits `models.piece_rows`: at C = 100 and
# B = 32 that is 6, at 290 ms per step against 366 ms as two. M depends on
# the spec and the batch size only, not on the thread count, so neither do
# the trained parameters.
MICRO_BATCHES = {"ciso": 2}
# Dtype of a model's parameters, steps and validation predicts during `train`,
# by family; the rest train in float64. AdamW's master weights and moments,
# checkpoints and a trained model's predict stay float64 (Micikevicius et al.,
# arXiv:1710.03740). On 2 vCPUs (d = 64, 3 blocks) a ciso step's
# micro-batches took 25 ms in float32 against 66 ms in float64 at C = 10 and
# B = 64, and 163 against 285 ms at C = 100 and B = 32. An mlp++ step with
# AdamW at survey-join size (C = 200, B = 64) was slower in float32: 14.8-16.5
# ms against 11.8-15.1 ms.
STEP_DTYPES = {"ciso": np.float32}


def _step(model, micro: int, env, y, codes, rates, loss_mask, drop_rng) -> list[tuple]:
    """(loss, gradient map) of each micro-batch of one training step, in
    micro-batch order; a map is empty when its loss is not finite.

    A batch of B rows runs as min(micro, B) contiguous micro-batches, each on
    its own tape, through `numerics.run_split` on at most W threads
    (`numerics.workers`). Micro-batch m's loss is weighted by rows_m / B (a
    weight of 1 is exact), so the losses sum to the full batch's, and its
    dropout generator is seeded by the m-th of the seeds drawn from
    `drop_rng`.

    The step runs in the dtype of the model's parameters, which `train` sets
    from STEP_DTYPES, and its gradient maps come back in it; it writes no
    parameter."""
    rows = env.shape[0]
    m = min(micro, rows)
    seeds = drop_rng.integers(2**63, size=m)
    edges = [rows * i // m for i in range(m + 1)]
    results: list = [None] * m

    def run(i: int) -> None:
        sl = slice(edges[i], edges[i + 1])
        c = None if codes is None else codes[sl]
        r = None if rates is None else rates[sl]
        with nm.Tape() as tape:
            pred = model.forward(env[sl], c, r, training=True, rng=np.random.default_rng(int(seeds[i])))
            loss = nm.mul(nm.bce_masked(pred, y[sl], loss_mask[sl]), (edges[i + 1] - edges[i]) / rows)
            value = loss.item()
            results[i] = value, (nm.backward(tape, loss) if np.isfinite(value) else {})

    nm.run_split(m, nm.workers(), run)
    return results


def train(ds: Dataset, model_spec: ModelSpec, config: TrainConfig) -> tuple[TrainedModel, list[dict]]:
    """Fit one model and keep the best checkpoint by unconditioned validation.

    Returns the trained model (best-epoch float64 parameters restored) and a
    history with one row per epoch. The dataset must carry split tags. The
    model holds STEP_DTYPES parameters until then.
    """
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

    optimizer = nm.AdamW(model.params, lr=config.lr, weight_decay=config.weight_decay)
    for p in model.params.values():  # the float64 masters stay with the optimizer
        p.values = p.values.astype(STEP_DTYPES.get(spec.family, nm.DTYPE), copy=False)
    history: list[dict] = []
    best: tuple[float, int, dict[str, np.ndarray]] | None = None
    micro = MICRO_BATCHES.get(spec.family, 1)
    if spec.family == "ciso":
        micro = max(micro, -(-config.batch_size // piece_rows(spec)))

    for epoch in range(config.epochs):
        order = train_idx.copy()
        shuffle_rng.shuffle(order)
        losses = []
        for step, start in enumerate(range(0, order.size, config.batch_size)):
            batch = order[start : start + config.batch_size]
            env_b, y, unrevealed = env_n[batch], ds.targets[batch], ds.available[batch]
            codes = rates = None  # families without states reveal nothing
            if spec.uses_states:
                codes, rates, unrevealed = _reveal(y, unrevealed, lmt_rng, config)
            results = _step(model, micro, env_b, y, codes, rates, unrevealed & target_mask, drop_rng)
            value = sum(v for v, _ in results)
            if not np.isfinite(value):
                raise RuntimeError(f"non-finite loss at epoch {epoch} step {step}")
            # Summed in micro-batch order, not in the order threads finish.
            optimizer.step([grads for _, grads in results])
            losses.append(value)

        env_val, y_val, avail_val = env_n[val_idx], ds.targets[val_idx], ds.available[val_idx]
        metric_uncond = _selection_metric(model.predict(env_val), y_val, avail_val, target_mask, binary)
        metric_cond = float("nan")
        if spec.uses_states:
            codes, rates, unrevealed = _reveal(y_val, avail_val, _rng(config.seed, 100 + epoch), config)
            cond_pred = model.predict(env_val, codes, rates)
            metric_cond = _selection_metric(cond_pred, y_val, unrevealed, target_mask, binary)
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
            best = (metric_uncond, epoch, {k: m.copy() for k, m in optimizer.masters.items()})

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


@dataclass
class EvalProtocol:
    """A named evaluation: which species are revealed, which are scored."""

    name: str
    condition_group: str | None = None
    target_group: str | None = None
    split: Literal[SPLIT_TAGS] = "test"

    def __post_init__(self):
        check_fields(self)

    def resolve(self, ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
        condition = (
            ds.group_mask(self.condition_group) if self.condition_group else np.zeros(ds.n_species, bool)
        )
        target = ds.group_mask(self.target_group) if self.target_group else ~condition
        if (condition & target).any():
            overlap = [s for s, c, t in zip(ds.species, condition, target) if c and t]
            raise ValueError(f"protocol '{self.name}': condition and target masks overlap on {overlap[:5]}")
        return condition, target


def _predict(tm: TrainedModel, ds: Dataset, rows: np.ndarray, condition: np.ndarray) -> np.ndarray:
    """(len(rows), C) predictions at records `rows`, with the species of the
    boolean `condition` mask revealed at their true states wherever available."""
    if list(ds.species) != list(tm.roster):
        raise ValueError("dataset roster does not match the checkpoint roster")
    if ds.n_env != len(tm.norm.mean):
        raise ValueError(f"the dataset has {ds.n_env} env variables, the checkpoint was fitted on {len(tm.norm.mean)}")
    spec = tm.model.spec
    codes = rates = None
    if condition.any():
        if not spec.uses_states:
            raise ValueError(f"family '{spec.family}' cannot condition on species states")
        codes, rates = assign_states(ds.targets[rows], ds.available[rows], condition, spec.n_b)
    return tm.model.predict(apply_norm(ds.env[rows], tm.norm), codes, rates)


def protocol_predictions(tm: TrainedModel, ds: Dataset, protocol: EvalProtocol) -> tuple[np.ndarray, np.ndarray]:
    """Prediction matrix for one protocol: (split record indices, (N, C) preds).

    Condition species are revealed at their true states wherever available.
    A dataset without split tags raises ValueError.
    """
    condition, _ = protocol.resolve(ds)
    idx = ds.split_indices(protocol.split)
    return idx, _predict(tm, ds, idx, condition)


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
    s = ds.species.index(source_species)
    idx = ds.split_indices(split)
    qualifying = idx[(ds.available[idx, s]) & (ds.targets[idx, s] > 0)]
    if qualifying.size == 0:
        raise ValueError(f"no {split} locations with a positive state for '{source_species}'")

    names = targets if targets is not None else list(ds.species)
    unknown = [name for name in names if name not in ds.species]
    if unknown:
        raise ValueError(f"unknown target species '{unknown[0]}'")

    source = np.arange(ds.n_species) == s
    delta = _predict(tm, ds, qualifying, source) - _predict(tm, ds, qualifying, np.zeros_like(source))
    rows = []
    for name in names:
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
