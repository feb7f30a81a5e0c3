"""Dataset schema, CSV ingestion, approved species merges, spatial block
cross-validation splits, and environmental normalization.

The on-disk format is a UTF-8 CSV with header
``id,lat,lon[,split],env_0..env_{n-1},sp_<name>...`` plus an optional sidecar
JSON naming the species roster order and group masks. An empty cell in a
species column means the target is unavailable at that location.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field, replace

import numpy as np

log = logging.getLogger(__name__)

SPLIT_TAGS = ("train", "val", "test")


class SchemaError(ValueError):
    """Input file does not match the documented tabular schema."""


@dataclass
class Dataset:
    """Columnar container; the species list is the canonical index space."""

    species: list[str]
    ids: list[str]
    lats: np.ndarray
    lons: np.ndarray
    env: np.ndarray          # (N, n_env)
    targets: np.ndarray      # (N, C), zeros where unavailable
    available: np.ndarray    # (N, C) bool
    group_masks: dict[str, np.ndarray] = field(default_factory=dict)
    split: np.ndarray | None = None  # (N,) of SPLIT_TAGS once assigned

    @property
    def n_records(self) -> int:
        return len(self.ids)

    @property
    def n_species(self) -> int:
        return len(self.species)

    @property
    def n_env(self) -> int:
        return self.env.shape[1]

    def is_binary(self) -> bool:
        vals = self.targets[self.available]
        return bool(np.isin(vals, (0.0, 1.0)).all())

    def subset(self, indices: np.ndarray) -> "Dataset":
        indices = np.asarray(indices)
        return Dataset(
            species=list(self.species),
            ids=[self.ids[i] for i in indices],
            lats=self.lats[indices],
            lons=self.lons[indices],
            env=self.env[indices],
            targets=self.targets[indices],
            available=self.available[indices],
            group_masks={k: v.copy() for k, v in self.group_masks.items()},
            split=None if self.split is None else self.split[indices],
        )

    def split_indices(self, tag: str) -> np.ndarray:
        if self.split is None:
            raise ValueError("dataset has no split tags; run spatial_block_split or load them")
        return np.flatnonzero(self.split == tag)

    def group_mask(self, name: str) -> np.ndarray:
        try:
            return self.group_masks[name]
        except KeyError:
            raise KeyError(f"unknown species group '{name}'; have {sorted(self.group_masks)}") from None

    def validate(self) -> None:
        """Check shapes, target range and split tags; raise SchemaError on the
        first violation. Empty env cells (NaN) are allowed: `fit_norm` and
        `apply_norm` impute them. Infinite env values are not."""
        n, c = self.n_records, self.n_species
        if self.targets.shape != (n, c):
            raise SchemaError(f"targets shape {self.targets.shape} does not match ({n}, {c})")
        if self.available.shape != (n, c):
            raise SchemaError(f"availability shape {self.available.shape} does not match ({n}, {c})")
        if self.env.ndim != 2 or self.env.shape[0] != n:
            raise SchemaError(f"env shape {self.env.shape} does not have {n} rows")
        obs = self.targets[self.available]
        if not ((obs >= 0.0) & (obs <= 1.0)).all():
            raise SchemaError("targets must lie in [0, 1]")
        if np.isinf(self.env).any():
            raise SchemaError("env values must be finite or missing, not infinite")
        for name, mask in self.group_masks.items():
            if mask.shape != (c,):
                raise SchemaError(f"group mask '{name}' has shape {mask.shape}, not ({c},)")
        if self.split is not None:
            bad = set(np.unique(self.split)) - set(SPLIT_TAGS)
            if bad:
                raise SchemaError(f"unknown split tags {sorted(bad)}")


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _number(path: str, column: str, cell: str, rid: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise SchemaError(f"{path}: non-numeric {column} value {cell!r} in row id={rid}") from None


def load_dataset(path: str, config_path: str | None = None) -> Dataset:
    """Load the documented CSV format, validating coordinates and env values.

    Rows with out-of-range coordinates are rejected (count logged). A sidecar
    JSON config, when given, fixes the roster order and defines group masks;
    its species set must match the header exactly.
    """
    config = None
    if config_path is not None:
        with open(config_path, encoding="utf-8") as fh:
            config = json.load(fh)

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        rows = list(reader)

    missing = [c for c in ("id", "lat", "lon") if c not in header]
    if missing:
        raise SchemaError(f"{path}: missing required columns {missing}")
    col = {name: i for i, name in enumerate(header)}
    has_split = "split" in col
    env_cols = []
    for i, name in enumerate(header):
        if name.startswith("env_"):
            try:
                env_cols.append((int(name[4:]), i))
            except ValueError:
                raise SchemaError(f"{path}: env column {name!r} is not numbered as env_<k>") from None
    env_cols.sort()
    sp_cols = [(name[3:], i) for i, name in enumerate(header) if name.startswith("sp_")]
    if not env_cols:
        raise SchemaError(f"{path}: missing required columns ['env_*']")
    if not sp_cols:
        raise SchemaError(f"{path}: missing required columns ['sp_*']")

    header_species = [name for name, _ in sp_cols]
    if config is not None and "species" in config:
        roster = list(config["species"])
        if sorted(roster) != sorted(header_species):
            extra = sorted(set(header_species) - set(roster))
            absent = sorted(set(roster) - set(header_species))
            raise SchemaError(
                f"{path}: species roster mismatch between header and config "
                f"(missing from file: {absent}, unexpected in file: {extra})"
            )
        sp_index = dict(sp_cols)
        ordered = [(name, sp_index[name]) for name in roster]
    else:
        roster = header_species
        ordered = sp_cols

    ids: list[str] = []
    lats, lons, tags = [], [], []
    env = np.empty((len(rows), len(env_cols)))
    targets = np.zeros((len(rows), len(ordered)))
    available = np.zeros((len(rows), len(ordered)), dtype=bool)
    rejected = 0
    for row in rows:
        if len(row) != len(header):
            raise SchemaError(f"{path}: row with {len(row)} cells does not match {len(header)}-column header")
        rid = row[col["id"]]
        lat = _number(path, "lat", row[col["lat"]], rid)
        lon = _number(path, "lon", row[col["lon"]], rid)
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            rejected += 1
            continue
        k = len(ids)
        # An empty env cell is missing (imputed later by fit_norm); an empty
        # species cell is unavailable.
        env[k] = [np.nan if row[i] == "" else _number(path, header[i], row[i], rid) for _, i in env_cols]
        targets[k] = [0.0 if row[i] == "" else _number(path, header[i], row[i], rid) for _, i in ordered]
        available[k] = [row[i] != "" for _, i in ordered]
        ids.append(rid)
        lats.append(lat)
        lons.append(lon)
        if has_split:
            tags.append(row[col["split"]])
    if rejected:
        log.warning("%s: rejected %d rows with out-of-range coordinates", path, rejected)

    group_masks = {}
    if config is not None:
        for gname, members in config.get("groups", {}).items():
            members = set(members)
            group_masks[gname] = np.array([s in members for s in roster])

    split = None
    if has_split and any(tags):
        split = np.array(tags, dtype=object)
        if not set(np.unique(split)) <= set(SPLIT_TAGS):
            raise SchemaError(f"{path}: split column contains unknown tags")

    return Dataset(
        species=roster,
        ids=ids,
        lats=np.array(lats),
        lons=np.array(lons),
        env=env[: len(ids)],
        targets=targets[: len(ids)],
        available=available[: len(ids)],
        group_masks=group_masks,
        split=split,
    )


def save_dataset(ds: Dataset, path: str, config_path: str | None = None) -> None:
    """Write the CSV (+ optional sidecar config) in the documented format."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["id", "lat", "lon"]
        if ds.split is not None:
            header.append("split")
        header += [f"env_{k}" for k in range(ds.n_env)]
        header += [f"sp_{s}" for s in ds.species]
        writer.writerow(header)
        for i in range(ds.n_records):
            row = [ds.ids[i], repr(float(ds.lats[i])), repr(float(ds.lons[i]))]
            if ds.split is not None:
                row.append(str(ds.split[i]))
            row += [repr(float(v)) for v in ds.env[i]]
            row += [
                repr(float(ds.targets[i, c])) if ds.available[i, c] else ""
                for c in range(ds.n_species)
            ]
            writer.writerow(row)
    if config_path is not None:
        config = {
            "species": ds.species,
            "groups": {k: [s for s, m in zip(ds.species, v) if m] for k, v in ds.group_masks.items()},
        }
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)


def merge_targets(ds: Dataset, approved: list[tuple[str, str]]) -> Dataset:
    """Merge each approved pair into its first-named species.

    Values combine by max over available observations (equals logical OR for
    binary data); availability combines by OR. The roster shrinks by one per
    pair.
    """
    species = list(ds.species)
    targets = ds.targets.copy()
    available = ds.available.copy()
    masks = {k: v.copy() for k, v in ds.group_masks.items()}
    for keep_name, drop_name in approved:
        if keep_name not in species or drop_name not in species:
            missing = [n for n in (keep_name, drop_name) if n not in species]
            raise ValueError(f"merge pair references unknown species {missing}")
        k = species.index(keep_name)
        d = species.index(drop_name)
        both = available[:, k] & available[:, d]
        only_d = ~available[:, k] & available[:, d]
        targets[both, k] = np.maximum(targets[both, k], targets[both, d])
        targets[only_d, k] = targets[only_d, d]
        available[:, k] |= available[:, d]
        for name in masks:
            masks[name][k] |= masks[name][d]
        keep_cols = [c for c in range(len(species)) if c != d]
        targets = targets[:, keep_cols]
        available = available[:, keep_cols]
        masks = {name: m[keep_cols] for name, m in masks.items()}
        species.pop(d)
    return replace(ds, species=species, targets=targets, available=available, group_masks=masks)


# ---------------------------------------------------------------------------
# Spatial block split
# ---------------------------------------------------------------------------


def _check_split_args(block_deg: float, fractions) -> None:
    if not 0.0 < block_deg < np.inf:
        raise ValueError(f"block_deg must be a finite positive number of degrees, got {block_deg}")
    if len(fractions) != 3 or not all(f >= 0.0 for f in fractions) or not abs(sum(fractions) - 1.0) <= 1e-9:
        raise ValueError(f"fractions must be 3 non-negative values (train, val, test) that sum to 1, got {fractions}")


def spatial_block_split(
    lats: np.ndarray,
    lons: np.ndarray,
    block_deg: float = 1.0,
    fractions: tuple[float, float, float] = (0.70, 0.15, 0.15),
    seed: int = 0,
) -> np.ndarray:
    """Assign whole lat/lon blocks to train/val/test by seeded greedy fill.

    Each record falls in block (floor(lat/block_deg), floor(lon/block_deg));
    blocks are shuffled with `seed` and each goes to the split with the
    largest remaining record-count deficit, so no block ever spans two splits.
    """
    _check_split_args(block_deg, fractions)
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    n = lats.size
    if n == 0:
        raise ValueError("no records to split")

    bi = np.floor(lats / block_deg).astype(np.int64)
    bj = np.floor(lons / block_deg).astype(np.int64)
    blocks: dict[tuple[int, int], list[int]] = {}
    for idx in range(n):
        blocks.setdefault((int(bi[idx]), int(bj[idx])), []).append(idx)

    wanted = sum(1 for f in fractions if f > 0)
    if len(blocks) < wanted:
        log.warning(
            "only %d nonempty spatial blocks for %d requested splits; "
            "some splits will be empty", len(blocks), wanted,
        )

    keys = sorted(blocks)
    rng = np.random.default_rng(seed)
    rng.shuffle(keys)

    targets = [f * n for f in fractions]
    counts = [0.0, 0.0, 0.0]
    tags = np.empty(n, dtype=object)
    for key in keys:
        members = blocks[key]
        deficits = [targets[s] - counts[s] for s in range(3)]
        s = int(np.argmax(deficits))
        for idx in members:
            tags[idx] = SPLIT_TAGS[s]
        counts[s] += len(members)
    return tags


def assign_split(ds: Dataset, block_deg: float = 1.0, fractions=(0.70, 0.15, 0.15), seed: int = 0) -> Dataset:
    """Attach block-CV split tags unless the dataset already carries them.
    The arguments are checked either way."""
    _check_split_args(block_deg, fractions)
    if ds.split is not None:
        return ds
    tags = spatial_block_split(ds.lats, ds.lons, block_deg, fractions, seed)
    return replace(ds, split=tags)


# ---------------------------------------------------------------------------
# Species filtering
# ---------------------------------------------------------------------------


def presence_counts(ds: Dataset) -> np.ndarray:
    """Number of available records with a strictly positive target, per species."""
    return ((ds.targets > 0) & ds.available).sum(axis=0)


def filter_min_presences(ds: Dataset, min_count: int) -> Dataset:
    """Drop species with fewer than `min_count` presences across all records."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    keep = presence_counts(ds) >= min_count
    if not keep.any():
        raise ValueError(f"no species has at least {min_count} presences")
    cols = np.flatnonzero(keep)
    return replace(
        ds,
        species=[ds.species[c] for c in cols],
        targets=ds.targets[:, cols],
        available=ds.available[:, cols],
        group_masks={k: v[cols] for k, v in ds.group_masks.items()},
    )


# ---------------------------------------------------------------------------
# Environmental normalization
# ---------------------------------------------------------------------------


@dataclass
class NormStats:
    """Per-variable mean/std fitted on the training split only.

    Zero-variance (or all-missing) variables are dropped and recorded; missing
    values are imputed with the train mean before standardization.
    """

    mean: np.ndarray
    std: np.ndarray
    kept: np.ndarray      # indices of retained variables
    dropped: np.ndarray   # indices of dropped variables
    imputed_any: bool

    @property
    def n_kept(self) -> int:
        return len(self.kept)

    def to_json(self) -> str:
        return json.dumps(
            {
                "mean": self.mean.tolist(),
                "std": self.std.tolist(),
                "kept": self.kept.tolist(),
                "dropped": self.dropped.tolist(),
                "imputed_any": self.imputed_any,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "NormStats":
        d = json.loads(text)
        return cls(
            mean=np.asarray(d["mean"], dtype=float),
            std=np.asarray(d["std"], dtype=float),
            kept=np.asarray(d["kept"], dtype=int),
            dropped=np.asarray(d["dropped"], dtype=int),
            imputed_any=bool(d["imputed_any"]),
        )


def fit_norm(train_env: np.ndarray) -> NormStats:
    """Fit standardization statistics on the train split's env matrix."""
    train_env = np.asarray(train_env, dtype=float)
    n_var = train_env.shape[1]
    mean = np.zeros(n_var)
    std = np.ones(n_var)
    kept = []
    dropped = []
    imputed_any = bool(np.isnan(train_env).any())
    for v in range(n_var):
        col = train_env[:, v]
        obs = col[~np.isnan(col)]
        if obs.size == 0:
            dropped.append(v)
            continue
        mu = obs.mean()
        sigma = obs.std()
        mean[v] = mu
        if sigma <= 0.0:
            dropped.append(v)
            continue
        std[v] = sigma
        kept.append(v)
    if dropped:
        log.info("dropped %d zero-variance/all-missing env variables: %s", len(dropped), dropped)
    return NormStats(
        mean=mean,
        std=std,
        kept=np.asarray(kept, dtype=int),
        dropped=np.asarray(dropped, dtype=int),
        imputed_any=imputed_any,
    )


def apply_norm(env: np.ndarray, stats: NormStats) -> np.ndarray:
    """Impute missing values with train means, standardize, keep retained vars."""
    env = np.asarray(env, dtype=float)
    out = env.copy()
    nan = np.isnan(out)
    if nan.any():
        out[nan] = np.broadcast_to(stats.mean, out.shape)[nan]
    out = (out - stats.mean) / stats.std
    return out[:, stats.kept]
