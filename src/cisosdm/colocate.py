"""Asymmetric geospatial joining: for each location of dataset A, find the
nearest dataset-B location within a great-circle radius and attach its
species vector.

The index is scipy's KD-tree over unit-sphere embeddings of (lat, lon). Chord
distance on the unit sphere is monotone in great-circle distance, so a chord
ball query holds every candidate within the radius; the haversine formula
then picks the nearest of them and gives the reported distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Dataset

EARTH_RADIUS_KM = 6371.0


def haversine_km(p, q):
    """Great-circle distance in kilometers between (lat, lon) points in
    degrees; either coordinate pair may hold arrays, which broadcast."""
    lat1, lon1 = np.radians(p[0]), np.radians(p[1])
    lat2, lon2 = np.radians(q[0]), np.radians(q[1])
    s = np.sin((lat2 - lat1) / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(s, 1.0)))


def _unit_sphere(lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    lat = np.radians(np.asarray(lats, dtype=float))
    lon = np.radians(np.asarray(lons, dtype=float))
    return np.stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)], axis=1)


def _km_to_chord(km: float) -> float:
    return 2.0 * np.sin(min(km / (2.0 * EARTH_RADIUS_KM), np.pi / 2.0))


class BallTreeIndex:
    """KD-tree (``scipy.spatial.cKDTree``) over geographic points; answers
    queries under the haversine metric identically to a linear scan.

    The class keeps its older ball-tree name because callers and the
    benchmark's instrumentation look it up by that name.
    """

    def __init__(self, lats: np.ndarray, lons: np.ndarray):
        # Imported here, not at module level: `cli` imports this module, and
        # scipy.spatial would add its import time to every command.
        from scipy.spatial import cKDTree

        lats = np.atleast_1d(np.asarray(lats, dtype=float))
        lons = np.atleast_1d(np.asarray(lons, dtype=float))
        if lats.size == 0:
            raise ValueError("BallTreeIndex needs at least one point")
        self.lats = lats
        self.lons = lons
        self.tree = cKDTree(_unit_sphere(lats, lons))

    def nearest_within(self, lat: float, lon: float, radius_km: float) -> tuple[int, float] | None:
        """Index and haversine km of the closest point within `radius_km`
        (closed ball). Ties break toward the smaller point index."""
        q = _unit_sphere(np.array([lat]), np.array([lon]))[0]
        # Tiny relative and absolute inflation (at metre radii the rounding is absolute) keeps
        # boundary points; the exact haversine check below makes the final call.
        cand = self.tree.query_ball_point(q, _km_to_chord(radius_km) * (1.0 + 1e-12) + 1e-12, return_sorted=True)
        if not cand:
            return None
        d = haversine_km((lat, lon), (self.lats[cand], self.lons[cand]))
        k = int(np.argmin(d))  # candidates ascend, so the first minimum is the earliest point
        if d[k] > radius_km:
            return None
        return cand[k], float(d[k])


def build_index(lats: np.ndarray, lons: np.ndarray) -> BallTreeIndex:
    return BallTreeIndex(lats, lons)


@dataclass(frozen=True)
class CoLocation:
    a_id: str
    b_id: str
    distance_km: float


def colocate(a: Dataset, b: Dataset, radius_km: float = 1.0) -> list[CoLocation]:
    """Match each A location to its nearest B location within `radius_km`.

    At most one pair per A location; a B location may serve several A
    locations. The procedure is asymmetric: swapping the datasets can give a
    different pairing. Distance ties break toward the earlier B record.
    """
    if a.n_records == 0 or b.n_records == 0:
        raise ValueError("both datasets must be nonempty")
    if not radius_km >= 0.0:
        raise ValueError(f"radius_km must be a non-negative number, got {radius_km}")
    index = build_index(b.lats, b.lons)
    pairs: list[CoLocation] = []
    for i in range(a.n_records):
        hit = index.nearest_within(float(a.lats[i]), float(a.lons[i]), radius_km)
        if hit is not None:
            j, km = hit
            pairs.append(CoLocation(a_id=a.ids[i], b_id=b.ids[j], distance_km=km))
    return pairs


def _renamed(names: list[str], taken: set[str], label: str, what: str) -> list[str]:
    """`names`, each one in `taken` renamed `<label>_<name>`; a ValueError if any still clashes."""
    out = [f"{label}_{n}" if n in taken else n for n in names]
    if len(set(out) | taken) < len(out) + len(taken):
        clash = sorted((set(out) & taken) | {n for n in out if out.count(n) > 1})
        raise ValueError(f"B {what} names {clash} clash with A's even after renaming to '{label}_<name>'")
    return out


def attach(a: Dataset, b: Dataset, pairs: list[CoLocation], a_label: str = "a", b_label: str = "b") -> Dataset:
    """Combine rosters and graft paired B species data onto A's records.

    Unpaired A records keep all-false availability on the B side. Validation
    and test tags survive only on paired records; unpaired val/test records
    are dropped so evaluation sees complete information. A B species or group
    named like one of A's becomes `<b_label>_<name>`. Groups `a_label` and
    `b_label` mark each side; each must be a string naming no other group.
    """
    for side, ds in (("A", a), ("B", b)):
        if repeats := ds.repeated_ids():
            raise ValueError(f"dataset {side} repeats record ids {repeats[:5]}")
    overlap = set(a.ids) & set(b.ids)
    if overlap:
        raise ValueError(f"record id collision across datasets: {sorted(overlap)[:5]}")

    b_row = {rid: k for k, rid in enumerate(b.ids)}
    pair_for_a = {p.a_id: p for p in pairs}

    species = list(a.species) + _renamed(b.species, set(a.species), b_label, "species")
    n, ca, cb = a.n_records, a.n_species, b.n_species
    targets = np.zeros((n, ca + cb))
    available = np.zeros((n, ca + cb), dtype=bool)
    targets[:, :ca] = a.targets
    available[:, :ca] = a.available
    for i, rid in enumerate(a.ids):
        p = pair_for_a.get(rid)
        if p is None:
            continue
        j = b_row[p.b_id]
        targets[i, ca:] = b.targets[j]
        available[i, ca:] = b.available[j]

    masks = {name: np.concatenate([m, np.zeros(cb, dtype=bool)]) for name, m in a.group_masks.items()}
    for key, m in zip(_renamed(list(b.group_masks), set(masks), b_label, "group"), b.group_masks.values()):
        masks[key] = np.concatenate([np.zeros(ca, dtype=bool), m])
    for key, label, a_side in (("a_label", a_label, True), ("b_label", b_label, False)):
        if not isinstance(label, str) or label in masks:
            raise ValueError(f"{key} must be a string naming no other group, got {label!r}; groups: {sorted(masks)}")
        masks[label] = (np.arange(ca + cb) < ca) == a_side

    combined = Dataset(
        species=species,
        ids=list(a.ids),
        lats=a.lats.copy(),
        lons=a.lons.copy(),
        env=a.env.copy(),
        targets=targets,
        available=available,
        group_masks=masks,
        split=None if a.split is None else a.split.copy(),
    )
    if combined.split is not None:
        paired = np.array([rid in pair_for_a for rid in combined.ids])
        keep = paired | (combined.split == "train")
        if not keep.all():
            combined = combined.subset(np.flatnonzero(keep))
    return combined


def pairs_to_csv(pairs: list[CoLocation], path: str) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a_id", "b_id", "distance_km"])
        for p in pairs:
            writer.writerow([p.a_id, p.b_id, f"{p.distance_km:.9f}"])
