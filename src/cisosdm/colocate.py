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
        # Tiny inflation so boundary points survive chord/haversine rounding;
        # the exact haversine check below makes the final call.
        cand = self.tree.query_ball_point(q, _km_to_chord(radius_km) * (1.0 + 1e-12), return_sorted=True)
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


def attach(a: Dataset, b: Dataset, pairs: list[CoLocation], a_label: str = "a", b_label: str = "b") -> Dataset:
    """Combine rosters and graft paired B species data onto A's records.

    Unpaired A records keep all-false availability on the B side. Validation
    and test tags survive only on paired records; unpaired val/test records
    are dropped so evaluation sees complete information.
    """
    overlap = set(a.ids) & set(b.ids)
    if overlap:
        raise ValueError(f"record id collision across datasets: {sorted(overlap)[:5]}")

    b_row = {rid: k for k, rid in enumerate(b.ids)}
    pair_for_a = {p.a_id: p for p in pairs}

    species = list(a.species) + list(b.species)
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

    masks: dict[str, np.ndarray] = {}
    for name, m in a.group_masks.items():
        masks[name] = np.concatenate([m, np.zeros(cb, dtype=bool)])
    for name, m in b.group_masks.items():
        key = name if name not in masks else f"{b_label}_{name}"
        masks[key] = np.concatenate([np.zeros(ca, dtype=bool), m])
    masks[a_label] = np.concatenate([np.ones(ca, dtype=bool), np.zeros(cb, dtype=bool)])
    masks[b_label] = np.concatenate([np.zeros(ca, dtype=bool), np.ones(cb, dtype=bool)])

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
        dropped = int((~keep).sum())
        if dropped:
            combined = combined.subset(np.flatnonzero(keep))
    return combined


def pairs_to_csv(pairs: list[CoLocation], path: str) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a_id", "b_id", "distance_km"])
        for p in pairs:
            writer.writerow([p.a_id, p.b_id, f"{p.distance_km:.9f}"])
