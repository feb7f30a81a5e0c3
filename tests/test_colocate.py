import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisosdm import colocate as co
from cisosdm.dataio import Dataset


def colocate_bruteforce(a, b, radius_km=1.0):
    """O(|A| x |B|) reference join: the closest B record within the closed
    radius, ties to the earlier B record."""
    pairs = []
    for i in range(a.n_records):
        best = None
        for j in range(b.n_records):
            d = co.haversine_km((float(a.lats[i]), float(a.lons[i])), (float(b.lats[j]), float(b.lons[j])))
            if d <= radius_km and (best is None or d < best[0]):
                best = (d, j)
        if best is not None:
            pairs.append(co.CoLocation(a_id=a.ids[i], b_id=b.ids[best[1]], distance_km=best[0]))
    return pairs


def make_dataset(lats, lons, prefix="p", species=("x",), targets=None, split=None):
    n = len(lats)
    c = len(species)
    return Dataset(
        species=list(species),
        ids=[f"{prefix}{i}" for i in range(n)],
        lats=np.asarray(lats, float),
        lons=np.asarray(lons, float),
        env=np.zeros((n, 1)),
        targets=np.asarray(targets, float) if targets is not None else np.zeros((n, c)),
        available=np.ones((n, c), bool),
        split=np.array(split, dtype=object) if split is not None else None,
    )


class TestHaversine:
    def test_zero_distance(self):
        assert co.haversine_km((12.3, 45.6), (12.3, 45.6)) == 0.0

    def test_one_degree_longitude_at_equator(self):
        # 2 pi R / 360
        assert co.haversine_km((0, 0), (0, 1)) == pytest.approx(111.195, abs=1e-3)

    def test_antipodal(self):
        assert co.haversine_km((0, 0), (0, 180)) == pytest.approx(np.pi * 6371.0, abs=1e-6)


class TestBallTree:
    def test_single_point(self):
        idx = co.build_index(np.array([10.0]), np.array([20.0]))
        hit = idx.nearest_within(10.0, 20.0, 1.0)
        assert hit == (0, 0.0)

    def test_nearest_outside_radius_is_none(self):
        idx = co.build_index(np.array([0.0]), np.array([0.0]))
        assert idx.nearest_within(0.0, 0.1, 1.0) is None  # ~11 km away


class TestColocate:
    def test_pair_within_radius(self):
        a = make_dataset([0.0], [0.0], "a")
        b = make_dataset([0.0045], [0.0], "b")  # ~0.5 km north
        pairs = co.colocate(a, b, 1.0)
        assert len(pairs) == 1
        assert pairs[0].a_id == "a0" and pairs[0].b_id == "b0"
        assert pairs[0].distance_km == pytest.approx(0.5, abs=0.01)

    def test_no_pair_beyond_radius(self):
        a = make_dataset([0.0], [0.0], "a")
        b = make_dataset([0.018], [0.0], "b")  # ~2 km
        assert co.colocate(a, b, 1.0) == []

    def test_closest_wins(self):
        a = make_dataset([0.0], [0.0], "a")
        b = make_dataset([0.0072, 0.0027], [0.0, 0.0], "b")  # 0.8 km and 0.3 km
        pairs = co.colocate(a, b, 1.0)
        assert pairs[0].b_id == "b1"

    def test_equal_distances_break_toward_earlier_b(self):
        a = make_dataset([0.0], [0.0], "a")
        b = make_dataset([0.004, 0.004], [0.0, 0.0], "b")  # exact duplicates
        pairs = co.colocate(a, b, 1.0)
        assert pairs[0].b_id == "b0"

    def test_matches_bruteforce_on_random_clouds(self):
        rng = np.random.default_rng(1)
        a = make_dataset(rng.uniform(40, 40.3, 400), rng.uniform(-80, -79.7, 400), "a")
        b = make_dataset(rng.uniform(40, 40.3, 400), rng.uniform(-80, -79.7, 400), "b")
        fast = co.colocate(a, b, 1.0)
        slow = colocate_bruteforce(a, b, 1.0)
        assert [(p.a_id, p.b_id) for p in fast] == [(p.a_id, p.b_id) for p in slow]
        assert all(abs(x.distance_km - y.distance_km) < 1e-9 for x, y in zip(fast, slow))

    def test_asymmetry_on_constructed_example(self):
        # Two A points share one nearest B; B's two points pair differently.
        a = make_dataset([0.0, 0.008], [0.0, 0.0], "a")
        b = make_dataset([0.003], [0.0], "b")
        ab = co.colocate(a, b, 1.0)
        ba = co.colocate(b, a, 1.0)
        assert len(ab) == 2  # both A points claim the single B point
        assert len(ba) == 1
        assert {p.a_id for p in ab} == {"a0", "a1"}

    def test_b_point_reuse_allowed(self):
        a = make_dataset([0.0, 0.001], [0.0, 0.0], "a")
        b = make_dataset([0.0005], [0.0], "b")
        pairs = co.colocate(a, b, 1.0)
        assert [p.b_id for p in pairs] == ["b0", "b0"]

    def test_repeated_runs_identical(self):
        rng = np.random.default_rng(2)
        a = make_dataset(rng.uniform(0, 0.2, 150), rng.uniform(0, 0.2, 150), "a")
        b = make_dataset(rng.uniform(0, 0.2, 150), rng.uniform(0, 0.2, 150), "b")
        assert co.colocate(a, b, 1.0) == co.colocate(a, b, 1.0)


def _cloud(draw, center, n, prefix):
    """`n` sites within ~5 km of `center`, wrapped onto valid coordinates."""
    lat0, lon0 = center
    offsets = draw(st.lists(st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)), min_size=n, max_size=n))
    lats = [min(90.0, max(-90.0, lat0 + dlat)) for dlat, _ in offsets]
    lons = [(lon0 + dlon + 180.0) % 360.0 - 180.0 for _, dlon in offsets]
    return make_dataset(lats, lons, prefix)


@st.composite
def join_case(draw):
    """Two small clouds around one centre (mid-latitude, near a pole or
    astride the antimeridian), with duplicated B sites and optionally a
    radius equal to the exact distance of one A-B pair."""
    center = draw(
        st.one_of(
            st.tuples(st.floats(-60.0, 60.0), st.floats(-179.0, 179.0)),
            st.tuples(st.sampled_from([-89.99, 89.99]), st.floats(-180.0, 180.0)),
            st.tuples(st.floats(-60.0, 60.0), st.sampled_from([-179.99, 179.99])),
        )
    )
    a = _cloud(draw, center, draw(st.integers(1, 25)), "a")
    b = _cloud(draw, center, draw(st.integers(1, 25)), "b")
    repeats = draw(st.lists(st.integers(0, b.n_records - 1), max_size=5))
    if repeats:
        rows = np.concatenate([np.arange(b.n_records), repeats])
        b = make_dataset(b.lats[rows], b.lons[rows], "b")
    if draw(st.booleans()):
        i, j = draw(st.integers(0, a.n_records - 1)), draw(st.integers(0, b.n_records - 1))
        radius = co.haversine_km((float(a.lats[i]), float(a.lons[i])), (float(b.lats[j]), float(b.lons[j])))
    else:
        radius = draw(st.floats(0.0, 6.0))
    return a, b, float(radius)


@settings(max_examples=60, deadline=None)
@given(join_case())
def test_colocate_equals_bruteforce_property(case):
    a, b, radius = case
    fast = co.colocate(a, b, radius)
    slow = colocate_bruteforce(a, b, radius)
    assert [(p.a_id, p.b_id) for p in fast] == [(p.a_id, p.b_id) for p in slow]
    assert all(abs(x.distance_km - y.distance_km) < 1e-9 for x, y in zip(fast, slow))


class TestAttach:
    def make_pair_setup(self):
        a = make_dataset(
            [0.0, 0.1, 0.2],
            [0.0, 0.1, 0.2],
            "a",
            species=("oak", "fern"),
            targets=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            split=["train", "val", "train"],
        )
        b = make_dataset(
            [0.0001, 0.1001],
            [0.0, 0.1],
            "b",
            species=("robin",),
            targets=[[0.4], [0.7]],
            split=["train", "train"],
        )
        return a, b

    def test_paired_records_copy_b_targets(self):
        a, b = self.make_pair_setup()
        pairs = co.colocate(a, b, 1.0)
        combined = co.attach(a, b, pairs)
        assert combined.species == ["oak", "fern", "robin"]
        i = combined.ids.index("a0")
        assert combined.targets[i, 2] == 0.4
        assert combined.available[i, 2]

    def test_unpaired_train_record_keeps_unavailable_b_side(self):
        a, b = self.make_pair_setup()
        pairs = co.colocate(a, b, 1.0)
        combined = co.attach(a, b, pairs)
        i = combined.ids.index("a2")
        assert not combined.available[i, 2]
        assert combined.targets[i, 2] == 0.0

    def test_unpaired_val_test_records_dropped(self):
        a, b = self.make_pair_setup()
        # remove the b point near the val record so it is unpaired
        b_short = make_dataset([0.0001], [0.0], "b", species=("robin",), targets=[[0.4]], split=["train"])
        pairs = co.colocate(a, b_short, 1.0)
        combined = co.attach(a, b_short, pairs)
        assert "a1" not in combined.ids  # val and unpaired
        assert "a2" in combined.ids  # train stays even unpaired

    def test_group_masks_cover_both_sides(self):
        a, b = self.make_pair_setup()
        combined = co.attach(a, b, co.colocate(a, b, 1.0), a_label="plants", b_label="birds")
        assert np.array_equal(combined.group_masks["plants"], [True, True, False])
        assert np.array_equal(combined.group_masks["birds"], [False, False, True])

    def test_id_collision_rejected(self):
        a = make_dataset([0.0], [0.0], "x")
        b = make_dataset([0.0], [0.0], "x")
        with pytest.raises(ValueError, match="collision"):
            co.attach(a, b, [])

    def test_pair_counts_match_bruteforce_on_grid(self):
        # 5x5 A grid at ~1.1 km spacing, B on alternating offsets
        step = 0.01
        lats_a, lons_a, lats_b, lons_b = [], [], [], []
        for i in range(5):
            for j in range(5):
                lats_a.append(i * step)
                lons_a.append(j * step)
                if (i + j) % 2 == 0:
                    lats_b.append(i * step + 0.002)
                    lons_b.append(j * step)
        a = make_dataset(lats_a, lons_a, "a")
        b = make_dataset(lats_b, lons_b, "b")
        pairs = co.colocate(a, b, 1.0)
        brute = colocate_bruteforce(a, b, 1.0)
        assert [(p.a_id, p.b_id) for p in pairs] == [(p.a_id, p.b_id) for p in brute]
        combined = co.attach(a, b, pairs)
        assert combined.available[:, 1].sum() == len(pairs)


def test_pairs_csv_shape(tmp_path):
    a = make_dataset([0.0], [0.0], "a")
    b = make_dataset([0.0001], [0.0], "b")
    path = tmp_path / "pairs.csv"
    co.pairs_to_csv(co.colocate(a, b, 1.0), str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a_id,b_id,distance_km"
    assert lines[1].startswith("a0,b0,")
