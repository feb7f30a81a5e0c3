import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisosdm import dataio


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


BASIC = """id,lat,lon,env_0,env_1,sp_oak,sp_fern,sp_moss
r1,10.0,20.0,1.5,0.5,1.0,0.0,1.0
r2,11.0,21.0,2.5,1.5,0.0,1.0,0.0
"""


class TestLoadDataset:
    def test_all_targets_present(self, tmp_path):
        ds = dataio.load_dataset(write_csv(tmp_path, BASIC))
        assert ds.species == ["oak", "fern", "moss"]
        assert ds.n_records == 2
        assert ds.available.all()

    def test_empty_cell_marks_unavailable(self, tmp_path):
        text = BASIC.replace("r2,11.0,21.0,2.5,1.5,0.0,1.0,0.0", "r2,11.0,21.0,2.5,1.5,0.0,,0.0")
        ds = dataio.load_dataset(write_csv(tmp_path, text))
        assert not ds.available[1, 1]
        assert ds.available[1, 0] and ds.available[1, 2]
        assert ds.targets[1, 1] == 0.0

    def test_roster_mismatch_is_schema_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"species": ["oak", "fern", "pine"]}))
        with pytest.raises(dataio.SchemaError, match="roster mismatch"):
            dataio.load_dataset(write_csv(tmp_path, BASIC), str(cfg))

    def test_config_fixes_roster_order_and_groups(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"species": ["moss", "oak", "fern"], "groups": {"short": ["moss", "fern"]}}))
        ds = dataio.load_dataset(write_csv(tmp_path, BASIC), str(cfg))
        assert ds.species == ["moss", "oak", "fern"]
        assert np.array_equal(ds.targets[0], [1.0, 1.0, 0.0])
        assert np.array_equal(ds.group_masks["short"], [True, False, True])

    def test_missing_columns_listed(self, tmp_path):
        with pytest.raises(dataio.SchemaError, match="lat"):
            dataio.load_dataset(write_csv(tmp_path, "id,lon,env_0,sp_a\nr,0,1,1\n"))

    def test_non_numeric_env_names_row(self, tmp_path):
        text = BASIC.replace("r2,11.0,21.0,2.5", "r2,11.0,21.0,oops")
        with pytest.raises(dataio.SchemaError, match="r2"):
            dataio.load_dataset(write_csv(tmp_path, text))

    def test_out_of_range_coordinates_rejected(self, tmp_path, caplog):
        text = BASIC + "r3,95.0,20.0,1.0,1.0,1.0,1.0,1.0\n"
        with caplog.at_level("WARNING"):
            ds = dataio.load_dataset(write_csv(tmp_path, text))
        assert ds.n_records == 2
        assert any("rejected 1" in r.message for r in caplog.records)

    def test_split_column_ingested(self, tmp_path):
        text = (
            "id,lat,lon,split,env_0,sp_a\n"
            "r1,0,0,train,1.0,1.0\n"
            "r2,1,1,test,2.0,0.0\n"
        )
        ds = dataio.load_dataset(write_csv(tmp_path, text))
        assert list(ds.split) == ["train", "test"]

    def test_roundtrip_save_load(self, tmp_path):
        ds = dataio.load_dataset(write_csv(tmp_path, BASIC))
        ds.group_masks["woody"] = np.array([True, False, False])
        ds = dataio.assign_split(ds, block_deg=1.0, seed=0)
        out_csv = str(tmp_path / "out.csv")
        out_cfg = str(tmp_path / "out.json")
        dataio.save_dataset(ds, out_csv, out_cfg)
        back = dataio.load_dataset(out_csv, out_cfg)
        assert back.species == ds.species
        assert np.array_equal(back.targets, ds.targets)
        assert np.array_equal(back.available, ds.available)
        assert np.array_equal(back.env, ds.env)
        assert list(back.split) == list(ds.split)
        assert np.array_equal(back.group_masks["woody"], ds.group_masks["woody"])


class TestFuzzyMerge:
    def test_identical_strings_score_100(self):
        assert dataio.indel_similarity("Carex cespitosa", "Carex cespitosa") == 100.0

    def test_known_variant_spelling_scores_close_to_98(self):
        score = dataio.indel_similarity("Echinochloa crus-galli", "Echinochloa crusgalli")
        assert score >= 95.0
        assert abs(score - 98.0) <= 3.0

    def test_disjoint_strings_score_0(self):
        assert dataio.indel_similarity("abc", "xyz") == 0.0

    def test_proposals_sorted_and_thresholded(self):
        roster = ["Carex cespitosa", "Carex caespitosa", "Pinus nigra", "abc"]
        proposals = dataio.fuzzy_merge_species(roster, threshold=90.0)
        assert proposals[0][:2] == ("Carex cespitosa", "Carex caespitosa")
        assert all(score > 90.0 for *_, score in proposals)
        scores = [score for *_, score in proposals]
        assert scores == sorted(scores, reverse=True)

    def test_threshold_range_checked(self):
        with pytest.raises(ValueError):
            dataio.fuzzy_merge_species(["a"], threshold=150.0)


def toy_dataset(targets, available=None, species=None):
    targets = np.asarray(targets, dtype=float)
    n, c = targets.shape
    return dataio.Dataset(
        species=species or [f"s{i}" for i in range(c)],
        ids=[f"r{i}" for i in range(n)],
        lats=np.linspace(0.1, 0.9, n),
        lons=np.linspace(0.1, 0.9, n),
        env=np.zeros((n, 2)),
        targets=targets,
        available=np.ones((n, c), bool) if available is None else np.asarray(available, bool),
    )


class TestValidate:
    def test_missing_env_cell_passes(self, tmp_path):
        text = BASIC.replace("r2,11.0,21.0,2.5,1.5", "r2,11.0,21.0,,1.5")
        ds = dataio.load_dataset(write_csv(tmp_path, text))
        assert np.isnan(ds.env[1, 0])
        ds.validate()

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_env_rejected(self, value):
        ds = toy_dataset([[1.0, 0.0]])
        ds.env[0, 1] = value
        with pytest.raises(dataio.SchemaError, match="infinite"):
            ds.validate()

    @pytest.mark.parametrize("value", [1.5, -0.1, np.nan])
    def test_observed_target_outside_unit_interval_rejected(self, value):
        ds = toy_dataset([[1.0, value]])
        with pytest.raises(dataio.SchemaError, match=r"\[0, 1\]"):
            ds.validate()

    def test_unobserved_target_is_not_checked(self):
        toy_dataset([[1.0, 7.0]], available=[[True, False]]).validate()

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("targets", np.zeros((2, 2)), "targets shape"),
            ("available", np.ones((1, 3), bool), "availability shape"),
            ("env", np.zeros((2, 2)), "env shape"),
        ],
    )
    def test_shape_mismatch_is_schema_error(self, field, value, match):
        ds = toy_dataset([[1.0, 0.0]])
        setattr(ds, field, value)
        with pytest.raises(dataio.SchemaError, match=match):
            ds.validate()

    def test_group_mask_length_is_schema_error(self):
        ds = toy_dataset([[1.0, 0.0]])
        ds.group_masks["g"] = np.array([True, False, True])
        with pytest.raises(dataio.SchemaError, match="group mask 'g'"):
            ds.validate()

    def test_unnumbered_env_header_names_column(self, tmp_path):
        text = BASIC.replace("env_1", "env_a")
        with pytest.raises(dataio.SchemaError, match="'env_a'"):
            dataio.load_dataset(write_csv(tmp_path, text))


class TestMergeTargets:
    def test_binary_or(self):
        ds = toy_dataset([[1.0, 0.0], [0.0, 0.0]])
        merged = dataio.merge_targets(ds, [("s0", "s1")])
        assert merged.species == ["s0"]
        assert np.array_equal(merged.targets[:, 0], [1.0, 0.0])

    def test_rates_take_max(self):
        ds = toy_dataset([[0.3, 0.5]])
        merged = dataio.merge_targets(ds, [("s0", "s1")])
        assert merged.targets[0, 0] == 0.5

    def test_availability_or_keeps_observed_value(self):
        ds = toy_dataset([[0.2, 0.0]], available=[[True, False]])
        merged = dataio.merge_targets(ds, [("s0", "s1")])
        assert merged.available[0, 0]
        assert merged.targets[0, 0] == 0.2

    def test_unknown_species_errors(self):
        ds = toy_dataset([[1.0, 0.0]])
        with pytest.raises(ValueError, match="unknown species"):
            dataio.merge_targets(ds, [("s0", "nope")])


class TestSpatialBlockSplit:
    def test_floor_rule_separates_blocks(self):
        tags = dataio.spatial_block_split(np.array([0.5, 1.5]), np.array([0.0, 0.0]), 1.0, (0.5, 0.25, 0.25), seed=0)
        # both blocks nonempty and assigned independently
        assert set(tags) <= {"train", "val", "test"}

    def test_single_block_goes_to_train_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            tags = dataio.spatial_block_split(np.full(5, 0.2), np.full(5, 0.3), 1.0, (0.7, 0.15, 0.15), seed=1)
        assert list(tags) == ["train"] * 5
        assert any("nonempty spatial blocks" in r.message for r in caplog.records)

    def test_partition_and_block_integrity(self):
        rng = np.random.default_rng(2)
        lats = rng.uniform(0, 10, 500)
        lons = rng.uniform(0, 10, 500)
        tags = dataio.spatial_block_split(lats, lons, 1.0, (0.7, 0.15, 0.15), seed=3)
        assert all(t in ("train", "val", "test") for t in tags)
        blocks = {}
        for i in range(500):
            key = (np.floor(lats[i]), np.floor(lons[i]))
            blocks.setdefault(key, set()).add(tags[i])
        assert all(len(s) == 1 for s in blocks.values())

    def test_fractions_approached_within_5_points(self):
        rng = np.random.default_rng(4)
        lats = rng.uniform(0, 10, 4000)  # ~100 blocks
        lons = rng.uniform(0, 10, 4000)
        tags = dataio.spatial_block_split(lats, lons, 1.0, (0.7, 0.15, 0.15), seed=5)
        for tag, frac in zip(("train", "val", "test"), (0.7, 0.15, 0.15)):
            got = (tags == tag).mean()
            assert abs(got - frac) <= 0.05, (tag, got)

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            dataio.spatial_block_split(np.array([0.0]), np.array([0.0]), 1.0, (0.5, 0.3, 0.3), seed=0)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(6)
        lats, lons = rng.uniform(0, 5, 200), rng.uniform(0, 5, 200)
        a = dataio.spatial_block_split(lats, lons, 1.0, (0.7, 0.15, 0.15), seed=9)
        b = dataio.spatial_block_split(lats, lons, 1.0, (0.7, 0.15, 0.15), seed=9)
        assert list(a) == list(b)


class TestFilterMinPresences:
    def test_rare_species_dropped(self):
        ds = toy_dataset(np.array([[1.0, 1.0]] + [[0.0, 1.0]] * 4))
        kept = dataio.filter_min_presences(ds, 2)
        assert kept.species == ["s1"]

    def test_boundary_at_least(self):
        targets = np.zeros((100, 2))
        targets[:100, 0] = 1.0
        targets[:99, 1] = 1.0
        ds = toy_dataset(targets)
        kept = dataio.filter_min_presences(ds, 100)
        assert kept.species == ["s0"]

    def test_matches_bruteforce_recount(self):
        rng = np.random.default_rng(7)
        targets = (rng.random((50, 8)) < 0.3).astype(float)
        available = rng.random((50, 8)) < 0.8
        ds = toy_dataset(targets, available)
        kept = dataio.filter_min_presences(ds, 5)
        expected = [
            f"s{c}"
            for c in range(8)
            if sum(1 for i in range(50) if available[i, c] and targets[i, c] > 0) >= 5
        ]
        assert kept.species == expected

    def test_empty_roster_errors(self):
        ds = toy_dataset([[0.0, 0.0]])
        with pytest.raises(ValueError):
            dataio.filter_min_presences(ds, 1)

    def test_merge_then_filter_never_loses_presences(self):
        rng = np.random.default_rng(8)
        targets = (rng.random((30, 4)) < 0.4).astype(float)
        ds = toy_dataset(targets, species=["a", "b", "c", "d"])
        merged = dataio.merge_targets(ds, [("a", "b")])
        merged_counts = dataio.presence_counts(merged)
        plain_counts = dataio.presence_counts(ds)
        assert merged_counts[0] >= max(plain_counts[0], plain_counts[1])


class TestNorm:
    def test_constant_column_dropped(self):
        env = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        stats = dataio.fit_norm(env)
        assert list(stats.dropped) == [1]
        assert dataio.apply_norm(env, stats).shape == (3, 1)

    def test_two_point_column_maps_to_unit(self):
        env = np.array([[0.0], [2.0]])
        stats = dataio.fit_norm(env)
        out = dataio.apply_norm(env, stats)
        assert np.allclose(out.ravel(), [-1.0, 1.0])

    def test_val_uses_train_stats(self):
        train = np.array([[0.0], [2.0]])
        val = np.array([[4.0]])
        stats = dataio.fit_norm(train)
        assert dataio.apply_norm(val, stats)[0, 0] == pytest.approx(3.0)

    def test_idempotence(self):
        rng = np.random.default_rng(9)
        env = rng.normal(3.0, 2.5, size=(200, 4))
        stats = dataio.fit_norm(env)
        once = dataio.apply_norm(env, stats)
        stats2 = dataio.fit_norm(once)
        assert np.abs(stats2.mean[stats2.kept]).max() < 1e-9
        assert np.abs(stats2.std[stats2.kept] - 1.0).max() < 1e-9

    def test_missing_values_imputed_with_train_mean(self):
        env = np.array([[1.0], [np.nan], [3.0]])
        stats = dataio.fit_norm(env)
        assert stats.imputed_any
        out = dataio.apply_norm(env, stats)
        assert np.isfinite(out).all()
        assert out[1, 0] == pytest.approx(0.0)

    def test_json_roundtrip(self):
        stats = dataio.fit_norm(np.array([[0.0, 1.0], [2.0, 1.0]]))
        back = dataio.NormStats.from_json(stats.to_json())
        assert np.array_equal(back.kept, stats.kept)
        assert np.array_equal(back.mean, stats.mean)


@given(st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_split_is_partition(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(3, 80)
    lats = rng.uniform(-5, 5, n)
    lons = rng.uniform(-5, 5, n)
    tags = dataio.spatial_block_split(lats, lons, 1.0, (0.7, 0.15, 0.15), seed=seed)
    assert len(tags) == n
    assert all(t in dataio.SPLIT_TAGS for t in tags)
