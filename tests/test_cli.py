import ast
import csv
import json
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
import scipy

import cisosdm
from cisosdm import cli, dataio, numerics as nm


def _src_modules(but: str = ""):
    """(file name, AST) of each module of the package except `but`."""
    package = os.path.dirname(cisosdm.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != but:
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), name)


def _names(node) -> set:
    """The identifiers an AST node names: a variable, an attribute, a definition or an import."""
    return {getattr(node, key, None) for key in ("id", "attr", "name")}


def run_cli(args):
    return cli.main(args)


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def set_first_row_cell(src, dst, column, value):
    """Copy the CSV `src` to `dst` with the first data row's cell in the first
    column whose name satisfies `column` replaced by `value`."""
    lines = src.read_text().splitlines()
    index = next(i for i, name in enumerate(lines[0].split(",")) if column(name))
    cells = lines[1].split(",")
    cells[index] = value
    lines[1] = ",".join(cells)
    dst.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def synth_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    cfg = write_json(out / "synth.json", {"benchmark": "interaction", "n_locations": 300})
    assert run_cli(["synth", "--config", cfg, "--out-dir", str(out), "--seed", "5"]) == 0
    return out


@pytest.fixture(scope="module")
def trained_bundle(tmp_path_factory, synth_bundle):
    out = tmp_path_factory.mktemp("trained")
    cfg = write_json(
        out / "train.json",
        {
            "dataset": str(synth_bundle / "dataset.csv"),
            "family": "ciso",
            "hyperparams": {"hidden_dim": 8, "heads": 2, "transformer_layers": 1, "dropout": 0.0},
            "train": {"epochs": 1, "batch_size": 32, "lr": 0.003, "n_b": 1},
        },
    )
    assert run_cli(["train", "--config", cfg, "--out-dir", str(out), "--seed", "2"]) == 0
    return out


class TestSynthCommand:
    def test_outputs_and_manifest(self, synth_bundle):
        for name in ("dataset.csv", "dataset.json", "oracle_report.json", "manifest.json"):
            assert (synth_bundle / name).exists()
        manifest = json.loads((synth_bundle / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 5
        assert "dataset.csv" in manifest["outputs"]
        assert manifest["toolkit_version"]
        assert manifest["blas_threads"] == nm.blas_threads()
        assert manifest["predict_workers"] == nm.workers() >= 1
        assert manifest["versions"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }

    def test_manifest_records_config_with_defaults(self, synth_bundle, trained_bundle):
        synth = json.loads((synth_bundle / "manifest.json").read_text())["config"]
        assert synth == {
            "benchmark": "interaction",
            "n_locations": 300,
            "rate_mode": False,
            "n_species": None,
            "n_env": None,
            "edges": None,
            "env_scale": 1.0,
            "noise": 0.5,
            "missing_rate": 0.0,
        }
        train = json.loads((trained_bundle / "manifest.json").read_text())["config"]
        assert train["dataset_config"] is None and train["family"] == "ciso"
        assert train["train"] == {"epochs": 1, "batch_size": 32, "lr": 0.003, "n_b": 1}

    def test_oracle_report_has_headroom(self, synth_bundle):
        report = json.loads((synth_bundle / "oracle_report.json").read_text())
        assert report["conditional_mae"] <= report["marginal_mae"]

    def test_null_benchmark_honours_rate_mode(self, tmp_path):
        cfg = write_json(tmp_path / "null.json", {"benchmark": "null", "rate_mode": True, "n_locations": 300})
        assert run_cli(["synth", "--config", cfg, "--out-dir", str(tmp_path), "--seed", "5"]) == 0
        assert not (tmp_path / "oracle_report.json").exists()
        targets = dataio.load_dataset(str(tmp_path / "dataset.csv"), str(tmp_path / "dataset.json")).targets
        positive = targets[targets > 0]
        assert positive.size and (positive <= 1).all() and (positive < 1).any()


class TestTrainCommand:
    def test_checkpoint_and_history(self, trained_bundle):
        assert (trained_bundle / "checkpoint.ckpt").exists()
        history = (trained_bundle / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_metric_uncond,val_metric_cond"
        assert len(history) == 2  # header + one epoch
        assert history[1].startswith("0,")

    def test_rerun_is_byte_identical(self, trained_bundle, synth_bundle, tmp_path):
        cfg = write_json(
            tmp_path / "train.json",
            {
                "dataset": str(synth_bundle / "dataset.csv"),
                "family": "ciso",
                "hyperparams": {"hidden_dim": 8, "heads": 2, "transformer_layers": 1, "dropout": 0.0},
                "train": {"epochs": 1, "batch_size": 32, "lr": 0.003, "n_b": 1},
            },
        )
        out2 = tmp_path / "run2"
        assert run_cli(["train", "--config", cfg, "--out-dir", str(out2), "--seed", "2"]) == 0
        a = (trained_bundle / "checkpoint.ckpt").read_bytes()
        b = (out2 / "checkpoint.ckpt").read_bytes()
        assert a == b

    @pytest.mark.parametrize(
        "section, key, spelled, plain",
        [("train", "lr", 1, 1.0), ("hyperparams", "dropout", 0, 0.0),
         ("train", "epochs", 1.0, 1), ("hyperparams", "hidden_dim", 8.0, 8)],
    )
    def test_number_spelling_does_not_change_the_checkpoint(self, synth_bundle, tmp_path, section, key, spelled, plain):
        # A setting's kind decides what the checkpoint stores, not how the JSON number is written.
        blobs = []
        for value in (spelled, plain):
            config = {
                "dataset": str(synth_bundle / "dataset.csv"),
                "hyperparams": {"hidden_dim": 8, "heads": 2, "transformer_layers": 1, "dropout": 0.0},
                "train": {"epochs": 1, "batch_size": 32, "lr": 0.003, "n_b": 1},
            }
            config[section][key] = value
            cfg, out = write_json(tmp_path / f"{value!r}.json", config), tmp_path / repr(value)
            assert run_cli(["train", "--config", cfg, "--out-dir", str(out)]) == 0
            blobs.append((out / "checkpoint.ckpt").read_bytes())
        assert blobs[0] == blobs[1]

    def test_checkpoint_bytes_do_not_depend_on_thread_count(self, synth_bundle, tmp_path, monkeypatch):
        cfg = write_json(
            tmp_path / "train.json",
            {
                "dataset": str(synth_bundle / "dataset.csv"),
                "family": "ciso",
                "hyperparams": {"hidden_dim": 8, "heads": 2, "transformer_layers": 2, "dropout": 0.2},
                "train": {"epochs": 2, "batch_size": 32, "lr": 0.003, "n_b": 1},
            },
        )
        outputs = set()
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("CISO_THREADS", threads)
            out = tmp_path / f"w{threads}"
            assert run_cli(["train", "--config", cfg, "--out-dir", str(out), "--seed", "4"]) == 0
            outputs.add(((out / "checkpoint.ckpt").read_bytes(), (out / "history.csv").read_bytes()))
        assert len(outputs) == 1

    def test_epoch_lines_go_to_stderr(self, synth_bundle, tmp_path):
        cfg = write_json(
            tmp_path / "train.json",
            {"dataset": str(synth_bundle / "dataset.csv"), "family": "linear", "train": {"epochs": 2}},
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cisosdm.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "cisosdm.cli", "train", "--config", cfg, "--out-dir", str(tmp_path / "out")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""
        lines = [line for line in proc.stderr.splitlines() if "epoch" in line]
        assert [line.split(":")[1].strip() for line in lines] == ["epoch 0", "epoch 1"]
        assert all(line.startswith("cisosdm.training: epoch") and " loss " in line for line in lines)

    def test_preset_applies_hyperparameters(self, synth_bundle, tmp_path):
        cfg = write_json(
            tmp_path / "train.json",
            {
                "dataset": str(synth_bundle / "dataset.csv"),
                "family": "linear",
                "train": {"epochs": 1},
            },
        )
        out = tmp_path / "preset_run"
        assert run_cli(["train", "--config", cfg, "--out-dir", str(out), "--preset", "splotopen"]) == 0
        from cisosdm.models import load_checkpoint

        meta = load_checkpoint(str(out / "checkpoint.ckpt")).meta
        assert meta["train_config"]["lr"] == 1e-3
        assert meta["train_config"]["batch_size"] == 64
        assert meta["train_config"]["epochs"] == 1  # explicit override wins


class TestEvalCommand:
    def test_empty_condition_matches_unconditioned_flag(self, synth_bundle, trained_bundle, tmp_path):
        base = {
            "checkpoint": str(trained_bundle / "checkpoint.ckpt"),
            "dataset": str(synth_bundle / "dataset.csv"),
            "protocols": [{"name": "p", "target_group": "responders"}],
        }
        cfg_a = write_json(tmp_path / "a.json", base)
        with_condition = dict(base)
        with_condition["protocols"] = [
            {"name": "p", "condition_group": "drivers", "target_group": "responders"}
        ]
        cfg_b = write_json(tmp_path / "b.json", with_condition)
        out_a, out_b = tmp_path / "ra", tmp_path / "rb"
        assert run_cli(["eval", "--config", cfg_a, "--out-dir", str(out_a)]) == 0
        assert run_cli(["eval", "--config", cfg_b, "--out-dir", str(out_b), "--unconditioned"]) == 0
        assert (out_a / "report_p.json").read_bytes() == (out_b / "report_p.json").read_bytes()

    def test_reports_and_table_written(self, synth_bundle, trained_bundle, tmp_path):
        cfg = write_json(
            tmp_path / "eval.json",
            {
                "checkpoint": str(trained_bundle / "checkpoint.ckpt"),
                "dataset": str(synth_bundle / "dataset.csv"),
                "protocols": [
                    {"name": "uncond", "target_group": "responders"},
                    {"name": "cond", "condition_group": "drivers", "target_group": "responders"},
                ],
            },
        )
        out = tmp_path / "reports"
        assert run_cli(["eval", "--config", cfg, "--out-dir", str(out)]) == 0
        table = (out / "report_table.txt").read_text()
        assert "uncond" in table and "cond" in table
        report = json.loads((out / "report_cond.json").read_text())
        assert report["protocol"] == "cond"


class TestDeltaAndMap:
    def test_delta_csv(self, synth_bundle, trained_bundle, tmp_path):
        cfg = write_json(
            tmp_path / "delta.json",
            {
                "checkpoint": str(trained_bundle / "checkpoint.ckpt"),
                "dataset": str(synth_bundle / "dataset.csv"),
                "source_species": "species_00",
            },
        )
        out = tmp_path / "delta"
        assert run_cli(["delta", "--config", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "delta.csv").read_text().splitlines()
        assert lines[0] == "source,target,mean_delta,n_locations,revealed"
        assert len(lines) == 11  # header + 10 species

        cfg = write_json(tmp_path / "none.json", {**json.loads((tmp_path / "delta.json").read_text()), "targets": []})
        assert run_cli(["delta", "--config", cfg, "--out-dir", str(out)]) == 0
        assert (out / "delta.csv").read_text().splitlines() == [lines[0]]

    def test_map_csv(self, synth_bundle, trained_bundle, tmp_path):
        cfg = write_json(
            tmp_path / "map.json",
            {
                "checkpoint": str(trained_bundle / "checkpoint.ckpt"),
                "dataset": str(synth_bundle / "dataset.csv"),
                "protocol": {"condition_group": "drivers", "target_group": "responders"},
            },
        )
        out = tmp_path / "map"
        assert run_cli(["map", "--config", cfg, "--out-dir", str(out)]) == 0
        with open(out / "map.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["lat", "lon", "species", "prediction"]
        ds = dataio.load_dataset(str(synth_bundle / "dataset.csv"), str(synth_bundle / "dataset.json"))
        test = ds.split_indices("test")
        responders = [name for name, r in zip(ds.species, ds.group_masks["responders"]) if r]
        assert len(responders) == 5
        # One row per (test location, responder), location-major.
        assert len(rows) == test.size * len(responders)
        assert [r[2] for r in rows] == responders * test.size
        assert [float(r[0]) for r in rows[:: len(responders)]] == ds.lats[test].tolist()
        assert [float(r[1]) for r in rows[:: len(responders)]] == ds.lons[test].tolist()
        assert all(0.0 < float(r[3]) < 1.0 for r in rows)

    def test_commands_need_split_tags(self, synth_bundle, trained_bundle, tmp_path, capsys):
        with open(synth_bundle / "dataset.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        column = rows[0].index("split")
        with open(tmp_path / "untagged.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(row[:column] + row[column + 1 :] for row in rows)
        (tmp_path / "untagged.json").write_text((synth_bundle / "dataset.json").read_text())
        common = {"checkpoint": str(trained_bundle / "checkpoint.ckpt"), "dataset": str(tmp_path / "untagged.csv")}
        for command, extra in (("eval", {}), ("map", {"protocol": {}}), ("delta", {"source_species": "species_00"})):
            cfg = write_json(tmp_path / f"{command}.json", {**common, **extra})
            assert run_cli([command, "--config", cfg, "--out-dir", str(tmp_path / command)]) == 2, command
            err = capsys.readouterr().err
            assert err.startswith("error: dataset has no split tags") and "cisosdm prepare" in err, err

    def test_map_memory_follows_the_prediction_matrix(self, tmp_path):
        synth_cfg = write_json(tmp_path / "synth.json", {"n_species": 100, "n_env": 4, "n_locations": 2000})
        assert run_cli(["synth", "--config", synth_cfg, "--out-dir", str(tmp_path / "s"), "--seed", "1"]) == 0
        dataset = str(tmp_path / "s" / "dataset.csv")
        train_cfg = write_json(
            tmp_path / "train.json",
            {"dataset": dataset, "family": "mlp", "hyperparams": {"hidden_dim": 8}, "train": {"epochs": 1}},
        )
        assert run_cli(["train", "--config", train_cfg, "--out-dir", str(tmp_path / "t")]) == 0
        map_cfg = write_json(
            tmp_path / "map.json",
            {"checkpoint": str(tmp_path / "t" / "checkpoint.ckpt"), "dataset": dataset, "protocol": {"split": "train"}},
        )
        tracemalloc.start()
        try:
            assert run_cli(["map", "--config", map_cfg, "--out-dir", str(tmp_path / "m")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        with open(tmp_path / "m" / "map.csv", "rb") as fh:
            cells = sum(1 for _ in fh) - 1
        assert cells >= 100_000
        # The peak includes the dataset load.
        assert peak / cells < 100, peak / cells


class TestPrepare:
    def test_prepare_bundle(self, tmp_path):
        from cisosdm import dataio, synth as synthmod

        ds = synthmod.generate(synthmod.SynthSpec(n_species=4, n_env=2, n_locations=120, edges=[], seed=3))
        raw_csv = str(tmp_path / "raw.csv")
        raw_cfg = str(tmp_path / "raw.json")
        dataio.save_dataset(ds, raw_csv, raw_cfg)
        cfg = write_json(
            tmp_path / "prep.json",
            {"dataset": raw_csv, "dataset_config": raw_cfg, "min_presences": 1, "block_deg": 1.0},
        )
        out = tmp_path / "prep"
        assert run_cli(["prepare", "--config", cfg, "--out-dir", str(out), "--seed", "4"]) == 0
        prepared = dataio.load_dataset(str(out / "dataset.csv"), str(out / "dataset.json"))
        assert prepared.split is not None
        stats = json.loads((out / "norm_stats.json").read_text())
        assert "mean" in stats
        splits = json.loads((out / "splits.json").read_text())
        assert set(splits.values()) <= {"train", "val", "test"}

    def test_prepare_imputes_an_empty_env_cell(self, tmp_path):
        from cisosdm import dataio, synth as synthmod

        ds = synthmod.generate(synthmod.SynthSpec(n_species=4, n_env=2, n_locations=40, edges=[], seed=3))
        raw_csv, raw_cfg = str(tmp_path / "raw.csv"), str(tmp_path / "raw.json")
        dataio.save_dataset(ds, raw_csv, raw_cfg)
        set_first_row_cell(tmp_path / "raw.csv", tmp_path / "raw.csv", lambda name: name == "env_0", "")
        cfg = write_json(tmp_path / "prep.json", {"dataset": raw_csv, "dataset_config": raw_cfg})
        out = tmp_path / "prep"
        assert run_cli(["prepare", "--config", cfg, "--out-dir", str(out), "--seed", "4"]) == 0
        prepared = dataio.load_dataset(str(out / "dataset.csv"), str(out / "dataset.json"))
        assert np.isnan(prepared.env).sum() == 1


@pytest.fixture(scope="module")
def out_of_range_csv(synth_bundle, tmp_path_factory):
    """The synth dataset with one observed target set to 1.5."""
    out = tmp_path_factory.mktemp("bad")
    set_first_row_cell(synth_bundle / "dataset.csv", out / "dataset.csv", lambda name: name.startswith("sp_"), "1.5")
    (out / "dataset.json").write_text((synth_bundle / "dataset.json").read_text())
    return str(out / "dataset.csv")


@pytest.mark.parametrize("command", ["train", "eval", "delta", "map", "colocate"])
def test_every_entry_point_rejects_out_of_range_targets(command, out_of_range_csv, trained_bundle, tmp_path, capsys):
    ckpt = str(trained_bundle / "checkpoint.ckpt")
    configs = {
        "train": {"dataset": out_of_range_csv, "family": "linear", "train": {"epochs": 1}},
        "eval": {"checkpoint": ckpt, "dataset": out_of_range_csv, "protocols": [{"name": "p"}]},
        "delta": {"checkpoint": ckpt, "dataset": out_of_range_csv, "source_species": "species_00"},
        "map": {"checkpoint": ckpt, "dataset": out_of_range_csv, "protocol": {}},
        "colocate": {"dataset_a": out_of_range_csv, "dataset_b": out_of_range_csv},
    }
    cfg = write_json(tmp_path / "cfg.json", configs[command])
    assert run_cli([command, "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
    assert "targets must lie in [0, 1]" in capsys.readouterr().err


class TestColocateCommand:
    def test_pair_and_combined_outputs(self, tmp_path):
        from cisosdm import dataio, synth as synthmod

        a = synthmod.generate(synthmod.SynthSpec(n_species=3, n_env=2, n_locations=60, edges=[], seed=5))
        b = synthmod.generate(synthmod.SynthSpec(n_species=2, n_env=2, n_locations=60, edges=[], seed=6))
        b.species = ["b_0", "b_1"]
        b.ids = [f"b{i}" for i in range(60)]
        paths = {}
        for name, ds in (("a", a), ("b", b)):
            csv_path = str(tmp_path / f"{name}.csv")
            dataio.save_dataset(ds, csv_path, str(tmp_path / f"{name}.json"))
            paths[name] = csv_path
        cfg = write_json(
            tmp_path / "colo.json",
            {"dataset_a": paths["a"], "dataset_b": paths["b"], "radius_km": 50.0, "a_label": "plants", "b_label": "birds"},
        )
        out = tmp_path / "colo"
        assert run_cli(["colocate", "--config", cfg, "--out-dir", str(out)]) == 0
        pairs = (out / "pairs.csv").read_text().splitlines()
        assert pairs[0] == "a_id,b_id,distance_km"
        combined = dataio.load_dataset(str(out / "combined.csv"), str(out / "combined.json"))
        assert "plants" in combined.group_masks and "birds" in combined.group_masks


class TestAblateCommand:
    def test_all_sweeps_have_reference_shape(self, tmp_path):
        # Criterion 10 runs every sweep; this checks the depth table's exact rows.
        cfg = write_json(
            tmp_path / "ablate.json",
            {"n_locations": 160, "hidden_dim": 8, "sweep": "depth", "train": {"epochs": 1, "batch_size": 32, "n_b": 4}},
        )
        out = tmp_path / "ablate"
        assert run_cli(["ablate", "--config", cfg, "--out-dir", str(out), "--seed", "1"]) == 0
        assert sorted(os.listdir(out)) == ["ablation_depth.csv", "manifest.json"]
        with open(out / "ablation_depth.csv") as fh:
            rows = list(csv.DictReader(fh))
        unconditioned_only = ("mlp-3", "mlp-5", "mlp-6", "mlp-7", "linear", "maxent")
        assert {(r["model"], r["inference"]) for r in rows} == {(m, "unconditioned") for m in unconditioned_only} | {
            (m, i) for m in ("mlp++", "ciso") for i in ("unconditioned", "conditioned")
        }
        assert len(rows) == 10
        assert all(int(r["n_params"]) > 0 for r in rows)


class TestErrors:
    def test_unknown_subcommand_usage_and_nonzero_exit(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cisosdm.cli", "frobnicate", "--out-dir", "/tmp/x"],
            env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cisosdm.__file__))),
            capture_output=True,
            text=True,
        )
        assert proc.returncode != 0
        assert "usage" in proc.stderr.lower()

    def test_invalid_config_exits_nonzero_with_message(self, synth_bundle, trained_bundle, tmp_path, capsys):
        dataset = str(synth_bundle / "dataset.csv")
        scored = {"checkpoint": str(trained_bundle / "checkpoint.ckpt"), "dataset": dataset}
        bad_lat = tmp_path / "bad_lat.csv"
        set_first_row_cell(synth_bundle / "dataset.csv", bad_lat, lambda name: name == "lat", "abc")
        (tmp_path / "bad_lat.json").write_text((synth_bundle / "dataset.json").read_text())
        header, *rows = (synth_bundle / "dataset.csv").read_text().splitlines()
        first_id = rows[0].split(",")[0]
        other = tmp_path / "other.csv"  # the same sites under other record ids, for colocate
        other.write_text("\n".join([header] + [f"b_{row}" for row in rows]) + "\n")
        dup = tmp_path / "dup.csv"  # the second record under the first one's id
        dup.write_text("\n".join([header, rows[0], ",".join([first_id] + rows[1].split(",")[1:]), *rows[2:]]) + "\n")
        narrow = tmp_path / "narrow.csv"  # the same records without env_3 and env_4
        keep = [i for i, name in enumerate(header.split(",")) if name not in ("env_3", "env_4")]
        narrow.write_text("\n".join(",".join(line.split(",")[i] for i in keep) for line in [header, *rows]) + "\n")
        no_test = tmp_path / "no_test.csv"  # the same records with the test split tagged val
        split_col = header.split(",").index("split")
        no_test.write_text("\n".join([header] + [
            ",".join("val" if i == split_col and cell == "test" else cell for i, cell in enumerate(row.split(",")))
            for row in rows
        ]) + "\n")
        twice = tmp_path / "twice.json"
        twice.write_text('{"groups": {}, "groups": {"drivers": ["species_00"]}}', encoding="utf-8")
        # (command, config, fragments the error message must contain; "<config>" is the config's path)
        cases = [
            ("train", {"dataset": str(tmp_path / "missing.csv")}, ["missing.csv"]),
            ("train", {"dataset": dataset, "train": {"epoch": 1}}, ["'train'", "epoch"]),
            ("train", {"dataset": dataset, "hyperparams": {"hidden": 8}}, ["'hyperparams'", "hidden"]),
            ("train", [{"dataset": dataset}], ["JSON object"]),
            ("train", {"dataset": dataset, "train": {"lr": "fast"}}, ["lr", "fast"]),
            ("train", {"dataset": dataset, "train": {"weight_decay": -1.0}}, ["weight_decay"]),
            ("train", {"dataset": str(bad_lat)}, [str(bad_lat), "lat", "'abc'", f"id={first_id}"]),
            ("train", {"dataset": dataset, "train": 5}, ["'train'", "JSON object"]),
            ("train", {"dataset": dataset, "hyperparams": 3}, ["'hyperparams'", "JSON object"]),
            ("train", {"dataset": dataset, "train": {"batch_size": "64"}}, ["batch_size", "'64'"]),
            ("train", {"dataset": dataset, "train": {"mask_cap_fraction": "0.5"}}, ["mask_cap_fraction", "'0.5'"]),
            ("train", {"dataset": dataset, "train": {"epochs": 1.5}}, ["epochs", "1.5"]),
            ("train", {"dataset": dataset, "train": {"n_b": True}}, ["n_b", "True"]),
            ("train", {"dataset": dataset, "hyperparams": {"hidden_dim": "8"}}, ["hidden_dim", "'8'"]),
            ("train", {"dataset": dataset, "hyperparams": {"dropout": 1.5}}, ["dropout", "1.5"]),
            ("train", {"dataset": dataset, "hyperparams": {"mlp_hidden": 5}}, ["mlp_hidden", "5"]),
            ("train", {"dataset": dataset, "hyperparams": {"mlp_hidden": [8.7]}}, ["mlp_hidden", "8.7"]),
            ("train", {"dataset": dataset, "target_group": "responders"}, ["train.target_group"]),
            ("prepare", {"dataset": dataset, "fractions": [0.5, 0.5]}, ["fractions"]),
            ("prepare", {"dataset": dataset, "block_deg": -1}, ["block_deg"]),
            ("prepare", {"dataset": dataset, "block_deg": [1]}, ["config 'block_deg'", "[1]"]),
            ("prepare", {"dataset": dataset, "fractions": None}, ["config 'fractions'", "JSON array"]),
            ("prepare", {"dataset": dataset, "fractions": [0.7, None, 0.15]}, ["config 'fractions'", "None"]),
            ("prepare", {"dataset": dataset, "min_presences": [1]}, ["config 'min_presences'", "[1]"]),
            ("prepare", {"dataset": dataset, "approved_merges": [5]}, ["config 'approved_merges'", "5"]),
            ("prepare", {"dataset": dataset, "approved_merges": {}}, ["config 'approved_merges'", "JSON array"]),
            ("prepare", {"dataset": dataset, "approved_merges": [["species_00", "species_00"]]},
             ["merge pair ['species_00', 'species_00'] names one species twice"]),
            ("prepare", {"dataset": str(dup)}, [f"repeated record ids ['{first_id}']"]),
            ("colocate", {"dataset_a": str(other), "dataset_b": str(dup)}, [f"repeated record ids ['{first_id}']"]),
            ("colocate", {"dataset_a": dataset, "dataset_b": str(other), "radius_km": {}},
             ["config 'radius_km'", "{}"]),
            ("colocate", {"dataset_a": dataset, "dataset_b": str(other), "radius_km": float("nan")}, ["radius_km"]),
            ("colocate", {"dataset_a": dataset, "dataset_b": str(other), "radius_km": -1.0}, ["radius_km"]),
            ("colocate", {"dataset_a": dataset, "dataset_b": str(other), "a_label": {}}, ["a_label", "{}"]),
            ("colocate", {"dataset_a": dataset, "dataset_b": str(other), "b_label": 3}, ["b_label", "3"]),
            ("colocate", {"dataset_a": dataset, "dataset_b": str(other), "a_label": "x", "b_label": "x"},
             ["b_label", "'x'"]),
            ("colocate", {"dataset_a": dataset, "dataset_b": str(other), "a_label": "drivers"},
             ["a_label", "'drivers'"]),
            ("colocate", {"dataset_a": dataset, "dataset_b": str(other), "b_label": "responders"},
             ["b_label", "'responders'"]),
            ("ablate", {"sweep": "dims"}, ["sweep", "'dims'", "'all'", "'encoding'", "'depth'", "'dim'"]),
            ("ablate", {"hidden_dim": None}, ["config 'hidden_dim'", "None"]),
            ("synth", {"benchmark": "interaction", "rate_mode": "false"}, ["rate_mode", "'false'"]),
            ("synth", {"benchmark": "interactions"}, ["benchmark", "'interactions'"]),
            ("synth", {"n_species": None, "n_env": 2, "n_locations": 50}, ["config 'n_species'", "None"]),
            ("synth", {"n_species": 3, "n_env": 2, "n_locations": 50, "noise": [0.5]}, ["config 'noise'", "[0.5]"]),
            ("synth", {"n_species": 3, "n_env": 2, "n_locations": 50, "edges": [[0, 1]]}, ["config 'edges'", "[0, 1]"]),
            ("synth", {"benchmark": "null", "n_locations": {}}, ["config 'n_locations'", "{}"]),
            ("synth", {"benchmark": "interaction", "n_locations": 1}, ["n_locations=1", "test split empty"]),
            ("eval", {**scored, "protocols": [{"name": "c", "conditon_group": "drivers"}]},
             ["'protocols'[0]", "conditon_group"]),
            ("eval", {**scored, "protocols": ["cond"]}, ["'protocols'[0]", "JSON object"]),
            ("eval", {**scored, "protocols": {"name": "cond"}}, ["'protocols'", "JSON array"]),
            ("eval", {**scored, "protocols": [{"target_group": "responders"}]}, ["'protocols'[0]", "'name'"]),
            ("eval", {**scored, "protocols": [{"name": "u", "split": "tset"}]}, ["split", "'tset'"]),
            ("eval", {**scored, "protocols": {}}, ["config 'protocols'", "JSON array"]),
            ("eval", {**scored, "protocols": 0}, ["config 'protocols'", "JSON array"]),
            ("eval", {**scored, "protocols": ""}, ["config 'protocols'", "JSON array"]),
            ("eval", {**scored, "protocols": False}, ["config 'protocols'", "JSON array"]),
            ("eval", {**scored, "protocols": [{"name": "u"}, {"name": "c"}, {"name": "u", "split": "val"}]},
             ["config 'protocols'", "['u']"]),
            ("map", {**scored, "protocol": {"conditon_group": "drivers"}}, ["'protocol'", "conditon_group"]),
            ("map", {**scored, "protocol": "cond"}, ["'protocol'", "JSON object"]),
            ("map", {**scored, "protocol": {"split": "tset"}}, ["split", "'tset'"]),
            ("delta", {**scored, "source_species": "species_00", "split": "tset"}, ["split", "'tset'"]),
            ("delta", {**scored, "source_species": "species_00", "targets": "species_01"},
             ["config 'targets'", "JSON array"]),
            # Every top-level key is declared by its command, with a kind.
            ("synth", {"n_species": 3, "n_env": 2, "n_locations": 50, "noize": 0.1}, ["'noize'", "'noise'"]),
            ("train", {"dataset": dataset, "famly": "mlp"}, ["'famly'", "'family'"]),
            ("train", {"dataset": dataset, "hyperparams": {"family": "mlp"}}, ["'hyperparams'", "'family'"]),
            ("train", {"dataset": dataset, "preset": "satbird"}, ["'preset'"]),
            ("train", {"dataset": 5}, ["config 'dataset'", "a string", "5"]),
            ("train", {"dataset": dataset, "dataset_config": 7}, ["config 'dataset_config'", "7"]),
            ("eval", {**scored, "checkpoint": 0}, ["config 'checkpoint'", "a string", "0"]),
            ("delta", scored, ["config needs 'source_species'"]),
            ("prepare", {"dataset": dataset, "min_presences": True}, ["config 'min_presences'", "True"]),
            ("prepare", {"dataset": dataset, "min_presences": 2.7}, ["config 'min_presences'", "2.7"]),
            ("synth", {"n_species": 4.9, "n_env": 2, "n_locations": 50}, ["config 'n_species'", "4.9"]),
            ("prepare", {"dataset": dataset, "block_deg": "1.0"}, ["config 'block_deg'", "'1.0'"]),
            ("prepare", {"dataset": dataset, "block_deg": 10**400}, ["config 'block_deg'", "a finite number"]),
            # synth writes only datasets that load_dataset accepts.
            ("synth", {"n_species": 0, "n_env": 2, "n_locations": 50}, ["n_species", "0"]),
            ("synth", {"n_species": 3, "n_env": 0, "n_locations": 50}, ["n_env", "0"]),
            ("synth", {"n_species": 3, "n_env": 2, "n_locations": 0}, ["n_locations", "0"]),
            ("synth", {"n_species": 3, "n_env": 2, "n_locations": 50, "missing_rate": 1.0}, ["missing_rate", "1.0"]),
            ("synth", {"n_species": 3, "n_env": 2, "n_locations": 50, "missing_rate": -0.1}, ["missing_rate", "-0.1"]),
            ("synth", {"benchmark": "interaction", "n_species": 3}, ["'interaction'", "'n_species'", "3"]),
            ("synth", {"benchmark": "null", "edges": [[0, 5, 4.0]]}, ["'null'", "'edges'"]),
            ("synth", {"benchmark": "interaction", "noise": 0.7}, ["'interaction'", "'noise'", "0.7"]),
            # A protocol name becomes part of a file name.
            ("eval", {**scored, "protocols": [{"name": "x/y"}]}, ["'protocols'[0]", "'x/y'", "path separator"]),
            ("eval", {**scored, "protocols": [{"name": ""}]}, ["'protocols'[0]", "''", "non-empty"]),
            ("eval", {**scored, "protocols": [{"name": 5}]}, ["'protocols'[0]", "'name'", "5"]),
            ("map", {**scored, "protocol": {"name": "a/b"}}, ["'protocol'", "'a/b'"]),
            # Section values are checked before the dataset loads.
            ("train", {"dataset": dataset, "train": {"target_group": 5}}, ["'target_group'", "a string", "5"]),
            ("train", {"dataset": dataset, "hyperparams": {"encoding": "bogus"}},
             ["'encoding'", "'bogus'", "'discrete'", "'linear'", "'periodic'"]),
            # A str row is the config file's text: a dict cannot hold a repeated key.
            ("synth", '{"n_species": 3, "n_env": 2, "n_locations": 40, "n_species": 5}',
             ["repeats keys ['n_species']"]),
            ("train", f'{{"dataset": {json.dumps(dataset)}, "train": {{"lr": 0.1, "lr": 0.2}}}}',
             ["repeats keys ['lr']"]),
            # A JSON error names the file it is in.
            ("synth", '{"n_species": 3,, "n_env": 2}', ["<config>", "Expecting property name"]),
            ("train", {"dataset": dataset, "dataset_config": str(twice)}, [str(twice), "repeats keys ['groups']"]),
            # A checkpoint scores only datasets with the env variables it was fitted on.
            ("eval", {**scored, "dataset": str(narrow)}, ["dataset has 3 env variables", "fitted on 5"]),
            # A protocol's split must hold records: eval would fail in a metric, map would write a bare header.
            ("eval", {**scored, "dataset": str(no_test)},
             ["protocol 'unconditioned'", "'test' split is empty", "cisosdm prepare"]),
            ("map", {**scored, "dataset": str(no_test), "protocol": {}},
             ["protocol 'map'", "'test' split is empty", "cisosdm prepare"]),
        ]
        for k, (command, config, fragments) in enumerate(cases):
            cfg = tmp_path / f"bad{k}.json"
            cfg.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
            rc = run_cli([command, "--config", str(cfg), "--out-dir", str(tmp_path / f"o{k}")])
            err = capsys.readouterr().err
            assert rc == 2, (command, config)
            assert err.startswith("error:") and err.count("error:") == 1, err
            for fragment in fragments:
                assert fragment.replace("<config>", str(cfg)) in err, (fragment, err)

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_thread_setting_exits_2_on_every_command(self, monkeypatch, tmp_path, capsys, value):
        monkeypatch.setenv("CISO_THREADS", value)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        cisosdm._apply_thread_cap()
        assert "OPENBLAS_NUM_THREADS" not in os.environ
        for command in cli.COMMANDS:
            rc = run_cli([command, "--out-dir", str(tmp_path / command)])
            err = capsys.readouterr().err
            assert rc == 2, command
            assert err.startswith("error: CISO_THREADS must be a positive integer"), err
            assert repr(value) in err

    def test_thread_cap_env_applied(self, monkeypatch):
        monkeypatch.setenv("CISO_THREADS", "2")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)  # also undoes what the cap sets
        cisosdm._apply_thread_cap()
        assert os.environ["OMP_NUM_THREADS"] == os.environ["OPENBLAS_NUM_THREADS"] == "2"

    def test_cli_import_stays_light(self):
        # scipy.spatial, scipy.special and scipy.stats add about 0.2 s, 0.2 s and 1.1 s
        # (2-vCPU machine) to every command's start-up; each is imported where it is used.
        # GELU's first import runs on a `run_split` worker and the caller at once.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cisosdm.__file__)), CISO_THREADS="2")
        code = textwrap.dedent("""
            import sys, numpy as np, cisosdm.cli
            print(sorted({'scipy.spatial', 'scipy.special', 'scipy.stats'} & set(sys.modules)))
            from cisosdm import models, synth
            spec = models.ModelSpec(family='ciso', n_species=4, n_env=3, hidden_dim=8, heads=2)
            pred = models.build_model(spec, seed=0).predict(np.zeros((2 * models.piece_rows(spec), 3)))
            ds = synth.generate(synth.SynthSpec(n_species=3, n_env=2, n_locations=20, edges=[(0, 1, 2.0)]))
            print(pred.shape[1], bool(np.isfinite(pred).all()), ds.targets.shape)
        """)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == ["[]", "4 True (20, 3)"]

    def test_src_has_no_asserts(self):
        # `python -O` strips assert statements, so checks in the package must raise.
        for name, tree in _src_modules():
            lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            assert not lines, f"{name} has assert statements at lines {lines}"

    def test_src_checks_number_kinds_only_in_check_value(self):
        # One kind check, `cisosdm.check_value`, decides what kind a config value has.
        banned = {"numbers", "Integral", "Real"}
        for name, tree in _src_modules(but="__init__.py"):
            lines = [node.lineno for node in ast.walk(tree) if _names(node) & banned]
            assert not lines, f"{name} uses {sorted(banned)} at lines {lines}; call cisosdm.check_value"

    def test_src_parses_json_only_in_read_json(self):
        # One reader, `cisosdm.read_json`, names the file in every syntax or repeated-key error.
        for name, tree in _src_modules(but="__init__.py"):
            lines = [
                node.lineno
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in ("load", "loads") and _names(node.value) & {"json"}
                or isinstance(node, ast.ImportFrom) and node.module == "json"
            ]
            assert not lines, f"{name} parses JSON at lines {lines}; call cisosdm.read_json"

    def test_cli_reads_config_keys_only_through_signatures(self):
        # Each command declares its config keys as keyword-only parameters and
        # `main` checks a config against them, so no code reads a config dict.
        (tree,) = [tree for name, tree in _src_modules() if name == "cli.py"]
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.arg) and node.arg == "config"
            or isinstance(node, (ast.Attribute, ast.Subscript))
            and getattr(node.value, "id", None) == "config"
            and getattr(node, "attr", "get") == "get"
        ]
        assert not lines, f"cli.py takes or reads a config dict at lines {lines}; declare a keyword parameter"

    def test_src_fans_out_to_threads_only_through_run_split(self):
        # One fan-out, `numerics.run_split`, opens thread pools and holds BLAS for them.
        fan_out = {"ThreadPoolExecutor", "one_blas_thread"}
        for name, tree in _src_modules(but="numerics.py"):
            lines = [node.lineno for node in ast.walk(tree) if _names(node) & fan_out]
            assert not lines, f"{name} uses {sorted(fan_out)} at lines {lines}; call numerics.run_split"

    def test_src_decides_the_thread_count_only_in_numerics(self):
        # `numerics.workers` decides W next to the fan-out that uses it; `__init__` reads the setting.
        decides = {"ciso_threads", "sched_getaffinity", "cpu_count"}
        for name, tree in _src_modules():
            if name in ("numerics.py", "__init__.py"):
                continue
            lines = [node.lineno for node in ast.walk(tree) if _names(node) & decides]
            assert not lines, f"{name} uses {sorted(decides)} at lines {lines}; call numerics.workers"

    def test_src_keeps_gradients_only_in_backward_maps(self):
        # Gradients live in the maps `numerics.backward` returns, which go to
        # `AdamW.step`; there is no second store to copy them into or clear.
        banned = {"accumulate_grads", "zero_grad"}
        for name, tree in _src_modules(but="numerics.py"):
            lines = [
                node.lineno
                for node in ast.walk(tree)
                if _names(node) & banned or (isinstance(node, ast.Attribute) and node.attr == "grad")
            ]
            assert not lines, f"{name} uses .grad or {sorted(banned)} at lines {lines}; use backward's map"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads through Linux /proc")
    def test_thread_cap_limits_blas_threads_through_cli_import(self):
        # BLAS sizes its thread pool when numpy loads, which importing the CLI does.
        thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in thread_vars}
        env["CISO_THREADS"] = "1"
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cisosdm.__file__))
        code = (
            "import os, cisosdm.cli, numpy as np; a = np.ones((400, 400)); a @ a; "
            "print(len(os.listdir('/proc/self/task')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) == 1
