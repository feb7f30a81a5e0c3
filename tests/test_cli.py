import ast
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cisosdm
from cisosdm import cli


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

    def test_oracle_report_has_headroom(self, synth_bundle):
        report = json.loads((synth_bundle / "oracle_report.json").read_text())
        assert report["conditional_mae"] <= report["marginal_mae"]


class TestTrainCommand:
    def test_checkpoint_and_history(self, trained_bundle):
        assert (trained_bundle / "checkpoint.ckpt").exists()
        history = (trained_bundle / "history.csv").read_text().splitlines()
        assert history[0].startswith("epoch,")
        assert len(history) == 2

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
        lines = (out / "map.csv").read_text().splitlines()
        assert lines[0] == "lat,lon,species,prediction"
        assert len(lines) > 1


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
        cfg = write_json(
            tmp_path / "ablate.json",
            {"n_locations": 160, "hidden_dim": 8, "train": {"epochs": 1, "batch_size": 32, "n_b": 4}},
        )
        out = tmp_path / "ablate"
        assert run_cli(["ablate", "--config", cfg, "--out-dir", str(out), "--seed", "1"]) == 0
        import csv as csvmod

        with open(out / "ablation_encoding.csv") as fh:
            rows = list(csvmod.DictReader(fh))
        assert {(r["encoding"], r["inference"]) for r in rows} == {
            (e, i) for e in ("4bins", "1bin", "periodic", "linear") for i in ("unconditioned", "conditioned")
        }
        with open(out / "ablation_depth.csv") as fh:
            rows = list(csvmod.DictReader(fh))
        depths = {r["model"] for r in rows if r["model"].startswith("mlp-")}
        assert depths == {"mlp-3", "mlp-5", "mlp-6", "mlp-7"}
        with open(out / "ablation_dim.csv") as fh:
            rows = list(csvmod.DictReader(fh))
        assert {r["hidden_dim"] for r in rows} == {"64", "128", "256"}
        assert {r["inference"] for r in rows} == {"unconditioned", "conditioned"}


class TestErrors:
    def test_unknown_subcommand_usage_and_nonzero_exit(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cisosdm.cli", "frobnicate", "--out-dir", "/tmp/x"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode != 0
        assert "usage" in proc.stderr.lower()

    def test_invalid_config_exits_nonzero_with_message(self, synth_bundle, tmp_path, capsys):
        dataset = str(synth_bundle / "dataset.csv")
        bad_lat = tmp_path / "bad_lat.csv"
        set_first_row_cell(synth_bundle / "dataset.csv", bad_lat, lambda name: name == "lat", "abc")
        (tmp_path / "bad_lat.json").write_text((synth_bundle / "dataset.json").read_text())
        header, *rows = (synth_bundle / "dataset.csv").read_text().splitlines()
        first_id = rows[0].split(",")[0]
        other = tmp_path / "other.csv"  # the same sites under other record ids, for colocate
        other.write_text("\n".join([header] + [f"b_{row}" for row in rows]) + "\n")
        # (command, config, fragments the error message must contain)
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
            ("colocate", {"dataset_a": dataset, "dataset_b": str(other), "radius_km": float("nan")}, ["radius_km"]),
            ("colocate", {"dataset_a": dataset, "dataset_b": str(other), "radius_km": -1.0}, ["radius_km"]),
        ]
        for k, (command, config, fragments) in enumerate(cases):
            cfg = write_json(tmp_path / f"bad{k}.json", config)
            rc = run_cli([command, "--config", cfg, "--out-dir", str(tmp_path / f"o{k}")])
            err = capsys.readouterr().err
            assert rc == 2, (command, config)
            assert err.startswith("error:"), err
            for fragment in fragments:
                assert fragment in err, (fragment, err)

    def test_thread_cap_env_applied(self, monkeypatch):
        monkeypatch.setenv("CISO_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        cisosdm._apply_thread_cap()
        assert os.environ["OMP_NUM_THREADS"] == "2"

    def test_cli_import_stays_light_and_src_has_no_asserts(self):
        # scipy.spatial and scipy.stats add about 0.2 s and 1.1 s (2-vCPU machine) to every
        # command's start-up; the KD-tree imports scipy.spatial where it is built.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cisosdm.__file__)))
        code = "import sys, cisosdm.cli; print(sorted({'scipy.spatial', 'scipy.stats'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        # `python -O` strips assert statements, so checks in the package must raise.
        package = os.path.dirname(cisosdm.__file__)
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                with open(os.path.join(package, name), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), name)
                lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
                assert not lines, f"{name} has assert statements at lines {lines}"

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
