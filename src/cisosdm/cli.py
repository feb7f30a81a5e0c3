"""Command-line entry point orchestrating all workflows.

Every subcommand reads a JSON config, derives all randomness from one --seed
flag, writes its artifacts into --out-dir, and drops a run manifest next to
them. Batch use only; there is no interactive mode.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace

from . import __version__, colocate as co, dataio, synth as synthmod, training
from .metrics import format_report_table
from .models import ModelSpec, load_checkpoint, mlp_widths_for_depth, save_checkpoint
from .training import PRESETS, EvalProtocol, TrainConfig


@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    toolkit_version: str = __version__
    wall_clock_s: float = 0.0

    def write(self, out_dir: str) -> None:
        path = os.path.join(out_dir, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object, not a {type(config).__name__}")
    return config


def _section(config: dict, name: str, cls, set_elsewhere: tuple[str, ...]) -> dict:
    """A copy of config section `name`; raise unless it is a JSON object whose
    every key names a field of the dataclass `cls` not filled in from elsewhere."""
    given = config.get(name, {})
    if not isinstance(given, dict):
        raise ValueError(f"config '{name}' must be a JSON object, not a {type(given).__name__}")
    allowed = {f.name for f in fields(cls)} - set(set_elsewhere)
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise ValueError(f"config '{name}' has unknown keys {unknown}; allowed: {sorted(allowed)}")
    return dict(given)


def _sidecar(path: str, explicit: str | None) -> str | None:
    if explicit is not None:
        return explicit
    guess = os.path.splitext(path)[0] + ".json"
    return guess if os.path.exists(guess) else None


def _load_dataset(config: dict, key: str = "dataset", config_key: str = "dataset_config") -> dataio.Dataset:
    path = config[key]
    ds = dataio.load_dataset(path, _sidecar(path, config.get(config_key)))
    ds.validate()
    return ds


def _train_config(config: dict, preset: str | None, seed: int) -> TrainConfig:
    base = PRESETS[preset] if preset else TrainConfig()
    cfg = replace(base, seed=seed, **_section(config, "train", TrainConfig, ("seed",)))
    cfg.validate()
    return cfg


def _model_spec(config: dict, ds: dataio.Dataset, n_b: int) -> ModelSpec:
    hyper = _section(config, "hyperparams", ModelSpec, ("n_species", "n_env", "n_b"))
    family = config.get("family", hyper.pop("family", "ciso"))
    return ModelSpec(family=family, n_species=ds.n_species, n_env=ds.n_env, n_b=n_b, **hyper)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_prepare(config: dict, out_dir: str, seed: int) -> list[str]:
    ds = _load_dataset(config)
    merges = [tuple(p) for p in config.get("approved_merges", [])]
    if merges:
        ds = dataio.merge_targets(ds, merges)
    min_presences = config.get("min_presences")
    if min_presences:
        ds = dataio.filter_min_presences(ds, int(min_presences))
    ds = dataio.assign_split(
        ds,
        block_deg=float(config.get("block_deg", 1.0)),
        fractions=tuple(float(f) for f in config.get("fractions", (0.70, 0.15, 0.15))),
        seed=seed,
    )
    ds.validate()
    stats = dataio.fit_norm(ds.env[ds.split_indices("train")])

    csv_path = os.path.join(out_dir, "dataset.csv")
    cfg_path = os.path.join(out_dir, "dataset.json")
    stats_path = os.path.join(out_dir, "norm_stats.json")
    splits_path = os.path.join(out_dir, "splits.json")
    dataio.save_dataset(ds, csv_path, cfg_path)
    with open(stats_path, "w", encoding="utf-8") as fh:
        fh.write(stats.to_json())
    with open(splits_path, "w", encoding="utf-8") as fh:
        json.dump(dict(zip(ds.ids, ds.split.tolist())), fh, sort_keys=True)
    return [csv_path, cfg_path, stats_path, splits_path]


def cmd_colocate(config: dict, out_dir: str, seed: int) -> list[str]:
    a = _load_dataset(config, "dataset_a", "config_a")
    b = _load_dataset(config, "dataset_b", "config_b")
    radius = float(config.get("radius_km", 1.0))
    pairs = co.colocate(a, b, radius)
    combined = co.attach(a, b, pairs, a_label=config.get("a_label", "a"), b_label=config.get("b_label", "b"))
    pairs_path = os.path.join(out_dir, "pairs.csv")
    csv_path = os.path.join(out_dir, "combined.csv")
    cfg_path = os.path.join(out_dir, "combined.json")
    co.pairs_to_csv(pairs, pairs_path)
    dataio.save_dataset(combined, csv_path, cfg_path)
    return [pairs_path, csv_path, cfg_path]


def cmd_train(config: dict, out_dir: str, seed: int, preset: str | None) -> list[str]:
    if "target_group" in config:
        raise ValueError("config key 'target_group' belongs in the train section: set train.target_group")
    ds = _load_dataset(config)
    cfg = _train_config(config, preset, seed)
    spec = _model_spec(config, ds, cfg.n_b)
    tm, history = training.train(ds, spec, cfg)
    ckpt_path = os.path.join(out_dir, "checkpoint.ckpt")
    hist_path = os.path.join(out_dir, "history.csv")
    save_checkpoint(tm, ckpt_path)
    training.write_history_csv(history, hist_path)
    return [ckpt_path, hist_path]


def _protocol(entry: dict, name: str, unconditioned: bool = False) -> EvalProtocol:
    return EvalProtocol(
        name=name,
        condition_group=None if unconditioned else entry.get("condition_group"),
        target_group=entry.get("target_group"),
        split=entry.get("split", "test"),
    )


def _protocols(config: dict, unconditioned: bool) -> list[EvalProtocol]:
    entries = config.get("protocols") or [{"name": "unconditioned"}]
    return [_protocol(e, e["name"], unconditioned) for e in entries]


def cmd_eval(config: dict, out_dir: str, seed: int, unconditioned: bool = False) -> list[str]:
    tm = load_checkpoint(config["checkpoint"])
    ds = _load_dataset(config)
    outputs = []
    reports = []
    for protocol in _protocols(config, unconditioned):
        report = training.evaluate(tm, ds, protocol)
        path = os.path.join(out_dir, f"report_{protocol.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        outputs.append(path)
        reports.append(report)
    table_path = os.path.join(out_dir, "report_table.txt")
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write(format_report_table(reports) + "\n")
    outputs.append(table_path)
    return outputs


def cmd_delta(config: dict, out_dir: str, seed: int) -> list[str]:
    tm = load_checkpoint(config["checkpoint"])
    ds = _load_dataset(config)
    rows = training.conditioning_delta(
        tm, ds, config["source_species"], config.get("targets"), split=config.get("split", "test")
    )
    path = os.path.join(out_dir, "delta.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["source", "target", "mean_delta", "n_locations", "revealed"])
        writer.writeheader()
        writer.writerows(rows)
    return [path]


def cmd_map(config: dict, out_dir: str, seed: int) -> list[str]:
    tm = load_checkpoint(config["checkpoint"])
    ds = _load_dataset(config)
    p = config.get("protocol", {})
    rows = training.predict_map(tm, ds, _protocol(p, p.get("name", "map")))
    path = os.path.join(out_dir, "map.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["lat", "lon", "species", "prediction"])
        writer.writeheader()
        writer.writerows(rows)
    return [path]


def cmd_synth(config: dict, out_dir: str, seed: int) -> list[str]:
    benchmark = config.get("benchmark")
    if benchmark == "interaction":
        spec = synthmod.interaction_benchmark_spec(
            n_locations=int(config.get("n_locations", 5000)),
            seed=seed,
            rate_mode=bool(config.get("rate_mode", False)),
        )
    elif benchmark == "null":
        spec = synthmod.null_benchmark_spec(n_locations=int(config.get("n_locations", 5000)), seed=seed)
    else:
        spec = synthmod.SynthSpec(
            n_species=int(config["n_species"]),
            n_env=int(config["n_env"]),
            n_locations=int(config["n_locations"]),
            edges=[tuple(e) for e in config.get("edges", [])],
            env_scale=float(config.get("env_scale", 1.0)),
            noise=float(config.get("noise", 0.5)),
            rate_mode=bool(config.get("rate_mode", False)),
            missing_rate=float(config.get("missing_rate", 0.0)),
            seed=seed,
        )
    ds = synthmod.generate(spec)
    ds = dataio.assign_split(ds, seed=seed)

    csv_path = os.path.join(out_dir, "dataset.csv")
    cfg_path = os.path.join(out_dir, "dataset.json")
    dataio.save_dataset(ds, csv_path, cfg_path)
    outputs = [csv_path, cfg_path]

    if spec.n_species <= 12 and not spec.rate_mode:
        model = synthmod.SynthModel(spec)
        report = synthmod.oracle_report(
            model,
            ds,
            ds.group_masks["drivers"],
            ds.group_masks["responders"],
            indices=ds.split_indices("test"),
        )
        oracle_path = os.path.join(out_dir, "oracle_report.json")
        with open(oracle_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        outputs.append(oracle_path)
    return outputs


ENCODING_SWEEP = (("4bins", "discrete", 4), ("1bin", "discrete", 1), ("periodic", "periodic", 4), ("linear", "linear", 4))
DEPTH_SWEEP = (3, 5, 6, 7)
DIM_SWEEP = (64, 128, 256)


def _ablate_metrics(report) -> dict:
    keep = ("auc_pct", "mae_x100", "topk_pct")
    return {k: round(v, 4) for k, v in report.aggregates.items() if k in keep}


def cmd_ablate(config: dict, out_dir: str, seed: int) -> list[str]:
    if "dataset" in config:
        ds = _load_dataset(config)
    else:
        spec = synthmod.interaction_benchmark_spec(
            n_locations=int(config.get("n_locations", 800)), seed=seed, rate_mode=True
        )
        ds = dataio.assign_split(synthmod.generate(spec), seed=seed)

    base_train = _section(config, "train", TrainConfig, ("seed",))
    base_train.setdefault("epochs", 2)
    base_train.setdefault("lr", 1e-3)
    base_train.setdefault("n_b", 4)
    hidden = int(config.get("hidden_dim", 32))
    sweeps = config.get("sweep", "all")
    both = (
        ("unconditioned", EvalProtocol("uncond", None, "responders")),
        ("conditioned", EvalProtocol("cond", "drivers", "responders")),
    )

    def train_once(family: str, n_b: int | None = None, encoding: str = "discrete", **spec_kw):
        cfg = TrainConfig(seed=seed, **base_train)
        if n_b is not None:
            cfg = replace(cfg, n_b=n_b)
        mspec = ModelSpec(
            family=family, n_species=ds.n_species, n_env=ds.n_env, encoding=encoding, n_b=cfg.n_b, **spec_kw
        )
        tm, _ = training.train(ds, mspec, cfg)
        return tm

    def scored(tm, first: dict, protocols=both, **after) -> list[dict]:
        """One row per inference protocol: the `first` columns, the protocol,
        the `after` columns, then the metrics."""
        return [
            {**first, "inference": inference, **after, **_ablate_metrics(training.evaluate(tm, ds, protocol))}
            for inference, protocol in protocols
        ]

    tables: dict[str, list[dict]] = {}
    if sweeps in ("all", "encoding"):
        rows = tables["encoding"] = []
        for label, mode, n_b in ENCODING_SWEEP:
            rows += scored(train_once("ciso", n_b=n_b, encoding=mode, hidden_dim=hidden), {"encoding": label})

    if sweeps in ("all", "depth"):
        rows = tables["depth"] = []
        for depth in DEPTH_SWEEP:
            tm = train_once("mlp", mlp_hidden=mlp_widths_for_depth(depth, hidden), hidden_dim=hidden)
            rows += scored(tm, {"model": f"mlp-{depth}"}, both[:1], n_params=tm.model.param_count())
        for family in ("mlp++", "ciso"):
            tm = train_once(family, hidden_dim=hidden)
            rows += scored(tm, {"model": family}, n_params=tm.model.param_count())

    if sweeps in ("all", "dim"):
        rows = tables["dim"] = []
        for dim in DIM_SWEEP:
            rows += scored(train_once("ciso", hidden_dim=dim), {"hidden_dim": dim})

    outputs = []
    for name, rows in tables.items():
        path = os.path.join(out_dir, f"ablation_{name}.csv")
        _write_rows(path, rows)
        outputs.append(path)
    return outputs


def _write_rows(path: str, rows: list[dict]) -> None:
    fieldnames = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


# name -> (handler, extra options: keyword argument of the handler -> argparse
# settings of its --flag). Every command also takes --config, --seed, --out-dir.
COMMANDS = {
    "prepare": (cmd_prepare, {}),
    "colocate": (cmd_colocate, {}),
    "train": (cmd_train, {"preset": {"choices": sorted(PRESETS)}}),
    "eval": (cmd_eval, {"unconditioned": {"action": "store_true", "help": "force empty condition sets"}}),
    "delta": (cmd_delta, {}),
    "map": (cmd_map, {}),
    "synth": (cmd_synth, {}),
    "ablate": (cmd_ablate, {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cisosdm", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", required=True)
        for option, settings in options.items():
            p.add_argument(f"--{option}", **settings)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, options = COMMANDS[args.command]
    try:
        config = _load_config(args.config)
        os.makedirs(args.out_dir, exist_ok=True)
        started = time.time()
        outputs = handler(config, args.out_dir, args.seed, **{o: getattr(args, o) for o in options})
        manifest = RunManifest(
            command=args.command,
            config=config,
            seed=args.seed,
            inputs=[args.config] if args.config else [],
            outputs=[os.path.basename(o) for o in outputs],
            wall_clock_s=round(time.time() - started, 3),
        )
        manifest.write(args.out_dir)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
