"""Command-line entry point orchestrating all workflows.

Every subcommand reads a JSON config, derives all randomness from one --seed
flag, writes its artifacts into --out-dir, and drops a run manifest next to
them. Batch use only; there is no interactive mode.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import logging
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Literal

import numpy as np
import scipy

from . import __version__, check_value, colocate as co, dataio, read_json, synth as synthmod, training, write_json
from .metrics import format_report_table
from .models import FAMILIES, ModelSpec, load_checkpoint, mlp_widths_for_depth, save_checkpoint
from .numerics import blas_threads, workers
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
    # BLAS threads in effect when the run started (None: no BLAS setter
    # found) and the threads `Model.predict` runs on.
    blas_threads: int | None = None
    predict_workers: int = 1
    versions: dict = field(
        default_factory=lambda: {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}
    )


# Config sections that fill in a dataclass, and the keys each may set; the
# seed, the family, the roster sizes and `n_b` are filled in from elsewhere.
SECTIONS = {
    "train": {f.name for f in fields(TrainConfig)} - {"seed"},
    "hyperparams": {f.name for f in fields(ModelSpec)} - {"family", "n_species", "n_env", "n_b"},
}
PROTOCOL_KEYS = inspect.signature(EvalProtocol, eval_str=True).parameters


def _fields(given, where: str, allowed) -> dict:
    """A copy of `given`; raise unless it is a JSON object whose every key is in `allowed`."""
    check_value(where, given, dict)
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        moved = "".join(f" (set {s}.{k})" for s in SECTIONS if s in allowed for k in unknown if k in SECTIONS[s])
        raise ValueError(f"{where} has unknown keys {unknown}{moved}; allowed: {sorted(allowed)}")
    return dict(given)


def _config_args(params, given, where: str = "config") -> dict:
    """`given` checked against `params` (name -> inspect.Parameter): no unknown key, no missing
    required key, every value of its annotated kind. Returns the values with the defaults filled in."""
    given = _fields(given, where, params)
    missing = [name for name, p in params.items() if p.default is p.empty and name not in given]
    if missing:
        raise ValueError(f"{where} needs '{missing[0]}'")
    checked = {name: check_value(f"{where} '{name}'", v, params[name].annotation) for name, v in given.items()}
    return {name: checked.get(name, p.default) for name, p in params.items()}


def _load_dataset(path: str, sidecar: str | None) -> dataio.Dataset:
    """The validated dataset at `path`, read with `sidecar` or else with the `.json` file next to it."""
    guess = os.path.splitext(path)[0] + ".json"
    ds = dataio.load_dataset(path, guess if sidecar is None and os.path.exists(guess) else sidecar)
    ds.validate()
    return ds


# ---------------------------------------------------------------------------
# Subcommands: (out_dir, seed, the command's --flags, *, its config keys)
# ---------------------------------------------------------------------------


def cmd_prepare(
    out_dir: str, seed: int, *, dataset: str, dataset_config: str | None = None, min_presences: int = 0,
    approved_merges: list[tuple[str, str]] = [], block_deg: float = 1.0, fractions: list[float] = [0.70, 0.15, 0.15],
) -> list[str]:
    ds = _load_dataset(dataset, dataset_config)
    if approved_merges:
        ds = dataio.merge_targets(ds, approved_merges)
    if min_presences:
        ds = dataio.filter_min_presences(ds, min_presences)
    ds = dataio.assign_split(ds, block_deg=block_deg, fractions=tuple(fractions), seed=seed)
    ds.validate()
    stats = dataio.fit_norm(ds.env[ds.split_indices("train")])

    csv_path = os.path.join(out_dir, "dataset.csv")
    cfg_path = os.path.join(out_dir, "dataset.json")
    stats_path = os.path.join(out_dir, "norm_stats.json")
    splits_path = os.path.join(out_dir, "splits.json")
    dataio.save_dataset(ds, csv_path, cfg_path)
    write_json(stats_path, asdict(stats), None)
    write_json(splits_path, dict(zip(ds.ids, ds.split)), None)
    return [csv_path, cfg_path, stats_path, splits_path]


def cmd_colocate(
    out_dir: str, seed: int, *, dataset_a: str, dataset_b: str, config_a: str | None = None,
    config_b: str | None = None, radius_km: float = 1.0, a_label: str = "a", b_label: str = "b",
) -> list[str]:
    a = _load_dataset(dataset_a, config_a)
    b = _load_dataset(dataset_b, config_b)
    pairs = co.colocate(a, b, radius_km)
    combined = co.attach(a, b, pairs, a_label=a_label, b_label=b_label)
    pairs_path = os.path.join(out_dir, "pairs.csv")
    csv_path = os.path.join(out_dir, "combined.csv")
    cfg_path = os.path.join(out_dir, "combined.json")
    co.pairs_to_csv(pairs, pairs_path)
    dataio.save_dataset(combined, csv_path, cfg_path)
    return [pairs_path, csv_path, cfg_path]


def cmd_train(
    out_dir: str, seed: int, preset: str | None = None, *, dataset: str, dataset_config: str | None = None,
    family: Literal[FAMILIES] = "ciso", hyperparams: dict = {}, train: dict = {},
) -> list[str]:
    ds = _load_dataset(dataset, dataset_config)
    train = _fields(train, "config 'train'", SECTIONS["train"])
    cfg = replace(PRESETS[preset] if preset else TrainConfig(), seed=seed, **train)
    hyper = _fields(hyperparams, "config 'hyperparams'", SECTIONS["hyperparams"])
    spec = ModelSpec(family=family, n_species=ds.n_species, n_env=ds.n_env, n_b=cfg.n_b, **hyper)
    tm, history = training.train(ds, spec, cfg)
    ckpt_path = os.path.join(out_dir, "checkpoint.ckpt")
    hist_path = os.path.join(out_dir, "history.csv")
    save_checkpoint(tm, ckpt_path)
    _write_rows(hist_path, ["epoch", "train_loss", "val_metric_uncond", "val_metric_cond"], history)
    return [ckpt_path, hist_path]


def _protocol(entry, where: str, unconditioned: bool = False) -> EvalProtocol:
    given = _config_args(PROTOCOL_KEYS, entry, where)
    if not given["name"] or {"/", os.sep} & set(given["name"]):
        raise ValueError(f"{where} 'name' must be a non-empty string with no path separator, got {given['name']!r}")
    if unconditioned:
        given["condition_group"] = None
    return EvalProtocol(**given)


def cmd_eval(
    out_dir: str, seed: int, unconditioned: bool = False, *, checkpoint: str, dataset: str,
    dataset_config: str | None = None, protocols: list | None = None,
) -> list[str]:
    chosen = [_protocol(e, f"config 'protocols'[{i}]", unconditioned) for i, e in enumerate(protocols or [])]
    names = [p.name for p in chosen]
    if len(set(names)) < len(names):
        raise ValueError(f"config 'protocols' repeats names {sorted({n for n in names if names.count(n) > 1})}")
    tm = load_checkpoint(checkpoint)
    ds = _load_dataset(dataset, dataset_config)
    outputs, reports = [], []
    for protocol in chosen or [EvalProtocol("unconditioned")]:
        report = training.evaluate(tm, ds, protocol)
        path = os.path.join(out_dir, f"report_{protocol.name}.json")
        write_json(path, asdict(report))
        outputs.append(path)
        reports.append(report)
    table_path = os.path.join(out_dir, "report_table.txt")
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write(format_report_table(reports) + "\n")
    outputs.append(table_path)
    return outputs


def cmd_delta(
    out_dir: str, seed: int, *, checkpoint: str, dataset: str, source_species: str,
    dataset_config: str | None = None, targets: list[str] | None = None, split: str = "test",
) -> list[str]:
    """Write delta.csv; `targets` null means every species."""
    tm = load_checkpoint(checkpoint)
    ds = _load_dataset(dataset, dataset_config)
    rows = training.conditioning_delta(tm, ds, source_species, targets, split=split)
    path = os.path.join(out_dir, "delta.csv")
    _write_rows(path, ["source", "target", "mean_delta", "n_locations", "revealed"], rows)
    return [path]


def cmd_map(
    out_dir: str, seed: int, *, checkpoint: str, dataset: str, dataset_config: str | None = None, protocol: dict = {}
) -> list[str]:
    """Write map.csv: one row per (location, target species), location-major."""
    chosen = _protocol({"name": "map", **protocol}, "config 'protocol'")
    tm = load_checkpoint(checkpoint)
    ds = _load_dataset(dataset, dataset_config)
    _, target = chosen.resolve(ds)
    idx, pred = training.protocol_predictions(tm, ds, chosen)
    columns = np.flatnonzero(target)
    names = [ds.species[c] for c in columns]
    path = os.path.join(out_dir, "map.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lat", "lon", "species", "prediction"])
        # .tolist(): csv writes a Python float by repr, a numpy float64 as "np.float64(...)".
        for row, lat, lon in zip(pred, ds.lats[idx].tolist(), ds.lons[idx].tolist()):
            writer.writerows((lat, lon, name, p) for name, p in zip(names, row[columns].tolist()))
    return [path]


def cmd_synth(
    out_dir: str, seed: int, *, benchmark: Literal["interaction", "null"] | None = None, n_locations: int = 5000,
    rate_mode: bool = False, n_species: int | None = None, n_env: int | None = None,
    edges: list[tuple[int, int, float]] | None = None, env_scale: float = 1.0, noise: float = 0.5,
    missing_rate: float = 0.0,
) -> list[str]:
    """Write a synthetic dataset: the community the config spells out, or a benchmark's."""
    if benchmark is None:
        for key, value in (("n_species", n_species), ("n_env", n_env)):
            check_value(f"config '{key}' without a 'benchmark'", value, int)
        spec = synthmod.SynthSpec(
            n_species, n_env, n_locations, edges or [], env_scale, noise, rate_mode, missing_rate, seed
        )
    else:
        make = synthmod.interaction_benchmark_spec if benchmark == "interaction" else synthmod.null_benchmark_spec
        spec = make(n_locations=n_locations, seed=seed, rate_mode=rate_mode)
    # A benchmark fixes the community: a config may restate its values but not change them.
    custom = dict(n_species=n_species, n_env=n_env, edges=edges, env_scale=env_scale, noise=noise)
    for key, value in {**custom, "missing_rate": missing_rate}.items():
        if value is not None and value != getattr(spec, key):
            raise ValueError(f"benchmark {benchmark!r} fixes config '{key}' at {getattr(spec, key)!r}, not {value!r}")
    ds = synthmod.generate(spec)
    ds = dataio.assign_split(ds, seed=seed)
    oracle = spec.n_species <= 12 and not spec.rate_mode
    if oracle and not ds.split_indices("test").size:
        raise ValueError(f"n_locations={spec.n_locations} leaves the test split empty, and the oracle report scores it")

    csv_path = os.path.join(out_dir, "dataset.csv")
    cfg_path = os.path.join(out_dir, "dataset.json")
    dataio.save_dataset(ds, csv_path, cfg_path)
    outputs = [csv_path, cfg_path]

    if oracle:
        model = synthmod.SynthModel(spec)
        report = synthmod.oracle_report(
            model, ds, ds.group_masks["drivers"], ds.group_masks["responders"], indices=ds.split_indices("test")
        )
        oracle_path = os.path.join(out_dir, "oracle_report.json")
        write_json(oracle_path, report)
        outputs.append(oracle_path)
    return outputs


ENCODING_SWEEP = (("4bins", "discrete", 4), ("1bin", "discrete", 1), ("periodic", "periodic", 4), ("linear", "linear", 4))
DEPTH_SWEEP = (3, 5, 6, 7)
DIM_SWEEP = (64, 128, 256)


def _ablate_metrics(report) -> dict:
    keep = ("auc_pct", "mae_x100", "topk_pct")
    return {k: round(v, 4) for k, v in report.aggregates.items() if k in keep}


def cmd_ablate(
    out_dir: str, seed: int, *, dataset: str | None = None, dataset_config: str | None = None, n_locations: int = 800,
    sweep: Literal["all", "encoding", "depth", "dim"] = "all", hidden_dim: int = 32, train: dict = {},
) -> list[str]:
    if dataset is not None:
        ds = _load_dataset(dataset, dataset_config)
    else:
        spec = synthmod.interaction_benchmark_spec(n_locations=n_locations, seed=seed, rate_mode=True)
        ds = dataio.assign_split(synthmod.generate(spec), seed=seed)

    base_train = {"epochs": 2, "lr": 1e-3, "n_b": 4, **_fields(train, "config 'train'", SECTIONS["train"])}
    both = (
        ("unconditioned", EvalProtocol("uncond", None, "responders")),
        ("conditioned", EvalProtocol("cond", "drivers", "responders")),
    )

    def train_once(family: str, n_b: int | None = None, encoding: str = "discrete", **spec_kw):
        cfg = TrainConfig(seed=seed, **base_train)
        if n_b is not None:
            cfg = replace(cfg, n_b=n_b)
        mspec = ModelSpec(family, ds.n_species, ds.n_env, n_b=cfg.n_b, encoding=encoding, **spec_kw)
        return training.train(ds, mspec, cfg)[0]

    def scored(tm, first: dict, protocols=both, **after) -> list[dict]:
        """One row per inference protocol: the `first` columns, the protocol,
        the `after` columns, then the metrics."""
        return [
            {**first, "inference": inference, **after, **_ablate_metrics(training.evaluate(tm, ds, protocol))}
            for inference, protocol in protocols
        ]

    tables: dict[str, list[dict]] = {}
    if sweep in ("all", "encoding"):
        rows = tables["encoding"] = []
        for label, mode, n_b in ENCODING_SWEEP:
            rows += scored(train_once("ciso", n_b=n_b, encoding=mode, hidden_dim=hidden_dim), {"encoding": label})

    if sweep in ("all", "depth"):
        rows = tables["depth"] = []
        for depth in DEPTH_SWEEP:
            tm = train_once("mlp", mlp_hidden=mlp_widths_for_depth(depth, hidden_dim), hidden_dim=hidden_dim)
            rows += scored(tm, {"model": f"mlp-{depth}"}, both[:1], n_params=tm.model.param_count())
        for family in ("linear", "maxent", "mlp++", "ciso"):
            tm = train_once(family, hidden_dim=hidden_dim)
            protocols = both if tm.model.spec.uses_states else both[:1]
            rows += scored(tm, {"model": family}, protocols, n_params=tm.model.param_count())

    if sweep in ("all", "dim"):
        rows = tables["dim"] = []
        for dim in DIM_SWEEP:
            rows += scored(train_once("ciso", hidden_dim=dim), {"hidden_dim": dim})

    outputs = []
    for name, rows in tables.items():
        path = os.path.join(out_dir, f"ablation_{name}.csv")
        _write_rows(path, list(dict.fromkeys(key for row in rows for key in row)), rows)
        outputs.append(path)
    return outputs


def _write_rows(path: str, header: list[str], rows: list[dict]) -> None:
    """Write `rows` as CSV under `header`; the header line is written even
    when there are no rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
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
    # Training's per-epoch lines go to stderr; stdout stays empty.
    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    try:
        threads = workers()
        blas = blas_threads()
        config = {}
        if args.config:
            config = read_json(args.config)
        params = inspect.signature(handler, eval_str=True).parameters.values()
        config = _config_args({p.name: p for p in params if p.kind is p.KEYWORD_ONLY}, config)
        os.makedirs(args.out_dir, exist_ok=True)
        started = time.time()
        outputs = handler(args.out_dir, args.seed, **{o: getattr(args, o) for o in options}, **config)
        manifest = RunManifest(
            command=args.command,
            config=config,
            seed=args.seed,
            inputs=[args.config] if args.config else [],
            outputs=[os.path.basename(o) for o in outputs],
            wall_clock_s=round(time.time() - started, 3),
            blas_threads=blas,
            predict_workers=threads,
        )
        write_json(os.path.join(args.out_dir, "manifest.json"), asdict(manifest))
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
