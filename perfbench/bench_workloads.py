"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (timed as set-up),
runs its job in ``iterate`` (timed; one closed-loop client), and checks the
job's outputs in ``check`` (untimed). Every call into the package that the job
makes is an operation; it fails if it raises or if its output fails a check.
Why each workload exists, and which layers it loads, is in README.md.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import rankdata

from cisosdm import cli, colocate, dataio, encoding, synth, training
from cisosdm.models import ModelSpec
from cisosdm.training import EvalProtocol, TrainConfig

EARTH_RADIUS_KM = 6371.0


class CheckFailed(Exception):
    pass


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Ops:
    """Operations attempted in one iteration, with the error each raised."""

    def __init__(self):
        self.errors: dict[str, str | None] = {}

    def call(self, name: str, fn, *args, **kwargs):
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the benchmark records the failure and goes on
            self.errors[name] = f"{type(exc).__name__}: {exc}"
            return None
        self.errors[name] = None
        return result


@contextmanager
def keeping(module, attr: str, kept: list):
    """Within the block, module.attr also appends each result it returns to `kept`."""
    original = getattr(module, attr)

    def keep(*args, **kwargs):
        kept.append(original(*args, **kwargs))
        return kept[-1]

    setattr(module, attr, keep)
    try:
        yield
    finally:
        setattr(module, attr, original)


def run_checks(checks: dict) -> dict[str, str]:
    """Run each operation's check; returns {operation: failure message}."""
    failures = {}
    for op, check in checks.items():
        try:
            check()
        except Exception as exc:
            failures[op] = f"{type(exc).__name__}: {exc}"
    return failures


def _finite_losses(history) -> list[float]:
    expect(history, "no training history")
    losses = [float(row["train_loss"]) for row in history]
    expect(all(math.isfinite(v) for v in losses), f"non-finite train loss {losses}")
    return losses


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


# ---------------------------------------------------------------------------
# ciso-pipeline: the README workflow through cli.main
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineSize:
    n_locations: int = 2000
    epochs: int = 2
    hidden_dim: int = 64


class CisoPipeline:
    name = "ciso-pipeline"
    commands = ("synth", "train", "eval", "delta", "map")
    required = (
        *(f"cli.{c}" for c in ("synth", "train", "eval", "delta", "map")),
        "synth.generate", "synth.oracle_report",
        "dataio.load_dataset", "dataio.save_dataset", "dataio.assign_split", "dataio.norm",
        "encoding.assign_states", "encoding.state_encode",
        "training.train", "training.sample_known", "training.evaluate",
        "models.forward", "models.block_forward", "models.predict", "models.checkpoint_save", "models.checkpoint_load",
        "numerics.backward", "numerics.adamw",
        "metrics.macro_auc", "metrics.evaluate_matrix",
    )
    all_op_kinds = True

    def __init__(self, size: PipelineSize | None = None):
        self.size = size or PipelineSize()

    def setup(self, seed: int, workdir: str) -> dict:
        dirs = {c: os.path.join(workdir, c) for c in self.commands}
        dataset = os.path.join(dirs["synth"], "dataset.csv")
        checkpoint = os.path.join(dirs["train"], "checkpoint.ckpt")
        responders_cond = {"name": "cond", "condition_group": "drivers", "target_group": "responders"}
        configs = {
            "synth": {"benchmark": "interaction", "n_locations": self.size.n_locations},
            "train": {
                "dataset": dataset,
                "family": "ciso",
                "hyperparams": {"hidden_dim": self.size.hidden_dim, "heads": 4, "transformer_layers": 3},
                "train": {"epochs": self.size.epochs, "batch_size": 64, "n_b": 1},
            },
            "eval": {
                "checkpoint": checkpoint,
                "dataset": dataset,
                "protocols": [{"name": "uncond", "target_group": "responders"}, responders_cond],
            },
            "delta": {"checkpoint": checkpoint, "dataset": dataset, "source_species": "species_00"},
            "map": {"checkpoint": checkpoint, "dataset": dataset, "protocol": responders_cond},
        }
        os.makedirs(workdir, exist_ok=True)
        argv = {}
        for c in self.commands:
            path = _write_json(os.path.join(workdir, f"{c}.json"), configs[c])
            argv[c] = [c, "--config", path, "--seed", str(seed), "--out-dir", dirs[c]]
        return {"argv": argv, "dirs": dirs}

    def iterate(self, inputs: dict, tracer, ops: Ops) -> dict:
        codes = {}
        for c in self.commands:
            with tracer.span(f"cli.{c}"):
                codes[c] = ops.call(c, cli.main, inputs["argv"][c])
        return codes

    def check(self, inputs: dict, codes: dict) -> dict[str, str]:
        dirs = inputs["dirs"]

        def exit_ok(c):
            expect(codes.get(c) == 0, f"cli {c} returned {codes.get(c)}")

        def synth_ok():
            exit_ok("synth")
            oracle = _read_json(os.path.join(dirs["synth"], "oracle_report.json"))
            expect(oracle["conditional_mae"] < oracle["marginal_mae"], f"oracle has no conditioning headroom: {oracle}")

        def train_ok():
            exit_ok("train")
            losses = _finite_losses(_read_csv(os.path.join(dirs["train"], "history.csv")))
            expect(len(losses) == self.size.epochs, f"{len(losses)} epochs logged")
            expect(losses[-1] < losses[0], f"train loss did not fall: {losses}")

        def eval_ok():
            exit_ok("eval")
            auc = {p: _read_json(os.path.join(dirs["eval"], f"report_{p}.json"))["aggregates"]["auc_pct"]
                   for p in ("uncond", "cond")}
            self.notes["auc_pct"] = auc
            expect(math.isfinite(auc["uncond"]) and auc["cond"] > auc["uncond"],
                   f"conditioned AUC does not beat unconditioned: {auc}")

        def delta_ok():
            exit_ok("delta")
            rows = _read_csv(os.path.join(dirs["delta"], "delta.csv"))
            expect(len(rows) == 10, f"{len(rows)} delta rows")
            expect(all(math.isfinite(float(r["mean_delta"])) for r in rows), "non-finite delta")

        def map_ok():
            exit_ok("map")
            preds = [float(r["prediction"]) for r in _read_csv(os.path.join(dirs["map"], "map.csv"))]
            expect(preds and len(preds) % 5 == 0, f"{len(preds)} map rows for 5 responders")
            expect(all(0.0 <= p <= 1.0 for p in preds), "map prediction outside [0, 1]")

        return run_checks({"synth": synth_ok, "train": train_ok, "eval": eval_ok, "delta": delta_ok, "map": map_ok})


# ---------------------------------------------------------------------------
# ciso-wide-roster: CISO at C=100, inference-heavy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WideRosterSize:
    n_species: int = 100
    n_train: int = 256
    n_val: int = 64
    n_test: int = 1024
    hidden_dim: int = 64
    checked_rows: int = 64


WIDE_ROSTER_ENV = 8


class CisoWideRoster:
    name = "ciso-wide-roster"
    required = (
        "synth.generate", "dataio.norm",
        "encoding.assign_states", "encoding.state_encode",
        "training.train", "training.sample_known", "training.evaluate",
        "models.forward", "models.block_forward", "models.predict",
        "numerics.backward", "numerics.adamw",
        "metrics.topk_adaptive", "metrics.topn_fixed", "metrics.evaluate_matrix",
    )
    all_op_kinds = True
    protocols = (EvalProtocol("uncond", None, "responders"), EvalProtocol("cond", "drivers", "responders"))

    def __init__(self, size: WideRosterSize | None = None):
        self.size = size or WideRosterSize()

    def setup(self, seed: int, workdir: str) -> dict:
        s = self.size
        half = s.n_species // 2
        edges = [(c, half + c, 3.0 if c % 2 == 0 else -3.0) for c in range(half)]
        spec = synth.SynthSpec(
            n_species=s.n_species, n_env=WIDE_ROSTER_ENV, n_locations=s.n_train + s.n_val + s.n_test,
            edges=edges, rate_mode=True, seed=seed,
        )
        ds = synth.generate(spec)
        tags = ["train"] * s.n_train + ["val"] * s.n_val + ["test"] * s.n_test
        ds = replace(ds, split=np.array(tags, dtype=object))
        model = ModelSpec(family="ciso", n_species=s.n_species, n_env=WIDE_ROSTER_ENV, hidden_dim=s.hidden_dim,
                          heads=4, transformer_layers=3, n_b=4)
        config = TrainConfig(epochs=1, batch_size=32, n_b=4, seed=seed)
        return {"ds": ds, "model": model, "config": config}

    def iterate(self, inputs: dict, tracer, ops: Ops) -> dict:
        trained = ops.call("train", training.train, inputs["ds"], inputs["model"], inputs["config"])
        tm = trained[0] if trained else None
        reports, predictions = {}, {}
        for p in self.protocols:
            # Keep the predictions evaluate scores, for the check; this adds one call per protocol.
            predictions[p.name] = []
            with keeping(training, "protocol_predictions", predictions[p.name]):
                reports[p.name] = ops.call(f"evaluate.{p.name}", training.evaluate, tm, inputs["ds"], p)
        return {"trained": trained, "reports": reports, "predictions": predictions}

    def check(self, inputs: dict, out: dict) -> dict[str, str]:
        ds = inputs["ds"]
        checked = np.linspace(0, self.size.n_test - 1, self.size.checked_rows).astype(int)

        def train_ok():
            expect(out["trained"] is not None, "train raised")
            _finite_losses(out["trained"][1])

        def evaluate_ok(protocol):
            report = out["reports"][protocol.name]
            expect(report is not None, "evaluate raised")
            expect(report.n_locations == self.size.n_test, f"{report.n_locations} rows evaluated")
            values = list(report.aggregates.values())
            values += [v for per in report.per_species.values() for v in per.values()]
            expect(report.aggregates and all(math.isfinite(v) for v in values), "non-finite report value")
            kept = out["predictions"][protocol.name]
            expect(len(kept) == 1, f"evaluate made {len(kept)} protocol_predictions calls, not 1")
            idx, pred = kept[0]
            expect(pred.shape == (self.size.n_test, ds.n_species), f"prediction shape {pred.shape}")
            expect(np.isfinite(pred).all() and pred.min() >= 0.0 and pred.max() <= 1.0,
                   "prediction not finite or outside [0, 1]")
            # Rows spread over the whole call, predicted again in batches of 8.
            tm, rows = out["trained"][0], idx[checked]
            condition, _ = protocol.resolve(ds)
            known = condition[None, :] & ds.available[rows]
            codes, rates = encoding.assign_states(ds.targets[rows], ds.available[rows], known, tm.model.spec.n_b)
            ref = tm.model.predict(dataio.apply_norm(ds.env, tm.norm)[rows], codes, rates, batch_size=8)
            err = float(np.abs(pred[checked] - ref).max())
            self.notes[f"max_abs_err_vs_batch8.{protocol.name}"] = err
            expect(err <= 1e-9, f"predictions differ from a batch-of-8 reference by up to {err:.3g}")

        checks = {"train": train_ok}
        for p in self.protocols:
            checks[f"evaluate.{p.name}"] = lambda p=p: evaluate_ok(p)
        return run_checks(checks)


# ---------------------------------------------------------------------------
# survey-join: CSV I/O, the colocation join, Maxent and mlp++ with metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurveySize:
    n_locations: int = 10000
    n_species: int = 100
    n_env: int = 27
    checked_rows: int = 256


JOIN_RADIUS_KM = 1.0
SHARED_FRACTION = 0.5  # of B's sites, moved to within 0.9 km of a distinct A site


def haversine_matrix(lat_a, lon_a, lat_b, lon_b) -> np.ndarray:
    """Great-circle km between every A point and every B point."""
    la, lb = np.radians(lat_a)[:, None], np.radians(lat_b)[None, :]
    dlat = lb - la
    dlon = np.radians(lon_b)[None, :] - np.radians(lon_a)[:, None]
    s = np.sin(dlat / 2.0) ** 2 + np.cos(la) * np.cos(lb) * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(s, 1.0)))


def reference_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    ranks = rankdata(scores, method="average")
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


class SurveyJoin:
    name = "survey-join"
    required = (
        "synth.generate",
        "dataio.load_dataset", "dataio.save_dataset", "dataio.assign_split", "dataio.norm",
        "colocate.colocate", "colocate.build_index", "colocate.query", "colocate.attach",
        "features.fit_maxent", "features.expand",
        "encoding.assign_states",
        "training.train", "training.sample_known", "training.evaluate",
        "models.forward", "models.predict",
        "numerics.backward", "numerics.adamw", "numerics.op.matmul",
        "metrics.macro_auc", "metrics.topk_adaptive", "metrics.topn_fixed", "metrics.evaluate_matrix",
    )
    all_op_kinds = False

    def __init__(self, size: SurveySize | None = None):
        self.size = size or SurveySize()

    def setup(self, seed: int, workdir: str) -> dict:
        s = self.size
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(99,)))
        half = s.n_species // 2
        edges = [(c, half + c, 2.0 if c % 2 == 0 else -2.0) for c in range(0, half, 2)]
        a = synth.generate(synth.SynthSpec(
            n_species=s.n_species, n_env=s.n_env, n_locations=s.n_locations, edges=edges,
            missing_rate=0.1, seed=seed,
        ))
        b = synth.generate(synth.SynthSpec(
            n_species=s.n_species, n_env=s.n_env, n_locations=s.n_locations, edges=edges,
            rate_mode=True, seed=seed + 1,
        ))
        # A share of B's sites sits within 0.9 km of a distinct A site.
        shared = int(SHARED_FRACTION * s.n_locations)
        src = rng.choice(s.n_locations, size=shared, replace=False)
        bearing = rng.uniform(0.0, 2.0 * np.pi, shared)
        dist = rng.uniform(0.0, 0.9 * JOIN_RADIUS_KM, shared)
        km_per_deg = np.pi * EARTH_RADIUS_KM / 180.0
        lats, lons = b.lats.copy(), b.lons.copy()
        lats[:shared] = a.lats[src] + dist * np.cos(bearing) / km_per_deg
        lons[:shared] = a.lons[src] + dist * np.sin(bearing) / (km_per_deg * np.cos(np.radians(a.lats[src])))
        b = replace(
            b, lats=lats, lons=lons,
            species=[f"b_{name}" for name in b.species],
            ids=[f"b_{rid}" for rid in b.ids],
        )
        os.makedirs(workdir, exist_ok=True)
        paths = {k: os.path.join(workdir, f"survey_{k}") for k in ("a", "b")}
        maxent = ModelSpec(family="maxent", n_species=s.n_species, n_env=s.n_env)
        mlpxx = ModelSpec(family="mlp++", n_species=2 * s.n_species, n_env=s.n_env, n_b=4)
        return {
            "a": a, "b": b, "paths": paths, "seed": seed,
            "maxent": (maxent, TrainConfig(epochs=1, batch_size=64, n_b=1, seed=seed)),
            "mlp++": (mlpxx, TrainConfig(epochs=1, batch_size=64, n_b=4, seed=seed)),
            "checked": np.sort(rng.choice(s.n_locations, size=min(s.checked_rows, s.n_locations), replace=False)),
        }

    # Unconditioned Maxent on A; mlp++ predicts B's species from A's revealed ones.
    protocols = {"maxent": EvalProtocol("maxent", None, None), "mlp++": EvalProtocol("mlp++", "a", "b")}
    # Each model is scored on val and test: twice the rows of test alone, so
    # that eval_rows_per_s times more than a fraction of a second.
    eval_splits = ("val", "test")

    def iterate(self, inputs: dict, tracer, ops: Ops) -> dict:
        out = {}
        paths = inputs["paths"]
        for k in ("a", "b"):
            ops.call(f"save_{k}", dataio.save_dataset, inputs[k], paths[k] + ".csv", paths[k] + ".json")
        for k in ("a", "b"):
            out[k] = ops.call(f"load_{k}", dataio.load_dataset, paths[k] + ".csv", paths[k] + ".json")
        out["pairs"] = ops.call("colocate", colocate.colocate, out["a"], out["b"], JOIN_RADIUS_KM)
        out["combined"] = ops.call("attach", colocate.attach, out["a"], out["b"], out["pairs"])
        out["split_a"] = ops.call("split_a", dataio.assign_split, out["a"], seed=inputs["seed"])
        out["split_combined"] = ops.call("split_combined", dataio.assign_split, out["combined"], seed=inputs["seed"])
        for family, ds_key in (("maxent", "split_a"), ("mlp++", "split_combined")):
            spec, config = inputs[family]
            trained = ops.call(f"train_{family}", training.train, out[ds_key], spec, config)
            out[f"train_{family}"] = trained
            for split in self.eval_splits:
                protocol = replace(self.protocols[family], split=split)
                out[f"eval_{family}.{split}"] = ops.call(f"eval_{family}.{split}", training.evaluate,
                                                         trained[0] if trained else None, out[ds_key], protocol)
        return out

    def check(self, inputs: dict, out: dict) -> dict[str, str]:
        a, b = inputs["a"], inputs["b"]

        def round_trip(k):
            src, got = inputs[k], out[k]
            expect(got is not None, "load raised")
            expect(got.species == src.species and got.ids == src.ids, "roster or ids differ")
            for field in ("lats", "lons", "env", "available"):
                expect(np.array_equal(getattr(got, field), getattr(src, field)), f"{field} differs after round trip")
            # The CSV stores no value for an unobserved cell; loading reads it as 0.
            observed = src.available
            expect(np.array_equal(got.targets[observed], src.targets[observed]), "targets differ after round trip")
            expect(not got.targets[~observed].any(), "unobserved cells load as nonzero")
            expect(got.group_masks.keys() == src.group_masks.keys(), "group names differ")
            expect(all(np.array_equal(got.group_masks[g], m) for g, m in src.group_masks.items()), "group masks differ")

        def join_ok():
            pairs = out["pairs"]
            expect(pairs is not None, "colocate raised")
            by_a = {p.a_id: p for p in pairs}
            rows = inputs["checked"]
            d = haversine_matrix(a.lats[rows], a.lons[rows], b.lats, b.lons)
            nearest = d.argmin(axis=1)  # first minimum: ties go to the earlier B record
            for r, j, km in zip(rows, nearest, d[np.arange(rows.size), nearest]):
                got = by_a.get(a.ids[r])
                if km > JOIN_RADIUS_KM:
                    expect(got is None, f"{a.ids[r]} paired but no B site within radius")
                    continue
                expect(got is not None and got.b_id == b.ids[j], f"{a.ids[r]}: expected {b.ids[j]}, got {got}")
                expect(abs(got.distance_km - km) <= 1e-9, f"{a.ids[r]}: distance {got.distance_km} vs {km}")
            expect(len(pairs) > 0.3 * a.n_records, f"only {len(pairs)} pairs")

        def attach_ok():
            comb = out["combined"]
            expect(comb is not None, "attach raised")
            expect(comb.n_species == a.n_species + b.n_species and comb.n_records == a.n_records, "combined shape")
            b_row = {rid: j for j, rid in enumerate(b.ids)}
            a_row = {rid: i for i, rid in enumerate(comb.ids)}
            for p in out["pairs"][:: max(1, len(out["pairs"]) // 200)]:
                i, j = a_row[p.a_id], b_row[p.b_id]
                expect(np.array_equal(comb.targets[i, a.n_species:], b.targets[j]), f"{p.a_id}: B targets not attached")

        def split_ok(key):
            ds = out[key]
            expect(ds is not None and ds.split is not None, "no split tags")
            expect(all(ds.split_indices(t).size > 0 for t in dataio.SPLIT_TAGS), "an empty split")

        def train_ok(family):
            expect(out[f"train_{family}"] is not None, "train raised")
            _finite_losses(out[f"train_{family}"][1])

        def maxent_eval_ok(split):
            report = out[f"eval_maxent.{split}"]
            expect(report is not None and report.per_species, "evaluate raised or scored nothing")
            ds = out["split_a"]
            protocol = replace(self.protocols["maxent"], split=split)
            idx, pred = training.protocol_predictions(out["train_maxent"][0], ds, protocol)
            truth, avail = ds.targets[idx], ds.available[idx]
            for c, name in enumerate(ds.species):
                cells = avail[:, c]
                positive = truth[cells, c] > 0
                if name not in report.per_species:
                    expect(positive.all() or not positive.any(), f"{name} skipped but scorable")
                    continue
                ref = reference_auc(pred[cells, c], positive)
                got = report.per_species[name]["auc"]
                expect(abs(got - ref) <= 1e-12, f"{name}: AUC {got} vs rankdata {ref}")

        def mlpxx_eval_ok(split):
            report = out[f"eval_mlp++.{split}"]
            expect(report is not None, "evaluate raised")
            expect(all(math.isfinite(v) for v in report.aggregates.values()), "non-finite aggregate")
            keys = ["topk_pct"] + [f"top{n}_pct" for n in (10, 30) if b.n_species >= n]
            for key in keys:
                expect(0.0 <= report.aggregates.get(key, -1.0) <= 100.0, f"{key} missing or out of range")

        checks = {
            "save_a": lambda: round_trip("a"), "load_a": lambda: round_trip("a"),
            "save_b": lambda: round_trip("b"), "load_b": lambda: round_trip("b"),
            "colocate": join_ok, "attach": attach_ok,
            "split_a": lambda: split_ok("split_a"), "split_combined": lambda: split_ok("split_combined"),
            "train_maxent": lambda: train_ok("maxent"), "train_mlp++": lambda: train_ok("mlp++"),
        }
        for split in self.eval_splits:
            checks[f"eval_maxent.{split}"] = lambda split=split: maxent_eval_ok(split)
            checks[f"eval_mlp++.{split}"] = lambda split=split: mlpxx_eval_ok(split)
        return run_checks(checks)


WORKLOADS = {w.name: w for w in (CisoPipeline, CisoWideRoster, SurveyJoin)}
