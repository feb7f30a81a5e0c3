import csv
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as scipy_stats

from cisosdm import cli, models, synth, training
from cisosdm import numerics as nm
from cisosdm.dataio import assign_split, save_dataset
from cisosdm.encoding import assign_states
from cisosdm.models import CISOModel, ModelSpec, build_model, save_checkpoint


def small_dataset(seed=0, n=400, rate_mode=False, missing=0.0):
    spec = synth.SynthSpec(
        n_species=6,
        n_env=3,
        n_locations=n,
        edges=[(0, 3, 3.0), (1, 4, -3.0)],
        rate_mode=rate_mode,
        missing_rate=missing,
        seed=seed,
    )
    ds = synth.generate(spec)
    ds.group_masks = {"drivers": np.arange(6) < 3, "responders": np.arange(6) >= 3}
    return assign_split(ds, seed=seed)


def tiny_spec(family="ciso", **kw):
    defaults = dict(family=family, n_species=6, n_env=3, hidden_dim=8, heads=2, transformer_layers=1, dropout=0.1)
    defaults.update(kw)
    return ModelSpec(**defaults)


def tiny_config(**kw):
    defaults = dict(lr=3e-3, batch_size=32, epochs=2, seed=0, n_b=1)
    defaults.update(kw)
    return training.TrainConfig(**defaults)


def sample_known_per_row(available, rng, cap_fraction=0.75):
    """The draw `training.sample_known` made for one record before it drew a
    batch: the record's revealed species indices."""
    pool = np.flatnonzero(available)
    k_max = min(int(np.floor(cap_fraction * available.size)), pool.size)
    k = int(rng.integers(0, k_max + 1))
    if k == 0:
        return np.empty(0, dtype=np.int64)
    return rng.choice(pool, size=k, replace=False)


class TestSampleKnown:
    def test_no_available_species_gives_empty_set(self):
        rng = np.random.default_rng(0)
        known = training.sample_known(np.zeros((5, 8), bool), rng)
        assert known.shape == (5, 8) and known.dtype == bool
        assert not known.any()

    def test_cap_never_exceeded(self):
        rng = np.random.default_rng(1)
        ks = set(training.sample_known(np.ones((300, 4), bool), rng, 0.75).sum(axis=1))
        assert ks == {0, 1, 2, 3}  # floor(3/4 * 4) = 3, never 4

    def test_unavailable_never_sampled(self):
        rng = np.random.default_rng(2)
        available = np.tile([True, False, True, False, True], (200, 1))
        available[100:] = rng.random((100, 5)) < 0.5
        known = training.sample_known(available, rng)
        assert not (known & ~available).any()
        assert known.any()

    def test_k_uniform_and_membership_uniform(self):
        rng = np.random.default_rng(3)
        draws = 100_000
        known = training.sample_known(np.ones((draws, 8), bool), rng, 0.75)
        k_counts = np.bincount(known.sum(axis=1), minlength=7)  # k in 0..6 (floor(6))
        assert k_counts.size == 7
        chi2 = scipy_stats.chisquare(k_counts)
        assert chi2.pvalue > 0.01
        # each species appears in C_known equally often
        chi2m = scipy_stats.chisquare(known.sum(axis=0))
        assert chi2m.pvalue > 0.01

    @pytest.mark.parametrize("cap", [0.0, 0.75, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_batch_draw_matches_the_per_row_draw(self, seed, cap):
        # Same masks and same generator calls, so checkpoints keep their bytes.
        available = np.random.default_rng(100 + seed).random((40, 7)) < 0.6
        available[::5] = False  # rows with no available species
        available[1::5] = True
        batch, per_row = np.random.default_rng(seed), np.random.default_rng(seed)
        known = training.sample_known(available, batch, cap)
        expected = np.zeros_like(available)
        for i, row in enumerate(available):
            expected[i, sample_known_per_row(row, per_row, cap)] = True
        np.testing.assert_array_equal(known, expected)
        assert batch.bit_generator.state == per_row.bit_generator.state
        if cap > 0:
            assert known.any()


class TestTrainLoop:
    def test_loss_decreases_on_first_epochs(self):
        ds = small_dataset()
        _, history = training.train(ds, tiny_spec(), tiny_config(epochs=3))
        assert history[-1]["train_loss"] < history[0]["train_loss"]

    def test_requires_split(self):
        ds = small_dataset()
        ds.split = None
        with pytest.raises(ValueError, match="split"):
            training.train(ds, tiny_spec(), tiny_config())

    def test_seeded_determinism(self):
        ds = small_dataset()
        tm1, h1 = training.train(ds, tiny_spec(), tiny_config())
        tm2, h2 = training.train(ds, tiny_spec(), tiny_config())
        assert h1 == h2
        for name, p in tm1.model.params.items():
            assert np.array_equal(p.values, tm2.model.params[name].values)

    def test_history_records_both_metrics(self):
        ds = small_dataset()
        _, history = training.train(ds, tiny_spec(), tiny_config())
        assert {"epoch", "train_loss", "val_metric_uncond", "val_metric_cond"} <= set(history[0])
        assert np.isfinite(history[0]["val_metric_cond"])

    def test_stateless_family_trains_plain_bce(self):
        ds = small_dataset()
        tm, history = training.train(ds, tiny_spec("mlp"), tiny_config())
        assert np.isnan(history[0]["val_metric_cond"])
        assert tm.model.spec.family == "mlp"

    def test_best_checkpoint_restored(self):
        ds = small_dataset()
        tm, history = training.train(ds, tiny_spec(), tiny_config(epochs=3))
        best_epoch = tm.meta["selection_epoch"]
        values = [h["val_metric_uncond"] for h in history]
        assert values[best_epoch] == max(values)

    def test_ciso_model_holds_float32_in_every_step_and_validation_predict(self, monkeypatch):
        forward, seen = CISOModel.forward, []

        def recording(self, *args, **kwargs):
            out = forward(self, *args, **kwargs)
            dtypes = {p.values.dtype for p in self.params.values()}
            seen.append((kwargs.get("training", False), dtypes, out.values.dtype))
            return out

        monkeypatch.setattr(CISOModel, "forward", recording)
        tm, _ = training.train(small_dataset(n=120), tiny_spec(), tiny_config(epochs=2))
        assert {step for step, _, _ in seen} == {True, False}
        assert all(dtypes == {np.dtype(np.float32)} and out == np.float32 for _, dtypes, out in seen)
        # The best epoch's float64 masters come back.
        assert {p.values.dtype for p in tm.model.params.values()} == {np.dtype(np.float64)}
        seen.clear()
        tm.model.predict(small_dataset(n=120).env[:4])
        assert [(dtypes, out) for _, dtypes, out in seen] == [({np.dtype(np.float64)}, np.float64)]

    def test_target_group_restricts_loss(self):
        ds = small_dataset()
        tm, _ = training.train(ds, tiny_spec(), tiny_config(target_group="responders"))
        assert tm.meta["train_config"]["target_group"] == "responders"

    def test_best_epoch_rule_skips_nan_and_keeps_earlier_ties(self, monkeypatch):
        # A finite epoch replaces a NaN incumbent, a NaN never replaces a finite
        # one, and a tie keeps the earlier epoch.
        script = [float("nan"), 0.5, float("nan"), 0.5, 0.7, 0.7]
        ds = small_dataset(n=120)
        runs = {}
        for epochs in (5, 6):
            values = iter(script)
            monkeypatch.setattr(training, "_selection_metric", lambda *args: next(values))
            runs[epochs], history = training.train(ds, tiny_spec("mlp"), tiny_config(epochs=epochs, batch_size=16))
            np.testing.assert_array_equal([h["val_metric_uncond"] for h in history], script[:epochs])
        tm = runs[6]
        assert tm.meta["selection_epoch"] == 4
        assert tm.meta["selection_value"] == 0.7
        # The restored parameters are those after epoch 4: the last epoch of the 5-epoch run.
        for name, p in tm.model.params.items():
            np.testing.assert_array_equal(p.values, runs[5].model.params[name].values)

    @pytest.mark.skipif(nm.blas_threads() is None, reason="no BLAS thread setter found, so no worker threads")
    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_forward_error_on_either_thread_propagates(self, monkeypatch, failing):
        monkeypatch.setenv("CISO_THREADS", "2")
        forward = CISOModel.forward
        threads = set()

        def flaky(self, *args, **kwargs):
            on_caller = threading.current_thread() is threading.main_thread()
            if kwargs.get("training"):
                threads.add(on_caller)
                if on_caller == (failing == "caller"):
                    raise RuntimeError(f"forward failed on the {failing}")
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(CISOModel, "forward", flaky)
        before_blas, before_threads = nm.blas_threads(), threading.active_count()
        with pytest.raises(RuntimeError, match=f"forward failed on the {failing}"):
            training.train(small_dataset(n=120), tiny_spec(), tiny_config(epochs=1))
        assert threads == {True, False}
        assert nm.blas_threads() == before_blas
        assert threading.active_count() == before_threads

    def test_checkpoint_bytes_do_not_depend_on_threads_over_several_pieces(self, monkeypatch, tmp_path):
        # At C = 45, d = 64 and 4 heads a piece holds 22 rows, so a 64-row step runs as 3 micro-batches.
        ds = assign_split(synth.generate(synth.SynthSpec(n_species=45, n_env=3, n_locations=160, seed=5)), seed=5)
        spec = tiny_spec(n_species=45, hidden_dim=64, heads=4)
        assert models.piece_rows(spec) == 22
        pieces = []
        run_split = nm.run_split

        def recording_run_split(n, workers, task):
            pieces.append(n)
            return run_split(n, workers, task)

        monkeypatch.setattr(nm, "run_split", recording_run_split)
        blobs = set()
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("CISO_THREADS", threads)
            tm, _ = training.train(ds, spec, tiny_config(epochs=1, batch_size=64))
            save_checkpoint(tm, str(tmp_path / "ckpt"))
            blobs.add((tmp_path / "ckpt").read_bytes())
        assert pieces[0] == 3
        assert len(blobs) == 1

    def test_empty_validation_split_falls_back_to_last_epoch(self):
        from cisosdm.dataio import assign_split

        ds = small_dataset(n=60)
        ds.split = None
        ds.lats[:] = 0.5
        ds.lons[:] = 0.5  # one spatial block: everything lands in train
        ds = assign_split(ds, seed=0)
        tm, history = training.train(ds, tiny_spec("mlp"), tiny_config(epochs=2, batch_size=16))
        assert all(np.isnan(h["val_metric_uncond"]) for h in history)
        assert tm.meta["selection_epoch"] == 1


class TestMaskIntegrity:
    def test_zero_gradients_at_known_and_unavailable(self):
        ds = small_dataset(missing=0.2)
        spec = tiny_spec()
        model = build_model(replace(spec, n_env=3, n_b=1), seed=0)
        rng = np.random.default_rng(4)
        idx = np.arange(16)
        env = ds.env[idx]
        y = ds.targets[idx]
        avail = ds.available[idx]
        known = training.sample_known(avail, rng, 0.75)
        codes, rates = assign_states(y, avail, known, 1)
        loss_mask = avail & ~known

        pred_holder = {}

        def loss():
            pred = model.forward(env, codes, rates)
            pred_holder["p"] = pred
            return nm.bce_masked(pred, y, loss_mask)

        with nm.Tape() as tape:
            value = loss()
            # gradient w.r.t. predictions: recover via a fresh taped call
            nm.backward(tape, value)
        # perturb predictions at known/unavailable entries: loss unchanged
        base = nm.bce_masked(pred_holder["p"], y, loss_mask).item()
        perturbed = pred_holder["p"].values.copy()
        perturbed[~loss_mask] = np.clip(perturbed[~loss_mask] + 0.2, 0.01, 0.99)
        assert nm.bce_masked(nm.Tensor(perturbed), y, loss_mask).item() == pytest.approx(base, rel=1e-12)

    def test_pred_gradient_zero_exactly_at_masked(self):
        rng = np.random.default_rng(5)
        pred = nm.Tensor(rng.uniform(0.1, 0.9, (4, 6)), requires_grad=True)
        y = rng.random((4, 6))
        known = rng.random((4, 6)) < 0.4
        available = rng.random((4, 6)) < 0.8
        mask = available & ~known
        with nm.Tape() as tape:
            grads = nm.backward(tape, nm.bce_masked(pred, y, mask))
        assert np.all(grads[pred][known | ~available] == 0.0)
        assert np.all(grads[pred][mask] != 0.0)


@pytest.fixture(scope="module")
def trained():
    ds = small_dataset(seed=6, n=500)
    tm, _ = training.train(ds, tiny_spec(), tiny_config(epochs=2))
    return tm, ds


class TestEvaluate:

    def test_empty_condition_equals_unconditioned(self, trained):
        tm, ds = trained
        a = training.evaluate(tm, ds, training.EvalProtocol("uncond", None, "responders"))
        b = training.EvalProtocol("also-uncond", condition_group=None, target_group="responders")
        rb = training.evaluate(tm, ds, b)
        assert a.aggregates == rb.aggregates

    def test_overlapping_masks_rejected(self, trained):
        # revealing the scored species themselves is an error
        tm, ds = trained
        with pytest.raises(ValueError, match="overlap"):
            training.evaluate(tm, ds, training.EvalProtocol("bad", "drivers", "drivers"))

    def test_default_target_is_complement_of_condition(self, trained):
        tm, ds = trained
        protocol = training.EvalProtocol("c", "drivers", None)
        _, target = protocol.resolve(ds)
        assert np.array_equal(target, ~ds.group_masks["drivers"])

    def test_unknown_group_rejected(self, trained):
        tm, ds = trained
        with pytest.raises(KeyError, match="unknown species group"):
            training.evaluate(tm, ds, training.EvalProtocol("bad", "sharks", None))

    def test_stateless_family_rejects_conditioning(self):
        ds = small_dataset(seed=7)
        tm, _ = training.train(ds, tiny_spec("linear"), tiny_config(epochs=1))
        with pytest.raises(ValueError, match="cannot condition"):
            training.evaluate(tm, ds, training.EvalProtocol("c", "drivers", "responders"))

    def test_reported_mae_matches_recomputation(self):
        ds = small_dataset(seed=8, n=500, rate_mode=True)
        tm, _ = training.train(ds, tiny_spec(), tiny_config(epochs=1, n_b=4))
        protocol = training.EvalProtocol("cond", "drivers", "responders")
        report = training.evaluate(tm, ds, protocol)
        idx, pred = training.protocol_predictions(tm, ds, protocol)
        resp = ds.group_masks["responders"]
        cells = ds.available[idx] & resp[None, :]
        recomputed = np.abs(pred[cells & True] - ds.targets[idx][cells]).mean() * 100
        # mask arrays index the same cells
        recomputed = np.abs(pred[cells] - ds.targets[idx][cells]).mean() * 100
        assert report.aggregates["mae_x100"] == pytest.approx(recomputed, rel=1e-12)

    def test_roster_mismatch_rejected(self, trained):
        tm, ds = trained
        other = small_dataset(seed=9)
        other.species = [f"other_{i}" for i in range(6)]
        with pytest.raises(ValueError, match="roster"):
            training.evaluate(tm, other, training.EvalProtocol("u", None, None))


@pytest.fixture(scope="module")
def trained_for_delta():
    ds = small_dataset(seed=10, n=600)
    tm, _ = training.train(ds, tiny_spec(), tiny_config(epochs=3))
    return tm, ds


class TestConditioningDelta:

    def test_source_absent_everywhere_errors(self, trained_for_delta):
        tm, ds = trained_for_delta
        ds2 = small_dataset(seed=10, n=600)
        ds2.targets[:, 0] = 0.0
        with pytest.raises(ValueError, match="species_00"):
            training.conditioning_delta(tm, ds2, "species_00")

    def test_source_row_flagged(self, trained_for_delta):
        tm, ds = trained_for_delta
        rows = training.conditioning_delta(tm, ds, "species_00")
        by_target = {r["target"]: r for r in rows}
        assert by_target["species_00"]["revealed"] is True
        assert all(not r["revealed"] for t, r in by_target.items() if t != "species_00")

    def test_planted_facilitation_has_positive_delta(self):
        # strong positive edge 0 -> 3; conditioning on species_00 present
        # should raise the predicted suitability of species_03
        ds = small_dataset(seed=11, n=1500)
        tm, _ = training.train(ds, tiny_spec(), tiny_config(epochs=6))
        rows = training.conditioning_delta(tm, ds, "species_00", targets=["species_03"])
        assert rows[0]["mean_delta"] > 0.0

    def test_unknown_species_rejected(self, trained_for_delta, monkeypatch):
        tm, ds = trained_for_delta
        with pytest.raises(ValueError, match="unknown source"):
            training.conditioning_delta(tm, ds, "dodo")
        # Target names are checked before either prediction runs.
        monkeypatch.setattr(tm.model, "predict", lambda *a, **kw: pytest.fail("predicted before checking targets"))
        with pytest.raises(ValueError, match="unknown target species 'dodo'"):
            training.conditioning_delta(tm, ds, "species_00", targets=["species_03", "dodo"])


class TestPredictMap:
    def test_rows_cover_targets_by_location(self, tmp_path):
        ds = small_dataset(seed=12)
        tm, _ = training.train(ds, tiny_spec(), tiny_config(epochs=1))
        save_dataset(ds, str(tmp_path / "ds.csv"), str(tmp_path / "ds.json"))
        save_checkpoint(tm, str(tmp_path / "m.ckpt"))
        config = {
            "checkpoint": str(tmp_path / "m.ckpt"),
            "dataset": str(tmp_path / "ds.csv"),
            "protocol": {"condition_group": "drivers", "target_group": "responders", "split": "test"},
        }
        (path,) = cli.cmd_map(str(tmp_path), 0, **config)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        n_test = ds.split_indices("test").size
        assert len(rows) == n_test * 3
        assert {r["species"] for r in rows} == {"species_03", "species_04", "species_05"}
        assert all(0.0 < float(r["prediction"]) < 1.0 for r in rows)

    def test_history_csv_written(self, tmp_path):
        history = [
            {"epoch": 0, "train_loss": 1.0, "val_metric_uncond": 0.5, "val_metric_cond": 0.6}
        ]
        path = tmp_path / "history.csv"
        cli._write_rows(str(path), ["epoch", "train_loss", "val_metric_uncond", "val_metric_cond"], history)
        text = path.read_text().splitlines()
        assert text[0] == "epoch,train_loss,val_metric_uncond,val_metric_cond"
        assert text[1].startswith("0,1.0")


class TestPresets:
    def test_preset_values(self):
        sp = training.PRESETS["splotopen"]
        assert (sp.lr, sp.batch_size, sp.n_b, sp.epochs) == (1e-3, 64, 1, 20)
        sb = training.PRESETS["satbird"]
        assert (sb.lr, sb.batch_size, sb.epochs) == (1e-4, 128, 50)
        assert training.PRESETS["across"].lr == 1e-4
