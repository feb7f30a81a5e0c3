import json
import os
import re
import struct
import sys
import tempfile
import threading
import time
import tracemalloc
import weakref
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisosdm import models, numerics as nm
from cisosdm.encoding import STATE_UNKNOWN, assign_states
from cisosdm.features import fit_maxent
from fdcheck import check_gradients


def toy_spec(family, **kw):
    defaults = dict(
        family=family,
        n_species=4,
        n_env=5,
        hidden_dim=8,
        heads=2,
        transformer_layers=2,
        n_b=4,
        dropout=0.0,
    )
    defaults.update(kw)
    return models.ModelSpec(**defaults)


def toy_batch(seed=0, n=3, n_species=4, n_env=5, n_b=4):
    rng = np.random.default_rng(seed)
    env = rng.normal(size=(n, n_env))
    targets = rng.choice([0.0, 0.2, 0.7, 1.0], size=(n, n_species))
    available = np.ones((n, n_species), bool)
    known = rng.random((n, n_species)) < 0.5
    codes, rates = assign_states(targets, available, known, n_b)
    return env, targets, available, known, codes, rates


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            toy_spec("gbm")

    def test_dim_head_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            toy_spec("ciso", hidden_dim=10, heads=4)

    def test_roundtrip_dict(self):
        spec = toy_spec("mlp", mlp_hidden=(16, 16, 16))
        assert models.ModelSpec(**asdict(spec)) == spec

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ValueError, match="'encoding' must be one of \\['discrete', 'linear', 'periodic'\\]"):
            toy_spec("ciso", encoding="fourier")


class TestForwardContracts:
    def test_linear_zero_weights_give_half(self):
        m = models.build_model(toy_spec("linear"), seed=0)
        for p in m.params.values():
            p.values[:] = 0.0
        out = m.forward(np.zeros((2, 5))).values
        assert np.allclose(out, 0.5)

    def test_linear_one_hot_row_recovers_variable(self):
        m = models.build_model(toy_spec("linear"), seed=0)
        m.params["out.w"].values[:] = 0.0
        m.params["out.b"].values[:] = 0.0
        m.params["out.w"].values[2, 0] = 1.0
        env = np.zeros((1, 5))
        env[0, 2] = 1.3
        out = m.forward(env).values
        assert out[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-1.3)))
        assert np.allclose(out[0, 1:], 0.5)

    def test_mlp_zero_weights_give_half(self):
        m = models.build_model(toy_spec("mlp"), seed=0)
        for p in m.params.values():
            p.values[:] = 0.0
        assert np.allclose(m.forward(np.ones((2, 5))).values, 0.5)

    def test_mlp_depth_variants_constructible(self):
        for depth in (3, 5, 6, 7):
            widths = models.mlp_widths_for_depth(depth, 8)
            m = models.build_model(toy_spec("mlp", mlp_hidden=widths), seed=0)
            assert len(m.trunk) == depth - 1
            assert m.forward(np.zeros((1, 5))).shape == (1, 4)

    def test_mlppp_input_width(self):
        spec = toy_spec("mlp++", n_b=4)
        m = models.build_model(spec, seed=0)
        assert m.params["trunk0.w"].shape[0] == 5 + 4 * 6

    def test_mlppp_all_unknown_appends_constant_block(self):
        m = models.build_model(toy_spec("mlp++"), seed=0)
        env = np.random.default_rng(0).normal(size=(2, 5))
        default = m.forward(env).values
        codes = np.full((2, 4), STATE_UNKNOWN)
        explicit = m.forward(env, codes, np.zeros((2, 4))).values
        assert np.array_equal(default, explicit)

    def test_mlppp_state_flip_changes_fixed_block(self):
        m = models.build_model(toy_spec("mlp++"), seed=0)
        codes = np.full((1, 4), STATE_UNKNOWN)
        a = m._input(np.zeros((1, 5)), codes, None)
        codes2 = codes.copy()
        codes2[0, 1] = 3  # absent -> present bin 2
        b = m._input(np.zeros((1, 5)), codes2, None)
        changed = np.flatnonzero(a != b)
        width = m.state_width
        assert changed.min() >= 5 + 1 * width and changed.max() < 5 + 2 * width

    def test_maxent_runs_on_expanded_features(self):
        rng = np.random.default_rng(0)
        cfg = fit_maxent(rng.normal(size=(30, 5)))
        m = models.build_model(toy_spec("maxent"), seed=0, maxent_config=cfg)
        out = m.forward(rng.normal(size=(3, 5)))
        assert out.shape == (3, 4)
        assert np.all((out.values > 0) & (out.values < 1))

    def test_maxent_requires_config(self):
        with pytest.raises(ValueError, match="MaxentConfig"):
            models.build_model(toy_spec("maxent"), seed=0)

    def test_maxent_zero_weights_give_half(self):
        rng = np.random.default_rng(0)
        cfg = fit_maxent(rng.normal(size=(30, 5)))
        m = models.build_model(toy_spec("maxent"), seed=0, maxent_config=cfg)
        for p in m.params.values():
            p.values[:] = 0.0
        assert np.allclose(m.forward(rng.normal(size=(2, 5))).values, 0.5)


class TestCISO:
    def test_prediction_shape_and_range(self):
        m = models.build_model(toy_spec("ciso"), seed=0)
        env, *_, codes, rates = toy_batch()
        out = m.forward(env, codes, rates).values
        assert out.shape == (3, 4)
        assert np.all((out > 0) & (out < 1))

    @pytest.mark.parametrize("with_states", [True, False])
    def test_forward_runs_in_the_parameters_dtype(self, with_states):
        m = models.build_model(toy_spec("ciso"), seed=0)
        env, *_, codes, rates = toy_batch()
        states = (codes, rates) if with_states else (None, None)
        expected = m.forward(env, *states).values
        for p in m.params.values():
            p.values = p.values.astype(np.float32)
        out = m.forward(env, *states).values
        assert env.dtype == rates.dtype == np.float64
        assert out.dtype == np.float32
        assert np.abs(out - expected).max() <= 1e-5

    def test_training_forward_frees_pre_softmax_scores(self, monkeypatch):
        scores = []
        softmax_rows = nm.softmax_rows

        def spy(x):
            scores.append(weakref.ref(x))
            return softmax_rows(x)

        monkeypatch.setattr(nm, "softmax_rows", spy)
        m = models.build_model(toy_spec("ciso", dropout=0.2), seed=3)
        env, targets, available, known, codes, rates = toy_batch(seed=4)
        with nm.Tape() as tape:
            pred = m.forward(env, codes, rates, training=True, rng=np.random.default_rng(5))
            assert len(scores) == m.spec.transformer_layers
            assert all(ref() is None for ref in scores)
            grads = nm.backward(tape, nm.bce_masked(pred, targets, available & ~known))
        assert all(grads.get(p) is not None for p in m.params.values())

    def test_tape_keeps_two_attention_arrays_per_block(self):
        # The softmax output (its backward reads it) and its dropout (the
        # value mix reads that); the pre-softmax scores are not kept.
        spec = toy_spec("ciso", dropout=0.2)
        m = models.build_model(spec, seed=3)
        env, *_, codes, rates = toy_batch(seed=4)
        length = spec.n_species + 1
        with nm.Tape() as tape:
            m.forward(env, codes, rates, training=True, rng=np.random.default_rng(5))
            shapes = [e.out.shape for e in tape.entries]
        assert shapes.count((3, spec.heads, length, length)) == 2 * spec.transformer_layers

    def test_species_permutation_equivariance(self):
        m = models.build_model(toy_spec("ciso"), seed=1)
        env, *_, codes, rates = toy_batch(seed=2)
        base = m.forward(env, codes, rates).values
        perm = np.array([2, 0, 3, 1])
        m.tables.species.values = m.tables.species.values[perm]
        m.readout_w.values = m.readout_w.values[perm]
        m.readout_b.values = m.readout_b.values[perm]
        permuted = m.forward(env, codes[:, perm], rates[:, perm]).values
        assert np.allclose(permuted, base[:, perm], atol=1e-12)

    def test_all_unknown_ignores_state_vectors(self):
        # Conditioning locality: bin and absent vectors are never looked up.
        m = models.build_model(toy_spec("ciso"), seed=3)
        env, *_ = toy_batch(seed=4)
        base = m.forward(env).values
        rows = m.tables.state.params["state_rows"].values
        rows[1:] = np.random.default_rng(5).normal(size=rows[1:].shape)
        assert np.array_equal(m.forward(env).values, base)

    def test_attention_rows_sum_to_one(self):
        m = models.build_model(toy_spec("ciso"), seed=6)
        env, *_, codes, rates = toy_batch(seed=7)
        tokens = nm.add(m.tables.species, m.tables.state.encode(codes, rates))
        z = nm.reshape(nm.Tensor(np.zeros((3, 8))), (3, 1, 8))
        x = nm.concat([z, tokens], axis=1)
        for blk in m.blocks:
            w = blk.attention_weights(nm.layer_norm(x, *blk.ln1)).values
            assert np.abs(w.sum(axis=-1) - 1.0).max() < 1e-6
            x = blk.forward(x, False, None)

    def test_attention_weights_match_plain_numpy(self):
        m = models.build_model(toy_spec("ciso", hidden_dim=8, heads=2), seed=6)
        blk = m.blocks[0]
        a = np.random.default_rng(7).normal(size=(3, 5, 8))
        q = (a @ blk.wq.values + blk.bq.values).reshape(3, 5, 2, 8).transpose(0, 2, 1, 3)
        k = (a @ blk.wk.values + blk.bk.values).reshape(3, 5, 2, 8).transpose(0, 2, 1, 3)
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(8)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        reference = e / e.sum(axis=-1, keepdims=True)
        assert np.abs(blk.attention_weights(nm.Tensor(a)).values - reference).max() < 1e-12

    def test_forward_and_backward_leave_caller_arrays_untouched(self):
        m = models.build_model(toy_spec("ciso", dropout=0.2), seed=12)
        env, targets, available, _, codes, rates = toy_batch(seed=13, n=4)
        env[0, 0] = 0.0  # an exact zero, the kink of every ReLU and sign test
        arrays = (env, codes, rates)
        before = [a.copy() for a in arrays]
        for a in arrays:
            a.setflags(write=False)
        with nm.Tape() as tape:
            pred = m.forward(env, codes, rates, training=True, rng=np.random.default_rng(14))
            nm.backward(tape, nm.bce_masked(pred, targets, available))
        m.predict(env, codes, rates)
        for a, b in zip(arrays, before):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_unconditioned_vs_empty_condition_identical(self):
        m = models.build_model(toy_spec("ciso"), seed=8)
        env, targets, available, _, _, _ = toy_batch(seed=9)
        none_known = np.zeros_like(available)
        codes, rates = assign_states(targets, available, none_known, 4)
        assert np.array_equal(m.forward(env).values, m.forward(env, codes, rates).values)

    @pytest.mark.parametrize("mode", ["discrete", "linear", "periodic"])
    def test_encoding_modes_run(self, mode):
        m = models.build_model(toy_spec("ciso", encoding=mode), seed=10)
        env, *_, codes, rates = toy_batch(seed=11)
        assert m.forward(env, codes, rates).shape == (3, 4)


class TestPredictBudget:
    def test_budget_batches_match_single_rows(self):
        spec = toy_spec("ciso", n_species=40, hidden_dim=64, heads=4, transformer_layers=1)
        rows = models.piece_rows(spec)
        m = models.build_model(spec, seed=12)
        env, _, _, _, codes, rates = toy_batch(seed=13, n=rows + 5, n_species=40)
        batched = m.predict(env, codes, rates)
        single = m.predict(env, codes, rates, batch_size=1)
        assert 1 < rows < env.shape[0]
        assert np.abs(batched - single).max() <= 1e-12

    def test_rows_follow_roster_width(self):
        def ciso(c, d):
            return models.ModelSpec(family="ciso", n_species=c, n_env=5, hidden_dim=d)

        # The largest per-op array of a piece fits CACHE_BYTES: the (L, 4d)
        # feed-forward activations at C = 10, the (heads, L, L) scores beyond.
        assert [models.piece_rows(ciso(c, 64)) for c in (10, 45, 100, 300)] == [93, 22, 6, 1]
        assert models.piece_rows(ciso(3951, 256)) == 1
        assert models.row_bytes(ciso(3951, 256)) > models.PREDICT_BUDGET_BYTES  # so one row in flight

    def test_batch_peak_within_the_memory_caps_estimate(self, monkeypatch):
        # tracemalloc sees numpy's allocations; BLAS's own buffers are not activations.
        spec = toy_spec("ciso", n_species=100, hidden_dim=64, heads=4, transformer_layers=3)
        m = models.build_model(spec, seed=17)
        rows = models.piece_rows(spec)
        env, _, _, _, codes, rates = toy_batch(seed=18, n=rows, n_species=100)
        monkeypatch.setenv("CISO_THREADS", "1")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            m.predict(env, codes, rates)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert 0 < peak <= models.row_bytes(spec) * rows

    def test_concurrent_predict_records_nothing_on_training_tape(self):
        m = models.build_model(toy_spec("ciso", dropout=0.1), seed=14)
        env, targets, available, known, codes, rates = toy_batch(seed=15, n=8)
        errors = []

        def infer():
            try:
                for _ in range(20):
                    m.predict(env, codes, rates)
                with nm.Tape() as own:  # tapes are per thread, so this one does not nest
                    m.forward(env, codes, rates)
                    assert len(own) > 0
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        with nm.Tape() as tape:
            pred = m.forward(env, codes, rates, training=True, rng=np.random.default_rng(16))
            entries = len(tape)
            workers = [threading.Thread(target=infer) for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
            assert len(tape) == entries
            assert errors == []
            grads = nm.backward(tape, nm.bce_masked(pred, targets, available & ~known))
        assert all(grads.get(p) is not None for p in m.params.values())


needs_blas = pytest.mark.skipif(nm.blas_threads() is None, reason="no BLAS thread setter found")


class TestParallelPredict:
    @pytest.mark.parametrize("family", ["ciso", "mlp++"])
    @pytest.mark.parametrize("batch_size", [1, 7, 50])
    @pytest.mark.parametrize("n", [0, 2, 53])
    def test_predictions_do_not_depend_on_workers(self, monkeypatch, family, batch_size, n):
        # 53 rows leave an uneven last batch and share; 2 rows are fewer than 3 workers; 0 rows run no batch.
        m = models.build_model(toy_spec(family, dropout=0.1), seed=30)
        env, _, _, _, codes, rates = toy_batch(seed=31, n=n)
        preds = []
        for workers in (1, 2, 3):
            monkeypatch.setenv("CISO_THREADS", str(workers))
            preds.append(m.predict(env, codes, rates, batch_size=batch_size))
        assert preds[0].shape == (n, m.spec.n_species)
        for pred in preds[1:]:
            assert pred.tobytes() == preds[0].tobytes()
        with nm.one_blas_thread():
            rows = [m.forward(env[i : i + 1], codes[i : i + 1], rates[i : i + 1]).values[0] for i in range(n)]
        assert np.abs(preds[0] - np.reshape(rows, preds[0].shape)).max(initial=0.0) <= 1e-12

    @pytest.mark.parametrize("family", ["ciso", "mlp"])
    @pytest.mark.parametrize("batch_size", [0, -1, -2])
    def test_batch_size_below_one_is_rejected(self, family, batch_size):
        m = models.build_model(toy_spec(family), seed=32)
        env, _, _, _, codes, rates = toy_batch(seed=33, n=5)
        with pytest.raises(ValueError, match="batch_size must be an integer >= 1"):
            m.predict(env, codes, rates, batch_size=batch_size)

    @pytest.mark.parametrize("family", ["ciso", "mlp"])
    @pytest.mark.parametrize("shape", [(5,), (1, 5, 1), (3, 4), (3, 6)])
    def test_env_not_shaped_rows_by_n_env_is_rejected(self, family, shape):
        # A 1-D env for one location used to be read as 5 locations.
        m = models.build_model(toy_spec(family), seed=32)
        with pytest.raises(ValueError, match=re.escape(f"env must have shape (N, 5), got {shape}")):
            m.predict(np.ones(shape))

    def test_batches_cover_rows_and_hold_blas_for_several_batches(self, monkeypatch):
        monkeypatch.setenv("CISO_THREADS", "3")
        before = nm.blas_threads()
        for family in ("ciso", "mlp++"):
            spec = toy_spec(family, n_species=40, hidden_dim=64, heads=4, transformer_layers=1)
            # A ciso batch's rows do not depend on W; the other families split 1024 rows across W = 3.
            rows = models.piece_rows(spec) if family == "ciso" else models.MAX_PREDICT_ROWS // 3
            m = models.build_model(spec, seed=32)
            env, _, _, _, codes, rates = toy_batch(seed=33, n=2 * rows + 5, n_species=40)
            seen = []
            forward = m.forward

            def recording_forward(env, codes=None, rates=None, **kw):
                seen.append((env.shape[0], nm.blas_threads()))
                return forward(env, codes, rates, **kw)

            monkeypatch.setattr(m, "forward", recording_forward)
            m.predict(env, codes, rates)
            assert sorted(n for n, _ in seen) == [5, rows, rows]
            assert {threads for _, threads in seen} == {None if before is None else 1}
            seen.clear()
            m.predict(env[:3], codes[:3], rates[:3])  # one batch keeps BLAS's threads
            assert seen == [(3, before)]

    def test_budget_below_workers_runs_one_batch_at_a_time(self, monkeypatch):
        # A budget of one row keeps one row in flight, not one per worker.
        monkeypatch.setattr(models, "PREDICT_BUDGET_BYTES", 1)
        m = models.build_model(toy_spec("ciso"), seed=39)
        env, _, _, _, codes, rates = toy_batch(seed=40, n=7)
        assert models.piece_rows(m.spec) > 1  # the cap, not the piece rule, makes the batches one row
        monkeypatch.setenv("CISO_THREADS", "1")
        expected = m.predict(env, codes, rates)
        lock = threading.Lock()
        in_flight, seen = 0, []
        forward = m.forward

        def counting_forward(*args, **kw):
            nonlocal in_flight
            with lock:
                in_flight += 1
                seen.append(in_flight)
            try:
                time.sleep(0.01)  # time for another worker to start a batch alongside
                return forward(*args, **kw)
            finally:
                with lock:
                    in_flight -= 1

        monkeypatch.setattr(m, "forward", counting_forward)
        monkeypatch.setenv("CISO_THREADS", "3")
        pred = m.predict(env, codes, rates)
        assert len(seen) == 7 and max(seen) == 1
        assert pred.tobytes() == expected.tobytes()

    def test_predict_records_nothing_on_the_callers_tape(self):
        m = models.build_model(toy_spec("ciso"), seed=34)
        env, _, _, _, codes, rates = toy_batch(seed=35, n=9)
        with nm.Tape() as tape:
            m.forward(env, codes, rates)
            entries = len(tape)
            m.predict(env, codes, rates, batch_size=2)
            assert len(tape) == entries
            m.forward(env, codes, rates)
            assert len(tape) == 2 * entries

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5"])
    def test_bad_thread_setting_rejected(self, monkeypatch, value):
        m = models.build_model(toy_spec("mlp"), seed=36)
        monkeypatch.setenv("CISO_THREADS", value)
        with pytest.raises(ValueError, match="CISO_THREADS"):
            m.predict(np.zeros((2, 5)))

    @needs_blas
    def test_blas_count_restored_after_concurrent_and_failing_predicts(self, monkeypatch):
        monkeypatch.setenv("CISO_THREADS", "2")
        before = nm.blas_threads()
        m = models.build_model(toy_spec("ciso"), seed=37)
        env, _, _, _, codes, rates = toy_batch(seed=38, n=40)
        expected = m.predict(env, codes, rates)
        results, errors = [], []

        def infer():
            try:
                for _ in range(5):
                    results.append(m.predict(env, codes, rates, batch_size=3))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        workers = [threading.Thread(target=infer) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        assert len(results) == 20 and all(np.abs(r - expected).max() <= 1e-12 for r in results)
        assert nm.blas_threads() == before
        with pytest.raises(ValueError, match="broadcast"):
            m.predict(env, codes[:, :2], rates, batch_size=3)
        assert nm.blas_threads() == before

    @needs_blas
    def test_one_blas_thread_holds_nest(self):
        before = nm.blas_threads()
        with nm.one_blas_thread():
            with nm.one_blas_thread():
                assert nm.blas_threads() == 1
            assert nm.blas_threads() == 1
        assert nm.blas_threads() == before


class TestGradients:
    @pytest.mark.parametrize("family", ["linear", "maxent", "mlp", "mlp++", "ciso"])
    def test_family_matches_finite_differences(self, family):
        rng = np.random.default_rng(12)
        maxent_config = fit_maxent(rng.normal(size=(25, 5))) if family == "maxent" else None
        spec = toy_spec(family, hidden_dim=6, heads=2)
        m = models.build_model(spec, seed=13, maxent_config=maxent_config)
        env, targets, available, known, codes, rates = toy_batch(seed=14, n=2)
        mask = available & ~known

        def loss():
            pred = m.forward(env, codes, rates) if spec.uses_states else m.forward(env)
            return nm.bce_masked(pred, targets, mask)

        check_gradients(loss, m.params)


class TestParameterCounts:
    def test_mlp_parameter_count_near_reference(self):
        spec = models.ModelSpec(family="mlp", n_species=3951, n_env=27, hidden_dim=256)
        count = models.build_model(spec, seed=0).param_count()
        assert abs(count - 1.1e6) / 1.1e6 < 0.05

    def test_ciso_parameter_count_near_reference(self):
        spec = models.ModelSpec(family="ciso", n_species=3951, n_env=27, hidden_dim=256, n_b=1)
        count = models.build_model(spec, seed=0).param_count()
        assert abs(count - 7.1e6) / 7.1e6 < 0.05


class TestCheckpoint:
    def make_trained(self, family="ciso", seed=0):
        from cisosdm.dataio import fit_norm

        rng = np.random.default_rng(seed)
        maxent_config = fit_maxent(rng.normal(size=(30, 5))) if family == "maxent" else None
        spec = toy_spec(family)
        model = models.build_model(spec, seed=seed, maxent_config=maxent_config)
        norm = fit_norm(rng.normal(size=(20, 5)))
        return models.TrainedModel(
            model=model,
            roster=[f"sp{i}" for i in range(4)],
            norm=norm,
            maxent_config=maxent_config,
            meta={"selection_epoch": 3},
        )

    @pytest.mark.parametrize("family", ["linear", "maxent", "mlp", "mlp++", "ciso"])
    def test_roundtrip_preserves_everything(self, tmp_path, family):
        tm = self.make_trained(family)
        path = str(tmp_path / "model.ckpt")
        models.save_checkpoint(tm, path)
        back = models.load_checkpoint(path)
        assert back.roster == tm.roster
        assert back.model.spec == tm.model.spec
        assert back.meta["selection_epoch"] == 3
        for name, p in tm.model.params.items():
            assert np.array_equal(back.model.params[name].values, p.values)
        env = np.random.default_rng(1).normal(size=(2, 5))
        if tm.model.spec.uses_states:
            codes = np.zeros((2, 4), dtype=np.int64)
            rates = np.zeros((2, 4))
            assert np.array_equal(
                back.model.forward(env, codes, rates).values, tm.model.forward(env, codes, rates).values
            )
        else:
            assert np.array_equal(back.model.forward(env).values, tm.model.forward(env).values)

    def test_save_is_deterministic(self, tmp_path):
        tm = self.make_trained()
        a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        models.save_checkpoint(tm, a)
        models.save_checkpoint(tm, b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(ValueError, match="not a checkpoint"):
            models.load_checkpoint(str(path))

    def saved(self, tmp_path):
        """A real ciso checkpoint: its path, its bytes, its parsed header and
        the array blocks that follow the header."""
        path = tmp_path / "model.ckpt"
        models.save_checkpoint(self.make_trained(), str(path))
        raw = path.read_bytes()
        start = len(models.CHECKPOINT_MAGIC) + 8
        (hlen,) = struct.unpack_from("<Q", raw, len(models.CHECKPOINT_MAGIC))
        return path, raw, json.loads(raw[start : start + hlen]), raw[start + hlen :]

    @staticmethod
    def with_header(header, arrays):
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        return models.CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob + arrays

    def assert_rejected(self, path, data, *fragments):
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            models.load_checkpoint(str(path))
        for fragment in (str(path),) + fragments:
            assert fragment in str(info.value)

    def test_truncated_array_block_rejected(self, tmp_path):
        path, raw, header, _ = self.saved(tmp_path)
        last = header["arrays"][-1]["name"]
        self.assert_rejected(path, raw[:-8], f"'{last}'", "truncated")

    def test_truncated_header_rejected(self, tmp_path):
        path, raw, _, _ = self.saved(tmp_path)
        self.assert_rejected(path, raw[: len(models.CHECKPOINT_MAGIC) + 20], "header")

    def test_trailing_bytes_rejected(self, tmp_path):
        path, raw, header, _ = self.saved(tmp_path)
        last = header["arrays"][-1]["name"]
        self.assert_rejected(path, raw + b"\x00" * 8, "8 trailing bytes", f"'{last}'")

    def test_unknown_array_name_rejected(self, tmp_path):
        path, _, header, arrays = self.saved(tmp_path)
        header["arrays"][0]["name"] = "no.such.array"
        self.assert_rejected(path, self.with_header(header, arrays), "'no.such.array'", "not a parameter")

    def test_shape_mismatch_rejected(self, tmp_path):
        path, _, header, arrays = self.saved(tmp_path)
        entry = next(e for e in header["arrays"] if len(e["shape"]) == 2)
        entry["shape"] = entry["shape"][::-1]
        assert entry["shape"][0] != entry["shape"][1]
        self.assert_rejected(path, self.with_header(header, arrays), f"'{entry['name']}'", "shape")

    @pytest.mark.parametrize(
        "rewrite, fragments",
        [
            (lambda h: json.dumps([h]), ["a JSON object with keys"]),
            (lambda h: json.dumps({k: v for k, v in h.items() if k != "roster"}), ["a JSON object with keys"]),
            (lambda h: json.dumps({**h, "spec": {**h["spec"], "depth": 3}}), ["header 'spec'", "'depth'"]),
            (lambda h: json.dumps({**h, "spec": {**h["spec"], "encoding": "bogus"}}), ["header 'spec'", "'bogus'"]),
            (lambda h: json.dumps(h)[:-1] + ', "roster": ["x"]}', ["repeats keys ['roster']"]),
            # norm, maxent and each arrays entry are checked as declared objects.
            (lambda h: json.dumps({**h, "norm": {k: v for k, v in h["norm"].items() if k != "mean"}}),
             ["header 'norm'", "'mean'"]),
            (lambda h: json.dumps({**h, "norm": {**h["norm"], "mean": "abc"}}), ["header 'norm'", "'mean'", "'abc'"]),
            (lambda h: json.dumps({**h, "norm": {**h["norm"], "std": h["norm"]["std"][1:]}}),
             ["header 'norm'", "'std'"]),
            (lambda h: json.dumps({**h, "norm": {**h["norm"], "kept": h["norm"]["kept"][1:]}}),
             ["header 'norm'", "n_env"]),
            (lambda h: json.dumps({**h, "maxent": {"lo": [0.0]}}), ["header 'maxent'", "'hi'"]),
            (lambda h: json.dumps({**h, "maxent": {"lo": [0.0], "hi": [1.0], "kept": [1], "n_hinge_knots": 10,
                                                   "n_thresholds": 10}}), ["header 'maxent'", "'kept'"]),
            (lambda h: json.dumps({**h, "arrays": [list(e.values()) for e in h["arrays"]]}),
             ["header 'arrays'", "'name'", "'shape'"]),
            (lambda h: json.dumps({**h, "arrays": [{"name": e["name"]} for e in h["arrays"]]}),
             ["header 'arrays'", "'shape'"]),
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, rewrite, fragments):
        path, _, header, arrays = self.saved(tmp_path)
        blob = rewrite(header).encode("utf-8")
        self.assert_rejected(path, models.CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob + arrays, *fragments)

    def test_missing_array_rejected(self, tmp_path):
        path, _, header, arrays = self.saved(tmp_path)
        dropped = header["arrays"].pop()
        nbytes = 8 * int(np.prod(dropped["shape"]))
        self.assert_rejected(path, self.with_header(header, arrays[:-nbytes]), f"'{dropped['name']}'", "missing")


@settings(max_examples=20, deadline=None)
@given(
    family=st.sampled_from(models.FAMILIES),
    seed=st.integers(0, 2**16),
    n_species=st.integers(1, 5),
    n_env=st.integers(1, 4),
    encoding=st.sampled_from(("discrete", "linear", "periodic")),
    n_b=st.integers(1, 4),
)
def test_checkpoint_roundtrip_property(family, seed, n_species, n_env, encoding, n_b):
    """Any family and shape: the loaded model predicts identically and saves
    back to the same bytes."""
    from cisosdm.dataio import fit_norm

    rng = np.random.default_rng(seed)
    maxent_config = fit_maxent(rng.normal(size=(30, n_env))) if family == "maxent" else None
    spec = toy_spec(family, n_species=n_species, n_env=n_env, encoding=encoding, n_b=n_b)
    tm = models.TrainedModel(
        model=models.build_model(spec, seed=seed, maxent_config=maxent_config),
        roster=[f"sp{i}" for i in range(n_species)],
        norm=fit_norm(rng.normal(size=(20, n_env))),
        maxent_config=maxent_config,
        meta={"seed": seed},
    )
    env = rng.normal(size=(3, n_env))
    codes = rates = None
    if spec.uses_states:
        targets, available, known = (rng.uniform(size=(3, n_species)) for _ in range(3))
        codes, rates = assign_states(targets * (targets > 0.4), available < 0.8, known < 0.5, n_b)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.ckpt"), os.path.join(tmp, "b.ckpt")
        models.save_checkpoint(tm, first)
        back = models.load_checkpoint(first)
        models.save_checkpoint(back, second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()
    assert back.roster == tm.roster and back.model.spec == spec
    assert np.array_equal(back.model.predict(env, codes, rates), tm.model.predict(env, codes, rates))
