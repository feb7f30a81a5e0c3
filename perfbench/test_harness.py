"""Smoke test of the benchmark harness at tiny sizes.

    python -m pytest perfbench/test_harness.py -q

Checks that every metric named in BENCHMARK.json is reported with its unit,
with and without tracing, that the traced run covers its layers, and that an
output failing a correctness check shows up in ``failed`` and failed_ratio.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bench_workloads as bw  # noqa: E402
import run  # noqa: E402

TINY = {
    "ciso-pipeline": bw.PipelineSize(n_locations=800, epochs=3, hidden_dim=16),
    "ciso-wide-roster": bw.WideRosterSize(n_species=20, n_train=64, n_val=16, n_test=64, hidden_dim=16, checked_rows=8),
    "survey-join": bw.SurveySize(n_locations=600, n_species=12, n_env=5, checked_rows=64),
}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_reported_with_its_unit(workload, trace):
    result = run.run(workload, seed=0, seconds=0.01, trace=bool(trace), size=TINY[workload])
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    lines = run.report_lines(result)
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float))
        if not trace:
            assert value > 0, name
            assert any(line.startswith(f"# {name} = ") and line.endswith(f" {unit}") for line in lines), name
    assert any(line.startswith("# failed_ratio = 0 1 ") for line in lines)


def test_failed_check_raises_failed_ratio(monkeypatch):
    # Skew every AUC a little: the job still runs, only the rankdata check sees it.
    from cisosdm import metrics

    auc = metrics.auc
    monkeypatch.setattr(metrics, "auc", lambda s, y: None if (v := auc(s, y)) is None else v * 0.999)
    result = run.run("survey-join", seed=0, seconds=0.01, trace=False, size=TINY["survey-join"])
    assert any("eval_maxent" in f for f in result["failures"]), result["failures"]
    assert result["failed"] >= 1
    ratio = [line for line in run.report_lines(result) if line.startswith("# failed_ratio = ")]
    assert ratio and not ratio[0].startswith("# failed_ratio = 0 ")


def test_raising_operation_counts_as_failed(monkeypatch):
    from cisosdm import training

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(training, "evaluate", broken)
    result = run.run("ciso-wide-roster", seed=0, seconds=0.01, trace=False, size=TINY["ciso-wide-roster"])
    assert result["failed"] == 2 and result["attempted"] == 3, result["failures"]


def test_wrong_batched_predictions_fail_the_check(monkeypatch):
    # Rows shifted by one only in calls of more than 8 rows: finite, in [0, 1], and wrong.
    from cisosdm import models

    predict = models.Model.predict

    def shifted(self, env, *args, **kwargs):
        out = predict(self, env, *args, **kwargs)
        return np.roll(out, 1, axis=0) if env.shape[0] > 8 else out

    monkeypatch.setattr(models.Model, "predict", shifted)
    result = run.run("ciso-wide-roster", seed=0, seconds=0.01, trace=False, size=TINY["ciso-wide-roster"])
    failed_ops = {f.split(": ")[1] for f in result["failures"]}
    assert failed_ops == {"evaluate.uncond", "evaluate.cond"}, result["failures"]
