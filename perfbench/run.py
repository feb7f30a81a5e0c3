"""Benchmark for the cisosdm toolkit: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload ciso-pipeline --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the job is timed with only a few top-level
probes installed and the last line of output is a JSON object carrying the
end-to-end metrics listed in BENCHMARK.json. With ``--trace 1`` the first
half of the time runs untraced, then every public function of the package
is wrapped and the JSON carries the per-layer metrics instead. Each run
writes its full result, with the environment, to ``perfbench/_work/results``
and, when traced, its spans to ``perfbench/_work/spans``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import uuid

from bench_trace import OP_KINDS, PROBES, Tracer, aggregate, ancestors_named

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

SETUP_REPS = 5
E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "train_examples_per_s": "examples/s", "eval_rows_per_s": "rows/s",
    "load_rows_per_s": "rows/s", "join_queries_per_s": "queries/s", "peak_rss_mb": "MB",
}
MB = 1024.0 * 1024.0


def load_spec() -> tuple[dict, dict]:
    """End-to-end and per-layer metric names and units, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def import_package() -> None:
    """Import cisosdm from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "cisosdm", "__init__.py")):
        sys.exit(f"error: no package at {os.path.relpath(SRC)}/cisosdm; run from the root of a source checkout")
    sys.path.insert(0, SRC)
    import cisosdm.cli  # noqa: F401  (loads every module the tracer wraps)

    if not os.path.abspath(sys.modules["cisosdm"].__file__).startswith(SRC + os.sep):
        sys.exit("error: imported cisosdm from outside this checkout")


def environment() -> dict:
    """What the numbers depend on, read after the first BLAS call."""
    import numpy as np
    import scipy

    np.ones((256, 256)) @ np.ones((256, 256))
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cisosdm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "process_threads_after_blas": threads,
        **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CISO_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def check_apart(workload, inputs, outcome) -> tuple[dict[str, str], dict]:
    """Run the workload's checks in a forked child, so that the memory they
    use stays out of this process's peak RSS. Returns the failures and the
    values the checks kept for the result file."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            try:
                workload.notes = {}
                result = (workload.check(inputs, outcome), workload.notes)
            except Exception as exc:
                result = ({"checks": f"{type(exc).__name__}: {exc}"}, {})
            with os.fdopen(write, "wb") as fh:
                pickle.dump(result, fh)
            code = 0
        finally:
            os._exit(code)  # the child never returns into the benchmark
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return {"checks": f"check process ended with status {status}"}, {}
    return pickle.loads(data)


class Run:
    """One benchmark run of one workload in this process."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer(uuid.uuid4().hex[:16])
        self.workdir = os.path.join(WORK, f"{workload.name}-{os.getpid()}-{self.tracer.trace_id[:8]}")
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_times: list[float] = []
        self.notes: list[dict] = []

    def setup(self):
        """One set-up: a fresh interpreter importing the package, then the
        workload's input generation in this process."""
        start = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms, which would show in setup_s.
        subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); import cisosdm.cli"],
                       check=True)
        inputs = self.workload.setup(self.seed, self.workdir)
        self.setup_times.append(time.perf_counter() - start)
        return inputs

    def iterate_until(self, inputs, deadline: float) -> list[int]:
        """Closed loop: run the job (at least once) while another run of it
        is expected to end before the deadline."""
        from bench_workloads import Ops

        roots = []
        while True:
            began = time.perf_counter()
            ops = Ops()
            roots.append(len(self.tracer.spans))
            with self.tracer.span("iteration"):
                outcome = self.workload.iterate(inputs, self.tracer, ops)
            failed = {op: err for op, err in ops.errors.items() if err}
            with self.tracer.paused():
                check_failed, notes = check_apart(self.workload, inputs, outcome)
            del outcome  # so that the next iteration's peak memory does not include this one's outputs
            failed.update(check_failed)
            self.notes.append(notes)
            self.attempted += len(ops.errors)
            self.failures += [f"iteration {len(roots)}: {op}: {msg}" for op, msg in sorted(failed.items())]
            now = time.perf_counter()
            if now + (now - began) > deadline:
                return roots

    def execute(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        try:
            for _ in range(1 if self.trace else SETUP_REPS):
                inputs = self.setup()
            self.env = environment()
            start = time.perf_counter()
            self.tracer.install(PROBES)
            try:
                untraced = self.iterate_until(inputs, start + self.seconds * (0.5 if self.trace else 1.0))
            finally:
                self.tracer.uninstall()
            traced, setup_root = [], None
            if self.trace:
                self.tracer.install()
                try:
                    setup_root = len(self.tracer.spans)
                    with self.tracer.span("setup"):
                        inputs = self.workload.setup(self.seed, self.workdir)
                    traced = self.iterate_until(inputs, start + self.seconds)
                finally:
                    self.tracer.uninstall()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.untraced, self.traced, self.setup_root = untraced, traced, setup_root

    # -- end-to-end -------------------------------------------------------

    def end_to_end(self, roots: list[int]) -> dict[str, float]:
        """End-to-end metrics over the iterations `roots`: the median wall time,
        and each rate as the work done over all of them ÷ the time it took."""
        spans = self.tracer.spans
        st, _ = aggregate(spans, roots)
        ex = st.extras
        eval_time = st.total.get("cli.eval", st.total.get("training.evaluate", 0.0))
        join_time = st.total.get("colocate.colocate", 0.0) + st.total.get("colocate.attach", 0.0)
        return {
            "wall_s": _median(spans[root][2] - spans[root][1] for root in roots),
            "train_examples_per_s": _ratio(ex.get("training.train", {}).get("examples", 0),
                                           st.total.get("training.train", 0.0)),
            "eval_rows_per_s": _ratio(ex.get("training.evaluate", {}).get("rows", 0), eval_time),
            "load_rows_per_s": _ratio(ex.get("dataio.load_dataset", {}).get("rows", 0),
                                      st.total.get("dataio.load_dataset", 0.0)),
            "join_queries_per_s": _ratio(ex.get("colocate.colocate", {}).get("queries", 0), join_time),
        }

    # -- per layer --------------------------------------------------------

    def per_layer(self) -> dict[str, float]:
        spans = self.tracer.spans
        n = max(1, len(self.traced))
        it, root_of = aggregate(spans, self.traced)
        su, _ = aggregate(spans, [self.setup_root])

        def calls(name):
            return su.calls.get(name, 0) + it.calls.get(name, 0) / n

        def self_s(name):
            return su.self_time.get(name, 0.0) + it.self_time.get(name, 0.0) / n

        def total_s(name):
            return su.total.get(name, 0.0) + it.total.get(name, 0.0) / n

        def extra(name, key):
            return su.extras.get(name, {}).get(key, 0) + it.extras.get(name, {}).get(key, 0) / n

        val_predict = selection = forward_train = 0.0
        unique: dict[int, set] = {}
        for i, (name, start, end, _, ext) in enumerate(spans):
            if i not in root_of:
                continue
            if name == "models.forward" and ext["training"]:
                forward_train += end - start
            elif name == "models.predict" and ancestors_named(spans, i, "training.train"):
                val_predict += end - start
            elif name in ("metrics.macro_auc", "metrics.topk_adaptive") and ancestors_named(spans, i, "training.train"):
                selection += end - start
            elif name == "features.expand":
                rows = unique.setdefault(root_of[i], set())
                rows.update(row.tobytes() for row in ext["env"])

        steps = calls("numerics.adamw")
        backward_calls = calls("numerics.backward")
        untraced = self.end_to_end(self.untraced)
        m = {
            **{f"cli.{c}_s": self_s(f"cli.{c}") for c in ("synth", "train", "eval", "delta", "map")},
            **{f"cli.{c}_total_s": total_s(f"cli.{c}") for c in ("synth", "train", "eval", "delta", "map")},
            "synth.generate_s": self_s("synth.generate"),
            "synth.oracle_report_s": self_s("synth.oracle_report"),
            "dataio.load_dataset_s": self_s("dataio.load_dataset"),
            "dataio.load_rows": extra("dataio.load_dataset", "rows"),
            "dataio.save_dataset_s": self_s("dataio.save_dataset"),
            "dataio.bytes_written": extra("dataio.save_dataset", "bytes"),
            "dataio.assign_split_s": self_s("dataio.assign_split"),
            "dataio.norm_s": self_s("dataio.norm"),
            "load_rows_per_s": untraced["load_rows_per_s"],
            "colocate.colocate_s": self_s("colocate.colocate"),
            "colocate.build_index_s": self_s("colocate.build_index"),
            "colocate.query_s": self_s("colocate.query"),
            "colocate.queries": calls("colocate.query"),
            "colocate.pairs": extra("colocate.colocate", "pairs"),
            "colocate.hit_ratio": _ratio(extra("colocate.colocate", "pairs"), calls("colocate.query")),
            "colocate.attach_s": self_s("colocate.attach"),
            "join_queries_per_s": untraced["join_queries_per_s"],
            "features.fit_maxent_s": self_s("features.fit_maxent"),
            "features.expand_calls": calls("features.expand"),
            "features.expand_rows": extra("features.expand", "rows"),
            "features.expand_s": self_s("features.expand"),
            "features.expand_rows_per_unique_row": _ratio(
                it.extras.get("features.expand", {}).get("rows", 0), sum(len(s) for s in unique.values())),
            "encoding.assign_states_s": self_s("encoding.assign_states"),
            "encoding.assign_states_calls": calls("encoding.assign_states"),
            "encoding.state_encode_s": self_s("encoding.state_encode"),
            "training.steps": steps,
            "training.examples": extra("training.train", "examples"),
            "training.train_s": self_s("training.train"),
            "training.train_total_s": total_s("training.train"),
            "training.sample_known_calls": calls("training.sample_known"),
            "training.sample_known_s": self_s("training.sample_known"),
            "training.val_predict_s": val_predict / n,
            "training.selection_metric_s": selection / n,
            "training.evaluate_s": self_s("training.evaluate"),
            "training.evaluate_total_s": total_s("training.evaluate"),
            "models.build_model_s": self_s("models.build_model"),
            "models.forward_ms_per_step": 1000.0 * _ratio(forward_train / n, steps),
            "models.block_forward_s": self_s("models.block_forward"),
            "models.block_forward_total_s": total_s("models.block_forward"),
            "models.block_forward_calls": calls("models.block_forward"),
            "models.predict_s": self_s("models.predict"),
            "models.predict_total_s": total_s("models.predict"),
            "models.predict_rows": extra("models.predict", "rows"),
            "models.predict_batches": extra("models.predict", "batches"),
            "models.predict_max_batch_rows": max(
                [s[4]["max_batch_rows"] for i, s in enumerate(spans) if s[0] == "models.predict" and i in root_of],
                default=0),
            "models.checkpoint_save_s": self_s("models.checkpoint_save"),
            "models.checkpoint_load_s": self_s("models.checkpoint_load"),
            "numerics.backward_ms_per_step": 1000.0 * _ratio(total_s("numerics.backward"), backward_calls),
            "numerics.adamw_ms_per_step": 1000.0 * _ratio(total_s("numerics.adamw"), steps),
            "numerics.tape_entries_per_step": _ratio(extra("numerics.backward", "entries"), backward_calls),
            "numerics.tape_mb_per_step": _ratio(extra("numerics.backward", "bytes"), backward_calls) / MB,
            "numerics.op.matmul.gflop": extra("numerics.op.matmul", "flops") / 1e9,
            **{f"numerics.op.{k}.calls": calls(f"numerics.op.{k}") for k in OP_KINDS},
            **{f"numerics.op.{k}.fwd_s": self_s(f"numerics.op.{k}") for k in OP_KINDS},
            "metrics.macro_auc_s": self_s("metrics.macro_auc"),
            "metrics.macro_auc_calls": calls("metrics.macro_auc"),
            "metrics.topk_adaptive_s": self_s("metrics.topk_adaptive"),
            "metrics.topn_fixed_s": self_s("metrics.topn_fixed"),
            "metrics.evaluate_matrix_s": self_s("metrics.evaluate_matrix"),
            "trace.overhead_s": self.end_to_end(self.traced)["wall_s"] - untraced["wall_s"],
            "trace.spans_per_iteration": (len(root_of) - len(self.traced)) / n,
        }
        required = list(self.workload.required)
        if self.workload.all_op_kinds:
            required += [f"numerics.op.{k}" for k in OP_KINDS]
        silent = [name for name in required if calls(name) == 0]
        self.attempted += 1
        if silent:
            self.failures.append(f"trace coverage: no calls recorded for {', '.join(silent)}")
        return m


def run(workload_name: str, seed: int, seconds: float, trace: bool, size=None) -> dict:
    """Run one workload; returns the full result (metrics, env, failures)."""
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[workload_name](size)
    r = Run(workload, seed, seconds, trace)
    r.execute()
    result = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "trace_id": r.tracer.trace_id, "env": r.env,
        "iterations": {"untraced": len(r.untraced), "traced": len(r.traced)},
        "per_iteration": [r.end_to_end([root]) for root in r.untraced],
        "failures": r.failures,
        "check_notes": r.notes,
    }
    values = {"setup_s": _median(r.setup_times), **r.end_to_end(r.untraced), "peak_rss_mb": r.peak_rss_mb}
    e2e = {k: (values[k], unit) for k, unit in E2E_UNITS.items()}
    end_to_end, per_layer = load_spec()
    if trace:
        layer = r.per_layer()
        reported = {k: {"value": layer[k], "unit": u} for k, u in per_layer.items()}
    else:
        reported = {k: {"value": e2e[k][0], "unit": u} for k, u in end_to_end.items()}
    result["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    result["attempted"] = r.attempted
    result["failed"] = len(r.failures)
    result["metrics"] = reported
    if trace:
        os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
        r.tracer.write(os.path.join(WORK, "spans", f"{workload_name}-seed{seed}-{r.tracer.trace_id}.jsonl.gz"))
    return result


def report_lines(result: dict) -> list[str]:
    env = " ".join(f"{k}={v}" for k, v in result["env"].items())
    lines = [
        f"# workload={result['workload']} seed={result['seed']} seconds={result['seconds']} "
        f"trace={result['trace']} trace_id={result['trace_id']} iterations={result['iterations']}",
        f"# env {env}",
    ]
    if not result["trace"]:
        for name, m in result["end_to_end"].items():
            if m["value"]:
                lines.append(f"# {name} = {m['value']:.6g} {m['unit']}")
    else:
        for name, m in result["metrics"].items():
            lines.append(f"# {name} = {m['value']:.6g} {m['unit']}")
    ratio = _ratio(result["failed"], result["attempted"])
    lines.append(f"# failed_ratio = {ratio:.6g} 1 ({result['failed']} of {result['attempted']} operations failed)")
    lines += [f"# FAILED {f}" for f in result["failures"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["ciso-pipeline", "ciso-wide-roster", "survey-join"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{result['trace_id']}.json"
    with open(os.path.join(WORK, "results", name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    for line in report_lines(result):
        print(line)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
