"""Span recording for the benchmark, installed from outside the package.

A :class:`Tracer` replaces a public function or method of ``cisosdm`` with a
wrapper that records a span (name, start, end, parent) around each call. A
function imported by name into another module (``training`` imports
``assign_states``, ``models`` imports ``expand``, ...) is replaced in every
module namespace that holds it, so the wrapper runs wherever the caller looks
the name up. Spans stay in memory; :func:`aggregate` turns them into per-name
call counts, inclusive times and self times (a span's duration minus the part
its child spans cover).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import os
import sys
from contextlib import contextmanager
from time import perf_counter

OP_KINDS = (
    "matmul", "add", "mul", "layer_norm", "softmax_rows", "dropout", "gelu", "relu",
    "transpose", "reshape", "concat", "gather_rows", "slice_axis", "sum_axis", "sigmoid", "bce_masked",
)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


# Hooks that attach counts to a span. `post(args, kwargs, result)` runs after
# the span is closed; `pre(args, kwargs)` runs before it opens, for state the
# call destroys (the tape that `backward` clears).

def _train_examples(args, kwargs, result):
    ds, config = _arg(args, kwargs, 0, "ds"), _arg(args, kwargs, 2, "config")
    return {"examples": int(ds.split_indices("train").size) * int(config.epochs)}


def _evaluate_rows(args, kwargs, result):
    ds, protocol = _arg(args, kwargs, 1, "ds"), _arg(args, kwargs, 2, "protocol")
    rows = ds.n_records if ds.split is None else int(ds.split_indices(protocol.split).size)
    return {"rows": rows}


def _loaded_rows(args, kwargs, result):
    return {"rows": result.n_records}


def _saved_bytes(args, kwargs, result):
    paths = [_arg(args, kwargs, 1, "path"), _arg(args, kwargs, 2, "config_path")]
    return {"bytes": sum(os.path.getsize(p) for p in paths if p)}


def _join_counts(args, kwargs, result):
    return {"queries": _arg(args, kwargs, 0, "a").n_records, "pairs": len(result)}


def _matmul_flops(args, kwargs, result):
    a = _arg(args, kwargs, 0, "a")
    k = (a.values if hasattr(a, "values") else a).shape[-1]
    return {"flops": 2 * result.values.size * k}


def _forward_mode(args, kwargs):
    env = _arg(args, kwargs, 1, "env")
    return {"training": bool(_arg(args, kwargs, 4, "training", False)), "rows": len(env)}


def _tape_size(args, kwargs):
    tape = _arg(args, kwargs, 0, "tape")
    return {"entries": len(tape.entries), "bytes": sum(e.out.values.nbytes for e in tape.entries)}


def _expand_rows(args, kwargs, result):
    return {"rows": result.shape[0], "env": _arg(args, kwargs, 0, "env")}


def _predict_batches(args, kwargs, result):
    rows = len(_arg(args, kwargs, 1, "env"))
    default = inspect.signature(type(args[0]).predict).parameters["batch_size"].default
    size = int(_arg(args, kwargs, 4, "batch_size", default))
    return {"rows": rows, "batches": math.ceil(rows / size), "max_batch_rows": min(size, rows)}


# (span name, module, attribute or Class.method, pre hook, post hook)
TARGETS = [
    ("synth.generate", "synth", "generate", None, None),
    ("synth.oracle_report", "synth", "oracle_report", None, None),
    ("dataio.load_dataset", "dataio", "load_dataset", None, _loaded_rows),
    ("dataio.save_dataset", "dataio", "save_dataset", None, _saved_bytes),
    ("dataio.assign_split", "dataio", "assign_split", None, None),
    ("dataio.norm", "dataio", "fit_norm", None, None),
    ("dataio.norm", "dataio", "apply_norm", None, None),
    ("colocate.colocate", "colocate", "colocate", None, _join_counts),
    ("colocate.build_index", "colocate", "build_index", None, None),
    ("colocate.query", "colocate", "BallTreeIndex.nearest_within", None, None),
    ("colocate.attach", "colocate", "attach", None, None),
    ("features.fit_maxent", "features", "fit_maxent", None, None),
    ("features.expand", "features", "expand", None, _expand_rows),
    ("encoding.assign_states", "encoding", "assign_states", None, None),
    ("encoding.state_encode", "encoding", "StateEmbeddingTable.encode", None, None),
    ("training.train", "training", "train", None, _train_examples),
    ("training.sample_known", "training", "sample_known", None, None),
    ("training.evaluate", "training", "evaluate", None, _evaluate_rows),
    ("models.build_model", "models", "build_model", None, None),
    ("models.forward", "models", "LinearModel.forward", _forward_mode, None),
    ("models.forward", "models", "MaxentModel.forward", _forward_mode, None),
    ("models.forward", "models", "MLPModel.forward", _forward_mode, None),
    ("models.forward", "models", "CISOModel.forward", _forward_mode, None),
    ("models.block_forward", "models", "TransformerBlock.forward", None, None),
    ("models.predict", "models", "Model.predict", None, _predict_batches),
    ("models.checkpoint_save", "models", "save_checkpoint", None, None),
    ("models.checkpoint_load", "models", "load_checkpoint", None, None),
    ("numerics.backward", "numerics", "backward", _tape_size, None),
    ("numerics.adamw", "numerics", "AdamW.step", None, None),
    *[(f"numerics.op.{k}", "numerics", k, None, _matmul_flops if k == "matmul" else None) for k in OP_KINDS],
    ("metrics.macro_auc", "metrics", "macro_auc", None, None),
    ("metrics.topk_adaptive", "metrics", "topk_adaptive", None, None),
    ("metrics.topn_fixed", "metrics", "topn_fixed", None, None),
    ("metrics.evaluate_matrix", "metrics", "evaluate_matrix", None, None),
]

# The few top-level calls that the end-to-end metrics need; these stay
# installed with tracing off, where they add a handful of spans per run.
PROBES = ("training.train", "training.evaluate", "dataio.load_dataset", "colocate.colocate", "colocate.attach")


class Tracer:
    """In-memory span recorder; one per benchmark run, single-threaded.

    Each span is a list ``[name, start, end, parent_index, extra]``. While
    ``active`` is false, installed wrappers call straight through, so checks
    that run between timed iterations leave no spans.
    """

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []
        self.active = True
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, extra=None) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, extra]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, fn, name: str, pre, post):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            extra = pre(args, kwargs) if pre else None
            rec = self._open(name, extra)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if post:
                rec[4] = {**(extra or {}), **post(args, kwargs, result)}
            return result

        return wrapper

    def install(self, names=None) -> None:
        """Wrap every target whose span name is in `names` (all when None)."""
        for name, module, attr, pre, post in TARGETS:
            if names is not None and name not in names:
                continue
            mod = sys.modules[f"cisosdm.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                self._patch(owner, meth, self._wrap(owner.__dict__[meth], name, pre, post))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, name, pre, post)
            for site in [m for k, m in sys.modules.items() if k == "cisosdm" or k.startswith("cisosdm.")]:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._patch(site, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Dump the spans as gzipped JSON lines sharing this run's trace id."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(json.dumps({"trace": self.trace_id, "id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


class Stats:
    """Per-name totals over a set of root spans."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.extras: dict[str, dict[str, float]] = {}

    def add(self, name: str, dur: float, own: float, extra) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + own
        if extra:
            bucket = self.extras.setdefault(name, {})
            for key, value in extra.items():
                if isinstance(value, (int, float)):
                    bucket[key] = bucket.get(key, 0) + value


def aggregate(spans: list[list], roots: list[int]) -> tuple[Stats, dict[int, int]]:
    """Stats over the descendants of `roots` (roots excluded).

    Returns the stats and a map from span index to its root's index. Spans
    under the same root form one trace tree: a timed iteration or a set-up.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    root_of: dict[int, int] = {r: r for r in roots}
    stats = Stats()
    for i, (name, start, end, parent, extra) in enumerate(spans):
        if parent < 0 or parent not in root_of:
            continue
        root_of[i] = root_of[parent]
        dur = end - start
        stats.add(name, dur, dur - child_time[i], extra)
    return stats, root_of


def ancestors_named(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
