"""Minimal float64/float32 tensor library with a reverse-mode tape, AdamW, and masked BCE.

Tensors wrap float64 or float32 numpy arrays, which may be views: a `Tensor`
built from such an array shares its memory, and `reshape`, `transpose` and
`slice_axis` return views of their input where numpy can, so a head split or
a `k` transpose copies nothing. Ownership rule: a kernel writes only into
arrays it allocated itself, never into an input's ``.values`` nor into the
gradient ``g`` its backward rule receives; both may be shared with other
tensors, with other tape entries, or with the caller's arrays.

Lifetime rule: the tape holds backward rules and graph links, not op
outputs. Each rule captures only the arrays it reads, so an output lives
while the caller or a backward rule holds it; pre-softmax scores, for
example, are freed as soon as the softmax returns. `backward` drops the
whole graph when it is done, also for outputs the caller still holds.

The module-level functions are the surface: `Tensor` defines no arithmetic
operators. Gradient recording happens on an explicitly scoped :class:`Tape`;
outside a tape every op is a plain numpy computation, which is how inference
runs; gradients live only in the maps `backward` returns and `AdamW.step`
consumes.

Dtype rule: every op computes in its operands' dtype, so a graph built from
float32 tensors runs in float32 and one built from float64 tensors in
float64, bit for bit as a float64-only library would. A number operand of
`add` or `mul` and every buffer a kernel allocates take the dtype of the
tensor they serve. The one exception is `bce_masked`, which computes its
loss in float64 (float32 cannot hold 1 - CLAMP_EPS) and returns its gradient
in the prediction's dtype. Inference and the finite-difference checks run in
float64. A CISO model holds float32 parameters while it trains, so its steps
and its validation predictions run in float32; `AdamW` keeps the float64
master weights and moments, and writes each parameter from its master.

The module also reads and holds the BLAS thread count (`blas_threads`,
`one_blas_thread`), which is process-wide, and runs the package's one
thread fan-out (`run_split`) on the thread count it decides (`workers`),
which `Model.predict` and the training step share.
"""

from __future__ import annotations

import ctypes
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from functools import cache
from typing import Callable, Sequence

import numpy as np

from . import ciso_threads

DTYPE = np.float64

# Clamp for sigmoid outputs and BCE inputs; prevents infinities without visible bias.
CLAMP_EPS = 1e-12
# Added to the variance before layer norm's inverse square root.
LAYER_NORM_EPS = 1e-5

# A Python float, so that it takes the dtype of the array it scales.
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


class Tensor:
    """Dense float32 or float64 array: float32 values stay float32, anything
    else becomes float64. `node` is the tape entry that produced it, or None
    for a leaf or a constant. Its gradient lives in :func:`backward`'s map."""

    __slots__ = ("values", "requires_grad", "name", "node", "__weakref__")

    def __init__(self, values, requires_grad: bool = False, name: str | None = None):
        values = np.asarray(values)
        self.values = values if values.dtype == np.float32 else values.astype(DTYPE, copy=False)
        self.requires_grad = bool(requires_grad)
        self.name = name
        self.node: _Entry | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values.item())

    def __repr__(self) -> str:
        tag = f" '{self.name}'" if self.name else ""
        return f"<Tensor{tag} shape={self.shape} requires_grad={self.requires_grad}>"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """`a` and `b` as tensors; a number (anything 0-d that is not a Tensor)
    takes the dtype of the other operand when that one is a Tensor."""
    if isinstance(b, Tensor) and not isinstance(a, Tensor) and np.ndim(a) == 0:
        a = Tensor(np.asarray(a, dtype=b.values.dtype))
    if isinstance(a, Tensor) and not isinstance(b, Tensor) and np.ndim(b) == 0:
        b = Tensor(np.asarray(b, dtype=a.values.dtype))
    return as_tensor(a), as_tensor(b)


class _Entry:
    """One recorded op. `inputs` holds, per input, the entry that produced it,
    the leaf tensor that receives its gradient, or None for a constant;
    `grad` is the upstream gradient pending for the op's output."""

    __slots__ = ("_out", "inputs", "backward", "grad")

    def __init__(self, out: Tensor, inputs: tuple[Tensor, ...], backward):
        self._out = weakref.ref(out)
        # A tensor whose entry `backward` has released counts as a leaf.
        self.inputs = tuple(
            t.node if t.node is not None and t.node.backward is not None else (t if t.requires_grad else None)
            for t in inputs
        )
        self.backward = backward
        self.grad: np.ndarray | None = None

    @property
    def out(self) -> Tensor:
        """The op's output while something holds it, else an empty tensor."""
        out = self._out()
        return _FREED if out is None else out


_FREED = Tensor(np.empty(0))


class _ActiveTape(threading.local):
    tape: "Tape | None" = None


# One active tape per thread: inference in one thread never records onto a
# tape that another thread is training with.
_active = _ActiveTape()


class Tape:
    """Records ops in execution order; the reverse of that order is the
    backward schedule. One tape per training step or micro-batch; a tape
    records only the ops of the thread that entered it. `backward` gathers
    the leaf gradients in the tape's own `grads` map, keyed by leaf tensor,
    so tapes that share parameters can run backward on different threads."""

    def __init__(self):
        self.entries: list[_Entry] = []
        self.grads: dict[Tensor, np.ndarray] = {}

    def __enter__(self) -> "Tape":
        if _active.tape is not None:
            raise RuntimeError("a Tape is already active; tapes do not nest")
        _active.tape = self
        return self

    def __exit__(self, *exc):
        _active.tape = None
        return False

    def __len__(self) -> int:
        return len(self.entries)


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward) -> Tensor:
    """Mark `out` differentiable and push a backward rule if this thread has a live tape."""
    tape = _active.tape
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.node = _Entry(out, inputs, backward)
        tape.entries.append(out.node)
    return out


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Chain-rule gradients for every requires_grad leaf reachable from
    `loss`, gathered in ``tape.grads`` (which is returned); then release the
    graph and clear the tape's entries.

    A leaf used more than once gets the sum of its gradients. Nothing outside
    the tape is written: the map is the only store of these gradients, and
    :meth:`AdamW.step` reads it.
    """
    if loss.values.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss.node is None or not any(e is loss.node for e in tape.entries):
        raise ValueError("loss tensor was not produced on this tape")

    grads = tape.grads
    loss.node.grad = np.ones_like(loss.values)
    for entry in reversed(tape.entries):
        g, entry.grad = entry.grad, None
        if g is None:
            continue
        for src, gin in zip(entry.inputs, entry.backward(g)):
            if gin is None or src is None:
                continue
            if isinstance(src, Tensor):
                held = grads.get(src)
                grads[src] = gin if held is None else held + gin
            else:
                src.grad = gin if src.grad is None else src.grad + gin
    # Outputs the caller still holds would otherwise keep the graph alive
    # through their `node`.
    for entry in tape.entries:
        entry.backward = entry.inputs = entry.grad = None
    tape.entries.clear()
    return grads


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` over axes that were broadcast so it matches `shape`."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of `a` and `b` along the last axis, keeping it as size 1;
    builds no (..., n) temporary."""
    return np.einsum("...i,...i->...", a, b)[..., None]


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product, optionally plus a bias over the last axis.

    With a 2-D weight `b` (a linear layer), all leading axes of `a` are
    flattened into one GEMM and `bias` is added in place; the backward pass
    takes the weight gradient as one GEMM too, with no per-example stack.
    Otherwise stacked (batched) operands broadcast as in numpy matmul and
    gradients reduce back over broadcast axes; `bias` needs a 2-D `b`.
    """
    a, b = as_tensor(a), as_tensor(b)
    ka = a.values.shape[-1]
    kb = b.values.shape[-2] if b.values.ndim > 1 else b.values.shape[0]
    if ka != kb:
        raise ValueError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    if b.values.ndim == 2:
        return _linear(a, b, None if bias is None else as_tensor(bias))
    if bias is not None:
        raise ValueError(f"matmul bias needs a 2-D weight, got {b.shape}")
    out = Tensor(a.values @ b.values)

    def bwd(g):
        ga = gb = None
        if a.requires_grad:
            ga = _reduce_to(g @ np.swapaxes(b.values, -1, -2), a.shape)
        if b.requires_grad:
            gb = _reduce_to(np.swapaxes(a.values, -1, -2) @ g, b.shape)
        return ga, gb

    return _record(out, (a, b), bwd)


def _linear(a: Tensor, w: Tensor, bias: Tensor | None) -> Tensor:
    """`a @ w (+ bias)` for a 2-D weight, as one 2-D GEMM over all leading axes of `a`."""
    n_out = w.shape[1]
    if bias is not None and bias.shape != (n_out,):
        raise ValueError(f"matmul bias shape {bias.shape} does not match output width {n_out}")
    a2 = a.values.reshape(-1, a.shape[-1])
    out2 = a2 @ w.values
    if bias is not None:
        out2 += bias.values
    out = Tensor(out2.reshape(a.shape[:-1] + (n_out,)))

    def bwd(g):
        g2 = g.reshape(-1, n_out)
        ga = (g2 @ w.values.T).reshape(a.shape) if a.requires_grad else None
        gw = a2.T @ g2 if w.requires_grad else None
        if bias is None:
            return ga, gw
        return ga, gw, (g2.sum(axis=0) if bias.requires_grad else None)

    return _record(out, (a, w) if bias is None else (a, w, bias), bwd)


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = Tensor(a.values + b.values)
    a_shape = a.shape if a.requires_grad else None
    b_shape = b.shape if b.requires_grad else None

    def bwd(g):
        return (
            None if a_shape is None else _reduce_to(g, a_shape),
            None if b_shape is None else _reduce_to(g, b_shape),
        )

    return _record(out, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = Tensor(a.values * b.values)

    def bwd(g):
        return (
            _reduce_to(g * b.values, a.shape) if a.requires_grad else None,
            _reduce_to(g * a.values, b.shape) if b.requires_grad else None,
        )

    return _record(out, (a, b), bwd)


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.maximum(x.values, 0.0))

    def bwd(g):
        # y > 0 exactly where x > 0 (NaN included), so the input can go.
        return (g * (out.values > 0.0),)

    return _record(out, (x,), bwd)


def gelu(x: Tensor) -> Tensor:
    """Exact GELU, x·Φ(x), with Φ the standard normal CDF."""
    # Imported here: scipy.special at module level would add ~0.2 s to every command's start-up.
    from scipy.special import ndtr

    x = as_tensor(x)
    cdf = ndtr(x.values)
    out = Tensor(x.values * cdf)

    def bwd(g):
        # Φ(x) + x·φ(x), built in one buffer.
        gx = np.square(x.values)
        gx *= -0.5
        np.exp(gx, out=gx)
        gx *= _INV_SQRT_2PI
        gx *= x.values
        gx += cdf
        gx *= g
        return (gx,)

    return _record(out, (x,), bwd)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable sigmoid, clamped into (CLAMP_EPS, 1 - CLAMP_EPS)."""
    x = as_tensor(x)
    v = x.values
    e = np.abs(v)
    np.negative(e, out=e)
    np.exp(e, out=e)
    # 1 / (1 + e) where v >= 0, e / (1 + e) elsewhere, with e = exp(-|v|).
    s = np.where(v >= 0, 1.0, e)
    e += 1.0
    s /= e
    np.clip(s, CLAMP_EPS, 1.0 - CLAMP_EPS, out=s)
    out = Tensor(s)

    def bwd(g):
        return (g * s * (1.0 - s),)

    return _record(out, (x,), bwd)


def sin(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.sin(x.values))

    def bwd(g):
        return (g * np.cos(x.values),)

    return _record(out, (x,), bwd)


def cos(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.cos(x.values))

    def bwd(g):
        return (g * -np.sin(x.values),)

    return _record(out, (x,), bwd)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis; each row sums to 1."""
    x = as_tensor(x)
    s = x.values - x.values.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    out = Tensor(s)

    def bwd(g):
        # Reads only the output, so the (..., L, L) input is not kept. It
        # holds the output tensor, not just its array, so that the tape
        # counts the array as live.
        s = out.values
        gx = g - _row_dot(g, s)
        gx *= s
        return (gx,)

    return _record(out, (x,), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout. Call only during training; inference skips it."""
    if rate <= 0.0:
        return x
    x = as_tensor(x)
    buf = rng.random(x.shape, dtype=x.values.dtype)
    keep = buf >= rate
    scale = 1.0 / (1.0 - rate)
    np.multiply(x.values, keep, out=buf)
    buf *= scale
    out = Tensor(buf)

    def bwd(g):
        gx = g * keep
        gx *= scale
        return (gx,)

    return _record(out, (x,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then scale and shift by (n,) vectors."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    n = x.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ValueError(f"layer_norm gain {gain.shape} and bias {bias.shape} must both be ({n},)")
    xhat = x.values - x.values.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(_row_dot(xhat, xhat) / n + LAYER_NORM_EPS)
    xhat *= inv
    out_values = xhat * gain.values
    out_values += bias.values
    out = Tensor(out_values)
    x_grad, bias_grad = x.requires_grad, bias.requires_grad

    def bwd(g):
        gx = gg = gb = None
        if x_grad:
            # inv · (ĝ - mean(ĝ) - x̂ · mean(ĝ x̂)), with ĝ = g · gain
            gxhat = g * gain.values
            gx = xhat * (_row_dot(gxhat, xhat) / n)
            np.subtract(gxhat, gx, out=gx)
            gx -= gxhat.mean(axis=-1, keepdims=True)
            gx *= inv
        if gain.requires_grad:
            gg = np.einsum("ij,ij->j", g.reshape(-1, n), xhat.reshape(-1, n))
        if bias_grad:
            gb = _reduce_to(g, (n,))
        return gx, gg, gb

    return _record(out, (x, gain, bias), bwd)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    orig = x.shape
    out = Tensor(x.values.reshape(shape))

    def bwd(g):
        return (g.reshape(orig),)

    return _record(out, (x,), bwd)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(np.transpose(x.values, axes))

    def bwd(g):
        return (np.transpose(g, inv),)

    return _record(out, (x,), bwd)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    out = Tensor(np.concatenate([p.values for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _record(out, tuple(parts), bwd)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    x = as_tensor(x)
    idx = [slice(None)] * x.values.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = Tensor(x.values[idx])
    shape, dtype = x.shape, x.values.dtype

    def bwd(g):
        full = np.zeros(shape, dtype)
        full[idx] = g
        return (full,)

    return _record(out, (x,), bwd)


def gather_rows(table: Tensor, index: np.ndarray) -> Tensor:
    """Row lookup `table[index]`; backward scatter-adds into the table."""
    table = as_tensor(table)
    index = np.asarray(index)
    out = Tensor(table.values[index])
    shape, dtype = table.shape, table.values.dtype

    def bwd(g):
        gt = np.zeros(shape, dtype)
        np.add.at(gt, index, g)
        return (gt,)

    return _record(out, (table,), bwd)


def sum_all(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.values.sum())
    shape = x.shape

    def bwd(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _record(out, (x,), bwd)


def sum_axis(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.values.sum(axis=axis, keepdims=keepdims))
    shape = x.shape

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _record(out, (x,), bwd)


def bce_masked(pred: Tensor, target, loss_mask) -> Tensor:
    """Masked binary cross-entropy: sum over masked entries, mean over rows.

    `pred` is (B, C) in (0, 1); entries where `loss_mask` is false contribute
    nothing and receive exactly zero gradient. A row with an all-false mask
    contributes zero loss. The loss is float64 whatever the dtype of `pred`,
    as float32 rounds 1 - CLAMP_EPS to 1; the gradient takes `pred`'s dtype.
    """
    pred = as_tensor(pred)
    x = np.asarray(pred.values, dtype=DTYPE)
    y = np.asarray(target, dtype=DTYPE)
    mask = np.asarray(loss_mask, dtype=bool)
    if pred.shape != y.shape or pred.shape != mask.shape:
        raise ValueError(f"bce_masked shape mismatch: pred {pred.shape}, target {y.shape}, mask {mask.shape}")
    p = np.clip(x, CLAMP_EPS, 1.0 - CLAMP_EPS)
    rows = pred.shape[0] if pred.values.ndim > 1 else 1
    term = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    total = np.where(mask, term, 0.0).sum() / rows
    out = Tensor(total)

    def bwd(g):
        inside = (x > CLAMP_EPS) & (x < 1.0 - CLAMP_EPS)
        gp = np.where(mask & inside, (p - y) / (p * (1.0 - p)), 0.0) * (g / rows)
        return (gp.astype(pred.values.dtype, copy=False),)

    return _record(out, (pred,), bwd)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class AdamW:
    """AdamW with bias correction and decoupled multiplicative weight decay.

    It owns the float64 master weights, `masters`: a parameter's own array
    when it is float64, else a float64 copy, so a parameter may hold float32
    values (mixed precision, Micikevicius et al., arXiv:1710.03740). Moments
    start at zero; one step counter `t` serves all, as every parameter gets a
    gradient every step.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3, weight_decay: float = 0.01):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.masters = {name: p.values.astype(DTYPE, copy=False) for name, p in params.items()}
        self.state = {name: {"m": np.zeros_like(m), "v": np.zeros_like(m)} for name, m in self.masters.items()}

    def step(self, grads: Sequence[dict[Tensor, np.ndarray]]) -> None:
        """One update from :func:`backward`'s maps. A parameter's gradient is
        its entries, each upcast to float64, summed in map order (``g0 +
        g1``), each popped as it is read, so maps the caller still holds keep
        no gradient alive. A parameter in no map keeps its values and
        moments. Moments and masters stay float64; each updated parameter
        gets its master in its own dtype. A NaN or infinite gradient raises
        ValueError naming its parameter before anything is written."""
        summed = {}
        with np.errstate(over="ignore", invalid="ignore"):  # a sum that overflows raises ValueError below
            for name, p in self.params.items():
                parts = [held.pop(p) for held in grads if p in held]
                if not parts:
                    continue
                # A copy when there is more than one part: a map may hold one
                # array for two parameters.
                g = summed[name] = parts[0].astype(DTYPE, copy=len(parts) > 1)
                for part in parts[1:]:
                    g += part
                if not np.isfinite(g).all():
                    raise ValueError(f"non-finite gradient for parameter '{name}'; aborting step")
        t = self.t = self.t + 1
        for name, g in summed.items():
            st, p, master = self.state[name], self.params[name], self.masters[name]
            st["m"] = self.beta1 * st["m"] + (1.0 - self.beta1) * g
            st["v"] = self.beta2 * st["v"] + (1.0 - self.beta2) * (g * g)
            m_hat = st["m"] / (1.0 - self.beta1**t)
            v_hat = st["v"] / (1.0 - self.beta2**t)
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            master = self.masters[name] = master - self.lr * update - self.lr * self.weight_decay * master
            p.values = master.astype(p.values.dtype, copy=False)


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------


@cache
def _blas() -> tuple | None:
    """The (set, get) thread-count functions of the BLAS numpy calls, or None.

    They are looked up through numpy's own extension module, which resolves
    them in the BLAS it links. The first OpenBLAS mapped into the process is
    not always that one: `scipy.stats` loads scipy's separate copy.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", "")):
        setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


def blas_threads() -> int | None:
    """The BLAS thread count in effect, or None when no BLAS setter is found."""
    blas = _blas()
    return None if blas is None else blas[1]()


_blas_lock = threading.Lock()
_blas_holds = 0
_blas_saved = 0


@contextmanager
def one_blas_thread():
    """Run the block with BLAS at one thread.

    The count is process-wide, so holds are counted under a lock: the first
    block to enter saves the count and the last one to leave restores it,
    also when the block raises. While any block runs, every BLAS call in the
    process is single-threaded.
    """
    global _blas_holds, _blas_saved
    blas = _blas()
    if blas is None:
        yield
        return
    setter, getter = blas
    with _blas_lock:
        if _blas_holds == 0:
            _blas_saved = getter()
            setter(1)
        _blas_holds += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holds -= 1
            if _blas_holds == 0:
                setter(_blas_saved)


def workers() -> int:
    """Threads a `run_split` caller fans out to (W): ``CISO_THREADS`` if set,
    else the CPUs this process may run on; 1 when no BLAS thread setter is
    found. A bad ``CISO_THREADS`` raises ValueError."""
    setting = ciso_threads()
    if blas_threads() is None:
        return 1
    if setting is not None:
        return setting
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_split(pieces: int, workers: int, task: Callable[[int], object]) -> None:
    """Run ``task(i)`` for each i in ``range(pieces)`` on min(workers, pieces)
    threads: share s runs pieces s, s + shares, ... in order, and share 0
    runs on the caller, whose malloc arena already holds what it freed.
    Each call opens its own pool, so no thread outlives it. More than one
    piece holds BLAS at one thread, so that a piece computes the same bits on
    any thread and for any `workers`. The caller's tape is set aside for the
    whole split, so no share records onto it, and is live again when the
    call returns or raises. An error in any share is raised once every share
    has ended."""
    shares = min(workers, pieces)
    if shares < 1:
        return

    def run(share: int) -> None:
        for i in range(share, pieces, shares):
            task(i)

    tape, _active.tape = _active.tape, None
    try:
        with one_blas_thread() if pieces > 1 else nullcontext(), ThreadPoolExecutor(max(1, shares - 1)) as pool:
            helpers = [pool.submit(run, share) for share in range(1, shares)]
            run(0)
            for helper in helpers:
                helper.result()
    finally:
        _active.tape = tape
