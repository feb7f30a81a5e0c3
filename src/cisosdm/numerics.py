"""Minimal float64 tensor library with a reverse-mode tape, AdamW, and masked BCE.

Tensors wrap float64 numpy arrays, which may be views: a `Tensor` built from
a float64 array shares its memory, and `reshape`, `transpose` and
`slice_axis` return views of their input where numpy can, so a head split or
a `k` transpose copies nothing. Ownership rule: a kernel writes only into
arrays it allocated itself, never into an input's ``.values`` nor into the
gradient ``g`` its backward rule receives; both may be shared with other
tensors, with other tape entries, or with the caller's arrays.

The module-level functions are the surface: `Tensor` defines no arithmetic
operators. Gradient recording happens on an explicitly scoped :class:`Tape`;
outside a tape every op is a plain numpy computation, which is how inference
runs. All math is float64 so that finite-difference checks stay tight.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np
from scipy.special import ndtr

DTYPE = np.float64

# Clamp for sigmoid outputs and BCE inputs; prevents infinities without visible bias.
CLAMP_EPS = 1e-12

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    """Dense float64 array with an optional gradient slot."""

    __slots__ = ("values", "requires_grad", "grad", "name")

    def __init__(self, values, requires_grad: bool = False, name: str | None = None):
        self.values = np.asarray(values, dtype=DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.name = name

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


class _Entry:
    __slots__ = ("out", "inputs", "backward")

    def __init__(self, out: Tensor, inputs: tuple[Tensor, ...], backward):
        self.out = out
        self.inputs = inputs
        self.backward = backward


class _ActiveTape(threading.local):
    tape: "Tape | None" = None


# One active tape per thread: inference in one thread never records onto a
# tape that another thread is training with.
_active = _ActiveTape()


class Tape:
    """Records ops in execution order; the reverse of that order is the
    backward schedule. One tape per training step; a tape records only the
    ops of the thread that entered it."""

    def __init__(self):
        self.entries: list[_Entry] = []

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
        tape.entries.append(_Entry(out, inputs, backward))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate chain-rule gradients for every requires_grad tensor reachable
    from `loss`, then clear the tape.

    Gradients add into any existing ``.grad`` (parameter reuse is additive);
    call ``AdamW.zero_grad`` between steps.
    """
    if loss.values.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not any(e.out is loss for e in tape.entries):
        raise ValueError("loss tensor was not produced on this tape")

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}
    for entry in reversed(tape.entries):
        g = grads.pop(id(entry.out), None)
        if g is None:
            continue
        for inp, gin in zip(entry.inputs, entry.backward(g)):
            if gin is None or not inp.requires_grad:
                continue
            key = id(inp)
            grads[key] = grads[key] + gin if key in grads else gin
    # Whatever was never popped belongs to leaves; attach it.
    leaves: dict[int, Tensor] = {}
    for entry in tape.entries:
        for inp in entry.inputs:
            leaves.setdefault(id(inp), inp)
    for key, g in grads.items():
        t = leaves.get(key)
        if t is not None and t.requires_grad:
            t.grad = g if t.grad is None else t.grad + g
    tape.entries.clear()


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
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.values + b.values)

    def bwd(g):
        return (
            _reduce_to(g, a.shape) if a.requires_grad else None,
            _reduce_to(g, b.shape) if b.requires_grad else None,
        )

    return _record(out, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
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
        return (g * (x.values > 0.0),)

    return _record(out, (x,), bwd)


def gelu(x: Tensor) -> Tensor:
    """Exact GELU, x·Φ(x), with Φ the standard normal CDF."""
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
        gx = g - _row_dot(g, s)
        gx *= s
        return (gx,)

    return _record(out, (x,), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout. Call only during training; inference skips it."""
    if rate <= 0.0:
        return x
    x = as_tensor(x)
    buf = rng.random(x.shape)
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


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift by (n,) vectors."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    n = x.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ValueError(f"layer_norm gain {gain.shape} and bias {bias.shape} must both be ({n},)")
    xhat = x.values - x.values.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(_row_dot(xhat, xhat) / n + eps)
    xhat *= inv
    out_values = xhat * gain.values
    out_values += bias.values
    out = Tensor(out_values)

    def bwd(g):
        gx = gg = gb = None
        if x.requires_grad:
            # inv · (ĝ - mean(ĝ) - x̂ · mean(ĝ x̂)), with ĝ = g · gain
            gxhat = g * gain.values
            gx = xhat * (_row_dot(gxhat, xhat) / n)
            np.subtract(gxhat, gx, out=gx)
            gx -= gxhat.mean(axis=-1, keepdims=True)
            gx *= inv
        if gain.requires_grad:
            gg = np.einsum("ij,ij->j", g.reshape(-1, n), xhat.reshape(-1, n))
        if bias.requires_grad:
            gb = _reduce_to(g, bias.shape)
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

    def bwd(g):
        full = np.zeros_like(x.values)
        full[idx] = g
        return (full,)

    return _record(out, (x,), bwd)


def gather_rows(table: Tensor, index: np.ndarray) -> Tensor:
    """Row lookup `table[index]`; backward scatter-adds into the table."""
    table = as_tensor(table)
    index = np.asarray(index)
    out = Tensor(table.values[index])

    def bwd(g):
        gt = np.zeros_like(table.values)
        np.add.at(gt, index, g)
        return (gt,)

    return _record(out, (table,), bwd)


def sum_all(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.values.sum())

    def bwd(g):
        return (np.broadcast_to(g, x.shape).copy(),)

    return _record(out, (x,), bwd)


def sum_axis(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.values.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape).copy(),)

    return _record(out, (x,), bwd)


def bce_masked(pred: Tensor, target, loss_mask) -> Tensor:
    """Masked binary cross-entropy: sum over masked entries, mean over rows.

    `pred` is (B, C) in (0, 1); entries where `loss_mask` is false contribute
    nothing and receive exactly zero gradient. A row with an all-false mask
    contributes zero loss.
    """
    pred = as_tensor(pred)
    y = np.asarray(target, dtype=DTYPE)
    mask = np.asarray(loss_mask, dtype=bool)
    if pred.shape != y.shape or pred.shape != mask.shape:
        raise ValueError(f"bce_masked shape mismatch: pred {pred.shape}, target {y.shape}, mask {mask.shape}")
    p = np.clip(pred.values, CLAMP_EPS, 1.0 - CLAMP_EPS)
    rows = pred.shape[0] if pred.values.ndim > 1 else 1
    term = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    total = np.where(mask, term, 0.0).sum() / rows
    out = Tensor(total)

    def bwd(g):
        inside = (pred.values > CLAMP_EPS) & (pred.values < 1.0 - CLAMP_EPS)
        gp = np.where(mask & inside, (p - y) / (p * (1.0 - p)), 0.0) * (g / rows)
        return (gp,)

    return _record(out, (pred,), bwd)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class AdamW:
    """AdamW with bias correction and decoupled multiplicative weight decay.

    Moment accumulators start at zero and match parameter shapes; the step
    counter is per-parameter and strictly increasing.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.state = {
            name: {"m": np.zeros_like(p.values), "v": np.zeros_like(p.values), "t": 0}
            for name, p in self.params.items()
        }

    def step(self) -> None:
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if np.isnan(g).any():
                raise ValueError(f"NaN gradient for parameter '{name}'; aborting step")
            st = self.state[name]
            st["t"] += 1
            t = st["t"]
            st["m"] = self.beta1 * st["m"] + (1.0 - self.beta1) * g
            st["v"] = self.beta2 * st["v"] + (1.0 - self.beta2) * (g * g)
            m_hat = st["m"] / (1.0 - self.beta1**t)
            v_hat = st["v"] / (1.0 - self.beta2**t)
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            p.values = p.values - self.lr * update - self.lr * self.weight_decay * p.values

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
