import json
import sys
import threading
import tracemalloc
import weakref
import zlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisosdm import cli, models, numerics as nm, training
from cisosdm.encoding import assign_states
from fdcheck import check_gradients, fd_gradient, max_rel_err


def test_matmul_identity():
    a = nm.Tensor(np.eye(2))
    b = nm.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(nm.matmul(a, b).values, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_projector():
    p = nm.Tensor([[1.0, 0.0], [0.0, 0.0]])
    b = nm.Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(nm.matmul(p, b).values, [[5.0, 6.0], [0.0, 0.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
        nm.matmul(nm.Tensor(np.zeros((2, 3))), nm.Tensor(np.zeros((2, 2))))


def test_matmul_sum_gradient_is_column_sums():
    rng = np.random.default_rng(0)
    a = nm.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = nm.Tensor(rng.normal(size=(4, 2)))
    with nm.Tape() as tape:
        loss = nm.sum_all(nm.matmul(a, b))
        grads = nm.backward(tape, loss)
    expected = np.broadcast_to(b.values.sum(axis=1), (3, 4))
    assert np.allclose(grads[a], expected)
    fd = fd_gradient(lambda: float((a.values @ b.values).sum()), a)
    assert max_rel_err(grads[a], fd) < 1e-4


def test_sigmoid_relu_softmax_values():
    assert nm.sigmoid(nm.Tensor([0.0])).values[0] == pytest.approx(0.5)
    assert nm.relu(nm.Tensor([-3.0])).values[0] == 0.0
    assert nm.relu(nm.Tensor([3.0])).values[0] == 3.0
    assert np.allclose(nm.softmax_rows(nm.Tensor([0.0, 0.0, 0.0])).values, [1 / 3] * 3)


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
def test_softmax_rows_sum_to_one(values):
    s = nm.softmax_rows(nm.Tensor(values)).values
    assert abs(s.sum() - 1.0) < 1e-6


@given(st.floats(-800, 800))
def test_sigmoid_lies_in_open_interval(x):
    s = nm.sigmoid(nm.Tensor([x])).values[0]
    assert nm.CLAMP_EPS <= s <= 1.0 - nm.CLAMP_EPS


class TestBCEMasked:
    def test_half_prediction(self):
        loss = nm.bce_masked(nm.Tensor([[0.5]]), [[1.0]], [[True]])
        assert loss.item() == pytest.approx(0.6931, abs=1e-4)

    def test_masked_entry_contributes_nothing(self):
        pred = nm.Tensor([[0.9]], requires_grad=True)
        with nm.Tape() as tape:
            loss = nm.bce_masked(pred, [[1.0]], [[False]])
            grads = nm.backward(tape, loss)
        assert loss.item() == 0.0
        assert grads[pred][0, 0] == 0.0

    def test_two_species_row(self):
        loss = nm.bce_masked(nm.Tensor([[0.8, 0.2]]), [[1.0, 0.0]], [[True, True]])
        assert loss.item() == pytest.approx(0.4463, abs=1e-4)

    def test_all_false_row_contributes_zero(self):
        pred = nm.Tensor([[0.7, 0.7], [0.3, 0.3]])
        loss = nm.bce_masked(pred, np.full((2, 2), 0.5), [[False, False], [True, True]])
        only_second = nm.bce_masked(
            nm.Tensor([[0.3, 0.3]]), np.full((1, 2), 0.5), [[True, True]]
        )
        assert loss.item() == pytest.approx(only_second.item() / 2)

    def test_masked_loss_independence(self):
        # Perturbing pred at masked entries changes neither the loss value nor
        # any gradient of unmasked entries.
        rng = np.random.default_rng(1)
        y = rng.random((3, 4))
        mask = rng.random((3, 4)) < 0.5
        base = rng.uniform(0.1, 0.9, (3, 4))

        def run(values):
            pred = nm.Tensor(values, requires_grad=True)
            with nm.Tape() as tape:
                loss = nm.bce_masked(pred, y, mask)
                grads = nm.backward(tape, loss)
            return loss.item(), grads[pred]

        loss_a, grad_a = run(base)
        perturbed = base.copy()
        perturbed[~mask] = rng.uniform(0.1, 0.9, (~mask).sum())
        loss_b, grad_b = run(perturbed)
        assert loss_a == loss_b
        assert np.array_equal(grad_a[mask], grad_b[mask])
        assert np.array_equal(grad_a[~mask], np.zeros((~mask).sum()))

    def test_gradient_matches_oracle(self):
        rng = np.random.default_rng(2)
        pred = nm.Tensor(rng.uniform(0.05, 0.95, (4, 3)), requires_grad=True)
        y = rng.random((4, 3))
        mask = rng.random((4, 3)) < 0.7
        check_gradients(lambda: nm.bce_masked(pred, y, mask), {"pred": pred})


class TestBackward:
    def test_sum_gives_ones(self):
        x = nm.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with nm.Tape() as tape:
            grads = nm.backward(tape, nm.sum_all(x))
        assert np.array_equal(grads[x], np.ones((2, 3)))

    def test_sum_of_squares(self):
        x = nm.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with nm.Tape() as tape:
            grads = nm.backward(tape, nm.sum_all(nm.mul(x, x)))
        assert np.allclose(grads[x], [2.0, 4.0, 6.0])

    def test_non_scalar_loss_rejected(self):
        x = nm.Tensor([1.0, 2.0], requires_grad=True)
        with nm.Tape() as tape:
            y = nm.mul(x, x)
            with pytest.raises(ValueError, match="scalar"):
                nm.backward(tape, y)

    def test_tape_cleared_after_backward(self):
        x = nm.Tensor([1.0], requires_grad=True)
        with nm.Tape() as tape:
            nm.backward(tape, nm.sum_all(nm.mul(x, x)))
            assert len(tape) == 0

    def test_reused_parameter_accumulates_additively(self):
        x = nm.Tensor([2.0], requires_grad=True)
        with nm.Tape() as tape:
            grads = nm.backward(tape, nm.sum_all(nm.add(nm.mul(x, 3.0), nm.mul(x, 5.0))))
        assert np.allclose(grads[x], [8.0])

    def test_parameter_used_twice_gets_both_gradients_and_calls_add(self):
        # Integer-valued operands keep every sum exact, so equality is exact.
        w = nm.Tensor([[1.0, 2.0], [0.0, -1.0]], requires_grad=True)
        x = np.array([[1.0, 3.0], [2.0, -2.0], [0.0, 1.0]])

        with nm.Tape() as tape:
            grads = nm.backward(tape, nm.sum_all(nm.matmul(nm.matmul(nm.Tensor(x), w), w)))
        ones = np.ones((3, 2))
        once = x.T @ ones @ w.values.T + (x @ w.values).T @ ones  # d sum(x w w) / dw
        assert np.array_equal(grads[w], once)

    def test_loss_from_an_earlier_tape_rejected(self):
        x = nm.Tensor([1.0, 2.0], requires_grad=True)
        with nm.Tape() as tape:
            done = nm.sum_all(nm.mul(x, x))
            nm.backward(tape, done)
        with nm.Tape() as tape:
            abandoned = nm.sum_all(nm.mul(x, x))
        for loss in (done, abandoned):
            with nm.Tape() as tape:
                nm.sum_all(nm.mul(x, x))
                with pytest.raises(ValueError, match="not produced on this tape"):
                    nm.backward(tape, loss)

    def test_output_of_a_finished_tape_is_a_leaf_on_the_next(self):
        x = nm.Tensor([1.0, 2.0], requires_grad=True)
        with nm.Tape() as tape:
            y = nm.mul(x, x)
            nm.backward(tape, nm.sum_all(y))
        with nm.Tape() as tape:
            grads = nm.backward(tape, nm.sum_all(nm.mul(y, 3.0)))
        assert np.array_equal(grads[y], [3.0, 3.0])
        assert x not in grads

    def test_backward_releases_the_graph_its_outputs_hold(self):
        rng = np.random.default_rng(6)
        w = nm.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with nm.Tape() as tape:
            h = nm.matmul(nm.Tensor(rng.normal(size=(5, 3))), w)
            gelu_input = weakref.ref(h)
            pred = nm.sigmoid(nm.gelu(h))
            del h
            loss = nm.bce_masked(pred, np.ones((5, 4)), np.ones((5, 4), bool))
            assert gelu_input() is not None  # the gelu backward reads it
            grads = nm.backward(tape, loss)
        # `pred` and `loss` are still held, and so are their entries.
        assert gelu_input() is None
        assert tape.entries == []
        assert pred.node is not None and loss.node is not None and grads.get(w) is not None

    def test_random_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        params = {
            "w1": nm.Tensor(rng.normal(scale=0.6, size=(5, 7)), requires_grad=True),
            "b1": nm.Tensor(rng.normal(scale=0.2, size=7), requires_grad=True),
            "w2": nm.Tensor(rng.normal(scale=0.6, size=(7, 3)), requires_grad=True),
            "b2": nm.Tensor(rng.normal(scale=0.2, size=3), requires_grad=True),
        }
        x = rng.normal(size=(6, 5))
        y = rng.random((6, 3))

        def loss():
            h = nm.relu(nm.add(nm.matmul(nm.Tensor(x), params["w1"]), params["b1"]))
            p = nm.sigmoid(nm.add(nm.matmul(h, params["w2"]), params["b2"]))
            return nm.bce_masked(p, y, np.ones_like(y, dtype=bool))

        check_gradients(loss, params)


@pytest.mark.parametrize("a_shape", [(3, 4, 5), (6, 5)], ids=["batched", "2d"])
def test_matmul_bias_is_one_node_matching_oracle(a_shape):
    rng = np.random.default_rng(4)
    a = nm.Tensor(rng.normal(size=a_shape), requires_grad=True)
    w = nm.Tensor(rng.normal(scale=0.5, size=(5, 3)), requires_grad=True)
    b = nm.Tensor(rng.normal(scale=0.2, size=3), requires_grad=True)
    with nm.Tape() as tape:
        out = nm.matmul(a, w, b)
        assert len(tape) == 1
    assert np.allclose(out.values, a.values @ w.values + b.values, rtol=0, atol=1e-12)
    check_gradients(lambda: nm.sum_all(nm.gelu(nm.matmul(a, w, b))), {"a": a, "w": w, "b": b})


def test_matmul_bias_rejects_mismatched_or_batched_operands():
    a = nm.Tensor(np.ones((2, 3, 4)))
    with pytest.raises(ValueError, match="bias shape"):
        nm.matmul(a, nm.Tensor(np.ones((4, 2))), nm.Tensor(np.ones(3)))
    with pytest.raises(ValueError, match="2-D weight"):
        nm.matmul(a, nm.Tensor(np.ones((2, 4, 2))), nm.Tensor(np.ones(2)))


KERNEL_OPS = ["gelu", "layer_norm", "softmax_rows", "sin", "cos", "transpose_concat"]


def _kernel(op, x):
    if op == "gelu":
        return nm.gelu(x)
    if op == "layer_norm":
        return nm.layer_norm(x, nm.Tensor(np.ones(4)), nm.Tensor(np.zeros(4)))
    if op == "softmax_rows":
        return nm.softmax_rows(x)
    if op == "sin":
        return nm.sin(x)
    if op == "cos":
        return nm.cos(x)
    parts = [nm.slice_axis(x, 1, 0, 2), nm.slice_axis(x, 1, 2, 4)]
    return nm.transpose(nm.concat(parts, axis=1), (1, 0))


def _kernel_input(op, rng, shape):
    # Negative inputs reach GELU's lower tail and softmax over negative scores.
    return nm.Tensor(rng.uniform(-3.0, 3.0, shape), requires_grad=True)


@pytest.mark.parametrize("op", KERNEL_OPS)
def test_kernel_gradients_match_oracle(op):
    x = _kernel_input(op, np.random.default_rng(zlib.crc32(op.encode())), (3, 4))

    def loss():
        out = _kernel(op, x)
        return nm.sum_all(nm.mul(out, out))

    check_gradients(loss, {"x": x})


@pytest.mark.parametrize("op", KERNEL_OPS)
def test_kernel_gradients_through_transposed_view(op):
    x = _kernel_input(op, np.random.default_rng(zlib.crc32(op.encode()) + 1), (4, 3))

    def loss():
        view = nm.transpose(x, (1, 0))
        assert not view.values.flags.c_contiguous and np.shares_memory(view.values, x.values)
        out = _kernel(op, view)
        return nm.sum_all(nm.mul(out, out))

    check_gradients(loss, {"x": x})


def test_sigmoid_is_bit_identical_to_three_exp_formula():
    v = np.concatenate([np.linspace(-40.0, 40.0, 8001), [-40.0, -0.0, 0.0, 40.0, -800.0, 800.0, -1e-300, 1e-300]])
    old = np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))), np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))
    old = np.clip(old, nm.CLAMP_EPS, 1.0 - nm.CLAMP_EPS)
    assert nm.sigmoid(nm.Tensor(v)).values.tobytes() == old.tobytes()


def test_gelu_matches_erf_form():
    from scipy.special import erf

    x = np.linspace(-8.0, 8.0, 1601)
    reference = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
    # The same function: they differ by at most a couple of ulps of values up to 8.
    assert np.abs(nm.gelu(nm.Tensor(x)).values - reference).max() <= 2e-15


def test_softmax_and_layer_norm_match_numpy_reference():
    rng = np.random.default_rng(12)
    x = rng.normal(scale=3.0, size=(2, 5, 7))
    gain, bias = rng.normal(size=7), rng.normal(size=7)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    assert np.abs(nm.softmax_rows(nm.Tensor(x)).values - e / e.sum(axis=-1, keepdims=True)).max() < 1e-15
    normed = (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    out = nm.layer_norm(nm.Tensor(x), nm.Tensor(gain), nm.Tensor(bias)).values
    assert np.abs(out - (normed * gain + bias)).max() < 1e-13


def _frozen(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


_GATHER_INDEX = np.array([[0, 2], [1, 1]])
_BCE_TARGET = _frozen(np.random.default_rng(9).random((3, 4)))
_BCE_MASK = np.random.default_rng(10).random((3, 4)) < 0.6
_BCE_MASK.setflags(write=False)

# op name -> (call, input shapes); every public kernel and both matmul paths.
OWNERSHIP_CASES = {
    "matmul_linear": (lambda x, w, b: nm.matmul(x, w, b), [(2, 3, 4), (4, 5), (5,)]),
    "matmul_batched": (nm.matmul, [(2, 3, 4), (2, 4, 5)]),
    "add": (nm.add, [(3, 4), (4,)]),
    "mul": (nm.mul, [(3, 4), (1, 4)]),
    "relu": (nm.relu, [(3, 4)]),
    "gelu": (nm.gelu, [(3, 4)]),
    "sigmoid": (nm.sigmoid, [(3, 4)]),
    "sin": (nm.sin, [(3, 4)]),
    "cos": (nm.cos, [(3, 4)]),
    "softmax_rows": (nm.softmax_rows, [(2, 3, 4)]),
    "dropout": (lambda x: nm.dropout(x, 0.3, np.random.default_rng(0)), [(3, 4)]),
    "layer_norm": (nm.layer_norm, [(2, 3, 4), (4,), (4,)]),
    "reshape": (lambda x: nm.reshape(x, (4, 3)), [(3, 4)]),
    "transpose": (lambda x: nm.transpose(x, (1, 0)), [(3, 4)]),
    "concat": (lambda a, b: nm.concat([a, b], axis=1), [(3, 4), (3, 2)]),
    "slice_axis": (lambda x: nm.slice_axis(x, 1, 1, 3), [(3, 4)]),
    "gather_rows": (lambda t: nm.gather_rows(t, _GATHER_INDEX), [(3, 4)]),
    "sum_all": (nm.sum_all, [(3, 4)]),
    "sum_axis": (lambda x: nm.sum_axis(x, 0), [(3, 4)]),
    "bce_masked": (lambda p: nm.bce_masked(p, _BCE_TARGET, _BCE_MASK), [(3, 4)]),
}


@pytest.mark.parametrize("op", sorted(OWNERSHIP_CASES))
def test_kernels_never_write_into_inputs_or_incoming_gradient(op):
    # Read-only inputs and upstream gradient: an in-place write into an
    # array the kernel did not allocate raises instead of passing silently.
    call, shapes = OWNERSHIP_CASES[op]
    rng = np.random.default_rng(11)
    inputs = [nm.Tensor(_frozen(rng.uniform(0.1, 0.9, shape)), requires_grad=True) for shape in shapes]
    before = [t.values.copy() for t in inputs]
    with nm.Tape() as tape:
        out = call(*inputs)
        (entry,) = tape.entries
    g = _frozen(rng.normal(size=out.shape))
    grads = entry.backward(g)
    assert len(grads) == len(inputs)
    for t, gin, old in zip(inputs, grads, before):
        assert gin.shape == t.shape
        assert np.array_equal(t.values, old)


# Number operands as the models pass them: Python floats on either side and
# a numpy float64 scalar such as the 1/sqrt(d) query scale.
NUMBER_CASES = {
    "mul_number": (lambda x: nm.mul(x, 0.125), [(3, 4)]),
    "add_number": (lambda x: nm.add(1.5, x), [(3, 4)]),
    "mul_numpy_scalar": (lambda x: nm.mul(x, 1.0 / np.sqrt(8)), [(3, 4)]),
}


def _run_op(call, shapes, dtype):
    rng = np.random.default_rng(11)
    inputs = [nm.Tensor(rng.uniform(0.1, 0.9, shape).astype(dtype), requires_grad=True) for shape in shapes]
    with nm.Tape() as tape:
        out = call(*inputs)
        (entry,) = tape.entries
    grads = [g for g in entry.backward(rng.normal(size=out.shape).astype(dtype)) if g is not None]
    assert len(grads) == len(inputs)
    return out.values, grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", sorted(OWNERSHIP_CASES) + sorted(NUMBER_CASES))
def test_kernels_keep_their_operands_dtype(op, dtype):
    # A float32 graph stays float32 through every op: one float64 buffer or
    # number would silently promote the rest of a training step.
    call, shapes = {**OWNERSHIP_CASES, **NUMBER_CASES}[op]
    out, grads = _run_op(call, shapes, dtype)
    # bce_masked's loss is float64 for any input, as float32 rounds 1 - CLAMP_EPS to 1.
    assert out.dtype == (np.float64 if op == "bce_masked" else dtype)
    assert [g.dtype for g in grads] == [dtype] * len(grads)


@pytest.mark.parametrize("op", sorted(NUMBER_CASES))
def test_number_operands_give_the_float64_tensor_bits(op):
    # In float64 a number operand computes exactly as a float64 tensor of it.
    call, shapes = NUMBER_CASES[op]
    as_tensors = {
        "mul_number": lambda x: nm.mul(x, nm.as_tensor(0.125)),
        "add_number": lambda x: nm.add(nm.as_tensor(1.5), x),
        "mul_numpy_scalar": lambda x: nm.mul(x, nm.as_tensor(1.0 / np.sqrt(8))),
    }[op]
    (out, grads), (ref_out, ref_grads) = _run_op(call, shapes, np.float64), _run_op(as_tensors, shapes, np.float64)
    assert out.tobytes() == ref_out.tobytes()
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in ref_grads]


def test_gather_rows_scatter_gradient():
    table = nm.Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
    idx = np.array([[0, 0], [3, 1]])
    with nm.Tape() as tape:
        out = nm.gather_rows(table, idx)
        grads = nm.backward(tape, nm.sum_all(out))
    expected = np.zeros((4, 2))
    np.add.at(expected, idx, np.ones((2, 2, 2)))
    assert np.array_equal(grads[table], expected)


def _reference_step(self, grads):
    """`AdamW.step` with its update written out of place, one new array per
    expression: the oracle for the in-place, chunked update's bits."""
    summed = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for name, p in self.params.items():
            parts = [held.pop(p) for held in grads if p in held]
            if not parts:
                continue
            g = summed[name] = parts[0].astype(np.float64, copy=len(parts) > 1)
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


def _optimizer_bytes(opt) -> dict:
    return {
        name: (p.values.dtype, p.values.tobytes(), opt.masters[name].tobytes(),
               opt.state[name]["m"].tobytes(), opt.state[name]["v"].tobytes())
        for name, p in opt.params.items()
    }


class TestAdamW:
    def test_zero_grad_zero_decay_keeps_params(self):
        p = nm.Tensor([1.0, -2.0], requires_grad=True, name="p")
        opt = nm.AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        opt.step([{p: np.zeros(2)}])
        assert np.array_equal(p.values, [1.0, -2.0])

    def test_first_step_moves_by_learning_rate(self):
        p = nm.Tensor([0.0], requires_grad=True, name="p")
        opt = nm.AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        opt.step([{p: np.array([1.0])}])
        assert p.values[0] == pytest.approx(-0.1, rel=1e-6)

    def test_decoupled_decay_scales_parameter(self):
        p = nm.Tensor([4.0], requires_grad=True, name="p")
        opt = nm.AdamW({"p": p}, lr=0.01, weight_decay=0.1)
        opt.step([{p: np.array([0.0])}])
        assert p.values[0] == pytest.approx(4.0 * (1.0 - 0.001))

    def test_nan_gradient_aborts_with_name(self):
        p = nm.Tensor([1.0], requires_grad=True, name="theta")
        opt = nm.AdamW({"theta": p})
        with pytest.raises(ValueError, match="theta"):
            opt.step([{p: np.array([np.nan])}])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gradient_in_a_later_parameter_changes_nothing(self, bad):
        p = nm.Tensor([1.0, -2.0], requires_grad=True, name="p")
        q = nm.Tensor([3.0, 4.0], requires_grad=True, name="q")
        opt = nm.AdamW({"p": p, "q": q}, lr=0.1)
        opt.step([{p: np.array([0.5, 0.5]), q: np.array([1.0, 1.0])}])

        def snapshot():
            return {name: (t.values.tobytes(), opt.state[name]["m"].tobytes(), opt.state[name]["v"].tobytes())
                    for name, t in (("p", p), ("q", q))}

        before = snapshot()
        with pytest.raises(ValueError, match="non-finite gradient for parameter 'q'"):
            opt.step([{p: np.array([0.5, 0.5]), q: np.array([bad, 1.0])}])
        assert opt.t == 1
        assert snapshot() == before
        assert all(opt.masters[name].tobytes() == before[name][0] for name in ("p", "q"))

    def test_float64_masters_are_the_parameters_own_arrays(self):
        p = nm.Tensor([1.0, -2.0], requires_grad=True, name="p")
        opt = nm.AdamW({"p": p}, lr=0.1)
        assert opt.masters["p"] is p.values
        opt.step([{p: np.array([0.5, 0.5])}])
        assert opt.masters["p"] is p.values

    def test_non_contiguous_float64_parameter_gets_a_contiguous_master(self):
        rng = np.random.default_rng(12)
        start = rng.normal(size=(3, 4))
        grads = [rng.normal(size=(3, 4)).T for _ in range(3)]  # non-contiguous (4, 3) views
        given = start.copy()
        p = nm.Tensor(start.T, requires_grad=True, name="p")
        assert not p.values.flags.c_contiguous
        opt = nm.AdamW({"p": p}, lr=0.1)
        reference = nm.Tensor(start.T.copy(), requires_grad=True, name="p")
        ref_opt = nm.AdamW({"p": reference}, lr=0.1)
        arrays = (opt.masters["p"], opt.state["p"]["m"], opt.state["p"]["v"])
        assert all(a.flags.c_contiguous for a in arrays) and opt.masters["p"] is not p.values
        for g in grads:
            opt.step([{p: g}])
            _reference_step(ref_opt, [{reference: g.copy()}])
            # Written in place, and the parameter follows its master.
            assert all(a is b for a, b in zip(arrays, (opt.masters["p"], opt.state["p"]["m"], opt.state["p"]["v"])))
            assert p.values is opt.masters["p"] and p.values.shape == (4, 3)
            assert _optimizer_bytes(opt) == _optimizer_bytes(ref_opt)
        assert np.array_equal(start, given)  # the caller's array is not written

    @pytest.mark.parametrize("maps", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("size", [1, nm.ADAMW_CHUNK - 1, nm.ADAMW_CHUNK, nm.ADAMW_CHUNK + 1, 3 * nm.ADAMW_CHUNK + 7])
    def test_step_matches_the_out_of_place_update_bit_for_bit(self, size, dtype, maps):
        rng = np.random.default_rng(size)
        # A second, small parameter shares the scratch buffers sized by the first.
        starts = {"p": rng.normal(size=(size, 1)), "q": rng.normal(size=(2, 3))}
        runs = []
        for step in (nm.AdamW.step, _reference_step):
            params = {name: nm.Tensor(v.copy(), requires_grad=True, name=name) for name, v in starts.items()}
            opt = nm.AdamW(params, lr=0.05, weight_decay=0.1)
            for p in params.values():  # as `training.train` casts a model
                p.values = p.values.astype(dtype)
            grad_rng = np.random.default_rng(size + 1)
            for _ in range(5):
                step(opt, [
                    {p: grad_rng.normal(size=p.shape).astype(dtype) for p in params.values()} for _ in range(maps)
                ])
            runs.append(_optimizer_bytes(opt))
        assert runs[0] == runs[1]
        assert all(entry[0] == dtype for entry in runs[0].values())

    def test_step_peaks_below_the_size_of_its_parameter(self):
        p = nm.Tensor(np.random.default_rng(13).normal(size=(1227, 256)), requires_grad=True, name="p")
        opt = nm.AdamW({"p": p}, lr=0.01)
        grads = [{p: np.random.default_rng(14).normal(size=p.shape)}]
        tracemalloc.start()
        try:
            opt.step(grads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The out-of-place update peaked at 16.8 MiB here, the chunked one at about 0.5 MiB.
        assert peak < p.values.nbytes, (peak, p.values.nbytes)

    @pytest.mark.parametrize("family", ["linear", "maxent", "mlp", "mlp++", "ciso"])
    def test_training_writes_the_out_of_place_update_bytes(self, family, tmp_path, monkeypatch):
        synth = tmp_path / "synth.json"
        synth.write_text('{"n_species": 6, "n_env": 3, "n_locations": 200}', encoding="utf-8")
        assert cli.main(["synth", "--config", str(synth), "--out-dir", str(tmp_path / "data"), "--seed", "3"]) == 0
        # hidden_dim 192 gives mlp and mlp++ a (192, 192) weight: two chunks.
        hyper = {"hidden_dim": 8, "heads": 2, "transformer_layers": 1} if family == "ciso" else {"hidden_dim": 192}
        config = tmp_path / "train.json"
        config.write_text(json.dumps({
            "dataset": str(tmp_path / "data" / "dataset.csv"), "family": family, "hyperparams": hyper,
            "train": {"epochs": 2, "batch_size": 64, "n_b": 2},
        }), encoding="utf-8")
        outputs = []
        for step in (nm.AdamW.step, _reference_step):
            monkeypatch.setattr(nm.AdamW, "step", step)
            out = tmp_path / f"run{len(outputs)}"
            assert cli.main(["train", "--config", str(config), "--out-dir", str(out), "--seed", "1"]) == 0
            outputs.append([(out / name).read_bytes() for name in ("checkpoint.ckpt", "history.csv")])
        assert outputs[0] == outputs[1]

    def test_float32_parameters_follow_float64_masters_bit_for_bit(self):
        rng = np.random.default_rng(11)
        start = rng.normal(size=(4, 3))
        grads = rng.normal(size=(5, 2, 4, 3)).astype(np.float32)
        reference = nm.Tensor(start.copy(), requires_grad=True, name="p")
        ref_opt = nm.AdamW({"p": reference}, lr=0.05)
        p = nm.Tensor(start.copy(), requires_grad=True, name="p")
        opt = nm.AdamW({"p": p}, lr=0.05)
        p.values = p.values.astype(np.float32)  # as `training.train` casts a ciso model
        for a, b in grads:
            ref_opt.step([{reference: a.copy()}, {reference: b.copy()}])
            opt.step([{p: a.copy()}, {p: b.copy()}])
            master = opt.masters["p"]
            assert master.dtype == np.float64 and master.tobytes() == reference.values.tobytes()
            assert p.values.dtype == np.float32 and p.values.tobytes() == master.astype(np.float32).tobytes()
        for key in ("m", "v"):
            assert opt.state["p"][key].tobytes() == ref_opt.state["p"][key].tobytes()

    def test_gradient_parts_whose_sum_overflows_change_nothing(self):
        p = nm.Tensor([1.0, -2.0], requires_grad=True, name="p")
        opt = nm.AdamW({"p": p}, lr=0.1)
        big = np.array([1.5e308, 1.0])
        with pytest.raises(ValueError, match="non-finite gradient for parameter 'p'"):
            opt.step([{p: big}, {p: big.copy()}])
        assert opt.t == 0 and p.values.tolist() == [1.0, -2.0] and not opt.state["p"]["m"].any()
        with pytest.raises(ValueError, match="'p'"):
            opt.step([{p: np.array([np.inf, -np.inf])}])

    def test_step_counter_strictly_increases(self):
        p = nm.Tensor([1.0], requires_grad=True, name="p")
        opt = nm.AdamW({"p": p}, lr=0.01)
        for expected in (1, 2, 3):
            opt.step([{p: np.array([0.5])}])
            assert opt.t == expected

    def test_maps_sum_in_order_and_are_emptied(self):
        rng = np.random.default_rng(8)
        start, a, b = rng.normal(size=(3, 4, 3))
        runs = []
        for split in (True, False):
            p = nm.Tensor(start.copy(), requires_grad=True, name="p")
            opt = nm.AdamW({"p": p}, lr=0.05)
            for _ in range(3):
                maps = [{p: a.copy()}, {p: b.copy()}] if split else [{p: a + b}]
                opt.step(maps)
                assert maps == [{}] * len(maps)
            runs.append((p.values.tobytes(), opt.state["p"]["m"].tobytes(), opt.state["p"]["v"].tobytes()))
        assert runs[0] == runs[1]

    def test_parameter_in_no_map_keeps_values_and_moments(self):
        p = nm.Tensor([1.0, -2.0], requires_grad=True, name="p")
        q = nm.Tensor([3.0], requires_grad=True, name="q")
        opt = nm.AdamW({"p": p, "q": q}, lr=0.1)
        opt.step([{p: np.array([0.5, 0.5]), q: np.array([1.0])}])
        kept = (q.values.copy(), opt.state["q"]["m"].copy(), opt.state["q"]["v"].copy())
        before = p.values.copy()
        opt.step([{p: np.array([0.5, 0.5])}, {}])
        assert not np.array_equal(p.values, before)
        assert all(np.array_equal(x, y) for x, y in zip((q.values, opt.state["q"]["m"], opt.state["q"]["v"]), kept))

    def test_float32_gradients_are_upcast_before_the_sum(self):
        rng = np.random.default_rng(9)
        start = rng.normal(size=(4, 3))
        a, b = rng.normal(size=(2, 4, 3)).astype(np.float32)
        runs = []
        for maps in ([{}, {}], [{}]):
            p = nm.Tensor(start.copy(), requires_grad=True, name="p")
            opt = nm.AdamW({"p": p}, lr=0.05)
            for _ in range(3):
                if len(maps) == 2:
                    maps[0][p], maps[1][p] = a.copy(), b.copy()
                else:
                    maps[0][p] = a.astype(np.float64) + b.astype(np.float64)
                opt.step(maps)
            state = opt.state["p"]
            assert p.values.dtype == state["m"].dtype == state["v"].dtype == np.float64
            runs.append((p.values.tobytes(), state["m"].tobytes(), state["v"].tobytes()))
        assert runs[0] == runs[1]


def test_seeded_training_is_bit_identical():
    def run():
        rng = np.random.default_rng(7)
        w = nm.Tensor(rng.normal(size=(3, 2)), requires_grad=True, name="w")
        opt = nm.AdamW({"w": w}, lr=0.05)
        x = rng.normal(size=(4, 3))
        y = rng.random((4, 2))
        for _ in range(5):
            with nm.Tape() as tape:
                pred = nm.sigmoid(nm.matmul(nm.Tensor(x), w))
                grads = nm.backward(tape, nm.bce_masked(pred, y, np.ones_like(y, bool)))
            opt.step([grads])
        return w.values.tobytes()

    assert run() == run()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_random_graph_gradients(seed):
    rng = np.random.default_rng(seed)
    w = nm.Tensor(rng.normal(scale=0.5, size=(4, 4)), requires_grad=True)
    v = nm.Tensor(rng.normal(scale=0.5, size=(4, 2)), requires_grad=True)
    x = rng.normal(size=(3, 4))
    y = rng.random((3, 2))

    def loss():
        h = nm.gelu(nm.matmul(nm.Tensor(x), w))
        p = nm.sigmoid(nm.matmul(nm.softmax_rows(h), v))
        return nm.bce_masked(p, y, np.ones_like(y, bool))

    check_gradients(loss, {"w": w, "v": v})


def _ciso(dropout, seed=0):
    spec = models.ModelSpec(
        family="ciso", n_species=5, n_env=4, hidden_dim=8, heads=2, transformer_layers=2, n_b=2, dropout=dropout
    )
    return models.build_model(spec, seed=seed)


def _ciso_batch(seed, rows):
    rng = np.random.default_rng(seed)
    env = rng.normal(size=(rows, 4))
    y = rng.choice([0.0, 0.3, 1.0], size=(rows, 5))
    available = rng.random((rows, 5)) < 0.9
    known = rng.random((rows, 5)) < 0.4
    codes, rates = assign_states(y, available, known, 2)
    return env, y, codes, rates, available & ~known


def _cast_for_steps(model) -> dict:
    """Cast `model`'s parameters to their STEP_DTYPES dtype, as `training.train`
    does before its first step; return the float64 values they held."""
    masters = {name: p.values for name, p in model.params.items()}
    for p in model.params.values():
        p.values = p.values.astype(training.STEP_DTYPES[model.spec.family])
    return masters


def _ciso_loss(model, batch, rng):
    env, y, codes, rates, mask = batch
    return nm.bce_masked(model.forward(env, codes, rates, training=True, rng=rng), y, mask)


def _same_bytes(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k].tobytes() == b[k].tobytes() for k in a)


class TestRunSplit:
    def test_share_s_runs_pieces_s_plus_multiples_of_shares_in_order(self):
        shares = 3
        barrier = threading.Barrier(shares)
        lock = threading.Lock()
        by_thread: dict[int, list[int]] = {}

        def task(i):
            if i < shares:  # every share on a thread of its own, all at once
                barrier.wait(timeout=60)
            with lock:
                by_thread.setdefault(threading.get_ident(), []).append(i)

        nm.run_split(8, shares, task)
        assert by_thread.pop(threading.get_ident()) == [0, 3, 6]
        assert sorted(by_thread.values()) == [[1, 4, 7], [2, 5]]

    def test_zero_pieces_run_no_task_and_start_no_thread(self, monkeypatch):
        monkeypatch.setattr(nm, "ThreadPoolExecutor", lambda *a, **kw: pytest.fail("opened a pool"))
        before = threading.active_count()
        nm.run_split(0, 4, lambda i: pytest.fail(f"ran piece {i}"))
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", [None, 2, 3])  # no piece, a piece of the caller's share, a worker's
    def test_no_share_records_onto_the_callers_tape(self, failing):
        x = nm.Tensor(np.ones(3), requires_grad=True)
        lock = threading.Lock()
        seen = []

        def task(i):
            recorded = nm.mul(x, 2.0).requires_grad  # True only while this thread has a live tape
            with nm.Tape() as own:  # every share may open a tape of its own
                nm.mul(x, 2.0)
            with lock:
                seen.append((threading.get_ident(), recorded, len(own)))
            if i == failing:
                raise RuntimeError(f"piece {i} failed")

        with nm.Tape() as tape:
            with pytest.raises(RuntimeError, match=f"piece {failing} failed") if failing else nullcontext():
                nm.run_split(4, 2, task)
            assert len(tape) == 0
            assert nm.mul(x, 2.0).requires_grad  # the caller's tape is live again
            assert len(tape) == 1
        assert sorted(recorded for _, recorded, _ in seen) == [False] * 4
        assert all(entries == 1 for _, _, entries in seen)
        assert len({thread for thread, _, _ in seen}) == 2
        assert threading.get_ident() in {thread for thread, _, _ in seen}


class TestGradientMaps:
    def test_concurrent_tapes_sharing_parameters_match_serial(self):
        model = _ciso(dropout=0.2)
        batches = [_ciso_batch(seed, rows=16) for seed in range(4)]
        before = {name: p.values.tobytes() for name, p in model.params.items()}

        def grads_of(k, barrier=None):
            with nm.Tape() as tape:
                loss = _ciso_loss(model, batches[k], np.random.default_rng(10 + k))
                if barrier is not None:
                    barrier.wait(timeout=60)
                return nm.backward(tape, loss)

        serial = [grads_of(k) for k in range(4)]
        # More threads than this test expects cores, all in backward at once.
        barrier = threading.Barrier(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(grads_of, k, barrier) for k in range(4)]
                concurrent = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert set(serial[0]) == set(model.params.values())
        assert all(_same_bytes(c, s) for c, s in zip(concurrent, serial))
        # backward writes nothing outside its tape.
        assert all(p.values.tobytes() == before[name] for name, p in model.params.items())

    def test_one_tape_step_matches_the_shared_grad_formula(self):
        # The reference sums each gradient as it arrives, in the same entry
        # order: `held = gin if held is None else held + gin`, into a local
        # dict for leaves and into the pending `grad` for entries.
        def reference_backward(tape, loss):
            leaves = {}
            loss.node.grad = np.ones_like(loss.values)
            for entry in reversed(tape.entries):
                g, entry.grad = entry.grad, None
                if g is None:
                    continue
                for src, gin in zip(entry.inputs, entry.backward(g)):
                    if gin is None or src is None:
                        continue
                    if isinstance(src, nm.Tensor):
                        leaves[src] = gin if src not in leaves else leaves[src] + gin
                    else:
                        src.grad = gin if src.grad is None else src.grad + gin
            return leaves

        batch = _ciso_batch(3, rows=9)
        grads = []
        for run in (reference_backward, nm.backward):
            model = _ciso(dropout=0.2, seed=4)
            with nm.Tape() as tape:
                leaves = run(tape, _ciso_loss(model, batch, np.random.default_rng(5)))
            grads.append({name: leaves[p] for name, p in model.params.items()})
        assert _same_bytes(*grads)

    @staticmethod
    def _micro_batch_sums(model, bound):
        env, y, codes, rates, mask = _ciso_batch(7, rows=7)
        sums = []
        for micro in (1, 2):
            results = training._step(model, micro, env, y, codes, rates, mask, np.random.default_rng(0))
            assert len(results) == micro
            summed = {name: sum(grads[p] for _, grads in results) for name, p in model.params.items()}
            sums.append((sum(v for v, _ in results), summed))
        (full_loss, full), (split_loss, split) = sums
        assert split_loss == pytest.approx(full_loss, rel=0, abs=bound)
        assert full.keys() == split.keys()
        for name in full:
            assert np.abs(split[name] - full[name]).max() <= bound, name

    def test_micro_batch_sum_matches_full_batch(self):
        # mlp++ steps run in float64, so the split changes only the summation order.
        spec = models.ModelSpec(family="mlp++", n_species=5, n_env=4, hidden_dim=8, n_b=2, dropout=0.0)
        self._micro_batch_sums(models.build_model(spec, seed=6), 1e-12)

    def test_micro_batch_sum_matches_full_batch_in_float32(self):
        # A ciso step runs in float32, so the split also changes the rounding (3.7e-9 read here).
        model = _ciso(dropout=0.0, seed=6)
        _cast_for_steps(model)
        self._micro_batch_sums(model, 1e-7)

    def test_step_runs_while_the_caller_holds_a_tape(self):
        # Each micro-batch opens a tape of its own, also the one on the caller's thread.
        model = _ciso(dropout=0.2, seed=6)
        env, y, codes, rates, mask = _ciso_batch(8, rows=9)
        free = training._step(model, 2, env, y, codes, rates, mask, np.random.default_rng(0))
        with nm.Tape() as tape:
            held = training._step(model, 2, env, y, codes, rates, mask, np.random.default_rng(0))
        assert len(tape) == 0
        assert [v for v, _ in held] == [v for v, _ in free]
        assert all(_same_bytes(a, b) for (_, a), (_, b) in zip(held, free))

    def test_ciso_step_grads_are_float32_and_match_a_float64_backward(self):
        model = _ciso(dropout=0.0, seed=6)
        batch = _ciso_batch(8, rows=9)
        env, y, codes, rates, mask = batch
        masters = _cast_for_steps(model)
        held = {name: p.values for name, p in model.params.items()}
        results = training._step(model, 2, env, y, codes, rates, mask, np.random.default_rng(0))
        # The step writes no parameter.
        assert all(model.params[name].values is values for name, values in held.items())
        for name, values in masters.items():
            model.params[name].values = values
        with nm.Tape() as tape:
            loss = _ciso_loss(model, batch, None)
            reference = nm.backward(tape, loss)
        assert sum(v for v, _ in results) == pytest.approx(loss.item(), rel=1e-6)
        # About 80 float32 epsilons of the largest gradient (0.26 here; 7.7e-7 read).
        tol = 1e-5 * max(np.abs(g).max() for g in reference.values())
        for name, p in model.params.items():
            parts = [grads[p] for _, grads in results]
            assert [g.dtype for g in parts] == [np.float32, np.float32], name
            assert reference[p].dtype == np.float64
            summed = parts[0].astype(np.float64) + parts[1]
            assert np.abs(summed - reference[p]).max() <= tol, name

    @pytest.mark.parametrize("mode", ["discrete", "linear", "periodic"])
    def test_ciso_step_runs_float64_only_in_the_loss(self, monkeypatch, mode):
        # Every op of a ciso step, in each encoding mode: float64 appears only
        # in bce_masked's loss and the loss weight that scales it.
        spec = models.ModelSpec(
            family="ciso", n_species=5, n_env=4, hidden_dim=8, heads=2, transformer_layers=2, n_b=2, encoding=mode
        )
        model = models.build_model(spec, seed=0)
        _cast_for_steps(model)
        env, y, codes, rates, mask = _ciso_batch(9, rows=6)
        assert env.dtype == rates.dtype == np.float64
        record, seen = nm._record, []

        def recording(out, inputs, bwd):
            seen.append((bwd.__qualname__.split(".")[0], out.values.dtype, [t.values.dtype for t in inputs]))
            return record(out, inputs, bwd)

        monkeypatch.setattr(nm, "_record", recording)
        # With the batch's states, and with none: the forward's default rates.
        for states in ((codes, rates), (None, None)):
            seen.clear()
            training._step(model, 1, env, y, *states, mask, np.random.default_rng(0))
            assert {"dropout", "gather_rows", "gelu", "softmax_rows"} <= {op for op, _, _ in seen}
            wide = [(op, str(dtype), [str(d) for d in ins]) for op, dtype, ins in seen
                    if dtype != np.float32 or any(d != np.float32 for d in ins)]
            assert wide == [("bce_masked", "float64", ["float32"]), ("mul", "float64", ["float64", "float64"])]
