import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisosdm import numerics as nm
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
        nm.backward(tape, loss)
    expected = np.broadcast_to(b.values.sum(axis=1), (3, 4))
    assert np.allclose(a.grad, expected)
    fd = fd_gradient(lambda: float((a.values @ b.values).sum()), a)
    assert max_rel_err(a.grad, fd) < 1e-4


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
            nm.backward(tape, loss)
        assert loss.item() == 0.0
        assert pred.grad[0, 0] == 0.0

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
                nm.backward(tape, loss)
            return loss.item(), pred.grad

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
            nm.backward(tape, nm.sum_all(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares(self):
        x = nm.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with nm.Tape() as tape:
            nm.backward(tape, nm.sum_all(nm.mul(x, x)))
        assert np.allclose(x.grad, [2.0, 4.0, 6.0])

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
            nm.backward(tape, nm.sum_all(nm.add(nm.mul(x, 3.0), nm.mul(x, 5.0))))
        assert np.allclose(x.grad, [8.0])

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


def test_gather_rows_scatter_gradient():
    table = nm.Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
    idx = np.array([[0, 0], [3, 1]])
    with nm.Tape() as tape:
        out = nm.gather_rows(table, idx)
        nm.backward(tape, nm.sum_all(out))
    expected = np.zeros((4, 2))
    np.add.at(expected, idx, np.ones((2, 2, 2)))
    assert np.array_equal(table.grad, expected)


class TestAdamW:
    def test_zero_grad_zero_decay_keeps_params(self):
        p = nm.Tensor([1.0, -2.0], requires_grad=True, name="p")
        p.grad = np.zeros(2)
        opt = nm.AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        opt.step()
        assert np.array_equal(p.values, [1.0, -2.0])

    def test_first_step_moves_by_learning_rate(self):
        p = nm.Tensor([0.0], requires_grad=True, name="p")
        p.grad = np.array([1.0])
        opt = nm.AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        opt.step()
        assert p.values[0] == pytest.approx(-0.1, rel=1e-6)

    def test_decoupled_decay_scales_parameter(self):
        p = nm.Tensor([4.0], requires_grad=True, name="p")
        p.grad = np.array([0.0])
        opt = nm.AdamW({"p": p}, lr=0.01, weight_decay=0.1)
        opt.step()
        assert p.values[0] == pytest.approx(4.0 * (1.0 - 0.001))

    def test_nan_gradient_aborts_with_name(self):
        p = nm.Tensor([1.0], requires_grad=True, name="theta")
        p.grad = np.array([np.nan])
        opt = nm.AdamW({"theta": p})
        with pytest.raises(ValueError, match="theta"):
            opt.step()

    def test_step_counter_strictly_increases(self):
        p = nm.Tensor([1.0], requires_grad=True, name="p")
        opt = nm.AdamW({"p": p}, lr=0.01)
        for expected in (1, 2, 3):
            p.grad = np.array([0.5])
            opt.step()
            assert opt.state["p"]["t"] == expected


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
                nm.backward(tape, nm.bce_masked(pred, y, np.ones_like(y, bool)))
            opt.step()
            opt.zero_grad()
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
