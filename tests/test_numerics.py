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


def test_log_clamps_nonpositive_with_one_warning(caplog):
    nm._log_clamp_warned = False
    with caplog.at_level("WARNING"):
        out = nm.log(nm.Tensor([-1.0, 1.0]))
        nm.log(nm.Tensor([0.0]))
    assert out.values[0] == pytest.approx(np.log(nm.CLAMP_EPS))
    assert out.values[1] == 0.0
    warnings = [r for r in caplog.records if "clamped" in r.message]
    assert len(warnings) == 1


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


@pytest.mark.parametrize("op", ["gelu", "layer_norm", "softmax_rows", "log", "sin", "cos", "transpose_concat"])
def test_kernel_gradients_match_oracle(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    x = nm.Tensor(rng.uniform(0.2, 2.0, (3, 4)), requires_grad=True)

    def loss():
        if op == "gelu":
            out = nm.gelu(x)
        elif op == "layer_norm":
            out = nm.layer_norm(x, nm.Tensor(np.ones(4)), nm.Tensor(np.zeros(4)))
        elif op == "softmax_rows":
            out = nm.softmax_rows(x)
        elif op == "log":
            out = nm.log(x)
        elif op == "sin":
            out = nm.sin(x)
        elif op == "cos":
            out = nm.cos(x)
        else:
            parts = [nm.slice_axis(x, 1, 0, 2), nm.slice_axis(x, 1, 2, 4)]
            out = nm.transpose(nm.concat(parts, axis=1), (1, 0))
        return nm.sum_all(nm.mul(out, out))

    check_gradients(loss, {"x": x})


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
