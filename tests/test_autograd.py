"""Autodiff engine tests: every op's gradient is checked against central
finite differences, plus tape-contract and numeric-guard behavior."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regavae.autograd as ag
from regavae.autograd import Adam, Tape, Tensor, backward, clip_grad_norm, zero_grads
from regavae.errors import ContractError, DimensionError, NumericOverflowError
from regavae.mixture import regavae_loss
from regavae.model import VaeModel
from regavae.training import RunConfig

RNG = np.random.default_rng(1234)


def finite_diff_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function f at x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def check_grad(build_loss, *shapes, tol=1e-4, low=-2.0, high=2.0):
    """build_loss(*tensors) -> scalar Tensor; verifies grads of all inputs."""
    arrays = [RNG.uniform(low, high, s) for s in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = build_loss(*tensors)
        backward(loss, tape)
    for i, (arr, ten) in enumerate(zip(arrays, tensors)):
        def scalar(x, i=i):
            args = [Tensor(a) for a in arrays]
            args[i] = Tensor(x)
            with Tape():
                return build_loss(*args).item()
        fd = finite_diff_grad(scalar, arr.copy())
        np.testing.assert_allclose(ten.grad, fd, rtol=tol, atol=tol,
                                   err_msg=f"input {i} gradient mismatch")


class TestOpGradients:
    def test_add(self):
        check_grad(lambda a, b: ag.tensor_sum((a + b) * (a + b)), (3, 4), (3, 4))

    def test_add_broadcast(self):
        check_grad(lambda a, b: ag.tensor_sum((a + b) * (a + b)), (3, 4), (4,))

    def test_sub(self):
        check_grad(lambda a, b: ag.tensor_sum((a - b) * a), (5,), (5,))

    def test_mul(self):
        check_grad(lambda a, b: ag.tensor_sum(a * b * a), (2, 3), (2, 3))

    def test_mul_broadcast_scalar(self):
        check_grad(lambda a: ag.tensor_sum(a * 3.5), (4, 2))

    def test_matmul(self):
        check_grad(lambda a, b: ag.tensor_sum(a @ b), (3, 4), (4, 2))

    def test_matmul_vector(self):
        check_grad(lambda a, b: ag.tensor_sum(a @ b), (3, 4), (4,))

    def test_matmul_batched(self):
        # Stacked products over the leading axis; b enters as a transposed view.
        def loss(a, b):
            y = a @ ag.transpose(b, (0, 2, 1))
            return ag.tensor_sum(y * y)
        check_grad(loss, (2, 3, 4), (2, 5, 4))

    @pytest.mark.parametrize("sa,sb", [((2, 3, 4), (4, 5)), ((3, 4), (2, 4, 5)),
                                       ((2, 3, 4), (3, 4, 5))])
    def test_matmul_batched_shape_errors(self, sa, sb):
        with pytest.raises(DimensionError):
            Tensor(np.ones(sa)) @ Tensor(np.ones(sb))

    def test_softmax(self):
        check_grad(lambda a: ag.tensor_sum(ag.softmax(a) * ag.softmax(a)), (3, 5))

    def test_exp(self):
        check_grad(lambda a: ag.tensor_sum(ag.exp(a)), (4,), low=-1.0, high=1.0)

    def test_log(self):
        check_grad(lambda a: ag.tensor_sum(ag.log(a)), (4,), low=0.5, high=3.0)

    def test_tanh(self):
        check_grad(lambda a: ag.tensor_sum(ag.tanh(a) * ag.tanh(a)), (6,))

    def test_gelu(self):
        check_grad(lambda a: ag.tensor_sum(ag.gelu(a)), (8,))

    def test_clamp_interior_and_exterior(self):
        x = np.array([-3.0, -0.5, 0.5, 3.0])
        t = Tensor(x.copy(), requires_grad=True)
        with Tape() as tape:
            loss = ag.tensor_sum(ag.clamp(t, -1.0, 1.0) * 2.0)
            backward(loss, tape)
        np.testing.assert_array_equal(t.grad, [0.0, 2.0, 2.0, 0.0])

    def test_reshape_transpose(self):
        check_grad(lambda a: ag.tensor_sum(ag.transpose(ag.reshape(a, (4, 3)))
                                           * 1.5), (3, 4))

    def test_concat(self):
        check_grad(lambda a, b: ag.tensor_sum(ag.concat([a, b], axis=1)
                                              * ag.concat([a, b], axis=1)),
                   (2, 3), (2, 2))

    def test_sum_axis(self):
        check_grad(lambda a: ag.tensor_sum(ag.tensor_sum(a, axis=0)
                                           * ag.tensor_sum(a, axis=0)), (3, 4))

    def test_mean(self):
        check_grad(lambda a: ag.tensor_mean(a * a), (5, 2))

    def test_layer_norm(self):
        check_grad(lambda x, g, b: ag.tensor_sum(
            ag.layer_norm(x, g, b) * ag.layer_norm(x, g, b)),
            (3, 6), (6,), (6,))

    def test_embedding_lookup(self):
        ids = [0, 2, 2, 1]
        check_grad(lambda t: ag.tensor_sum(ag.embedding_lookup(t, ids)
                                           * ag.embedding_lookup(t, ids)), (4, 3))

    def test_cross_entropy(self):
        targets = [1, 0, 3]
        check_grad(lambda lg: ag.cross_entropy_with_logits(lg, targets), (3, 4))

    def test_matmul_shape_error_names_shapes(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2)))
        with pytest.raises(DimensionError) as exc:
            a @ b
        assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


class TestSoftmaxProperties:
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_rows_sum_to_one_and_nonneg(self, vals):
        with Tape():
            out = ag.softmax(Tensor(np.array(vals))).data
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) < 1e-9

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8),
           st.floats(-100, 100))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, vals, shift):
        a = np.array(vals)
        with Tape():
            s1 = ag.softmax(Tensor(a)).data
            s2 = ag.softmax(Tensor(a + shift)).data
        np.testing.assert_allclose(s1, s2, atol=1e-9)

    def test_extreme_logits_stable(self):
        with Tape():
            out = ag.softmax(Tensor(np.array([1e4, -1e4, 0.0]))).data
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) < 1e-12


def composed_linear(x, w, b=None):
    """What `linear` replaces: a transpose node, a matmul node and a bias add."""
    y = ag.matmul(x, ag.transpose(w))
    return y if b is None else y + b


def linear_run(affine, x_shape, bias, twice, seed=5):
    """Apply `affine` (once, or twice with one weight) on a fresh tape and
    backpropagate a weighted sum of squares; return output and grads."""
    rng = np.random.default_rng(seed)
    d = x_shape[-1]
    x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
    w = Tensor(rng.standard_normal((d, d)), requires_grad=True)
    b = Tensor(rng.standard_normal(d), requires_grad=True) if bias else None
    with Tape() as tape:
        y = affine(x, w, b)
        if twice:
            y = affine(ag.tanh(y), w, b)
        c = Tensor(rng.standard_normal(y.shape))
        backward(ag.tensor_sum(y * y * c), tape)
    return y.data, x.grad, w.grad, None if b is None else b.grad, {"x": x, "w": w}


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestLinear:
    @pytest.mark.parametrize("x_shape", [(5,), (3, 5)])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("twice", [False, True])
    def test_bitwise_equal_to_composition(self, x_shape, bias, twice):
        fused = linear_run(ag.linear, x_shape, bias, twice)
        composed = linear_run(composed_linear, x_shape, bias, twice)
        for name, a, b in zip(("out", "x.grad", "w.grad", "b.grad"), fused, composed):
            if name == "b.grad" and not bias:
                assert a is None and b is None
            else:
                assert same_bytes(a, b), name

    def test_matches_finite_differences(self):
        check_grad(lambda x, w, b: ag.tensor_sum(ag.tanh(ag.linear(x, w, b))), (3, 4),
                   (2, 4), (2,))
        check_grad(lambda x, w: ag.tensor_sum(ag.linear(x, w) * ag.linear(x, w)), (4,), (3, 4))

    def test_first_grad_is_a_c_ordered_copy(self):
        # dW is the transpose of a product, an F-ordered view; the stored grad
        # must not keep that layout (clip_grad_norm sums it in memory order).
        *_, t = linear_run(ag.linear, (3, 5), True, False)
        assert t["w"].grad.flags["C_CONTIGUOUS"]
        # add passes one g to both inputs; each keeps its own buffer.
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            y = a + b
            backward(ag.tensor_sum(y * y), tape)
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(a.grad, y.grad)
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 4.0))

    @pytest.mark.parametrize("x_shape", [(5,), (4, 5)])
    def test_clip_grad_norm_bitwise_equal_to_composition(self, x_shape):
        results = []
        for affine in (ag.linear, composed_linear):
            *_, t = linear_run(affine, x_shape, True, True, seed=11)
            params = {"x": t["x"], "w": t["w"]}
            norm = clip_grad_norm(params, 1e-3)
            results.append((norm, t["x"].grad, t["w"].grad))
        (n1, x1, w1), (n2, x2, w2) = results
        assert n1 == n2 and n1 > 1e-3
        assert same_bytes(x1, x2) and same_bytes(w1, w2)

    def test_overflow_raises(self):
        w = Tensor(np.array([[1e200]]), requires_grad=True)
        with pytest.raises(NumericOverflowError):
            with Tape():
                ag.linear(Tensor(np.array([1e200])), w)
        # The product is finite; the bias add overflows.
        with pytest.raises(NumericOverflowError):
            with Tape():
                ag.linear(Tensor(np.array([1.5e308])), Tensor(np.array([[1.0]])),
                          Tensor(np.array([1e308])))

    @pytest.mark.parametrize("x_shape,w_shape,b_shape", [
        ((2, 3, 4), (5, 4), None), ((4,), (4,), None), ((2, 4), (5, 3), None),
        ((2, 4), (5, 4), (4,)), ((2, 4), (5, 4), (1, 5)),
    ])
    def test_bad_shapes_raise(self, x_shape, w_shape, b_shape):
        b = None if b_shape is None else Tensor(np.zeros(b_shape))
        with pytest.raises(DimensionError):
            ag.linear(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), b)

    def test_one_document_tape_length_on_bundled_config(self):
        # Pinned: a change here changes the per-op overhead of every step.
        cfg = RunConfig.from_file(os.path.join(os.path.dirname(__file__), "..", "configs",
                                               "synthetic.json"))
        model = VaeModel(cfg.model_config(50), seed=0)
        with Tape() as tape:
            regavae_loss(model, [5, 6, 7], [8, 9, 10, 11], None, 0, 0.5,
                         np.random.default_rng(0), kl_floor=cfg.kl_floor)
        assert len(tape.nodes) == 106


class TestTapeContract:
    def test_ops_outside_tape_not_recorded(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = a * 2.0  # no active tape: pure forward
        assert b.grad is None
        with Tape() as tape:
            loss = ag.tensor_sum(a * 3.0)
            backward(loss, tape)
        np.testing.assert_array_equal(a.grad, [3.0, 3.0, 3.0])

    def test_tape_reuse_raises(self):
        a = Tensor(np.ones(2), requires_grad=True)
        with Tape() as tape:
            loss = ag.tensor_sum(a * a)
            backward(loss, tape)
        with pytest.raises(ContractError):
            backward(loss, tape)

    def test_backward_requires_scalar(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            out = a * 2.0
            with pytest.raises(ContractError):
                backward(out, tape)

    def test_grad_accumulates_across_uses_within_tape(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        with Tape() as tape:
            loss = ag.tensor_sum(a * a + a)  # d/da = 2a + 1 = 5
            backward(loss, tape)
        np.testing.assert_allclose(a.grad, [5.0])

    def test_tensor_off_the_loss_path_keeps_no_grad(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        with Tape() as tape:
            unused = ag.exp(b)  # recorded, but never reaches the loss
            backward(ag.tensor_sum(a * a), tape)
        assert len(tape.nodes) == 3
        np.testing.assert_array_equal(a.grad, [2.0, 2.0])
        assert b.grad is None and unused.grad is None

    def test_zero_grads(self):
        a = Tensor(np.ones(2), requires_grad=True)
        with Tape() as tape:
            backward(ag.tensor_sum(a * a), tape)
        assert a.grad is not None
        zero_grads({"a": a})
        assert a.grad is None


class TestNumericGuards:
    def test_overflow_raises(self):
        a = Tensor(np.array([800.0]))
        with pytest.raises(NumericOverflowError):
            with Tape():
                ag.exp(ag.exp(a))

    def test_log_of_nonpositive_raises(self):
        with pytest.raises(NumericOverflowError):
            with Tape():
                ag.log(Tensor(np.array([-1.0])))


class TestOptimizer:
    def test_adam_first_step_size(self):
        # With bias correction, the first Adam step has magnitude ~lr.
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.array([0.5, -3.0])
        opt = Adam({"p": p}, lr=0.1)
        opt.step()
        np.testing.assert_allclose(p.data, [1.0 - 0.1, -2.0 + 0.1], atol=1e-6)

    def test_adam_converges_on_quadratic(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.2)
        for _ in range(300):
            zero_grads({"p": p})
            with Tape() as tape:
                backward(ag.tensor_sum((p - 3.0) * (p - 3.0)), tape)
            opt.step()
        assert abs(p.data[0] - 3.0) < 1e-3

    def test_clip_grad_norm(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        a.grad = np.array([3.0, 0.0])
        b.grad = np.array([0.0, 4.0])
        clip_grad_norm({"a": a, "b": b}, 1.0)  # global norm was 5
        total = np.sqrt(np.sum(a.grad ** 2) + np.sum(b.grad ** 2))
        assert abs(total - 1.0) < 1e-12
        np.testing.assert_allclose(a.grad, [0.6, 0.0])

    def test_clip_noop_below_threshold(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        a.grad = np.array([0.3, 0.4])
        clip_grad_norm({"a": a}, 1.0)
        np.testing.assert_allclose(a.grad, [0.3, 0.4])


class TestDeterminism:
    def test_random_normal_reproducible(self):
        x1 = ag.random_normal((4, 3), np.random.default_rng([7, 1]))
        x2 = ag.random_normal((4, 3), np.random.default_rng([7, 1]))
        np.testing.assert_array_equal(x1.data, x2.data)

    def test_full_graph_bitwise_deterministic(self):
        def run():
            rng = np.random.default_rng(42)
            a = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
            b = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
            with Tape() as tape:
                loss = ag.tensor_sum(ag.softmax(ag.gelu(a @ b)) * a)
                backward(loss, tape)
            return loss.item(), a.grad.copy(), b.grad.copy()
        l1, ga1, gb1 = run()
        l2, ga2, gb2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(ga1, ga2)
        np.testing.assert_array_equal(gb1, gb2)
