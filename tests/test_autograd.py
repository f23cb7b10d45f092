"""Autodiff engine tests: every op's gradient is checked against central
finite differences, plus tape-contract and numeric-guard behavior."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regavae.autograd as ag
import regavae.mixture as mixture
from regavae.autograd import Adam, Tape, Tensor, backward, clip_grad_norm, zero_grads
from regavae.data import CorpusPair
from regavae.errors import ContractError, DimensionError, NumericOverflowError
from regavae.mixture import regavae_loss
from regavae.model import VaeModel
from regavae.retrieval import build_database
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

    @pytest.mark.parametrize("sa,sb", [((2, 3, 4), (4, 5)), ((3, 4), (2, 4, 5)),
                                       ((2, 3, 4), (3, 4, 5)), ((3, 4), (4,)), ((4,), (4, 2))])
    def test_matmul_batched_shape_errors(self, sa, sb):
        # matmul takes two 2-D operands only.
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
        check_grad(lambda a: ag.tensor_sum(ag.reshape(a, (4, 3))
                                           * ag.reshape(a, (4, 3))), (3, 4))

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


def linear_case(x_shape, bias, seed=5):
    """Seeded x, a square w, b (or None) and c: the inputs of sum(y * c)."""
    rng = np.random.default_rng(seed)
    d = x_shape[-1]
    x, w = rng.standard_normal(x_shape), rng.standard_normal((d, d))
    b = rng.standard_normal(d) if bias else None
    return x, w, b, rng.standard_normal(x_shape)


def fused_run(x, w, b, c, twice):
    """y = linear(x), or linear(tanh(linear(x))) with one w and b, and the
    grads of x, w and b for the loss sum(y * c), on a fresh tape."""
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    bt = None if b is None else Tensor(b, requires_grad=True)
    with Tape() as tape:
        y = ag.linear(xt, wt, bt)
        if twice:
            y = ag.linear(ag.tanh(y), wt, bt)
        backward(ag.tensor_sum(y * Tensor(c)), tape)
    return y.data, xt.grad, wt.grad, None if bt is None else bt.grad


def numpy_run(x, w, b, c, twice):
    """What `fused_run` computes, in numpy: y = x @ w.T + b, whose grads for
    an upstream grad g are g @ w, (x.T @ g).T and the column sums of g. A 1-D
    x is one row. The loss hands y the grad c; backward reaches the second
    application first, so its w and b grads come first in each sum."""
    def forward(x):
        y = (np.atleast_2d(x) @ w.T).reshape(x.shape)
        return y if b is None else y + b

    def grads(x, g):
        x2, g2 = np.atleast_2d(x), np.atleast_2d(g)
        return (g2 @ w).reshape(x.shape), np.ascontiguousarray((x2.T @ g2).T), g2.sum(axis=0)

    if not twice:
        gx, gw, gb = grads(x, c)
        return forward(x), gx, gw, None if b is None else gb
    h = np.tanh(forward(x))
    gh, gw, gb = grads(h, c)
    gx, gw_inner, gb_inner = grads(x, gh * (1.0 - h * h))
    return forward(h), gx, gw + gw_inner, None if b is None else gb + gb_inner


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestLinear:
    @pytest.mark.parametrize("x_shape", [(5,), (3, 5)])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("twice", [False, True])
    def test_bitwise_equal_to_composition(self, x_shape, bias, twice):
        case = linear_case(x_shape, bias)
        fused, reference = fused_run(*case, twice), numpy_run(*case, twice)
        for name, a, b in zip(("out", "x.grad", "w.grad", "b.grad"), fused, reference):
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
        _, _, w_grad, _ = fused_run(*linear_case((3, 5), True), False)
        assert w_grad.flags["C_CONTIGUOUS"]
        # add passes one g to both inputs; each keeps its own buffer.
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            y = a + b
            backward(ag.tensor_sum(y * y), tape)
        assert not np.shares_memory(a.grad, b.grad)
        assert y.grad is None  # spent once passed on
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 4.0))

    @pytest.mark.parametrize("x_shape", [(5,), (4, 5)])
    def test_clip_grad_norm_bitwise_equal_to_composition(self, x_shape):
        case = linear_case(x_shape, True, seed=11)
        _, x_grad, w_grad, _ = fused_run(*case, True)
        params = {"x": Tensor(np.zeros(x_shape)), "w": Tensor(np.zeros((5, 5)))}
        params["x"].grad, params["w"].grad = x_grad, w_grad
        norm = clip_grad_norm(params, 1e-3)
        # The reference sums each C-ordered grad's squares, in dict order.
        _, x_ref, w_ref, _ = numpy_run(*case, True)
        ref_norm = np.sqrt(float((x_ref**2).sum()) + float((w_ref**2).sum()))
        assert norm == ref_norm and norm > 1e-3
        scale = 1e-3 / ref_norm
        assert same_bytes(x_grad, x_ref * scale) and same_bytes(w_grad, w_ref * scale)

    def test_overflow_raises(self):
        w = Tensor(np.array([[1e200]]), requires_grad=True)
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(NumericOverflowError):
            with Tape():
                ag.linear(Tensor(np.array([1e200])), w)
        # The product is finite; the bias add overflows.
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(NumericOverflowError):
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

    def test_backward_releases_intermediate_grads(self, monkeypatch):
        # A packed stage-1 step (k=0) and a stage-3 step (k=5): once backward
        # is done only the parameters hold grads, and every one holds one, as
        # Adam.step requires. At k=5 some latents are drawn from retrieved
        # keys and reach the decoder as `z * keep + fixed`, which still passes
        # (zero) grads to the posterior heads.
        cfg = RunConfig.from_file(os.path.join(os.path.dirname(__file__), "..", "configs",
                                               "synthetic.json"))
        model = VaeModel(cfg.model_config(50), seed=0)
        xs, ys = [[5, 6, 7], [8, 9], [10, 11, 12, 13]], [[8, 9, 10, 11], [12], [13, 14]]
        db = build_database([CorpusPair([4 + i, 20 + i % 5], [40 - i]) for i in range(12)], model)
        drawn, draw = [], mixture._component
        monkeypatch.setattr(mixture, "_component",
                            lambda w, gen: drawn.append(draw(w, gen)) or drawn[-1])
        opt = Adam(model.params, model.flat, lr=cfg.learning_rate)
        for k in (0, 5):
            zero_grads(model.params)
            with Tape() as tape:
                _, total = regavae_loss(model, xs, ys, db if k else None, k, 0.5,
                                        [np.random.default_rng([k, b]) for b in range(3)],
                                        kl_floor=cfg.kl_floor)
                backward(total, tape)
            assert all(node.out.grad is None for node in tape.nodes)
            assert [n for n, p in model.params.items() if p.grad is None] == [], k
            opt.step()
        assert opt.t == 2 and any(c > 0 for c in drawn)  # some latent came from a key

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
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(NumericOverflowError):
            with Tape():
                ag.exp(ag.exp(a))

    def test_log_of_nonpositive_raises(self):
        with pytest.warns(RuntimeWarning, match="invalid value"), \
                pytest.raises(NumericOverflowError):
            with Tape():
                ag.log(Tensor(np.array([-1.0])))


def flat_params(values: dict) -> tuple[dict, np.ndarray]:
    """Parameters holding `values`, as C-ordered views of one flat buffer laid
    out in dict order, the layout `VaeModel` gives its parameters."""
    bounds = np.concatenate(([0], np.cumsum([np.size(v) for v in values.values()])))
    flat = np.empty(bounds[-1])
    params = {}
    for (k, v), lo, hi in zip(values.items(), bounds, bounds[1:]):
        view = flat[lo:hi].reshape(np.shape(v))
        view[...] = v
        params[k] = Tensor(view, requires_grad=True)
    return params, flat


class TestOptimizer:
    def test_adam_first_step_size(self):
        # With bias correction, the first Adam step has magnitude ~lr.
        params, flat = flat_params({"p": [1.0, -2.0]})
        p = params["p"]
        p.grad = np.array([0.5, -3.0])
        opt = Adam(params, flat, lr=0.1)
        opt.step()
        np.testing.assert_allclose(p.data, [1.0 - 0.1, -2.0 + 0.1], atol=1e-6)

    def test_adam_converges_on_quadratic(self):
        params, flat = flat_params({"p": [5.0]})
        p = params["p"]
        opt = Adam(params, flat, lr=0.2)
        for _ in range(300):
            zero_grads(params)
            with Tape() as tape:
                backward(ag.tensor_sum((p - 3.0) * (p - 3.0)), tape)
            opt.step()
        assert abs(p.data[0] - 3.0) < 1e-3

    def test_flat_adam_bit_equal_to_per_parameter_reference(self):
        # "big" spans two chunks (32 768 floats each) and ends mid-chunk, as
        # do the small ones.
        rng = np.random.default_rng(21)
        shapes = {"emb": (7, 5), "big": (3, 12000), "mid": (4, 3), "bias": (13,),
                  "w": (6, 9), "scalar": ()}
        values = {k: rng.standard_normal(s) * 10.0 ** rng.uniform(-3, 1) for k, s in shapes.items()}
        params, flat = flat_params(values)
        bounds = np.concatenate(([0], np.cumsum([values[k].size for k in shapes])))
        flat_slice = dict(zip(shapes, (slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]))))

        ref = {k: v.copy() for k, v in values.items()}
        ref_m = {k: np.zeros(s) for k, s in shapes.items()}
        ref_v = {k: np.zeros(s) for k, s in shapes.items()}
        b1, b2, lr, eps = 0.9, 0.999, 3e-3, 1e-8
        opt = Adam(params, flat, lr=lr)
        for t in range(1, 5):
            grads = {k: rng.standard_normal(s) * 10.0 ** rng.uniform(-6, 2)
                     for k, s in shapes.items()}
            grads["w"] = np.asfortranarray(grads["w"])  # a transposed grad copies in too
            for k, p in params.items():
                p.grad = grads[k].copy()
            opt.step()
            b1c, b2c = 1.0 - b1**t, 1.0 - b2**t
            for k, g in grads.items():  # the per-parameter update Adam used to run
                ref_m[k] = b1 * ref_m[k] + (1.0 - b1) * g
                ref_v[k] = b2 * ref_v[k] + (1.0 - b2) * g * g
                ref[k] -= lr * (ref_m[k] / b1c) / (np.sqrt(ref_v[k] / b2c) + eps)
            for k, p in params.items():
                assert same_bytes(p.data, ref[k]), (t, k)
                assert flat[flat_slice[k]].tobytes() == ref[k].tobytes(), (t, k)
                assert opt.m[flat_slice[k]].tobytes() == ref_m[k].tobytes(), (t, k)
                assert opt.v[flat_slice[k]].tobytes() == ref_v[k].tobytes(), (t, k)

    @staticmethod
    def _state(opt):
        return opt.t, opt.m.tobytes(), opt.v.tobytes(), opt.flat.tobytes()

    def test_adam_rejects_a_rebound_parameter(self):
        params, flat = flat_params({"p": np.ones(3)})
        p = params["p"]
        opt = Adam(params, flat, lr=0.1)
        before = self._state(opt)
        p.data = np.ones(3)  # no longer a view of the buffer: updates would be lost
        p.grad = np.ones(3)
        with pytest.raises(ContractError, match="rebound"):
            opt.step()
        assert self._state(opt) == before and opt.t == 0  # raised before any update

    def test_missing_grad_rejected(self):
        params, flat = flat_params({"a": np.ones(3), "b": np.ones(2), "c": np.ones(4)})
        opt = Adam(params, flat, lr=0.1)
        for p in params.values():
            p.grad = np.ones(p.shape)
        opt.step()
        before = self._state(opt)
        params["b"].grad = None
        with pytest.raises(ContractError, match=r"without a grad: \['b'\]$"):
            opt.step()
        assert self._state(opt) == before  # t, m, v and the buffer untouched

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
