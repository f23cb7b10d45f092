"""Autodiff engine tests: every op's gradient is checked against central
finite differences, plus tape-contract and numeric-guard behavior."""

import os
import weakref

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
from regavae.model import ModelConfig, VaeModel
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

    def test_cross_entropy_without_offsets_is_one_segment(self):
        logits = Tensor(RNG.uniform(-2, 2, (5, 4)))
        one = ag.cross_entropy_with_logits(logits, [1, 0, 3, 3, 2])
        assert one.shape == (1,)
        assert one.data.tobytes() == ag.cross_entropy_with_logits(
            logits, [1, 0, 3, 3, 2], [0, 5]).data.tobytes()

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


# A lone row, the bundled config's widths (d_h 32, d_ff 128) and the default
# model's feed-forward width (d_ff 512).
KERNEL_SHAPES = [(1, 32), (1, 512), (37, 32), (41, 128), (29, 512)]


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
    an upstream grad g are g @ w, (x.T @ g).T and the column sums of g. The
    loss hands y the grad c; backward reaches the second application first,
    so its w and b grads come first in each sum."""
    def forward(x):
        y = x @ w.T
        return y if b is None else y + b

    def grads(x, g):
        return g @ w, np.ascontiguousarray((x.T @ g).T), g.sum(axis=0)

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
    # (1, 5) is one row: a lone vector.
    @pytest.mark.parametrize("x_shape", [(1, 5), (3, 5), *KERNEL_SHAPES])
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
        check_grad(lambda x, w: ag.tensor_sum(ag.linear(x, w) * ag.linear(x, w)), (1, 4), (3, 4))

    def test_first_grad_is_taken_over_not_copied(self):
        # dW is the transpose of a fresh product, an F-ordered view that
        # nothing else holds; w keeps that array as its grad.
        _, _, w_grad, _ = fused_run(*linear_case((3, 5), True), False)
        assert w_grad.flags["F_CONTIGUOUS"] and not w_grad.flags["C_CONTIGUOUS"]
        t = Tensor(np.zeros(3), requires_grad=True)
        g = np.array([1.0, 2.0, 3.0])
        t._accum(g)
        assert t.grad is g
        t._accum(np.ones(3))  # later grads are added into it
        assert t.grad is g and g.tolist() == [2.0, 3.0, 4.0]

    @pytest.mark.parametrize("x_shape", [(1, 5), (4, 5)])
    def test_clip_grad_norm_bitwise_equal_to_composition(self, x_shape):
        case = linear_case(x_shape, True, seed=11)
        _, x_grad, w_grad, _ = fused_run(*case, True)
        params, flat = flat_params({"x": np.zeros(x_shape), "w": np.zeros((5, 5))})
        params["x"].grad, params["w"].grad = x_grad, w_grad
        opt = Adam(params, flat, lr=0.1)
        norm = clip_grad_norm(opt, 1e-3)
        # The reference sums each C-ordered grad's squares, in dict order.
        _, x_ref, w_ref, _ = numpy_run(*case, True)
        ref_norm = np.sqrt(float((x_ref**2).sum()) + float((w_ref**2).sum()))
        assert norm == ref_norm and norm > 1e-3
        scale = 1e-3 / ref_norm
        staged = np.concatenate([(x_ref * scale).ravel(), (w_ref * scale).ravel()])
        assert opt.grad.tobytes() == staged.tobytes()

    def test_overflow_raises(self):
        w = Tensor(np.array([[1e200]]), requires_grad=True)
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(NumericOverflowError):
            with Tape():
                ag.linear(Tensor(np.array([[1e200]])), w)
        # The product is finite; the bias add overflows.
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(NumericOverflowError):
            with Tape():
                ag.linear(Tensor(np.array([[1.5e308]])), Tensor(np.array([[1.0]])),
                          Tensor(np.array([1e308])))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("source", ["product", "product with bias", "bias add"])
    def test_non_finite_raises(self, value, source):
        # One check after the bias add catches a non-finite product as well.
        x, w, b = np.ones((2, 3)), np.full((4, 3), 0.5), np.zeros(4)
        if source == "bias add":
            b[1] = value
        else:
            x[1, 2] = value
        bias = None if source == "product" else Tensor(b)
        with np.errstate(all="ignore"), pytest.raises(NumericOverflowError):
            with Tape():
                ag.linear(Tensor(x), Tensor(w, requires_grad=True), bias)

    @pytest.mark.parametrize("x_shape,w_shape,b_shape", [
        ((2, 3, 4), (5, 4), None), ((4,), (4,), None), ((2, 4), (5, 3), None),
        ((2, 4), (5, 4), (4,)), ((2, 4), (5, 4), (1, 5)),
    ])
    def test_bad_shapes_raise(self, x_shape, w_shape, b_shape):
        b = None if b_shape is None else Tensor(np.zeros(b_shape))
        with pytest.raises(DimensionError):
            ag.linear(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), b)

    def test_lone_vector_rejected(self):
        # A lone vector goes in as a (1, in) row stack.
        with pytest.raises(DimensionError, match=r"2-D x and w, got \(4,\)"):
            ag.linear(Tensor(np.zeros(4)), Tensor(np.zeros((3, 4))))

    def test_one_document_tape_length_on_bundled_config(self):
        # Pinned: a change here changes the per-op overhead of every step.
        cfg = RunConfig.from_file(os.path.join(os.path.dirname(__file__), "..", "configs",
                                               "synthetic.json"))
        model = VaeModel(cfg.model_config(50), seed=0)
        with Tape() as tape:
            regavae_loss(model, [5, 6, 7], [8, 9, 10, 11], None, 0, 0.5,
                         np.random.default_rng(0), kl_floor=cfg.kl_floor)
        assert len(tape.nodes) == 106


# gelu and layer_norm as plain numpy expressions. The ops' in-place ufunc
# chains must give the same bits.
GELU_C = np.sqrt(2.0 / np.pi)


def gelu_reference(xd, g):
    """(output, input grad for upstream grad g)."""
    inner = GELU_C * (xd + 0.044715 * (xd * xd * xd))
    t = np.tanh(inner)
    out = 0.5 * xd * (1.0 + t)
    dinner = GELU_C * (1.0 + 3 * 0.044715 * xd**2)
    dx = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner
    return out, g * dx


def layer_norm_reference(x, gain, bias, g):
    """(output, x grad, gain grad, bias grad for upstream grad g)."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mu) * inv
    out = xhat * gain + bias
    dxhat = g * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return out, inv * (dxhat - m1 - xhat * m2), (g * xhat).sum(axis=0), g.sum(axis=0)


def cross_entropy_reference(z, tgt, offsets, g):
    """(per-segment mean NLL, logits grad for upstream grad g), with the
    backward as one expression."""
    m = z.max(axis=-1, keepdims=True)
    logp = z - (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))
    n, lengths = len(tgt), np.diff(offsets)
    out = np.add.reduceat(-logp[np.arange(n), tgt], offsets[:-1]) / lengths
    p = np.exp(logp)
    p[np.arange(n), tgt] -= 1.0
    return out, p * np.repeat(g / lengths, lengths)[:, None]


def attention_reference(q, k, v, offsets, causal, start, heads, g):
    """(output, q, k and v grads for upstream grad g) of `ag.attention`,
    segment lengths grouped as the op groups them, with ds as one
    expression."""
    rows, d = q.shape
    dk, lengths = d // heads, np.diff(offsets)
    scale = 1.0 / np.sqrt(dk)
    if lengths.min() == lengths.max():
        groups = [(None, None, int(lengths[0]))]
    else:
        key_starts = offsets[:-1] + start * np.arange(lengths.size)
        groups = [(offsets[:-1][lengths == n, None] + np.arange(n),
                   key_starts[lengths == n, None] + np.arange(n + start), int(n))
                  for n in np.unique(lengths)]

    def split(x, idx, n):
        blocks = x.reshape(-1, n, d) if idx is None else x[idx]
        return blocks.reshape(-1, n, heads, dk).transpose(0, 2, 1, 3)

    def merge(x, idx, out):
        out[slice(None) if idx is None else idx.reshape(-1)] = \
            x.transpose(0, 2, 1, 3).reshape(-1, d)

    out, gq, gk, gv = (np.empty_like(a) for a in (q, q, k, v))
    for qi, ki, n in groups:
        m = n + start
        s = (split(q, qi, n) @ split(k, ki, m).transpose(0, 1, 3, 2)) * scale
        if causal and n > 1:
            s[..., np.triu(np.ones((n, m), dtype=bool), k=start + 1)] = -np.inf
        s = np.exp(s - s.max(axis=-1, keepdims=True))
        p = s / s.sum(axis=-1, keepdims=True)
        merge(p @ split(v, ki, m), qi, out)
        go = split(g, qi, n)
        merge(p.transpose(0, 1, 3, 2) @ go, ki, gv)
        dp = go @ split(v, ki, m).transpose(0, 1, 3, 2)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * scale
        merge(ds @ split(k, ki, m), qi, gq)
        merge(ds.transpose(0, 1, 3, 2) @ split(q, qi, n), ki, gk)
    return out, gq, gk, gv


class TestSameBitsKernels:
    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_gelu(self, shape):
        rng = np.random.default_rng(shape)
        x, c = rng.standard_normal(shape) * 3.0, rng.standard_normal(shape)
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            y = ag.gelu(xt)
            backward(ag.tensor_sum(y * Tensor(c)), tape)
        out, gx = gelu_reference(x, c)
        assert same_bytes(y.data, out) and same_bytes(xt.grad, gx)

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_layer_norm(self, shape):
        rng = np.random.default_rng(shape)
        x = rng.standard_normal(shape) * 2.0 + 0.7
        gain, bias = 1.0 + 0.1 * rng.standard_normal(shape[1]), rng.standard_normal(shape[1])
        c = rng.standard_normal(shape)
        ts = [Tensor(a, requires_grad=True) for a in (x, gain, bias)]
        with Tape() as tape:
            y = ag.layer_norm(*ts)
            backward(ag.tensor_sum(y * Tensor(c)), tape)
        ref = layer_norm_reference(x, gain, bias, c)
        for name, a, b in zip(("out", "x.grad", "gain.grad", "bias.grad"),
                              (y.data, *(t.grad for t in ts)), ref):
            assert same_bytes(a, b), name


    # Segments of 1, 39, 5 and 95 rows; the 5-row one gets an all -0.0 grad.
    @pytest.mark.parametrize("width", [2, 32, 128])
    @pytest.mark.parametrize("upstream_order", ["C", "F"])
    def test_segment_repeat(self, width, upstream_order):
        # The gather and scatter of embedding_lookup with each row's segment
        # id, whose backward is np.add.at into zeros.
        offsets = np.array([0, 1, 40, 45, 140])
        seg = np.repeat(np.arange(4), np.diff(offsets))
        rng = np.random.default_rng(width)
        x = rng.standard_normal((4, width))
        g = rng.standard_normal((140, width)) * 10.0 ** rng.uniform(-6, 6, (140, width))
        g[40:45] = -0.0
        runs = []
        for op in (lambda t: ag.segment_repeat(t, offsets), lambda t: ag.embedding_lookup(t, seg)):
            t = Tensor(x, requires_grad=True)
            with Tape() as tape:
                y = op(t)
            # The op's backward, handed g in either memory order.
            (_, bwd), = tape.nodes
            bwd(np.asarray(g, order=upstream_order))
            runs.append((y.data, t.grad))
        (out, grad), (ref_out, ref_grad) = runs
        assert same_bytes(out, ref_out) and same_bytes(grad, ref_grad)
        assert not np.signbit(grad[2]).any()  # +0.0, as the scatter gives

    def test_segment_repeat_rejects_bad_offsets(self):
        for x_shape, offsets in (((2, 3), [0, 4]), ((2, 3), [0, 0, 4]), ((3,), [0, 1, 2, 3])):
            with pytest.raises(DimensionError):
                ag.segment_repeat(Tensor(np.zeros(x_shape)), offsets)

    @pytest.mark.parametrize("offsets", [[0, 7], [0, 1, 4, 12, 13]])
    def test_cross_entropy(self, offsets):
        rng = np.random.default_rng(len(offsets))
        n = offsets[-1]
        z, tgt = rng.standard_normal((n, 11)) * 3.0, rng.integers(0, 11, n)
        c = rng.standard_normal(len(offsets) - 1)
        zt = Tensor(z, requires_grad=True)
        with Tape() as tape:
            y = ag.cross_entropy_with_logits(zt, tgt, offsets)
            backward(ag.tensor_sum(y * Tensor(c)), tape)
        out, gz = cross_entropy_reference(z, tgt, np.array(offsets), c)
        assert same_bytes(y.data, out) and same_bytes(zt.grad, gz)

    # (segment boundaries, causal, cached rows, heads): one length (split by
    # reshape), ragged lengths (gathered), and a decode step's one row per
    # segment after cached rows. The op takes no cached rows; its kernel
    # takes them for `VaeModel._decode_step`.
    @pytest.mark.parametrize("offsets,causal,start,heads", [
        ([0, 9, 18, 27], False, 0, 4), ([0, 5, 17, 22, 23], True, 0, 4),
        ([0, 1, 2, 3], True, 6, 2), ([0, 2, 5], True, 3, 1),
    ])
    def test_attention(self, offsets, causal, start, heads, attention_groups):
        rng = np.random.default_rng(offsets[-1] + start)
        rows, d = offsets[-1], 32
        keys = rows + start * (len(offsets) - 1)
        q, c = rng.standard_normal((rows, d)), rng.standard_normal((rows, d))
        k, v = rng.standard_normal((keys, d)), rng.standard_normal((keys, d))
        ref = attention_reference(q, k, v, np.array(offsets), causal, start, heads, c)
        assert same_bytes(attention_groups(q, k, v, offsets, causal, start, heads), ref[0])
        if start:  # cached rows are the decode step's; only the kernel takes them
            return
        ts = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        with Tape() as tape:
            y = ag.attention(*ts, offsets, causal, heads)
            backward(ag.tensor_sum(y * Tensor(c)), tape)
        for name, a, b in zip(("out", "q.grad", "k.grad", "v.grad"),
                              (y.data, *(t.grad for t in ts)), ref):
            assert same_bytes(a, b), name

    @pytest.mark.parametrize("axis", [None, 0, 1, 2])
    def test_tensor_sum(self, axis):
        # _fuse's rank sum is axis 1 of (rows, r, d_h).
        x = np.random.default_rng(4).standard_normal((37, 4, 32)) * 1e3
        assert same_bytes(np.asarray(ag.tensor_sum(Tensor(x), axis).data), np.asarray(x.sum(axis=axis)))


def _ln_grads(x, gain, bias, c):
    return layer_norm_reference(x, gain, bias, c)[1:]


# name: (input shapes then the shape of the constant c, loss of the inputs and
# c, each input's expected grad from the input arrays and c). The expected
# values are what the ops compute, term for term.
OWNERSHIP_CASES = {
    "a + b": ([(2, 3), (2, 3), (2, 3)], lambda a, b, c: ag.tensor_sum((a + b) * c),
              lambda a, b, c: (c, c)),
    "x + x": ([(2, 3), (2, 3)], lambda x, c: ag.tensor_sum((x + x) * c),
              lambda x, c: (c + c,)),
    "x - x": ([(2, 3), (2, 3)], lambda x, c: ag.tensor_sum((x - x) * c),
              lambda x, c: (c + -c,)),
    "broadcast add": ([(3, 4), (4,), (3, 4)], lambda a, b, c: ag.tensor_sum((a + b) * c),
                      lambda a, b, c: (c, c.sum(axis=0))),
    # add hands g to the first reshape's output and a copy to w; the reshapes
    # then hand x views of g.
    "reshape chain": ([(3, 4), (4, 3), (12,)],
                      lambda x, w, c: ag.tensor_sum(
                          ag.reshape(ag.reshape(x, (4, 3)) + w, (12,)) * c),
                      lambda x, w, c: (c.reshape(3, 4), c.reshape(4, 3))),
    # A reduction to shape () gives a numpy scalar; the grad is still an array.
    "0-d times vector": ([(), (3,), (3,)], lambda s, v, c: ag.tensor_sum(s * v * c),
                         lambda s, v, c: (np.add.reduce(c * v), c * s)),
    "layer_norm gain and bias": ([(5, 6), (6,), (6,), (5, 6)],
                                 lambda x, g, b, c: ag.tensor_sum(ag.layer_norm(x, g, b) * c),
                                 _ln_grads),
    # A lone row's bias takes layer_norm's g itself, which must stay intact
    # until the op has read it, also when the bias is the gain.
    "layer_norm one row, gain is bias": (
        [(6,), (6,), (6,)],
        lambda x, t, c: ag.tensor_sum(ag.layer_norm(x, t, t) * c),
        lambda x, t, c: (lambda gx, gg, gb: (gx[0], gg + gb))(
            *_ln_grads(x[None], t, t, c[None]))),
}


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

    def test_backward_drops_every_closure_and_keeps_the_count(self):
        # The closures, and the arrays their ops saved, are freed by the
        # walk, including a node off the loss path, whose closure never runs;
        # the node count stays, as profiling reads it after backward.
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        with Tape() as tape:
            ag.exp(b)
            loss = ag.tensor_sum(ag.tanh(a * a))
        outs = [out for out, _ in tape.nodes]
        closures = [weakref.ref(bwd) for _, bwd in tape.nodes]
        backward(loss, tape)
        assert len(tape.nodes) == 4 and all(o is out for o, (out, _) in zip(outs, tape.nodes))
        assert all(bwd is None for _, bwd in tape.nodes)
        assert all(ref() is None for ref in closures)

    def test_backward_releases_intermediate_grads(self, monkeypatch):
        # A packed stage-1 step (k=0) and a stage-3 step (k=5): once backward
        # is done only the parameters hold grads, and every one holds one, as
        # clip_grad_norm requires; the step then releases them. At k=5 some
        # latents are drawn from retrieved keys and reach the decoder as
        # `z * keep + fixed`, which still passes (zero) grads to the posterior
        # heads.
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
            with Tape() as tape:
                _, total = regavae_loss(model, xs, ys, db if k else None, k, 0.5,
                                        [np.random.default_rng([k, b]) for b in range(3)],
                                        kl_floor=cfg.kl_floor)
                backward(total, tape)
            assert all(out.grad is None for out, _ in tape.nodes)
            assert [n for n, p in model.params.items() if p.grad is None] == [], k
            clip_grad_norm(opt, cfg.grad_clip)
            opt.step()
            assert all(p.grad is None for p in model.params.values())
        assert opt.t == 2 and any(c > 0 for c in drawn)  # some latent came from a key

    @pytest.mark.parametrize("case", sorted(OWNERSHIP_CASES))
    def test_no_two_grads_share_memory(self, case):
        # Each tensor owns its grad once backward is done, so a later += into
        # one grad cannot change another; every grad has its value.
        shapes, build, expected = OWNERSHIP_CASES[case]
        rng = np.random.default_rng(3)
        arrays = [rng.standard_normal(s) for s in shapes]
        ts = [Tensor(a, requires_grad=True) for a in arrays[:-1]]
        with Tape() as tape:
            backward(build(*ts, Tensor(arrays[-1])), tape)
        assert all(out.grad is None for out, _ in tape.nodes)
        grads = [t.grad for t in ts]
        assert all(type(g) is np.ndarray for g in grads)
        for i, gi in enumerate(grads):
            for gj in grads[i + 1:]:
                assert not np.shares_memory(gi, gj)
        for got, want in zip(grads, expected(*arrays)):
            assert same_bytes(np.ascontiguousarray(got), np.ascontiguousarray(want))

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
        clip_grad_norm(opt, 0.0)  # max_norm 0 stages without clipping
        opt.step()
        np.testing.assert_allclose(p.data, [1.0 - 0.1, -2.0 + 0.1], atol=1e-6)

    def test_adam_converges_on_quadratic(self):
        params, flat = flat_params({"p": [5.0]})
        p = params["p"]
        opt = Adam(params, flat, lr=0.2)
        for _ in range(300):
            with Tape() as tape:
                backward(ag.tensor_sum((p - 3.0) * (p - 3.0)), tape)
            clip_grad_norm(opt, 0.0)
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
            clip_grad_norm(opt, 0.0)
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
        return opt.t, opt.m.tobytes(), opt.v.tobytes(), opt.flat.tobytes(), opt.grad.tobytes()

    def test_adam_rejects_a_rebound_parameter(self):
        params, flat = flat_params({"p": np.ones(3)})
        p = params["p"]
        opt = Adam(params, flat, lr=0.1)
        p.data = np.ones(3)  # no longer a view of the buffer: updates would be lost
        p.grad = np.ones(3)
        clip_grad_norm(opt, 1.0)
        before = self._state(opt)
        with pytest.raises(ContractError, match="rebound"):
            opt.step()
        assert self._state(opt) == before and opt.t == 0  # raised before any update

    def test_missing_grad_rejected(self):
        params, flat = flat_params({"a": np.ones(3), "b": np.ones(2), "c": np.ones(4)})
        opt = Adam(params, flat, lr=0.1)
        for p in params.values():
            p.grad = np.ones(p.shape)
        clip_grad_norm(opt, 1.0)
        opt.step()
        for p in params.values():
            p.grad = np.full(p.shape, 2.0)
        params["b"].grad = None
        before = self._state(opt)
        with pytest.raises(ContractError, match=r"without a grad: \['b'\]$"):
            clip_grad_norm(opt, 1.0)
        # t, m, v, the parameters and the grad buffer untouched; nothing staged
        assert self._state(opt) == before
        with pytest.raises(ContractError, match="no grads staged"):
            opt.step()
        assert self._state(opt) == before

    def test_step_without_fresh_staging_rejected(self):
        # A step needs a clip since the last step, and a clip needs grads from
        # a backward since the last step, which released the ones it applied.
        params, flat = flat_params({"a": np.ones(3), "b": np.ones(2)})
        opt = Adam(params, flat, lr=0.1)
        for p in params.values():
            p.grad = np.full(p.shape, 0.5)
        before = self._state(opt)
        with pytest.raises(ContractError, match="no grads staged"):
            opt.step()  # grads present, but no clip staged them
        assert self._state(opt) == before
        clip_grad_norm(opt, 1.0)
        opt.step()
        assert all(p.grad is None for p in params.values())
        before = self._state(opt)
        with pytest.raises(ContractError, match="no grads staged"):
            opt.step()  # a second step on the buffer the first one used
        with pytest.raises(ContractError, match=r"without a grad: \['a', 'b'\]$"):
            clip_grad_norm(opt, 1.0)  # a clip with no new backward
        assert self._state(opt) == before
        for p in params.values():
            p.grad = np.full(p.shape, 0.5)
        clip_grad_norm(opt, 1.0)
        opt.step()
        assert opt.t == 2

    def test_clip_grad_norm(self):
        params, flat = flat_params({"a": np.zeros(2), "b": np.zeros(2)})
        params["a"].grad = np.array([3.0, 0.0])
        params["b"].grad = np.array([0.0, 4.0])
        opt = Adam(params, flat, lr=0.1)
        assert clip_grad_norm(opt, 1.0) == 5.0  # the norm before clipping
        assert abs(np.sqrt(np.sum(opt.grad ** 2)) - 1.0) < 1e-12
        np.testing.assert_allclose(opt.grad, [0.6, 0.0, 0.0, 0.8])
        np.testing.assert_array_equal(params["a"].grad, [3.0, 0.0])  # scaled where staged

    def test_clip_noop_below_threshold(self):
        params, flat = flat_params({"a": np.zeros(2)})
        params["a"].grad = np.array([0.3, 0.4])
        opt = Adam(params, flat, lr=0.1)
        assert clip_grad_norm(opt, 1.0) == np.sqrt(0.3**2 + 0.4**2)
        assert opt.grad.tobytes() == np.array([0.3, 0.4]).tobytes()  # staged, unscaled

    @pytest.mark.parametrize("config", ["bundled", "default"])
    def test_staged_clip_bit_equal_to_per_parameter_clip(self, config):
        # Every parameter shape of the model, a transposed grad among them:
        # the staged clip gives the norm and scaled grads of the loop over
        # p.grad it replaced (which Adam then copied into its buffer).
        if config == "bundled":
            cfg = RunConfig.from_file(os.path.join(os.path.dirname(__file__), "..", "configs",
                                                   "synthetic.json")).model_config(50)
        else:
            cfg = ModelConfig(vocab_size=500)
        model = VaeModel(cfg, seed=0)
        rng = np.random.default_rng(8)
        grads = {k: rng.standard_normal(p.shape) * 10.0 ** rng.uniform(-4, 1)
                 for k, p in model.params.items()}
        for k, p in model.params.items():
            p.grad = grads[k]
        model.params["enc.0.ff.w1"].grad = np.asfortranarray(grads["enc.0.ff.w1"])
        opt = Adam(model.params, model.flat, lr=0.1)
        norm = clip_grad_norm(opt, 1e-2)
        sq = 0.0
        for g in grads.values():  # C-ordered, as the staged slices are
            sq += float((g**2).sum())
        ref_norm = np.sqrt(sq)
        assert norm == float(ref_norm) and norm > 1e-2
        scale = 1e-2 / ref_norm
        ref = np.concatenate([np.ascontiguousarray(g * scale).ravel() for g in grads.values()])
        assert opt.grad.tobytes() == ref.tobytes()


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
