"""Dense float64 tensors with reverse-mode automatic differentiation.

Operations executed inside a `Tape` context are recorded define-by-run;
`backward` replays the tape in reverse creation order, which is a valid
topological order. Outside a tape everything runs as plain numpy (inference
mode). A tape is single-use: calling `backward` twice raises.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .errors import ContractError, DimensionError, NumericOverflowError

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "add",
    "sub",
    "mul",
    "matmul",
    "linear",
    "softmax",
    "exp",
    "log",
    "tanh",
    "gelu",
    "clamp",
    "reshape",
    "tensor_sum",
    "tensor_mean",
    "segment_mean",
    "layer_norm",
    "attention",
    "embedding_lookup",
    "cross_entropy_with_logits",
    "Adam",
    "check_views",
    "clip_grad_norm",
    "zero_grads",
]


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericOverflowError(f"{op} produced non-finite values")


class Tensor:
    """Dense float64 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            # A C-ordered copy: a transposed view of g would keep F order,
            # and clip_grad_norm's sum would then add in a different order.
            # The copy also keeps two tensors from sharing one buffer.
            self.grad = np.array(g, dtype=np.float64, order="C")
        else:
            self.grad += g

    # Operator sugar; constants are wrapped as non-grad tensors.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return mul(self, Tensor(np.float64(-1.0)))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


class _Node:
    __slots__ = ("out", "bwd")

    def __init__(self, out, bwd):
        self.out = out
        self.bwd = bwd


class Tape:
    """Ordered record of operations for one forward pass."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPES.pop()
        return False


_TAPES: list[Tape] = []


def _record(out: Tensor, inputs: tuple, bwd) -> Tensor:
    if _TAPES:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                _TAPES[-1].nodes.append(_Node(out, bwd))
                break
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(t) into t.grad for the tensors the tape's ops read.

    Gradients are allocated on first use, so a tensor that does not
    influence the loss keeps `grad is None`. An op's output drops its grad
    once the op has passed it on, so afterwards only leaves (parameters and
    inputs) hold one. The tape is consumed: a second call raises
    ContractError.
    """
    if loss.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if tape.consumed:
        raise ContractError("tape already consumed by a previous backward call")
    loss._accum(np.ones_like(loss.data))
    for node in reversed(tape.nodes):
        if node.out.grad is not None:
            node.bwd(node.out.grad)
            node.out.grad = None
    tape.consumed = True


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)
    _check_finite(out.data, "add")

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.shape))

    return _record(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)
    _check_finite(out.data, "sub")

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g, b.shape))

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)
    _check_finite(out.data, "mul")

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.shape))

    return _record(out, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of two 2-D tensors."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul needs 2-D operands with equal inner dimensions, "
                             f"got {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data)
    _check_finite(out.data, "matmul")

    def bwd(g):
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            b._accum(a.data.T @ g)

    return _record(out, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map x @ w.T (+ b) of a row (1-D x) or the rows of 2-D x, as one
    tape node; w is (out, in)."""
    if x.ndim not in (1, 2) or w.ndim != 2:
        raise DimensionError(f"linear needs 1-D/2-D x and 2-D w, got {x.shape} and {w.shape}")
    if x.shape[-1] != w.shape[1]:
        raise DimensionError(f"linear inner dimensions differ: {x.shape} x {w.shape}.T")
    if b is not None and b.shape != (w.shape[0],):
        raise DimensionError(f"linear bias must have shape ({w.shape[0]},), got {b.shape}")
    x2 = x.data.reshape(1, -1) if x.ndim == 1 else x.data
    wd = w.data
    out_data = x2 @ wd.T
    g_shape = out_data.shape
    if x.ndim == 1:
        out_data = out_data.reshape(-1)
    _check_finite(out_data, "linear product")
    if b is not None:
        out_data = out_data + b.data
        _check_finite(out_data, "linear bias add")
    out = Tensor(out_data)

    def bwd(g):
        if b is not None and b.requires_grad:
            b._accum(_unbroadcast(g, b.shape))
        g2 = g.reshape(g_shape)
        if x.requires_grad:
            x._accum((g2 @ wd).reshape(x.shape))
        if w.requires_grad:
            w._accum((x2.T @ g2).T)

    return _record(out, (x, w) if b is None else (x, w, b), bwd)


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------

def softmax(v: Tensor) -> Tensor:
    """Numerically stable softmax along the last axis (max-subtraction)."""
    if v.size == 0:
        raise DimensionError("softmax of an empty tensor")
    e = np.exp(v.data - v.data.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p)
    _check_finite(out.data, "softmax")

    def bwd(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        v._accum(p * (g - dot))

    return _record(out, (v,), bwd)


def exp(x: Tensor) -> Tensor:
    out = Tensor(np.exp(x.data))
    _check_finite(out.data, "exp")

    def bwd(g):
        x._accum(g * out.data)

    return _record(out, (x,), bwd)


def log(x: Tensor) -> Tensor:
    out = Tensor(np.log(x.data))
    _check_finite(out.data, "log")

    def bwd(g):
        x._accum(g / x.data)

    return _record(out, (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    out = Tensor(t)

    def bwd(g):
        x._accum(g * (1.0 - t * t))

    return _record(out, (x,), bwd)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU."""
    xd = x.data
    # xd * xd * xd, not xd**3: numpy's power has no fast path for a cube.
    inner = _GELU_C * (xd + 0.044715 * (xd * xd * xd))
    t = np.tanh(inner)
    out = Tensor(0.5 * xd * (1.0 + t))

    def bwd(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * xd**2)
        dx = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner
        x._accum(g * dx)

    return _record(out, (x,), bwd)


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only inside the interval."""
    out = Tensor(np.clip(x.data, lo, hi))
    mask = (x.data >= lo) & (x.data <= hi)

    def bwd(g):
        x._accum(g * mask)

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------

def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def bwd(g):
        x._accum(g.reshape(x.shape))

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def tensor_sum(x: Tensor, axis=None) -> Tensor:
    out = Tensor(x.data.sum(axis=axis))

    def bwd(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        x._accum(np.broadcast_to(gg, x.shape).copy() if np.ndim(gg) else np.full(x.shape, gg))

    return _record(out, (x,), bwd)


def tensor_mean(x: Tensor) -> Tensor:
    """Mean of all elements, a scalar."""
    out = Tensor(x.data.mean())

    def bwd(g):
        x._accum(np.full(x.shape, g / x.size))

    return _record(out, (x,), bwd)


def _segments(offsets, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(starts, lengths) of the nonempty segments that `offsets` (B+1
    increasing boundaries, 0 first and `rows` last) cut the rows into."""
    off = np.asarray(offsets, dtype=np.int64)
    lengths = off[1:] - off[:-1]
    if off.ndim != 1 or off.size < 2 or off[0] != 0 or off[-1] != rows or lengths.min() < 1:
        raise DimensionError(f"offsets {off.tolist()} do not cut {rows} rows into "
                             "nonempty segments")
    return off[:-1], lengths


def segment_mean(x: Tensor, offsets) -> Tensor:
    """Mean over the rows of each segment of 2-D x: (rows, d) -> (B, d)."""
    if x.ndim != 2:
        raise DimensionError(f"segment_mean needs a 2-D tensor, got {x.shape}")
    starts, lengths = _segments(offsets, x.shape[0])
    out = Tensor(np.add.reduceat(x.data, starts, axis=0) / lengths[:, None])

    def bwd(g):
        x._accum(np.repeat(g / lengths[:, None], lengths, axis=0))

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# Neural-net primitives
# ---------------------------------------------------------------------------

def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis (variance plus 1e-5), then scale and shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x.data - mu) * inv
    out = Tensor(xhat * gain.data + bias.data)
    _check_finite(out.data, "layer_norm")

    def bwd(g):
        if bias.requires_grad:
            bias._accum(_unbroadcast(g, bias.shape))
        if gain.requires_grad:
            gain._accum(_unbroadcast(g * xhat, gain.shape))
        if x.requires_grad:
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            x._accum(inv * (dxhat - m1 - xhat * m2))

    return _record(out, (x, gain, bias), bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, offsets, causal: bool = False,
              start: int = 0, heads: int = 1) -> Tensor:
    """Multi-head scaled dot-product attention within packed segments, as
    one tape node.

    Rows offsets[i]:offsets[i+1] of q (B+1 boundaries) are segment i, at
    positions start, start+1, ... of that segment. Segment i's keys and
    values are `start` earlier (cached) rows followed by one row per query
    row, so k and v have offsets[-1] + B * start rows, segment by segment.
    Head h is columns h*dk:(h+1)*dk. No row sees another segment; with
    `causal`, a row sees only the keys at or before its own position.

    Segments of one length share one batched product, so a pack costs a
    loop over its distinct lengths, with no padding. Only the softmax
    probabilities are kept for the backward, which is written out by hand."""
    if q.ndim != 2 or k.shape != v.shape or k.ndim != 2 or q.shape[1] != k.shape[1]:
        raise DimensionError(f"attention needs 2-D q, k, v of one width, got "
                             f"{q.shape}, {k.shape}, {v.shape}")
    rows, d = q.shape
    if heads < 1 or d % heads or start < 0:
        raise DimensionError(f"attention cannot split width {d} into {heads} heads "
                             f"after {start} cached rows")
    starts, lengths = _segments(offsets, rows)
    if k.shape[0] != rows + start * lengths.size:
        raise DimensionError(f"attention over {lengths.size} segments of {start} cached "
                             f"and {rows} new rows got {k.shape[0]} keys")
    dk = d // heads
    scale = 1.0 / np.sqrt(dk)
    # (query rows, key rows, length) per distinct segment length. Segments of
    # one length are blocks of consecutive rows, so when there is only one
    # length a reshape splits them (rows None); otherwise each length's
    # segments are gathered by (segments, rows) index arrays.
    if lengths.min() == lengths.max():
        groups = [(None, None, int(lengths[0]))]
    else:
        key_starts = starts + start * np.arange(lengths.size)
        groups = []
        for n in np.unique(lengths):
            segs = lengths == n
            groups.append((starts[segs, None] + np.arange(n),
                           key_starts[segs, None] + np.arange(n + start), int(n)))

    def split(x, idx, n):  # -> (segments, heads, n, dk)
        blocks = x.reshape(-1, n, d) if idx is None else x[idx]
        return blocks.reshape(-1, n, heads, dk).transpose(0, 2, 1, 3)

    def merge(x, idx, out):  # inverse of split, written into out's rows
        x = x.transpose(0, 2, 1, 3).reshape(-1, d)
        if idx is None:
            out[:] = x
        else:
            out[idx.reshape(-1)] = x

    out_data = np.empty_like(q.data)
    probs = []
    for qi, ki, n in groups:
        s = (split(q.data, qi, n) @ split(k.data, ki, n + start).transpose(0, 1, 3, 2)) * scale
        if causal and n > 1:
            s[..., np.triu(np.ones((n, n + start), dtype=bool), k=start + 1)] = -np.inf
        s = np.exp(s - s.max(axis=-1, keepdims=True))
        p = s / s.sum(axis=-1, keepdims=True)
        probs.append(p)
        merge(p @ split(v.data, ki, n + start), qi, out_data)
    out = Tensor(out_data)
    _check_finite(out.data, "attention")

    def bwd(g):
        gq, gk, gv = np.empty_like(q.data), np.empty_like(k.data), np.empty_like(v.data)
        for (qi, ki, n), p in zip(groups, probs):
            m = n + start
            go = split(g, qi, n)
            merge(p.transpose(0, 1, 3, 2) @ go, ki, gv)
            dp = go @ split(v.data, ki, m).transpose(0, 1, 3, 2)
            ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * scale
            merge(ds @ split(k.data, ki, m), qi, gq)
            merge(ds.transpose(0, 1, 3, 2) @ split(q.data, qi, n), ki, gk)
        for t, gt in ((q, gq), (k, gk), (v, gv)):
            if t.requires_grad:
                t._accum(gt)

    return _record(out, (q, k, v), bwd)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of `table` selected by integer ids; backward scatter-adds."""
    idx = np.asarray(ids, dtype=np.int64)
    out = Tensor(table.data[idx])

    def bwd(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx, g)

    return _record(out, (table,), bwd)


def cross_entropy_with_logits(logits: Tensor, targets, offsets=None) -> Tensor:
    """Mean negative log-likelihood in nats; targets are class ids. With
    `offsets` (B+1 segment boundaries over the rows), the mean of each
    segment's rows, shape (B,)."""
    tgt = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2 or tgt.ndim != 1 or logits.shape[0] != tgt.shape[0]:
        raise DimensionError(
            f"cross_entropy expects (n, V) logits and (n,) targets, got {logits.shape} and {tgt.shape}"
        )
    z = logits.data
    m = z.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))
    logp = z - lse
    n = tgt.shape[0]
    rows = -logp[np.arange(n), tgt]
    if offsets is None:
        nll = np.float64(rows.mean())
    else:
        starts, lengths = _segments(offsets, n)
        nll = np.add.reduceat(rows, starts) / lengths
    out = Tensor(nll)
    _check_finite(out.data, "cross_entropy_with_logits")

    def bwd(g):
        p = np.exp(logp)
        p[np.arange(n), tgt] -= 1.0
        if offsets is None:
            logits._accum(float(g) * p / n)
        else:
            logits._accum(p * np.repeat(g / lengths, lengths)[:, None])

    return _record(out, (logits,), bwd)


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------

def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


def clip_grad_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all grads so their global L2 norm is at most max_norm."""
    sq = 0.0
    for p in params.values():
        if p.grad is not None:
            sq += float((p.grad**2).sum())
    norm = np.sqrt(sq)
    if norm > max_norm > 0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return float(norm)


def check_views(params: dict[str, Tensor], flat: np.ndarray) -> None:
    """Raise ContractError if a parameter was rebound off `flat`, the buffer Adam and saves use."""
    for name, p in params.items():
        if p.data.base is not flat:
            raise ContractError(f"parameter {name!r} was rebound off the parameter buffer")


# Floats per Adam update chunk: each chunk's operands and the two scratch
# arrays (256 KB each) stay in cache across the chunk's fourteen ufunc calls.
_CHUNK = 32768
# Adam's default settings (Kingma & Ba 2015), the only ones any run uses.
_B1, _B2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam (beta1 0.9, beta2 0.999, eps 1e-8) over a named parameter dict whose
    values are C-ordered views of `flat` in dict order, as `VaeModel` lays them
    out. `step` first checks that no parameter was rebound and that every one
    holds a grad, raising ContractError before it changes anything. It then
    copies the grads into a staging buffer laid out like `flat` and the moments
    `m` and `v`, and updates all three in place, chunk by chunk with ufuncs, in
    the per-element order `m = b1*m + (1-b1)*g`, `v = b2*v + ((1-b2)*g)*g`,
    `p -= (lr*(m/b1c)) / (sqrt(v/b2c)+eps)`."""

    def __init__(self, params: dict[str, Tensor], flat: np.ndarray, lr: float):
        self.params = params
        self.flat = flat
        self.lr = lr
        self.t = 0
        bounds = [0, *accumulate(p.data.size for p in params.values())]
        n = bounds[-1]
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self._grad = np.empty(n)
        self._grads = [self._grad[lo:hi].reshape(p.data.shape)
                       for p, lo, hi in zip(params.values(), bounds, bounds[1:])]
        self._scratch = np.empty((2, min(n, _CHUNK)))

    def step(self) -> None:
        check_views(self.params, self.flat)
        missing = [name for name, p in self.params.items() if p.grad is None]
        if missing:
            raise ContractError(f"parameters without a grad: {missing}")
        for g, p in zip(self._grads, self.params.values()):
            np.copyto(g, p.grad)
        self.t += 1
        b1c = 1.0 - _B1**self.t
        b2c = 1.0 - _B2**self.t
        n = self._grad.size
        for c in range(0, n, _CHUNK):
            e = min(c + _CHUNK, n)
            m, v, g, p = self.m[c:e], self.v[c:e], self._grad[c:e], self.flat[c:e]
            a, b = self._scratch[:, :e - c]
            np.multiply(m, _B1, out=m)
            np.multiply(g, 1.0 - _B1, out=a)
            np.add(m, a, out=m)
            np.multiply(v, _B2, out=v)
            np.multiply(g, 1.0 - _B2, out=a)
            np.multiply(a, g, out=a)
            np.add(v, a, out=v)
            np.divide(m, b1c, out=a)
            np.multiply(a, self.lr, out=a)
            np.divide(v, b2c, out=b)
            np.sqrt(b, out=b)
            np.add(b, _EPS, out=b)
            np.divide(a, b, out=a)
            np.subtract(p, a, out=p)
