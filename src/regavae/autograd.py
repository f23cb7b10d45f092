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


def _check_finite(arr: np.ndarray, op: str) -> None:
    # The ufunc reduction itself: ndarray.all goes through numpy's Python wrapper.
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
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
            # A first grad is taken over, not copied: every backward hands
            # each input an array that no other tensor holds (add copies the
            # one g it would give both inputs). Its memory order does not
            # matter to the clip, which copies each grad into Adam's
            # C-ordered grad buffer before it squares it. asarray copies
            # nothing; it makes the numpy scalar of a reduction to shape ()
            # a 0-d array.
            self.grad = np.asarray(g)
        else:
            self.grad += g

    # Operator sugar; constants are wrapped as non-grad tensors.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


class Tape:
    """Ordered record of operations for one forward pass: one (out, bwd)
    pair per recorded op."""

    def __init__(self):
        self.nodes: list[tuple[Tensor, object]] = []
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
                _TAPES[-1].nodes.append((out, bwd))
                break
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(t) into t.grad for the tensors the tape's ops read.

    Gradients are allocated on first use, so a tensor that does not
    influence the loss keeps `grad is None`. An op's output drops its grad
    once the op has passed it on, so afterwards only leaves (parameters and
    inputs) hold one. Each node's closure is dropped as the walk reaches it,
    freeing the arrays its op saved; the tape keeps its length. The tape is
    consumed: a second call raises ContractError.
    """
    if loss.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if tape.consumed:
        raise ContractError("tape already consumed by a previous backward call")
    loss._accum(np.ones_like(loss.data))
    nodes = tape.nodes
    for i in range(len(nodes) - 1, -1, -1):
        out, bwd = nodes[i]
        nodes[i] = (out, None)
        if out.grad is not None:
            bwd(out.grad)
            out.grad = None
    tape.consumed = True


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    # np.add.reduce is what ndarray.sum runs, without its Python wrapper.
    while g.ndim > len(shape):
        g = np.add.reduce(g, axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = np.add.reduce(g, axis=i, keepdims=True)
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
            gb = _unbroadcast(g, b.shape)
            # a took g itself (also when b is a): b gets its own buffer.
            b._accum(gb.copy() if gb is g and a.grad is g else gb)

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
    """Affine map x @ w.T (+ b) of the rows of 2-D x, as one tape node; w is
    (out, in). A lone vector is a (1, in) row stack."""
    if x.ndim != 2 or w.ndim != 2:
        raise DimensionError(f"linear needs 2-D x and w, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise DimensionError(f"linear inner dimensions differ: {x.shape} x {w.shape}.T")
    if b is not None and b.shape != (w.shape[0],):
        raise DimensionError(f"linear bias must have shape ({w.shape[0]},), got {b.shape}")
    wd = w.data
    out_data = x.data @ wd.T
    if b is not None:
        out_data += b.data
    # One check covers both: a non-finite product stays non-finite after the add.
    _check_finite(out_data, "linear")
    out = Tensor(out_data)

    def bwd(g):
        if b is not None and b.requires_grad:
            b._accum(_unbroadcast(g, b.shape))
        if x.requires_grad:
            x._accum(g @ wd)
        if w.requires_grad:
            w._accum((x.data.T @ g).T)

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
    """tanh-approximation GELU, 0.5*x*(1 + tanh(c*(x + 0.044715*x*x*x))).

    Forward and backward are in-place ufunc chains that evaluate each
    element's expression in the order written in the comments, so they give
    the bits of those numpy expressions with fewer temporaries."""
    xd = x.data
    # t = tanh(c * (xd + 0.044715 * (xd * xd * xd)))
    t = np.multiply(xd, xd)
    t *= xd
    t *= 0.044715
    t += xd
    t *= _GELU_C
    np.tanh(t, out=t)
    # out = (0.5 * xd) * (1.0 + t)
    out = np.multiply(xd, 0.5)
    out *= np.add(t, 1.0)

    def bwd(g):
        # dinner = c * (1.0 + 3 * 0.044715 * xd**2)
        dinner = np.multiply(xd, xd)
        dinner *= 3 * 0.044715
        dinner += 1.0
        dinner *= _GELU_C
        # dx = 0.5 * (1.0 + t) + ((0.5 * xd) * (1.0 - t * t)) * dinner
        tail = np.multiply(t, t)
        np.subtract(1.0, tail, out=tail)
        dx = np.multiply(xd, 0.5)
        dx *= tail
        dx *= dinner
        head = np.add(t, 1.0, out=tail)
        head *= 0.5
        dx += head
        dx *= g
        x._accum(dx)

    return _record(Tensor(out), (x,), bwd)


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
    # np.add.reduce is what ndarray.sum runs, without its Python wrapper.
    out = Tensor(np.add.reduce(x.data, axis=axis))

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


def segment_repeat(x: Tensor, offsets) -> Tensor:
    """Row i of 2-D x once for every row of segment i of `offsets`:
    (B, d) -> (rows, d), what an `embedding_lookup` of each row's segment
    id gives.

    The backward sums each segment's grad rows with one add.reduce over
    its outer axis, which numpy runs row by row, in order, for a C-ordered
    grad at least two columns wide (one column it sums pairwise), then adds
    0.0. That is the embedding scatter's np.add.at into zeros, bit for bit:
    the scatter starts each sum from +0.0, which differs from starting at
    the first row only when every row is -0.0, and adding 0.0 turns such a
    -0.0 sum into +0.0 (numpy 2.4's reduce already gives +0.0 there).
    np.add.reduceat would not do: it does not sum a segment's rows in
    order."""
    off = np.asarray(offsets, dtype=np.int64)
    if x.ndim != 2 or off.shape != (x.shape[0] + 1,):
        raise DimensionError(f"segment_repeat needs (B, d) rows and B+1 offsets, got "
                             f"{x.shape} and {off.tolist()}")
    _, lengths = _segments(off, int(off[-1]))
    out = Tensor(np.repeat(x.data, lengths, axis=0))
    bounds = off.tolist()

    def bwd(g):
        g = np.ascontiguousarray(g)
        gx = np.empty_like(x.data)
        for row, a, b in zip(gx, bounds, bounds[1:]):
            np.add.reduce(g[a:b], axis=0, out=row)
        gx += 0.0
        x._accum(gx)

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# Neural-net primitives
# ---------------------------------------------------------------------------

def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis (variance plus 1e-5), then scale and shift.

    The row means are numpy's own `mean`/`var` steps (an add.reduce, then a
    true_divide by the row length) without their Python wrappers, and
    x - mean is computed once for the variance and the output."""
    n = x.shape[-1]
    mu = np.add.reduce(x.data, axis=-1, keepdims=True)
    mu /= n
    xhat = np.subtract(x.data, mu)
    sq = np.multiply(xhat, xhat)
    var = np.add.reduce(sq, axis=-1, keepdims=True)
    var /= n
    # inv = 1.0 / sqrt(var + 1e-5)
    var += 1e-5
    np.sqrt(var, out=var)
    inv = np.divide(1.0, var, out=var)
    xhat *= inv
    out = np.multiply(xhat, gain.data, out=sq)
    out += bias.data
    _check_finite(out, "layer_norm")

    def bwd(g):
        # Each input takes its grad once this op no longer writes or reads
        # it: a 1-D x's gain takes the scratch array, its bias g itself.
        tmp = None
        if x.requires_grad:
            # dx = inv * ((dxhat - mean(dxhat)) - xhat * mean(dxhat * xhat))
            dxhat = np.multiply(g, gain.data)
            m1 = np.add.reduce(dxhat, axis=-1, keepdims=True)
            m1 /= n
            tmp = np.multiply(dxhat, xhat)
            m2 = np.add.reduce(tmp, axis=-1, keepdims=True)
            m2 /= n
            np.multiply(xhat, m2, out=tmp)
            dxhat -= m1
            dxhat -= tmp
            dxhat *= inv
            x._accum(dxhat)
        if gain.requires_grad:
            gain._accum(_unbroadcast(np.multiply(g, xhat, out=tmp), gain.shape))
        if bias.requires_grad:
            bias._accum(_unbroadcast(g, bias.shape))

    return _record(Tensor(out), (x, gain, bias), bwd)


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
            # ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * scale, in dp
            dp -= (dp * p).sum(axis=-1, keepdims=True)
            dp *= p
            dp *= scale
            merge(dp @ split(k.data, ki, m), qi, gq)
            merge(dp.transpose(0, 1, 3, 2) @ split(q.data, qi, n), ki, gk)
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
    """Mean negative log-likelihood in nats of each segment of rows, shape (B,);
    targets are class ids and `offsets` the B+1 segment boundaries over the
    rows. Without offsets all rows are one segment, shape (1,)."""
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
    starts, lengths = _segments([0, n] if offsets is None else offsets, n)
    out = Tensor(np.add.reduceat(-logp[np.arange(n), tgt], starts) / lengths)
    _check_finite(out.data, "cross_entropy_with_logits")

    def bwd(g):
        p = np.exp(logp)
        p[np.arange(n), tgt] -= 1.0
        p *= np.repeat(g / lengths, lengths)[:, None]
        logits._accum(p)

    return _record(out, (logits,), bwd)


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------

def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


def clip_grad_norm(optimizer: "Adam", max_norm: float) -> float:
    """Stage every parameter's grad in `optimizer`'s grad buffer, scale the
    buffer so its global L2 norm is at most max_norm, and return the norm
    before clipping.

    It raises ContractError, before it copies anything, when a parameter
    holds no grad (so also after a step with no new backward). Each grad is
    copied into its slice, squared into one scratch array and summed on its
    own, in dict order, as `(p.grad**2).sum()` summed it; one ufunc call then
    scales the whole buffer."""
    missing = [name for name, p in optimizer.params.items() if p.grad is None]
    if missing:
        raise ContractError(f"parameters without a grad: {missing}")
    sq = 0.0
    for g, view, p in zip(optimizer._slices, optimizer._views, optimizer.params.values()):
        np.copyto(view, p.grad)
        square = optimizer._square[:g.size]
        np.multiply(g, g, out=square)
        sq += float(np.add.reduce(square))
    norm = np.sqrt(sq)
    if norm > max_norm > 0:
        np.multiply(optimizer.grad, max_norm / norm, out=optimizer.grad)
    optimizer._staged = True
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
    out.

    A training step is backward, `clip_grad_norm`, `step`: the clip copies
    every parameter's grad into `grad`, a buffer laid out like `flat`, and
    scales it there; `step` updates from that buffer and then sets every
    parameter's grad to None, so no grad is applied twice. Before it changes
    anything, `step` raises ContractError when no clip staged grads since the
    last step or a parameter was rebound off `flat`. It updates `flat` and
    the moments `m` and `v` in place, chunk by chunk with ufuncs, in the
    per-element order `m = b1*m + (1-b1)*g`, `v = b2*v + ((1-b2)*g)*g`,
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
        self.grad = np.empty(n)
        self._slices = [self.grad[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        self._views = [g.reshape(p.data.shape)
                       for g, p in zip(self._slices, params.values())]
        # clip_grad_norm squares one slice at a time into this.
        self._square = np.empty(max((p.data.size for p in params.values()), default=0))
        self._scratch = np.empty((2, min(n, _CHUNK)))
        self._staged = False

    def step(self) -> None:
        if not self._staged:
            raise ContractError("no grads staged since the last Adam step")
        check_views(self.params, self.flat)
        self._staged = False
        self.t += 1
        b1c = 1.0 - _B1**self.t
        b2c = 1.0 - _B2**self.t
        n = self.grad.size
        for c in range(0, n, _CHUNK):
            e = min(c + _CHUNK, n)
            m, v, g, p = self.m[c:e], self.v[c:e], self.grad[c:e], self.flat[c:e]
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
        zero_grads(self.params)
