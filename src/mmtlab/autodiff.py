"""Reverse-mode automatic differentiation over dense float arrays.

Every operation executes eagerly in numpy and, when a :class:`Tape` is
active, records itself so gradients can be replayed. Replaying the tape in
reverse recording order is a reverse topological order by construction
(an op's inputs always precede it), and gradients accumulate additively at
fan-out nodes. Ops executed with no active tape compute values only, which
is the inference path. Ops are this module's functions (``add(a, b)``,
``linear(x, w, b)``); :class:`Tensor` has no arithmetic operators, so
every step of a graph is a named call.

Backward consumes the tape, as PyTorch frees a graph's buffers while its
backward walks it: each node is unlinked from its inputs and its backward
closure before that closure runs, so a saved activation lives only until
its node's gradient is taken, and an intermediate's gradient only until
its own node has passed it on. Leaves, and any tensor the caller still
holds, keep their ``.grad``. The peak of a training step is then about
the forward activations, not activations plus every gradient.

Data is float32 or float64 and the dtype travels with the arrays: a
:class:`Tensor` keeps the dtype of a float32 or float64 array and makes
float64 of anything else, and every op computes in its inputs' dtype, so
float32 parameters give a float32 forward, backward and optimizer. Op
constants and buffers take the input's dtype; numpy promotes a float32
array mixed with a float64 array, a 0-d float64 array or a numpy (not
Python) scalar to float64. Training runs in float32; finite-difference
gradchecks pass float64 arrays and run in float64.

A non-finite value anywhere is an error state; enable
``set_debug_checks(True)`` to scan every op output (tests do), otherwise
callers check at natural boundaries such as the loss. The same switch
makes an op whose output is wider than its widest input an error, which
catches a stray float64 constant or buffer in a float32 graph.

Two fused ops cover the transformer block: :func:`multi_head_attention`
takes the packed query/key/value projection and returns merged heads,
and :func:`mlp` is ``linear -> gelu -> linear``. Each records one tape
node with a hand-written backward. Built from primitives, attention took
16 nodes (``narrow``, ``reshape`` and ``transpose`` to split and merge
heads, two ``matmul``, ``scale``, ``softmax``), whose backward mostly
zero-filled and copied ``qkv``-sized buffers; with the fused ops a block
records 8 nodes instead of 26. They do the same arithmetic in the same
order as the composite, so results are bit for bit the same. The
primitives stay public and gradchecked.

Each rule is written once: :func:`softmax` and :func:`multi_head_attention`
share the last-axis softmax and its backward, :func:`gelu` and :func:`mlp`
the GELU pieces, :func:`gather_rows` and :func:`pick` the scatter-add, and
softmax and :func:`layer_norm` one row-sum rule. Rows here hold 16 to 41
values, where numpy's last-axis ``sum``, ``mean`` and ``max`` cost more
than the arithmetic they guard, so a row sum is one BLAS product with a
ones vector, and softmax shifts each trailing matrix by its one max (any
shift that does not overflow gives the same softmax), redoing with its own
max only a row whose exponentials then sum below ``sqrt(tiny)``. Sums
accumulate in BLAS order, so they agree with numpy's to rounding, not bit
for bit; a fused op and its composite share the rule and stay bit-equal. A
parameter is broadcast as it is, with no ``reshape`` node in front. A train
step on ``epic-kitchens-like`` records 134 nodes (64 in its 8 blocks), one
on ``ego4d-ar-like`` 138, and a masked-autoencoder step 166.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DimensionError

_DEBUG_CHECKS = False


def set_debug_checks(enabled: bool) -> None:
    """Scan every op output for NaN/Inf and for a dtype wider than the op's
    inputs. Slow; meant for tests."""
    global _DEBUG_CHECKS
    _DEBUG_CHECKS = bool(enabled)


_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Ordered record of executed ops for one backward pass.

    Use as a context manager around a forward computation, then call
    :meth:`backward` on the scalar loss, once: backward consumes the tape
    and frees each node's saved arrays as it goes. The active tape is a
    module global, so one process records at most one tape at a time and
    tapes must not be used from several threads; parallel work (sweep
    cells) runs in separate processes.
    """

    def __init__(self):
        self.nodes: list[Tensor] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def backward(self, loss: "Tensor") -> None:
        """Accumulate d(loss)/d(node) into ``.grad`` of every antecedent.

        Consumes the tape: each node is popped and unlinked (its
        ``_backward`` and ``inputs`` cleared) before its closure runs, so
        the activations the closure saved, and any node's gradient that
        only the tape held, are freed as the walk goes on. A tensor the
        caller still holds keeps its ``.grad``. A second call raises
        ``RuntimeError``.
        """
        if self._consumed:
            raise RuntimeError("this tape has already run backward; record a new one")
        if loss.data.size != 1:
            raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
        self._consumed = True
        loss.grad = np.ones_like(loss.data)
        nodes = self.nodes
        while nodes:
            node = nodes.pop()
            fn, node._backward, node.inputs = node._backward, None, ()
            if node.grad is not None:
                fn(node.grad)


class Tensor:
    """Dense float array plus gradient slot and graph linkage.

    A float32 or float64 ndarray keeps its dtype (and is not copied);
    anything else (Python numbers, lists, other dtypes) becomes float64.
    It has no arithmetic operators: the module's functions are the ops.
    """

    __slots__ = ("data", "grad", "inputs", "_backward")

    def __init__(self, data, inputs=(), backward=None):
        data = np.asarray(data)
        if data.dtype != np.float32:
            data = data.astype(np.float64, copy=False)
        self.data = data
        self.grad: np.ndarray | None = None
        self.inputs: tuple[Tensor, ...] = inputs
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # callers may reuse their buffer, so copy rather than alias
            self.grad = g.copy()
        else:
            self.grad += g

    def accumulate_owned(self, g: np.ndarray) -> None:
        """Accumulate a gradient buffer the caller will never touch again.

        Skips the defensive copy of :meth:`accumulate`; only pass arrays
        freshly allocated inside a single backward closure, never the
        incoming upstream gradient or a view of it.
        """
        if self.grad is None and g.flags.writeable:
            self.grad = g
        else:
            self.accumulate(g)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def _zeros(t: Tensor) -> np.ndarray:
    """C-ordered zeros in ``t``'s shape and dtype, for a gradient buffer.

    Not ``zeros_like``: that copies the layout of a view, and the layout of
    a broadcast view would reorder the sums later taken over the buffer.
    """
    return np.zeros(t.shape, dtype=t.data.dtype)


def _scatter_add(t: Tensor, index: tuple, g: np.ndarray) -> None:
    """``t.grad[index] += g`` with repeated index tuples accumulating; when all
    are distinct, a fancy-index ``+=`` does it much faster than ``np.add.at``."""
    if t.grad is None:
        t.grad = _zeros(t)
    flat = np.ravel_multi_index(np.broadcast_arrays(*index), t.shape[: len(index)], mode="wrap")
    if np.diff(np.sort(flat, axis=None)).all():
        t.grad[index] += g
    else:
        np.add.at(t.grad, index, g)


def _record(out: Tensor) -> Tensor:
    if _DEBUG_CHECKS:
        if not np.all(np.isfinite(out.data)):
            raise FloatingPointError("non-finite value produced by a forward op")
        widest = max(t.data.dtype.itemsize for t in out.inputs)
        if out.data.dtype.itemsize > widest:
            op = out._backward.__qualname__.split(".")[0]
            raise TypeError(
                f"{op} widened its inputs to {out.data.dtype}: "
                "a constant or buffer in the wrong dtype"
            )
    if _ACTIVE_TAPE is not None and out._backward is not None:
        _ACTIVE_TAPE.nodes.append(out)
    else:
        # outside a tape the graph is not retained
        out.inputs = ()
        out._backward = None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that broadcasting expanded."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise and structural primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data, (a, b))

    def backward(g):
        a.accumulate(_unbroadcast(g, a.shape))
        b.accumulate(_unbroadcast(g, b.shape))

    out._backward = backward
    return _record(out)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data, (a, b))

    def backward(g):
        a.accumulate(_unbroadcast(g, a.shape))
        b.accumulate(-_unbroadcast(g, b.shape))

    out._backward = backward
    return _record(out)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data, (a, b))

    def backward(g):
        a.accumulate_owned(_unbroadcast(g * b.data, a.shape))
        b.accumulate_owned(_unbroadcast(g * a.data, b.shape))

    out._backward = backward
    return _record(out)


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.data * s, (a,))

    def backward(g):
        a.accumulate_owned(g * s)

    out._backward = backward
    return _record(out)


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """The tanh term of GELU, tanh(c (x + 0.044715 x^3)); backward needs it."""
    t = x * x
    t *= 0.044715
    t += 1.0
    t *= x
    t *= _GELU_C
    np.tanh(t, out=t)
    return t


def _gelu_out(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """GELU from its input and tanh term: 0.5 x (1 + t)."""
    y = t + 1.0
    y *= x
    y *= 0.5
    return y


def _gelu_grad(g: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """GELU backward: a fresh array holding g * gelu'(x)."""
    poly = x * x
    poly *= 3 * 0.044715
    poly += 1.0
    sech2 = t * t
    np.subtract(1.0, sech2, out=sech2)
    poly *= sech2
    poly *= x
    poly *= _GELU_C
    np.add(t, 1.0, out=sech2)
    poly += sech2
    poly *= 0.5
    poly *= g
    return poly


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5 x (1 + tanh(c (x + 0.044715 x^3)))."""
    t = _gelu_tanh(a.data)
    out = Tensor(_gelu_out(a.data, t), (a,))

    def backward(g):
        a.accumulate_owned(_gelu_grad(g, a.data, t))

    out._backward = backward
    return _record(out)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), (a,))

    def backward(g):
        a.accumulate(g.reshape(a.shape))

    out._backward = backward
    return _record(out)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = Tensor(a.data.transpose(axes), (a,))

    def backward(g):
        a.accumulate(g.transpose(inverse))

    out._backward = backward
    return _record(out)


def broadcast_to(a: Tensor, shape) -> Tensor:
    """``a`` expanded to ``shape``, as numpy's read-only view of it."""
    shape = tuple(shape)
    out = Tensor(np.broadcast_to(a.data, shape), (a,))

    def backward(g):
        a.accumulate(_unbroadcast(g, a.shape))

    out._backward = backward
    return _record(out)


def concat(parts: list[Tensor], axis: int) -> Tensor:
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis), tuple(parts))
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            p.accumulate(g[tuple(idx)])

    out._backward = backward
    return _record(out)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis, a view of the input.

    Backward adds ``g`` into the slice of the input's gradient in place, so
    the several narrows of one tensor share one buffer.
    """
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = Tensor(a.data[idx], (a,))

    def backward(g):
        if a.grad is None:
            a.grad = _zeros(a)
        a.grad[idx] += g

    out._backward = backward
    return _record(out)


def mean(a: Tensor) -> Tensor:
    out = Tensor(a.data.mean(), (a,))

    def backward(g):
        a.accumulate_owned(np.broadcast_to(g, a.shape) / a.data.size)

    out._backward = backward
    return _record(out)


def sum_(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum(), (a,))

    def backward(g):
        a.accumulate_owned(np.broadcast_to(g, a.shape).copy())

    out._backward = backward
    return _record(out)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Per-sample row gather: out[b, i] = a[b, idx[b, i]] over the last axis.

    ``a`` is (batch, n, d) and ``idx`` is (batch, k) of row indices; the
    backward pass scatter-adds into the input's gradient, so repeated
    indices accumulate.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if a.data.ndim != 3 or idx.ndim != 2 or idx.shape[0] != a.shape[0]:
        raise DimensionError(f"gather_rows: got {a.shape} indexed by {idx.shape}")
    batch_ix = np.arange(a.shape[0])[:, None]
    out = Tensor(a.data[batch_ix, idx], (a,))

    def backward(g):
        _scatter_add(a, (batch_ix, idx), g)

    out._backward = backward
    return _record(out)


def pick(a: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """Gather a[rows[i], cols[i]] for each i; used to pull label logits.

    Backward scatter-adds, so a repeated (row, col) pair accumulates.
    """
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    out = Tensor(a.data[rows, cols], (a,))

    def backward(g):
        _scatter_add(a, (rows, cols), g)

    out._backward = backward
    return _record(out)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy broadcasting over leading batch axes.

    Gradient contract for 2-D operands: d/da = g @ b.T, d/db = a.T @ g;
    batched cases reduce over broadcast axes.
    """
    if a.shape[-1] != b.shape[-2 if b.data.ndim > 1 else 0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data, (a, b))

    def backward(g):
        a.accumulate_owned(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        b.accumulate_owned(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    out._backward = backward
    return _record(out)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map over the last axis: x @ w (+ b). Fused for tape brevity."""
    if x.shape[-1] != w.shape[0]:
        raise DimensionError(f"linear: input dim {x.shape[-1]} != weight rows {w.shape[0]}")
    y = x.data @ w.data
    if b is not None:
        y = y + b.data
    out = Tensor(y, (x, w) if b is None else (x, w, b))

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        x2 = x.data.reshape(-1, x.shape[-1])
        x.accumulate_owned((g2 @ w.data.T).reshape(x.shape))
        w.accumulate_owned(x2.T @ g2)
        if b is not None:
            b.accumulate_owned(g2.sum(axis=0))

    out._backward = backward
    return _record(out)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis, shaped (..., 1): one BLAS product with a
    ones vector, several times faster than ``sum(axis=-1)`` on short rows."""
    n = a.shape[-1]
    s = a.reshape(-1, n) @ np.ones(n, dtype=a.dtype)
    return s.reshape(a.shape[:-1] + (1,))


def _softmax_rows(a: np.ndarray) -> np.ndarray:
    """Last-axis softmax of ``a`` into a fresh array; ``a`` (C-contiguous,
    owned by the caller) is shifted in place.

    Each trailing matrix (a 1-D ``a`` as a whole) is shifted by its own
    max, one contiguous reduction instead of one per row. A row whose
    exponentials then sum below ``sqrt(tiny)`` of the dtype is shifted
    again by its own max and recomputed (the guard), so no row sums to
    zero. In every other row an entry lost to underflow lies below
    ``sqrt(tiny)`` of the row's sum, far below rounding, and the shift
    rounds a logit to about eps times its distance from the matrix max,
    the size of the logit's own rounding.
    """
    a -= a.max(axis=(-2, -1) if a.ndim > 1 else -1, keepdims=True)
    y = np.exp(a)
    s = _row_sums(y)
    low = np.flatnonzero(s < math.sqrt(np.finfo(a.dtype).tiny))
    if low.size:
        n = a.shape[-1]
        rows = a.reshape(-1, n)[low]
        rows -= rows.max(axis=-1, keepdims=True)
        np.exp(rows, out=rows)
        y.reshape(-1, n)[low] = rows
        s.reshape(-1, 1)[low] = _row_sums(rows)
    y /= s
    return y


def _softmax_rows_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Softmax backward in place on ``g``, for output ``y``: y (g - sum(g y)),
    with the row sums taken as in :func:`_row_sums`."""
    g -= _row_sums(g * y)
    g *= y
    return g


def softmax(x: Tensor) -> Tensor:
    """Softmax along the last axis."""
    y = _softmax_rows(x.data.copy())
    out = Tensor(y, (x,))

    def backward(g):
        x.accumulate_owned(_softmax_rows_grad(g.copy(), y))

    out._backward = backward
    return _record(out)


def log_softmax(x: Tensor) -> Tensor:
    """Log-softmax along the last axis."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    y = z - lse
    out = Tensor(y, (x,))

    def backward(g):
        sm = np.exp(y)
        x.accumulate_owned(g - sm * g.sum(axis=-1, keepdims=True))

    out._backward = backward
    return _record(out)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then affine.

    Its two forward and two backward means are :func:`_row_sums` divided
    by the width. Temporaries are reused in place; forward keeps only
    ``xhat`` and the per-row inverse deviation for backward.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} "
            f"do not match last axis {d}"
        )
    xhat = x.data - _row_sums(x.data) / d
    y = xhat * xhat
    inv = _row_sums(y) / d
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gain.data, out=y)
    y += bias.data
    out = Tensor(y, (x, gain, bias))

    def backward(g):
        gh = g * gain.data
        m1 = _row_sums(gh) / d
        tmp = gh * xhat
        m2 = _row_sums(tmp) / d
        gh -= m1
        gh -= np.multiply(xhat, m2, out=tmp)
        gh *= inv
        x.accumulate_owned(gh)
        axes = tuple(range(g.ndim - 1))
        gain.accumulate_owned(np.multiply(g, xhat, out=tmp).sum(axis=axes))
        bias.accumulate_owned(g.sum(axis=axes))

    out._backward = backward
    return _record(out)


def _split_heads(a: np.ndarray, parts: int, heads: int) -> list[np.ndarray]:
    """View (..., n, parts*d) as ``parts`` arrays shaped (..., heads, n, d/heads)."""
    *lead, n, width = a.shape
    r = a.reshape(*lead, n, parts, heads, width // (parts * heads))
    return [np.swapaxes(r[..., i, :, :], -2, -3) for i in range(parts)]


def multi_head_attention(qkv: Tensor, heads: int) -> Tensor:
    """Scaled dot-product attention per head, heads merged back.

    ``qkv`` is the packed (..., n, 3d) projection: queries, keys and values
    side by side, each d wide with d divisible by ``heads``. Returns the
    merged (..., n, d) heads; the output projection is the caller's. Head
    splitting and merging are views, so the tape gets one node, and the
    backward writes dq, dk and dv into one fresh ``qkv``-shaped buffer. The
    softmax probabilities are kept for backward.
    """
    width = qkv.shape[-1]
    if width % 3 != 0:
        raise DimensionError(f"attention: packed width {width} is not 3 * d")
    d = width // 3
    if d % heads != 0:
        raise ConfigError(f"embedding dim {d} not divisible by {heads} heads")
    s = 1.0 / math.sqrt(d // heads)
    q, k, v = _split_heads(qkv.data, 3, heads)
    # the same arithmetic as softmax(scale(matmul(q, k^T), s)) @ v
    att = q @ np.swapaxes(k, -1, -2)
    att *= s
    att = _softmax_rows(att)
    merged = np.empty(qkv.shape[:-1] + (d,), dtype=qkv.data.dtype)
    np.matmul(att, v, out=_split_heads(merged, 1, heads)[0])
    out = Tensor(merged, (qkv,))

    def backward(g):
        gm = _split_heads(g, 1, heads)[0]
        dqkv = np.empty(qkv.shape, dtype=qkv.data.dtype)
        dq, dk, dv = _split_heads(dqkv, 3, heads)
        np.matmul(np.swapaxes(att, -1, -2), gm, out=dv)
        ds = gm @ np.swapaxes(v, -1, -2)
        _softmax_rows_grad(ds, att)
        ds *= s
        np.matmul(ds, k, out=dq)
        dk[...] = np.swapaxes(np.swapaxes(q, -1, -2) @ ds, -1, -2)
        qkv.accumulate_owned(dqkv)

    out._backward = backward
    return _record(out)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Transformer MLP, ``linear(gelu(linear(x, w1, b1)), w2, b2)``, as one node.

    Same arithmetic as the three-op composite. Backward keeps only the
    pre-activation ``h`` and the tanh term ``t``; it rebuilds the GELU
    output from them in the forward's op order, so bit for bit.
    """
    if x.shape[-1] != w1.shape[0] or w1.shape[1] != w2.shape[0]:
        raise DimensionError(
            f"mlp: input {x.shape} does not chain through {w1.shape} and {w2.shape}"
        )
    h = x.data @ w1.data
    h += b1.data
    t = _gelu_tanh(h)
    y = _gelu_out(h, t) @ w2.data
    y += b2.data
    out = Tensor(y, (x, w1, b1, w2, b2))

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        hidden = w1.shape[1]
        w2.accumulate_owned(_gelu_out(h, t).reshape(-1, hidden).T @ g2)
        b2.accumulate_owned(g2.sum(axis=0))
        gh = _gelu_grad(g2 @ w2.data.T, h.reshape(-1, hidden), t.reshape(-1, hidden))
        x.accumulate_owned((gh @ w1.data.T).reshape(x.shape))
        w1.accumulate_owned(x.data.reshape(-1, x.shape[-1]).T @ gh)
        b1.accumulate_owned(gh.sum(axis=0))

    out._backward = backward
    return _record(out)


def cross_entropy(logits: Tensor, labels: np.ndarray, weights: np.ndarray | None = None) -> Tensor:
    """Mean over the batch of w[label] * (-log softmax(logits)[label])."""
    labels = np.asarray(labels, dtype=np.int64)
    lp = log_softmax(logits)
    rows = np.arange(labels.shape[0])
    picked = pick(lp, rows, labels)
    if weights is not None:
        w = -np.asarray(weights, dtype=logits.data.dtype)[labels]
        picked = mul(picked, Tensor(w))
    else:
        picked = scale(picked, -1.0)
    return mean(picked)
