"""Reverse-mode automatic differentiation over dense float arrays.

Every operation executes eagerly in numpy and, when a :class:`Tape` is
active, records itself so gradients can be replayed. Replaying the tape in
reverse recording order is a reverse topological order by construction
(an op's inputs always precede it), and gradients accumulate additively at
fan-out nodes. Ops executed with no active tape compute values only, which
is the inference path.

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

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            if g.shape == self.data.shape:
                # callers may reuse their buffer, so copy rather than alias
                self.grad = g.copy()
                return
            self.grad = _zeros(self)
        self.grad += g

    def accumulate_owned(self, g: np.ndarray) -> None:
        """Accumulate a gradient buffer the caller will never touch again.

        Skips the defensive copy of :meth:`accumulate`; only pass arrays
        freshly allocated inside a single backward closure, never the
        incoming upstream gradient or a view of it.
        """
        if self.grad is None and g.shape == self.data.shape and g.flags.writeable:
            self.grad = g
        else:
            self.accumulate(g)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape})"

    # operator sugar; scalars and ndarrays are wrapped as constants in self's dtype
    def __add__(self, other):
        return add(self, _wrap(other, self))

    def __radd__(self, other):
        return add(_wrap(other, self), self)

    def __sub__(self, other):
        return sub(self, _wrap(other, self))

    def __rsub__(self, other):
        return sub(_wrap(other, self), self)

    def __mul__(self, other):
        return mul(self, _wrap(other, self))

    def __rmul__(self, other):
        return mul(_wrap(other, self), self)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _wrap(x, like: Tensor) -> Tensor:
    """A constant operand, in ``like``'s dtype."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=like.data.dtype))


def _zeros(t: Tensor) -> np.ndarray:
    """C-ordered zeros in ``t``'s shape and dtype, for a gradient buffer.

    Not ``zeros_like``: that copies the layout of a view, and the layout of
    a broadcast view would reorder the sums later taken over the buffer.
    """
    return np.zeros(t.shape, dtype=t.data.dtype)


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


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    out = Tensor(y, (a,))

    def backward(g):
        a.accumulate_owned(g * y)

    out._backward = backward
    return _record(out)


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data), (a,))

    def backward(g):
        a.accumulate_owned(g / a.data)

    out._backward = backward
    return _record(out)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y, (a,))

    def backward(g):
        a.accumulate_owned(g * (1.0 - y * y))

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


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims), (a,))
    # a Python int: a numpy integer would promote float32 to float64
    count = a.data.size if axis is None else math.prod(
        a.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))
    )

    def backward(g):
        if not keepdims and axis is not None:
            g = np.expand_dims(g, axis)
        a.accumulate_owned(np.broadcast_to(g, a.shape) / count)

    out._backward = backward
    return _record(out)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,))

    def backward(g):
        if not keepdims and axis is not None:
            g = np.expand_dims(g, axis)
        a.accumulate_owned(np.broadcast_to(g, a.shape).copy())

    out._backward = backward
    return _record(out)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Per-sample row gather: out[b, i] = a[b, idx[b, i]] over the last axis.

    ``a`` is (batch, n, d) and ``idx`` is (batch, k) of row indices; the
    backward pass scatter-adds into the input's gradient, so repeated
    indices accumulate. When every row's indices are distinct (the MAE
    callers' case) a plain fancy-index ``+=`` gives the same sums, without
    the much slower ``np.add.at``.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if a.data.ndim != 3 or idx.ndim != 2 or idx.shape[0] != a.shape[0]:
        raise DimensionError(f"gather_rows: got {a.shape} indexed by {idx.shape}")
    batch_ix = np.arange(a.shape[0])[:, None]
    out = Tensor(a.data[batch_ix, idx], (a,))

    def backward(g):
        if a.grad is None:
            a.grad = _zeros(a)
        ordered = np.sort(idx, axis=1)
        if (ordered[:, 1:] != ordered[:, :-1]).all():
            a.grad[batch_ix, idx] += g
        else:
            np.add.at(a.grad, (batch_ix, idx), g)

    out._backward = backward
    return _record(out)


def pick(a: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """Gather a[rows[i], cols[i]] for each i; used to pull label logits.

    Backward scatter-adds, so a repeated (row, col) pair accumulates. When
    the pairs are distinct (``cross_entropy``'s one label per row) a
    fancy-index ``+=`` gives the same sums without ``np.add.at``.
    """
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    out = Tensor(a.data[rows, cols], (a,))

    def backward(g):
        full = np.zeros_like(a.data)
        flat = np.ravel_multi_index(np.broadcast_arrays(rows, cols), a.shape[:2], mode="wrap")
        ordered = np.sort(flat, axis=None)
        if (ordered[1:] != ordered[:-1]).all():
            full[rows, cols] += g
        else:
            np.add.at(full, (rows, cols), g)
        a.accumulate_owned(full)

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


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, stabilized by max subtraction."""
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y, (x,))

    def backward(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        x.accumulate_owned(y * (g - inner))

    out._backward = backward
    return _record(out)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    z = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    y = z - lse
    out = Tensor(y, (x,))

    def backward(g):
        sm = np.exp(y)
        x.accumulate_owned(g - sm * g.sum(axis=axis, keepdims=True))

    out._backward = backward
    return _record(out)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then affine.

    Temporaries are reused in place; forward keeps only ``xhat`` and the
    per-row inverse deviation for backward.
    """
    if gain.shape != (x.shape[-1],) or bias.shape != (x.shape[-1],):
        raise DimensionError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} "
            f"do not match last axis {x.shape[-1]}"
        )
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    y = xhat * xhat
    inv = y.mean(axis=-1, keepdims=True)
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gain.data, out=y)
    y += bias.data
    out = Tensor(y, (x, gain, bias))

    def backward(g):
        gh = g * gain.data
        m1 = gh.mean(axis=-1, keepdims=True)
        tmp = gh * xhat
        m2 = tmp.mean(axis=-1, keepdims=True)
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
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    merged = np.empty(qkv.shape[:-1] + (d,), dtype=qkv.data.dtype)
    np.matmul(att, v, out=_split_heads(merged, 1, heads)[0])
    out = Tensor(merged, (qkv,))

    def backward(g):
        gm = _split_heads(g, 1, heads)[0]
        dqkv = np.empty(qkv.shape, dtype=qkv.data.dtype)
        dq, dk, dv = _split_heads(dqkv, 3, heads)
        np.matmul(np.swapaxes(att, -1, -2), gm, out=dv)
        # softmax backward att * (g - sum(g * att)), then the scale
        ds = gm @ np.swapaxes(v, -1, -2)
        ds -= (ds * att).sum(axis=-1, keepdims=True)
        ds *= att
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
    lp = log_softmax(logits, axis=-1)
    rows = np.arange(labels.shape[0])
    picked = pick(lp, rows, labels)
    if weights is not None:
        w = -np.asarray(weights, dtype=logits.data.dtype)[labels]
        picked = mul(picked, Tensor(w))
    else:
        picked = scale(picked, -1.0)
    return mean(picked)
