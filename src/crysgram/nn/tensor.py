"""Minimal dense tensor with reverse-mode automatic differentiation.

Values are numpy arrays (float64 in tests, float32 for training runs);
every differentiable op records a vector-Jacobian closure. A Python int
or float operand of ``+``, ``-``, ``*`` or ``/`` takes the tensor
operand's dtype (NumPy 2's weak-scalar rule), so a float32 graph stays
float32; numpy scalars and arrays keep numpy's promotion. Graphs are
built per step and freed after backward(). Reductions run in numpy's
fixed order, so forward and backward are deterministic for a given
platform and dtype.
"""

import math

import numpy as np
from scipy.special import erf as _erf

__all__ = ["Tensor", "as_tensor", "matmul", "linear", "gather_rows",
           "concat", "dropout", "softmax", "log_softmax", "layer_norm",
           "gelu", "silu"]


def _unbroadcast(grad, shape):
    """Sum gradient over axes that were broadcast up from `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_backward", "_parents",
                 "_borrowed")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._backward = None
        self._parents = ()
        self._borrowed = False  # grad is an array another node may hold

    # -- construction -----------------------------------------------------

    @staticmethod
    def parameter(data, name):
        t = Tensor(np.asarray(data), requires_grad=True, name=name)
        t.grad = np.zeros_like(t.data)
        return t

    # -- bookkeeping -------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return self.data.item()

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"

    def _accumulate(self, grad):
        """Add ``grad`` to this node's gradient, in the node's dtype.

        The first array to arrive becomes the gradient itself, cast only
        if its dtype differs. It may be shared with another node, so the
        next arrival adds out of place and never writes into it. A
        gradient array the node owns (that sum, or the zeros a parameter
        starts a step with) takes later arrivals in place.
        """
        if self.grad is None:
            self.grad = np.asarray(grad, dtype=self.data.dtype)
            self._borrowed = True
        elif self._borrowed:
            self.grad = np.asarray(self.grad + grad, dtype=self.data.dtype)
            self._borrowed = False
        else:
            self.grad += grad

    def backward(self, grad=None):
        """Reverse-mode pass from this node; frees the graph afterwards."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without gradient needs a scalar")
            grad = np.ones_like(self.data)
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node is not self and not node.requires_grad:
                node.grad = None
            node._backward = None
            node._parents = ()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other, like=self)
        out = _node(self.data + other.data, (self, other))

        def backward(g):
            if self.requires_grad or self._parents:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad or other._parents:
                other._accumulate(_unbroadcast(g, other.data.shape))
        out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self):
        out = _node(-self.data, (self,))
        out._backward = lambda g: self._accumulate(-g)
        return out

    def __sub__(self, other):
        return self + (-as_tensor(other, like=self))

    def __rsub__(self, other):
        return as_tensor(other, like=self) + (-self)

    def __mul__(self, other):
        other = as_tensor(other, like=self)
        out = _node(self.data * other.data, (self, other))

        def backward(g):
            if self.requires_grad or self._parents:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad or other._parents:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))
        out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other, like=self)
        out = _node(self.data / other.data, (self, other))

        def backward(g):
            if self.requires_grad or self._parents:
                self._accumulate(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad or other._parents:
                other._accumulate(_unbroadcast(
                    -g * self.data / (other.data * other.data),
                    other.data.shape))
        out._backward = backward
        return out

    def __rtruediv__(self, other):
        return as_tensor(other, like=self) / self

    def __pow__(self, exponent):
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out = _node(self.data ** exponent, (self,))
        out._backward = lambda g: self._accumulate(
            g * exponent * self.data ** (exponent - 1))
        return out

    def __matmul__(self, other):
        return matmul(self, as_tensor(other))

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        src = self.data.shape
        out = _node(self.data.reshape(shape), (self,))
        out._backward = lambda g: self._accumulate(g.reshape(src))
        return out

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(np.argsort(axes))
        out = _node(self.data.transpose(axes), (self,))
        out._backward = lambda g: self._accumulate(g.transpose(inverse))
        return out

    def swap_last2(self):
        axes = tuple(range(self.ndim - 2)) + (self.ndim - 1, self.ndim - 2)
        return self.transpose(axes)

    def __getitem__(self, index):
        out = _node(self.data[index], (self,))
        basic = _is_basic_index(index)

        def backward(g):
            if basic:
                full = np.zeros_like(self.data)
                full[index] = g  # a basic index never repeats an element
            else:
                shape = self.data.shape
                ids, k = _advanced_ids(shape, index)
                rows = g.reshape((ids.size,) + shape[k:])
                full = _scatter_rows(ids, rows, math.prod(shape[:k]))
                full = full.reshape(shape)
            self._accumulate(full)
        out._backward = backward
        return out

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = _node(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def backward(g):
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.data.shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())
        out._backward = backward
        return out

    def mean(self, axis=None, keepdims=False):
        count = (self.data.size if axis is None
                 else math.prod(self.data.shape[a] for a in np.atleast_1d(axis)))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise nonlinearities ---------------------------------------------

    def exp(self):
        value = np.exp(self.data)
        out = _node(value, (self,))
        out._backward = lambda g: self._accumulate(g * value)
        return out

    def log(self):
        out = _node(np.log(self.data), (self,))
        out._backward = lambda g: self._accumulate(g / self.data)
        return out

    def sqrt(self):
        value = np.sqrt(self.data)
        out = _node(value, (self,))
        out._backward = lambda g: self._accumulate(g * 0.5 / value)
        return out

    def sigmoid(self):
        value = 1.0 / (1.0 + np.exp(-self.data))
        out = _node(value, (self,))
        out._backward = lambda g: self._accumulate(g * value * (1.0 - value))
        return out

    def abs(self):
        out = _node(np.abs(self.data), (self,))
        out._backward = lambda g: self._accumulate(g * np.sign(self.data))
        return out


def _is_basic_index(index):
    """True for an index of slices, ints, None and Ellipsis only."""
    items = index if isinstance(index, tuple) else (index,)
    return all(item is None or item is Ellipsis
               or (isinstance(item, (slice, int, np.integer))
                   and not isinstance(item, bool))
               for item in items)


def _advanced_ids(shape, index):
    """(flat ids, k) of the elements an advanced index reads.

    An index made only of integer arrays picks whole rows over the
    trailing axes: the ids count over the first k axes, k being the
    number of arrays. Any other index is resolved per element (k is the
    full rank). Ids come in the order of the indexed output.
    """
    items = index if isinstance(index, tuple) else (index,)
    rows_only = all(isinstance(item, np.ndarray) and item.dtype.kind in "iu"
                    for item in items)
    k = len(items) if rows_only else len(shape)
    ids = np.arange(math.prod(shape[:k])).reshape(shape[:k])[index]
    return ids.reshape(-1), k


def _scatter_rows(ids, rows, n):
    """(n, ...) zeros plus each of ``rows`` added at its id.

    The sums of ``np.add.at`` without its per-element loop: a stable sort
    groups repeated ids in their order of arrival and one
    ``np.add.reduceat`` sums each group.
    """
    out = np.zeros((n,) + rows.shape[1:], dtype=rows.dtype)
    if ids.size:
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
        out[ids[starts]] = np.add.reduceat(rows[order], starts, axis=0)
    return out


def _node(data, parents):
    tracked = tuple(p for p in parents
                    if p.requires_grad or p._parents or p._backward is not None)
    out = Tensor(data)
    out._parents = tracked
    return out


def as_tensor(value, like=None):
    """``value`` as a Tensor. A Python int or float takes the dtype NumPy 2
    gives it next to ``like``'s data: ``like``'s own dtype for float
    data."""
    if isinstance(value, Tensor):
        return value
    if like is not None and type(value) in (int, float):
        return Tensor(np.asarray(value, np.result_type(like.data, value)))
    return Tensor(value)


def matmul(a, b):
    """Matrix product with numpy broadcasting over leading batch axes.

    Weight products, a left operand with leading axes times a 2-D weight,
    call ``linear`` instead, which runs them as one GEMM.
    """
    a, b = as_tensor(a), as_tensor(b)
    out = _node(np.matmul(a.data, b.data), (a, b))

    def backward(g):
        if a.requires_grad or a._parents:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad or b._parents:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.data.shape))
    out._backward = backward
    return out


def linear(x, w, b=None):
    """x @ w + b for x (..., k), w (k, n) and b (n,) or None, as one node.

    The product is one (rows, k) @ (k, n) GEMM over all rows of ``x``, and
    the bias is added in place into it. Backward takes the weight gradient
    as one (k, n) product and the bias gradient as one row sum. The
    closure keeps ``x`` itself and reshapes its data again at backward
    time, so the graph holds no copy. ``w`` may be a view node, such as
    the transposed token table of the tied logits.
    """
    x, w = as_tensor(x), as_tensor(w)
    k, n = w.data.shape
    value = x.data.reshape(-1, k) @ w.data
    parents = (x, w)
    if b is not None:
        b = as_tensor(b)
        parents += (b,)
        if np.result_type(value, b.data) == value.dtype:
            value += b.data
        else:
            value = value + b.data
    out = _node(value.reshape(x.data.shape[:-1] + (n,)), parents)

    def backward(g):
        g2 = g.reshape(-1, n)
        if x.requires_grad or x._parents:
            x._accumulate((g2 @ w.data.T).reshape(x.data.shape))
        if w.requires_grad or w._parents:
            w._accumulate(x.data.reshape(-1, k).T @ g2)
        if b is not None and (b.requires_grad or b._parents):
            b._accumulate(g2.sum(axis=0))
    out._backward = backward
    return out


def gather_rows(table, ids):
    """Row lookup table[ids] with scatter-add backward (embedding gather)."""
    return as_tensor(table)[np.asarray(ids)]


def concat(tensors, axis=0):
    """Join tensors along ``axis`` as ``np.concatenate`` does, one node.

    Backward hands each input its own slice of the gradient.
    """
    tensors = tuple(as_tensor(t) for t in tensors)
    out = _node(np.concatenate([t.data for t in tensors], axis=axis), tensors)
    ends = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def backward(g):
        for t, part in zip(tensors, np.split(g, ends, axis=axis)):
            if t.requires_grad or t._parents:
                t._accumulate(part)
    out._backward = backward
    return out


def softmax(x, axis=-1):
    """Numerically stable softmax (shift by a constant row max), one node."""
    x = as_tensor(x)
    value = x.data - np.max(x.data, axis=axis, keepdims=True)
    np.exp(value, out=value)
    value /= value.sum(axis=axis, keepdims=True)
    out = _node(value, (x,))

    def backward(g):
        gy = g * value
        x._accumulate(gy - value * gy.sum(axis=axis, keepdims=True))
    out._backward = backward
    return out


def log_softmax(x, axis=-1):
    """x minus its row log-sum-exp (shifted by the row max), one node."""
    x = as_tensor(x)
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    value = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = _node(value, (x,))

    def backward(g):
        x._accumulate(g - np.exp(value) * g.sum(axis=axis, keepdims=True))
    out._backward = backward
    return out


def layer_norm(x, gain, bias, eps=1e-5):
    """Row-wise normalization over the last axis, then affine gain/bias.

    One node with the closed-form backward. The row statistics scale by
    1/n as a Python float, as ``Tensor.mean`` does, so the output keeps
    the input's dtype.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    inv_n = 1.0 / x.data.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * inv_n
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt(var + eps)
    normalized = centered / std
    out = _node(normalized * gain.data + bias.data, (x, gain, bias))

    def backward(g):
        if bias.requires_grad or bias._parents:
            bias._accumulate(_unbroadcast(g, bias.data.shape))
        if gain.requires_grad or gain._parents:
            gain._accumulate(_unbroadcast(g * normalized, gain.data.shape))
        if x.requires_grad or x._parents:
            gn = g * gain.data
            proj = (gn * normalized).sum(axis=-1, keepdims=True) * inv_n
            gn -= gn.sum(axis=-1, keepdims=True) * inv_n
            gn -= normalized * proj
            gn /= std
            x._accumulate(gn)
    out._backward = backward
    return out


def _folded_erf(z):
    """``scipy.special.erf(z)`` to the bit, as erf of |z| with z's sign
    copied back.

    scipy's (cephes) erf evaluates a negative argument as -erf(-z), so the
    fold changes no bit; only a NaN keeps z's sign bit where scipy gives
    +NaN. What it saves is erf's branch on the sign of each value, which
    mispredicts on activations of mixed sign.
    """
    out = np.abs(z, out=np.empty_like(z))
    _erf(out, out=out)
    return np.copysign(out, z, out=out)


def gelu(x):
    """Exact Gaussian-error-unit activation 0.5 x (1 + erf(x / sqrt(2)))."""
    x = as_tensor(x)
    inner = _folded_erf(x.data / math.sqrt(2.0))
    value = 0.5 * x.data
    value *= 1.0 + inner
    out = _node(value, (x,))

    def backward(g):
        pdf = np.exp(-0.5 * x.data * x.data) / math.sqrt(2.0 * math.pi)
        x._accumulate(g * (0.5 * (1.0 + inner) + x.data * pdf))
    out._backward = backward
    return out


def silu(x):
    """x * sigmoid(x)."""
    x = as_tensor(x)
    return x * x.sigmoid()


def dropout(x, rate, rng, train):
    """Inverted-scaling dropout; identity when not training or rate == 0."""
    if not train or rate <= 0.0:
        return as_tensor(x)
    if rng is None:
        raise ValueError(f"dropout at rate {rate} needs a generator: pass rng")
    x = as_tensor(x)
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    return x * (keep / (1.0 - rate))
