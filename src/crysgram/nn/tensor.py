"""Minimal dense tensor with reverse-mode automatic differentiation.

Values are numpy arrays (float64 in tests, float32 for training runs);
every differentiable op records a vector-Jacobian closure. Graphs are
built per step and freed after backward(). Reductions run in numpy's
fixed order, so forward and backward are deterministic for a given
platform and dtype.
"""

import numpy as np
from scipy.special import erf as _erf

__all__ = ["Tensor", "as_tensor", "matmul", "gather_rows", "dropout",
           "softmax", "log_softmax", "layer_norm", "gelu", "silu"]


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

    __slots__ = ("data", "grad", "requires_grad", "name", "_backward", "_parents")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._backward = None
        self._parents = ()

    # -- construction -----------------------------------------------------

    @staticmethod
    def parameter(data, name):
        t = Tensor(np.asarray(data), requires_grad=True, name=name)
        t.grad = np.zeros_like(t.data)
        return t

    def detach(self):
        return Tensor(self.data)

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
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
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
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node is not self and not node.requires_grad:
                node.grad = None
            node._backward = None
            node._parents = ()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
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
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)
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
        other = as_tensor(other)
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
        return as_tensor(other) / self

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
            full = np.zeros_like(self.data)
            if basic:
                full[index] = g  # a basic index never repeats an element
            else:
                np.add.at(full, index, g)
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
                 else np.prod([self.data.shape[a] for a in np.atleast_1d(axis)]))
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


def _node(data, parents):
    tracked = tuple(p for p in parents
                    if p.requires_grad or p._parents or p._backward is not None)
    out = Tensor(data)
    out._parents = tracked
    return out


def as_tensor(value):
    return value if isinstance(value, Tensor) else Tensor(value)


def matmul(a, b):
    """Matrix product with numpy broadcasting over leading batch axes.

    A weight product, a 2-D ``b`` under a left operand with leading axes,
    runs as one GEMM over all rows of ``a`` (see ``_row_matmul``).
    """
    a, b = as_tensor(a), as_tensor(b)
    if b.data.ndim == 2 and a.data.ndim > 2:
        return _row_matmul(a, b)
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


def _row_matmul(a, b):
    """(..., k) @ (k, n) as one (rows, k) @ (k, n) product.

    The weight gradient is a single (k, n) product over all rows, not one
    per leading index summed afterwards. The closure keeps ``a`` itself and
    reshapes its data again at backward time, so the graph holds no copy.
    """
    k, n = b.data.shape
    lead = a.data.shape[:-1]
    out = _node((a.data.reshape(-1, k) @ b.data).reshape(lead + (n,)), (a, b))

    def backward(g):
        g2 = g.reshape(-1, n)
        if a.requires_grad or a._parents:
            a._accumulate((g2 @ b.data.T).reshape(a.data.shape))
        if b.requires_grad or b._parents:
            b._accumulate(a.data.reshape(-1, k).T @ g2)
    out._backward = backward
    return out


def gather_rows(table, ids):
    """Row lookup table[ids] with scatter-add backward (embedding gather)."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    out = _node(table.data[ids], (table,))

    def backward(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        table._accumulate(full)
    out._backward = backward
    return out


def softmax(x, axis=-1):
    """Numerically stable softmax (shift by a constant row max)."""
    x = as_tensor(x)
    shifted = x - np.max(x.data, axis=axis, keepdims=True)
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x, axis=-1):
    x = as_tensor(x)
    shifted = x - np.max(x.data, axis=axis, keepdims=True)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def layer_norm(x, gain, bias, eps=1e-5):
    """Row-wise normalization over the last axis, then affine gain/bias."""
    x = as_tensor(x)
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normalized = centered / (var + eps).sqrt()
    return normalized * gain + bias


def gelu(x):
    """Exact Gaussian-error-unit activation 0.5 x (1 + erf(x / sqrt(2)))."""
    x = as_tensor(x)
    inner = _erf(x.data / np.sqrt(2.0))
    value = 0.5 * x.data * (1.0 + inner)
    out = _node(value, (x,))

    def backward(g):
        pdf = np.exp(-0.5 * x.data * x.data) / np.sqrt(2.0 * np.pi)
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
    x = as_tensor(x)
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    return x * (keep / (1.0 - rate))
