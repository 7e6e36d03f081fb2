"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray. Operations record their parents and a backward
closure; calling backward() on a recorded scalar walks the graph in reverse
topological order and accumulates gradients into the ``grad`` field of every
tensor created with requires_grad=True. Inside a ``no_grad()`` block nothing
is recorded, so inference costs no graph memory.

Ops are called by name (``add``, ``mul``, ``linear``, ...); a Tensor has no
arithmetic operators. A layer is one op: ``linear`` is a whole dense layer,
and ``layers`` adds one node per conv stack and per GRU direction.
Everything is float32 or float64; the dtype of an operation follows numpy's
promotion of its inputs. A Python scalar passed to ``add`` or ``mul`` is a
constant in the other operand's dtype.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..errors import StateError

_grad_enabled = True

_FLOAT_DTYPES = (np.float32, np.float64)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def records(*tensors: "Tensor") -> bool:
    """Whether an op over these inputs is recorded in the graph right now."""
    return _grad_enabled and any(t.requires_grad for t in tensors)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _make(data, parents, backward_fn):
        """Create an op result; records the graph only when it matters."""
        out = Tensor(data)
        if records(*parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        return out

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        """Fill this tensor's gradient with zeros of its shape and dtype."""
        self.grad = np.zeros_like(self.data)

    # -- backward ------------------------------------------------------------

    def backward(self):
        """Populate gradients of all reachable requires_grad tensors.

        The receiver must be a scalar produced by a recorded forward pass.
        Gradients accumulate into ``grad``. A leaf whose ``grad`` is None
        takes its first contribution plus a zero of its own dtype, so it
        gets the same bytes (+0.0 for -0.0) and dtype as a zero-filled
        ``grad`` (``Tensor.zero_grad``) would. Releasing gradients
        (``grad = None``) before a backward therefore equals zero-filling
        them. The graph stays intact; it is freed when the last reference
        to the receiver goes.
        """
        if self._backward_fn is None:
            raise StateError("backward called without a recorded forward pass")
        if self.data.size != 1:
            raise StateError(f"backward requires a scalar output, got shape {self.data.shape}")

        # Iterative topological sort over recorded nodes.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited or node._backward_fn is None:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))

        flowing: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            grad_out = flowing.pop(id(node), None)
            if grad_out is None:
                continue
            for parent, grad_in in zip(node._parents, node._backward_fn(grad_out)):
                if grad_in is None:
                    continue
                if parent._backward_fn is None:
                    # Leaf: accumulate directly into .grad when requested.
                    if parent.requires_grad:
                        if parent.grad is None:
                            parent.grad = np.add(grad_in, np.zeros((), parent.data.dtype))
                        else:
                            parent.grad = parent.grad + grad_in
                    continue
                key = id(parent)
                if key in flowing:
                    flowing[key] = flowing[key] + grad_in
                else:
                    flowing[key] = grad_in

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def _coerce(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- primitive operations -------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return Tensor._make(out, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out = a.data * b.data

    def backward(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return Tensor._make(out, (a, b), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight + bias`` for (N, F) @ (F, M) + (M,), as one node."""
    out = x.data @ weight.data + bias.data

    def backward(g):
        return g @ weight.data.T, x.data.T @ g, g.sum(axis=0)

    return Tensor._make(out, (x, weight, bias), backward)


def reshape(t: Tensor, shape) -> Tensor:
    original = t.data.shape
    out = t.data.reshape(shape)

    def backward(g):
        return (g.reshape(original),)

    return Tensor._make(out, (t,), backward)


def transpose(t: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = t.data.transpose(axes)

    def backward(g):
        return (g.transpose(inverse),)

    return Tensor._make(out, (t,), backward)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    sizes = [t.data.shape[axis] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        pieces = []
        index = [slice(None)] * g.ndim
        for i in range(len(sizes)):
            index[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(g[tuple(index)])
        return tuple(pieces)

    return Tensor._make(out, tuple(tensors), backward)


def relu(t: Tensor) -> Tensor:
    out = np.maximum(t.data, 0.0)

    def backward(g):
        return (g * (t.data > 0.0),)

    return Tensor._make(out, (t,), backward)


def logistic(x: np.ndarray) -> np.ndarray:
    """Elementwise sigmoid as 0.5 * (1 + tanh(x / 2)), computed in one array.

    tanh saturates at +-1 instead of overflowing, so every input takes the
    same branch-free path, and logistic(0) is exactly 0.5.
    """
    out = np.multiply(x, 0.5)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def sigmoid(t: Tensor) -> Tensor:
    out = logistic(t.data)

    def backward(g):
        return (g * out * (1.0 - out),)

    return Tensor._make(out, (t,), backward)


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    shifted = t.data - t.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return Tensor._make(out, (t,), backward)


def sum_all(t: Tensor) -> Tensor:
    out = t.data.sum()

    def backward(g):
        return (np.broadcast_to(g, t.data.shape).astype(t.data.dtype, copy=True),)

    return Tensor._make(out, (t,), backward)


def mean_all(t: Tensor) -> Tensor:
    n = t.data.size
    out = t.data.mean()

    def backward(g):
        return (np.broadcast_to(g / n, t.data.shape).astype(t.data.dtype, copy=True),)

    return Tensor._make(out, (t,), backward)
