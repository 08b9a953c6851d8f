"""Dense tensors with reverse-mode differentiation.

A Tensor wraps a numpy array plus an optional backward closure linking it
to its parents. Every op creates its output through one call,
`Tensor._make(data, parents, bwd, op)`: it computes the forward, defines
`bwd(g)` (the gradient of its output mapped to one gradient, or None, per
parent) and passes both in. `_make` keeps `parents` and `bwd` only when
grad mode is on and some parent requires a gradient; otherwise the node is
a constant and the closure is dropped unused, so work a backward alone
needs belongs inside `bwd`.

Creation order doubles as a topological order (an op's output always has
a larger id than its inputs), so reverse-mode traversal is simply "visit
reachable nodes by descending id". Tensors are immutable by convention
after creation; training code only mutates leaf `.data` buffers between
steps, and after such a write it calls `Policy.params_changed()`, because
`Policy.act` keeps encoder rows and slot rows computed from the old values.

Two float precisions are supported: float32 for training and float64 for
gradient verification. Parameters are created in float32; a float64 copy
of a model is a cast of its parameters (`ad.param(p.data.astype(np.float64))`).
Mixed dtypes are an error rather than a silent cast: `_make` checks that
every parent of a node has the dtype of its output.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import ContractError, DimensionError

_ids = itertools.count()
_grad_enabled = True

FLOAT_DTYPES = (np.float32, np.float64)
_FLOATS = tuple(np.dtype(t) for t in FLOAT_DTYPES)  # `in` tests identity first


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block (inference fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _coerce(data, dtype) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        return np.ascontiguousarray(arr, dtype=dtype)
    if arr.dtype in FLOAT_DTYPES:
        return np.ascontiguousarray(arr)
    return np.ascontiguousarray(arr, dtype=np.float32)


class Tensor:
    """A node in the computation graph."""

    __slots__ = ("data", "requires_grad", "id", "parents", "bwd", "op")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        dtype=None,
        parents: Sequence["Tensor"] = (),
        bwd: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None,
        op: str = "leaf",
    ):
        self.data = _coerce(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.id = next(_ids)
        self.parents = tuple(parents)
        self.bwd = bwd
        self.op = op

    # -- introspection ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.shape}, dtype={self.data.dtype})"

    # -- graph construction: the one point where ops create nodes ----------

    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"], bwd, op: str) -> "Tensor":
        dtype, needs = data.dtype, False
        for p in parents:  # an op's inputs and output share one dtype
            if p.data.dtype is not dtype and p.data.dtype != dtype:
                raise DimensionError(f"{op}: dtype mismatch {p.data.dtype} vs {dtype}")
            needs = needs or p.requires_grad
        needs = needs and _grad_enabled
        parents, bwd = (tuple(parents), bwd) if needs else ((), None)
        # `_coerce` would return a C-contiguous float array of at least one axis as it is: skip `__init__`
        if type(data) is not np.ndarray or not data.ndim or dtype not in _FLOATS or not data.flags.c_contiguous:
            return Tensor(data, requires_grad=needs, parents=parents, bwd=bwd, op=op)
        out = Tensor.__new__(Tensor)
        out.data, out.requires_grad, out.id, out.parents, out.bwd, out.op = data, needs, next(_ids), parents, bwd, op
        return out

    # -- elementwise arithmetic --------------------------------------------

    def _binary_prep(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other) -> "Tensor":
        other = self._binary_prep(other)
        a, b = self, other
        out = a.data + b.data

        def bwd(g):
            return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

        return Tensor._make(out, (a, b), bwd, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor._make(-self.data, (self,), lambda g: (-g,), "neg")

    def __sub__(self, other) -> "Tensor":
        return self + (-self._binary_prep(other))

    def __mul__(self, other) -> "Tensor":
        other = self._binary_prep(other)
        a, b = self, other
        out = a.data * b.data

        def bwd(g):
            ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
            gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
            return ga, gb

        return Tensor._make(out, (a, b), bwd, "mul")

    __rmul__ = __mul__

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        return Tensor._make(self.data.reshape(shape), (self,), lambda g: (g.reshape(old),), "reshape")

    # -- reductions ------------------------------------------------------------

    def sum(self, axis=None) -> "Tensor":
        shape = self.shape

        def bwd(g):
            gg = np.asarray(g)
            if axis is not None:
                gg = np.expand_dims(gg, axis)
            return (np.broadcast_to(gg, shape).copy(),)

        return Tensor._make(self.data.sum(axis=axis), (self,), bwd, "sum")

    def mean(self) -> "Tensor":
        """The mean of every entry, a scalar."""
        return self.sum() * (1.0 / self.data.size)

    def abs(self) -> "Tensor":
        # subgradient at 0 is 0: np.sign(0) == 0
        sign = np.sign(self.data)
        return Tensor._make(np.abs(self.data), (self,), lambda g: (g * sign,), "abs")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to the shape of a broadcast operand."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    squash = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if squash:
        g = g.sum(axis=squash, keepdims=True)
    return g


def _reachable(output: Tensor) -> list[Tensor]:
    """The nodes a gradient reaches from `output`, in creation (topological) order."""
    seen: set[int] = set()
    nodes: list[Tensor] = []
    stack = [output]
    while stack:
        node = stack.pop()
        if node.id in seen:
            continue
        seen.add(node.id)
        nodes.append(node)
        stack.extend(p for p in node.parents if p.requires_grad)
    nodes.sort(key=lambda n: n.id)
    return nodes


def backward(loss: Tensor, params: Iterable[Tensor]) -> dict[Tensor, np.ndarray]:
    """Reverse-mode gradients of a scalar loss.

    Returns a map from each of `params` to its gradient array; a parameter
    the loss does not reach gets zeros.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    nodes = _reachable(loss)
    grads: dict[int, np.ndarray] = {loss.id: np.ones_like(loss.data)}
    for node in reversed(nodes):
        if node.bwd is None:
            continue
        g = grads.pop(node.id, None)
        if g is None:
            continue
        parent_grads = node.bwd(g)
        for parent, pg in zip(node.parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            if pg.shape != parent.shape:
                raise DimensionError(
                    f"backward of {node.op}: grad shape {pg.shape} != input shape {parent.shape}"
                )
            have = grads.get(parent.id)
            grads[parent.id] = pg if have is None else have + pg
    out: dict[Tensor, np.ndarray] = {}
    for p in params:
        g = grads.get(p.id)
        out[p] = np.zeros_like(p.data) if g is None else g
    return out


def tensor(data, dtype=None) -> Tensor:
    """A constant (non-trainable) tensor."""
    return Tensor(data, dtype=dtype)


def param(data) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(data, requires_grad=True)


def zeros(shape, dtype) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype))
