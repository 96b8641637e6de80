"""A reverse-mode tape engine over dense float64 tensors.

No package module imports this one: every model's gradient is a closed
form in numpy. The engine stays as the base of the tape references in
tests/ (tests/tape_ops.py holds the primitives), against which every
closed form is checked bit for bit. A tape's nodes are Tensors holding a
read-only forward value, their parent tensors and a closure that maps the
incoming gradient to per-parent gradients; `backward` walks the graph once
in reverse topological order.
"""

from __future__ import annotations

import numpy as np

from rdecomp._kernels import ShapeError


class Tensor:
    __slots__ = ("data", "parents", "vjp")

    def __init__(self, data, parents=(), vjp=None):
        arr = np.array(data, dtype=np.float64)
        arr.flags.writeable = False
        self.data = arr
        self.parents = tuple(parents)
        self.vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, leaf={self.vjp is None})"


def _result(arr, parents, vjp):
    out = Tensor.__new__(Tensor)
    arr = np.asarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    out.data = arr
    out.parents = tuple(parents)
    out.vjp = vjp
    return out


# ---------------------------------------------------------------------------
# reverse pass


class Gradients:
    """Gradient map keyed by tensor identity; absent tensors read as zero."""

    def __init__(self, table):
        self._table = table

    def of(self, tensor):
        got = self._table.get(id(tensor))
        if got is None:
            return np.zeros(tensor.shape)
        return got

    def __contains__(self, tensor):
        return id(tensor) in self._table


def _topo_order(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root, seed=None):
    """Reverse-mode sweep from root, with the gradient `seed` at the root
    (ones at a scalar root by default); returns a `Gradients` map."""
    if seed is None:
        if root.data.size != 1:
            raise ShapeError(f"backward: root must be scalar, got shape {root.shape}")
        seed = np.ones(root.shape)
    elif seed.shape != root.shape:
        raise ShapeError(f"backward: seed {seed.shape} for root {root.shape}")
    table = {id(root): seed}
    for node in reversed(_topo_order(root)):
        g = table.get(id(node))
        if g is None or node.vjp is None:
            continue
        parent_grads = node.vjp(g)
        for parent, pg in zip(node.parents, parent_grads):
            if pg is None:
                continue
            acc = table.get(id(parent))
            if acc is None:
                table[id(parent)] = np.array(pg, dtype=np.float64)
            else:
                table[id(parent)] = acc + pg
    return Gradients(table)
