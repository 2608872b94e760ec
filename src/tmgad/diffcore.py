"""Minimal reverse-mode autodiff over dense float64 matrices.

Everything is a 2-D tensor. Each op follows one protocol:

- The forward pass runs eagerly in numpy and computes a fresh output array.
- The op defines one closure, ``bwd(g)``, over its own forward locals (inputs,
  output array, masks). Given the gradient ``g`` of the output, it adds each
  input's gradient into that input with ``_accum``, and computes an input's
  gradient only when that input requires one.
- ``_accum`` adopts the first gradient array a tensor receives as its ``grad``
  and adds later ones into it. So a closure hands ``_accum`` a fresh array
  that nothing else holds: an op whose input gradient is ``g`` itself or a
  view of it (``add_bias``, ``add_const``, ``concat_rows``, ``concat_cols``)
  copies it first.
- ``_make(name, array, parents, bwd)`` wraps the array in a Tensor. When a
  tape is open and a parent requires gradients, it appends the record
  ``(out, bwd)`` to the innermost open tape.

``Tape.backward`` on a 1x1 loss walks the records in reverse and calls
``bwd(out.grad)`` for every output that received a gradient, so gradients
accumulate additively into every reachable tensor that requires them.
Exactly the operations the model needs are provided; there is no
broadcasting beyond row-vector bias addition and column-vector scaling.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.special import expit


class DiffError(Exception):
    pass


class ShapeMismatchError(DiffError):
    pass


class NumericGuardError(DiffError):
    pass


class Tensor:
    """A (rows, cols) float64 array with an optional gradient accumulator."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeMismatchError(f"tensors are 2-D, got ndim={arr.ndim}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(arr) if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatchError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def tensor(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def zero_grads(tensors) -> None:
    for t in tensors:
        if t.requires_grad:
            t.grad = np.zeros_like(t.data)


class Tape:
    """Records (out, bwd) in execution order; backward replays them reversed once.

    Tapes nest: ops record on the innermost open tape only.
    """

    _stack: list["Tape"] = []  # open tapes, innermost last

    def __init__(self):
        self._nodes = []  # (out, bwd)
        self._used = False

    def __enter__(self):
        Tape._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        if not Tape._stack or Tape._stack[-1] is not self:
            raise DiffError("tape stack corrupted (exited out of order)")
        Tape._stack.pop()
        return False

    def __len__(self):
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        if self._used:
            raise DiffError("backward called twice on the same tape; build a new tape")
        if loss.shape != (1, 1):
            raise ShapeMismatchError(f"loss must be 1x1, got {loss.shape}")
        if not self._nodes:
            raise DiffError("backward on an empty tape")
        self._used = True
        if loss.grad is None:
            loss.grad = np.zeros_like(loss.data)
        loss.grad += 1.0
        for out, bwd in reversed(self._nodes):
            if out.grad is None:
                continue  # no downstream contribution
            bwd(out.grad)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g  # closures hand fresh arrays (module docstring)
    else:
        t.grad += g


def _guard(name: str, arr: np.ndarray) -> None:
    # a sum over finite values is finite; any nan/inf poisons it
    if not math.isfinite(arr.sum()):
        if np.all(np.isfinite(arr)):
            raise NumericGuardError(f"overflowing values in op '{name}'")
        raise NumericGuardError(f"non-finite output in op '{name}'")


def _make(name: str, data: np.ndarray, parents, bwd) -> Tensor:
    _guard(name, data)
    needs = bool(Tape._stack) and any(p.requires_grad for p in parents)
    out = object.__new__(Tensor)  # data is already a fresh 2-D float64 array
    out.data = data
    out.requires_grad = needs
    out.grad = None  # allocated lazily during backward
    if needs:
        Tape._stack[-1]._nodes.append((out, bwd))
    return out


def _shape_check(op: str, cond: bool, detail: str) -> None:
    if not cond:
        raise ShapeMismatchError(f"{op}: {detail}")


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _shape_check("matmul", a.shape[1] == b.shape[0], f"{a.shape} @ {b.shape}")
    data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return _make("matmul", data, (a, b), bwd)


def spmm(a_const, x: Tensor) -> Tensor:
    """Symmetric constant matrix times tensor; no gradient w.r.t. the matrix.

    `a_const` (sparse or dense) must equal its transpose, so both directions
    multiply by `a_const.T`: for a CSR matrix, the same arrays read as CSC,
    whose scipy kernel is the faster one. With sorted indices it sums each
    output entry in the same order as the CSR kernel would.
    """
    _shape_check("spmm", a_const.shape[1] == x.shape[0] == a_const.shape[0],
                 f"{a_const.shape} @ {x.shape}")
    at = a_const.T

    def bwd(g):
        _accum(x, at @ g)

    return _make("spmm", np.asarray(at @ x.data), (x,), bwd)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Row-vector bias added to every row (the one permitted broadcast)."""
    _shape_check("add_bias", b.shape == (1, x.shape[1]), f"{x.shape} + bias {b.shape}")
    data = x.data + b.data

    def bwd(g):
        if x.requires_grad:
            _accum(x, g.copy())
        if b.requires_grad:
            _accum(b, g.sum(axis=0, keepdims=True))

    return _make("add_bias", data, (x, b), bwd)


def add_const(x: Tensor, c) -> Tensor:
    data = x.data + c

    def bwd(g):
        _accum(x, g.copy())

    return _make("add_const", data, (x,), bwd)


def mul_const(x: Tensor, c) -> Tensor:
    """Elementwise multiply by a constant scalar or array (dropout masks and the like)."""
    data = x.data * c

    def bwd(g):
        _accum(x, g * c)

    return _make("mul_const", data, (x,), bwd)


def mul_col(x: Tensor, col: Tensor) -> Tensor:
    """Scale row i of x by col[i]; both differentiable."""
    _shape_check("mul_col", col.shape == (x.shape[0], 1), f"{x.shape} * col {col.shape}")
    data = x.data * col.data

    def bwd(g):
        if x.requires_grad:
            _accum(x, g * col.data)
        if col.requires_grad:
            _accum(col, (g * x.data).sum(axis=1, keepdims=True))

    return _make("mul_col", data, (x, col), bwd)


def concat_rows(parts) -> Tensor:
    parts = list(parts)
    _shape_check("concat_rows", len(parts) > 0, "empty input")
    cols = parts[0].shape[1]
    _shape_check("concat_rows", all(p.shape[1] == cols for p in parts),
                 f"column counts differ: {[p.shape for p in parts]}")
    data = np.concatenate([p.data for p in parts], axis=0)
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def bwd(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accum(p, g[lo:hi].copy())

    return _make("concat_rows", data, tuple(parts), bwd)


def concat_cols(parts) -> Tensor:
    parts = list(parts)
    _shape_check("concat_cols", len(parts) > 0, "empty input")
    rows = parts[0].shape[0]
    _shape_check("concat_cols", all(p.shape[0] == rows for p in parts),
                 f"row counts differ: {[p.shape for p in parts]}")
    data = np.concatenate([p.data for p in parts], axis=1)
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])

    def bwd(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accum(p, g[:, lo:hi].copy())

    return _make("concat_cols", data, tuple(parts), bwd)


def select_rows(x: Tensor, indices) -> Tensor:
    """Rows x[indices] in the given order; an index may repeat.

    Forward is the fancy index. Backward writes g into the selected rows of a
    zero array when no index repeats, and otherwise sums g through the
    transposed one-hot matrix of the indices, as `gather_sum` does.
    """
    idx = np.asarray(indices, dtype=np.intp)
    _shape_check("select_rows", idx.ndim == 1, f"{idx.shape} indices")
    rows = x.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise ShapeMismatchError(f"select_rows: index out of range for {rows} rows")

    def bwd(g):
        if idx.size <= rows and np.bincount(idx, minlength=rows).max() <= 1:
            grad = np.zeros_like(x.data)
            grad[idx] = g
        else:
            one_hot = sp.csr_matrix((np.ones(idx.size), idx, np.arange(idx.size + 1)),
                                    shape=(idx.size, rows))
            grad = one_hot.T @ g
        _accum(x, grad)

    return _make("select_rows", x.data[idx], (x,), bwd)


def gather_sum(x: Tensor, idx, values, sizes) -> Tensor:
    """Segment s of `sizes` gives row sum_j values[j] * x[idx[j]]; an empty one gives 0.

    Forward is the k x rows(x) CSR matrix of `values` (m x 1 tensor or constant array)
    times x; backward gives x its transpose times g, `values` the dot of g[segment], x[idx].
    """
    idx, sizes = np.asarray(idx, dtype=np.intp), np.asarray(sizes, dtype=np.intp)
    if not isinstance(values, Tensor):
        values = tensor(np.asarray(values, dtype=np.float64).reshape(-1, 1))
    _shape_check("gather_sum", idx.ndim == 1 and values.shape == (idx.size, 1)
                 and sizes.ndim == 1 and sizes.size > 0 and sizes.min() >= 0
                 and sizes.sum() == idx.size,
                 f"{idx.shape} indices, {values.shape} values, {sizes.size} segments")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeMismatchError(f"gather_sum: index out of range for {x.shape[0]} rows")
    mat = sp.csr_matrix((values.data[:, 0], idx, np.concatenate([[0], np.cumsum(sizes)])),
                        shape=(sizes.size, x.shape[0]))

    def bwd(g):
        if x.requires_grad:
            _accum(x, mat.T @ g)
        if values.requires_grad:
            rows = g[np.repeat(np.arange(sizes.size), sizes)]
            _accum(values, np.einsum("ij,ij->i", rows, x.data[idx]).reshape(-1, 1))

    return _make("gather_sum", mat @ x.data, (x, values), bwd)


def segment_sum_rows(x: Tensor, sizes) -> Tensor:
    """Sum consecutive row segments of the given sizes: sum(sizes) x d -> k x d."""
    sizes = np.asarray(sizes, dtype=np.intp)
    _shape_check("segment_sum_rows", sizes.ndim == 1 and sizes.size > 0 and sizes.min() > 0,
                 "segment sizes must be positive")
    _shape_check("segment_sum_rows", int(sizes.sum()) == x.shape[0],
                 f"segments cover {int(sizes.sum())} rows, tensor has {x.shape[0]}")
    bounds = np.cumsum(sizes)[:-1]
    data = np.add.reduceat(x.data, np.concatenate([[0], bounds]), axis=0)

    def bwd(g):
        _accum(x, np.repeat(g, sizes, axis=0))

    return _make("segment_sum_rows", data, (x,), bwd)


def div_col(x: Tensor, col: Tensor) -> Tensor:
    """Divide row i of x by col[i]; both differentiable."""
    _shape_check("div_col", col.shape == (x.shape[0], 1), f"{x.shape} / col {col.shape}")
    data = x.data / col.data

    def bwd(g):
        if x.requires_grad:
            _accum(x, g / col.data)
        if col.requires_grad:
            _accum(col, -(g * data).sum(axis=1, keepdims=True) / col.data)

    return _make("div_col", data, (x, col), bwd)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def bwd(g):
        _accum(x, g * (1.0 - y * y))

    return _make("tanh", y, (x,), bwd)


def sigmoid(x: Tensor) -> Tensor:
    y = expit(x.data)

    def bwd(g):
        _accum(x, g * y * (1.0 - y))

    return _make("sigmoid", y, (x,), bwd)


def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0.0)

    def bwd(g):
        _accum(x, g * (x.data > 0.0))

    return _make("relu", y, (x,), bwd)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Elementwise min(max(x, lo), hi); gradient passes only where lo <= x <= hi."""
    y = np.minimum(np.maximum(x.data, lo), hi)

    def bwd(g):
        _accum(x, g * ((x.data >= lo) & (x.data <= hi)))

    return _make("clip", y, (x,), bwd)


def _check_col(op: str, x: Tensor) -> None:
    _shape_check(op, x.shape[1] == 1 and x.shape[0] >= 1, f"need a column vector, got {x.shape}")


def softmax_blocks(x: Tensor, block: int) -> Tensor:
    """Softmax within consecutive groups of `block` entries of a column vector."""
    _check_col("softmax_blocks", x)
    n = x.shape[0]
    _shape_check("softmax_blocks", block > 0 and n % block == 0, f"{n} rows not divisible by {block}")
    z = x.data.reshape(-1, block)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = (e / e.sum(axis=1, keepdims=True)).reshape(n, 1)

    def bwd(g):
        yb = y.reshape(-1, block)
        gb = g.reshape(-1, block)
        dots = (yb * gb).sum(axis=1, keepdims=True)
        _accum(x, (yb * (gb - dots)).reshape(n, 1))

    return _make("softmax_blocks", y, (x,), bwd)


def segment_sparsemax(x: Tensor, sizes) -> Tensor:
    """Sparsemax within consecutive segments of a column vector.

    Each segment z of length n is projected onto its own simplex by sort and
    threshold: sort z descending into z_(1) >= ... >= z_(n), take the support
    size k* = max{k : 1 + k * z_(k) > z_(1) + ... + z_(k)}, set the threshold
    tau = (z_(1) + ... + z_(k*) - 1) / k*, and output max(z - tau, 0). All
    segments run at once on a segments x longest grid, padded past each
    segment's end. Backward uses the support-set Jacobian per segment:
    identity minus uniform averaging over the support, zero off-support.
    """
    _check_col("segment_sparsemax", x)
    sizes = np.asarray(sizes, dtype=np.intp)
    _shape_check("segment_sparsemax", sizes.ndim == 1 and sizes.size > 0 and sizes.min() > 0,
                 "segment sizes must be positive")
    _shape_check("segment_sparsemax", int(sizes.sum()) == x.shape[0],
                 f"segments cover {int(sizes.sum())} rows, tensor has {x.shape[0]}")
    k = sizes.size
    seg = np.repeat(np.arange(k), sizes)
    pos = np.arange(x.shape[0]) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    grid = np.full((k, int(sizes.max())), np.inf)
    grid[seg, pos] = -x.data[:, 0]
    zs = -np.sort(grid, axis=1)                      # descending, padding last
    valid = np.arange(grid.shape[1]) < sizes[:, None]
    zs[~valid] = 0.0
    css = np.cumsum(zs, axis=1)
    ks = np.arange(1, grid.shape[1] + 1)
    k_star = np.where((1.0 + ks * zs > css) & valid, ks, 0).max(axis=1)
    tau = (css[np.arange(k), k_star - 1] - 1.0) / k_star
    y = np.maximum(x.data[:, 0] - tau[seg], 0.0).reshape(-1, 1)

    def bwd(g):
        support = y[:, 0] > 0.0
        gv = np.where(support, g[:, 0], 0.0)
        mean_supp = (np.bincount(seg, weights=gv, minlength=k)
                     / np.bincount(seg, weights=support, minlength=k))
        _accum(x, np.where(support, gv - mean_supp[seg], 0.0).reshape(-1, 1))

    return _make("segment_sparsemax", y, (x,), bwd)


def rowwise_dot(a: Tensor, b: Tensor) -> Tensor:
    """Per-row dot product of two k x d tensors -> k x 1."""
    _shape_check("rowwise_dot", a.shape == b.shape, f"{a.shape} vs {b.shape}")
    data = (a.data * b.data).sum(axis=1, keepdims=True)

    def bwd(g):
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, g * a.data)

    return _make("rowwise_dot", data, (a, b), bwd)


def bce_with_logits(logits: Tensor, targets, pos_weight: float | None = None) -> Tensor:
    """Mean binary cross-entropy on logits, fused log-sum-exp-stable form."""
    _check_col("bce_with_logits", logits)
    y = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
    _shape_check("bce_with_logits", y.shape == logits.shape,
                 f"logits {logits.shape} vs targets {y.shape}")
    z = logits.data
    w = 1.0 + (pos_weight - 1.0) * y if pos_weight is not None else np.ones_like(y)
    per = (1.0 - y) * z + w * np.logaddexp(0.0, -z)  # log(1 + exp(-z)) without overflow
    n = z.shape[0]
    data = np.array([[per.sum() / n]])

    def bwd(g):
        dz = ((1.0 - y) - w * expit(-z)) / n
        _accum(logits, g[0, 0] * dz)

    return _make("bce_with_logits", data, (logits,), bwd)


def restore_tensors(named: dict, loaded: dict) -> None:
    """Copy loaded arrays into existing tensors; names and shapes must match."""
    missing = sorted(set(named) - set(loaded))
    extra = sorted(set(loaded) - set(named))
    if missing or extra:
        raise DiffError(f"checkpoint name mismatch: missing={missing} extra={extra}")
    for name, t in named.items():
        arr = loaded[name]
        if arr.shape != t.data.shape:
            raise DiffError(f"checkpoint shape mismatch for '{name}': "
                            f"{arr.shape} vs {t.data.shape}")
        t.data[...] = arr
