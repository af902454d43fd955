"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records every operation in execution order as it happens, each
through ``_op`` with one vector-Jacobian product per live operand.
``Tape.backward`` replays the records in reverse, accumulating the VJPs'
contributions into a per-node gradient table. The replay order is fixed by the
recording order, so two backward passes over the same tape produce
bit-identical gradients.

A leaf may be bound to a destination array (``Tape.leaf(data, grad=...)``):
the backward pass then writes that leaf's gradient straight into it, by the
VJP's ``out=`` where it has one, so a caller can collect every gradient in
one preallocated vector.

A tape may be given a ``Workspace``, which outlives it: the ops of a
training step (``matmul``, ``relu``, ``l2_normalize``, ``squared_distance``,
``row_slice``) on its tracked tensors and the backward pass then write
their matrices into buffers kept there, and the next tape over the same
workspace gets them back in request order. A buffer serves any request
with its column count and at most its rows, through its leading rows, so a
shorter batch reuses it and never shrinks it. Creating a tape over a
workspace recycles the buffers of the previous tape over it, so that tape's
outputs and gradients are overwritten from then on. Without a workspace
every op allocates its results.

Conventions:

* everything is float64; inputs are coerced on entry and never downcast,
  and an op's result is its own float64 array, not coerced again,
* arrays handed to an operation are treated as immutable while its tape
  is in use,
* tensors without a node are constants and have no tape, which makes
  every op usable for plain inference as well. Every op but
  ``stacked_matmul`` returns through ``_op``, the one place that decides
  what constants get: when no operand is tracked, the result is a
  constant that records nothing, and the op draws no workspace buffer.
* on constants, ``l2_normalize``, ``squared_distance``, ``batch_mean`` and
  ``row_slice`` also take stacks: leading axes that index independent
  problems, such as K parameter states evaluated in one forward, and
  ``stacked_matmul`` is ``matmul`` for stacks (``relu`` and the elementwise
  ops take any shape). Each slice gets the bits of its own 2-D (1-D for
  ``batch_mean``) call. The VJPs are 2-D (1-D), so a stack with a tracked
  operand raises ``ShapeError``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import (
    ContractError,
    DegenerateRepresentationError,
    DomainError,
    EmptyBatchError,
    ShapeError,
)

# Row norms below this are considered zero and refuse to normalize.
NORM_EPS = 1e-12

# Unit-norm tolerance for tangential_filter's precondition.
UNIT_ATOL = 1e-9


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """A float64 array plus an optional position on a gradient tape; only
    Tape.leaf and a recorded op give it one."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, data):
        self.data = _as_f64(data)
        self.tape = None
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        if self.data.ndim != 0:
            raise ContractError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data)

    def __repr__(self):
        tag = "const" if self.node is None else f"node {self.node}"
        return f"Tensor({tag}, shape={self.data.shape})"


def _wrap(data: np.ndarray) -> Tensor:
    # A constant over an op's own float64 result, without coercing it again.
    # Arithmetic on 0-d arrays returns a NumPy scalar; that becomes a 0-d array.
    t = object.__new__(Tensor)
    t.data = data if type(data) is np.ndarray else np.asarray(data)
    t.tape = None
    t.node = None
    return t


def constant(x) -> Tensor:
    """Wrap an array as an untracked tensor."""
    return Tensor(x)


def as_tensor(x) -> Tensor:
    """`x` if it is a tensor, else a constant over it: a float64 ndarray as
    it is, anything else coerced."""
    if isinstance(x, Tensor):
        return x
    if type(x) is np.ndarray and x.dtype == np.float64:
        return _wrap(x)
    return Tensor(x)


class _Record:
    __slots__ = ("out", "inputs", "vjps")

    def __init__(self, out: int, inputs: list[int], vjps: list[Callable]):
        self.out = out
        self.inputs = inputs
        # vjps[i](upstream, out) returns inputs[i]'s contribution, or None for
        # none. `out` is None or an array the contribution may be computed
        # into; a VJP that uses it, or draws a workspace buffer, returns it.
        self.vjps = vjps


class Gradients:
    """Read-only view of the gradient table produced by a backward pass.

    Indexing by a tracked tensor returns its gradient array; leaves the loss
    never touched (for example anything behind a stop_gradient) resolve to
    zeros of the right shape. A leaf bound with a destination returns that
    array, which the next backward pass over the tape overwrites. Treat
    returned arrays as read-only.
    """

    def __init__(self, table: dict[int, np.ndarray], tape: "Tape"):
        self._table = table
        self._tape = tape

    def __getitem__(self, t: Tensor) -> np.ndarray:
        if t.node is None:
            raise ContractError("constants have no gradient")
        if t.tape is not self._tape:
            raise ContractError("tensor belongs to a different tape")
        got = self._table.get(t.node)
        if got is None:
            return np.zeros_like(t.data)
        return got


class Workspace:
    """Matrix buffers that outlive the tapes drawing from them, one tape at
    a time (see the module docstring). VJPs hold the workspace, never their
    tape, so a tape is freed as soon as it is dropped."""

    __slots__ = ("bufs", "next")

    def __init__(self):
        self.bufs: list[np.ndarray] = []
        self.next = 0  # index of the buffer the next request gets


class Tape:
    """Ordered record of operations, replayed in reverse for gradients.

    With `workspace`, matrix buffers are drawn from it, starting again from
    its first buffer."""

    def __init__(self, workspace: Workspace | None = None):
        self._n = 0
        self._records: list[_Record] = []
        self._dests: dict[int, np.ndarray] = {}
        self._ws = workspace
        if workspace is not None:
            workspace.next = 0

    def _new_node(self) -> int:
        node = self._n
        self._n += 1
        return node

    def leaf(self, data, grad: np.ndarray | None = None) -> Tensor:
        """Register an input tensor gradients should be collected for.

        With `grad`, an array of the leaf's shape, every backward pass writes
        the leaf's gradient into it (zeros if the loss does not reach it)."""
        t = Tensor(data)
        t.tape, t.node = self, self._new_node()
        if grad is not None:
            if grad.shape != t.shape:
                raise ShapeError(f"leaf: gradient destination {grad.shape} for shape {t.shape}")
            self._dests[t.node] = grad
        return t

    def backward(self, loss: Tensor) -> Gradients:
        """Accumulate d(loss)/d(node) for every node that feeds the loss.

        A bound leaf's gradient is written into its destination; every other
        in-place addition goes into an accumulator this call allocated or
        drew from the workspace."""
        if loss.tape is not self:
            raise ContractError("loss was not computed on this tape")
        if loss.node is None:
            raise ContractError("loss is a constant; nothing to differentiate")
        if loss.data.ndim != 0:
            raise ContractError(
                f"backward needs a scalar loss, got shape {loss.data.shape}"
            )
        table: dict[int, np.ndarray] = {loss.node: np.ones(())}
        ws = self._ws
        # Nodes whose table entry this call allocated or drew, or owns as a
        # bound destination; only those are added into in place. A contribution
        # may be an array a VJP also handed to another node (add returns its
        # upstream twice), so ownership is per node, never per array.
        owned: set[int] = set()
        # Bound leaves whose destination has not been written yet. Only a
        # node's first contribution is offered it: add(a, a) adds the second.
        pending = dict(self._dests)
        for rec in reversed(self._records):
            upstream = table.get(rec.out)
            if upstream is None:
                continue
            for node, vjp in zip(rec.inputs, rec.vjps):
                have = table.get(node)
                drawn = ws and ws.next
                g = vjp(upstream, pending.get(node) if have is None else None)
                if g is None:
                    continue
                if have is None:
                    dest = pending.pop(node, None)
                    if dest is not None:
                        if g is not dest:
                            np.copyto(dest, g)
                        g = dest
                        owned.add(node)
                    elif ws and ws.next != drawn:
                        # A VJP returns the workspace buffer it drew, which
                        # is this node's alone.
                        owned.add(node)
                    table[node] = g
                elif node in owned:
                    have += g
                else:
                    # Never numpy's own result: for 0-d operands that is a
                    # scalar, which a later contribution cannot add into.
                    acc = _buf(ws, have.shape)
                    table[node] = np.add(have, g, out=np.empty(have.shape) if acc is None else acc)
                    owned.add(node)
        for node, dest in pending.items():
            dest.fill(0.0)
            table[node] = dest
        return Gradients(table, self)


def _buf(ws: Workspace | None, shape, o: np.ndarray | None = None) -> np.ndarray | None:
    """Where an op writes a result of `shape`: `o` when given, else a buffer
    from `ws` for a matrix, else None (numpy allocates)."""
    if o is not None:
        return o
    if ws is None or len(shape) != 2:
        return None
    bufs = ws.bufs
    i = ws.next
    ws.next = i + 1
    rows, cols = shape
    if i < len(bufs):
        buf = bufs[i]
        if buf.shape[1] == cols and buf.shape[0] >= rows:
            return buf[:rows]
        bufs[i] = buf = np.empty(shape)
    else:
        bufs.append(buf := np.empty(shape))
    return buf


def _op(data: np.ndarray, operands) -> Tensor:
    """The result `data` of an op over (tensor, vjp(upstream, out)) pairs:
    recorded on the live operands' tape, skipping constant operands, or,
    when every operand is constant, a constant that records nothing."""
    tape = None
    inputs = []
    vjps = []
    for t, vjp in operands:
        if t.node is None:
            continue
        if tape is None:
            tape = t.tape
        elif t.tape is not tape:
            raise ContractError("operands live on different tapes")
        inputs.append(t.node)
        vjps.append(vjp)
    out = _wrap(data)
    if tape is None:
        return out
    out.tape, out.node = tape, tape._new_node()
    tape._records.append(_Record(out.node, inputs, vjps))
    return out


def _require_same_shape(a: Tensor, b: Tensor, opname: str):
    if a.shape != b.shape:
        raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} differ")


def _require_constant_stack(opname: str, ndim: int, *ts: Tensor) -> None:
    """For an op whose operands are not all `ndim`-D: accept them only as
    constants of at least `ndim` dimensions, a stack of problems."""
    shapes = " and ".join(str(t.shape) for t in ts)
    if any(t.ndim < ndim for t in ts):
        raise ShapeError(f"{opname}: needs operands of at least {ndim} dimensions, got {shapes}")
    if any(t.node is not None for t in ts):
        raise ShapeError(f"{opname}: a tracked operand must be {ndim}-D; "
                         f"only constants stack, got {shapes}")


def _through(g, o):
    return g


def _negated(g, o):
    return -g


def _column_sums(g, o):
    return g.sum(axis=0)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    """Elementwise sum; also accepts a 1-D bias broadcast over matrix rows."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape == b.shape:
        b_vjp = _through
    elif a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
        b_vjp = _column_sums
    else:
        raise ShapeError(f"add: cannot combine shapes {a.shape} and {b.shape}")
    out = a.data + b.data
    return _op(out, [(a, _through), (b, b_vjp)])


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _require_same_shape(a, b, "sub")
    out = a.data - b.data
    return _op(out, [(a, _through), (b, _negated)])


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _require_same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    out = ad * bd
    return _op(out, [(a, lambda g, o: g * bd), (b, lambda g, o: g * ad)])


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _require_same_shape(a, b, "div")
    ad, bd = a.data, b.data
    out = ad / bd
    return _op(out, [(a, lambda g, o: g / bd), (b, lambda g, o: -g * ad / (bd * bd))])


def neg(a) -> Tensor:
    a = as_tensor(a)
    out = -a.data
    return _op(out, [(a, _negated)])


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)
    out = a.data * c
    return _op(out, [(a, lambda g, o: g * c)])


def add_scalar(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)
    out = a.data + c
    return _op(out, [(a, _through)])


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b, bias=None) -> Tensor:
    """a @ b, plus a 1-D bias added to every row when given.

    The bias is added in place on the product, so the result is bitwise that
    of add(matmul(a, b), bias) from one tape record."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions {a.shape} x {b.shape} disagree")
    ad, bd = a.data, b.data
    tape = a.tape or b.tape
    ws = tape and tape._ws
    out = np.matmul(ad, bd, out=_buf(ws, (ad.shape[0], bd.shape[1])))
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (out.shape[1],):
            raise ShapeError(f"matmul: bias shape {bias.shape} for output {out.shape}")
        out += bias.data
    operands = [
        (a, lambda g, o: np.matmul(g, bd.T, out=_buf(ws, ad.shape, o))),
        (b, lambda g, o: np.matmul(ad.T, g, out=_buf(ws, bd.shape, o))),
    ]
    if bias is not None:
        operands.append((bias, lambda g, o: np.add.reduce(g, axis=0, out=o)))
    return _op(out, operands)


def stacked_matmul(a, b, bias=None) -> Tensor:
    """matmul over stacks of constant matrices: (..., n, k) @ (..., k, m)
    slice by slice, plus a bias (..., m), one row for each slice's rows.

    np.matmul runs one GEMM per slice, so each slice has the bits of its
    own matmul call; bias[..., None, :] keeps a (K, m) bias off the row
    axis even when K equals the row count. It is not folded into matmul,
    whose result perfbench's tracer reads as a matrix."""
    a, b = as_tensor(a), as_tensor(b)
    bias = None if bias is None else as_tensor(bias)
    _require_constant_stack("stacked_matmul", 2, a, b, *(() if bias is None else (bias,)))
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"stacked_matmul: inner dimensions {a.shape} x {b.shape} disagree")
    out = np.matmul(a.data, b.data)
    if bias is not None:
        if bias.shape != out.shape[:-2] + out.shape[-1:]:
            raise ShapeError(f"stacked_matmul: bias shape {bias.shape} for output {out.shape}")
        out += bias.data[..., None, :]
    return _wrap(out)


def row_slice(a, lo: int, hi: int) -> Tensor:
    """Rows lo:hi of a matrix, or of each matrix of a stack of constants;
    the VJP scatters into zeros of the full shape."""
    a = as_tensor(a)
    if a.ndim != 2:
        _require_constant_stack("row_slice", 2, a)
    if not 0 <= lo < hi <= a.shape[-2]:
        raise ShapeError(f"row_slice: rows {lo}:{hi} of shape {a.shape}")
    out = a.data[..., lo:hi, :]
    shape = a.shape
    ws = a.tape and a.tape._ws

    def vjp(g, o):
        full = _buf(ws, shape, o)
        if full is None:
            full = np.empty(shape)
        full[:lo] = 0.0
        full[lo:hi] = g
        full[hi:] = 0.0
        return full

    return _op(out, [(a, vjp)])


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose: needs a matrix, got shape {a.shape}")
    out = a.data.T.copy()
    return _op(out, [(a, lambda g, o: g.T)])


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a) -> Tensor:
    """max(a, 0). A NaN entry stays NaN, so a broken input surfaces as a
    non-finite loss instead of vanishing."""
    a = as_tensor(a)
    ws = a.tape and a.tape._ws
    out = np.maximum(a.data, 0.0, out=_buf(ws, a.shape))
    # Derivative at exactly zero is defined as zero; out > 0 exactly where a > 0.
    return _op(out, [(a, lambda g, o: np.multiply(g, out > 0.0, out=_buf(ws, out.shape, o)))])


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return _op(out, [(a, lambda g, o: g * out)])


def log(a) -> Tensor:
    a = as_tensor(a)
    ad = a.data
    if (ad <= 0.0).any():
        raise DomainError("log: input has non-positive entries")
    out = np.log(ad)
    return _op(out, [(a, lambda g, o: g / ad)])


# ---------------------------------------------------------------------------
# reductions


def sum_all(a) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum()
    shape = a.shape
    return _op(out, [(a, lambda g, o: np.broadcast_to(g, shape))])


def batch_mean(a) -> Tensor:
    """Mean of a 1-D per-sample vector, or of each vector of a stack of
    constants; rejects empty batches. The sum is ndarray.mean's, so the
    result is bit for bit a.mean()."""
    a = as_tensor(a)
    if a.ndim != 1:
        _require_constant_stack("batch_mean", 1, a)
    n = a.shape[-1]
    if n == 0:
        raise EmptyBatchError("batch_mean: empty batch")
    out = np.add.reduce(a.data, axis=-1) / n
    return _op(out, [(a, lambda g, o: np.full(n, g / n))])


# ---------------------------------------------------------------------------
# rowwise helpers used by the losses


def squared_distance(a, b) -> Tensor:
    """Per-row squared Euclidean distance between two (n, d) matrices, or
    between two stacks of constant ones."""
    a, b = as_tensor(a), as_tensor(b)
    _require_same_shape(a, b, "squared_distance")
    if a.ndim != 2:
        _require_constant_stack("squared_distance", 2, a, b)
    tape = a.tape or b.tape
    ws = tape and tape._ws
    diff = np.subtract(a.data, b.data, out=_buf(ws, a.shape))
    out = np.einsum("...ij,...ij->...i", diff, diff)

    def scaled_diff(c):
        def vjp(g, o):
            t = np.multiply(c, diff, out=_buf(ws, diff.shape, o))
            t *= g[:, None]
            return t

        return vjp

    return _op(out, [(a, scaled_diff(2.0)), (b, scaled_diff(-2.0))])


def row_dot(a, b) -> Tensor:
    """Per-row inner product of two (n, d) matrices."""
    a, b = as_tensor(a), as_tensor(b)
    _require_same_shape(a, b, "row_dot")
    if a.ndim != 2:
        raise ShapeError(f"row_dot: needs matrices, got shape {a.shape}")
    ad, bd = a.data, b.data
    out = np.einsum("ij,ij->i", ad, bd)
    return _op(out, [(a, lambda g, o: bd * g[:, None]), (b, lambda g, o: ad * g[:, None])])


def scale_rows(a, s) -> Tensor:
    """Multiply row i of a matrix by scalar s[i]."""
    a, s = as_tensor(a), as_tensor(s)
    if a.ndim != 2 or s.ndim != 1 or a.shape[0] != s.shape[0]:
        raise ShapeError(f"scale_rows: shapes {a.shape} and {s.shape} disagree")
    ad, sd = a.data, s.data
    out = ad * sd[:, None]
    return _op(
        out,
        [
            (a, lambda g, o: g * sd[:, None]),
            (s, lambda g, o: np.einsum("ij,ij->i", g, ad)),
        ],
    )


def row_add(a, s) -> Tensor:
    """Add scalar s[i] to every entry of row i."""
    a, s = as_tensor(a), as_tensor(s)
    if a.ndim != 2 or s.ndim != 1 or a.shape[0] != s.shape[0]:
        raise ShapeError(f"row_add: shapes {a.shape} and {s.shape} disagree")
    out = a.data + s.data[:, None]
    return _op(out, [(a, _through), (s, lambda g, o: g.sum(axis=1))])


def l2_normalize(a) -> Tensor:
    """Normalize each row to unit Euclidean norm.

    The backward pass uses the full Jacobian (I - y y^T) / ||x|| per row, so
    gradients flowing through the output are automatically tangential to it.
    Rows with norm below NORM_EPS raise; in a stack of constants, rows are
    counted across its matrices.
    """
    a = as_tensor(a)
    if a.ndim != 2:
        _require_constant_stack("l2_normalize", 2, a)
    ws = a.tape and a.tape._ws
    # np.linalg.norm's own sum of squares, without its two temporaries; the
    # squares' buffer then takes the output.
    out = np.multiply(a.data, a.data, out=_buf(ws, a.shape))
    norms = np.sqrt(np.add.reduce(out, axis=-1))
    if (norms < NORM_EPS).any():
        worst = int(np.argmin(norms))
        raise DegenerateRepresentationError(
            f"l2_normalize: row {worst} has norm {norms.flat[worst]:.3e} < {NORM_EPS}"
        )
    np.divide(a.data, norms[..., None], out=out)

    def vjp(g, o):
        radial = np.einsum("ij,ij->i", g, out)
        t = np.multiply(radial[:, None], out, out=_buf(ws, out.shape, o))
        np.subtract(g, t, out=t)
        t /= norms[:, None]
        return t

    return _op(out, [(a, vjp)])


# ---------------------------------------------------------------------------
# gradient-routing ops


def stop_gradient(a) -> Tensor:
    """Identity forward; contributes nothing to any gradient."""
    a = as_tensor(a)
    return _op(a.data, [(a, lambda g, o: None)])


def tangent_gate(a) -> Tensor:
    """Identity forward; backward keeps only gradient components orthogonal
    to each row of the forward value.

    The projection direction is the row normalized internally, so the gate is
    well defined even slightly off the unit sphere. Rows with vanishing norm
    pass gradients through unchanged (no direction to project against).
    """
    a = as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"tangent_gate: needs a matrix, got shape {a.shape}")
    ad = a.data

    def vjp(g, o):
        norms = np.linalg.norm(ad, axis=1)
        safe = np.where(norms < NORM_EPS, 1.0, norms)
        dirs = np.where(norms[:, None] < NORM_EPS, 0.0, ad / safe[:, None])
        radial = np.einsum("ij,ij->i", g, dirs)
        return g - radial[:, None] * dirs

    return _op(ad, [(a, vjp)])


def tangential_filter(grad: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Project each gradient row onto the tangent space of the unit sphere
    at the matching row of z.

    Plain numpy utility; z rows must already be unit-norm.
    """
    grad = _as_f64(grad)
    z = _as_f64(z)
    if grad.shape != z.shape or grad.ndim != 2:
        raise ShapeError(
            f"tangential_filter: shapes {grad.shape} and {z.shape} disagree"
        )
    norms = np.linalg.norm(z, axis=1)
    if np.any(np.abs(norms - 1.0) > UNIT_ATOL):
        worst = int(np.argmax(np.abs(norms - 1.0)))
        raise ContractError(
            f"tangential_filter: row {worst} has norm {norms[worst]:.12f}, "
            f"expected unit within {UNIT_ATOL}"
        )
    radial = np.einsum("ij,ij->i", grad, z)
    return grad - radial[:, None] * z


# ---------------------------------------------------------------------------
# classifier head used by the linear probe


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean cross entropy of row-softmax logits against integer labels."""
    logits = as_tensor(logits)
    lab = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: logits shape {logits.shape}")
    n, k = logits.shape
    if lab.shape != (n,):
        raise ShapeError(
            f"softmax_cross_entropy: labels shape {lab.shape} for {n} rows"
        )
    if n == 0:
        raise EmptyBatchError("softmax_cross_entropy: empty batch")
    if lab.min() < 0 or lab.max() >= k:
        raise DomainError(f"softmax_cross_entropy: labels outside [0, {k})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    nll = lse - shifted[np.arange(n), lab]
    out = nll.mean()

    def vjp(g, o):
        gl = np.exp(shifted - lse[:, None])
        gl[np.arange(n), lab] -= 1.0
        return gl * (g / n)

    return _op(out, [(logits, vjp)])
