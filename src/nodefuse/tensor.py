"""Dense 2-D tensors with reverse-mode automatic differentiation.

Every value is a row-major matrix; scalars are 1x1. Operations record a tape
of (parents, local-gradient) pairs and ``backward`` replays it once in reverse
topological order. Float64 is the default so finite-difference checks are
meaningful; float32 is accepted for fast training runs.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, DomainError, ShapeError

_NORM_EPS = 1e-12


class Tensor:
    """A 2-D matrix that can participate in a differentiation tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data[0, 0])

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or t._backward is not None


def _result(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if any(_needs_grad(p) for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accum(grads: dict, t: Tensor, g: np.ndarray):
    if not _needs_grad(t):
        return
    key = id(t)
    if key in grads:
        grads[key] = grads[key] + g
    else:
        grads[key] = g


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def _binary_shapes(a: Tensor, b: Tensor, op: str):
    """Equal shapes, or a 1xN row vector broadcast against an MxN matrix."""
    if a.shape == b.shape:
        return
    if a.shape[1] == b.shape[1] and (a.rows == 1 or b.rows == 1):
        return
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are not compatible")


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == shape:
        return g
    return g.sum(axis=0, keepdims=True)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dims of {a.shape} and {b.shape} differ")

    def backward(g, grads):
        # a constant operand (the features in x @ enc_w1) takes no product
        if _needs_grad(a):
            _accum(grads, a, g @ b.data.T)
        if _needs_grad(b):
            _accum(grads, b, a.data.T @ g)

    return _result(a.data @ b.data, (a, b), backward)


def spmm(adj: sp.spmatrix, x: Tensor) -> Tensor:
    """Sparse-constant @ dense product; the sparse matrix takes no gradient."""
    adj = adj.tocsr()
    if adj.shape[1] != x.rows:
        raise ShapeError(f"spmm: inner dims of {adj.shape} and {x.shape} differ")

    def backward(g, grads):
        # Built here, not per call: the controller phase and embed never
        # run this backward.
        _accum(grads, x, adj.T.tocsr() @ g)

    return _result(adj @ x.data, (x,), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")

    def backward(g, grads):
        _accum(grads, a, _unbroadcast(g, a.shape))
        _accum(grads, b, _unbroadcast(g, b.shape))

    return _result(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "mul")

    def backward(g, grads):
        _accum(grads, a, _unbroadcast(g * b.data, a.shape))
        _accum(grads, b, _unbroadcast(g * a.data, b.shape))

    return _result(a.data * b.data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g, grads):
        _accum(grads, a, c * g)

    return _result(c * a.data, (a,), backward)


def add_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g, grads):
        _accum(grads, a, g)

    return _result(a.data + c, (a,), backward)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    mask = (a.data > 0.0).astype(a.data.dtype)  # relu'(0) = 0

    def backward(g, grads):
        _accum(grads, a, g * mask)

    return _result(out, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g, grads):
        _accum(grads, a, g * out * (1.0 - out))

    return _result(out, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0.0):
        raise DomainError("sqrt: negative input")
    out = np.sqrt(a.data)

    def backward(g, grads):
        safe = np.maximum(out, _NORM_EPS)
        _accum(grads, a, g * 0.5 / safe)

    return _result(out, (a,), backward)


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)  # subgradient 0 at 0

    def backward(g, grads):
        _accum(grads, a, g * sign)

    return _result(np.abs(a.data), (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    def backward(g, grads):
        _accum(grads, a, np.full_like(a.data, g[0, 0]))

    return _result(np.array([[a.data.sum()]], dtype=a.data.dtype), (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def backward(g, grads):
        _accum(grads, a, np.full_like(a.data, g[0, 0] / n))

    return _result(np.array([[a.data.mean()]], dtype=a.data.dtype), (a,), backward)


def sum_rows(a: Tensor) -> Tensor:
    """Row sums as an Nx1 column."""

    def backward(g, grads):
        _accum(grads, a, np.broadcast_to(g, a.shape).copy())

    return _result(a.data.sum(axis=1, keepdims=True), (a,), backward)


def concat_cols(tensors) -> Tensor:
    tensors = list(tensors)
    n = tensors[0].rows
    for t in tensors:
        if t.rows != n:
            raise ShapeError(
                f"concat_cols: row counts differ ({t.shape} vs {tensors[0].shape})"
            )
    widths = [t.cols for t in tensors]
    offsets = np.cumsum([0] + widths)

    def backward(g, grads):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            _accum(grads, t, g[:, lo:hi])

    return _result(np.concatenate([t.data for t in tensors], axis=1), tensors, backward)


def rowscale(a: Tensor, v: Tensor) -> Tensor:
    """Scale row i of `a` by the scalar v[i]; v is Nx1."""
    if v.cols != 1 or v.rows != a.rows:
        raise ShapeError(f"rowscale: expected {a.rows}x1 weights, got {v.shape}")

    def backward(g, grads):
        _accum(grads, a, g * v.data)
        _accum(grads, v, (g * a.data).sum(axis=1, keepdims=True))

    return _result(a.data * v.data, (a, v), backward)


def normalize_rows(a: Tensor) -> Tensor:
    """L2-normalize each row; rows with norm < 1e-12 become (and stay) zero."""
    norms = np.linalg.norm(a.data, axis=1, keepdims=True)
    ok = norms >= _NORM_EPS
    inv = np.where(ok, 1.0 / np.where(ok, norms, 1.0), 0.0)
    out = a.data * inv

    def backward(g, grads):
        dot = (out * g).sum(axis=1, keepdims=True)
        _accum(grads, a, (g - out * dot) * inv)

    return _result(out, (a,), backward)


def cosine_rows(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise cosine similarity as Nx1; zero-norm rows give similarity 0."""
    _check_same_shape(a, b, "cosine_rows")
    return sum_rows(mul(normalize_rows(a), normalize_rows(b)))


def _mapped_square(n: int, dtype: np.dtype) -> np.ndarray:
    """An n x n array on a private mapping of its own, unmapped when freed.

    From malloc, a block this large lands in a hole that freed tape arrays
    left in the heap or on a new mapping, and which one changed between
    identical training runs, moving their peak RSS by one block.
    """
    buf = mmap.mmap(-1, n * n * dtype.itemsize, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)     # as numpy asks for its large blocks
    return np.frombuffer(buf, dtype).reshape(n, n)


def ntxent_view(zn: Tensor, an: Tensor, inv_tau: float) -> Tensor:
    """Sum of the 2N symmetrized NT-Xent anchor losses for unit-row inputs.

    Anchor i of the forward direction contrasts zn[i] with every other row of
    zn and every row of an, its positive being an[i]; the backward direction
    mirrors it. Rows must already be L2-normalized (or zero), so similarities
    are bounded by 1 and exp(t*s - t), with t = 1/tau, never overflows; the
    constant shift is added back to the loss.

    Forward: each of the three N x N blocks comes out of one GEMM already
    scaled and shifted, [t*zn, -t] @ [x, 1]^T = t*s - t, and takes one
    in-place exp. The positive terms are the diagonal of the shifted cross
    block. The self-similarity diagonals are zeroed before the row sums:
    subtracting them afterwards cancels catastrophically in float32 once the
    negatives fall below about 1e-7 of the diagonal's 1 (small tau).

    Backward: with per-row weights w = t / (row denominator), the gradient
    through a symmetric self block E is
    (E * (w_i + w_j)) @ x = w * (E @ x) + E @ (w * x), and the cross block
    expands the same way. So each of e_zz, e_za, e_za^T and e_aa takes one
    GEMM against an N x 2d operand [x, w * x], and the three N x N buffers
    are the only N x N memory the op ever holds.
    """
    _check_same_shape(zn, an, "ntxent_view")
    n, d = zn.shape
    if n < 2:
        raise ShapeError("ntxent_view needs at least 2 rows")
    t = float(inv_tau)
    z, a = zn.data, an.data
    dt = z.dtype
    ct = dt.type(t)

    def gemm_operands(x):
        x1 = np.hstack([x, np.ones((n, 1), dtype=dt)])
        xt = x1 * ct
        xt[:, d] = -ct
        return xt, x1           # [t*x, -t] and [x, 1]

    zt, z1 = gemm_operands(z)
    at, a1 = gemm_operands(a)
    e_za = np.matmul(zt, a1.T, out=_mapped_square(n, dt))
    pos = np.diagonal(e_za).copy()      # t * (zn_i . an_i) - t
    np.exp(e_za, out=e_za)
    e_zz = np.matmul(zt, z1.T, out=_mapped_square(n, dt))
    np.exp(e_zz, out=e_zz)
    np.fill_diagonal(e_zz, 0.0)
    e_aa = np.matmul(at, a1.T, out=_mapped_square(n, dt))
    np.exp(e_aa, out=e_aa)
    np.fill_diagonal(e_aa, 0.0)

    d_fwd = e_zz.sum(axis=1) + e_za.sum(axis=1)
    d_bwd = e_aa.sum(axis=1) + e_za.sum(axis=0)
    total = float((np.log(d_fwd) + np.log(d_bwd) - 2.0 * pos).sum())

    def backward(g, grads):
        c = dt.type(g[0, 0])
        w_fwd = (c * t / d_fwd).astype(dt)[:, None]
        w_bwd = (c * t / d_bwd).astype(dt)[:, None]
        xz = np.hstack([z, w_fwd * z])
        xa = np.hstack([a, w_bwd * a])
        pz = e_zz @ xz
        pz += e_za @ xa
        pa = e_aa @ xa
        pa += e_za.T @ xz
        pull = dt.type(2.0 * c * t)     # from the positive term -2t * s_ii
        _accum(grads, zn, w_fwd * pz[:, :d] + pz[:, d:] - pull * a)
        _accum(grads, an, w_bwd * pa[:, :d] + pa[:, d:] - pull * z)

    return _result(np.array([[total]], dtype=dt), (zn, an), backward)


def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into .grad of every requires_grad leaf."""
    if loss.shape != (1, 1):
        raise ContractError(f"backward: loss must be 1x1, got {loss.shape}")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and _needs_grad(p):
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones((1, 1), dtype=loss.data.dtype)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is not None:
            node._backward(g, grads)
        elif node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g


@dataclass
class AdamState:
    """First/second moment buffers and the shared step counter."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              betas=(0.9, 0.999), eps: float = 1e-8):
    """In-place Adam update with bias correction over name-keyed arrays."""
    b1, b2 = betas
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ContractError(
                f"adam_step: gradient shape {g.shape} != param shape {p.shape} for {name!r}"
            )
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, state
