"""Dense 2-D tensors with reverse-mode automatic differentiation.

Every value is a row-major matrix; scalars are 1x1. Operations record a tape
of (parents, vector-Jacobian product) pairs. ``backward`` takes one 1x1 loss
and replays its tape once, in reverse topological order, freeing it as it
goes. Float64 is the default so finite-difference checks are meaningful;
float32 is accepted for fast training runs.

The tape is made of ``Node``s, not tensors: a tensor that takes a gradient
points at its node, and a node's parents are nodes, so the tape holds no
value. An op's backward closure captures only the arrays it reads; any
other intermediate array dies as soon as the forward code drops its tensor,
and the arrays a closure reads die once ``backward`` has run it. A walked
tape cannot be walked again: build the loss again instead.

The op protocol: an op's ``_backward(g)`` takes its output's gradient and
returns its vector-Jacobian products, one entry per parent in ``_parents``
order, each an array shaped like that parent, or None where the op skips a
constant parent. ``backward`` alone sums the entries into the parents and
writes leaf gradients to ``.grad``.

No op warns. Those whose numpy calls could (``@_quiet``), ``backward`` and
``adam_step`` run with numpy's floating-point warnings off: a non-finite or
overflowing value gives NaN or an infinity in the output, never a warning,
and ``train`` finds it in the loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, check_range

_NORM_EPS = 1e-12
_ADAM_SLICE = 2 ** 15     # elements per adam_step slice: 256 KB of float64
_quiet = np.errstate(all="ignore")


class Node:
    """A tape vertex: parent nodes (None for a constant parent), the op's
    vector-Jacobian closure (None for a leaf), and a leaf's gradient."""

    __slots__ = ("parents", "backward", "grad")

    def __init__(self, parents=(), backward=None):
        self.parents = parents
        self.backward = backward
        self.grad = None


class Tensor:
    """A 2-D float32 or float64 matrix; one that takes a gradient has a tape `node`."""

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False):
        try:
            arr = np.asarray(data)
        except ValueError as exc:       # a ragged sequence
            raise ContractError(f"Tensor: {exc}") from exc
        if arr.ndim != 2 or arr.dtype not in (np.float32, np.float64):
            raise ContractError(f"Tensor: expected a 2-D float32 or float64 array, "
                                f"got shape {arr.shape} and dtype {arr.dtype}")
        self.data = arr
        self.node = Node() if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self):
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, value):
        self.node.grad = value

    @property
    def _parents(self):
        return () if self.node is None else self.node.parents

    @property
    def _backward(self):
        return None if self.node is None else self.node.backward

    @_backward.setter
    def _backward(self, fn):
        self.node.backward = fn

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


def _result(data, parents, backward_fn) -> Tensor:
    """The op's output; `backward_fn` must not close over `parents`, whose
    arrays would then live as long as the tape."""
    out = Tensor(data)
    nodes = tuple(p.node for p in parents)
    if any(nodes):
        out.node = Node(nodes, backward_fn)
    return out


def _check_same_shape(a, b, op: str):
    if a.shape != b.shape:
        raise ContractError(f"{op}: shapes {a.shape} and {b.shape} differ")


def _binary_shapes(a: Tensor, b: Tensor, op: str):
    """Equal shapes, or a 1xN row vector broadcast against an MxN matrix."""
    if a.shape == b.shape:
        return
    if a.shape[1] == b.shape[1] and (a.rows == 1 or b.rows == 1):
        return
    raise ContractError(f"{op}: shapes {a.shape} and {b.shape} are not compatible")


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == shape:
        return g
    return g.sum(axis=0, keepdims=True)


@_quiet
def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ContractError(f"matmul: inner dims of {a.shape} and {b.shape} differ")

    # each operand's product reads the other's array, and a constant operand
    # (the features in x @ enc_w1) takes no product
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None
    return _result(a.data @ b.data, (a, b), lambda g: (
        None if bd is None else g @ bd.T, None if ad is None else ad.T @ g))


def spmm(adj: sp.spmatrix, x: Tensor) -> Tensor:
    """Sparse-constant @ dense product; the sparse matrix takes no gradient.

    The backward multiplies by adj.T, a CSC view of a CSR adj and a CSR
    view of a CSC one; no copy of adj is made.
    """
    if adj.shape[1] != x.rows:
        raise ContractError(f"spmm: inner dims of {adj.shape} and {x.shape} differ")
    return _result(adj @ x.data, (x,), lambda g: (adj.T @ g,))


@_quiet
def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")
    sa, sb = a.shape, b.shape
    return _result(a.data + b.data, (a, b),
                   lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


@_quiet
def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None
    return _result(a.data * b.data, (a, b), lambda g: (
        None if bd is None else g * bd, None if ad is None else g * ad))


@_quiet
def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _result(c * a.data, (a,), lambda g: (c * g,))


def add_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _result(a.data + c, (a,), lambda g: (g,))


@_quiet
def relu(a: Tensor, keep: np.ndarray | None = None, scale: float = 1.0) -> Tensor:
    """max(a, 0); with a boolean `keep` mask (dropout after the relu), the
    kept entries times `scale` and the others 0, in the same node, so the
    relu's own output is not kept.

    Both passes have the bits of a product with the float mask keep * scale,
    at every entry, infinite and NaN ones too; the backward reads `out` and
    `keep`.
    """
    out = np.maximum(a.data, 0.0)
    if keep is not None:
        _check_same_shape(a, keep, "relu")
        out *= keep
        out *= scale

    def backward(g):
        # relu'(0) = 0; a kept entry's out != 0 iff a > 0, for scale >= 1
        if keep is None:
            return (g * (out != 0.0),)
        return (g * scale * (keep & (out != 0.0)),)

    return _result(out, (a,), backward)


@_quiet
def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.data))     # exp(-a) = inf gives the limit 0
    return _result(out, (a,), lambda g: (g * out * (1.0 - out),))


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0.0):
        raise ContractError(f"sqrt: negative input in a {a.shape} tensor")
    out = np.sqrt(a.data)
    return _result(out, (a,), lambda g: (g * 0.5 / np.maximum(out, _NORM_EPS),))


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)  # subgradient 0 at 0
    return _result(np.abs(a.data), (a,), lambda g: (g * sign,))


@_quiet
def sum_all(a: Tensor) -> Tensor:
    shape, dt = a.shape, a.data.dtype
    return _result(np.array([[a.data.sum()]], dtype=dt), (a,),
                   lambda g: (np.full(shape, g[0, 0], dtype=dt),))


@_quiet
def mean_all(a: Tensor) -> Tensor:
    shape, dt, n = a.shape, a.data.dtype, a.data.size
    return _result(np.array([[a.data.mean()]], dtype=dt), (a,),
                   lambda g: (np.full(shape, g[0, 0] / n, dtype=dt),))


@_quiet
def sum_rows(a: Tensor) -> Tensor:
    """Row sums as an Nx1 column."""
    shape = a.shape
    return _result(a.data.sum(axis=1, keepdims=True), (a,),
                   lambda g: (np.broadcast_to(g, shape).copy(),))


def rows(a: Tensor, lo: int, hi: int) -> Tensor:
    """Rows lo:hi of `a`, as a view of its array; the gradient is zero
    outside those rows."""
    if not 0 <= lo <= hi <= a.rows:
        raise ContractError(f"rows: {lo}:{hi} is not a row range of {a.shape}")
    shape = a.shape

    def backward(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[lo:hi] = g
        return (full,)

    return _result(a.data[lo:hi], (a,), backward)


def concat_cols(tensors) -> Tensor:
    tensors = list(tensors)
    n = tensors[0].rows
    for t in tensors:
        if t.rows != n:
            raise ContractError(
                f"concat_cols: row counts differ ({t.shape} vs {tensors[0].shape})"
            )
    widths = [t.cols for t in tensors]
    offsets = np.cumsum([0] + widths)
    return _result(np.concatenate([t.data for t in tensors], axis=1), tensors,
                   lambda g: [g[:, lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])])


@_quiet
def rowscale(a: Tensor, v: Tensor, base: Tensor | None = None) -> Tensor:
    """Scale row i of `a` by the scalar v[i]; v is Nx1. With `base`, the
    node is base + v * a, so the scaled rows are not kept."""
    with_base = base is not None
    if with_base:
        _check_same_shape(base, a, "rowscale")
    if v.cols != 1 or v.rows != a.rows:
        raise ContractError(f"rowscale: weights {v.shape} do not fit the rows of {a.shape}")
    out = a.data * v.data
    if with_base:
        out += base.data

    # constant weights (the keep row of dense features' masked view,
    # x @ rowscale(enc_w1, keep.T), and the fusion weight) take no product,
    # and then a's array is not kept
    ad = a.data if v.requires_grad else None
    vd = v.data if a.requires_grad else None

    def backward(g):
        ga = None if vd is None else g * vd
        gv = None if ad is None else (g * ad).sum(axis=1, keepdims=True)
        return (ga, gv, g) if with_base else (ga, gv)

    return _result(out, (a, v, base) if with_base else (a, v), backward)


@_quiet
def normalize_rows(a: Tensor) -> Tensor:
    """L2-normalize each row; rows with norm < 1e-12 become (and stay) zero.

    Each row is scaled by the power of two of its largest entry before its
    norm is taken, so the squares cannot overflow; the scaling is exact.
    """
    _, e = np.frexp(np.abs(a.data).max(axis=1, keepdims=True))
    norms = np.ldexp(np.linalg.norm(np.ldexp(a.data, -e), axis=1, keepdims=True), e)
    ok = norms >= _NORM_EPS
    inv = np.where(ok, 1.0 / np.where(ok, norms, 1.0), 0.0)
    out = a.data * inv      # an infinite entry's row has inv 0, and inf * 0 is NaN

    def backward(g):
        dot = (out * g).sum(axis=1, keepdims=True)
        return ((g - out * dot) * inv,)

    return _result(out, (a,), backward)


def cosine_rows(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise cosine similarity as Nx1; zero-norm rows give similarity 0."""
    return sum_rows(mul(normalize_rows(a), normalize_rows(b)))


# Rows per NT-Xent tile: a float32 (512, N) tile is 10 MB at N = 5000, and
# its GEMMs are still large enough to keep BLAS efficient.
_ROW_BLOCK = 512


def _exp_tiles(left, right, scale, buf, symmetric: bool, diag=None):
    """Yield (lo, hi, tile) with tile = exp((left[lo:hi] * scale) @ right[k:].T),
    computed in place in `buf`, for each row block lo:hi of _ROW_BLOCK rows.

    A symmetric block takes only its columns k = lo onwards; any other
    block takes every column (k = 0). Either way the block's diagonal
    entries (i, i), i in lo:hi, are zeroed after the exp; when `diag` is
    given, they are first copied, before the exp, into diag[lo:hi].
    """
    n = left.shape[0]
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        k = lo if symmetric else 0
        tile = buf[:(hi - lo) * (n - k)].reshape(hi - lo, n - k)
        np.matmul(left[lo:hi] * scale, right[k:].T, out=tile)
        if diag is not None:
            diag[lo:hi] = np.diagonal(tile, lo - k)
        np.exp(tile, out=tile)
        np.fill_diagonal(tile[:, lo - k:], 0.0)
        yield lo, hi, tile


# Rows per in-place weight multiply: its (rows, N) weight sums stay small.
_FOLD_ROWS = 32


def _fold(tile, w_rows, w_cols):
    """Multiply tile[r, c] by w_rows[r] + w_cols[c] in place."""
    for r in range(0, tile.shape[0], _FOLD_ROWS):
        tile[r:r + _FOLD_ROWS] *= np.add.outer(w_rows[r:r + _FOLD_ROWS], w_cols)


@_quiet
def ntxent_view(zn: Tensor, an: Tensor, inv_tau: float) -> Tensor:
    """Sum of the 2N symmetrized NT-Xent anchor losses for unit-row inputs.

    Anchor i of the forward direction contrasts zn[i] with every other row of
    zn and every row of an, its positive being an[i]; the backward direction
    mirrors it. Rows must already be L2-normalized (or zero), so similarities
    are bounded by 1 and exp(t*s - t), with t = 1/tau, never overflows; the
    constant shift is added back to the loss.

    No N x N array is made. The forward and the backward share one walk
    over the blocks exp(t*s - t) of zn.zn, an.an and zn.an (E_zz, E_aa,
    E_za), which returns E_zz @ xz + E_za @ xa and E_aa @ xa + E_za^T @ xz.
    It makes them a tile of _ROW_BLOCK rows at a time in one reused buffer,
    each tile by one GEMM already scaled and shifted, [t*zn, -t] @ [x, 1]^T,
    whose left factor is made for the tile's rows alone, from the [zn, 1]
    that the walk keeps, as [zn, 1][lo:hi] * [t, ..., t, -t],
    and one in-place exp. A tile of the symmetric self blocks covers only
    the columns from its first row on: it credits its rows, and its
    transpose right of its diagonal square credits those columns. The cross
    tile's shifted diagonal gives the positive terms p_i, kept apart. The
    diagonals are zeroed first: subtracting them afterwards cancels
    catastrophically in float32 once the negatives fall below about 1e-7 of
    the diagonal's 1 (small tau). The forward walks with columns of ones,
    which sum each anchor's negatives n_i. For the same reason an anchor's
    loss log(n_i + e^p_i) - p_i is taken as log1p(n_i / e^p_i) while
    n_i < e^p_i: a near-zero loss keeps its relative precision. A
    denominator so small that t / denominator overflows (every term of its
    row underflowed) makes the loss NaN, with no warning.

    Backward: the tiles are recomputed, not stored, and so are the [x, 1]
    operands, which the tape does not keep: it holds only zn, an and
    N-vectors. With per-row weights w = t / (row denominator), the gradient
    through a symmetric self block E is (E * (w_i + w_j)) @ x; the weights
    are w_fwd on both sides of E_zz, w_bwd on E_aa, and w_fwd_i + w_bwd_j
    on E_za. Each tile is multiplied by its weights in place, _FOLD_ROWS
    rows at a time, after its exp, and credits its rows and columns with
    d-wide GEMMs against zn and an themselves. The positive pair's
    similarity gets t * e^p_i * (1/d_fwd + 1/d_bwd) - 2t, taken without
    cancellation as -t * (n_fwd / d_fwd + n_bwd / d_bwd).
    """
    _check_same_shape(zn, an, "ntxent_view")
    n, d = zn.shape
    if n < 2:
        raise ContractError(f"ntxent_view: needs at least 2 rows, got {zn.shape}")
    t = float(inv_tau)
    z, a = zn.data, an.data
    dt = z.dtype
    ct = dt.type(t)
    ones = np.ones((n, 1), dtype=dt)
    scale = np.full(d + 1, ct, dtype=dt)
    scale[d] = -ct              # [t, ..., t, -t]

    def walk(xz, xa, diag=None, w_fwd=None, w_bwd=None):
        z1, a1 = np.hstack([z, ones]), np.hstack([a, ones])
        buf = np.empty(min(n, _ROW_BLOCK) * n, dtype=dt)
        pz = np.zeros_like(xz)
        pa = np.zeros_like(xa)
        col = np.empty_like(xz)     # each tile's column credits, then added
        for x1, x, w, p in ((z1, xz, w_fwd, pz), (a1, xa, w_bwd, pa)):
            for lo, hi, tile in _exp_tiles(x1, x1, scale, buf, symmetric=True):
                if w is not None:
                    _fold(tile, w[lo:hi], w[lo:])
                p[lo:hi] += tile @ x[lo:]
                p[hi:] += np.matmul(tile[:, hi - lo:].T, x[lo:hi], out=col[hi:])
        for lo, hi, tile in _exp_tiles(z1, a1, scale, buf, symmetric=False, diag=diag):
            if w_fwd is not None:
                _fold(tile, w_fwd[lo:hi], w_bwd)
            pz[lo:hi] += tile @ xa
            pa += np.matmul(tile.T, xz[lo:hi], out=col)
        return pz, pa

    pos = np.empty(n, dtype=dt)     # t * (zn_i . an_i) - t
    n_fwd, n_bwd = (p[:, 0] for p in walk(ones, ones, diag=pos))
    e_pos = np.exp(pos)
    d_fwd = n_fwd + e_pos
    d_bwd = n_bwd + e_pos

    finite = np.isfinite(ct / np.minimum(d_fwd, d_bwd)).all()
    anchors = [np.where(neg < e_pos, np.log1p(neg / e_pos), np.log(den) - pos)
               for neg, den in ((n_fwd, d_fwd), (n_bwd, d_bwd))]
    total = float((anchors[0] + anchors[1]).sum()) if finite else np.nan

    def backward(g):
        c = dt.type(g[0, 0])
        pz, pa = walk(z, a, w_fwd=(c * t / d_fwd).astype(dt),
                      w_bwd=(c * t / d_bwd).astype(dt))
        # the positive pair: t * e^p * (1/d_fwd + 1/d_bwd) - 2t, per unit c
        pull = (c * t * (n_fwd / d_fwd + n_bwd / d_bwd)).astype(dt)[:, None]
        pz -= pull * a
        pa -= pull * z
        return pz, pa

    return _result(np.array([[total]], dtype=dt), (zn, an), backward)


def _walked(g):
    raise ContractError("backward: this tape was already walked; build the loss again")


@_quiet
def backward(loss: Tensor):
    """Accumulate into .grad of every requires_grad leaf the gradient of the
    1x1 `loss`, in one reverse topological pass that consumes the tape.

    Once an op's closure has run, its node drops the closure and its parents,
    so the op's arrays die as the walk passes them; a later walk through the
    node raises a ContractError.
    """
    if loss.shape != (1, 1):
        raise ContractError(f"backward: loss must be 1x1, got {loss.shape}")
    topo: list[Node] = []
    seen: set[Node] = set()
    stack = [] if loss.node is None else [(loss.node, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p is not None and p not in seen:
                stack.append((p, False))

    grads = {loss.node: np.ones((1, 1), dtype=loss.data.dtype)}
    for node in reversed(topo):
        g = grads.pop(node, None)
        if node.backward is None:
            if g is not None:
                node.grad = g if node.grad is None else node.grad + g
            continue
        if g is not None:
            for p, gp in zip(node.parents, node.backward(g)):
                # a sum is a new array: an op may return its own output gradient
                if p is not None and gp is not None:
                    grads[p] = grads[p] + gp if p in grads else gp
        node.parents, node.backward = (), _walked


@dataclass
class AdamState:
    """First/second moment buffers and the shared step counter."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


@_quiet
def adam_step(params: dict, grads: dict, state: AdamState, lr: float):
    """In-place Adam update with bias correction over name-keyed arrays.

    `lr` must be a finite number >= 0, and `grads` must have the keys of
    `params` and their shapes; both are checked before anything is written.

    Every product and quotient is taken in the same order as in the textbook
    p -= lr * m_hat / (sqrt(v_hat) + eps), so updates are bitwise equal to
    it, but in place, on slices of rows of about _ADAM_SLICE elements that
    stay in cache across the 14 passes, through two scratch arrays.
    """
    check_range("lr", lr, 0, np.inf)
    grad_shapes = {name: g.shape for name, g in grads.items()}
    param_shapes = {name: p.shape for name, p in params.items()}
    if grad_shapes != param_shapes:
        raise ContractError(f"adam_step: gradient shapes {grad_shapes} "
                            f"!= parameter shapes {param_shapes}")
    b1, b2, eps = 0.9, 0.999, 1e-8
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        rows = max(1, _ADAM_SLICE // max(1, p[:1].size))
        s_buf, r_buf = np.empty_like(p[:rows]), np.empty_like(p[:rows])
        for lo in range(0, len(p), rows):
            pi, gi = p[lo:lo + rows], g[lo:lo + rows]
            m, v = state.m[name][lo:lo + rows], state.v[name][lo:lo + rows]
            s, r = s_buf[:len(pi)], r_buf[:len(pi)]
            m *= b1
            m += np.multiply(1.0 - b1, gi, out=s)
            v *= b2
            np.multiply(1.0 - b2, gi, out=s)
            v += np.multiply(s, gi, out=s)
            np.divide(m, 1.0 - b1 ** t, out=s)          # m_hat
            np.multiply(lr, s, out=s)
            np.divide(v, 1.0 - b2 ** t, out=r)          # v_hat
            np.sqrt(r, out=r)
            r += eps
            pi -= np.divide(s, r, out=s)
    return params, state
