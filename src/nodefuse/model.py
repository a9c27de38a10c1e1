"""Shared dual-view GCN encoder, projection head, and the fusion controller."""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import CheckpointError, ContractError, check_range, number_array
from . import tensor as T
from .tensor import Tensor


@dataclass(frozen=True)
class ModelDims:
    f_in: int          # input feature dimensionality
    f_embed: int       # encoder output width (both layers)
    f_proj: int        # projection head width
    f_filter: int      # controller filter width; also the controller hidden width


@dataclass
class ModelParams:
    """Encoder (omega), projector (mu), and controller (phi) parameters.

    The encoder carries no biases (GCN convention); the projector and the
    controller MLP do. The three groups are disjoint.
    """

    enc_w1: Tensor
    enc_w2: Tensor
    proj_w1: Tensor
    proj_b1: Tensor
    proj_w2: Tensor
    proj_b2: Tensor
    filt_s: Tensor
    filt_c: Tensor
    ctrl_w1: Tensor
    ctrl_b1: Tensor
    ctrl_w2: Tensor
    ctrl_b2: Tensor

    @property
    def dims(self) -> ModelDims:
        return ModelDims(*self.enc_w1.shape, self.proj_w1.cols, self.filt_s.cols)

    def contrast_params(self) -> dict[str, Tensor]:
        return {"enc_w1": self.enc_w1, "enc_w2": self.enc_w2,
                "proj_w1": self.proj_w1, "proj_b1": self.proj_b1,
                "proj_w2": self.proj_w2, "proj_b2": self.proj_b2}

    def controller_params(self) -> dict[str, Tensor]:
        return {"filt_s": self.filt_s, "filt_c": self.filt_c,
                "ctrl_w1": self.ctrl_w1, "ctrl_b1": self.ctrl_b1,
                "ctrl_w2": self.ctrl_w2, "ctrl_b2": self.ctrl_b2}

    def all_params(self) -> dict[str, Tensor]:
        return {**self.contrast_params(), **self.controller_params()}

    def astype(self, dtype) -> "ModelParams":
        kwargs = {name: Tensor(t.data.astype(dtype), requires_grad=True)
                  for name, t in self.all_params().items()}
        return ModelParams(**kwargs)


@dataclass
class FusionWeights:
    """Per-node fusion weight in (0, 1), kept on the tape for the controller."""

    lam: Tensor  # Nx1

    @property
    def values(self) -> np.ndarray:
        return self.lam.data[:, 0]


def param_shapes(dims: ModelDims) -> dict[str, tuple[int, int]]:
    """Each parameter's shape, in the order `init_params` draws them."""
    f, fe, fp, fg = dims.f_in, dims.f_embed, dims.f_proj, dims.f_filter
    return {"enc_w1": (f, fe), "enc_w2": (fe, fe),
            "proj_w1": (fe, fp), "proj_b1": (1, fp),
            "proj_w2": (fp, fp), "proj_b2": (1, fp),
            "filt_s": (fe, fg), "filt_c": (fe, fg),
            "ctrl_w1": (2 * fg + 1, fg), "ctrl_b1": (1, fg),
            "ctrl_w2": (fg, 1), "ctrl_b2": (1, 1)}


def init_params(rng: np.random.Generator, dims: ModelDims) -> ModelParams:
    """Glorot-uniform weights, drawn in `param_shapes` order, and zero biases;
    each width of `dims` must be an integer >= 1."""
    for f in fields(ModelDims):
        check_range(f.name, getattr(dims, f.name), 1, np.inf, integer=True)
    def draw(name, fan_in, fan_out):
        try:
            if "_b" in name:
                return np.zeros((fan_in, fan_out))
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=(fan_in, fan_out))
        except (ValueError, MemoryError, OverflowError) as exc:    # a width too large
            raise ContractError(f"init_params: cannot make {name} of shape "
                                f"({fan_in}, {fan_out}): {exc}") from exc

    return ModelParams(**{name: Tensor(draw(name, *shape), requires_grad=True)
                          for name, shape in param_shapes(dims).items()})


def _aggregate(adj, x: Tensor) -> Tensor:
    if adj is None:
        return x
    if sp.issparse(adj):
        return T.spmm(adj, x)
    raise ContractError(f"unsupported adjacency type {type(adj).__name__}")


def first_layer_product(params: ModelParams, x, keep: np.ndarray | None = None):
    """x @ enc_w1, the product both views start from; with a 1 x F `keep` row
    of 0s and 1s, the pair of it and the feature-masked view's
    (x * keep) @ enc_w1.

    `x` is a sparse matrix, as `graph.features_as` gives it, multiplied by
    `T.spmm`, or a dense Tensor. The masked view of sparse features is x
    without the entries of the masked columns, stacked under x in x's
    format, so that one product and one backward product X2^T G serve both
    views; the copy costs O(nnz). A dense x is not copied or stacked, which
    would cost N x F: its masked view is x @ (keep.T * enc_w1). Dropout acts
    only after the first aggregation, so every encoding of the same x can
    share one product: pass it to `hidden_layer`, or to the encoders as `xw`.
    """
    if not sp.issparse(x):
        xw = T.matmul(x, params.enc_w1)
        return xw if keep is None else (
            xw, T.matmul(x, T.rowscale(params.enc_w1, Tensor(keep.T))))
    if keep is None:
        return T.spmm(x, params.enc_w1)
    n = x.shape[0]
    both = T.spmm(sp.vstack([x, _drop_columns(x, keep[0] != 0)], format=x.format),
                  params.enc_w1)
    return T.rows(both, 0, n), T.rows(both, n, 2 * n)


def _drop_columns(x: sp.spmatrix, kept: np.ndarray) -> sp.spmatrix:
    """A CSR or CSC `x` without the entries of the columns where `kept` is
    False, in x's format and entry order."""
    cols = x.indices if x.format == "csr" else np.repeat(
        np.arange(x.shape[1]), np.diff(x.indptr))
    entry = kept[cols]
    indptr = np.concatenate(([0], np.cumsum(entry)))[x.indptr]
    return type(x)((x.data[entry], x.indices[entry], indptr), shape=x.shape)


def hidden_layer(xw: Tensor, adj, dropout: tuple[np.ndarray, float] | None = None) -> Tensor:
    """The encoders' hidden layer relu(agg(xw)) of the first-layer product
    `xw`, where agg is the normalized adjacency `adj`, or no mixing when
    `adj` is None. `dropout` is a (boolean keep mask, scale) pair for the
    hidden layer, as `T.relu` takes them."""
    return T.relu(_aggregate(adj, xw), *(dropout or ()))


def second_layer(h: Tensor, w: Tensor, adj) -> Tensor:
    """agg(h @ w): the encoders' output with w = enc_w2. Since agg, the
    fusion and the projector's first layer are linear, the projector's input
    h @ enc_w2 @ proj_w1 is this with w = enc_w2 @ proj_w1."""
    return _aggregate(adj, T.matmul(h, w))


def encode_semantic(params: ModelParams, x, *, xw: Tensor | None = None) -> Tensor:
    """Per-node encoding: `encode_contextual` with no cross-node mixing."""
    return encode_contextual(params, x, None, xw=xw)


def encode_contextual(params: ModelParams, x, adj_hat, *, xw: Tensor | None = None) -> Tensor:
    """agg(relu(agg(xw)) @ enc_w2): two rounds over the normalized adjacency,
    shared weights, no dropout. `x` is as `first_layer_product` takes it, and
    `xw` is that product when the caller already has it."""
    if xw is None:
        xw = first_layer_product(params, x)
    return second_layer(hidden_layer(xw, adj_hat), params.enc_w2, adj_hat)


def project(params: ModelParams, a: Tensor) -> Tensor:
    """The projection head on its input a = h @ proj_w1, an N x f_proj
    Tensor: relu(a + proj_b1) @ proj_w2 + proj_b2."""
    z = T.relu(T.add(a, params.proj_b1))
    return T.add(T.matmul(z, params.proj_w2), params.proj_b2)


def degree_feature(degree: np.ndarray) -> np.ndarray:
    """log(1 + d) standardized to zero mean / unit variance over the graph."""
    d = np.log1p(np.asarray(degree, dtype=np.float64))
    if not d.size or (std := d.std()) < 1e-12:     # an empty std warns
        return np.zeros_like(d)
    return (d - d.mean()) / std


def controller_lambda(params: ModelParams, h_s: Tensor, h_c: Tensor,
                      degree: np.ndarray) -> FusionWeights:
    """Per-node fusion weight from filtered view embeddings plus degree.

    The view embeddings and the degree are treated as constants: gradients
    reach only the controller parameters. `detach` shares their arrays, so a
    caller may pass taped encodings and needs no copy of its own.
    """
    degree = number_array(f"degree, one per row of h_s ({h_s.rows}),", degree, 1)
    if not np.all((degree >= 0) & (degree < np.inf)):    # NaN fails both
        raise ContractError("degree must be finite and non-negative")
    hs = h_s.detach()
    hc = h_c.detach()
    w_s = T.relu(T.matmul(hs, params.filt_s))
    w_c = T.relu(T.matmul(hc, params.filt_c))
    d_hat = Tensor(degree_feature(degree).reshape(-1, 1).astype(hs.data.dtype))
    inp = T.concat_cols([w_s, w_c, d_hat])
    hidden = T.relu(T.add(T.matmul(inp, params.ctrl_w1), params.ctrl_b1))
    lam = T.sigmoid(T.add(T.matmul(hidden, params.ctrl_w2), params.ctrl_b2))
    return FusionWeights(lam=lam)


def fuse(h_s: Tensor, h_c: Tensor, lam: Tensor) -> Tensor:
    """Row i of the result is h_s[i] + lam[i] * h_c[i]."""
    return T.rowscale(h_c, lam, base=h_s)


def save_checkpoint(params: ModelParams, path):
    arrays = {name: t.data for name, t in params.all_params().items()}
    with open(path, "wb") as fh:  # keep the exact filename (savez appends .npz)
        np.savez(fh, **arrays)


def load_checkpoint(path) -> ModelParams:
    """Read a `save_checkpoint` file, with the model's dims read off its
    arrays. A file that is unreadable or lacks an array, a width below 1, or
    an array that is not float32 or float64, not of enc_w1's dtype, not of the
    shape `param_shapes` gives for those dims, or not finite, is a
    CheckpointError.
    """
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        # a handle of our own: np.load leaks the one it opens on a corrupt archive
        with open(path, "rb") as fh, np.load(fh) as data:
            arrays = {f.name: data[f.name] for f in fields(ModelParams)}
    except (OSError, EOFError, ValueError, KeyError, TypeError, RuntimeError,
            zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{path} is not a valid checkpoint: {exc}") from exc
    dtype = arrays["enc_w1"].dtype
    if dtype not in (np.float32, np.float64):
        raise CheckpointError(f"{path}: enc_w1 has dtype {dtype}, not float32 or float64")
    for name, arr in arrays.items():
        if arr.dtype != dtype:
            raise CheckpointError(f"{path}: {name} has dtype {arr.dtype}, enc_w1 {dtype}")
        if arr.ndim != 2:
            raise CheckpointError(f"{path}: {name} has shape {arr.shape}, not 2-D")
    params = ModelParams(**{name: Tensor(arr, requires_grad=True)
                            for name, arr in arrays.items()})
    for f in fields(ModelDims):
        if (width := getattr(params.dims, f.name)) < 1:
            raise CheckpointError(f"{path}: width {f.name} is {width}, not positive")
    for name, shape in param_shapes(params.dims).items():
        if arrays[name].shape != shape:
            raise CheckpointError(f"{path}: {name} has shape {arrays[name].shape}, "
                                  f"expected {shape} for {params.dims}")
        if not np.isfinite(arrays[name]).all():
            raise CheckpointError(f"{path} holds a non-finite value in {name}")
    return params
