"""Shared dual-view GCN encoder, projection head, and the fusion controller."""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import CheckpointError, ContractError
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

    dims: ModelDims
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

    def encoder_params(self) -> dict[str, Tensor]:
        return {"enc_w1": self.enc_w1, "enc_w2": self.enc_w2}

    def contrast_params(self) -> dict[str, Tensor]:
        return {**self.encoder_params(),
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
        return ModelParams(dims=self.dims, **kwargs)


@dataclass
class EmbeddingSet:
    """The six representation matrices: clean and perturbed, per view."""

    h_s: Tensor
    h_s_aug: Tensor
    h_c: Tensor
    h_c_aug: Tensor
    h_f: Tensor
    h_f_aug: Tensor


@dataclass
class FusionWeights:
    """Per-node fusion weight in (0, 1), kept on the tape for the controller."""

    lam: Tensor  # Nx1

    @property
    def values(self) -> np.ndarray:
        return self.lam.data[:, 0]


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=(fan_in, fan_out)),
                  requires_grad=True)


def init_params(rng: np.random.Generator, dims: ModelDims) -> ModelParams:
    f, fe, fp, fg = dims.f_in, dims.f_embed, dims.f_proj, dims.f_filter
    ctrl_in = 2 * fg + 1
    return ModelParams(
        dims=dims,
        enc_w1=_glorot(rng, f, fe),
        enc_w2=_glorot(rng, fe, fe),
        proj_w1=_glorot(rng, fe, fp),
        proj_b1=Tensor(np.zeros((1, fp)), requires_grad=True),
        proj_w2=_glorot(rng, fp, fp),
        proj_b2=Tensor(np.zeros((1, fp)), requires_grad=True),
        filt_s=_glorot(rng, fe, fg),
        filt_c=_glorot(rng, fe, fg),
        ctrl_w1=_glorot(rng, ctrl_in, fg),
        ctrl_b1=Tensor(np.zeros((1, fg)), requires_grad=True),
        ctrl_w2=_glorot(rng, fg, 1),
        ctrl_b2=Tensor(np.zeros((1, 1)), requires_grad=True),
    )


def _aggregate(adj, x: Tensor) -> Tensor:
    if adj is None:
        return x
    if sp.issparse(adj):
        return T.spmm(adj, x)
    raise ContractError(f"unsupported adjacency type {type(adj).__name__}")


def first_layer_product(params: ModelParams, x: Tensor) -> Tensor:
    """x @ enc_w1, the product both views start from.

    Dropout acts only after the first aggregation, so every encoding of the
    same x can share one product: pass it to the encoders as `xw`.
    """
    if x.cols != params.dims.f_in:
        raise ContractError(
            f"encoder expects {params.dims.f_in} input features, got {x.cols}"
        )
    return T.matmul(x, params.enc_w1)


def _encode(params: ModelParams, x: Tensor, adj, dropout_mask: Tensor | None,
            xw: Tensor | None) -> Tensor:
    if xw is None:
        xw = first_layer_product(params, x)
    h = T.relu(_aggregate(adj, xw))
    if dropout_mask is not None:
        h = T.mul(h, dropout_mask)
    return _aggregate(adj, T.matmul(h, params.enc_w2))


def encode_semantic(params: ModelParams, x: Tensor,
                    dropout_mask: Tensor | None = None, *,
                    xw: Tensor | None = None) -> Tensor:
    """Per-node encoding with an identity adjacency: no cross-node mixing.

    `xw` is `first_layer_product(params, x)` when the caller already has it.
    """
    return _encode(params, x, None, dropout_mask, xw)


def encode_contextual(params: ModelParams, x: Tensor, adj_hat,
                      dropout_mask: Tensor | None = None, *,
                      xw: Tensor | None = None) -> Tensor:
    """Two aggregation rounds over the normalized adjacency, shared weights.

    `xw` is `first_layer_product(params, x)` when the caller already has it.
    """
    return _encode(params, x, adj_hat, dropout_mask, xw)


def project(params: ModelParams, h: Tensor) -> Tensor:
    if h.cols != params.dims.f_embed:
        raise ContractError(
            f"projector expects {params.dims.f_embed} columns, got {h.cols}"
        )
    z = T.relu(T.add(T.matmul(h, params.proj_w1), params.proj_b1))
    return T.add(T.matmul(z, params.proj_w2), params.proj_b2)


def degree_feature(degree: np.ndarray) -> np.ndarray:
    """log(1 + d) standardized to zero mean / unit variance over the graph."""
    d = np.log1p(np.asarray(degree, dtype=np.float64))
    std = d.std()
    if std < 1e-12:
        return np.zeros_like(d)
    return (d - d.mean()) / std


def controller_lambda(params: ModelParams, h_s: Tensor, h_c: Tensor,
                      degree: np.ndarray) -> FusionWeights:
    """Per-node fusion weight from filtered view embeddings plus degree.

    The view embeddings and the degree are treated as constants: gradients
    reach only the controller parameters.
    """
    if h_s.shape != h_c.shape:
        raise ContractError(
            f"view embeddings disagree: {h_s.shape} vs {h_c.shape}"
        )
    if len(degree) != h_s.rows:
        raise ContractError(
            f"degree has length {len(degree)}, expected {h_s.rows}"
        )
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
    if h_s.shape != h_c.shape:
        raise ContractError(f"fuse: shapes {h_s.shape} and {h_c.shape} differ")
    return T.add(h_s, T.rowscale(h_c, lam))


def save_checkpoint(params: ModelParams, path):
    d = params.dims
    arrays = {name: t.data for name, t in params.all_params().items()}
    with open(path, "wb") as fh:  # keep the exact filename (savez appends .npz)
        np.savez(fh,
                 __dims__=np.array([d.f_in, d.f_embed, d.f_proj, d.f_filter]),
                 **arrays)


def load_checkpoint(path) -> ModelParams:
    """Read a `save_checkpoint` file; any unreadable one is a CheckpointError."""
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"checkpoint not found: {path}")
    names = [f.name for f in fields(ModelParams) if f.name != "dims"]
    try:
        # a handle of our own: np.load leaks the one it opens on a corrupt archive
        with open(path, "rb") as fh, np.load(fh) as data:
            dims = ModelDims(*(int(v) for v in data["__dims__"]))
            kwargs = {name: Tensor(data[name], requires_grad=True) for name in names}
    except (OSError, EOFError, ValueError, KeyError, TypeError,
            NotImplementedError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{path} is not a valid checkpoint: {exc}") from exc
    return ModelParams(dims=dims, **kwargs)
