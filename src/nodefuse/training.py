"""Alternating optimization: contrast phase for encoder/projector, controller phase."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .augment import AugmentConfig, drop_edges, mask_features
from .errors import ContractError, TrainingDiverged, check_range
from .graph import Graph, features_as, normalized_adjacency_sparse
from .losses import (ContrastConfig, ControllerConfig, contrast_loss,
                     controller_loss)
from .model import (ModelDims, ModelParams, controller_lambda, encode_contextual,
                    encode_semantic, first_layer_product, fuse, hidden_layer,
                    init_params, second_layer)
from . import tensor as T
from .tensor import AdamState, Tensor, adam_step


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.005
    lr_controller: float = 0.001
    epochs: int = 500
    dropout: float = 0.2
    seed: int = 0
    contrast: ContrastConfig = field(default_factory=ContrastConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    dims: tuple[int, int, int] = (256, 64, 30)   # (f_embed, f_proj, f_filter); any 3-sequence
    # stop after `patience` epochs without a contrast-loss gain; train then
    # returns the last epoch's parameters, not the best epoch's
    patience: int | None = 50
    precision: str = "float64"       # "float64" (test mode) or "float32"
    fixed_lambda: float | None = None  # disables controller training when set

    def __post_init__(self):
        check_range("lr", self.lr, 0, np.inf, lo_open=True)
        check_range("lr_controller", self.lr_controller, 0, np.inf, lo_open=True)
        check_range("epochs", self.epochs, 1, np.inf, integer=True)
        check_range("seed", self.seed, 0, np.inf, integer=True)
        dims = tuple(self.dims) if np.iterable(self.dims) else ()
        if len(dims) != 3:
            raise ContractError(f"dims must be three widths, got {self.dims!r}")
        for width in dims:
            check_range("dims", width, 1, np.inf, integer=True)
        object.__setattr__(self, "dims", dims)
        if self.patience is not None:
            check_range("patience", self.patience, 1, np.inf, integer=True)
        check_range("dropout", self.dropout, 0, 1)
        if self.precision not in ("float64", "float32"):
            raise ContractError(f"unknown precision {self.precision!r}")
        if self.fixed_lambda is not None:
            check_range("fixed_lambda", self.fixed_lambda, 0, 1, hi_open=False)

    @property
    def dtype(self):
        return np.float64 if self.precision == "float64" else np.float32


@dataclass
class EpochRecord:
    epoch: int
    contrast_loss: float
    controller_loss: float
    lambda_mean: float
    lambda_std: float
    seconds: float

    def to_json(self) -> str:
        # wall-clock stays in memory only so reruns serialize byte-identically
        record = asdict(self)
        del record["seconds"]
        return json.dumps(record)


@dataclass
class TrainReport:
    records: list[EpochRecord]
    params: ModelParams

    def to_jsonl(self) -> str:
        return "".join(r.to_json() + "\n" for r in self.records)


_MASK_BLOCK = 2 ** 15     # uniforms per row block of a dropout mask: 256 KB of float64


def _dropout_mask(rng: np.random.Generator, shape, rate: float,
                  dtype) -> tuple[np.ndarray, float] | None:
    """A boolean keep mask and the kept entries' scale, or None at rate 0.

    The uniforms are drawn a row block at a time into one small buffer; the
    mask, and the state `rng` is left in, are those of `rng.random(shape)`.
    """
    if rate == 0.0:
        return None
    n, cols = shape
    keep = np.empty(shape, dtype=bool)
    step = max(1, _MASK_BLOCK // cols)
    buf = np.empty((min(step, n), cols))
    for lo in range(0, n, step):
        block = buf[:min(step, n - lo)]
        rng.random(out=block)
        np.greater_equal(block, rate, out=keep[lo:lo + len(block)])
    return keep, dtype(1) / dtype(1 - rate)


def _step(params: dict, state: AdamState, lr: float):
    """One Adam step from the group's gradients, which it then clears."""
    arrays = {name: t.data for name, t in params.items()}
    grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
             for name, t in params.items()}
    adam_step(arrays, grads, state, lr)
    for t in params.values():
        t.grad = None


def _inputs(g: Graph, dtype):
    """The encoders' features, as `features_as` gives them with a dense array
    wrapped in a Tensor, and the normalized adjacency, in `dtype`."""
    x = features_as(g, dtype)
    return (x if sp.issparse(x) else Tensor(x),
            normalized_adjacency_sparse(g).astype(dtype))


def _clean_views(params: ModelParams, x, adj) -> tuple[Tensor, Tensor]:
    """The semantic and contextual encodings of the unperturbed graph, made
    with constant encoder weights: no backward walks them, so no tape is kept."""
    params = replace(params, enc_w1=params.enc_w1.detach(), enc_w2=params.enc_w2.detach())
    xw = first_layer_product(params, x)
    return (encode_semantic(params, x, xw=xw),
            encode_contextual(params, x, adj, xw=xw))


def _fusion_lambda(params: ModelParams, views, g: Graph,
                   fixed_lambda: float | None) -> Tensor:
    """The N x 1 fusion weight as a constant: `fixed_lambda`, else the
    controller's on the semantic and contextual encodings `views()` makes."""
    if fixed_lambda is not None:
        return Tensor(np.full((g.n_nodes, 1), fixed_lambda, dtype=params.enc_w1.data.dtype))
    return controller_lambda(params, *views(), g.degree).lam.detach()


def _contrast_step(g: Graph, cfg: TrainConfig, params: ModelParams, state: AdamState,
                   x, adj, aug_rng, drop_rng, epoch: int) -> tuple[float, np.ndarray]:
    """Contrast phase: omega and mu move, phi and lambda are frozen."""
    # the feature mask is drawn as a row, which first_layer_product applies
    # to a sparse x's entries or to the rows of enc_w1
    keep = mask_features(np.ones((1, x.shape[1]), dtype=cfg.dtype), cfg.augment.p_s, aug_rng)
    adj_aug = normalized_adjacency_sparse(
        drop_edges(g, cfg.augment.p_c, aug_rng)).astype(cfg.dtype)
    masks = [_dropout_mask(drop_rng, (g.n_nodes, params.dims.f_embed),
                           cfg.dropout, cfg.dtype) for _ in range(4)]

    xw, xw_masked = first_layer_product(params, x, keep)
    # semantic, feature-masked semantic, contextual and edge-dropped contextual
    aggs = (None, None, adj, adj_aug)
    hidden = [hidden_layer(xw_view, agg, mask) for xw_view, agg, mask
              in zip((xw, xw_masked, xw, xw), aggs, masks)]
    # no backward reads the first-layer products or the aggregations of them,
    # so dropping them frees them all (for sparse x, the stacked product both
    # are views of)
    del xw, xw_masked
    # lambda's encodings stay taped, with closures holding only H, enc_w2 and
    # adj; no loss reads them, so they die once lambda is made
    lam = _fusion_lambda(params, lambda: (second_layer(hidden[0], params.enc_w2, None),
                                          second_layer(hidden[2], params.enc_w2, adj)),
                         g, cfg.fixed_lambda)
    # the head reads each encoding h only as h @ proj_w1, and agg, fuse and
    # that product are linear: so the projector's inputs are agg(H @ w), with
    # w = enc_w2 @ proj_w1, and no N x f_embed encoding is made
    w = T.matmul(params.enc_w2, params.proj_w1)
    a_s, a_s_aug, a_c, a_c_aug = (second_layer(h, w, agg) for h, agg in zip(hidden, aggs))
    total = contrast_loss(((a_s, a_s_aug), (a_c, a_c_aug),
                           (fuse(a_s, a_c, lam), fuse(a_s_aug, a_c_aug, lam))),
                          params, cfg.contrast)
    # backward frees each op's arrays as it walks past, unless a name here
    # still holds them: x, adj, adj_aug, keep, lam and the dropout masks live
    # through it, and the hidden layers until the walk reaches them; the
    # edge-dropped Graph was never named, so it is gone
    del hidden, a_s, a_s_aug, a_c, a_c_aug
    loss = total.item()
    if not np.isfinite(loss):   # each term is >= 0: the sum is finite iff each is
        raise TrainingDiverged(epoch, "contrast")
    T.backward(total)
    _step(params.contrast_params(), state, cfg.lr)
    return loss, lam.data[:, 0]


def _controller_step(g: Graph, cfg: TrainConfig, params: ModelParams, state: AdamState,
                     x, adj, epoch: int) -> tuple[float, np.ndarray]:
    """Controller phase: phi moves against the detached clean encodings."""
    h_s, h_c = _clean_views(params, x, adj)
    weights = controller_lambda(params, h_s, h_c, g.degree)
    closs = controller_loss(weights.lam, h_s, h_c, cfg.controller)
    loss = closs.item()
    if not np.isfinite(loss):
        raise TrainingDiverged(epoch, "controller")
    T.backward(closs)
    _step(params.controller_params(), state, cfg.lr_controller)
    return loss, weights.values


def train(g: Graph, cfg: TrainConfig, phase_hook=None) -> TrainReport:
    """Run the alternating loop and return per-epoch stats plus final params.

    Each epoch runs `_contrast_step`, which draws fresh augmentations and
    updates encoder and projector with lambda held constant, then
    `_controller_step`, which updates the controller against the detached
    clean encodings. Each returns its loss and lambda as an array, never a
    Tensor, so its tapes are freed when it returns. At epoch 1 the lambda
    comes from the freshly initialized controller.

    `phase_hook(epoch, phase, params)` is invoked after each optimizer step
    with phase "contrast" or "controller"; useful for isolation checks.
    """
    master = np.random.default_rng(cfg.seed)
    init_rng, aug_rng, drop_rng = master.spawn(3)

    params = init_params(init_rng, ModelDims(g.n_features, *cfg.dims))
    if cfg.dtype is np.float32:
        params = params.astype(cfg.dtype)

    x, adj = _inputs(g, cfg.dtype)

    contrast_state = AdamState()
    ctrl_state = AdamState()
    records: list[EpochRecord] = []
    best_loss = np.inf
    best_epoch = 0

    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        loss_val, lam_vals = _contrast_step(g, cfg, params, contrast_state, x, adj,
                                            aug_rng, drop_rng, epoch)
        if phase_hook is not None:
            phase_hook(epoch, "contrast", params)
        ctrl_val = 0.0
        if cfg.fixed_lambda is None:
            ctrl_val, lam_vals = _controller_step(g, cfg, params, ctrl_state, x, adj, epoch)
            if phase_hook is not None:
                phase_hook(epoch, "controller", params)

        records.append(EpochRecord(
            epoch=epoch,
            contrast_loss=loss_val,
            controller_loss=ctrl_val,
            lambda_mean=float(lam_vals.mean()),
            lambda_std=float(lam_vals.std()),
            seconds=time.perf_counter() - t0,
        ))

        if loss_val < best_loss - 1e-6:
            best_loss = loss_val
            best_epoch = epoch
        if cfg.patience is not None and epoch - best_epoch >= cfg.patience:
            break

    return TrainReport(records=records, params=params)


def embed(g: Graph, params: ModelParams, fixed_lambda: float | None = None) -> Tensor:
    """Deterministic inference: fused representations on the unperturbed graph."""
    if fixed_lambda is not None:
        check_range("fixed_lambda", fixed_lambda, 0, 1, hi_open=False)
    x, adj = _inputs(g, params.enc_w1.data.dtype)
    h_s, h_c = _clean_views(params, x, adj)
    lam = _fusion_lambda(params, lambda: (h_s, h_c), g, fixed_lambda)
    return fuse(h_s, h_c, lam)      # of constants, so it has no tape
