"""Alternating optimization: contrast phase for encoder/projector, controller phase."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .augment import AugmentConfig, drop_edges, mask_features
from .errors import ContractError, TrainingDiverged
from .graph import Graph, normalized_adjacency_sparse
from .losses import (ContrastConfig, ControllerConfig, contrast_terms,
                     controller_loss)
from .model import (EmbeddingSet, ModelDims, ModelParams, controller_lambda,
                    encode_contextual, encode_semantic, first_layer_product,
                    fuse, init_params)
from . import tensor as T
from .tensor import AdamState, Tensor, adam_step


def _check_fixed_lambda(value: float | None):
    if value is not None and not 0.0 <= value <= 1.0:     # NaN fails too
        raise ContractError(f"fixed_lambda must lie in [0, 1], got {value}")


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
    dims: tuple[int, int, int] = (256, 64, 30)   # (f_embed, f_proj, f_filter)
    # stop after `patience` epochs without a contrast-loss gain; train then
    # returns the last epoch's parameters, not the best epoch's
    patience: int | None = 50
    precision: str = "float64"       # "float64" (test mode) or "float32"
    include_semantic: bool = True
    include_context: bool = True
    include_fusion: bool = True
    fixed_lambda: float | None = None  # disables controller training when set

    def __post_init__(self):
        if self.lr <= 0 or self.lr_controller <= 0:
            raise ContractError("learning rates must be positive")
        if self.epochs < 1:
            raise ContractError("epochs must be >= 1")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if len(self.dims) != 3 or min(self.dims) < 1:
            raise ContractError("dims must be three positive widths "
                                f"[f_embed, f_proj, f_filter], got {list(self.dims)}")
        if self.patience is not None and self.patience < 1:
            raise ContractError(f"patience must be >= 1 or None, got {self.patience}")
        if not 0.0 <= self.dropout < 1.0:
            raise ContractError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.precision not in ("float64", "float32"):
            raise ContractError(f"unknown precision {self.precision!r}")
        if not (self.include_semantic or self.include_context or self.include_fusion):
            raise ContractError("all three contrast terms are disabled")
        _check_fixed_lambda(self.fixed_lambda)

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
        return json.dumps({
            "epoch": self.epoch,
            "contrast_loss": self.contrast_loss,
            "controller_loss": self.controller_loss,
            "lambda_mean": self.lambda_mean,
            "lambda_std": self.lambda_std,
        })


@dataclass
class TrainReport:
    records: list[EpochRecord]
    params: ModelParams

    def to_jsonl(self) -> str:
        return "".join(r.to_json() + "\n" for r in self.records)


def _dropout_mask(rng: np.random.Generator, shape, rate: float, dtype) -> Tensor | None:
    if rate == 0.0:
        return None
    keep = (rng.random(shape) >= rate).astype(dtype) / dtype(1.0 - rate)
    return Tensor(keep)


def _zero_grads(params: dict):
    for t in params.values():
        t.grad = None


def _step(params: dict, state: AdamState, lr: float):
    arrays = {name: t.data for name, t in params.items()}
    grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
             for name, t in params.items()}
    adam_step(arrays, grads, state, lr)


def train(g: Graph, cfg: TrainConfig, phase_hook=None) -> TrainReport:
    """Run the alternating loop and return per-epoch stats plus final params.

    Each epoch: draw fresh augmentations; update encoder and projector by the
    contrast objective with lambda held constant; then recompute the clean
    view embeddings, detach them, and update the controller by its own
    objective. At epoch 1 the lambda comes from the freshly initialized
    controller.

    `phase_hook(epoch, phase, params)` is invoked after each optimizer step
    with phase "contrast" or "controller"; useful for isolation checks.
    """
    dtype = cfg.dtype
    master = np.random.default_rng(cfg.seed)
    init_rng, aug_rng, drop_rng = master.spawn(3)

    dims = ModelDims(g.n_features, *cfg.dims)
    params = init_params(init_rng, dims)
    if dtype is np.float32:
        params = params.astype(dtype)

    x = Tensor(g.features.astype(dtype))
    adj = normalized_adjacency_sparse(g).astype(dtype)
    train_ctrl = cfg.fixed_lambda is None

    contrast_state = AdamState()
    ctrl_state = AdamState()
    records: list[EpochRecord] = []
    best_loss = np.inf
    best_epoch = 0

    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()

        x_aug = Tensor(mask_features(x.data, cfg.augment.p_s, aug_rng))
        g_aug = drop_edges(g, cfg.augment.p_c, aug_rng)
        adj_aug = normalized_adjacency_sparse(g_aug).astype(dtype)
        n = g.n_nodes
        masks = [_dropout_mask(drop_rng, (n, dims.f_embed), cfg.dropout, dtype)
                 for _ in range(4)]

        # contrast phase: omega and mu move, phi and lambda are frozen
        xw = first_layer_product(params, x)
        encoded = [encode_semantic(params, x, masks[0], xw=xw),
                   encode_semantic(params, x_aug, masks[1]),
                   encode_contextual(params, x, adj, masks[2], xw=xw),
                   encode_contextual(params, x, adj_aug, masks[3], xw=xw)]
        # the heads start from leaves sharing the encodings' data, so each
        # term's backward stops at them and the encoder is walked once below
        h_s, h_s_aug, h_c, h_c_aug = leaves = [
            Tensor(h.data, requires_grad=True) for h in encoded]
        if cfg.fixed_lambda is not None:
            lam_const = Tensor(np.full((n, 1), cfg.fixed_lambda, dtype=dtype))
        else:
            lam_const = controller_lambda(params, h_s, h_c, g.degree).lam.detach()
        emb = EmbeddingSet(h_s=h_s, h_s_aug=h_s_aug, h_c=h_c, h_c_aug=h_c_aug,
                           h_f=fuse(h_s, h_c, lam_const),
                           h_f_aug=fuse(h_s_aug, h_c_aug, lam_const))
        cparams = params.contrast_params()
        _zero_grads(cparams)
        loss_val = 0.0
        # backpropagate the heads term by term, so that one view's head tape
        # is live at a time, into the projector and the four leaves
        for term in contrast_terms(emb, params, cfg.contrast,
                                   include_semantic=cfg.include_semantic,
                                   include_context=cfg.include_context,
                                   include_fusion=cfg.include_fusion):
            val = term.item()
            if not np.isfinite(val):
                raise TrainingDiverged(epoch, "contrast")
            loss_val += val
            T.backward(term)
            del term    # frees this view's tape before the next view builds its own
        # then the encoder once, seeded with the gradients the leaves gathered
        T.backward(*[(h, leaf.grad) for h, leaf in zip(encoded, leaves)
                     if leaf.grad is not None])
        _step(cparams, contrast_state, cfg.lr)
        # unbind this phase's tapes and inputs: left bound until the next
        # epoch rebinds them, two epochs' tapes would be live at once
        del x_aug, g_aug, adj_aug, masks, xw, encoded, leaves, emb
        del h_s, h_s_aug, h_c, h_c_aug
        if phase_hook is not None:
            phase_hook(epoch, "contrast", params)

        # controller phase: phi moves against detached clean embeddings
        ctrl_val = 0.0
        if train_ctrl:
            xw = first_layer_product(params, x)
            h_s_clean = encode_semantic(params, x, xw=xw)
            h_c_clean = encode_contextual(params, x, adj, xw=xw)
            weights = controller_lambda(params, h_s_clean, h_c_clean, g.degree)
            closs = controller_loss(weights, h_s_clean, h_c_clean, cfg.controller)
            ctrl_val = closs.item()
            if not np.isfinite(ctrl_val):
                raise TrainingDiverged(epoch, "controller")
            pparams = params.controller_params()
            _zero_grads(pparams)
            T.backward(closs)
            _step(pparams, ctrl_state, cfg.lr_controller)
            if phase_hook is not None:
                phase_hook(epoch, "controller", params)
            lam_vals = weights.values
            del xw, h_s_clean, h_c_clean, weights, closs
        else:
            lam_vals = lam_const.data[:, 0]

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
    _check_fixed_lambda(fixed_lambda)
    x = Tensor(g.features.astype(params.enc_w1.data.dtype))
    adj = normalized_adjacency_sparse(g).astype(x.data.dtype)
    xw = first_layer_product(params, x)
    h_s = encode_semantic(params, x, xw=xw)
    h_c = encode_contextual(params, x, adj, xw=xw)
    if fixed_lambda is not None:
        lam = Tensor(np.full((g.n_nodes, 1), fixed_lambda, dtype=x.data.dtype))
    else:
        lam = controller_lambda(params, h_s, h_c, g.degree).lam
    return fuse(h_s, h_c, lam).detach()
