"""Contrastive objectives: NT-Xent pairwise/view losses and the controller loss."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, check_range, number_array
from .model import ModelParams, project
from . import tensor as T
from .tensor import Tensor


@dataclass(frozen=True)
class ContrastConfig:
    tau: float = 0.5
    beta1: float = 1.0   # weight of the contextual term; 0 skips the term
    beta2: float = 1.0   # weight of the fusion term; 0 skips the term
    include_semantic: bool = True   # the semantic term's weight: 1 if True, else 0

    def __post_init__(self):
        if not isinstance(self.include_semantic, (bool, np.bool_)):
            raise ContractError(f"include_semantic must be a bool, got "
                                f"{self.include_semantic!r}", field="include_semantic")
        check_range("tau", self.tau, 0, math.inf, lo_open=True)
        check_range("beta1", self.beta1, 0, math.inf)
        check_range("beta2", self.beta2, 0, math.inf)
        if not (self.include_semantic or self.beta1 or self.beta2):
            raise ContractError("all three contrast terms are disabled")


@dataclass(frozen=True)
class ControllerConfig:
    alpha1: float = 1e4
    alpha2: float = 1.0
    epsilon: float = 0.5

    def __post_init__(self):
        check_range("alpha1", self.alpha1, 0, math.inf)
        check_range("alpha2", self.alpha2, 0, math.inf)
        check_range("epsilon", self.epsilon, 0, 1, hi_open=False)


def _as_array(name: str, z) -> np.ndarray:
    """A Tensor's data, else `z` as a 2-D float64 array."""
    if isinstance(z, Tensor):
        return z.data
    return number_array(name, z, 2).astype(np.float64, copy=False)


def _cos(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    return float(a @ b / (na * nb))


@np.errstate(all="ignore")      # a non-finite or overflowing input gives NaN
def ntxent_pair_loss(z, z_aug, i: int, tau: float) -> float:
    """Pairwise loss for anchor row i of `z` against its augmented positive.

    The denominator runs over the 2N - 1 negatives-plus-positive: all
    intra-view rows except the anchor itself, and every cross-view row
    (including the positive). Computed with a max-shift for stability.
    """
    z = _as_array("ntxent_pair_loss: z", z)
    z_aug = _as_array("ntxent_pair_loss: z_aug", z_aug)
    n = z.shape[0]
    if n < 2:
        raise ContractError("ntxent_pair_loss needs at least 2 nodes")
    if z.shape != z_aug.shape:
        raise ContractError(f"shapes {z.shape} and {z_aug.shape} differ")
    check_range("i", i, 0, n, integer=True)
    check_range("tau", tau, 0, math.inf, lo_open=True)
    sims = []
    for j in range(n):
        if j != i:
            sims.append(_cos(z[i], z[j]) / tau)
    for j in range(n):
        sims.append(_cos(z[i], z_aug[j]) / tau)
    sims = np.array(sims)
    pos = _cos(z[i], z_aug[i]) / tau
    m = sims.max()
    return float(-pos + m + np.log(np.exp(sims - m).sum()))


def view_loss(z: Tensor, z_aug: Tensor, tau: float) -> Tensor:
    """Symmetrized NT-Xent over all anchors, averaged over 2N terms.

    Cosine similarities are bounded by 1, so exp((s - 1)/tau) is used as the
    stabilized kernel; the constant shift cancels in the final expression.
    """
    check_range("tau", tau, 0, math.inf, lo_open=True)
    zn = T.normalize_rows(z)
    an = T.normalize_rows(z_aug)
    total = T.ntxent_view(zn, an, 1.0 / tau)
    return T.scale(total, 1.0 / (2.0 * z.rows))


def contrast_loss(pairs, params: ModelParams, cfg: ContrastConfig) -> Tensor:
    """Weighted sum of the view losses of the semantic, contextual and fusion
    (clean, perturbed) `pairs`, weighted 1 (0 without `include_semantic`),
    `beta1` and `beta2`; a zero weight skips its term. Each pair holds the
    projector's inputs h @ proj_w1 of two encodings h, as `project` takes them."""
    if len(pairs) != 3:
        raise ContractError(f"contrast_loss takes 3 encoding pairs, got {len(pairs)}")
    total = None
    for weight, (z, z_aug) in zip((float(cfg.include_semantic), cfg.beta1, cfg.beta2), pairs):
        if weight:
            term = T.scale(view_loss(project(params, z), project(params, z_aug),
                                     cfg.tau), weight)
            total = term if total is None else T.add(total, term)
    return total


def controller_loss(lam: Tensor, h_s: Tensor, h_c: Tensor,
                    cfg: ControllerConfig) -> Tensor:
    """Similarity-weighted lambda sum plus the two distribution penalties.

    `lam` is the N x 1 fusion weight. The view embeddings enter as constants;
    only lambda (and through it the controller parameters) receives gradient.
    """
    sims = T.cosine_rows(h_s.detach(), h_c.detach())
    total = T.sum_all(T.mul(lam, sims))
    if cfg.alpha1 != 0.0:
        norm = T.sqrt(T.sum_all(T.mul(lam, lam)))
        total = T.add(total, T.scale(norm, cfg.alpha1))
    if cfg.alpha2 != 0.0:
        pen = T.absolute(T.add_scalar(T.mean_all(lam), -cfg.epsilon))
        total = T.add(total, T.scale(pen, cfg.alpha2))
    return total
