"""Stochastic view perturbations: shared-column feature masking and edge dropping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .graph import Graph
from .tensor import Tensor


@dataclass(frozen=True)
class AugmentConfig:
    p_s: float = 0.3       # feature mask probability
    p_c: float = 0.3       # edge drop probability

    def __post_init__(self):
        if not (0.0 <= self.p_s < 1.0 and 0.0 <= self.p_c < 1.0):
            raise ContractError(
                f"augment probabilities must lie in [0, 1), got p_s={self.p_s}, p_c={self.p_c}"
            )


def mask_features(x, p_s: float, rng: np.random.Generator):
    """Zero a shared random subset of feature columns.

    One binary vector is drawn with keep probability 1 - p_s and applied to
    every row, so all nodes lose the same columns within a draw.
    """
    if not 0.0 <= p_s < 1.0:
        raise ContractError(f"p_s must lie in [0, 1), got {p_s}")
    arr = x.data if isinstance(x, Tensor) else np.asarray(x)
    mask = (rng.random(arr.shape[1]) >= p_s).astype(arr.dtype)
    out = arr * mask
    return Tensor(out) if isinstance(x, Tensor) else out


def drop_edges(g: Graph, p_c: float, rng: np.random.Generator) -> Graph:
    """Keep each undirected edge independently with probability 1 - p_c.

    One Bernoulli draw per undirected pair keeps the adjacency symmetric.
    Features and labels are shared with the source graph; degrees are
    recomputed for the surviving edge set.
    """
    if not 0.0 <= p_c < 1.0:
        raise ContractError(f"p_c must lie in [0, 1), got {p_c}")
    keep = rng.random(g.n_edges) >= p_c
    edges = g.edges[keep]
    degree = np.bincount(edges.ravel(), minlength=g.n_nodes)
    return Graph(n_nodes=g.n_nodes, edges=edges, features=g.features,
                 labels=g.labels, degree=degree, n_classes=g.n_classes,
                 name=g.name)
