"""Stochastic view perturbations: shared-column feature masking and edge dropping."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import check_range, number_array
from .graph import Graph


@dataclass(frozen=True)
class AugmentConfig:
    p_s: float = 0.3       # feature mask probability
    p_c: float = 0.3       # edge drop probability

    def __post_init__(self):
        check_range("p_s", self.p_s, 0, 1)
        check_range("p_c", self.p_c, 0, 1)


def mask_features(x, p_s: float, rng: np.random.Generator):
    """Zero a shared random subset of feature columns.

    One binary vector is drawn with keep probability 1 - p_s and applied to
    every row, so all nodes lose the same columns within a draw.
    """
    check_range("p_s", p_s, 0, 1)
    x = number_array("mask_features: x", x, 2)
    return np.where(rng.random(x.shape[1]) >= p_s, x, x.dtype.type(0))


def drop_edges(g: Graph, p_c: float, rng: np.random.Generator) -> Graph:
    """Keep each undirected edge independently with probability 1 - p_c.

    One Bernoulli draw per undirected pair keeps the adjacency symmetric.
    Features and labels are shared with the source graph.
    """
    check_range("p_c", p_c, 0, 1)
    return replace(g, edges=g.edges[rng.random(g.n_edges) >= p_c])
