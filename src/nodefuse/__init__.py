"""Self-supervised node representation learning for heterophilic graphs.

Dual-view (per-node semantic / message-passing contextual) GCN encoding with
a three-level contrastive objective, a learned per-node fusion weight, and
alternating optimization, plus linear-probe and clustering evaluation.
"""

from .augment import AugmentConfig, drop_edges, mask_features
from .evaluation import (ClassificationResult, ClusteringResult, ari,
                         clustering_accuracy, evaluate_clustering, kmeans,
                         linear_probe, nmi)
from .graph import (Graph, Split, build_graph, load_graph, make_splits,
                    neighborhood_similarity, write_graph)
from .losses import (ContrastConfig, ControllerConfig, contrast_loss,
                     controller_loss, ntxent_pair_loss, view_loss)
from .model import (FusionWeights, ModelDims, ModelParams, controller_lambda,
                    encode_contextual, encode_semantic, fuse, init_params,
                    load_checkpoint, project, save_checkpoint)
from .tensor import AdamState, Tensor, adam_step, backward
from .training import TrainConfig, TrainReport, embed, train

__version__ = "0.1.0"

__all__ = [
    "AdamState", "AugmentConfig", "ClassificationResult", "ClusteringResult",
    "ContrastConfig", "ControllerConfig", "FusionWeights",
    "Graph", "ModelDims", "ModelParams", "Split", "TrainConfig", "TrainReport",
    "Tensor", "adam_step", "ari", "backward", "build_graph",
    "clustering_accuracy", "contrast_loss", "controller_lambda",
    "controller_loss", "drop_edges", "embed", "encode_contextual",
    "encode_semantic", "evaluate_clustering", "fuse", "init_params", "kmeans",
    "linear_probe", "load_checkpoint", "load_graph", "make_splits",
    "mask_features", "neighborhood_similarity", "nmi", "ntxent_pair_loss",
    "project", "save_checkpoint", "train", "view_loss", "write_graph",
]
