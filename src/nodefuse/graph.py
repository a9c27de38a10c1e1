"""Graph container, dataset directory I/O, normalization, splits, analysis.

Canonical dataset directory layout:
    meta.json     {"name": str, "n_nodes": int, "n_features": int, "n_classes": int}
    edges.tsv     one undirected edge per line, two 0-based indices
    features.csv  n_nodes lines of comma-separated reals
    labels.txt    optional, n_nodes lines of 0-based class ids
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, FormatError, LoadError, SplitError

_META_KEYS = ("n_nodes", "n_features", "n_classes")


@dataclass(frozen=True)
class Graph:
    """Immutable node/edge/feature/label container.

    Edges are stored once per undirected pair with i < j and no self-loops.
    """

    n_nodes: int
    edges: np.ndarray            # (m, 2) int, i < j
    features: np.ndarray         # (n_nodes, F) float
    labels: np.ndarray | None    # (n_nodes,) int, or None
    degree: np.ndarray           # (n_nodes,) int
    n_classes: int | None = None
    name: str = ""
    n_dropped_lines: int = 0     # duplicate / reversed / self-loop lines at load

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Split:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    seed: int


def build_graph(n_nodes: int, edge_list, features, labels=None,
                n_classes=None, name: str = "") -> Graph:
    """Dedup edges, drop self-loops; check edge ranges and finite features."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != n_nodes:
        raise FormatError(
            f"features must be {n_nodes} rows, got shape {features.shape}"
        )
    finite = np.isfinite(features)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise FormatError(f"non-finite feature {features[row, col]} "
                          f"at row {row}, column {col}")
    raw = np.asarray(edge_list, dtype=np.int64)
    if raw.size == 0:
        raw = raw.reshape(0, 2)
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise FormatError(f"edges must be (i, j) pairs, got shape {raw.shape}")
    bad = ((raw < 0) | (raw >= n_nodes)).any(axis=1)
    if bad.any():
        i, j = raw[np.argmax(bad)]
        raise FormatError(f"edge ({i}, {j}) out of range for {n_nodes} nodes")
    lo, hi = np.minimum(raw[:, 0], raw[:, 1]), np.maximum(raw[:, 0], raw[:, 1])
    keep = lo != hi
    # One integer key per unordered pair, in the lexicographic order of
    # (lo, hi) once sorted. Sort-and-compare is the dedup: np.unique took
    # 30x as long on 200k keys with numpy 2.4.
    keys = np.sort(lo[keep] * n_nodes + hi[keep])
    keys = keys[np.diff(keys, prepend=-1) != 0]     # keys are >= 0
    edges = np.stack([keys // n_nodes, keys % n_nodes], axis=1)
    degree = np.bincount(edges.ravel(), minlength=n_nodes)
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (n_nodes,):
            raise FormatError(f"labels must have length {n_nodes}, got {labels.shape}")
        if n_classes is None:
            n_classes = int(labels.max()) + 1 if n_nodes else 0
        if labels.min(initial=0) < 0 or (n_nodes and labels.max() >= n_classes):
            raise FormatError("labels outside [0, n_classes)")
    return Graph(n_nodes=n_nodes, edges=edges, features=features, labels=labels,
                 degree=degree, n_classes=n_classes, name=name,
                 n_dropped_lines=len(raw) - len(edges))


def _loadtxt(path, dtype, **kwargs) -> np.ndarray:
    """np.loadtxt with a malformed value reported as a FormatError."""
    try:
        with warnings.catch_warnings():
            # An empty file is valid input here; the caller checks its shape.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(path, dtype=dtype, **kwargs)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_graph(dataset_dir) -> Graph:
    d = Path(dataset_dir)
    meta_path = d / "meta.json"
    edges_path = d / "edges.tsv"
    feat_path = d / "features.csv"
    for p in (meta_path, edges_path, feat_path):
        if not p.is_file():
            raise LoadError(f"missing required file: {p}")
    try:
        meta = json.loads(meta_path.read_text())
        n, n_features, n_classes = (int(meta[k]) for k in _META_KEYS)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{meta_path} is not valid JSON: {exc}") from exc
    except KeyError as exc:
        raise FormatError(f"{meta_path} is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{meta_path}: {', '.join(_META_KEYS)} "
                          f"must be integers ({exc})") from exc

    # comments=None keeps a '#' line a format error, like any other token;
    # build_graph rejects a column count other than 2.
    edge_list = _loadtxt(edges_path, np.int64, ndmin=2, comments=None)

    features = _loadtxt(feat_path, np.float64, delimiter=",", ndmin=2)
    if features.shape[1] != n_features:
        raise FormatError(
            f"features.csv has {features.shape[1]} columns, "
            f"meta.json says {n_features}"
        )

    labels = None
    labels_path = d / "labels.txt"
    if labels_path.is_file():
        labels = _loadtxt(labels_path, np.int64, ndmin=1)

    return build_graph(n, edge_list, features, labels=labels,
                       n_classes=n_classes,
                       name=str(meta.get("name", d.name)))


def write_graph(g: Graph, dataset_dir):
    d = Path(dataset_dir)
    d.mkdir(parents=True, exist_ok=True)
    meta = {"name": g.name, "n_nodes": g.n_nodes,
            "n_features": g.n_features, "n_classes": g.n_classes or 0}
    (d / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    with (d / "edges.tsv").open("w") as fh:
        for i, j in g.edges:
            fh.write(f"{i}\t{j}\n")
    with (d / "features.csv").open("w") as fh:
        for row in g.features:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    if g.labels is not None:
        with (d / "labels.txt").open("w") as fh:
            for y in g.labels:
                fh.write(f"{int(y)}\n")


def adjacency_sparse(g: Graph) -> sp.csr_matrix:
    """Symmetric binary adjacency (no self-loops)."""
    rows = np.concatenate([g.edges[:, 0], g.edges[:, 1]])
    cols = np.concatenate([g.edges[:, 1], g.edges[:, 0]])
    vals = np.ones(len(rows), dtype=np.float64)
    return sp.csr_matrix((vals, (rows, cols)), shape=(g.n_nodes, g.n_nodes))


def normalized_adjacency_sparse(g: Graph, add_self_loops: bool = True) -> sp.csr_matrix:
    """D^{-1/2} (A [+ I]) D^{-1/2} with degrees taken after the self-loops."""
    a = adjacency_sparse(g)
    if add_self_loops:
        a = a + sp.identity(g.n_nodes, dtype=np.float64, format="csr")
    deg = np.asarray(a.sum(axis=1)).ravel()
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    d_inv = sp.diags(inv_sqrt)
    return (d_inv @ a @ d_inv).tocsr()


def _largest_remainder_sizes(n: int, ratio) -> list[int]:
    raw = [r * n for r in ratio]
    sizes = [int(np.floor(x)) for x in raw]
    short = n - sum(sizes)
    order = np.argsort([-(x - np.floor(x)) for x in raw], kind="stable")
    for k in range(short):
        sizes[order[k]] += 1
    return sizes


def make_splits(g: Graph, ratio, n_splits: int, seed: int) -> list[Split]:
    """Independent shuffled splits; every class must appear in train."""
    if g.labels is None:
        raise ContractError("make_splits requires a labeled graph")
    if not (all(r >= 0 for r in ratio) and abs(sum(ratio) - 1.0) <= 1e-9):  # NaN fails
        raise ContractError(f"split ratio must be nonnegative and sum to 1, got {ratio}")
    if n_splits < 1:
        raise ContractError(f"n_splits must be >= 1, got {n_splits}")
    n = g.n_nodes
    n_train, n_val, n_test = _largest_remainder_sizes(n, ratio)
    classes = np.unique(g.labels)
    splits = []
    rng = np.random.default_rng(seed)
    for _ in range(n_splits):
        for _attempt in range(100):
            perm = rng.permutation(n)
            train = perm[:n_train]
            if len(np.unique(g.labels[train])) == len(classes):
                break
        else:
            raise SplitError(
                f"could not cover all {len(classes)} classes in a train set "
                f"of size {n_train} after 100 attempts"
            )
        splits.append(Split(train=np.sort(train),
                            val=np.sort(perm[n_train:n_train + n_val]),
                            test=np.sort(perm[n_train + n_val:]),
                            seed=seed))
    return splits


def neighborhood_similarity(g: Graph):
    """Cosine similarity of each node's features to its neighborhood mean.

    Returns (similarity, isolated) where isolated nodes get similarity 0.
    """
    isolated = g.degree == 0
    means = adjacency_sparse(g) @ g.features / np.maximum(g.degree, 1)[:, None]
    nx = np.linalg.norm(g.features, axis=1)
    nm = np.linalg.norm(means, axis=1)
    # Isolated nodes have a zero mean, so the zero-norm rule covers them.
    ok = (nx >= 1e-12) & (nm >= 1e-12)
    sims = np.zeros(g.n_nodes, dtype=np.float64)
    sims[ok] = (np.einsum("ij,ij->i", g.features[ok], means[ok])
                / (nx[ok] * nm[ok]))
    return sims, isolated
