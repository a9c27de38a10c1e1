"""Seeded, vectorized generators for the benchmark's datasets.

Every workload is a contextual stochastic block model (cSBM, arXiv 1807.09596):
nodes carry a class, each edge joins two nodes of the same class with
probability `homophily` and otherwise two nodes of different classes, and
features are sparse binary bag-of-words rows whose word probabilities depend
on the class. The generator writes the directory layout `nodefuse.load_graph`
reads, so the measured program sees nothing but the files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    n_nodes: int
    n_edges: int
    n_features: int
    class_weights: tuple[float, ...]
    homophily: float         # share of edges that join two nodes of one class
    word_rate: float         # mean share of words present in a feature row
    topic_words: int         # words per class whose rate is raised
    topic_boost: float       # rate multiplier of a class's topic words
    precision: str           # TrainConfig.precision
    epochs: int              # per training run; the first one is warm-up
    trace_epochs: int        # per training run of a traced process

    @property
    def n_classes(self) -> int:
        return len(self.class_weights)


# The reason for each workload is recorded in BENCHMARK.json. The topic
# boosts put probe_acc near 0.85-0.9 over seeds: far above chance, and not
# saturated, so that a regression in learning shows. A c8 process makes a
# single training run, so its epoch count sets how long its epochs are
# sampled. A shared host's speed can swing by 30% for a minute at a time, and
# 14 epochs let the median cover about 40 s of it. A traced process makes two
# training runs and k-means, so c8 trains fewer epochs there, to end within
# three minutes on a slow host; per-layer times are per epoch and do not
# depend on the count.
WORKLOADS = {
    "c8": Workload("c8", n_nodes=5000, n_edges=200_000, n_features=1000,
                   class_weights=(0.2,) * 5, homophily=0.3, word_rate=0.02,
                   topic_words=50, topic_boost=8.0, precision="float32",
                   epochs=14, trace_epochs=6),
    "texas": Workload("texas", n_nodes=183, n_edges=300, n_features=1703,
                      class_weights=(0.4, 0.2, 0.18, 0.12, 0.1), homophily=0.1,
                      word_rate=0.02, topic_words=100, topic_boost=18.0,
                      precision="float64", epochs=40, trace_epochs=40),
}


def _labels(rng, w: Workload) -> np.ndarray:
    p = np.asarray(w.class_weights) / sum(w.class_weights)
    counts = np.maximum(np.floor(p * w.n_nodes).astype(np.int64), 2)
    counts[0] += w.n_nodes - counts.sum()
    return rng.permutation(np.repeat(np.arange(w.n_classes), counts))


def _edges(rng, w: Workload, labels: np.ndarray) -> np.ndarray:
    """Exactly `n_edges` distinct undirected pairs (i < j), no self-loops."""
    n, c = w.n_nodes, w.n_classes
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=c)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    seen = np.zeros(n * n, dtype=bool)
    kept: list[np.ndarray] = []
    short = w.n_edges
    while short > 0:
        k = 2 * short + 64
        src = rng.integers(n, size=k)
        same = rng.random(k) < w.homophily
        cls = np.where(same, labels[src],
                       (labels[src] + rng.integers(1, c, size=k)) % c)
        dst = order[starts[cls] + (rng.random(k) * sizes[cls]).astype(np.int64)]
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        keys = (lo * n + hi)[lo != hi]
        keys = keys[~seen[keys]]
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)][:short]     # first draws win, in draw order
        seen[keys] = True
        kept.append(keys)
        short -= len(keys)
    keys = np.concatenate(kept)
    return np.stack([keys // n, keys % n], axis=1)


def _features(rng, w: Workload, labels: np.ndarray) -> np.ndarray:
    rates = np.full((w.n_classes, w.n_features), w.word_rate)
    for cls in range(w.n_classes):
        topic = rng.choice(w.n_features, size=w.topic_words, replace=False)
        rates[cls, topic] *= w.topic_boost
    return rng.random((w.n_nodes, w.n_features)) < rates[labels]


def _csv_rows(bits: np.ndarray) -> bytes:
    """0/1 matrix as comma-separated lines, built without a Python loop."""
    n, f = bits.shape
    out = np.full((n, 2 * f), ord(","), dtype=np.uint8)
    out[:, 0::2] = bits.astype(np.uint8) + ord("0")
    out[:, -1] = ord("\n")
    return out.tobytes()


def generate(w: Workload, seed: int, out_dir) -> Path:
    """Write the dataset of workload `w` for `seed` into `out_dir`."""
    rng = np.random.default_rng([seed, sum(map(ord, w.name))])
    labels = _labels(rng, w)
    edges = _edges(rng, w, labels)
    # list each pair once, in a random orientation, as a raw edge file would
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    features = _features(rng, w, labels)

    d = Path(out_dir)
    d.mkdir(parents=True, exist_ok=True)
    meta = {"name": w.name, "n_nodes": w.n_nodes, "n_features": w.n_features,
            "n_classes": w.n_classes}
    (d / "meta.json").write_text(json.dumps(meta) + "\n")
    (d / "edges.tsv").write_text("".join(f"{i}\t{j}\n" for i, j in edges.tolist()))
    (d / "features.csv").write_bytes(_csv_rows(features))
    (d / "labels.txt").write_text("".join(f"{y}\n" for y in labels))
    return d
