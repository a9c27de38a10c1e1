"""Downstream evaluation: linear probe, k-means, and clustering agreement metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ContractError
from .graph import Split
from .tensor import AdamState, Tensor, adam_step


@dataclass
class ClassificationResult:
    accuracies: list[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        return float(np.std(self.accuracies))


@dataclass
class ClusteringResult:
    acc: float
    nmi: float
    ari: float
    assignment: np.ndarray


def _as_array(x) -> np.ndarray:
    arr = x.data if isinstance(x, Tensor) else np.asarray(x)
    return arr.astype(np.float64)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def linear_probe(embeddings, labels, splits: list[Split], lr: float = 0.01,
                 epochs: int = 300, seed: int = 0) -> ClassificationResult:
    """Multinomial logistic regression on frozen embeddings, one run per split.

    Trained with Adam on the train indices; the epoch with the best validation
    accuracy is selected and its weights are scored on test. Test labels are
    read exactly once, at final scoring.
    """
    x = _as_array(embeddings)
    y = np.asarray(labels, dtype=np.int64)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    x = (x - mean) / np.where(std < 1e-12, 1.0, std)
    n_classes = int(y.max()) + 1

    accs = []
    for split in splits:
        ytr = y[split.train]
        if len(np.unique(ytr)) < 2:
            raise ContractError("linear probe train set contains a single class")
        rng = np.random.default_rng(seed)
        xtr = x[split.train]
        onehot = np.eye(n_classes)[ytr]
        w = rng.normal(0.0, 0.01, size=(x.shape[1], n_classes))
        b = np.zeros((1, n_classes))
        state = AdamState()
        best_val = -1.0
        best = (w.copy(), b.copy())
        has_val = len(split.val) > 0
        xval, yval = x[split.val], y[split.val]
        for _ in range(epochs):
            p = _softmax(xtr @ w + b)
            diff = (p - onehot) / len(xtr)
            adam_step({"w": w, "b": b},
                      {"w": xtr.T @ diff, "b": diff.sum(axis=0, keepdims=True)},
                      state, lr)
            if has_val:
                val_pred = (xval @ w + b).argmax(axis=1)
                val_acc = float((val_pred == yval).mean())
                if val_acc > best_val:
                    best_val = val_acc
                    best = (w.copy(), b.copy())
        if not has_val:
            best = (w, b)
        bw, bb = best
        if len(split.test) > 0:
            test_pred = (x[split.test] @ bw + bb).argmax(axis=1)
            accs.append(float((test_pred == y[split.test]).mean()))
        else:
            train_pred = (xtr @ bw + bb).argmax(axis=1)
            accs.append(float((train_pred == ytr).mean()))
    return ClassificationResult(accuracies=accs)


def _wcss(x: np.ndarray, centers: np.ndarray, assign: np.ndarray) -> float:
    return float(((x - centers[assign]) ** 2).sum())


def _plus_plus_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(x)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[c] = x[rng.integers(n)]
        else:
            centers[c] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((x - centers[c]) ** 2).sum(axis=1))
    return centers


def lloyd(x: np.ndarray, centers: np.ndarray, max_iter: int = 300):
    """Lloyd iterations until assignments stabilize.

    Empty clusters are re-seeded from the point farthest from its centroid.
    Returns (assignment, centers, per-iteration WCSS history).
    """
    centers = centers.copy()
    assign = None
    history = []
    for _ in range(max_iter):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        for c in range(len(centers)):
            members = new_assign == c
            if members.any():
                centers[c] = x[members].mean(axis=0)
            else:
                far = ((x - centers[new_assign]) ** 2).sum(axis=1).argmax()
                centers[c] = x[far]
                new_assign[far] = c
        history.append(_wcss(x, centers, new_assign))
        if assign is not None and np.array_equal(assign, new_assign):
            break
        assign = new_assign
    return assign, centers, history


def kmeans(embeddings, k: int, seed: int, restarts: int = 10,
           max_iter: int = 300) -> np.ndarray:
    """Best-of-restarts Lloyd's algorithm with k-means++ seeding."""
    x = _as_array(embeddings)
    n = len(x)
    if not 1 <= k <= n:
        raise ContractError(f"k must lie in [1, {n}], got {k}")
    if restarts < 1:
        raise ContractError(f"restarts must be >= 1, got {restarts}")
    rng = np.random.default_rng(seed)
    best_assign = None
    best_score = np.inf
    for _ in range(restarts):
        centers = _plus_plus_init(x, k, rng)
        assign, centers, history = lloyd(x, centers, max_iter)
        if history[-1] < best_score:
            best_score = history[-1]
            best_assign = assign
    return best_assign


def _contingency(pred, truth) -> np.ndarray:
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise ContractError(f"labelings differ in length: {pred.shape} vs {truth.shape}")
    kp = int(pred.max()) + 1
    kt = int(truth.max()) + 1
    table = np.zeros((kp, kt), dtype=np.int64)
    np.add.at(table, (pred, truth), 1)
    return table


def clustering_accuracy(pred, truth) -> float:
    """Maximum agreement over injective cluster-to-class mappings."""
    table = _contingency(pred, truth)
    side = max(table.shape)
    padded = np.zeros((side, side), dtype=np.int64)
    padded[:table.shape[0], :table.shape[1]] = table
    rows, cols = linear_sum_assignment(-padded)
    return float(padded[rows, cols].sum() / len(np.asarray(pred)))


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def nmi(pred, truth) -> float:
    """Mutual information normalized by the geometric mean of the entropies."""
    table = _contingency(pred, truth).astype(np.float64)
    n = table.sum()
    hp = _entropy(table.sum(axis=1))
    ht = _entropy(table.sum(axis=0))
    if hp == 0.0 and ht == 0.0:
        return 1.0
    if hp == 0.0 or ht == 0.0:
        return 0.0
    pij = table / n
    outer = np.outer(table.sum(axis=1), table.sum(axis=0)) / (n * n)
    nz = pij > 0
    mi = float((pij[nz] * np.log(pij[nz] / outer[nz])).sum())
    return mi / np.sqrt(hp * ht)


def ari(pred, truth) -> float:
    """Adjusted Rand index via the standard pair-counting formula."""
    table = _contingency(pred, truth).astype(np.float64)
    n = table.sum()

    def comb2(a):
        return a * (a - 1.0) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_a * sum_b / total if total > 0 else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def evaluate_clustering(embeddings, labels, k: int | None = None, seed: int = 0,
                        restarts: int = 10) -> ClusteringResult:
    y = np.asarray(labels, dtype=np.int64)
    if k is None:
        k = int(y.max()) + 1
    assign = kmeans(embeddings, k, seed=seed, restarts=restarts)
    return ClusteringResult(acc=clustering_accuracy(assign, y),
                            nmi=nmi(assign, y),
                            ari=ari(assign, y),
                            assignment=assign)
