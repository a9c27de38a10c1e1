"""Downstream evaluation: linear probe, k-means, and clustering agreement metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, check_range, non_integers, number_array
from .graph import Split
from .tensor import AdamState, Tensor, adam_step

_PROBE_LR = 0.01        # Adam step size of the linear probe
_LLOYD_MAX_ITER = 300   # Lloyd iterations per k-means restart
# the bound on an embedding entry's magnitude: each squared difference of two
# entries is then below 2**962, so no sum of squares over 2**62 rows overflows
_EMBED_BOUND = np.float64(2.0 ** 480)


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
    """Embeddings (a Tensor or an array) as an array; they must be 2-D, and
    each entry finite and under _EMBED_BOUND in magnitude, as standardizing
    and k-means square them and their differences."""
    a = x.data if isinstance(x, Tensor) else number_array("embeddings", x, 2)
    if not (np.abs(a) < _EMBED_BOUND).all():     # NaN fails
        raise ContractError("embeddings must be finite, each entry under 2**480 "
                            "in magnitude")
    return a


def _first_argmax(logits: np.ndarray, top: np.ndarray) -> np.ndarray:
    """`logits.argmax(axis=0)` from `top`, the max; numpy's argmax copies axis 0 last."""
    hit, pred = logits[0] == top, np.zeros(top.shape, dtype=np.int64)
    for row in logits[1:]:
        pred += ~hit
        hit |= row == top
    return pred


def linear_probe(embeddings, labels, splits: list[Split], epochs: int = 300,
                 seed: int = 0) -> ClassificationResult:
    """Multinomial logistic regression on frozen embeddings, one model per split.

    Trained with Adam on the train indices; the epoch with the best validation
    accuracy (else the last epoch) is scored on test (else on train). Test
    labels are read exactly once, at final scoring. The splits train as one
    model: row c*S + s of the weights is class c of split s, and Adam works
    element by element, so each split takes the steps it would take alone.
    The embeddings are standardized in float64; float32 embeddings are then
    probed in float32, any others in float64.
    """
    if not splits:
        raise ContractError("linear probe needs at least one split")
    check_range("epochs", epochs, 0, np.inf, integer=True)
    check_range("seed", seed, 0, np.inf, integer=True)
    emb = _as_array(embeddings)
    # the classes present, numbered 0..C-1 in order; labels that are
    # already 0..C-1 stay as they are
    classes, y = np.unique(_labeling(labels), return_inverse=True)
    if len(y) != len(emb):
        raise ContractError(f"{len(y)} labels for {len(emb)} embeddings")
    dtype = np.float32 if emb.dtype == np.float32 else np.float64
    x = emb.astype(np.float64)
    std = x.std(axis=0)
    x = ((x - x.mean(axis=0)) / np.where(std < 1e-12, 1.0, std)).astype(dtype, copy=False)
    n_classes, n_splits = len(classes), len(splits)
    y_train = np.full((n_splits, len(y)), -1)   # a split's labels, -1 off its rows
    y_val = y_train.copy()
    for i, split in enumerate(splits):
        for part in ("train", "val", "test"):
            rows = number_array(f"split {part}", getattr(split, part), 1)
            if rows.dtype.kind not in "iu" or ((rows < 0) | (rows >= len(y))).any():
                raise ContractError(f"split {part} must hold row indices in [0, {len(y)}), "
                                    f"got dtype {rows.dtype}")
        if len(np.unique(y[split.train])) < 2:
            raise ContractError("linear probe train set contains a single class")
        y_train[i, split.train] = y[split.train]
        y_val[i, split.val] = y[split.val]
    onehot = (y_train == np.arange(n_classes)[:, None, None]).astype(dtype)
    train = y_train >= 0   # the gradient divides by the train count, by inf off train
    n_train = np.where(train, train.sum(axis=1, keepdims=True), np.inf).astype(dtype)
    keep_last = (y_val < 0).all(axis=1)
    w = np.random.default_rng(seed).normal(0.0, 0.01, size=(x.shape[1], n_classes))
    params = {"w": np.repeat(w.T, n_splits, axis=0).astype(dtype),
              "b": np.zeros((n_classes * n_splits, 1), dtype)}
    best = {name: p.copy() for name, p in params.items()}
    best_correct, state = np.full(n_splits, -1), AdamState()
    logits = np.empty((n_classes * n_splits, len(y)), dtype)
    scores = logits.reshape(n_classes, n_splits, -1)   # (C, S, N) view of logits
    top = np.empty(scores.shape[1:], dtype)
    grad_w = np.empty_like(params["w"])
    x_t = np.ascontiguousarray(x.T)   # a contiguous right factor multiplies faster

    def score(p):
        np.add(np.matmul(p["w"], x_t, out=logits), p["b"], out=logits)
        return scores

    for epoch in range(epochs + 1):
        # one product scores the last step's weights and takes the next step
        np.max(score(params), axis=0, out=top)
        if epoch > 0:
            correct = (_first_argmax(scores, top) == y_val).sum(axis=1)
            better = (correct > best_correct) | keep_last
            best_correct = np.where(better, correct, best_correct)
            take = np.tile(better, n_classes)[:, None]
            best = {name: np.where(take, p, best[name]) for name, p in params.items()}
        if epoch == epochs:
            break
        scores -= top   # the logits become the softmax gradient in place
        np.exp(logits, out=logits)
        scores /= np.sum(scores, axis=0, out=top)
        scores -= onehot
        scores /= n_train
        adam_step(params, {"w": np.matmul(logits, x, out=grad_w),
                           "b": logits.sum(axis=1, keepdims=True)}, state, _PROBE_LR)
    scored = [split.test if len(split.test) > 0 else split.train for split in splits]
    pred = score(best).argmax(axis=0)
    return ClassificationResult(
        accuracies=[float((p[rows] == y[rows]).mean()) for p, rows in zip(pred, scored)])


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


def _update_reseeding(x: np.ndarray, centers: np.ndarray, assign: np.ndarray):
    """Update one restart's `centers` and `assign` in place, cluster by cluster:
    an empty cluster takes the point farthest from its centroid so far."""
    for c in range(len(centers)):
        members = assign == c
        if members.any():
            centers[c] = x[members].mean(axis=0)
        else:
            far = ((x - centers[assign]) ** 2).sum(axis=1).argmax()
            centers[c] = x[far]
            assign[far] = c


def lloyd(x: np.ndarray, centers: np.ndarray):
    """Lloyd iterations for R restarts at once, each until its assignment stabilizes.

    `centers` is (R, k, F). An iteration takes one product of `x` with the
    centres of every restart still running, and assigns each point to the
    centre of least |c|^2 - 2 x.c (|x|^2 is the same for all of a point's
    centres); one more product sums each cluster's members. A restart with
    an empty cluster is updated by `_update_reseeding` instead.
    Returns (assignment (R, N), centers (R, k, F), final WCSS (R,)).
    """
    centers = centers.copy()
    k, f = centers.shape[1:]
    assign = np.zeros((len(centers), len(x)), dtype=np.int64)
    running = np.arange(len(centers))
    for it in range(_LLOYD_MAX_ITER):
        old = centers[running]
        flat = old.reshape(-1, f)
        d2 = flat @ x.T
        d2 *= -2.0
        d2 += np.einsum("ij,ij->i", flat, flat)[:, None]
        new = d2.reshape(len(running), k, -1).argmin(axis=1)   # (a, N)
        member = new[:, None, :] == np.arange(k)[:, None]       # (a, k, N)
        counts = member.sum(axis=2)
        sums = member.reshape(len(flat), -1).astype(np.float64) @ x
        fresh = sums.reshape(old.shape) / np.maximum(counts, 1)[..., None]
        for r in np.flatnonzero((counts == 0).any(axis=1)):
            _update_reseeding(x, old[r], new[r])
            fresh[r] = old[r]
        done = (new == assign[running]).all(axis=1) & (it > 0)
        centers[running] = fresh
        assign[running] = new
        running = running[~done]
        if len(running) == 0:
            break
    # one mean per cluster, so that a partition's WCSS has the same bits
    # whatever its labels, and equal partitions tie
    for c, a in zip(centers, assign):
        for j in np.unique(a):
            c[j] = x[a == j].mean(axis=0)
    return assign, centers, np.array([_wcss(x, c, a) for c, a in zip(centers, assign)])


def kmeans(embeddings, k: int, seed: int, restarts: int = 10) -> np.ndarray:
    """Best-of-restarts Lloyd's algorithm with k-means++ seeding.

    Every restart's seeding is drawn first, in restart order; then all the
    restarts run as one batched `lloyd`, and the first of least WCSS wins.
    """
    x = _as_array(embeddings).astype(np.float64)
    n = len(x)
    check_range("k", k, 1, n, integer=True, hi_open=False)
    check_range("restarts", restarts, 1, np.inf, integer=True)
    check_range("seed", seed, 0, np.inf, integer=True)
    rng = np.random.default_rng(seed)
    starts = np.stack([_plus_plus_init(x, k, rng) for _ in range(restarts)])
    assign, _, wcss = lloyd(x, starts)
    return assign[np.argmin(wcss)]


def _labeling(y) -> np.ndarray:
    """`y` as int64 labels: a non-empty 1-D array of integer values >= 0."""
    y = number_array("a labeling", y, 1)
    if not (y.size and y.dtype.kind in "iuf"
            and not non_integers(y).any() and (y >= 0).all()):
        raise ContractError("a labeling must be a non-empty 1-D array of integers "
                            f">= 0, got shape {y.shape}, dtype {y.dtype}")
    return y.astype(np.int64)


def _contingency(pred, truth) -> np.ndarray:
    """Counts of each (cluster, class) pair present, the labels of each
    labeling numbered 0..K-1 in order; ACC, NMI and ARI read only its
    nonzero counts."""
    pred, truth = _labeling(pred), _labeling(truth)
    if pred.shape != truth.shape:
        raise ContractError(f"labelings differ in length: {pred.shape} vs {truth.shape}")
    pred = np.unique(pred, return_inverse=True)[1]
    truth = np.unique(truth, return_inverse=True)[1]
    table = np.zeros((pred.max() + 1, truth.max() + 1), dtype=np.int64)
    np.add.at(table, (pred, truth), 1)
    return table


def clustering_accuracy(pred, truth) -> float:
    """Maximum agreement over injective cluster-to-class mappings."""
    # imported here: scipy.optimize adds about 27 MB to every process that
    # loads it, and nothing else in the library uses it
    from scipy.optimize import linear_sum_assignment

    table = _contingency(pred, truth)
    rows, cols = linear_sum_assignment(-table)
    return float(table[rows, cols].sum() / len(np.asarray(pred)))


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


def evaluate_clustering(embeddings, labels, seed: int = 0,
                        restarts: int = 10) -> ClusteringResult:
    """k-means with k the number of classes in `labels`, scored against them;
    one label per embedding row is checked before k-means runs."""
    x, y = _as_array(embeddings), _labeling(labels)
    if len(y) != len(x):
        raise ContractError(f"{len(y)} labels for {len(x)} embedding rows")
    assign = kmeans(x, len(np.unique(y)), seed=seed, restarts=restarts)
    return ClusteringResult(acc=clustering_accuracy(assign, y),
                            nmi=nmi(assign, y),
                            ari=ari(assign, y),
                            assignment=assign)
