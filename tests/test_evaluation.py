import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nodefuse import (Split, ari, clustering_accuracy, evaluate_clustering,
                      kmeans, linear_probe, nmi)
from nodefuse import evaluation
from nodefuse.errors import ContractError
from nodefuse.evaluation import _first_argmax, _plus_plus_init, lloyd
from nodefuse.tensor import AdamState, adam_step


def blobs(rng, k=3, per=30, f=4, spread=0.05):
    centers = 10.0 * rng.normal(size=(k, f))
    x = np.concatenate([c + spread * rng.normal(size=(per, f)) for c in centers])
    y = np.repeat(np.arange(k), per)
    perm = rng.permutation(len(y))
    return x[perm], y[perm]


def even_split(n, seed):
    rng = np.random.default_rng(seed)
    idx = rng.permutation(n)
    a, b = int(0.5 * n), int(0.75 * n)
    return Split(train=idx[:a], val=idx[a:b], test=idx[b:], seed=seed)


class TestLinearProbe:
    def test_separable_blobs_perfect(self):
        rng = np.random.default_rng(0)
        x, y = blobs(rng)
        splits = [even_split(len(y), s) for s in range(3)]
        res = linear_probe(x, y, splits)
        assert res.mean == 1.0
        assert res.std == 0.0

    def test_shuffled_labels_near_chance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1000, 6))
        y = rng.integers(0, 5, size=1000)
        splits = [even_split(1000, s) for s in range(3)]
        res = linear_probe(x, y, splits, epochs=100)
        assert 0.14 <= res.mean <= 0.26

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        x, y = blobs(rng, spread=2.0)
        splits = [even_split(len(y), 7)]
        a = linear_probe(x, y, splits)
        b = linear_probe(x, y, splits)
        assert a.accuracies == b.accuracies

    def test_single_class_train_rejected(self):
        x = np.random.default_rng(3).normal(size=(10, 4))
        y = np.array([0] * 5 + [1] * 5)
        s = Split(train=np.arange(5), val=np.array([5, 6]),
                  test=np.array([7, 8, 9]), seed=0)
        with pytest.raises(ContractError):
            linear_probe(x, y, [s])

    def test_no_splits_rejected(self):
        x = np.random.default_rng(3).normal(size=(10, 4))
        with pytest.raises(ContractError, match="split"):
            linear_probe(x, np.arange(10) % 2, [])

    @pytest.mark.parametrize("arg, value", [
        ("seed", -1), ("seed", 1.5), ("seed", True),
        ("epochs", -1), ("epochs", 2.5), ("epochs", True)])
    def test_bad_seed_or_epochs_rejected(self, arg, value):
        # unchecked, numpy raises its own errors for such seeds, and
        # epochs=-1 scores the untrained probe
        x, y = blobs(np.random.default_rng(3), k=2, per=10)
        kwargs = {"epochs": 2, "seed": 0, arg: value}
        with pytest.raises(ContractError, match=arg):
            linear_probe(x, y, [even_split(len(y), 0)], **kwargs)
        linear_probe(x, y, [even_split(len(y), 0)], **{**kwargs, arg: np.int64(0)})

    @pytest.mark.parametrize("case", [
        "short_labels", "negative_label", "float_label", "1-d", "nan", "inf"])
    def test_malformed_input_rejected(self, case):
        # unchecked: IndexError, ValueError, a truncated label, IndexError,
        # and accuracies from NaN logits
        x, y = blobs(np.random.default_rng(4), k=2, per=10)
        x, y = x.copy(), y.astype(np.float64)
        if case == "short_labels":
            y = y[:-1]
        elif case == "negative_label":
            y[3] = -1
        elif case == "float_label":
            y[3] = 0.5
        elif case == "1-d":
            x = x[:, 0]
        else:
            x[2, 1] = np.nan if case == "nan" else np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="labels|labeling|embeddings"):
                linear_probe(x, y, [even_split(20, 0)], epochs=2)


def reference_linear_probe(x, y, splits, lr=0.01, epochs=300, seed=0):
    """One logistic regression per split, trained one after another, over
    the classes present, numbered 0..C-1 in order.

    Standardizes in float64, then trains in float32 for float32 input and in
    float64 for any other."""
    x = np.asarray(x)
    dtype = np.float32 if x.dtype == np.float32 else np.float64
    x = x.astype(np.float64)
    y = np.unique(np.asarray(y, dtype=np.int64), return_inverse=True)[1]
    std = x.std(axis=0)
    x = ((x - x.mean(axis=0)) / np.where(std < 1e-12, 1.0, std)).astype(dtype)
    n_classes = int(y.max()) + 1
    accs = []
    for split in splits:
        ytr = y[split.train]
        if len(np.unique(ytr)) < 2:
            raise ContractError("linear probe train set contains a single class")
        rng = np.random.default_rng(seed)
        xtr = x[split.train]
        onehot = np.eye(n_classes, dtype=dtype)[ytr]
        w = rng.normal(0.0, 0.01, size=(x.shape[1], n_classes)).astype(dtype)
        b = np.zeros((1, n_classes), dtype)
        state = AdamState()
        best_val, best = -1.0, (w.copy(), b.copy())
        xval, yval = x[split.val], y[split.val]
        for _ in range(epochs):
            logits = xtr @ w + b
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            diff = (e / e.sum(axis=1, keepdims=True) - onehot) / len(xtr)
            adam_step({"w": w, "b": b},
                      {"w": xtr.T @ diff, "b": diff.sum(axis=0, keepdims=True)},
                      state, lr)
            if len(split.val) > 0:
                val_acc = float(((xval @ w + b).argmax(axis=1) == yval).mean())
                if val_acc > best_val:
                    best_val, best = val_acc, (w.copy(), b.copy())
        bw, bb = best if len(split.val) > 0 else (w, b)
        rows = split.test if len(split.test) > 0 else split.train
        accs.append(float(((x[rows] @ bw + bb).argmax(axis=1) == y[rows]).mean()))
    return accs


def first_gradients(x, y, splits, seed):
    """Each split's first weight and bias gradients, in float64."""
    x = np.asarray(x, dtype=np.float64)
    std = x.std(axis=0)
    x = (x - x.mean(axis=0)) / np.where(std < 1e-12, 1.0, std)
    n_classes = int(y.max()) + 1
    w = np.random.default_rng(seed).normal(0.0, 0.01, size=(x.shape[1], n_classes))
    for split in splits:
        logits = x[split.train] @ w
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        diff = (e / e.sum(axis=1, keepdims=True) - np.eye(n_classes)[y[split.train]])
        diff /= len(split.train)
        yield x[split.train].T @ diff
        yield diff.sum(axis=0)


@st.composite
def probe_cases(draw):
    """(x, y, splits, epochs, seed): 1-4 splits of their own sizes, each part
    possibly empty except train, over Gaussian features."""
    n = draw(st.integers(4, 40))
    f = draw(st.integers(1, 8))
    n_classes = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, f)) * draw(st.sampled_from([0.01, 1.0, 100.0]))
    y = rng.integers(0, n_classes, size=n)
    splits = []
    for k in range(draw(st.integers(1, 4))):
        n_train = draw(st.integers(2, n))
        n_val = draw(st.integers(0, n - n_train))
        n_test = draw(st.integers(0, n - n_train - n_val))
        perm = rng.permutation(n)
        splits.append(Split(train=perm[:n_train], val=perm[n_train:n_train + n_val],
                            test=perm[n_train + n_val:n_train + n_val + n_test], seed=k))
    return x, y, splits, draw(st.sampled_from([0, 1, 7, 300])), draw(st.integers(0, 9))


class TestLinearProbeMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(probe_cases())
    @example((np.arange(12.0).reshape(6, 2) % 5, np.array([0, 1, 2, 0, 1, 2]),
              [Split(train=np.arange(4), val=np.array([], dtype=np.int64),
                     test=np.array([4, 5]), seed=0),
               Split(train=np.array([1, 2, 3, 4, 5]), val=np.array([0]),
                     test=np.array([], dtype=np.int64), seed=1)], 300, 0))
    def test_accuracies_equal_per_split_loop(self, case):
        x, y, splits, epochs, seed = case
        try:
            expected = reference_linear_probe(x, y, splits, epochs=epochs, seed=seed)
        except ContractError:
            with pytest.raises(ContractError):
                linear_probe(x, y, splits, epochs=epochs, seed=seed)
            return
        got = linear_probe(x, y, splits, epochs=epochs, seed=seed)
        assert got.accuracies == expected

    @settings(max_examples=150, deadline=None)
    @given(probe_cases())
    def test_float32_accuracies_equal_per_split_loop(self, case):
        x, y, splits, epochs, seed = case
        x = x.astype(np.float32)
        try:
            expected = reference_linear_probe(x, y, splits, epochs=epochs, seed=seed)
        except ContractError:
            return   # the float64 test covers the rejection
        # Adam's first step, g / (|g| + 1e-8), moves a weight by the full step
        # size whatever |g| is. A gradient that is zero but for float32
        # rounding (two balanced classes over every standardized row) then
        # steps either way, by the order of its sum, so no exact answer exists.
        assume(all(np.all((g == 0) | (np.abs(g) > 1e3 * np.finfo(np.float32).eps))
                   for g in first_gradients(x, y, splits, seed)))
        assert linear_probe(x, y, splits, epochs=epochs, seed=seed).accuracies == expected

    def test_first_argmax_breaks_ties_as_argmax(self):
        logits = np.random.default_rng(12).integers(0, 3, size=(4, 5, 30)).astype(float)
        assert np.array_equal(_first_argmax(logits, logits.max(axis=0)),
                              logits.argmax(axis=0))


def reference_lloyd(x, centers):
    """Lloyd iterations for one restart, one cluster at a time.

    Empty clusters are re-seeded from the point farthest from its centroid.
    Returns (assignment, centers, per-iteration WCSS history).
    """
    centers = centers.copy()
    assign = None
    history = []
    for _ in range(300):
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
        history.append(float(((x - centers[new_assign]) ** 2).sum()))
        if assign is not None and np.array_equal(assign, new_assign):
            break
        assign = new_assign
    return assign, centers, history


def reference_kmeans(x, k, seed, restarts=10):
    """Best-of-restarts k-means, each restart seeded and run in turn."""
    rng = np.random.default_rng(seed)
    best_assign, best_score = None, np.inf
    for _ in range(restarts):
        assign, _, history = reference_lloyd(x, _plus_plus_init(x, k, rng))
        if history[-1] < best_score:
            best_score, best_assign = history[-1], assign
    return best_assign


@st.composite
def kmeans_cases(draw):
    """(x, k, seed, restarts, separated): Gaussian points, or well-separated blobs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = draw(st.integers(1, 6))
    separated = draw(st.booleans())
    if separated:
        k = draw(st.integers(1, 5))
        x, _ = blobs(rng, k=k, per=draw(st.integers(1, 8)), f=f)
    else:
        n = draw(st.integers(1, 40))
        k = draw(st.integers(1, min(n, 6)))
        x = (draw(st.sampled_from([0.0, 100.0]))
             + rng.normal(size=(n, f)) * draw(st.sampled_from([0.01, 1.0, 100.0])))
    return x, k, draw(st.integers(0, 9)), draw(st.integers(1, 4)), separated


class TestKmeansMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(kmeans_cases())
    def test_batched_restarts_match_one_by_one(self, case):
        x, k, seed, restarts, separated = case
        rng = np.random.default_rng(seed)
        starts = np.stack([_plus_plus_init(x, k, rng) for _ in range(restarts)])
        assign, _, wcss = lloyd(x, starts)
        for r, start in enumerate(starts):
            ref_assign, _, history = reference_lloyd(x, start)
            assert wcss[r] == pytest.approx(history[-1], rel=1e-9)
            if separated:
                assert np.array_equal(assign[r], ref_assign)
        if separated:
            assert np.array_equal(kmeans(x, k, seed, restarts),
                                  reference_kmeans(x, k, seed, restarts))

    def test_empty_cluster_reseeded_as_reference(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(30, 2))
        starts = x[[[0, 0, 5], [3, 7, 7]]]   # a duplicated centre owns no point
        assign, centers, wcss = lloyd(x, starts)
        for r, start in enumerate(starts):
            ref_assign, ref_centers, history = reference_lloyd(x, start)
            assert np.array_equal(assign[r], ref_assign)
            assert np.allclose(centers[r], ref_centers, rtol=1e-12, atol=1e-12)
            assert wcss[r] == pytest.approx(history[-1], rel=1e-9)
            assert len(np.unique(assign[r])) == 3

    def test_single_restart(self):
        x, _ = blobs(np.random.default_rng(15), k=4, per=10, spread=2.0)
        assert np.array_equal(kmeans(x, 4, seed=3, restarts=1),
                              reference_kmeans(x, 4, seed=3, restarts=1))

    def test_k_equals_n(self):
        x = np.random.default_rng(16).normal(size=(9, 3))
        got = kmeans(x, 9, seed=2, restarts=3)
        assert np.array_equal(got, reference_kmeans(x, 9, seed=2, restarts=3))
        assert sorted(got) == list(range(9))


class TestKmeans:
    def test_separable_blobs_recovered(self):
        rng = np.random.default_rng(4)
        x, y = blobs(rng)
        assign = kmeans(x, 3, seed=0)
        assert clustering_accuracy(assign, y) == 1.0

    def test_k_equals_n_zero_wcss(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 3))
        assign, centers, wcss = lloyd(x, x[None])
        assert wcss[0] == 0.0
        assert sorted(assign[0]) == list(range(8))

    def test_lloyd_wcss_monotone(self):
        # WCSS does not rise from the starting centres' partition, and the
        # centres returned are a fixed point of another run
        rng = np.random.default_rng(6)
        x = rng.normal(size=(60, 4))
        starts = np.stack([x[rng.choice(60, size=4, replace=False)] for _ in range(3)])
        assign, centers, wcss = lloyd(x, starts)
        for start, score in zip(starts, wcss):
            first = ((x[:, None, :] - start) ** 2).sum(axis=2).min(axis=1).sum()
            assert score <= first + 1e-9
        again, _, wcss_again = lloyd(x, centers)
        assert np.array_equal(again, assign)
        assert np.allclose(wcss_again, wcss, rtol=1e-12)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(50, 3))
        a = kmeans(x, 4, seed=11)
        b = kmeans(x, 4, seed=11)
        assert np.array_equal(a, b)

    def test_bad_k_rejected(self):
        x = np.zeros((5, 2))
        with pytest.raises(ContractError):
            kmeans(x, 6, seed=0)
        with pytest.raises(ContractError):
            kmeans(x, 0, seed=0)

    @pytest.mark.parametrize("arg", ["k", "restarts"])
    def test_non_integer_count_rejected(self, arg):
        x = np.random.default_rng(0).normal(size=(5, 2))
        kwargs = {"k": 2, "restarts": 2, arg: 2.5}
        with pytest.raises(ContractError, match=arg):
            kmeans(x, seed=0, **kwargs)
        kmeans(x, seed=0, **{**kwargs, arg: np.int64(2)})

    @pytest.mark.parametrize("seed", [-1, 1.5, True, float("nan")])
    def test_bad_seed_rejected(self, seed):
        x = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(ContractError, match="seed"):
            kmeans(x, 2, seed=seed)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "1-d"])
    @pytest.mark.parametrize("fn", ["kmeans", "evaluate_clustering"])
    def test_non_finite_or_1d_embeddings_rejected(self, fn, bad):
        # unchecked: "Probabilities contain NaN" after a RuntimeWarning
        x, y = blobs(np.random.default_rng(5), k=2, per=10)
        if bad == "1-d":
            x = x[:, 0]
        else:
            x[4, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="embeddings"):
                if fn == "kmeans":
                    kmeans(x, 2, seed=0)
                else:
                    evaluate_clustering(x, y, seed=0)


class TestClusteringAccuracy:
    def test_permutation_invariant(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([2, 2, 0, 0, 1, 1])
        assert clustering_accuracy(pred, truth) == 1.0

    def test_half_agreement(self):
        assert clustering_accuracy([0, 0, 1, 1], [0, 1, 0, 1]) == 0.5

    def test_matches_brute_force_over_mappings(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            pred = rng.integers(0, 3, size=12)
            truth = rng.integers(0, 3, size=12)
            best = max(
                sum(int(m[p] == t) for p, t in zip(pred, truth))
                for m in itertools.permutations(range(3))
            ) / 12
            assert abs(clustering_accuracy(pred, truth) - best) < 1e-12

    def test_single_cluster_at_least_majority(self):
        rng = np.random.default_rng(9)
        truth = rng.integers(0, 4, size=100)
        pred = np.zeros(100, dtype=int)
        majority = np.bincount(truth).max() / 100
        assert clustering_accuracy(pred, truth) >= majority - 1e-12

    def test_only_clustering_loads_scipy_optimize(self):
        # the Hungarian step's import adds about 27 MB to a process, so
        # importing the library and the CLI must not load it
        src = Path(clustering_accuracy.__code__.co_filename).parents[1]
        code = ("import sys, nodefuse, nodefuse.cli; "
                "print('scipy.optimize' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.stdout == "False\n", proc.stderr


class TestAgreementMetrics:
    def test_identity_labelings(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        assert nmi(y, y) == pytest.approx(1.0)
        assert ari(y, y) == pytest.approx(1.0)

    def test_relabel_invariance(self):
        truth = np.array([0, 0, 1, 1, 2, 2, 0, 1])
        pred = np.array([1, 1, 2, 2, 0, 0, 1, 2])
        assert nmi(pred, truth) == pytest.approx(1.0)
        assert ari(pred, truth) == pytest.approx(1.0)

    def test_hand_counted_pair_case(self):
        # contingency [[2,1,0],[0,1,2]]: sum_ij=2, a=(C(3,2)*2)=6, b=3, total=15
        pred = np.array([0, 0, 0, 1, 1, 1])
        truth = np.array([0, 0, 1, 1, 2, 2])
        expected = 6.0 * 3.0 / 15.0
        got = ari(pred, truth)
        assert got == pytest.approx((2.0 - expected) / (0.5 * (6 + 3) - expected))

    def test_null_model_near_zero_ari(self):
        rng = np.random.default_rng(10)
        pred = rng.integers(0, 5, size=2000)
        truth = rng.integers(0, 5, size=2000)
        assert abs(ari(pred, truth)) < 0.05
        assert nmi(pred, truth) < 0.05

    def test_constant_labeling_conventions(self):
        const = np.zeros(6, dtype=int)
        varied = np.array([0, 1, 2, 0, 1, 2])
        assert nmi(const, const) == 1.0
        assert nmi(const, varied) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            nmi([0, 1], [0, 1, 2])

    @pytest.mark.parametrize("metric", [clustering_accuracy, nmi, ari])
    @pytest.mark.parametrize("pred, truth", [
        ([], []),                           # empty: a zero-size reduction
        ([-1, 0, 1], [0, 1, 1]),            # -1 would index the last row
        ([0.5, 1.5, 2.5], [0, 1, 2]),       # truncated, it would score 1.0
        ([0, np.nan, 1], [0, 1, 1]),
        ([0, np.inf, 1], [0, 1, 1]),
        ([[0, 1]], [[0, 1]]),
        ([True, False], [1, 0]),
    ], ids=["empty", "negative", "fractional", "nan", "inf", "2-d", "bool"])
    def test_malformed_labeling_rejected(self, metric, pred, truth):
        for a, b in ((pred, truth), (truth, pred)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ContractError, match="labeling"):
                    metric(a, b)

    def test_integer_valued_floats_accepted(self):
        assert clustering_accuracy([0.0, 1.0, 1.0], np.array([1, 0, 0], np.uint8)) == 1.0


@pytest.mark.parametrize("n_labels", [4, 6])
def test_evaluate_clustering_checks_lengths_before_kmeans(monkeypatch, n_labels):
    def failing_kmeans(*args, **kwargs):
        pytest.fail("k-means ran before the length check")

    monkeypatch.setattr(evaluation, "kmeans", failing_kmeans)
    x = np.random.default_rng(12).normal(size=(5, 3))
    with pytest.raises(ContractError, match=f"{n_labels} labels for 5"):
        evaluate_clustering(x, np.arange(n_labels) % 2)


def test_evaluate_clustering_end_to_end():
    rng = np.random.default_rng(11)
    x, y = blobs(rng, k=4, per=20)
    res = evaluate_clustering(x, y, seed=0)
    assert res.acc == 1.0
    assert res.nmi == pytest.approx(1.0)
    assert res.ari == pytest.approx(1.0)
    assert len(res.assignment) == len(y)


def test_entries_bounded_before_any_square_is_summed():
    # every row norm squares to about 1.4e308, finite; the column sums overflow
    x = np.array([[1.2e154], [-1.2e154], [1.2e154], [-1.2e154], [1.0], [2.0]])
    y = np.array([0, 1, 0, 1, 0, 1])
    split = Split(train=np.arange(4), val=np.array([4]), test=np.array([5]), seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: linear_probe(x, y, [split], epochs=2),
                     lambda: evaluate_clustering(x, y, restarts=2),
                     lambda: kmeans(x, 2, seed=0, restarts=2)):
            with pytest.raises(ContractError, match="2\\*\\*480"):
                call()
        kmeans(np.array([[2.0 ** 479], [-2.0 ** 479], [1.0]]), 2, seed=0, restarts=2)


class TestLabelsPresent:
    """Evaluation sizes its tables by the labels present, not the largest one."""

    def test_probe_on_relabeled_classes_keeps_its_bits(self):
        x, y = blobs(np.random.default_rng(13), k=3, per=10)
        splits = [even_split(len(y), s) for s in range(2)]
        ref = linear_probe(x, y, splits, epochs=5).accuracies
        far = np.array([2, 10 ** 6, 10 ** 9])[y]    # the same order of classes
        assert linear_probe(x, far, splits, epochs=5).accuracies == ref

    def test_metrics_on_relabeled_classes_keep_their_bits(self):
        rng = np.random.default_rng(14)
        pred, truth = rng.integers(0, 4, size=50), rng.integers(0, 3, size=50)
        far_pred = np.array([0, 7, 10 ** 8, 10 ** 9])[pred]
        far_truth = np.array([5, 10 ** 8, 3 * 10 ** 8])[truth]
        for metric in (clustering_accuracy, nmi, ari):
            assert metric(far_pred, far_truth) == metric(pred, truth)

    def test_clustering_takes_k_from_the_classes_present(self, monkeypatch):
        ks = []
        monkeypatch.setattr(evaluation, "kmeans",
                            lambda x, k, **kw: ks.append(k) or np.arange(len(x)) % k)
        x = np.random.default_rng(15).normal(size=(6, 2))
        evaluate_clustering(x, [0, 4, 4, 10 ** 9, 0, 4])
        assert ks == [3]
