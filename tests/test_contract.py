"""The public API's contract under malformed input: a call on a malformed
array, number or graph raises a NodefuseError or returns, and never warns."""

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nodefuse as nf
from nodefuse.errors import NodefuseError
from nodefuse.graph import normalized_adjacency_sparse

N, F = 6, 4
_rng = np.random.default_rng(0)
X = _rng.normal(size=(N, F))                 # features, embeddings
Z = _rng.normal(size=(N, 3))                 # encodings
A = Z[:, :2].copy()                          # projector inputs h @ proj_w1, as project takes them
LAM = _rng.uniform(0.1, 0.9, size=(N, 1))
Y = np.array([0, 1, 2, 0, 1, 2])
EDGES = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]])
DEGREE = np.full(N, 2)
RATIO = np.array([0.5, 0.25, 0.25])
SPLIT = nf.Split(train=np.arange(4), val=np.array([4]), test=np.array([5]), seed=0)
DIMS = nf.ModelDims(f_in=F, f_embed=3, f_proj=2, f_filter=2)
G = nf.build_graph(N, EDGES, X, Y, n_classes=3)
ONE_NODE = nf.build_graph(1, [], X[:1], [0], n_classes=1)
ADJ = normalized_adjacency_sparse(G)
SMALL = nf.TrainConfig(epochs=2, dims=(3, 2, 2), patience=None)


def _params():
    return nf.init_params(np.random.default_rng(1), DIMS)


def _t(a):
    return nf.Tensor(a)


def _rng_():
    return np.random.default_rng(2)


# name: (valid value, call on a possibly malformed value)
ARRAYS = {
    "Tensor": (X, _t),
    "view_loss.z": (Z, lambda a: nf.view_loss(_t(a), _t(Z[::-1].copy()), 0.5)),
    "project": (A, lambda a: nf.project(_params(), _t(a))),
    "fuse.h_s": (Z, lambda a: nf.fuse(_t(a), _t(Z), _t(LAM))),
    "fuse.lam": (LAM, lambda a: nf.fuse(_t(Z), _t(Z), _t(a))),
    "encode_semantic": (X, lambda a: nf.encode_semantic(_params(), _t(a))),
    "encode_contextual": (X, lambda a: nf.encode_contextual(_params(), _t(a), ADJ)),
    "controller_lambda.h_s": (Z, lambda a: nf.controller_lambda(_params(), _t(a), _t(Z),
                                                                DEGREE)),
    "controller_lambda.degree": (DEGREE, lambda a: nf.controller_lambda(_params(), _t(Z),
                                                                        _t(Z), a)),
    "controller_loss.lam": (LAM, lambda a: nf.controller_loss(_t(a), _t(Z), _t(Z),
                                                              nf.ControllerConfig())),
    "contrast_loss": (A, lambda a: nf.contrast_loss(((_t(a), _t(A)),) * 3, _params(),
                                                    nf.ContrastConfig())),
    "mask_features": (X, lambda a: nf.mask_features(a, 0.3, _rng_())),
    "ntxent_pair_loss.z": (Z, lambda a: nf.ntxent_pair_loss(a, Z, 0, 0.5)),
    "ntxent_pair_loss.z_aug": (Z, lambda a: nf.ntxent_pair_loss(Z, a, 0, 0.5)),
    "linear_probe.embeddings": (X, lambda a: nf.linear_probe(a, Y, [SPLIT], epochs=2)),
    "linear_probe.labels": (Y, lambda a: nf.linear_probe(X, a, [SPLIT], epochs=2)),
    "linear_probe.split": (SPLIT.train, lambda a: nf.linear_probe(
        X, Y, [nf.Split(train=a, val=SPLIT.val, test=SPLIT.test, seed=0)], epochs=2)),
    "kmeans": (X, lambda a: nf.kmeans(a, 2, seed=0, restarts=2)),
    "evaluate_clustering.embeddings": (X, lambda a: nf.evaluate_clustering(a, Y, restarts=2)),
    "evaluate_clustering.labels": (Y, lambda a: nf.evaluate_clustering(X, a, restarts=2)),
    "clustering_accuracy": (Y, lambda a: nf.clustering_accuracy(a, Y)),
    "nmi": (Y, lambda a: nf.nmi(Y, a)),
    "ari": (Y, lambda a: nf.ari(a, Y)),
    "build_graph.edges": (EDGES, lambda a: nf.build_graph(N, a, X, Y, 3)),
    "build_graph.features": (X, lambda a: nf.build_graph(N, EDGES, a, Y, 3)),
    "build_graph.labels": (Y, lambda a: nf.build_graph(N, EDGES, X, a, 3)),
    "make_splits.ratio": (RATIO, lambda a: nf.make_splits(G, a, 1, seed=0)),
}

# name: call on a possibly malformed number
NUMBERS = {
    "view_loss.tau": lambda v: nf.view_loss(_t(Z), _t(Z[::-1].copy()), v),
    "ntxent_pair_loss.i": lambda v: nf.ntxent_pair_loss(Z, Z[::-1], v, 0.5),
    "ntxent_pair_loss.tau": lambda v: nf.ntxent_pair_loss(Z, Z[::-1], 0, v),
    "mask_features.p_s": lambda v: nf.mask_features(X, v, _rng_()),
    "drop_edges.p_c": lambda v: nf.drop_edges(G, v, _rng_()),
    "kmeans.k": lambda v: nf.kmeans(X, v, seed=0, restarts=2),
    "kmeans.seed": lambda v: nf.kmeans(X, 2, seed=v, restarts=2),
    "kmeans.restarts": lambda v: nf.kmeans(X, 2, seed=0, restarts=v),
    "linear_probe.epochs": lambda v: nf.linear_probe(X, Y, [SPLIT], epochs=v),
    "linear_probe.seed": lambda v: nf.linear_probe(X, Y, [SPLIT], epochs=2, seed=v),
    "make_splits.n_splits": lambda v: nf.make_splits(G, RATIO, v, seed=0),
    "make_splits.seed": lambda v: nf.make_splits(G, RATIO, 1, seed=v),
    "build_graph.n_nodes": lambda v: nf.build_graph(v, EDGES, X, Y, 3),
    "build_graph.n_classes": lambda v: nf.build_graph(N, EDGES, X, Y, v),
    "adam_step.lr": lambda v: nf.adam_step({"w": X.copy()}, {"w": X}, nf.AdamState(), v),
    "embed.fixed_lambda": lambda v: nf.embed(G, _params(), fixed_lambda=v),
    "init_params.f_embed": lambda v: nf.init_params(_rng_(), nf.ModelDims(F, v, 2, 2)),
    "init_params.f_filter": lambda v: nf.init_params(_rng_(), nf.ModelDims(F, 3, 2, v)),
    "ContrastConfig.tau": lambda v: nf.ContrastConfig(tau=v),
    "ContrastConfig.beta1": lambda v: nf.ContrastConfig(beta1=v),
    "ContrastConfig.include_semantic": lambda v: nf.ContrastConfig(include_semantic=v),
    "ControllerConfig.epsilon": lambda v: nf.ControllerConfig(epsilon=v),
    "AugmentConfig.p_c": lambda v: nf.AugmentConfig(p_c=v),
    "TrainConfig.lr": lambda v: nf.TrainConfig(lr=v),
    "TrainConfig.epochs": lambda v: nf.TrainConfig(epochs=v),
    "TrainConfig.dropout": lambda v: nf.TrainConfig(dropout=v),
    "TrainConfig.fixed_lambda": lambda v: nf.TrainConfig(fixed_lambda=v),
}

# name: call on a graph; each is drawn with the valid graph or a 1-node one
GRAPHS = {
    "train": lambda g: nf.train(g, SMALL),
    "embed": lambda g: nf.embed(g, _params()),
    "drop_edges": lambda g: nf.drop_edges(g, 0.3, _rng_()),
    "make_splits": lambda g: nf.make_splits(g, RATIO, 1, seed=0),
    "neighborhood_similarity": nf.neighborhood_similarity,
}


def _one_entry(a: np.ndarray, pos: int, value) -> np.ndarray:
    a = a.astype(type(value)) if isinstance(value, float) else a.astype(object)
    if a.size:
        a.flat[pos % a.size] = value
    return a


def _ragged(a: np.ndarray) -> list:
    rows = [np.atleast_1d(row).tolist() for row in a]
    return rows[:-1] + [rows[-1] * 2]


# each maps the valid array and a drawn position to a malformed value
ARRAY_FAULTS = {
    "rank_down": lambda a, pos: a.reshape(-1) if a.ndim > 1 else a.reshape(-1)[:1].reshape(()),
    "rank_up": lambda a, pos: a[None],
    "short": lambda a, pos: a[:-1],
    "long": lambda a, pos: np.concatenate([a, a[:1]]),
    "empty": lambda a, pos: a[:0],
    "nan": lambda a, pos: _one_entry(a, pos, np.nan),
    "inf": lambda a, pos: _one_entry(a, pos, np.inf),
    "-inf": lambda a, pos: _one_entry(a, pos, -np.inf),
    "huge": lambda a, pos: _one_entry(a, pos, 1e300),
    "out_of_range": lambda a, pos: a + 10 ** 9 * (np.arange(a.size).reshape(a.shape)
                                                  == pos % max(a.size, 1)),
    "negative": lambda a, pos: -a - 1,
    "mixed": lambda a, pos: _one_entry(a, pos, "a").tolist(),
    "strings": lambda a, pos: a.astype(str),
    "text": lambda a, pos: "abc",
    "ragged": lambda a, pos: _ragged(a),
}
NUMBER_FAULTS = [np.nan, np.inf, -np.inf, -1, 0, -0.0, 0.5, 2.5, 1e308, True, False,
                 np.float32(np.nan), np.int64(-3)]
GRAPH_FAULTS = {"valid": G, "one_node": ONE_NODE}

CASES = ([("array", name, fault) for name in ARRAYS for fault in ARRAY_FAULTS]
         + [("number", name, i) for name in NUMBERS for i in range(len(NUMBER_FAULTS))]
         + [("graph", name, fault) for name in GRAPHS for fault in GRAPH_FAULTS])


def _call(kind, name, fault, pos):
    if kind == "array":
        valid, call = ARRAYS[name]
        return call(ARRAY_FAULTS[fault](np.asarray(valid), pos))
    if kind == "number":
        return NUMBERS[name](NUMBER_FAULTS[fault])
    return GRAPHS[name](GRAPH_FAULTS[fault])


@settings(max_examples=6000, deadline=None)
@given(case=st.sampled_from(CASES), pos=st.integers(0, 2 ** 16))
@example(case=("array", "view_loss.z", "inf"), pos=0)
@example(case=("array", "mask_features", "mixed"), pos=1)
@example(case=("array", "make_splits.ratio", "mixed"), pos=2)
@example(case=("array", "linear_probe.split", "out_of_range"), pos=0)
@example(case=("array", "ntxent_pair_loss.z", "text"), pos=0)
def test_malformed_input_raises_a_nodefuse_error_or_returns(case, pos):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            _call(*case, pos)
        except NodefuseError:
            pass
