"""Graph container, dataset directory I/O, normalization, splits, analysis.

Canonical dataset directory layout:
    meta.json     {"name": str, "n_nodes": int, "n_features": int, "n_classes": int}
    edges.tsv     one undirected edge per line, two 0-based indices
    features.csv  n_nodes lines of comma-separated reals
    labels.txt    optional, n_nodes lines of 0-based class ids

features.csv is read by `_read_features` when it keeps to a plain grammar:
digits, ',', '.' and '\n'; n_features tokens on each row; no empty token;
at most one '.' a token, between two digits; a final '\n'. It finds the
separators and the nonzero digits with numpy, a block of rows at a time,
and converts only the tokens that hold a nonzero digit, so bag-of-words
features go straight to CSR. Any other features file, and every edges.tsv
and labels.txt, is read by np.loadtxt, to the same values and the same
FormatError texts.
"""

from __future__ import annotations

import json
import numbers
import os
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import (ContractError, FormatError, LoadError, SplitError, check_range,
                     non_integers, number_array)

_META_KEYS = ("n_nodes", "n_features", "n_classes")
# Features with a nonzero share below this are stored as CSR, denser ones
# dense. It comes from one microbenchmark of the first layer alone, x @ w
# forward plus x.T @ g backward, at c8's shape (N 5000, F 1000 -> 256,
# float32, 2 OpenBLAS threads, uniform random patterns, 72 timings per
# cell): CSR took 6.0, 13.3, 19.2, 23.3, 30.2 and 36.1 ms in the median at
# 1, 2.7, 4, 5, 6 and 7% nonzeros, the dense GEMMs 29.7-35.0 ms at every
# density. The medians tie at 6%; 5% is the densest share tested at which
# CSR's upper quartile (26.5 ms) is at or under the dense lower quartile
# (26.5 ms). No end-to-end run checks it: both benchmark workloads are CSR.
_SPARSE_BELOW = 0.05


@dataclass(frozen=True)
class Graph:
    """Immutable node/edge/feature/label container.

    Edges are stored once per undirected pair with i < j and no self-loops.
    The features are stored once, in `x`: as a float64 CSR matrix when under
    _SPARSE_BELOW of their entries are nonzero, else as a dense array.
    """

    n_nodes: int
    edges: np.ndarray            # (m, 2) int, i < j
    x: np.ndarray | sp.csr_matrix  # (n_nodes, F) float64 features
    labels: np.ndarray | None    # (n_nodes,) int, or None
    n_classes: int | None = None
    name: str = ""
    n_dropped_lines: int = 0     # duplicate / reversed / self-loop lines at load

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def features(self) -> np.ndarray:
        """The features as a dense array: `x` itself when it is dense, else a
        fresh copy of n_nodes * F * 8 bytes."""
        return self.x.toarray() if sp.issparse(self.x) else self.x

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    @cached_property
    def degree(self) -> np.ndarray:
        """(n_nodes,) int64 count of each node's undirected edges."""
        return np.bincount(self.edges.ravel(), minlength=self.n_nodes)


@dataclass(frozen=True)
class Split:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    seed: int


def build_graph(n_nodes: int, edge_list, features, labels=None,
                n_classes=None, name: str = "") -> Graph:
    """Dedup edges, drop self-loops; check edge ranges, that edges and labels
    are integers, that `n_nodes` is a count and `n_classes` None or one, and
    that features are numbers, have a column and finite row squared norms."""
    _check_count("n_nodes", n_nodes)
    if n_classes is not None:
        _check_count("n_classes", n_classes)
    if sp.issparse(features):
        if features.dtype.kind not in "biuf":
            raise FormatError(f"features must be numbers, got dtype {features.dtype}")
    else:
        try:
            features = np.asarray(features, dtype=np.float64)
        except (TypeError, ValueError) as exc:      # not numbers, or ragged rows
            raise FormatError(f"features must be numbers: {exc}") from exc
    if features.ndim != 2 or features.shape[0] != n_nodes or not features.shape[1]:
        raise FormatError(f"features must be {n_nodes} rows of at least one "
                          f"column, got shape {features.shape}")
    x = _stored(features)
    _check_squared_norms(x, locate_non_finite=True)
    raw = _integers("edge endpoints", edge_list)
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
    if labels is not None:
        labels = _integers("labels", labels)
        if labels.shape != (n_nodes,):
            raise FormatError(f"labels must have length {n_nodes}, got {labels.shape}")
        if n_classes is None:
            n_classes = int(labels.max()) + 1 if n_nodes else 0
        if labels.min(initial=0) < 0 or (n_nodes and labels.max() >= n_classes):
            raise FormatError("labels outside [0, n_classes)")
    return Graph(n_nodes=n_nodes, edges=edges, x=x, labels=labels,
                 n_classes=n_classes, name=name,
                 n_dropped_lines=len(raw) - len(edges))


def _check_count(what: str, value):
    """A FormatError unless `value` is an integer >= 0; a bool is not one."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= 0):
        raise FormatError(f"{what} must be an integer >= 0, got {value!r}")


def _integers(what: str, values) -> np.ndarray:
    """`values` as int64; a value that is not a finite integer is a FormatError."""
    try:
        a = np.asarray(values)
    except ValueError as exc:       # a ragged sequence
        raise FormatError(f"{what} must be integers: {exc}") from exc
    if a.dtype.kind not in "biuf":
        raise FormatError(f"{what} must be integers, got dtype {a.dtype}")
    bad = non_integers(a)
    if bad.any():
        raise FormatError(f"{what} must be integers, got {a[bad][0]}")
    return a.astype(np.int64)


def _stored(features):
    """`features` in the form Graph stores them: CSR when under
    _SPARSE_BELOW of the entries are nonzero, else a dense array. A sparse
    matrix is kept, without its explicit zeros, or made dense."""
    if sp.issparse(features):
        x = sp.csr_matrix(features, dtype=np.float64)
        if not (x.has_canonical_format and x.data.all()):
            x = x.copy()
            x.sum_duplicates()
            x.eliminate_zeros()
        return x.toarray() if x.nnz >= _SPARSE_BELOW * np.prod(x.shape) else x
    nonzero = features != 0
    counts = np.count_nonzero(nonzero, axis=1)
    if counts.sum() >= _SPARSE_BELOW * features.size:
        return features
    # one boolean mask gives the CSR arrays, in row-major order; scipy's own
    # conversion from dense took 49 ms on c8, this 18 ms
    flat = np.flatnonzero(nonzero)
    return _csr(features.shape, counts, flat % features.shape[1], np.take(features, flat))


def _csr(shape, row_counts, cols, values) -> sp.csr_matrix:
    """The CSR matrix of `values` at `cols`, listed in row-major order."""
    return sp.csr_matrix((values, cols, np.concatenate([[0], np.cumsum(row_counts)])),
                         shape=shape)


def _check_squared_norms(x, locate_non_finite: bool = False):
    """Raise a FormatError for the first row of `x` (dense or CSR) whose
    squared norm overflows its dtype: the models and analyses all square the
    features.

    With `locate_non_finite`, the first non-finite entry, if there is one,
    is reported instead. A row holding one has a non-finite squared norm, so
    only those rows are scanned.
    """
    with np.errstate(over="ignore"):
        norms = (np.asarray(x.multiply(x).sum(axis=1)).ravel() if sp.issparse(x)
                 else np.einsum("ij,ij->i", x, x))
    bad = np.flatnonzero(~np.isfinite(norms))
    if not len(bad):
        return
    if locate_non_finite:
        rows = x[bad].toarray() if sp.issparse(x) else x[bad]
        hits = np.argwhere(~np.isfinite(rows))
        if len(hits):
            r, col = hits[0]
            raise FormatError(f"non-finite feature {rows[r, col]} "
                              f"at row {bad[r]}, column {col}")
    raise FormatError(f"the squared norm of feature row {bad[0]} "
                      f"overflows {x.dtype}")


def features_as(g: Graph, dtype):
    """`g.x` cast to `dtype`, in the form the encoders take it: a dense array,
    or a sparse matrix and no dense copy; a row whose squared norm overflows
    `dtype` is a FormatError. A sparse cast makes new values only: it shares
    g.x's index arrays, which nothing writes.

    Sparse features wider than tall are given in CSC form: x @ enc_w1 then
    scatters into the short N-row output and its backward's x.T @ g is a
    CSR gather, each sum in the same order as from CSR. In texas training
    (183 x 1703) the first layer took 18-19 ms per epoch so, 24 ms from CSR
    and 20 ms as dense GEMMs; at c8's shape (5000 x 1000) the CSR gather
    x.T @ g took 20 ms, the CSC view's scatter 6.6 ms.
    """
    x = g.x
    with np.errstate(over="ignore"):
        if sp.issparse(x) and x.dtype != dtype:
            x = sp.csr_matrix((x.data.astype(dtype), x.indices, x.indptr), shape=x.shape)
        x = x.astype(dtype, copy=False)
    _check_squared_norms(x)
    return x.tocsc() if sp.issparse(x) and x.shape[1] > x.shape[0] else x


def _loadtxt(path, dtype, **kwargs) -> np.ndarray:
    """np.loadtxt with a malformed value reported as a FormatError."""
    try:
        with warnings.catch_warnings():
            # An empty file is valid input here; the caller checks its shape.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(path, dtype=dtype, **kwargs)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


_READ_BYTES = 1 << 17    # bytes of features.csv parsed at a time by _read_features
# a decimal of up to 15 digits is an integer exact in float64, and so is
# 10**k for each k up to 15; their quotient is the correctly rounded value
_EXACT_DIGITS = 15
_POW10 = np.array([float(10 ** k) for k in range(_EXACT_DIGITS + 1)])
_DOT, _COMMA, _NEWLINE = ord("."), ord(","), ord("\n")


def _read_features(path, width: int):
    """A features file of non-negative decimals as a CSR matrix, or None for
    a file outside the plain grammar: only digits, ',', '.' and '\n'; `width`
    tokens on each row; no empty token; at most one '.' per token, between
    two digits; a final '\n'. Such a file reads to the same values as with
    np.loadtxt.

    The file is parsed `_READ_BYTES` at a time, cut after a newline, so its
    temporaries grow with that block, not with the file. Only tokens that
    hold a nonzero digit are converted.
    """
    parts, n_rows, rest = [], 0, b""
    with open(path, "rb") as fh:
        # a row of `width` tokens takes at least 2 * width bytes; that, or no
        # final newline, declines the file before any parsing
        if not 1 <= width <= fh.seek(0, os.SEEK_END) // 2:
            return None
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) != b"\n":
            return None
        fh.seek(0)
        while chunk := fh.read(_READ_BYTES):
            block = rest + chunk
            end = block.rfind(b"\n") + 1
            rest = block[end:]
            if end:
                part = _parse_rows(np.frombuffer(block, np.uint8, end), width)
                if part is None:
                    return None
                n, rows, cols, values = part
                parts.append((rows + n_rows, cols, values))
                n_rows += n
    rows, cols, values = (np.concatenate(a) for a in zip(*parts))
    return _csr((n_rows, width), np.bincount(rows, minlength=n_rows), cols, values)


def _parse_rows(buf: np.ndarray, width: int):
    """(n_rows, rows, columns, values) of the nonzero entries in `buf`,
    bytes that end in a newline, or None outside _read_features' grammar."""
    digit = buf - ord("0") < 10                 # uint8 wraps below '0'
    is_nl = buf == _NEWLINE
    is_sep = is_nl | (buf == _COMMA)
    dots = np.flatnonzero(buf == _DOT)
    if (np.count_nonzero(digit) + np.count_nonzero(is_sep) + len(dots) != len(buf)
            or is_sep[0] or (is_sep[1:] & is_sep[:-1]).any()):     # an empty token
        return None
    sep = np.flatnonzero(is_sep)                # token t ends at sep[t]
    n = np.count_nonzero(is_nl)
    if len(sep) != n * width or not is_nl[sep[width - 1::width]].all():
        return None
    dot_tokens = np.searchsorted(sep, dots)
    if len(dots) and (dots[0] == 0 or not (digit[dots - 1] & digit[dots + 1]).all()
                      or not np.diff(dot_tokens).all()):
        return None
    # the tokens that hold a nonzero digit
    tokens = np.searchsorted(sep, np.flatnonzero(buf - ord("1") < 9))
    tokens = tokens[np.diff(tokens, prepend=-1) != 0]
    start = np.where(tokens > 0, sep[tokens - 1] + 1, 0)
    length = sep[tokens] - start
    has_dot = n_fraction = 0
    if len(dots):
        at = np.minimum(np.searchsorted(dot_tokens, tokens), len(dots) - 1)
        has_dot = dot_tokens[at] == tokens
        n_fraction = np.where(has_dot, start + length - 1 - dots[at], 0)
    long = length - has_dot > _EXACT_DIGITS
    # each short token's digits as one integer, then over 10**(digits after
    # its '.'); the loop reads at most 16 characters, a short token's 15
    # digits and '.', so a long token costs no more passes, and its partial
    # value, under 10**16, fits int64 before float() replaces it
    value = np.zeros(len(tokens), np.int64)
    for k in range(min(length.max(initial=0), _EXACT_DIGITS + 1)):
        byte = np.take(buf, start + k, mode="clip")
        is_digit = (k < length) & (byte != _DOT)
        np.multiply(value, 10, out=value, where=is_digit)
        np.add(value, byte - ord("0"), out=value, where=is_digit)
    value = value / _POW10[np.where(long, 0, n_fraction)]
    for i in np.flatnonzero(long):
        value[i] = float(buf[start[i]:start[i] + length[i]].tobytes())
    return n, tokens // width, tokens % width, value


def load_graph(dataset_dir) -> Graph:
    d = Path(dataset_dir)
    meta_path = d / "meta.json"
    edges_path = d / "edges.tsv"
    feat_path = d / "features.csv"
    for p in (meta_path, edges_path, feat_path):
        if not p.is_file():
            raise LoadError(f"missing required file: {p}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        n, n_features, n_classes = (meta[k] for k in _META_KEYS)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{meta_path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{meta_path} is not UTF-8 text: {exc}") from exc
    except KeyError as exc:
        raise FormatError(f"{meta_path} is missing key {exc}") from exc
    except TypeError as exc:
        raise FormatError(f"{meta_path} does not hold a JSON object ({exc})") from exc
    _check_count(f"{meta_path}: n_features", n_features)    # build_graph checks the others

    # comments=None keeps a '#' line a format error, like any other token;
    # build_graph rejects a column count other than 2.
    edge_list = _loadtxt(edges_path, np.int64, ndmin=2, comments=None)
    features = _read_features(feat_path, n_features)
    if features is None:
        features = _loadtxt(feat_path, np.float64, delimiter=",", ndmin=2,
                            comments=None)
    if features.shape[1] != n_features:
        raise FormatError(
            f"features.csv has {features.shape[1]} columns, "
            f"meta.json says {n_features}"
        )

    labels = None
    labels_path = d / "labels.txt"
    if labels_path.is_file():
        labels = _loadtxt(labels_path, np.int64, ndmin=1, comments=None)

    return build_graph(n, edge_list, features, labels=labels,
                       n_classes=n_classes,
                       name=str(meta.get("name", d.name)))


_WRITE_ROWS = 256   # feature rows made dense at a time by write_graph


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
        for lo in range(0, g.n_nodes, _WRITE_ROWS):   # no dense copy of a CSR x
            block = g.x[lo:lo + _WRITE_ROWS]
            for row in block.toarray() if sp.issparse(block) else block:
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


def normalized_adjacency_sparse(g: Graph) -> sp.csr_matrix:
    """D^{-1/2} (A + I) D^{-1/2}, D the degrees counting the self-loop."""
    inv_sqrt = 1.0 / np.sqrt(g.degree + 1.0)
    loops = np.arange(g.n_nodes)
    rows = np.concatenate([g.edges[:, 0], g.edges[:, 1], loops])
    cols = np.concatenate([g.edges[:, 1], g.edges[:, 0], loops])
    return sp.csr_matrix((inv_sqrt[rows] * inv_sqrt[cols], (rows, cols)),
                         shape=(g.n_nodes, g.n_nodes))


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
    ratio = number_array("split ratio", ratio, 1)
    if not (ratio.shape == (3,) and (ratio >= 0).all()
            and abs(ratio.sum() - 1.0) <= 1e-9):  # NaN fails
        raise ContractError("split ratio must be three nonnegative fractions "
                            f"that sum to 1, got {ratio}")
    check_range("n_splits", n_splits, 1, np.inf, integer=True)
    check_range("seed", seed, 0, np.inf, integer=True)
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
    x = g.features
    means = adjacency_sparse(g) @ x / np.maximum(g.degree, 1)[:, None]
    nx = np.linalg.norm(x, axis=1)
    nm = np.linalg.norm(means, axis=1)
    # Isolated nodes have a zero mean, so the zero-norm rule covers them.
    ok = (nx >= 1e-12) & (nm >= 1e-12)
    sims = np.zeros(g.n_nodes, dtype=np.float64)
    sims[ok] = (np.einsum("ij,ij->i", x[ok], means[ok])
                / (nx[ok] * nm[ok]))
    return sims, isolated
