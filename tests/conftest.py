import io
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nodefuse import build_graph

DATA_ROOT = Path(__file__).resolve().parent.parent / "data"


def random_graph(rng, n=20, f=12, p_edge=0.2, n_classes=3, labeled=True,
                 word_rate=None):
    """Normal features, stored dense; with `word_rate`, binary bag-of-words
    features with that share of ones, stored as CSR below 5%."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p_edge]
    feats = (rng.normal(size=(n, f)) if word_rate is None
             else (rng.random((n, f)) < word_rate).astype(np.float64))
    labels = rng.integers(0, n_classes, size=n) if labeled else None
    return build_graph(n, edges, feats, labels, n_classes=n_classes)


def traced_memory(fn):
    """(held, peak): the bytes fn() allocates and still holds when it returns,
    its result alive, and the most it held at once, both as traced by
    tracemalloc from the call on."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return held, peak


def write_dataset(d: Path, n_nodes, edges, features, labels=None,
                  n_classes=0, name="toy"):
    d.mkdir(parents=True, exist_ok=True)
    features = np.asarray(features)
    meta = {"name": name, "n_nodes": n_nodes,
            "n_features": features.shape[1], "n_classes": n_classes}
    (d / "meta.json").write_text(json.dumps(meta))
    (d / "edges.tsv").write_text("".join(f"{i}\t{j}\n" for i, j in edges))
    (d / "features.csv").write_text(
        "".join(",".join(str(v) for v in row) + "\n" for row in features))
    if labels is not None:
        (d / "labels.txt").write_text("".join(f"{int(y)}\n" for y in labels))
    return d


def _rewrite(filename, edit):
    def apply(d: Path):
        path = d / filename
        path.write_text(edit(path.read_text()))
    return apply


def _latin1_meta_name(d: Path):
    meta = json.loads((d / "meta.json").read_text())
    meta["name"] = "café"
    (d / "meta.json").write_bytes(json.dumps(meta, ensure_ascii=False).encode("latin-1"))


def _drop_meta_key(key):
    return _rewrite("meta.json", lambda t: json.dumps(
        {k: v for k, v in json.loads(t).items() if k != key}))


def _set_meta(key, make, unlabeled=False):
    """meta.json's `key` set to make(its value); with `unlabeled`, no labels.txt."""
    def apply(d: Path):
        meta = json.loads((d / "meta.json").read_text())
        meta[key] = make(meta[key])
        (d / "meta.json").write_text(json.dumps(meta))
        if unlabeled:
            (d / "labels.txt").unlink()
    return apply


def _wide_meta(width):
    """Every feature token set to 1, so the vectorized reader takes the file,
    and meta.json's n_features set to `width`."""
    def apply(d: Path):
        _rewrite("features.csv", lambda t: re.sub(r"[^,\n]+", "1", t))(d)
        _set_meta("n_features", lambda v: width)(d)
    return apply


def _huge_feature(t: str) -> str:
    # finite in float64, but the squared norm of its row is not
    return "1e300" + t[t.index(","):]


# Edits that turn a valid labeled dataset directory into one that
# load_graph must reject with a FormatError.
MALFORMED = {
    "edges_comment_line": _rewrite("edges.tsv", lambda t: "# i j\n" + t),
    "edges_non_integer": _rewrite("edges.tsv", lambda t: t + "3\tfour\n"),
    "edges_float_index": _rewrite("edges.tsv", lambda t: t + "3\t4.0\n"),
    "edges_one_column": _rewrite("edges.tsv", lambda t: "0\n1\n"),
    "edges_three_columns": _rewrite("edges.tsv", lambda t: "0\t1\t2\n"),
    "edges_ragged_line": _rewrite("edges.tsv", lambda t: t + "3\n"),
    "features_non_numeric": _rewrite("features.csv",
                                     lambda t: "abc" + t[t.index(","):]),
    "features_nan": _rewrite("features.csv", lambda t: "nan" + t[t.index(","):]),
    "features_inf": _rewrite("features.csv", lambda t: "-inf" + t[t.index(","):]),
    "features_square_overflows": _rewrite("features.csv", _huge_feature),
    "features_comment_line": _rewrite("features.csv", lambda t: "# word counts\n" + t),
    "features_trailing_comment": _rewrite("features.csv", lambda t: t + "# note\n"),
    "labels_non_numeric": _rewrite("labels.txt", lambda t: "x" + t[t.index("\n"):]),
    "labels_comment_line": _rewrite("labels.txt", lambda t: "# class ids\n" + t),
    "meta_not_json": _rewrite("meta.json", lambda t: t[:-1]),
    "meta_not_utf8": _latin1_meta_name,
    "meta_missing_n_nodes": _drop_meta_key("n_nodes"),
    "meta_missing_n_features": _drop_meta_key("n_features"),
    "meta_missing_n_classes": _drop_meta_key("n_classes"),
    # counts that int() would truncate or convert: each must be a JSON integer >= 0
    "meta_n_nodes_fractional": _set_meta("n_nodes", lambda v: v + 0.9),
    "meta_n_features_fractional": _set_meta("n_features", lambda v: v + 0.5),
    # wider than any row of the file, too wide for an int64
    "meta_n_features_2_63": _wide_meta(2 ** 63),
    "meta_n_features_10_30": _wide_meta(10 ** 30),
    "meta_n_classes_string": _set_meta("n_classes", str),
    "meta_n_classes_bool": _set_meta("n_classes", lambda v: True),
    "meta_n_classes_negative_unlabeled": _set_meta("n_classes", lambda v: -1, unlabeled=True),
}


def with_checkpoint_arrays(good: bytes, make, names=None) -> bytes:
    """The checkpoint `good` with each array named in `names` (every array
    when None) replaced by make(array), saved again as a valid archive."""
    with np.load(io.BytesIO(good)) as data:
        arrays = {key: data[key] for key in data.files}
    for key in arrays if names is None else names:
        arrays[key] = make(arrays[key])
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def with_checkpoint_value(good: bytes, value: float, name: str = "enc_w1",
                          at: float = 0.0) -> bytes:
    """The checkpoint `good` with entry `at` (a fraction of the array's size)
    of array `name` set to `value`."""
    def make(arr):
        arr.flat[min(int(arr.size * at), arr.size - 1)] = value
        return arr

    return with_checkpoint_arrays(good, make, [name])


def dataset_dir(name: str) -> Path | None:
    """Benchmark dataset in canonical layout, or None if not provided."""
    d = DATA_ROOT / name
    return d if (d / "meta.json").is_file() else None


def require_dataset(name: str) -> Path:
    d = dataset_dir(name)
    if d is None:
        pytest.skip(f"benchmark dataset {name!r} not present under {DATA_ROOT} "
                    "(see README for the canonical on-disk format)")
    return d
