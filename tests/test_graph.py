import json
import re
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodefuse import (Tensor, build_graph, load_graph, make_splits,
                      neighborhood_similarity, write_graph)
from nodefuse.errors import ContractError, FormatError, LoadError
from nodefuse import graph
from nodefuse.graph import (_SPARSE_BELOW, _largest_remainder_sizes, features_as,
                            normalized_adjacency_sparse)

from conftest import MALFORMED, random_graph, traced_memory, write_dataset


class TestLoadGraph:
    def test_toy_two_node(self, tmp_path):
        d = write_dataset(tmp_path / "toy", 2, [(0, 1)],
                          [[1.0, 0.0], [0.0, 1.0]])
        g = load_graph(d)
        assert g.n_nodes == 2
        assert g.n_edges == 1
        assert list(g.degree) == [1, 1]

    def test_self_loop_dropped_with_count(self, tmp_path):
        d = write_dataset(tmp_path / "toy", 5, [(0, 1), (3, 3)],
                          np.zeros((5, 2)))
        g = load_graph(d)
        assert g.n_edges == 1
        assert g.n_dropped_lines == 1

    def test_duplicate_and_reversed_dropped(self, tmp_path):
        d = write_dataset(tmp_path / "toy", 3, [(0, 1), (1, 0), (0, 1), (1, 2)],
                          np.zeros((3, 2)))
        g = load_graph(d)
        assert g.n_edges == 2
        assert g.n_dropped_lines == 2

    def test_missing_file(self, tmp_path):
        d = write_dataset(tmp_path / "toy", 2, [(0, 1)], np.zeros((2, 2)))
        (d / "edges.tsv").unlink()
        with pytest.raises(LoadError):
            load_graph(d)

    def test_out_of_range_index(self, tmp_path):
        d = write_dataset(tmp_path / "toy", 2, [(0, 5)], np.zeros((2, 2)))
        with pytest.raises(FormatError):
            load_graph(d)

    def test_feature_row_count_mismatch(self, tmp_path):
        d = write_dataset(tmp_path / "toy", 3, [(0, 1)], np.zeros((2, 2)))
        with pytest.raises(FormatError):
            load_graph(d)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        g = random_graph(rng, n=12, f=5)
        write_graph(g, tmp_path / "rt")
        g2 = load_graph(tmp_path / "rt")
        assert g2.n_nodes == g.n_nodes
        assert np.array_equal(g2.edges, g.edges)
        assert np.array_equal(g2.features, g.features)
        assert np.array_equal(g2.labels, g.labels)
        assert np.array_equal(g2.degree, g.degree)

    def test_blank_lines_between_edges(self, tmp_path):
        d = write_dataset(tmp_path / "toy", 3, [], np.zeros((3, 2)))
        (d / "edges.tsv").write_text("\n0\t1\n\n  \n1 2\n\n")
        g = load_graph(d)
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert g.n_dropped_lines == 0

    def test_empty_edge_file(self, tmp_path):
        d = write_dataset(tmp_path / "toy", 3, [], np.zeros((3, 2)))
        assert (d / "edges.tsv").read_text() == ""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = load_graph(d)
        assert g.edges.shape == (0, 2)
        assert g.degree.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_is_format_error(self, tmp_path, case):
        rng = np.random.default_rng(9)
        g = random_graph(rng, n=8, f=3)
        d = write_dataset(tmp_path / "toy", 8, [tuple(e) for e in g.edges],
                          g.features, labels=g.labels, n_classes=3)
        MALFORMED[case](d)
        with pytest.raises(FormatError):
            load_graph(d)

    @pytest.mark.parametrize("width", [2 ** 63 - 1, 2 ** 63, 10 ** 30])
    def test_oversized_n_features_is_format_error(self, tmp_path, width):
        d = write_dataset(tmp_path / "toy", 3, [(0, 1)], np.eye(3, 2))
        meta = json.loads((d / "meta.json").read_text())
        (d / "meta.json").write_text(json.dumps({**meta, "n_features": width}))
        with pytest.raises(FormatError, match=f"has 2 columns, meta.json says {width}$"):
            load_graph(d)

    @pytest.mark.parametrize("key", ["n_nodes", "n_features", "n_classes"])
    def test_missing_meta_key_named(self, tmp_path, key):
        d = write_dataset(tmp_path / "toy", 2, [(0, 1)], np.zeros((2, 2)))
        MALFORMED[f"meta_missing_{key}"](d)
        with pytest.raises(FormatError, match=key):
            load_graph(d)

    def test_meta_not_utf8_named(self, tmp_path):
        d = write_dataset(tmp_path / "toy", 2, [(0, 1)], np.zeros((2, 2)))
        MALFORMED["meta_not_utf8"](d)
        with pytest.raises(FormatError, match="meta.json is not UTF-8"):
            load_graph(d)

    def test_degree_consistency(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, n=30, p_edge=0.15)
        assert g.degree.sum() == 2 * g.n_edges


def reference_canonical_edges(n_nodes, edge_list):
    """Set-based canonicalization: (sorted edges, degree, dropped count)."""
    seen, dropped = set(), 0
    for i, j in edge_list:
        key = (min(i, j), max(i, j))
        if i == j or key in seen:
            dropped += 1
        else:
            seen.add(key)
    edges = sorted(seen)
    degree = [0] * n_nodes
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    return edges, degree, dropped


@st.composite
def raw_edge_lists(draw):
    """(n_nodes, pairs) with self-loops, duplicates and reversed repeats."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=40))
    if pairs:
        repeats = draw(st.lists(
            st.tuples(st.integers(0, len(pairs) - 1), st.booleans()), max_size=20))
        pairs += [pairs[k][::-1] if flip else pairs[k] for k, flip in repeats]
    return n, draw(st.permutations(pairs))


class TestBuildGraph:
    @settings(max_examples=300, deadline=None)
    @given(raw_edge_lists(), st.booleans())
    @example((3, []), False)
    @example((3, []), True)
    def test_matches_set_reference(self, case, as_array):
        n, pairs = case
        edges, degree, dropped = reference_canonical_edges(n, pairs)
        arg = np.array(pairs, dtype=np.int64).reshape(-1, 2) if as_array else pairs
        g = build_graph(n, arg, np.zeros((n, 1)))
        assert g.edges.dtype == np.int64 and g.edges.shape == (len(edges), 2)
        assert g.edges.tolist() == [list(e) for e in edges]
        assert g.degree.dtype == np.int64
        assert g.degree.tolist() == degree
        assert g.n_dropped_lines == dropped

    @pytest.mark.parametrize("first_bad", [(5, 0), (-1, 2)])
    def test_first_out_of_range_edge_named(self, first_bad):
        edge_list = [(0, 1), (1, 1), first_bad, (0, 7), (9, 9)]
        with pytest.raises(FormatError, match=re.escape(f"edge {first_bad} ")):
            build_graph(3, edge_list, np.zeros((3, 1)))

    def test_non_finite_feature_located(self):
        feats = np.zeros((3, 2))
        feats[2, 1] = np.inf
        with pytest.raises(FormatError, match="row 2, column 1"):
            build_graph(3, [(0, 1)], feats)

    def test_overflowing_squared_norm_located(self):
        feats = np.zeros((3, 2))
        feats[1, 0] = 1e200      # finite, but its square is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="feature row 1 overflows float64"):
                build_graph(3, [(0, 1)], feats)

    def test_first_non_finite_feature_beats_an_earlier_overflow(self):
        # only rows whose squared norm is not finite are scanned for entries
        feats = np.zeros((6, 3))
        feats[1, 0] = 1e200
        feats[3, 2] = np.nan
        feats[4, 0] = -np.inf
        feats[5, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match=re.escape(
                    "non-finite feature nan at row 3, column 2")):
                build_graph(6, [(0, 1)], feats)


    @pytest.mark.parametrize("edges", [[[0.5, 1.7]], [[0, 1], [1, np.nan]],
                                       [[0, np.inf]], [["a", "b"]], [[0, 1], [2]],
                                       [[0, None]]],
                             ids=["fractional", "nan", "inf", "string", "ragged", "none"])
    def test_non_integral_edge_endpoints_rejected(self, edges):
        # cast to int64, [[0.5, 1.7]] was the edge (0, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="edge endpoints must be integers"):
                build_graph(3, edges, np.zeros((3, 1)))

    @pytest.mark.parametrize("kwargs, message", [
        ({"features": "abc"}, "features must be numbers"),
        ({"features": [[0.0], [0.0, 1.0], [0.0]]}, "features must be numbers"),
        ({"features": {}}, "features must be numbers"),
        ({"labels": ["a", "b", "a"]}, "labels must be integers"),
        ({"labels": [0, 1, 1], "n_classes": "2"}, "n_classes must be an integer"),
        ({"n_classes": -3}, "n_classes must be an integer"),
        ({"n_classes": 2.5}, "n_classes must be an integer"),
        ({"n_classes": True}, "n_classes must be an integer"),
        ({"n_nodes": 3.0}, "n_nodes must be an integer"),
    ], ids=["features-string", "features-ragged", "features-dict", "labels-string",
            "n_classes-string", "n_classes-negative", "n_classes-fractional",
            "n_classes-bool", "n_nodes-float"])
    def test_argument_that_is_not_numbers_rejected(self, kwargs, message):
        args = {"n_nodes": 3, "features": np.zeros((3, 1)), **kwargs}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match=message):
                build_graph(edge_list=[(0, 1)], **args)

    def test_non_integral_labels_rejected(self):
        # cast to int64, 0.5 was class 0
        with pytest.raises(FormatError, match="labels must be integers, got 0.5"):
            build_graph(3, [(0, 1)], np.zeros((3, 1)), labels=[0, 0.5, 1])

    def test_integer_valued_floats_accepted(self):
        g = build_graph(3, np.array([[2.0, 0.0]]), np.zeros((3, 1)), labels=[0.0, 1.0, 1.0])
        assert g.edges.tolist() == [[0, 2]] and g.labels.tolist() == [0, 1, 1]

    def test_zero_feature_columns_rejected(self):
        # train would fit an f_in = 0 model whose checkpoint eval refuses
        with pytest.raises(FormatError, match="at least one column"):
            build_graph(3, [(0, 1)], np.zeros((3, 0)))


class TestFeatureStorage:
    def test_normal_features_stay_dense(self):
        g = random_graph(np.random.default_rng(0), n=12, f=5)
        assert type(g.x) is np.ndarray and g.x.dtype == np.float64
        assert g.features is g.x

    def test_bag_of_words_stored_as_csr(self):
        rng = np.random.default_rng(1)
        feats = (rng.random((30, 200)) < 0.02).astype(np.float64)
        g = build_graph(30, [(0, 1)], feats)
        assert sp.issparse(g.x) and g.x.format == "csr" and g.x.dtype == np.float64
        assert g.x.nnz == np.count_nonzero(feats) and g.x.has_sorted_indices
        assert g.n_features == 200
        dense = g.features
        assert type(dense) is np.ndarray and np.array_equal(dense, feats)
        assert g.features is not dense      # a fresh copy per read

    def test_density_threshold(self):
        n, f = 10, 100
        at = np.zeros((n, f))
        at.flat[:int(_SPARSE_BELOW * n * f)] = 1.0
        below = at.copy()
        below.flat[0] = 0.0
        assert type(build_graph(n, [], at).x) is np.ndarray
        assert sp.issparse(build_graph(n, [], below).x)

    def test_load_graph_keeps_no_dense_bag_of_words(self, tmp_path):
        # a dense copy of the features alone would be n * f * 8 bytes
        n, f = 400, 1000
        rng = np.random.default_rng(2)
        d = write_dataset(tmp_path / "bow", n, [(0, 1), (1, 2)],
                          (rng.random((n, f)) < 0.02).astype(np.float64))
        held, peak = traced_memory(lambda: load_graph(d))
        assert load_graph(d).n_features == f
        assert held < n * f * 8 / 4
        assert peak < n * f * 8

    @pytest.mark.parametrize("word_rate", [None, 0.03], ids=["dense", "csr"])
    def test_write_load_round_trip_is_byte_identical(self, tmp_path, word_rate):
        g = random_graph(np.random.default_rng(3), n=40, f=30, word_rate=word_rate)
        write_graph(g, tmp_path / "a")
        g2 = load_graph(tmp_path / "a")
        write_graph(g2, tmp_path / "b")
        for name in ("meta.json", "edges.tsv", "features.csv", "labels.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert type(g2.x) is type(g.x) and np.array_equal(g2.features, g.features)

    @pytest.mark.parametrize("value, message", [
        (np.nan, "non-finite feature nan at row 7, column 3"),
        (-np.inf, "non-finite feature -inf at row 7, column 3"),
        (1e200, "the squared norm of feature row 7 overflows float64")])
    def test_csr_features_checked(self, value, message):
        feats = np.zeros((10, 100))
        feats[::3, ::7] = 1.0
        feats[7, 3] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match=re.escape(message)):
                build_graph(10, [(0, 1)], feats)

    def test_features_as_casts_csr_without_a_dense_copy(self):
        # nor a copy of the index arrays, which training holds throughout
        g = random_graph(np.random.default_rng(4), n=40, f=30, word_rate=0.03)
        x = features_as(g, np.float32)
        assert sp.issparse(x) and x.format == "csr" and x.dtype == np.float32
        assert np.array_equal(x.toarray(), g.features.astype(np.float32))
        assert np.shares_memory(x.indices, g.x.indices)
        assert np.shares_memory(x.indptr, g.x.indptr)
        assert features_as(g, np.float64) is g.x

    def test_features_as_gives_wide_sparse_features_in_csc_form(self):
        # the first layer's backward x.T is then a CSR view; a taller
        # matrix stays CSR
        rng = np.random.default_rng(24)
        for n, f, form in ((20, 60, "csc"), (60, 20, "csr")):
            g = random_graph(rng, n=n, f=f, word_rate=0.03)
            assert g.x.format == "csr"
            x = features_as(g, np.float32)
            assert x.format == form and x.dtype == np.float32
            assert np.array_equal(x.toarray(), g.features.astype(np.float32))


def assert_same_graph(a, b):
    """Bitwise equal graphs: the storage of `x`, the edges and the labels."""
    assert type(a.x) is type(b.x) and a.x.dtype == b.x.dtype and a.x.shape == b.x.shape
    if sp.issparse(a.x):
        for part in ("data", "indices", "indptr"):
            ours, theirs = getattr(a.x, part), getattr(b.x, part)
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
    else:
        assert a.x.tobytes() == b.x.tobytes()
    assert a.edges.dtype == b.edges.dtype and np.array_equal(a.edges, b.edges)
    assert a.labels.dtype == b.labels.dtype and np.array_equal(a.labels, b.labels)
    assert (a.n_classes, a.n_dropped_lines, a.name) == (b.n_classes, b.n_dropped_lines,
                                                        b.name)


def load_both(d):
    """load_graph(d) as read, then with features.csv read by np.loadtxt:
    each a Graph or the text of its FormatError."""
    def attempt():
        try:
            return load_graph(d)
        except FormatError as exc:
            return str(exc)

    fast = attempt()
    with mock.patch.object(graph, "_read_features", lambda *args: None):
        return fast, attempt()


@st.composite
def decimal_tables(draw):
    """(rows of tokens, style): non-negative decimals of 1-17 digits, with or
    without a fraction, at a drawn share of nonzero entries."""
    n, f = draw(st.integers(1, 12)), draw(st.integers(1, 30))
    density = draw(st.sampled_from([0.0, 0.01, 0.04, 0.06, 0.2, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    digits = st.text("0123456789", min_size=1, max_size=17)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(f):
            if rng.random() >= density:
                row.append("0")
                continue
            token = draw(digits)
            if len(token) > 1 and draw(st.booleans()):
                cut = draw(st.integers(1, len(token) - 1))
                token = token[:cut] + "." + token[cut:]
            row.append(token)
        rows.append(row)
    return rows, draw(st.sampled_from(["as drawn", "repr", "integers"]))


def _move_first_token_up(t: str) -> str:
    """Row 1's first token moved to the end of row 0: the token count stays."""
    first, second, rest = t.split("\n", 2)
    token, second = second.split(",", 1)
    return f"{first},{token}\n{second}\n{rest}"


class TestTableReader:
    @settings(max_examples=150, deadline=None)
    @given(decimal_tables(), st.sampled_from([16, 64, 1 << 17]))
    @example(([["0", "12345678901234567"], ["0.30000000000000004", "0"]], "as drawn"), 16)
    def test_loads_bitwise_as_loadtxt(self, tmp_path_factory, table, block):
        rows, style = table
        if style == "repr":          # as write_graph writes a value
            rows = [[repr(float(t)) for t in row] for row in rows]
        elif style == "integers":
            rows = [[t.replace(".", "") for t in row] for row in rows]
        n = len(rows)
        d = write_dataset(tmp_path_factory.mktemp("t"), n, [(i, (i + 1) % n) for i in
                                                             range(n)], np.zeros((n, 1)),
                          labels=np.arange(n) % 3, n_classes=3)
        (d / "features.csv").write_text("".join(",".join(r) + "\n" for r in rows))
        meta = json.loads((d / "meta.json").read_text())
        (d / "meta.json").write_text(json.dumps({**meta, "n_features": len(rows[0])}))
        with mock.patch.object(graph, "_READ_BYTES", block):
            fast, slow = load_both(d)
            if style != "repr":
                assert graph._read_features(d / "features.csv", len(rows[0])) is not None
        assert not isinstance(slow, str)
        assert_same_graph(fast, slow)

    @pytest.mark.parametrize("edit", [
        lambda t: t.replace("\n", "\r\n"),
        lambda t: " " + t,
        lambda t: "-" + t,
        lambda t: "+" + t,
        lambda t: "1e3" + t[t.index(","):],
        lambda t: "nan" + t[t.index(","):],
        lambda t: ".5" + t[t.index(","):],
        lambda t: "5." + t[t.index(","):],
        lambda t: "1.2.5" + t[t.index(","):],
        lambda t: t[t.index(","):],
        lambda t: t[:-1],
        lambda t: t + "1\n",
        _move_first_token_up,
        lambda t: t.replace(",", ",0,"),
        lambda t: "",
        lambda t: "\xe9" + t[t.index(","):],
    ], ids=["crlf", "space", "minus", "plus", "exponent", "nan", "no_integer_part",
            "no_fraction_digits", "two_dots", "empty_token", "no_final_newline",
            "ragged_row", "rows_of_unequal_width", "wider_than_meta", "empty_file", "not_utf8"])
    def test_declined_file_reads_as_loadtxt_reads_it(self, tmp_path, edit):
        feats = np.zeros((6, 4))
        feats[::2, 1] = 1.0
        d = write_dataset(tmp_path / "d", 6, [(0, 1), (2, 5)], feats,
                          labels=[0, 1, 2, 0, 1, 2], n_classes=3)
        path = d / "features.csv"
        path.write_bytes(edit(path.read_text()).encode("latin-1"))
        assert graph._read_features(path, 4) is None
        fast, slow = load_both(d)
        if isinstance(slow, str):
            assert fast == slow
        else:
            assert_same_graph(fast, slow)

    @pytest.mark.parametrize("token", ["0." + "0" * 50_000 + "1", "0" * 50_000 + "12.5",
                                       "12345678901234567890123"],
                             ids=["long_fraction", "long_integer_part", "23_digits"])
    def test_long_token_loads_bitwise_as_loadtxt(self, tmp_path, token):
        feats = np.zeros((6, 4))
        feats[::2, 1] = 1.0
        d = write_dataset(tmp_path / "d", 6, [(0, 1), (2, 5)], feats,
                          labels=[0, 1, 2, 0, 1, 2], n_classes=3)
        path = d / "features.csv"
        text = path.read_text()
        path.write_text(token + text[text.index(","):])
        assert graph._read_features(path, 4) is not None
        fast, slow = load_both(d)
        assert not isinstance(slow, str)
        assert_same_graph(fast, slow)

    def test_benchmark_shaped_files_take_the_fast_path(self, tmp_path):
        g = random_graph(np.random.default_rng(16), n=30, f=200, word_rate=0.02)
        write_graph(g, tmp_path / "g")
        (tmp_path / "g" / "features.csv").write_text(   # as perfbench writes them
            "".join(",".join(str(int(v)) for v in row) + "\n" for row in g.features))
        assert graph._read_features(tmp_path / "g" / "features.csv", 200) is not None
        assert_same_graph(*load_both(tmp_path / "g"))


class TestBuildGraphFromSparse:
    @pytest.mark.parametrize("rate", [0.02, 0.3])
    def test_same_graph_as_from_the_dense_array(self, rate):
        feats = (np.random.default_rng(17).random((40, 30)) < rate) * 1.5
        ours = build_graph(40, [(0, 1)], sp.csr_matrix(feats), [0] * 40)
        assert_same_graph(ours, build_graph(40, [(0, 1)], feats, [0] * 40))
        assert sp.issparse(ours.x) == (rate < _SPARSE_BELOW)

    def test_explicit_zeros_and_duplicates_summed_without_touching_the_input(self):
        m = sp.csr_matrix((np.array([0.0, 1.0, 2.0]), np.array([0, 3, 3]),
                           np.array([0, 3] + [3] * 39)), shape=(40, 30))
        g = build_graph(40, [], m, [0] * 40)
        assert g.x.nnz == 1 and g.x[0, 3] == 3.0 and m.nnz == 3

    @pytest.mark.parametrize("value, message", [
        (np.nan, "non-finite feature nan at row 7, column 3"),
        (1e200, "the squared norm of feature row 7 overflows float64")])
    def test_checked_as_the_dense_array(self, value, message):
        feats = np.zeros((10, 100))
        feats[7, 3] = value
        with pytest.raises(FormatError, match=re.escape(message)):
            build_graph(10, [], sp.csr_matrix(feats))

    def test_shape_and_dtype_checked(self):
        with pytest.raises(FormatError, match=re.escape("got shape (9, 4)")):
            build_graph(10, [], sp.csr_matrix(np.ones((9, 4))))
        with pytest.raises(FormatError, match="must be numbers, got dtype complex"):
            build_graph(2, [], sp.csr_matrix(np.ones((2, 4), dtype=complex)))


class TestNormalizedAdjacency:
    def test_isolated_node_self_loop(self):
        g = build_graph(1, [], np.zeros((1, 2)))
        a = normalized_adjacency_sparse(g).toarray()
        assert np.array_equal(a, [[1.0]])

    def test_two_node_single_edge(self):
        g = build_graph(2, [(0, 1)], np.zeros((2, 2)))
        a = normalized_adjacency_sparse(g).toarray()
        assert np.abs(a - 0.5).max() < 1e-15

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, n=25, p_edge=0.2)
        a = normalized_adjacency_sparse(g).toarray()
        assert np.array_equal(a, a.T)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 30), n_isolated=st.integers(0, 5),
           p_edge=st.sampled_from([0.0, 0.1, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
    @example(n=6, n_isolated=2, p_edge=0.5, seed=0)
    def test_matches_dense_oracle(self, n, n_isolated, p_edge, seed):
        # the last n_isolated nodes get no edges; raw pairs may repeat or
        # come reversed, and the oracle reads them as a set
        rng = np.random.default_rng(seed)
        linked = max(n - n_isolated, 0)
        pairs = [(i, j) for i in range(linked) for j in range(linked)
                 if i != j and rng.random() < p_edge]
        g = build_graph(n, pairs, np.zeros((n, 1)))
        a = normalized_adjacency_sparse(g)
        assert a.format == "csr" and a.has_canonical_format
        assert a.nnz == 2 * g.n_edges + n
        assert np.allclose(a.toarray(), dense_normalized_adjacency(n, pairs),
                           rtol=1e-14, atol=0.0)
        for i in range(linked, n):
            assert a[i].toarray().ravel().tolist() == np.eye(n)[i].tolist()


def dense_normalized_adjacency(n, pairs):
    """D^-1/2 (A + I) D^-1/2 from an edge list, D the row sums of A + I."""
    a = np.zeros((n, n))
    for i, j in pairs:
        a[i, j] = a[j, i] = 1.0
    a += np.eye(n)
    d = a.sum(axis=1) ** -0.5
    return d[:, None] * a * d[None, :]


class TestSplits:
    def test_largest_remainder_cornell_sizes(self):
        assert _largest_remainder_sizes(183, (0.48, 0.32, 0.20)) == [88, 58, 37]

    def test_split_sizes_and_disjointness(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, n=183, n_classes=5)
        splits = make_splits(g, (0.48, 0.32, 0.20), n_splits=10, seed=4)
        assert len(splits) == 10
        for s in splits:
            assert len(s.train) == 88 and len(s.val) == 58 and len(s.test) == 37
            all_idx = np.concatenate([s.train, s.val, s.test])
            assert len(np.unique(all_idx)) == 183
            assert len(np.unique(g.labels[s.train])) == len(np.unique(g.labels))

    def test_same_seed_identical(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, n=60)
        a = make_splits(g, (0.5, 0.25, 0.25), 5, seed=9)
        b = make_splits(g, (0.5, 0.25, 0.25), 5, seed=9)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.train, s2.train)
            assert np.array_equal(s1.val, s2.val)
            assert np.array_equal(s1.test, s2.test)

    def test_degenerate_all_train(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, n=40)
        (s,) = make_splits(g, (1.0, 0.0, 0.0), 1, seed=0)
        assert len(s.train) == 40 and len(s.val) == 0 and len(s.test) == 0

    def test_unlabeled_rejected(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, n=10, labeled=False)
        with pytest.raises(ContractError):
            make_splits(g, (0.5, 0.25, 0.25), 1, seed=0)

    def test_non_integer_split_count_rejected(self):
        g = random_graph(np.random.default_rng(7), n=10)
        with pytest.raises(ContractError, match="n_splits"):
            make_splits(g, (0.5, 0.25, 0.25), 2.5, seed=0)

    @pytest.mark.parametrize("ratio", [(0.5, 0.5), (0.5, 0.25, 0.25, 0.0), 1.0])
    def test_ratio_not_three_fractions_rejected(self, ratio):
        g = random_graph(np.random.default_rng(7), n=10)
        with pytest.raises(ContractError, match="split ratio"):
            make_splits(g, ratio, 1, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_rejected(self, seed):
        g = random_graph(np.random.default_rng(7), n=10)
        with pytest.raises(ContractError, match="seed"):
            make_splits(g, (0.5, 0.25, 0.25), 1, seed=seed)


class TestNeighborhoodSimilarity:
    def test_identical_neighbor(self):
        feats = np.array([[1.0, 2.0], [1.0, 2.0]])
        g = build_graph(2, [(0, 1)], feats)
        sims, isolated = neighborhood_similarity(g)
        assert abs(sims[0] - 1.0) < 1e-12
        assert not isolated.any()

    def test_zero_sum_neighbors(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        g = build_graph(3, [(0, 1), (0, 2)], feats)
        sims, _ = neighborhood_similarity(g)
        assert sims[0] == 0.0

    def test_isolated_flagged(self):
        g = build_graph(3, [(0, 1)], np.eye(3))
        sims, isolated = neighborhood_similarity(g)
        assert isolated[2] and sims[2] == 0.0

    def test_path_graph_matches_scalar_oracle(self):
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(4, 6))
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)], feats)
        sims, _ = neighborhood_similarity(g)
        neighbors = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
        for i, nbrs in neighbors.items():
            mean = sum(feats[j] for j in nbrs) / len(nbrs)
            expect = feats[i] @ mean / (np.linalg.norm(feats[i]) * np.linalg.norm(mean))
            assert abs(sims[i] - expect) < 1e-12
