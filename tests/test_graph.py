import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodefuse import (Tensor, build_graph, load_graph, make_splits,
                      neighborhood_similarity, write_graph)
from nodefuse.errors import ContractError, FormatError, LoadError
from nodefuse.graph import _largest_remainder_sizes, normalized_adjacency_sparse

from conftest import MALFORMED, random_graph, write_dataset


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

    @pytest.mark.parametrize("key", ["n_nodes", "n_features", "n_classes"])
    def test_missing_meta_key_named(self, tmp_path, key):
        d = write_dataset(tmp_path / "toy", 2, [(0, 1)], np.zeros((2, 2)))
        MALFORMED[f"meta_missing_{key}"](d)
        with pytest.raises(FormatError, match=key):
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

    def test_without_self_loops_isolated_row_zero(self):
        g = build_graph(3, [(0, 1)], np.zeros((3, 2)))
        a = normalized_adjacency_sparse(g, add_self_loops=False).toarray()
        assert np.array_equal(a[2], np.zeros(3))


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
