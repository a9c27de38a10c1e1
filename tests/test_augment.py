import numpy as np
import pytest

from nodefuse import AugmentConfig, build_graph, drop_edges, mask_features
from nodefuse.errors import ContractError

from conftest import random_graph


class TestMaskFeatures:
    def test_p_zero_noop(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 8))
        out = mask_features(x, 0.0, np.random.default_rng(1))
        assert np.array_equal(out, x)

    def test_same_seed_same_columns(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 30))
        a = mask_features(x, 0.4, np.random.default_rng(7))
        b = mask_features(x, 0.4, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_mask_shared_across_rows(self):
        x = np.ones((10, 50))
        out = mask_features(x, 0.5, np.random.default_rng(2))
        # every row loses exactly the same columns
        assert np.array_equal(out, np.tile(out[0], (10, 1)))

    def test_masked_fraction_concentrates(self):
        x = np.ones((1, 10_000))
        out = mask_features(x, 0.5, np.random.default_rng(3))
        frac = (out == 0).mean()
        assert 0.47 <= frac <= 0.53

    def test_unmasked_columns_untouched(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 100))
        out = mask_features(x, 0.3, np.random.default_rng(5))
        kept = out[0] != 0
        assert np.array_equal(out[:, kept], x[:, kept])

    def test_invalid_probability(self):
        with pytest.raises(ContractError):
            mask_features(np.ones((2, 2)), 1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("shape", [(4,), (), (2, 2, 2)])
    def test_not_2d_rejected(self, shape):
        with pytest.raises(ContractError, match="2-D"):
            mask_features(np.ones(shape), 0.3, np.random.default_rng(0))


class TestDropEdges:
    def test_p_zero_noop(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, n=15)
        out = drop_edges(g, 0.0, np.random.default_rng(0))
        assert np.array_equal(out.edges, g.edges)

    def test_kept_fraction_concentrates(self):
        # graph with exactly 10^4 undirected edges
        edges = []
        n = 150
        for i in range(n):
            for j in range(i + 1, n):
                edges.append((i, j))
                if len(edges) == 10_000:
                    break
            if len(edges) == 10_000:
                break
        g = build_graph(n, edges, np.zeros((n, 2)))
        out = drop_edges(g, 0.3, np.random.default_rng(7))
        frac = out.n_edges / g.n_edges
        assert 0.686 <= frac <= 0.714

    def test_never_adds_edges(self):
        rng = np.random.default_rng(8)
        g = random_graph(rng, n=20)
        out = drop_edges(g, 0.5, np.random.default_rng(9))
        original = {tuple(e) for e in g.edges}
        assert all(tuple(e) in original for e in out.edges)

    def test_degrees_recomputed(self):
        rng = np.random.default_rng(10)
        g = random_graph(rng, n=20)
        out = drop_edges(g, 0.5, np.random.default_rng(11))
        deg = np.zeros(20, dtype=int)
        for i, j in out.edges:
            deg[i] += 1
            deg[j] += 1
        assert np.array_equal(out.degree, deg)

    def test_shares_features_and_labels(self):
        rng = np.random.default_rng(12)
        for g in (random_graph(rng, n=10), random_graph(rng, n=10, f=40, word_rate=0.03)):
            out = drop_edges(g, 0.2, np.random.default_rng(13))
            assert out.x is g.x     # the stored features, dense or CSR
            assert out.labels is g.labels

    def test_pure_given_seed(self):
        rng = np.random.default_rng(14)
        g = random_graph(rng, n=25)
        a = drop_edges(g, 0.4, np.random.default_rng(21))
        b = drop_edges(g, 0.4, np.random.default_rng(21))
        assert np.array_equal(a.edges, b.edges)


def test_config_validates_probabilities():
    with pytest.raises(ContractError):
        AugmentConfig(p_s=1.0)
    with pytest.raises(ContractError):
        AugmentConfig(p_c=-0.1)


@pytest.mark.parametrize("value", [float("nan"), True, False, "0.3"])
@pytest.mark.parametrize("field", ["p_s", "p_c"])
def test_config_rejects_non_numbers(field, value):
    with pytest.raises(ContractError, match=field):
        AugmentConfig(**{field: value})
