import numpy as np
import pytest

from nodefuse import (ContrastConfig, ControllerConfig, EmbeddingSet,
                      ModelDims, Tensor, backward, contrast_loss,
                      controller_loss, fuse, init_params, ntxent_pair_loss,
                      project, view_loss)
from nodefuse import tensor as T
from nodefuse.errors import ContractError


def oracle_cos(a, b):
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    return float(a @ b / (na * nb))


def oracle_pair(z, za, i, tau):
    """Scalar re-implementation of the pairwise loss, no vectorization."""
    n = len(z)
    denom = 0.0
    for j in range(n):
        if j != i:
            denom += np.exp(oracle_cos(z[i], z[j]) / tau)
    for j in range(n):
        denom += np.exp(oracle_cos(z[i], za[j]) / tau)
    return float(-np.log(np.exp(oracle_cos(z[i], za[i]) / tau) / denom))


def oracle_view(z, za, tau):
    n = len(z)
    total = 0.0
    for i in range(n):
        total += oracle_pair(z, za, i, tau)
        total += oracle_pair(za, z, i, tau)
    return total / (2 * n)


def oracle_controller(lam, hs, hc, cfg):
    total = sum(lam[i] * oracle_cos(hs[i], hc[i]) for i in range(len(lam)))
    total += cfg.alpha1 * np.sqrt(sum(v * v for v in lam))
    total += cfg.alpha2 * abs(sum(lam) / len(lam) - cfg.epsilon)
    return float(total)


class TestPairLoss:
    def test_constructed_two_node_closed_form(self):
        tau = 0.5
        z = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        za = np.array([[1.0, 0, 0], [0, 0, 1.0]])
        got = ntxent_pair_loss(z, za, 0, tau)
        expect = -np.log(np.exp(1 / tau) / (np.exp(0.0) + np.exp(1 / tau) + np.exp(0.0)))
        assert abs(got - expect) < 1e-12

    def test_matches_oracle_random(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = rng.integers(2, 9)
            z = rng.normal(size=(n, 6))
            za = rng.normal(size=(n, 6))
            tau = rng.uniform(0.2, 1.5)
            i = int(rng.integers(n))
            assert abs(ntxent_pair_loss(z, za, i, tau)
                       - oracle_pair(z, za, i, tau)) < 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(4, 5))
        za = rng.normal(size=(4, 5))
        a = ntxent_pair_loss(z, za, 2, 0.7)
        b = ntxent_pair_loss(3.5 * z, 3.5 * za, 2, 0.7)
        assert abs(a - b) < 1e-10

    def test_single_node_rejected(self):
        with pytest.raises(ContractError):
            ntxent_pair_loss(np.ones((1, 3)), np.ones((1, 3)), 0, 0.5)

    def test_temperature_monotonicity(self):
        # positive pair strictly most similar: smaller tau sharpens, loss drops
        rng = np.random.default_rng(4)
        z = rng.normal(size=(5, 6))
        za = z + 0.01 * rng.normal(size=(5, 6))
        assert ntxent_pair_loss(z, za, 1, 0.2) < ntxent_pair_loss(z, za, 1, 0.5)


class TestViewLoss:
    def test_symmetry_under_swap(self):
        rng = np.random.default_rng(5)
        z = Tensor(rng.normal(size=(6, 4)))
        za = Tensor(rng.normal(size=(6, 4)))
        a = view_loss(z, za, 0.6).item()
        b = view_loss(za, z, 0.6).item()
        assert abs(a - b) < 1e-12

    def test_matches_pairwise_mean(self):
        for seed in range(8):
            rng = np.random.default_rng(20 + seed)
            n = rng.integers(2, 11)
            z = rng.normal(size=(n, 5))
            za = rng.normal(size=(n, 5))
            tau = rng.uniform(0.2, 1.5)
            got = view_loss(Tensor(z), Tensor(za), tau).item()
            assert abs(got - oracle_view(z, za, tau)) < 1e-9

    def test_constructed_two_node_value(self):
        tau = 0.5
        z = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        za = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]])
        got = view_loss(Tensor(z), Tensor(za), tau).item()
        assert abs(got - oracle_view(z, za, tau)) < 1e-12


class TestContrastLoss:
    def _setup(self, seed, n=5):
        rng = np.random.default_rng(seed)
        dims = ModelDims(f_in=6, f_embed=5, f_proj=4, f_filter=3)
        params = init_params(rng, dims)
        mk = lambda: Tensor(rng.normal(size=(n, 5)))
        h_s, h_sa, h_c, h_ca = mk(), mk(), mk(), mk()
        lam = Tensor(rng.uniform(0.1, 0.9, size=(n, 1)))
        emb = EmbeddingSet(h_s, h_sa, h_c, h_ca,
                           fuse(h_s, h_c, lam), fuse(h_sa, h_ca, lam))
        return params, emb

    def test_beta_zero_equals_semantic_alone(self):
        params, emb = self._setup(0)
        cfg = ContrastConfig(tau=0.5, beta1=0.0, beta2=0.0)
        total = contrast_loss(emb, params, cfg).item()
        ls = view_loss(project(params, emb.h_s), project(params, emb.h_s_aug),
                       0.5).item()
        assert abs(total - ls) < 1e-12

    def test_equals_weighted_sum_of_views(self):
        params, emb = self._setup(1)
        cfg = ContrastConfig(tau=0.7, beta1=0.3, beta2=2.0)
        total = contrast_loss(emb, params, cfg).item()
        ls = view_loss(project(params, emb.h_s), project(params, emb.h_s_aug), 0.7).item()
        lc = view_loss(project(params, emb.h_c), project(params, emb.h_c_aug), 0.7).item()
        lf = view_loss(project(params, emb.h_f), project(params, emb.h_f_aug), 0.7).item()
        assert abs(total - (ls + 0.3 * lc + 2.0 * lf)) < 1e-12

    def test_matches_full_scalar_oracle(self):
        params, emb = self._setup(2)
        cfg = ContrastConfig(tau=0.5, beta1=0.4, beta2=1.1)
        total = contrast_loss(emb, params, cfg).item()

        def proj(h):
            w1, b1 = params.proj_w1.data, params.proj_b1.data
            w2, b2 = params.proj_w2.data, params.proj_b2.data
            return np.maximum(h @ w1 + b1, 0.0) @ w2 + b2

        expect = (oracle_view(proj(emb.h_s.data), proj(emb.h_s_aug.data), 0.5)
                  + 0.4 * oracle_view(proj(emb.h_c.data), proj(emb.h_c_aug.data), 0.5)
                  + 1.1 * oracle_view(proj(emb.h_f.data), proj(emb.h_f_aug.data), 0.5))
        assert abs(total - expect) < 1e-9

    def test_all_terms_disabled_rejected(self):
        params, emb = self._setup(3)
        with pytest.raises(ContractError):
            contrast_loss(emb, params, ContrastConfig(), include_semantic=False,
                          include_context=False, include_fusion=False)


class TestControllerLoss:
    def test_zero_lambda_limit(self):
        rng = np.random.default_rng(6)
        hs = Tensor(rng.normal(size=(4, 5)))
        hc = Tensor(rng.normal(size=(4, 5)))
        cfg = ControllerConfig(alpha1=3.0, alpha2=7.0, epsilon=0.4)
        lam = Tensor(np.zeros((4, 1)))
        got = controller_loss(lam, hs, hc, cfg).item()
        assert abs(got - 7.0 * 0.4) < 1e-12

    def test_orthogonal_views_zero_similarity(self):
        hs = Tensor(np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]))
        hc = Tensor(np.array([[0, 0, 1.0, 0], [0, 0, 0, 1.0]]))
        cfg = ControllerConfig(alpha1=0.0, alpha2=0.0, epsilon=0.5)
        lam = Tensor(np.random.default_rng(7).uniform(size=(2, 1)))
        assert abs(controller_loss(lam, hs, hc, cfg).item()) < 1e-12

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(8)
        hs = rng.normal(size=(4, 5))
        hc = rng.normal(size=(4, 5))
        lam = rng.uniform(0.05, 0.95, size=4)
        cfg = ControllerConfig(alpha1=1.7, alpha2=2.3, epsilon=0.6)
        got = controller_loss(Tensor(lam.reshape(-1, 1)), Tensor(hs),
                              Tensor(hc), cfg).item()
        assert abs(got - oracle_controller(lam, hs, hc, cfg)) < 1e-12

    def test_similarity_term_monotone_in_lambda(self):
        rng = np.random.default_rng(9)
        hs = rng.normal(size=(3, 5))
        hc = hs + 0.1 * rng.normal(size=(3, 5))  # positive similarities
        cfg = ControllerConfig(alpha1=0.0, alpha2=0.0, epsilon=0.5)
        lam = rng.uniform(0.2, 0.5, size=(3, 1))
        base = controller_loss(Tensor(lam), Tensor(hs), Tensor(hc), cfg).item()
        bumped = lam.copy()
        bumped[1, 0] += 0.2
        assert controller_loss(Tensor(bumped), Tensor(hs), Tensor(hc),
                               cfg).item() > base


class TestGradientIsolation:
    def _full_setup(self, seed=0, n=6):
        rng = np.random.default_rng(seed)
        dims = ModelDims(f_in=6, f_embed=5, f_proj=4, f_filter=3)
        params = init_params(rng, dims)
        from nodefuse import controller_lambda, encode_contextual, encode_semantic
        from nodefuse.graph import normalized_adjacency_sparse
        from conftest import random_graph
        g = random_graph(rng, n=n, f=6)
        x = Tensor(g.features)
        adj = normalized_adjacency_sparse(g)
        h_s = encode_semantic(params, x)
        h_c = encode_contextual(params, x, adj)
        weights = controller_lambda(params, h_s, h_c, g.degree)
        return params, g, h_s, h_c, weights

    def test_contrast_loss_never_touches_phi(self):
        params, g, h_s, h_c, weights = self._full_setup()
        lam_const = weights.lam.detach()
        emb = EmbeddingSet(h_s, h_s, h_c, h_c,
                           fuse(h_s, h_c, lam_const), fuse(h_s, h_c, lam_const))
        backward(contrast_loss(emb, params, ContrastConfig()))
        for t in params.controller_params().values():
            assert t.grad is None
        assert params.enc_w1.grad is not None

    def test_controller_loss_never_touches_omega_mu(self):
        params, g, h_s, h_c, weights = self._full_setup(1)
        backward(controller_loss(weights, h_s, h_c, ControllerConfig()))
        for t in params.contrast_params().values():
            assert t.grad is None
        for t in params.controller_params().values():
            assert t.grad is not None
