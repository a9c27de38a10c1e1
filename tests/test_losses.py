import re
import warnings

import numpy as np
import pytest

from nodefuse import (ContrastConfig, ControllerConfig, ModelDims, Tensor,
                      backward, contrast_loss, controller_lambda,
                      controller_loss, fuse, init_params, ntxent_pair_loss,
                      project, view_loss)
from nodefuse import tensor as T
from nodefuse.errors import ContractError
from nodefuse.model import first_layer_product


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

    @pytest.mark.parametrize("i, tau, shape", [
        (0, 0.0, (4, 3)), (0, -1.0, (4, 3)), (0, np.nan, (4, 3)),
        (4, 0.5, (4, 3)), (-1, 0.5, (4, 3)), (1.5, 0.5, (4, 3)), (True, 0.5, (4, 3)),
        (0, 0.5, (4,))])
    def test_bad_arguments_rejected(self, i, tau, shape):
        z = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
        with pytest.raises(ContractError):
            ntxent_pair_loss(z, z[::-1].copy(), i, tau)

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
        """Params, the encoding pairs, and the pairs of their projector
        inputs h @ proj_w1, as contrast_loss takes them."""
        rng = np.random.default_rng(seed)
        dims = ModelDims(f_in=6, f_embed=5, f_proj=4, f_filter=3)
        params = init_params(rng, dims)
        mk = lambda: Tensor(rng.normal(size=(n, 5)))
        h_s, h_sa, h_c, h_ca = mk(), mk(), mk(), mk()
        lam = Tensor(rng.uniform(0.1, 0.9, size=(n, 1)))
        pairs = ((h_s, h_sa), (h_c, h_ca), (fuse(h_s, h_c, lam), fuse(h_sa, h_ca, lam)))
        heads = tuple(tuple(T.matmul(h, params.proj_w1) for h in pair) for pair in pairs)
        return params, pairs, heads

    def test_beta_zero_equals_semantic_alone(self):
        params, _, heads = self._setup(0)
        cfg = ContrastConfig(tau=0.5, beta1=0.0, beta2=0.0)
        total = contrast_loss(heads, params, cfg).item()
        (a_s, a_s_aug), _, _ = heads
        ls = view_loss(project(params, a_s), project(params, a_s_aug), 0.5).item()
        assert total == ls

    def test_equals_weighted_sum_of_views(self):
        params, _, heads = self._setup(1)
        cfg = ContrastConfig(tau=0.7, beta1=0.3, beta2=2.0)
        total = contrast_loss(heads, params, cfg).item()
        (a_s, a_s_aug), (a_c, a_c_aug), (a_f, a_f_aug) = heads
        ls = view_loss(project(params, a_s), project(params, a_s_aug), 0.7).item()
        lc = view_loss(project(params, a_c), project(params, a_c_aug), 0.7).item()
        lf = view_loss(project(params, a_f), project(params, a_f_aug), 0.7).item()
        assert abs(total - (ls + 0.3 * lc + 2.0 * lf)) < 1e-12

    def test_matches_full_scalar_oracle(self):
        params, pairs, heads = self._setup(2)
        cfg = ContrastConfig(tau=0.5, beta1=0.4, beta2=1.1)
        total = contrast_loss(heads, params, cfg).item()
        (h_s, h_s_aug), (h_c, h_c_aug), (h_f, h_f_aug) = pairs

        def proj(h):
            w1, b1 = params.proj_w1.data, params.proj_b1.data
            w2, b2 = params.proj_w2.data, params.proj_b2.data
            return np.maximum(h @ w1 + b1, 0.0) @ w2 + b2

        expect = (oracle_view(proj(h_s.data), proj(h_s_aug.data), 0.5)
                  + 0.4 * oracle_view(proj(h_c.data), proj(h_c_aug.data), 0.5)
                  + 1.1 * oracle_view(proj(h_f.data), proj(h_f_aug.data), 0.5))
        assert abs(total - expect) < 1e-9

    def test_all_terms_disabled_rejected(self):
        params, _, heads = self._setup(3)
        with pytest.raises(ContractError):
            contrast_loss(heads, params, ContrastConfig(include_semantic=False,
                                                        beta1=0.0, beta2=0.0))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                   True, False])
@pytest.mark.parametrize("config, field", [
    (ContrastConfig, "tau"), (ContrastConfig, "beta1"), (ContrastConfig, "beta2"),
    (ControllerConfig, "alpha1"), (ControllerConfig, "alpha2"),
    (ControllerConfig, "epsilon")],
    ids=["tau", "beta1", "beta2", "alpha1", "alpha2", "epsilon"])
def test_non_finite_config_value_rejected(config, field, value):
    # NaN passes a `< 0` check, tau=inf trains at a constant loss, and a
    # bool is an int to Python: tau=True trained at tau 1
    with pytest.raises(ContractError, match=field):
        config(**{field: value})


@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf"), True])
def test_view_loss_bad_tau_rejected(tau):
    # unchecked, tau=0 divides by zero, NaN gives a NaN loss and -1 a finite one
    z = Tensor(np.random.default_rng(4).normal(size=(5, 3)))
    with pytest.raises(ContractError, match="tau"):
        view_loss(z, T.scale(z, 2.0), tau)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_view_loss_of_a_non_finite_row_is_nan_without_a_warning(value):
    # an infinite entry warned "invalid value encountered in multiply" in
    # normalize_rows; NaN already gave NaN quietly
    z = np.random.default_rng(4).normal(size=(5, 3))
    z[2, 1] = value
    assert np.isnan(view_loss(Tensor(z), Tensor(z[::-1].copy()), 0.5).item())


def test_numpy_and_int_config_values_accepted():
    assert ContrastConfig(tau=np.float32(0.5), beta1=np.int64(2), beta2=0).tau == 0.5
    assert ControllerConfig(alpha1=1, epsilon=np.float64(0.25)).alpha1 == 1
    assert not ContrastConfig(include_semantic=np.bool_(False)).include_semantic


@pytest.mark.parametrize("value", ["no", 1, 0, 1.0, None, np.int64(1)])
def test_include_semantic_takes_only_a_bool(value):
    # it is the semantic term's weight, read as 1 or 0: "no" was taken as true
    with pytest.raises(ContractError, match="include_semantic") as info:
        ContrastConfig(include_semantic=value)
    assert info.value.field == "include_semantic"


def test_contrast_loss_takes_three_pairs():
    rng = np.random.default_rng(5)
    params = init_params(rng, ModelDims(f_in=6, f_embed=5, f_proj=4, f_filter=3))
    h = Tensor(rng.normal(size=(4, 5)))
    with pytest.raises(ContractError, match="3 encoding pairs, got 2"):
        contrast_loss(((h, h), (h, h)), params, ContrastConfig())


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
        pairs = ((h_s, h_s), (h_c, h_c),
                 (fuse(h_s, h_c, lam_const), fuse(h_s, h_c, lam_const)))
        heads = tuple(tuple(T.matmul(h, params.proj_w1) for h in pair) for pair in pairs)
        backward(contrast_loss(heads, params, ContrastConfig()))
        for t in params.controller_params().values():
            assert t.grad is None
        assert params.enc_w1.grad is not None

    def test_controller_loss_never_touches_omega_mu(self):
        params, g, h_s, h_c, weights = self._full_setup(1)
        backward(controller_loss(weights.lam, h_s, h_c, ControllerConfig()))
        for t in params.contrast_params().values():
            assert t.grad is None
        for t in params.controller_params().values():
            assert t.grad is not None


def _zeros(*shape):
    return Tensor(np.zeros(shape))


def _sizes(*sizes):
    return tuple(rf"\b{n}\b" for n in sizes)


@pytest.mark.parametrize("call, fragments", [
    (lambda p: fuse(_zeros(7, 6), _zeros(5, 6), _zeros(7, 1)), _sizes(7, 5)),
    (lambda p: fuse(_zeros(7, 6), _zeros(7, 9), _zeros(7, 1)), _sizes(6, 9)),
    (lambda p: view_loss(_zeros(1, 6), _zeros(1, 6), 0.5), ("at least 2",)),
    (lambda p: view_loss(_zeros(7, 6), _zeros(7, 9), 0.5), _sizes(6, 9)),
    (lambda p: project(p, _zeros(7, 9)), _sizes(4, 9)),
    (lambda p: controller_lambda(p, _zeros(7, 6), _zeros(5, 6), np.ones(7)), _sizes(7, 5)),
    (lambda p: controller_lambda(p, _zeros(7, 6), _zeros(7, 9), np.ones(7)), _sizes(6, 9)),
    (lambda p: controller_lambda(p, _zeros(7, 6), _zeros(7, 6), np.ones(5)), _sizes(5, 7)),
    (lambda p: controller_lambda(p, _zeros(7, 6), _zeros(7, 6), 3.0), _sizes(1, 7)),
    (lambda p: controller_lambda(p, _zeros(3, 6), _zeros(3, 6), ["a", "b", "c"]),
     (r"\(3,\)", "<U1")),
    (lambda p: controller_lambda(p, _zeros(1, 6), _zeros(1, 6), 3.0), (r"\(\)", "float64")),
    (lambda p: controller_loss(_zeros(1, 1), _zeros(7, 6), _zeros(7, 6), ControllerConfig()),
     _sizes(1, 7)),
    (lambda p: first_layer_product(p, _zeros(7, 7)), _sizes(7, 8)),
], ids=["fuse-rows", "fuse-cols", "view_loss-one-row", "view_loss-shapes",
        "project-width", "controller_lambda-rows", "controller_lambda-cols",
        "controller_lambda-short-degree", "controller_lambda-scalar-degree",
        "controller_lambda-string-degree", "controller_lambda-scalar-degree-one-row",
        "controller_loss-lambda", "first_layer_product-width"])
def test_shape_fault_is_a_contract_error_naming_the_sizes(call, fragments):
    params = init_params(np.random.default_rng(0),
                         ModelDims(f_in=8, f_embed=6, f_proj=4, f_filter=3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError) as info:
            call(params)
    for fragment in fragments:
        assert re.search(fragment, str(info.value)), (fragment, str(info.value))
