"""End-to-end acceptance checks, one test per criterion.

Run with `pytest -v tests/test_acceptance.py` for one pass/fail line each.
Criteria 5, 6 (benchmark part), and 7 need the real datasets under data/;
they skip with an explanatory message when those are not present.
"""

import numpy as np
import pytest

from nodefuse import (AugmentConfig, ContrastConfig, ControllerConfig,
                      EmbeddingSet, ModelDims, TrainConfig, Tensor, ari,
                      backward, clustering_accuracy, contrast_loss,
                      controller_lambda, controller_loss, drop_edges, embed,
                      encode_contextual, encode_semantic, evaluate_clustering,
                      fuse, init_params, kmeans, linear_probe, load_graph,
                      make_splits, mask_features, nmi, ntxent_pair_loss, train,
                      view_loss)
from nodefuse.cli import main
from nodefuse.graph import normalized_adjacency_sparse
from nodefuse.tensor import AdamState
from nodefuse.training import _step

from conftest import random_graph, require_dataset, write_dataset
from test_losses import oracle_controller, oracle_pair, oracle_view

DIMS = ModelDims(f_in=8, f_embed=5, f_proj=4, f_filter=3)


def _fd_max_rel_err(param_dict, loss_fn, h=1e-5):
    for t in param_dict.values():
        t.grad = None
    backward(loss_fn())
    worst = 0.0
    for t in param_dict.values():
        ad = t.grad if t.grad is not None else np.zeros_like(t.data)
        fd = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        fd_flat = fd.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = loss_fn().item()
            flat[k] = orig - h
            down = loss_fn().item()
            flat[k] = orig
            fd_flat[k] = (up - down) / (2.0 * h)
        denom = max(float(np.abs(fd).max()), 1e-6)
        worst = max(worst, float(np.abs(ad - fd).max()) / denom)
    return worst


def test_criterion_1_gradient_correctness():
    worst_contrast = 0.0
    worst_controller = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n=6, f=8)
        params = init_params(rng, DIMS)
        # jitter off the zero-bias init: an all-dead relu row projects to the
        # exact zero vector, where the zero-norm cosine convention makes the
        # loss discontinuous and finite differences meaningless
        for t in params.all_params().values():
            t.data += rng.normal(0.0, 0.05, size=t.data.shape)
        x = Tensor(g.features)
        adj = normalized_adjacency_sparse(g)
        x_aug = Tensor(mask_features(g.features, 0.3, rng))
        adj_aug = normalized_adjacency_sparse(drop_edges(g, 0.3, rng))
        lam = Tensor(rng.uniform(0.1, 0.9, size=(6, 1)))
        ccfg = ContrastConfig(tau=0.5, beta1=0.7, beta2=1.3)

        def closs():
            h_s = encode_semantic(params, x)
            h_sa = encode_semantic(params, x_aug)
            h_c = encode_contextual(params, x, adj)
            h_ca = encode_contextual(params, x, adj_aug)
            emb = EmbeddingSet(h_s, h_sa, h_c, h_ca,
                               fuse(h_s, h_c, lam), fuse(h_sa, h_ca, lam))
            return contrast_loss(emb, params, ccfg)

        worst_contrast = max(worst_contrast,
                             _fd_max_rel_err(params.contrast_params(), closs))

        pcfg = ControllerConfig(alpha1=2.0, alpha2=3.0, epsilon=0.4)

        def ploss():
            h_s = encode_semantic(params, x)
            h_c = encode_contextual(params, x, adj)
            w = controller_lambda(params, h_s, h_c, g.degree)
            return controller_loss(w, h_s, h_c, pcfg)

        worst_controller = max(worst_controller,
                               _fd_max_rel_err(params.controller_params(), ploss))
    assert worst_contrast < 1e-4
    assert worst_controller < 1e-4


def test_criterion_2_loss_oracle_equivalence():
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 11))
        z = rng.normal(size=(n, 5))
        za = rng.normal(size=(n, 5))
        tau = float(rng.uniform(0.2, 1.5))
        i = int(rng.integers(n))
        assert abs(ntxent_pair_loss(z, za, i, tau)
                   - oracle_pair(z, za, i, tau)) < 1e-9
        assert abs(view_loss(Tensor(z), Tensor(za), tau).item()
                   - oracle_view(z, za, tau)) < 1e-9

        params = init_params(rng, DIMS)
        mk = lambda: rng.normal(size=(n, 5))
        h = {k: mk() for k in ("s", "sa", "c", "ca", "f", "fa")}
        emb = EmbeddingSet(*(Tensor(h[k]) for k in ("s", "sa", "c", "ca", "f", "fa")))
        b1, b2 = float(rng.uniform(0, 2)), float(rng.uniform(0, 2))
        got = contrast_loss(emb, params, ContrastConfig(tau=tau, beta1=b1, beta2=b2)).item()

        def proj(a):
            hidden = np.maximum(a @ params.proj_w1.data + params.proj_b1.data, 0.0)
            return hidden @ params.proj_w2.data + params.proj_b2.data

        expect = (oracle_view(proj(h["s"]), proj(h["sa"]), tau)
                  + b1 * oracle_view(proj(h["c"]), proj(h["ca"]), tau)
                  + b2 * oracle_view(proj(h["f"]), proj(h["fa"]), tau))
        assert abs(got - expect) < 1e-9

        lam = rng.uniform(0.05, 0.95, size=n)
        pcfg = ControllerConfig(alpha1=float(rng.uniform(0, 3)),
                                alpha2=float(rng.uniform(0, 3)),
                                epsilon=float(rng.uniform(0.1, 0.9)))
        got_c = controller_loss(Tensor(lam.reshape(-1, 1)), Tensor(z),
                                Tensor(za), pcfg).item()
        assert abs(got_c - oracle_controller(lam, z, za, pcfg)) < 1e-9


def test_criterion_3_controller_constraint():
    n = 30
    for eps in (0.2, 0.5, 0.8):
        rng = np.random.default_rng(3)
        params = init_params(rng, DIMS)
        # rowwise-orthogonal views zero out the similarity term exactly
        hs = Tensor(np.concatenate([rng.normal(size=(n, 3)), np.zeros((n, 2))], axis=1))
        hc = Tensor(np.concatenate([np.zeros((n, 3)), rng.normal(size=(n, 2))], axis=1))
        degree = rng.integers(1, 10, size=n)
        cfg = ControllerConfig(alpha1=0.0, alpha2=1e4, epsilon=eps)
        state = AdamState()
        pparams = params.controller_params()
        for _ in range(200):
            weights = controller_lambda(params, hs, hc, degree)
            loss = controller_loss(weights, hs, hc, cfg)
            for t in pparams.values():
                t.grad = None
            backward(loss)
            _step(pparams, state, 0.01)
        final = controller_lambda(params, hs, hc, degree).values.mean()
        assert abs(final - eps) <= 0.05, f"eps={eps}: mean lambda {final:.4f}"


def test_criterion_4_phase_isolation():
    g = random_graph(np.random.default_rng(0), n=20, f=10)
    snapshots = []

    def hook(epoch, phase, params):
        snapshots.append((phase, {k: t.data.copy()
                                  for k, t in params.all_params().items()}))

    train(g, TrainConfig(dims=(6, 4, 3), epochs=10, patience=None),
          phase_hook=hook)
    assert len(snapshots) == 20
    ctrl = {"filt_s", "filt_c", "ctrl_w1", "ctrl_b1", "ctrl_w2", "ctrl_b2"}
    prev = None
    for phase, snap in snapshots:
        if prev is not None:
            moved = {k for k in snap if not np.array_equal(snap[k], prev[k])}
            if phase == "contrast":
                assert not (moved & ctrl), f"controller moved in contrast phase: {moved & ctrl}"
            else:
                assert moved <= ctrl, f"encoder/projector moved in controller phase: {moved - ctrl}"
        prev = snap


BENCH_CFG = dict(epochs=200, patience=50, precision="float32",
                 dims=(256, 64, 30),
                 contrast=ContrastConfig(tau=0.5, beta1=1.0, beta2=1.0),
                 augment=AugmentConfig(p_s=0.3, p_c=0.3))


def _probe_mean(g, splits, **over):
    kwargs = dict(BENCH_CFG)
    kwargs.update(over)
    report = train(g, TrainConfig(**kwargs))
    reps = embed(g, report.params,
                 fixed_lambda=kwargs.get("fixed_lambda"))
    return linear_probe(reps, g.labels, splits).mean


def test_criterion_5_desk_scale_reproduction():
    results = {}
    for name in ("texas", "cornell", "wisconsin"):
        d = require_dataset(name)
        g = load_graph(d)
        splits = make_splits(g, (0.48, 0.32, 0.20), n_splits=10, seed=0)
        full = _probe_mean(g, splits, seed=0)
        contextual_only = _probe_mean(g, splits, seed=0, fixed_lambda=1.0,
                                      include_semantic=False)
        results[name] = (full, contextual_only)
        assert full >= 0.78, f"{name}: mean accuracy {full:.4f} < 0.78"
        assert full - contextual_only >= 0.03, (
            f"{name}: full {full:.4f} vs contextual-only {contextual_only:.4f}")


def test_criterion_6_clustering_metrics():
    import itertools
    rng = np.random.default_rng(6)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(k, 20))
        pred = rng.integers(0, k, size=n)
        truth = rng.integers(0, k, size=n)
        best = max(
            sum(int(m[p] == t) for p, t in zip(pred, truth))
            for m in itertools.permutations(range(k))
        ) / n
        assert clustering_accuracy(pred, truth) == pytest.approx(best, abs=1e-15)

    # documented 6-point case, contingency [[2,1,0],[0,1,2]]
    pred = np.array([0, 0, 0, 1, 1, 1])
    truth = np.array([0, 0, 1, 1, 2, 2])
    expected_index = 6.0 * 3.0 / 15.0
    ari_hand = (2.0 - expected_index) / (0.5 * (6.0 + 3.0) - expected_index)
    assert abs(ari(pred, truth) - ari_hand) < 1e-12
    mi_hand = (2.0 / 3.0) * np.log(2.0)
    nmi_hand = mi_hand / np.sqrt(np.log(2.0) * np.log(3.0))
    assert abs(nmi(pred, truth) - nmi_hand) < 1e-12

    d = require_dataset("texas")
    g = load_graph(d)
    baseline = evaluate_clustering(g.features, g.labels, seed=0).acc
    report = train(g, TrainConfig(seed=0, **BENCH_CFG))
    reps = embed(g, report.params)
    learned = evaluate_clustering(reps, g.labels, seed=0).acc
    assert learned > baseline, f"learned {learned:.4f} <= raw baseline {baseline:.4f}"


def test_criterion_7_ablation_direction():
    d = require_dataset("texas")
    g = load_graph(d)
    splits = make_splits(g, (0.48, 0.32, 0.20), n_splits=10, seed=0)
    full = _probe_mean(g, splits, seed=0)
    ablations = {
        "no_semantic": dict(include_semantic=False),
        "no_context": dict(include_context=False),
        "no_fusion": dict(include_fusion=False),
        "fixed_lambda_one": dict(fixed_lambda=1.0),
    }
    for label, over in ablations.items():
        mean = _probe_mean(g, splits, seed=0, **over)
        assert full >= mean - 0.01, (
            f"{label}: full {full:.4f} < ablation {mean:.4f} - 0.01")


def test_criterion_8_efficiency():
    rng = np.random.default_rng(8)
    n, target_edges, f = 5000, 200_000, 1000
    pairs = rng.integers(0, n, size=(int(target_edges * 1.2), 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    pairs = np.unique(np.sort(pairs, axis=1), axis=0)[:target_edges]
    assert len(pairs) == target_edges
    from nodefuse import build_graph
    g = build_graph(n, pairs, rng.normal(size=(n, f)).astype(np.float32))
    cfg = TrainConfig(dims=(256, 64, 30), epochs=5, patience=None,
                      precision="float32")
    report = train(g, cfg)
    # median over epochs; the first epoch pays one-off allocation costs
    per_epoch = sorted(r.seconds for r in report.records)[len(report.records) // 2]
    assert per_epoch <= 5.0, f"median epoch took {per_epoch:.2f}s"


def test_criterion_9_determinism(tmp_path):
    import json
    rng = np.random.default_rng(9)
    g = random_graph(rng, n=15, f=6, n_classes=3)
    d = write_dataset(tmp_path / "data", g.n_nodes, [tuple(e) for e in g.edges],
                      g.features, labels=g.labels, n_classes=3, name="toy")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "dataset_dir": str(d),
        "seed": 0,
        "train": {"epochs": 5, "dims": [5, 4, 3]},
    }))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["eval", "--checkpoint", str(out / "model.ckpt"),
                     "--dataset", str(d), "--task", "classify",
                     "--n-splits", "3", "--ratio", "60/20/20",
                     "--out", str(out)]) == 0
        outs.append(out)
    a, b = outs
    for name in ("train_report.jsonl", "model.ckpt", "eval_results.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
