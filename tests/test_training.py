import weakref

import numpy as np
import pytest

from nodefuse import (AugmentConfig, ContrastConfig, ControllerConfig,
                      TrainConfig, Tensor, embed, encode_semantic, train)
from nodefuse import tensor as T
from nodefuse.errors import ContractError

from conftest import random_graph

SMALL = dict(dims=(6, 4, 3), epochs=3, patience=None)


def small_cfg(**over):
    kwargs = dict(SMALL)
    kwargs.update(over)
    return TrainConfig(**kwargs)


@pytest.fixture(scope="module")
def graph():
    return random_graph(np.random.default_rng(0), n=20, f=10)


class TestPhaseIsolation:
    def test_contrast_step_leaves_controller_untouched(self, graph):
        snapshots = []

        def hook(epoch, phase, params):
            snapshots.append((epoch, phase,
                              {k: t.data.copy()
                               for k, t in params.all_params().items()}))

        train(graph, small_cfg(epochs=2), phase_hook=hook)
        ctrl_names = {"filt_s", "filt_c", "ctrl_w1", "ctrl_b1",
                      "ctrl_w2", "ctrl_b2"}
        prev = None
        for epoch, phase, snap in snapshots:
            if prev is not None:
                moved = {k for k in snap if not np.array_equal(snap[k], prev[k])}
                if phase == "contrast":
                    assert not (moved & ctrl_names)
                else:
                    assert moved <= ctrl_names
            prev = snap

    def test_fixed_lambda_freezes_controller(self, graph):
        report = train(graph, small_cfg(fixed_lambda=0.3))
        fresh = train(graph, small_cfg(epochs=1, fixed_lambda=0.3))
        for k, t in report.params.controller_params().items():
            assert np.array_equal(t.data, fresh.params.controller_params()[k].data)
        for rec in report.records:
            assert rec.controller_loss == 0.0
            assert rec.lambda_mean == pytest.approx(0.3)
            assert rec.lambda_std < 1e-15


class TestDeterminism:
    def test_same_seed_bitwise_identical(self, graph):
        a = train(graph, small_cfg(seed=11))
        b = train(graph, small_cfg(seed=11))
        for k, t in a.params.all_params().items():
            assert np.array_equal(t.data, b.params.all_params()[k].data)
        for ra, rb in zip(a.records, b.records):
            assert ra.contrast_loss == rb.contrast_loss
            assert ra.controller_loss == rb.controller_loss
            assert ra.lambda_mean == rb.lambda_mean

    def test_different_seed_differs(self, graph):
        a = train(graph, small_cfg(seed=1, epochs=1))
        b = train(graph, small_cfg(seed=2, epochs=1))
        assert a.records[0].contrast_loss != b.records[0].contrast_loss


class TestProgress:
    def test_contrast_loss_decreases(self, graph):
        cfg = small_cfg(epochs=50, dropout=0.0,
                        augment=AugmentConfig(p_s=0.1, p_c=0.1))
        report = train(graph, cfg)
        assert report.records[-1].contrast_loss < report.records[0].contrast_loss

    def test_controller_pulled_toward_epsilon(self, graph):
        # with a dominant mean-constraint weight the lambda mean approaches eps
        cfg = small_cfg(epochs=60,
                        controller=ControllerConfig(alpha1=0.0, alpha2=100.0,
                                                    epsilon=0.2),
                        lr_controller=0.01)
        report = train(graph, cfg)
        first = abs(report.records[0].lambda_mean - 0.2)
        last = abs(report.records[-1].lambda_mean - 0.2)
        assert last < first

    def test_early_stop_on_plateau(self, graph):
        cfg = small_cfg(epochs=400, patience=5, lr=1e-12, fixed_lambda=0.5,
                        dropout=0.0, augment=AugmentConfig(p_s=0.0, p_c=0.0))
        report = train(graph, cfg)
        assert len(report.records) < 400

    def test_records_carry_epoch_numbers(self, graph):
        report = train(graph, small_cfg(epochs=3))
        assert [r.epoch for r in report.records] == [1, 2, 3]
        jsonl = report.to_jsonl()
        assert jsonl.count("\n") == 3


class TestEmbed:
    def test_shape_and_determinism(self, graph):
        report = train(graph, small_cfg())
        a = embed(graph, report.params)
        b = embed(graph, report.params)
        assert a.shape == (20, 6)
        assert np.array_equal(a.data, b.data)

    def test_lambda_zero_equals_semantic(self, graph):
        report = train(graph, small_cfg())
        out = embed(graph, report.params, fixed_lambda=0.0)
        sem = encode_semantic(report.params, Tensor(graph.features))
        assert np.abs(out.data - sem.data).max() < 1e-12

    def test_no_dropout_at_inference(self, graph):
        # training with heavy dropout must not leak into inference
        report = train(graph, small_cfg(dropout=0.8))
        a = embed(graph, report.params)
        b = embed(graph, report.params)
        assert np.array_equal(a.data, b.data)


class TestConfigValidation:
    def test_bad_learning_rate(self):
        with pytest.raises(ContractError):
            TrainConfig(lr=0.0)

    def test_bad_dropout(self):
        with pytest.raises(ContractError):
            TrainConfig(dropout=1.0)

    def test_bad_precision(self):
        with pytest.raises(ContractError):
            TrainConfig(precision="float16")

    def test_all_contrast_terms_disabled(self):
        with pytest.raises(ContractError):
            TrainConfig(include_semantic=False, include_context=False,
                        include_fusion=False)

    def test_float32_mode_runs(self, graph):
        report = train(graph, small_cfg(epochs=2, precision="float32"))
        assert report.params.enc_w1.data.dtype == np.float32
        assert embed(graph, report.params).data.dtype == np.float32


def test_one_view_of_ntxent_buffers_live_at_a_time(monkeypatch):
    # each view's NT-Xent holds three N x N blocks until its backward has
    # run; they must be freed before the next view allocates its own
    g = random_graph(np.random.default_rng(5), n=300, f=10, p_edge=0.02)
    blocks, live = [], []
    kernel, mapped = T.ntxent_view, T._mapped_square

    def recording(*args):
        live.append(sum(ref() is not None for ref in blocks))
        return kernel(*args)

    def tracked(n, dtype):
        block = mapped(n, dtype)
        blocks.append(weakref.ref(block))
        return block

    monkeypatch.setattr(T, "ntxent_view", recording)
    monkeypatch.setattr(T, "_mapped_square", tracked)
    train(g, small_cfg(epochs=1))
    assert len(blocks) == 9
    assert live == [0, 0, 0]
