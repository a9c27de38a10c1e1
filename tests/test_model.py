import io
import pickle
import re

import numpy as np
import pytest

from nodefuse import (ModelDims, Tensor, backward, build_graph,
                      controller_lambda, drop_edges, encode_contextual,
                      encode_semantic, fuse, init_params, load_checkpoint,
                      project, save_checkpoint)
from nodefuse import tensor as T
from nodefuse.errors import CheckpointError, ContractError
from nodefuse.graph import normalized_adjacency_sparse
from nodefuse.model import degree_feature, first_layer_product

from conftest import random_graph

DIMS = ModelDims(f_in=8, f_embed=5, f_proj=4, f_filter=3)


@pytest.fixture
def params():
    return init_params(np.random.default_rng(0), DIMS)


def zero_params():
    p = init_params(np.random.default_rng(0), DIMS)
    for t in p.all_params().values():
        t.data[:] = 0.0
    return p


class TestEncodeSemantic:
    def test_identical_rows_identical_outputs(self, params):
        rng = np.random.default_rng(1)
        row = rng.normal(size=8)
        x = Tensor(np.stack([row, row, rng.normal(size=8)]))
        out = encode_semantic(params, x)
        assert np.array_equal(out.data[0], out.data[1])

    def test_independent_of_edges(self, params):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(6, 8))
        out = encode_semantic(params, Tensor(feats))
        # the edge set never enters; same tensor, any graph
        out2 = encode_semantic(params, Tensor(feats))
        assert np.array_equal(out.data, out2.data)

    def test_zero_weights_zero_output(self):
        p = zero_params()
        out = encode_semantic(p, Tensor(np.random.default_rng(3).normal(size=(4, 8))))
        assert np.array_equal(out.data, np.zeros((4, 5)))

    def test_wrong_width_rejected(self, params):
        with pytest.raises(ContractError):
            encode_semantic(params, Tensor(np.zeros((3, 7))))


class TestEncodeContextual:
    def test_no_edges_reduces_to_semantic(self, params):
        rng = np.random.default_rng(4)
        g = build_graph(5, [], rng.normal(size=(5, 8)))
        adj = normalized_adjacency_sparse(g)  # identity
        x = Tensor(g.features)
        ctx = encode_contextual(params, x, adj)
        sem = encode_semantic(params, x)
        assert np.abs(ctx.data - sem.data).max() < 1e-12

    def test_permutation_equivariance(self, params):
        rng = np.random.default_rng(5)
        g = random_graph(rng, n=7, f=8)
        adj = normalized_adjacency_sparse(g)
        out = encode_contextual(params, Tensor(g.features), adj).data
        perm = rng.permutation(7)
        adj_p = adj[perm][:, perm]
        out_p = encode_contextual(params, Tensor(g.features[perm]), adj_p).data
        assert np.abs(out_p - out[perm]).max() < 1e-10

    def test_zero_features_zero_output(self, params):
        g = build_graph(4, [(0, 1), (2, 3)], np.zeros((4, 8)))
        out = encode_contextual(params, Tensor(g.features), normalized_adjacency_sparse(g))
        assert np.array_equal(out.data, np.zeros((4, 5)))

    def test_sparse_and_dense_paths_agree(self, params):
        # the sparse encoder against the two-layer GCN in dense numpy
        rng = np.random.default_rng(6)
        g = random_graph(rng, n=9, f=8)
        adj = normalized_adjacency_sparse(g)
        dense = adj.toarray()
        hidden = np.maximum(dense @ g.features @ params.enc_w1.data, 0.0)
        expect = dense @ hidden @ params.enc_w2.data
        sparse = encode_contextual(params, Tensor(g.features), adj).data
        assert np.abs(expect - sparse).max() < 1e-12


class TestProject:
    def test_identical_rows(self, params):
        rng = np.random.default_rng(7)
        row = rng.normal(size=5)
        out = project(params, Tensor(np.stack([row, row])))
        assert np.array_equal(out.data[0], out.data[1])

    def test_zero_weights_zero_output(self):
        p = zero_params()
        out = project(p, Tensor(np.random.default_rng(8).normal(size=(3, 5))))
        assert np.array_equal(out.data, np.zeros((3, 4)))

    def test_matches_scalar_oracle(self, params):
        rng = np.random.default_rng(9)
        h = rng.normal(size=(4, 5))
        out = project(params, Tensor(h)).data
        w1, b1 = params.proj_w1.data, params.proj_b1.data
        w2, b2 = params.proj_w2.data, params.proj_b2.data
        for i in range(4):
            hidden = [max(0.0, sum(h[i, k] * w1[k, a] for k in range(5)) + b1[0, a])
                      for a in range(4)]
            for j in range(4):
                expect = sum(hidden[a] * w2[a, j] for a in range(4)) + b2[0, j]
                assert abs(out[i, j] - expect) < 1e-12


class TestController:
    def test_zero_weights_give_half(self):
        p = zero_params()
        rng = np.random.default_rng(10)
        h = Tensor(rng.normal(size=(5, 5)))
        w = controller_lambda(p, h, h, np.arange(5))
        assert np.abs(w.values - 0.5).max() < 1e-15

    def test_identical_inputs_identical_lambda(self, params):
        rng = np.random.default_rng(11)
        hs = rng.normal(size=(3, 5))
        hc = rng.normal(size=(3, 5))
        hs[1] = hs[0]
        hc[1] = hc[0]
        w = controller_lambda(params, Tensor(hs), Tensor(hc),
                              np.array([4, 4, 2]))
        assert w.values[0] == w.values[1]

    def test_lambda_in_open_interval(self, params):
        rng = np.random.default_rng(12)
        w = controller_lambda(params, Tensor(rng.normal(size=(20, 5))),
                              Tensor(rng.normal(size=(20, 5))),
                              rng.integers(0, 10, size=20))
        assert np.all(w.values > 0) and np.all(w.values < 1)

    def test_inputs_are_detached(self, params):
        from nodefuse import backward
        from nodefuse import tensor as T
        hs = Tensor(np.random.default_rng(13).normal(size=(4, 5)),
                    requires_grad=True)
        hc = Tensor(np.random.default_rng(14).normal(size=(4, 5)),
                    requires_grad=True)
        w = controller_lambda(params, hs, hc, np.arange(4))
        backward(T.sum_all(w.lam))
        assert hs.grad is None and hc.grad is None
        assert params.ctrl_w2.grad is not None

    def test_degree_feature_standardized(self):
        d = degree_feature(np.array([1, 5, 20, 3]))
        assert abs(d.mean()) < 1e-12
        assert abs(d.std() - 1.0) < 1e-12
        assert np.array_equal(degree_feature(np.array([4, 4, 4])), np.zeros(3))


class TestFuse:
    def test_lambda_zero_gives_semantic(self):
        rng = np.random.default_rng(15)
        hs = Tensor(rng.normal(size=(3, 5)))
        hc = Tensor(rng.normal(size=(3, 5)))
        out = fuse(hs, hc, Tensor(np.zeros((3, 1))))
        assert np.array_equal(out.data, hs.data)

    def test_lambda_one_gives_sum(self):
        rng = np.random.default_rng(16)
        hs = Tensor(rng.normal(size=(3, 5)))
        hc = Tensor(rng.normal(size=(3, 5)))
        out = fuse(hs, hc, Tensor(np.ones((3, 1))))
        assert np.abs(out.data - (hs.data + hc.data)).max() < 1e-15

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(17)
        hs = rng.normal(size=(3, 5))
        hc = rng.normal(size=(3, 5))
        lam = rng.uniform(size=(3, 1))
        out = fuse(Tensor(hs), Tensor(hc), Tensor(lam)).data
        for i in range(3):
            for j in range(5):
                assert abs(out[i, j] - (hs[i, j] + lam[i, 0] * hc[i, j])) < 1e-12


def test_view_sharing_same_encoder(params):
    rng = np.random.default_rng(18)
    g = random_graph(rng, n=6, f=8)
    x = Tensor(g.features)
    adj = normalized_adjacency_sparse(g)
    sem_before = encode_semantic(params, x).data.copy()
    ctx_before = encode_contextual(params, x, adj).data.copy()
    params.enc_w1.data += 0.1
    assert not np.array_equal(encode_semantic(params, x).data, sem_before)
    assert not np.array_equal(encode_contextual(params, x, adj).data, ctx_before)


def test_shared_first_layer_product_matches_separate_products(params):
    rng = np.random.default_rng(19)
    g = random_graph(rng, n=6, f=8)
    x = Tensor(g.features)
    adj = normalized_adjacency_sparse(g)
    adj_aug = normalized_adjacency_sparse(drop_edges(g, 0.3, rng))
    masks = [Tensor(rng.uniform(0.0, 2.0, size=(6, 5))) for _ in range(3)]
    enc = params.encoder_params()

    def run(shared: bool):
        for t in enc.values():
            t.grad = None
        xw = first_layer_product(params, x) if shared else None
        hs = [encode_semantic(params, x, masks[0], xw=xw),
              encode_contextual(params, x, adj, masks[1], xw=xw),
              encode_contextual(params, x, adj_aug, masks[2], xw=xw)]
        loss = T.sum_all(T.mul(hs[0], hs[0]))
        for k, h in enumerate(hs[1:], start=2):
            loss = T.add(loss, T.scale(T.sum_all(T.mul(h, h)), k))
        backward(loss)
        return [h.data for h in hs] + [enc[name].grad for name in sorted(enc)]

    for separate, shared in zip(run(False), run(True)):
        assert np.abs(shared - separate).max() <= 1e-12 * max(1.0, np.abs(separate).max())


def test_checkpoint_round_trip(tmp_path, params):
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.dims == params.dims
    for name, t in params.all_params().items():
        assert np.array_equal(loaded.all_params()[name].data, t.data)
    with pytest.raises(ContractError):
        load_checkpoint(tmp_path / "missing.ckpt")


def _npy_bytes(_good):
    buf = io.BytesIO()
    np.save(buf, np.zeros(3))
    return buf.getvalue()


CORRUPT_CHECKPOINTS = {
    "empty": lambda good: b"",
    "text": lambda good: b"not a checkpoint\n",
    "pickle": lambda good: pickle.dumps({"enc_w1": np.zeros((8, 5))}),
    "npy_array": _npy_bytes,
    "truncated": lambda good: good[:len(good) // 2],
    "flipped_byte": lambda good: good[:100] + bytes([good[100] ^ 0xFF]) + good[101:],
}


@pytest.mark.parametrize("case", sorted(CORRUPT_CHECKPOINTS))
def test_corrupt_checkpoint_is_checkpoint_error(tmp_path, params, case):
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    path.write_bytes(CORRUPT_CHECKPOINTS[case](path.read_bytes()))
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)


@pytest.mark.parametrize("missing", ["__dims__", *init_params(
    np.random.default_rng(0), DIMS).all_params()])
def test_checkpoint_missing_array_is_checkpoint_error(tmp_path, params, missing):
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files if name != missing}
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(CheckpointError, match=re.escape(str(path))) as info:
        load_checkpoint(path)
    assert missing in str(info.value)
