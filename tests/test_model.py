import dataclasses
import io
import pickle
import re

import numpy as np
import pytest
import scipy.sparse as sp

from nodefuse import (ModelDims, Tensor, backward, build_graph,
                      controller_lambda, drop_edges, encode_contextual,
                      encode_semantic, fuse, init_params, load_checkpoint,
                      mask_features, project, save_checkpoint)
from nodefuse import tensor as T
from nodefuse.errors import CheckpointError, ContractError
from nodefuse.graph import features_as, normalized_adjacency_sparse
from nodefuse.model import degree_feature, first_layer_product, param_shapes

from conftest import random_graph, with_checkpoint_arrays, with_checkpoint_value

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
    # project takes the head's input h @ proj_w1, N x f_proj
    def test_identical_rows(self, params):
        rng = np.random.default_rng(7)
        row = rng.normal(size=4)
        out = project(params, Tensor(np.stack([row, row])))
        assert np.array_equal(out.data[0], out.data[1])

    def test_zero_weights_zero_output(self):
        p = zero_params()
        out = project(p, Tensor(np.random.default_rng(8).normal(size=(3, 4))))
        assert np.array_equal(out.data, np.zeros((3, 4)))

    def test_matches_scalar_oracle(self, params):
        rng = np.random.default_rng(9)
        h = rng.normal(size=(4, 5))
        out = project(params, T.matmul(Tensor(h), params.proj_w1)).data
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

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_negative_or_non_finite_degree_rejected(self, params, bad):
        h = Tensor(np.random.default_rng(15).normal(size=(4, 5)))
        degree = np.array([1.0, 2.0, bad, 3.0])
        with pytest.raises(ContractError, match="degree"):
            controller_lambda(params, h, h, degree)


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
    masks = [(rng.random((6, 5)) >= 0.3, 1.0 / 0.7) for _ in range(3)]
    enc = {"enc_w1": params.enc_w1, "enc_w2": params.enc_w2}

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


@pytest.mark.parametrize("dtype, form", [
    pytest.param(dtype, form, id=np.dtype(dtype).name + ("" if form == "dense" else f"-{form}"))
    for form in ("dense", "csr", "csc") for dtype in (np.float32, np.float64)])
def test_masked_view_from_row_masked_weights_is_bitwise_equal(dtype, form):
    # training encodes the feature-masked view of dense features as
    # x @ (keep * enc_w1 rows), not as mask_features(x) @ enc_w1. Its enc_w1
    # gradient is summed with the clean view's, as in training: alone, a
    # masked row's gradient is a BLAS sum of zeros (+0) one way and 0 * s,
    # which keeps s's sign, the other.
    # Sparse features (CSR, or CSC as features_as gives wide ones) are masked
    # instead: their masked copy, without the masked columns' entries, is
    # stacked under x for one product. Against x @ (keep * enc_w1 rows), the
    # encodings drop only exact zeros from their sums and keep every bit;
    # the enc_w1 gradient is one running sum over both views instead of two
    # sums added, so it keeps the value, not the bits
    rng = np.random.default_rng(20)
    g = random_graph(rng, n=12, f=8)
    feats = g.features.astype(dtype)
    feats[:, 3] = 0.0                   # a feature no node has
    if form != "dense":
        feats[rng.random(feats.shape) < 0.5] = 0.0
    drop = (rng.random((12, 5)) >= 0.3, dtype(1) / dtype(1 - 0.3))
    seeds = [rng.normal(size=(12, 5)).astype(dtype) for _ in range(2)]

    def run(new: bool):
        p = init_params(np.random.default_rng(0), DIMS).astype(dtype)
        keep_rng = np.random.default_rng(21)
        if form == "dense" and not new:
            x = Tensor(feats)
            clean = encode_semantic(p, x)
            masked = encode_semantic(p, Tensor(mask_features(feats, 0.5, keep_rng)), drop)
        else:
            keep = mask_features(np.ones((1, 8), dtype=dtype), 0.5, keep_rng)
            x = Tensor(feats) if form == "dense" else getattr(sp, f"{form}_matrix")(feats)
            if new:
                xw, xw_masked = first_layer_product(p, x, keep)
            else:
                xw = T.spmm(x, p.enc_w1)
                xw_masked = T.spmm(x, T.rowscale(p.enc_w1, Tensor(keep.T)))
            clean = encode_semantic(p, x, xw=xw)
            masked = encode_semantic(p, x, drop, xw=xw_masked)
        backward(T.add(T.sum_all(T.mul(clean, Tensor(seeds[0]))),
                       T.sum_all(T.mul(masked, Tensor(seeds[1])))))
        return clean.data, masked.data, p.enc_w1.grad

    *new_encodings, new_grad = run(True)
    *old_encodings, old_grad = run(False)
    for new, old in zip(new_encodings, old_encodings):
        assert new.dtype == old.dtype and new.tobytes() == old.tobytes()
    assert new_grad.dtype == old_grad.dtype
    if form == "dense":
        assert new_grad.tobytes() == old_grad.tobytes()
    else:
        tol = 1e-12 if dtype == np.float64 else 1e-6
        assert np.abs(new_grad - old_grad).max() <= tol * np.abs(old_grad).max()


class TestSparseFeatures:
    """A CSR graph's first layer is T.spmm(x, enc_w1); a dense one's T.matmul."""

    @staticmethod
    def _encodings(params, x, adj, keep, drop, seeds):
        for t in (params.enc_w1, params.enc_w2):
            t.grad = None
        hs = [encode_semantic(params, x, drop),
              encode_semantic(params, x, drop, xw=first_layer_product(params, x, keep)[1]),
              encode_contextual(params, x, adj, drop)]
        loss = None
        for h, seed in zip(hs, seeds):
            term = T.sum_all(T.mul(h, Tensor(seed)))
            loss = term if loss is None else T.add(loss, term)
        backward(loss)
        return [h.data for h in hs] + [params.enc_w1.grad, params.enc_w2.grad]

    def test_csr_and_dense_features_agree(self, params):
        rng = np.random.default_rng(30)
        g = random_graph(rng, n=40, f=8, word_rate=0.04)
        assert sp.issparse(g.x)
        adj = normalized_adjacency_sparse(g)
        keep = mask_features(np.ones((1, 8)), 0.5, rng)
        drop = (rng.random((40, 5)) >= 0.3, 1.0 / 0.7)
        seeds = [rng.normal(size=(40, 5)) for _ in range(3)]
        sparse = self._encodings(params, features_as(g, np.float64), adj, keep, drop, seeds)
        dense = self._encodings(params, Tensor(g.features), adj, keep, drop, seeds)
        for a, b in zip(sparse, dense):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_sparse_product_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        x = sp.random(7, 9, density=0.2, format="csr", random_state=32)
        w = Tensor(rng.normal(size=(9, 4)), requires_grad=True)
        c = rng.normal(size=(7, 4))

        def loss_fn():
            out = T.spmm(x, w)
            return T.sum_all(T.mul(T.sigmoid(out), Tensor(c)))

        backward(loss_fn())
        analytic, fd = w.grad.copy(), np.zeros_like(w.data)
        for idx in np.ndindex(w.shape):
            orig = w.data[idx]
            w.data[idx] = orig + 1e-6
            lp = loss_fn().item()
            w.data[idx] = orig - 1e-6
            lm = loss_fn().item()
            w.data[idx] = orig
            fd[idx] = (lp - lm) / 2e-6
        assert np.abs(analytic - fd).max() <= 1e-4 * np.abs(fd).max()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_csc_and_csr_operands_give_the_same_bits(self, dtype):
        # training gives wide features to spmm in CSC form: its scatter and
        # the CSR gather sum each entry over the same terms in the same order
        rng = np.random.default_rng(34)
        for shape in ((6, 300), (300, 6)):
            x = sp.random(*shape, density=0.2, format="csr", random_state=35, dtype=dtype)
            g = rng.normal(size=(shape[0], 64)).astype(dtype)
            w0 = rng.normal(size=(shape[1], 64)).astype(dtype)
            runs = []
            for form in (x, x.tocsc()):
                w = Tensor(w0.copy(), requires_grad=True)
                out = T.spmm(form, w)
                backward(T.sum_all(T.mul(out, Tensor(g))))
                runs.append((out.data.tobytes(), w.grad.tobytes()))
            assert runs[0] == runs[1]

    def test_first_layer_dispatches_on_the_feature_form(self, params, monkeypatch):
        g = random_graph(np.random.default_rng(33), n=40, f=8, word_rate=0.04)
        calls = []
        for name in ("spmm", "matmul"):
            real = getattr(T, name)
            monkeypatch.setattr(T, name, lambda a, b, real=real, name=name: (
                calls.append(name), real(a, b))[1])
        first_layer_product(params, features_as(g, np.float64))
        first_layer_product(params, Tensor(g.features))
        assert calls == ["spmm", "matmul"]
        with pytest.raises(ContractError, match=r"spmm: .*\b7\b.*\b8\b"):
            first_layer_product(params, sp.csr_matrix((40, 7)))


@pytest.mark.parametrize("field, width", [("f_in", -1), ("f_embed", 2.5), ("f_proj", 0),
                                          ("f_filter", True), ("f_embed", np.nan)])
def test_init_params_rejects_a_width_that_is_not_a_count(field, width):
    # a negative width raised numpy's ValueError, 2.5 a TypeError, and 0
    # built a model that load_checkpoint refuses
    with pytest.raises(ContractError, match=field) as info:
        init_params(np.random.default_rng(0), dataclasses.replace(DIMS, **{field: width}))
    assert info.value.field == field
    assert not isinstance(info.value, CheckpointError)


@pytest.mark.parametrize("field, name, width", [
    ("f_embed", "enc_w1", 2 ** 63), ("f_proj", "proj_w1", 2 ** 63),
    ("f_filter", "filt_s", 2 ** 63), ("f_filter", "filt_s", 10 ** 400)],
    ids=["f_embed", "f_proj", "f_filter", "f_filter_10_400"])
def test_init_params_names_a_parameter_too_large_to_make(field, name, width):
    # numpy refuses a dimension of 2**63 before it allocates anything, and a
    # float cannot hold 10**400; their ValueError and OverflowError reached
    # the CLI as tracebacks
    with pytest.raises(ContractError, match=rf"{name} of shape \(\d+, {width}\)"):
        init_params(np.random.default_rng(0), dataclasses.replace(DIMS, **{field: width}))


def test_checkpoint_round_trip(tmp_path, params):
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.dims == params.dims
    for name, t in params.all_params().items():
        assert np.array_equal(loaded.all_params()[name].data, t.data)
    with pytest.raises(ContractError):
        load_checkpoint(tmp_path / "missing.ckpt")


def test_checkpoint_with_dims_entry_loads(tmp_path, params):
    # the format before the dims were read off the arrays had a __dims__ entry
    path = tmp_path / "model.ckpt"
    arrays = {name: t.data for name, t in params.all_params().items()}
    with open(path, "wb") as fh:
        np.savez(fh, __dims__=np.array([8, 5, 4, 3]), **arrays)
    loaded = load_checkpoint(path)
    assert loaded.dims == params.dims
    for name, t in loaded.all_params().items():
        assert t.data.dtype == arrays[name].dtype
        assert t.data.tobytes() == arrays[name].tobytes()


def _npy_bytes(_good):
    buf = io.BytesIO()
    np.save(buf, np.zeros(3))
    return buf.getvalue()


def _encrypted_flag(good):
    # bit 0 of a central-directory entry's flag field marks the entry encrypted,
    # and zipfile then raises RuntimeError for want of a password
    at = good.index(b"PK\x01\x02") + 8
    return good[:at] + bytes([good[at] | 1]) + good[at + 1:]


def _with_array(name, make):
    return lambda good: with_checkpoint_arrays(good, make, [name])


def _retyped(dtype):
    return lambda good: with_checkpoint_arrays(good, lambda arr: arr.astype(dtype))


def _zero_width(*dims):
    def make(_good):
        buf = io.BytesIO()
        np.savez(buf, **{name: np.ones(shape) for name, shape
                         in param_shapes(ModelDims(*dims)).items()})
        return buf.getvalue()
    return make


CORRUPT_CHECKPOINTS = {
    "empty": lambda good: b"",
    "text": lambda good: b"not a checkpoint\n",
    "pickle": lambda good: pickle.dumps({"enc_w1": np.zeros((8, 5))}),
    "npy_array": _npy_bytes,
    "truncated": lambda good: good[:len(good) // 2],
    "flipped_byte": lambda good: good[:100] + bytes([good[100] ^ 0xFF]) + good[101:],
    "encrypted_flag": _encrypted_flag,
    "nan_weight": lambda good: with_checkpoint_value(good, np.nan),
    "inf_weight": lambda good: with_checkpoint_value(good, -np.inf, "ctrl_b2"),
    "float16": _retyped(np.float16),
    "int64": _retyped(np.int64),
    "complex": _retyped(np.complex128),
    "mixed_float32": _with_array("proj_w2", lambda arr: arr.astype(np.float32)),
    "enc_w1_3d": _with_array("enc_w1", lambda arr: arr[:, :, None]),
    "enc_w2_not_square": _with_array("enc_w2", lambda arr: np.zeros((6, 7))),
    "proj_b1_three_rows": _with_array("proj_b1", lambda arr: np.zeros((3, 4))),
    "zero_f_embed": _zero_width(6, 0, 4, 3),
    "zero_f_proj": _zero_width(6, 5, 0, 3),
    "zero_f_filter": _zero_width(6, 5, 4, 0),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_CHECKPOINTS))
def test_corrupt_checkpoint_is_checkpoint_error(tmp_path, params, case):
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    path.write_bytes(CORRUPT_CHECKPOINTS[case](path.read_bytes()))
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)


@pytest.mark.parametrize("missing", [*init_params(
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
