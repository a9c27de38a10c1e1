import dataclasses
import itertools
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from nodefuse import (AugmentConfig, ContrastConfig, ControllerConfig,
                      TrainConfig, Tensor, backward, embed, encode_semantic,
                      train)
from nodefuse import losses, training
from nodefuse import tensor as T
from nodefuse.errors import ContractError, FormatError
from nodefuse.losses import contrast_loss
from nodefuse.model import controller_lambda, fuse

from conftest import dropout_encoding, random_graph, traced_memory

SMALL = dict(dims=(6, 4, 3), epochs=3, patience=None)
BAD_FIXED_LAMBDAS = [float("nan"), float("inf"), 1e308, -0.1, 1.5]


def small_cfg(**over):
    kwargs = dict(SMALL)
    kwargs.update(over)
    return TrainConfig(**kwargs)


@pytest.fixture(scope="module")
def graph():
    return random_graph(np.random.default_rng(0), n=20, f=10)


@pytest.fixture(scope="module")
def bow_graph():
    """Bag-of-words features, stored as CSR: the first layer runs on T.spmm."""
    g = random_graph(np.random.default_rng(0), n=20, f=60, word_rate=0.03)
    assert sp.issparse(g.x)
    return g


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


INCLUDES = [c for c in itertools.product([True, False], repeat=3) if any(c)]
RANDOM_LAMBDA = float(np.random.default_rng(17).uniform())


def _recording(fn, record):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        record(out)
        return out
    return wrapper


def _wrap_backward(out, on_backward):
    inner = out._backward
    if inner is not None:
        def counted(g):
            on_backward()
            return inner(g)
        out._backward = counted
    return out


class TestSplitBackward:
    """The contrast phase sums its terms into one loss and walks the tape
    once, freeing it as it goes; no tape outlives its epoch."""

    @pytest.mark.parametrize("lam", [0.0, 1.0, RANDOM_LAMBDA, None])
    @pytest.mark.parametrize("include", INCLUDES)
    def test_gradients_match_summed_loss(self, graph, monkeypatch, include, lam):
        self._check_summed_gradients(graph, monkeypatch, include, lam)

    @pytest.mark.parametrize("lam", [0.0, RANDOM_LAMBDA, None])
    @pytest.mark.parametrize("include", INCLUDES)
    def test_gradients_match_summed_loss_on_csr_features(self, bow_graph, monkeypatch,
                                                         include, lam):
        # both views' first-layer products are row views of one stacked product
        self._check_summed_gradients(bow_graph, monkeypatch, include, lam)

    @pytest.mark.parametrize("lam", [RANDOM_LAMBDA, None])
    @pytest.mark.parametrize("csr", [False, True], ids=["dense", "csr"])
    def test_gradients_match_summed_loss_without_dropout(self, graph, bow_graph,
                                                         monkeypatch, csr, lam):
        # at rate 0 the step's masks are None, and the hidden layers plain relus
        self._check_summed_gradients(bow_graph if csr else graph, monkeypatch,
                                     (True, True, True), lam, dropout=0.0)

    @staticmethod
    def _check_summed_gradients(graph, monkeypatch, include, lam, dropout=0.2):
        """The step contrasts agg(H @ (enc_w2 @ proj_w1)) for each hidden layer
        H; the reference builds the encodings h = agg(H @ enc_w2) from the
        step's own masks and first-layer products, fuses them, and projects
        h @ proj_w1. Their gradients agree up to rounding, and the step's
        lambda is the controller's on the reference's encodings, bit for bit."""
        cfg = small_cfg(epochs=1, fixed_lambda=lam, dropout=dropout,
                        contrast=ContrastConfig(include_semantic=include[0],
                                                beta1=float(include[1]),
                                                beta2=float(include[2])))
        hidden_calls, products, fuse_lams, made, checked = [], [], [], [], []
        product, hidden_layer = training.first_layer_product, training.hidden_layer

        def views(out):
            # the clean product alone, or the clean and the masked view's
            return out if isinstance(out, tuple) else (out,)

        def recording_product(*args):
            out = product(*args)
            products.extend((view, args, k) for k, view in enumerate(views(out)))
            return out

        def recording_hidden(xw, agg, mask):
            hidden_calls.append((xw, agg, mask))
            return hidden_layer(xw, agg, mask)

        def recording_fuse(a_s, a_c, lam_t):
            fuse_lams.append(lam_t)
            return fuse(a_s, a_c, lam_t)

        def reference_encoding(params, xw, agg, mask):
            # the step's tape is walked, so the reference builds its own
            xw_args, k = next((a, k) for view, a, k in products if view is xw)
            return dropout_encoding(params, None, agg, mask, views(product(*xw_args))[k])

        real_step = training._step

        def checking_step(group, state, lr):
            if "enc_w1" in group:
                params = made[0]
                step = {name: t.grad.copy() for name, t in group.items()}
                for t in group.values():
                    t.grad = None
                assert len(hidden_calls) == 4
                assert all((mask is None) == (dropout == 0.0)
                           for _, _, mask in hidden_calls)
                h_s, h_s_aug, h_c, h_c_aug = (reference_encoding(params, *c)
                                              for c in hidden_calls)
                lam_t = fuse_lams[0]
                if lam is None:
                    expect = controller_lambda(params, h_s, h_c, graph.degree).lam.data
                    assert lam_t.data.tobytes() == expect.tobytes()
                else:
                    assert np.all(lam_t.data == lam)
                pairs = ((h_s, h_s_aug), (h_c, h_c_aug),
                         (fuse(h_s, h_c, lam_t), fuse(h_s_aug, h_c_aug, lam_t)))
                heads = [tuple(T.matmul(h, params.proj_w1) for h in pair) for pair in pairs]
                backward(contrast_loss(heads, params, cfg.contrast))
                for name, t in group.items():
                    scale = np.abs(t.grad).max()
                    assert scale > 0.0, name
                    assert np.abs(step[name] - t.grad).max() <= 1e-12 * scale, name
                checked.append(True)
            real_step(group, state, lr)

        monkeypatch.setattr(training, "first_layer_product", recording_product)
        monkeypatch.setattr(training, "hidden_layer", recording_hidden)
        monkeypatch.setattr(training, "fuse", recording_fuse)
        monkeypatch.setattr(training, "init_params",
                            _recording(training.init_params, made.append))
        monkeypatch.setattr(training, "_step", checking_step)
        train(graph, cfg)
        assert checked == [True]

    def test_encoder_backward_runs_once_per_epoch(self, graph, bow_graph, monkeypatch):
        # the first layer is a matmul on dense features and an spmm on CSR ones
        f_embed, f_proj = SMALL["dims"][:2]
        for g, first_op in ((graph, "matmul"), (bow_graph, "spmm")):
            counts = {f"spmm_{f_embed}": 0, f"spmm_{f_proj}": 0,
                      f"first_layer_{first_op}": 0, "head_input": 0, "fold": 0}

            def bump(key):
                counts[key] += 1

            def first(a, b):
                return a.shape[1] == g.n_features

            def matmul_key(a, b):
                if first(a, b):
                    return "first_layer_matmul"
                if b.shape == (f_embed, f_proj):    # H @ w, and w = enc_w2 @ proj_w1
                    return "head_input" if a.rows == g.n_nodes else "fold"
                return None

            spmm, matmul = T.spmm, T.matmul
            monkeypatch.setattr(T, "spmm", lambda adj, x: _wrap_backward(
                spmm(adj, x), lambda: bump("first_layer_spmm" if first(adj, x)
                                           else f"spmm_{x.cols}")))
            monkeypatch.setattr(T, "matmul", lambda a, b: _wrap_backward(
                matmul(a, b), lambda: bump(matmul_key(a, b)))
                if matmul_key(a, b) else matmul(a, b))
            train(g, small_cfg(epochs=1))
            monkeypatch.undo()
            # two contextual views of two aggregations each: the hidden layer's
            # is f_embed wide, the projector input's f_proj. Four hidden layers
            # each take one product with w, made once. Dense: one product
            # x @ enc_w1 shared by three views and one of the masked features;
            # CSR: one product of x stacked on its masked copy
            n_first = {"matmul": 2, "spmm": 1}[first_op]
            assert counts == {f"spmm_{f_embed}": 2, f"spmm_{f_proj}": 2,
                              f"first_layer_{first_op}": n_first,
                              "head_input": 4, "fold": 1}

    def test_one_backward_per_contrast_step(self, graph, monkeypatch):
        # a fixed lambda runs no controller step, so every call is the contrast's
        calls = []
        monkeypatch.setattr(T, "backward", _recording(T.backward, calls.append))
        train(graph, small_cfg(epochs=3, fixed_lambda=0.5))
        assert len(calls) == 3

    def test_head_arrays_die_before_the_encoder_walk(self, graph, monkeypatch):
        # the projector's hidden layers and NT-Xent's unit rows are held only
        # by head closures, which backward drops as it walks past them
        refs, alive = [], []

        def tracked(op, keep):
            def wrapper(*args):
                out = op(*args)
                if keep(out):
                    refs.append(weakref.ref(out.data))
                return out
            return wrapper

        def check():
            if not alive:
                alive.append([r() is not None for r in refs])

        f_proj = SMALL["dims"][1]
        monkeypatch.setattr(T, "relu", tracked(T.relu, lambda out: out.cols == f_proj))
        monkeypatch.setattr(T, "normalize_rows", tracked(T.normalize_rows, lambda out: True))
        # the encoder walk starts at a projector input agg(H @ w)
        monkeypatch.setattr(training, "second_layer", _recording(
            training.second_layer, lambda out: _wrap_backward(out, check)))
        train(graph, small_cfg(epochs=1, fixed_lambda=0.5))
        # three views, two projections and two normalizations each. The walk
        # is the reverse of a depth-first post-order from the loss, which
        # passes the clean projector inputs before the fusion head's perturbed
        # branch: only that branch's hidden layer and unit rows are still alive
        fusion_aug = {9, 11}
        assert alive == [[i in fusion_aug for i in range(12)]]

    @pytest.mark.parametrize("off", [dict(beta1=0.0), dict(beta2=0.0),
                                     dict(include_semantic=False)],
                             ids=["context", "fusion", "semantic"])
    def test_zero_weight_term_never_built(self, graph, monkeypatch, off):
        calls = {"project": [], "ntxent_view": []}
        for module, name in ((losses, "project"), (T, "ntxent_view")):
            monkeypatch.setattr(module, name,
                                _recording(getattr(module, name), calls[name].append))
        train(graph, small_cfg(epochs=1, contrast=ContrastConfig(**off)))
        assert {name: len(outs) for name, outs in calls.items()} == {
            "project": 4, "ntxent_view": 2}

    def test_contrast_forward_drops_what_no_backward_reads(self, graph, bow_graph,
                                                          monkeypatch):
        # the shared x @ enc_w1, the masked view's product, the contextual
        # first-layer aggregations, the projector inputs agg(H @ w) and, for
        # the controller, the encodings H @ enc_w2 and adj @ (H @ enc_w2) are
        # dead by the backward; the hidden layers H are alive. The first layer
        # is two matmuls on dense features, and on CSR ones an spmm of x
        # stacked on its masked copy, whose two halves are row views.
        f_embed, f_proj = SMALL["dims"][:2]
        for g, lam in itertools.product((graph, bow_graph), (None, 0.5)):
            refs = {"first_layer": [], "spmm": [], "enc_w2": [], "head_input": [],
                    "hidden": []}
            alive = []
            matmul, spmm, rows, relu, real_backward = (T.matmul, T.spmm, T.rows, T.relu,
                                                        T.backward)

            def tracked_matmul(a, b):
                out = matmul(a, b)
                key = {(g.n_features, f_embed): "first_layer", (f_embed, f_embed): "enc_w2",
                       (f_embed, f_proj): "head_input"}.get(b.shape)
                if key and a.rows == g.n_nodes:
                    refs[key].append(weakref.ref(out.data))
                return out

            def tracked_spmm(adj, x):
                out = spmm(adj, x)
                key = "first_layer" if adj.shape[1] == g.n_features else {
                    f_embed: "spmm", f_proj: "head_input"}.get(x.cols)
                if key and x.cols in (f_embed, f_proj):
                    refs[key].append(weakref.ref(out.data))
                return out

            def tracked_rows(a, lo, hi):
                out = rows(a, lo, hi)
                refs["first_layer"].append(weakref.ref(out.data))
                return out

            def tracked_relu(a, *dropout):
                out = relu(a, *dropout)
                if out.cols == f_embed:
                    refs["hidden"].append(weakref.ref(out.data))
                return out

            def checked_backward(loss):
                if not alive:
                    alive.append({k: [r() is not None for r in v] for k, v in refs.items()})
                return real_backward(loss)

            monkeypatch.setattr(T, "matmul", tracked_matmul)
            monkeypatch.setattr(T, "spmm", tracked_spmm)
            monkeypatch.setattr(T, "rows", tracked_rows)
            monkeypatch.setattr(T, "relu", tracked_relu)
            monkeypatch.setattr(T, "backward", checked_backward)
            train(g, small_cfg(epochs=1, fixed_lambda=lam))
            monkeypatch.undo()
            # first layer: x @ enc_w1 and the masked product (dense), or the
            # stacked product and its two halves (CSR); spmm: each contextual
            # view's first aggregation, then, without a fixed lambda, the
            # controller's contextual encoding, whose H @ enc_w2 is made with
            # the semantic one's; head inputs: H @ w per view, then the two
            # contextual aggregations of it
            n_controller = 2 if lam is None else 0
            assert alive == [{"first_layer": [False] * (2 if g is graph else 3),
                              "spmm": [False] * (2 + n_controller // 2),
                              "enc_w2": [False] * n_controller,
                              "head_input": [False] * 6,
                              "hidden": [True] * 4}]

    def test_only_the_hidden_layers_are_f_embed_wide_at_the_ntxent_backward(
            self, graph, bow_graph, monkeypatch):
        # the contrast step makes no N x f_embed encoding: when the walk
        # reaches the first NT-Xent node, the four hidden layers are the only
        # N x f_embed (or, stacked, 2N x f_embed) float arrays any Tensor holds
        f_embed = SMALL["dims"][0]
        for g in (graph, bow_graph):
            assert g.n_features != f_embed
            made, hidden, alive = [], [], []
            init, ntxent, hidden_layer = T.Tensor.__init__, T.ntxent_view, training.hidden_layer

            def tracked_init(self, data, requires_grad=False):
                init(self, data, requires_grad)
                if self.data.shape in ((g.n_nodes, f_embed), (2 * g.n_nodes, f_embed)):
                    made.append(weakref.ref(self.data))

            def check():
                if not alive:
                    alive.append({id(r()) for r in made if r() is not None})

            monkeypatch.setattr(T.Tensor, "__init__", tracked_init)
            monkeypatch.setattr(T, "ntxent_view", lambda *args: _wrap_backward(
                ntxent(*args), check))
            monkeypatch.setattr(training, "hidden_layer", _recording(
                hidden_layer, lambda out: hidden.append(out.data)))
            train(g, small_cfg(epochs=1))
            monkeypatch.undo()
            assert len(made) > 4 and len(hidden) == 4
            assert alive == [{id(h) for h in hidden}]

    def test_epoch_tapes_freed_before_next_epoch(self, graph, monkeypatch):
        refs, alive = [], []
        mask = training.mask_features

        def checked_mask(*args):
            alive.append(sum(r() is not None for r in refs))
            return mask(*args)

        for name in ("hidden_layer", "encode_semantic", "encode_contextual"):
            monkeypatch.setattr(training, name, _recording(
                getattr(training, name), lambda out: refs.append(weakref.ref(out.data))))
        monkeypatch.setattr(training, "mask_features", checked_mask)
        train(graph, small_cfg(epochs=3))
        # four hidden layers in the contrast phase and two encodings in the
        # controller's
        assert len(refs) == 18
        assert alive == [0, 0, 0]

    def test_controller_tapes_freed_before_next_epoch(self, graph, monkeypatch):
        # concat_cols builds the controller's input, which every lambda's tape
        # holds; a phase that returned lambda as a Tensor would keep it alive
        refs, alive = [], []
        concat, mask = T.concat_cols, training.mask_features

        def tracked_concat(*args):
            out = concat(*args)
            refs.append(weakref.ref(out.data))
            return out

        def checked_mask(*args):
            alive.append(sum(r() is not None for r in refs))
            return mask(*args)

        monkeypatch.setattr(T, "concat_cols", tracked_concat)
        monkeypatch.setattr(training, "mask_features", checked_mask)
        train(graph, small_cfg(epochs=3))
        # one lambda in the contrast phase and one in the controller's
        assert len(refs) == 6
        assert alive == [0, 0, 0]


@pytest.mark.parametrize("block", [None, 7, 2])
@pytest.mark.parametrize("shape", [(5000, 256), (183, 256), (513, 3), (1, 7)])
def test_dropout_mask_is_drawn_in_row_blocks(monkeypatch, shape, block):
    # the mask and the generator's next draw are those of one rng.random(shape),
    # at the module's block size and at blocks of a few rows (or less than one)
    if block is not None:
        monkeypatch.setattr(training, "_MASK_BLOCK", block)
    ours, theirs = np.random.default_rng(31), np.random.default_rng(31)
    keep, scale = training._dropout_mask(ours, shape, 0.2, np.float32)
    assert keep.dtype == bool and keep.shape == shape
    assert np.array_equal(keep, theirs.random(shape) >= 0.2)
    assert scale == np.float32(1) / np.float32(0.8) and type(scale) is np.float32
    assert ours.random() == theirs.random()
    assert training._dropout_mask(ours, shape, 0.0, np.float64) is None


def test_dropout_mask_makes_no_full_size_uniform_array():
    # the bool mask and one block's float64 buffer, not N x cols float64 uniforms
    shape = (5000, 256)
    _, peak = traced_memory(lambda: training._dropout_mask(
        np.random.default_rng(0), shape, 0.2, np.float64))
    assert peak < shape[0] * shape[1] + 2 * 8 * training._MASK_BLOCK


def test_contrast_step_keeps_no_copy_of_the_features():
    # N x F dominates every other array here, so a masked feature copy on
    # the tape, or a dense copy of CSR features, would take the step's peak
    # above half of N x F x 8 bytes
    for word_rate in (None, 0.02):
        rng = np.random.default_rng(22)
        g = random_graph(rng, n=400, f=3000, p_edge=0.01, word_rate=word_rate)
        assert sp.issparse(g.x) == (word_rate is not None)
        cfg = small_cfg(dims=(8, 4, 3))
        params = training.init_params(rng, training.ModelDims(g.n_features, *cfg.dims))
        x, adj = training._inputs(g, np.float64)
        aug_rng, drop_rng = np.random.default_rng(1).spawn(2)
        _, peak = traced_memory(lambda: training._contrast_step(
            g, cfg, params, T.AdamState(), x, adj, aug_rng, drop_rng, epoch=1))
        assert peak < g.n_nodes * g.n_features * 8 / 2


def test_contrast_step_peak_holds_no_encoding():
    # N x f_embed float64 arrays dominate here. The peak holds the four hidden
    # layers and the head's arrays, with a learned lambda as with a fixed one:
    # 7.8 such arrays, where six taped encodings made 13.4 and the
    # controller's copies of lambda's two inputs 8.7
    for word_rate in (None, 0.05):
        rng = np.random.default_rng(24)
        g = random_graph(rng, n=600, f=40, p_edge=0.01, word_rate=word_rate)
        for lam in (None, 0.5):
            cfg = small_cfg(dims=(256, 8, 3), fixed_lambda=lam)
            params = training.init_params(rng, training.ModelDims(g.n_features, *cfg.dims))
            x, adj = training._inputs(g, np.float64)
            aug_rng, drop_rng = np.random.default_rng(1).spawn(2)
            _, peak = traced_memory(lambda: training._contrast_step(
                g, cfg, params, T.AdamState(), x, adj, aug_rng, drop_rng, epoch=1))
            assert peak < 8.2 * g.n_nodes * cfg.dims[0] * 8


def test_controller_step_peak_holds_no_copy_of_the_encodings():
    # the controller reads the clean encodings through detach, which shares
    # their arrays: the peak is the two encodings and what making them takes,
    # 5.1 N x f_embed arrays, where a copy at each of the four detaches made 9.1
    for word_rate in (None, 0.05):
        rng = np.random.default_rng(24)
        g = random_graph(rng, n=600, f=40, p_edge=0.01, word_rate=word_rate)
        cfg = small_cfg(dims=(256, 8, 3))
        params = training.init_params(rng, training.ModelDims(g.n_features, *cfg.dims))
        x, adj = training._inputs(g, np.float64)
        _, peak = traced_memory(lambda: training._controller_step(
            g, cfg, params, T.AdamState(), x, adj, epoch=1))
        assert peak < 6 * g.n_nodes * cfg.dims[0] * 8


def test_contrast_step_drops_the_augmented_graph_before_backward(graph, monkeypatch):
    # the backward reads only adj_aug; the Graph that drop_edges returns, an
    # edge array as long as the source's, must not live through the walk
    refs, alive = [], []
    monkeypatch.setattr(training, "drop_edges", _recording(
        training.drop_edges, lambda g_aug: refs.append(weakref.ref(g_aug))))
    backward = T.backward

    def checked_backward(loss):
        alive.append([r() is not None for r in refs])
        return backward(loss)

    monkeypatch.setattr(T, "backward", checked_backward)
    cfg = small_cfg()
    params = training.init_params(np.random.default_rng(5),
                                  training.ModelDims(graph.n_features, *cfg.dims))
    x, adj = training._inputs(graph, np.float64)
    aug_rng, drop_rng = np.random.default_rng(1).spawn(2)
    training._contrast_step(graph, cfg, params, T.AdamState(), x, adj,
                            aug_rng, drop_rng, epoch=1)
    assert alive == [[False]]


def test_clean_views_build_no_tape():
    # the controller step and embed encode with constant weights: the
    # encodings are the ones the parameters give, but no tape holds them
    rng = np.random.default_rng(23)
    for g in (random_graph(rng, n=20, f=10), random_graph(rng, n=20, f=60, word_rate=0.03)):
        params = training.init_params(rng, training.ModelDims(g.n_features, 6, 4, 3))
        x, adj = training._inputs(g, np.float64)
        h_s, h_c = training._clean_views(params, x, adj)
        assert h_s.node is None and h_c.node is None
        assert h_s.data.tobytes() == encode_semantic(params, x).data.tobytes()
        assert h_c.data.tobytes() == training.encode_contextual(params, x, adj).data.tobytes()
        assert params.enc_w1.requires_grad and params.enc_w2.requires_grad


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

    def test_early_stop_returns_last_epoch_params(self, graph):
        # the run stops `patience` epochs after its best epoch and returns the
        # parameters of the epoch it stopped at, not those of the best epoch
        cfg = small_cfg(epochs=400, patience=5, lr=1e-12, fixed_lambda=0.5,
                        dropout=0.0, augment=AugmentConfig(p_s=0.0, p_c=0.0))
        stopped = train(graph, cfg)
        last = len(stopped.records)
        assert last < 400

        def same_params(epochs):
            rerun = train(graph, dataclasses.replace(cfg, epochs=epochs, patience=None))
            ours, theirs = stopped.params.all_params(), rerun.params.all_params()
            return all(np.array_equal(ours[k].data, theirs[k].data) for k in ours)

        assert same_params(last)
        assert not same_params(last - cfg.patience)

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

    @pytest.mark.parametrize("patience", [0, -3])
    def test_patience_below_one(self, patience):
        with pytest.raises(ContractError, match="patience"):
            TrainConfig(patience=patience)

    def test_bad_dropout(self):
        with pytest.raises(ContractError):
            TrainConfig(dropout=1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["lr", "lr_controller"])
    def test_non_finite_learning_rate(self, field, value):
        # a NaN learning rate passed `lr <= 0` and then diverged in training
        with pytest.raises(ContractError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("field", ["lr", "lr_controller", "epochs", "dropout",
                                       "seed", "patience", "fixed_lambda", "dims"])
    def test_bool_rejected(self, field, value):
        # a bool is an int to Python, so False read as dropout 0, True as 1 epoch
        over = {"dims": (6, value, 3)} if field == "dims" else {field: value}
        with pytest.raises(ContractError, match=field):
            small_cfg(**over)

    @pytest.mark.parametrize("field", ["epochs", "seed", "patience", "dims"])
    def test_non_integer_rejected(self, field):
        over = {"dims": (6, 2.5, 3)} if field == "dims" else {field: 2.5}
        with pytest.raises(ContractError, match=field):
            small_cfg(**over)

    def test_numpy_scalars_and_ints_accepted(self, graph):
        assert TrainConfig(lr=1, lr_controller=np.float32(0.01)).lr == 1
        cfg = small_cfg(epochs=np.int64(2), dropout=0,
                        contrast=ContrastConfig(tau=np.float32(0.5)))
        assert len(train(graph, cfg).records) == 2

    def test_dims_stored_as_tuple(self):
        assert small_cfg(dims=[6, np.int64(4), 3]).dims == (6, 4, 3)
        with pytest.raises(ContractError, match="dims"):
            small_cfg(dims=(6, 4))
        with pytest.raises(ContractError, match="dims"):
            small_cfg(dims=None)

    def test_bad_precision(self):
        with pytest.raises(ContractError):
            TrainConfig(precision="float16")

    def test_all_contrast_terms_disabled(self):
        with pytest.raises(ContractError):
            TrainConfig(contrast=ContrastConfig(include_semantic=False,
                                                beta1=0.0, beta2=0.0))

    @pytest.mark.parametrize("value", BAD_FIXED_LAMBDAS)
    def test_fixed_lambda_outside_unit_interval(self, graph, value):
        with pytest.raises(ContractError, match="fixed_lambda"):
            TrainConfig(fixed_lambda=value)
        report = train(graph, small_cfg(epochs=1))
        with pytest.raises(ContractError, match="fixed_lambda"):
            embed(graph, report.params, fixed_lambda=value)

    @pytest.mark.parametrize("value", [1e20, 1e100])
    def test_features_overflowing_float32_rejected(self, graph, bow_graph, value):
        # in either stored form: dense, and CSR
        for g, form in ((graph, np.asarray), (bow_graph, sp.csr_matrix)):
            features = g.features.copy()
            features[3, 1] = value      # its square overflows float32
            bad = dataclasses.replace(g, x=form(features))
            with pytest.raises(FormatError, match="feature row 3 overflows float32"):
                train(bad, small_cfg(epochs=1, precision="float32"))
            report = train(g, small_cfg(epochs=1, precision="float32"))
            with pytest.raises(FormatError, match="feature row 3 overflows float32"):
                embed(bad, report.params)
            embed(bad, train(g, small_cfg(epochs=1)).params)     # fine in float64

    def test_float32_mode_runs(self, graph):
        report = train(graph, small_cfg(epochs=2, precision="float32"))
        assert report.params.enc_w1.data.dtype == np.float32
        assert embed(graph, report.params).data.dtype == np.float32
