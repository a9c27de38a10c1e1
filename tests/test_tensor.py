import inspect
import itertools
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodefuse import AdamState, Tensor, adam_step, backward
from nodefuse import tensor as T
from nodefuse.errors import ContractError

from conftest import traced_memory


def rand_tensor(rng, shape, requires_grad=False):
    return Tensor(rng.normal(size=shape), requires_grad=requires_grad)


@pytest.mark.parametrize("data", [
    "abc", None, {}, [[1.0], [1.0, 2.0]], np.array(1.0), np.ones(3), np.ones((2, 2, 2)),
    np.ones((2, 2), dtype=np.int64), np.ones((2, 2), dtype=bool),
    np.ones((2, 2), dtype=object), np.ones((2, 2), dtype=np.float16),
], ids=["str", "none", "dict", "ragged", "0-d", "1-d", "3-d", "int", "bool", "object",
        "float16"])
def test_tensor_takes_only_2d_float_arrays(data):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="Tensor"):
            Tensor(data)


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        b = rand_tensor(rng, (3, 4))
        out = T.matmul(Tensor(np.eye(3)), b)
        assert np.array_equal(out.data, b.data)

    def test_zero_annihilator(self):
        rng = np.random.default_rng(0)
        b = rand_tensor(rng, (3, 4))
        out = T.matmul(Tensor(np.zeros((2, 3))), b)
        assert np.array_equal(out.data, np.zeros((2, 4)))

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        expect = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    expect[i, j] += a[i, k] * b[k, j]
        out = T.matmul(Tensor(a), Tensor(b))
        assert np.abs(out.data - expect).max() < 1e-12

    def test_constant_operand_takes_no_gradient(self):
        rng = np.random.default_rng(9)
        a0 = rng.normal(size=(4, 5))
        b0 = rng.normal(size=(5, 3))

        def grads(a_grad, b_grad):
            a = Tensor(a0, requires_grad=a_grad)
            b = Tensor(b0, requires_grad=b_grad)
            backward(T.sum_all(T.sigmoid(T.matmul(a, b))))
            return a.grad, b.grad

        both_a, both_b = grads(True, True)
        const_a, only_b = grads(False, True)
        only_a, const_b = grads(True, False)
        assert const_a is None and const_b is None
        assert np.array_equal(only_b, both_b)
        assert np.array_equal(only_a, both_a)

    def test_dimension_mismatch_names_shapes(self):
        with pytest.raises(ContractError, match=r"\(2, 3\).*\(4, 5\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


class TestElementwise:
    def test_relu_sign_cases(self):
        out = T.relu(Tensor([[-1.0, 0.0, 2.0]]))
        assert np.array_equal(out.data, [[0.0, 0.0, 2.0]])

    def test_mul_ones_identity(self):
        rng = np.random.default_rng(3)
        a = rand_tensor(rng, (4, 3))
        out = T.mul(a, Tensor(np.ones((4, 3))))
        assert np.array_equal(out.data, a.data)

    def test_row_broadcast(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[10.0, 20.0]])
        assert np.array_equal(T.add(a, b).data, [[11.0, 22.0], [13.0, 24.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_sqrt_domain_error(self):
        with pytest.raises(ContractError):
            T.sqrt(Tensor([[1.0, -1.0]]))

    def test_relu_grad_at_zero_is_zero(self):
        x = Tensor([[0.0, 1.0, -1.0]], requires_grad=True)
        backward(T.sum_all(T.relu(x)))
        assert np.array_equal(x.grad, [[0.0, 1.0, 0.0]])

    @pytest.mark.parametrize("dtype,logit", [(np.float64, -1000.0), (np.float32, -100.0)])
    def test_sigmoid_far_negative_is_zero_without_warning(self, dtype, logit):
        # exp(-logit) overflows to inf, and 1/(1+inf) = 0 is the right limit
        x = Tensor(np.array([[logit, 0.0]], dtype=dtype), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = T.sigmoid(x)
            backward(T.sum_all(out))
        assert out.data.dtype == dtype and x.grad.dtype == dtype
        assert out.data.tolist() == [[0.0, 0.5]]
        assert x.grad.tolist() == [[0.0, 0.25]]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_grad_bitwise_equals_mask_product(self, dtype):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 5)).astype(dtype)
        a[0, :3] = [0.0, -0.0, 0.0]
        a[1, :2] = [-0.0, -0.0]
        g = rng.normal(size=(6, 5)).astype(dtype)
        g[0, :3] = [-1.5, 2.0, -0.0]     # a negative g at a zero input gives -0.0
        x = Tensor(a.copy(), requires_grad=True)
        backward(T.sum_all(T.mul(T.relu(x), Tensor(g))))
        want = g * (a > 0).astype(dtype)
        assert x.grad.dtype == want.dtype
        assert x.grad.tobytes() == want.tobytes()


def _fd_grad(loss_fn, p, h=1e-6):
    """Central differences of the scalar loss_fn() in every entry of p.data."""
    fd = np.zeros_like(p.data)
    for idx in np.ndindex(p.shape):
        orig = p.data[idx]
        p.data[idx] = orig + h
        lp = loss_fn().item()
        p.data[idx] = orig - h
        lm = loss_fn().item()
        p.data[idx] = orig
        fd[idx] = (lp - lm) / (2 * h)
    return fd


class TestFusedNodes:
    """relu with a mask and rowscale with a base are single tape nodes; each
    must equal, bit for bit, the ops it replaces."""

    @staticmethod
    def _signed_zero_inputs(rng, shape, dtype):
        a = rng.normal(size=shape).astype(dtype)
        a[0, :4] = [0.0, -0.0, 0.0, -0.0]
        return a

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["dropout", "positive"])
    def test_relu_mask_bitwise_equals_relu_then_mul(self, dtype, kind):
        # a boolean keep mask and its scale against relu then the float mask
        # keep * scale, at signed zeros, infinities and NaNs; "positive"
        # keeps every entry
        rng = np.random.default_rng(12)
        a = self._signed_zero_inputs(rng, (7, 6), dtype)
        a[1, :6] = [np.inf, np.inf, np.nan, np.nan, -np.inf, -np.inf]
        if kind == "dropout":
            keep = rng.random((7, 6)) >= 0.4
            keep[:2, :6] = [False, False, True, True, False, True]
        else:
            keep = np.ones((7, 6), dtype=bool)
        scale = dtype(1) / dtype(1 - 0.4)
        m = keep.astype(dtype) / dtype(1 - 0.4)
        g = rng.normal(size=(7, 6)).astype(dtype)
        g[:2, :6] = -1.0

        x1, x2 = Tensor(a.copy(), requires_grad=True), Tensor(a.copy(), requires_grad=True)
        # inf * 0 in the dropped entries; inf - inf in the sums of the
        # losses, which only carry the upstream gradient g
        with np.errstate(invalid="ignore"):
            fused = T.relu(x1, keep, scale)
            ref = T.mul(T.relu(x2), Tensor(m))
            backward(T.sum_all(T.mul(fused, Tensor(g))))
            backward(T.sum_all(T.mul(ref, Tensor(g))))
        assert fused.data.dtype == ref.data.dtype
        assert fused.data.tobytes() == ref.data.tobytes()
        assert x1.grad.dtype == x2.grad.dtype
        assert x1.grad.tobytes() == x2.grad.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rowscale_base_bitwise_equals_add_of_rowscale(self, dtype):
        rng = np.random.default_rng(13)

        def leaves():
            r = np.random.default_rng(14)
            hs = self._signed_zero_inputs(r, (6, 5), dtype)
            hc = self._signed_zero_inputs(r, (6, 5), dtype)[::-1].copy()
            lam = r.uniform(size=(6, 1)).astype(dtype)
            lam[:2] = [[0.0], [-0.0]]
            return [Tensor(v, requires_grad=True) for v in (hs, hc, lam)]

        g = rng.normal(size=(6, 5)).astype(dtype)
        f, r = leaves(), leaves()
        fused = T.rowscale(f[1], f[2], base=f[0])
        ref = T.add(r[0], T.rowscale(r[1], r[2]))
        backward(T.sum_all(T.mul(fused, Tensor(g))))
        backward(T.sum_all(T.mul(ref, Tensor(g))))
        assert fused.data.tobytes() == ref.data.tobytes()
        for a, b in zip(f, r):
            assert a.grad.tobytes() == b.grad.tobytes()

    def test_rowscale_constant_weights_take_no_gradient(self):
        rng = np.random.default_rng(15)
        a = rand_tensor(rng, (4, 3), requires_grad=True)
        v = rand_tensor(rng, (4, 1))
        backward(T.sum_all(T.rowscale(a, v, base=rand_tensor(rng, (4, 3)))))
        assert v.grad is None
        assert np.array_equal(a.grad, np.broadcast_to(v.data, (4, 3)))

    def test_relu_mask_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        a = rng.normal(size=(5, 4))
        a[np.abs(a) < 0.1] = 0.5        # central differences need no kink within h
        x = Tensor(a, requires_grad=True)
        keep = rng.random((5, 4)) > 0.3
        w = Tensor(rng.normal(size=(4, 3)))

        def loss_fn():
            return T.sum_all(T.sigmoid(T.matmul(T.relu(x, keep, 1.0 / 0.7), w)))

        backward(loss_fn())
        np.testing.assert_allclose(x.grad, _fd_grad(loss_fn, x), rtol=1e-6, atol=1e-9)

    def test_rowscale_base_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        hs, hc, lam = (rand_tensor(rng, shape, requires_grad=True)
                       for shape in ((5, 3), (5, 3), (5, 1)))
        w = Tensor(rng.normal(size=(3, 2)))

        def loss_fn():
            return T.sum_all(T.sigmoid(T.matmul(T.rowscale(hc, lam, base=hs), w)))

        backward(loss_fn())
        for p in (hs, hc, lam):
            np.testing.assert_allclose(p.grad, _fd_grad(loss_fn, p), rtol=1e-6, atol=1e-9)


class TestRows:
    """rows(a, lo, hi) is a view; its gradient is zero outside those rows."""

    @staticmethod
    def _loss(a, consts):
        # two row blocks, one overlapping the other, and a full-shape consumer
        # between them in the walk
        terms = [T.sum_all(T.sigmoid(T.mul(T.rows(a, 1, 5), consts[0]))),
                 T.sum_all(T.mul(T.relu(a), consts[1])),
                 T.sum_all(T.mul(T.rows(a, 3, 7), consts[2]))]
        return T.add(T.add(terms[0], terms[1]), terms[2])

    @staticmethod
    def _consts(rng):
        return [Tensor(rng.normal(size=shape))
                for shape in ((4, 3), (7, 3), (4, 3))]

    def test_forward_is_a_view(self):
        a = rand_tensor(np.random.default_rng(40), (7, 3), requires_grad=True)
        out = T.rows(a, 2, 5)
        assert np.shares_memory(out.data, a.data) and np.array_equal(out.data, a.data[2:5])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(41)
        a = rand_tensor(rng, (7, 3), requires_grad=True)
        consts = self._consts(rng)
        backward(self._loss(a, consts))
        fd = _fd_grad(lambda: self._loss(a, consts), a)
        assert np.abs(a.grad - fd).max() <= 1e-6 * np.abs(fd).max()

    @pytest.mark.parametrize("lo, hi", [(-1, 2), (3, 2), (0, 8)])
    def test_range_outside_the_rows_is_contract_error(self, lo, hi):
        with pytest.raises(ContractError, match="rows"):
            T.rows(Tensor(np.zeros((7, 3))), lo, hi)


class TestCosineRows:
    def test_self_similarity(self):
        v = Tensor([[1.0, 2.0, 2.0]])
        assert abs(T.cosine_rows(v, v).item() - 1.0) < 1e-12

    def test_antipodal(self):
        v = Tensor([[1.0, -2.0, 0.5]])
        w = T.scale(v, -1.0)
        assert abs(T.cosine_rows(v, w).item() + 1.0) < 1e-12

    def test_zero_norm_convention(self):
        a = Tensor([[0.0, 0.0], [1.0, 0.0]])
        b = Tensor([[1.0, 1.0], [1.0, 0.0]])
        out = T.cosine_rows(a, b)
        assert out.data[0, 0] == 0.0
        assert abs(out.data[1, 0] - 1.0) < 1e-12

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 8))
        b = rng.normal(size=(5, 8))
        out = T.cosine_rows(Tensor(a), Tensor(b))
        for i in range(5):
            dot = sum(a[i, k] * b[i, k] for k in range(8))
            na = sum(a[i, k] ** 2 for k in range(8)) ** 0.5
            nb = sum(b[i, k] ** 2 for k in range(8)) ** 0.5
            assert abs(out.data[i, 0] - dot / (na * nb)) < 1e-12


class TestBackward:
    def test_sum_gives_ones(self):
        rng = np.random.default_rng(5)
        w = rand_tensor(rng, (3, 4), requires_grad=True)
        backward(T.sum_all(w))
        assert np.array_equal(w.grad, np.ones((3, 4)))

    def test_squared_norm_gives_2w(self):
        rng = np.random.default_rng(6)
        w = rand_tensor(rng, (3, 4), requires_grad=True)
        backward(T.sum_all(T.mul(w, w)))
        assert np.abs(w.grad - 2 * w.data).max() < 1e-12

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ContractError):
            backward(T.mul(w, w))

    def test_repeated_operand_accumulates(self):
        w = Tensor([[3.0]], requires_grad=True)
        backward(T.add(w, w))
        assert w.grad[0, 0] == 2.0

    def test_backward_linearity(self):
        rng = np.random.default_rng(7)
        x = rand_tensor(rng, (4, 3), requires_grad=True)

        def l1():
            return T.sum_all(T.relu(T.mul(x, x)))

        def l2():
            return T.sum_all(T.sigmoid(T.scale(x, 0.3)))

        alpha, beta = 0.7, -1.9
        backward(l1())
        g1 = x.grad.copy()
        x.grad = None
        backward(l2())
        g2 = x.grad.copy()
        x.grad = None
        backward(T.add(T.scale(l1(), alpha), T.scale(l2(), beta)))
        assert np.abs(x.grad - (alpha * g1 + beta * g2)).max() < 1e-10

    def test_composite_gradients_match_finite_differences(self):
        # random composite expressions over the op set, checked against
        # central differences at h=1e-5
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            a = rand_tensor(rng, (4, 3), requires_grad=True)
            b = rand_tensor(rng, (3, 5), requires_grad=True)
            c = rand_tensor(rng, (5, 2))

            def loss_fn():
                m = T.matmul(a, b)
                n = T.normalize_rows(T.relu(m))
                s = T.add_scalar(T.sum_rows(T.mul(n, T.sigmoid(m))), 1.0)
                r = T.rowscale(T.concat_cols([T.matmul(n, c), T.scale(m, 0.5)]), s)
                return T.add(T.sqrt(T.add_scalar(T.sum_all(T.mul(r, r)), 1.0)),
                             T.mean_all(T.sigmoid(T.rowscale(m, T.cosine_rows(m, n)))))

            backward(loss_fn())
            for p in (a, b):
                analytic = p.grad.copy()
                fd = np.zeros_like(p.data)
                h = 1e-5
                it = np.nditer(p.data, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = p.data[idx]
                    p.data[idx] = orig + h
                    lp = loss_fn().item()
                    p.data[idx] = orig - h
                    lm = loss_fn().item()
                    p.data[idx] = orig
                    fd[idx] = (lp - lm) / (2 * h)
                rel = np.abs(analytic - fd) / np.maximum(
                    np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
                assert rel.max() < 1e-4

    def test_walked_tape_cannot_be_walked_again(self):
        w = Tensor([[1.0, -2.0]], requires_grad=True)
        y = T.relu(w)
        loss = T.sum_all(y)
        backward(loss)
        assert w.grad.tolist() == [[1.0, 0.0]]
        with pytest.raises(ContractError, match="already walked"):
            backward(loss)
        with pytest.raises(ContractError, match="already walked"):
            backward(T.sum_all(T.mul(y, y)))

    def test_forward_determinism(self):
        def run():
            rng = np.random.default_rng(8)
            a = rand_tensor(rng, (6, 4))
            b = rand_tensor(rng, (4, 6))
            return T.sigmoid(T.matmul(a, b)).data

        assert np.array_equal(run(), run())


class TestReductionsAndStructure:
    def test_rowscale(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        v = Tensor([[2.0], [0.5]], requires_grad=True)
        out = T.rowscale(x, v)
        assert np.array_equal(out.data, [[2.0, 4.0], [1.5, 2.0]])
        backward(T.sum_all(out))
        assert np.array_equal(x.grad, [[2.0, 2.0], [0.5, 0.5]])
        assert np.array_equal(v.grad, [[3.0], [7.0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_normalize_rows_bitwise_equals_unscaled_norm(self, dtype):
        # in range, the power-of-two scaling leaves every bit of the result
        for seed in range(40):
            rng = np.random.default_rng(seed)
            a = (rng.normal(size=(6, 5)) * 10.0 ** rng.uniform(-8, 8, size=(6, 1)))
            a = a.astype(dtype)
            a[seed % 6] = 0.0
            norms = np.linalg.norm(a, axis=1, keepdims=True)
            ok = norms >= 1e-12
            want = a * np.where(ok, 1.0 / np.where(ok, norms, 1.0), 0.0)
            got = T.normalize_rows(Tensor(a)).data
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_normalize_rows_float32_huge_row_is_unit_without_warning(self):
        x = Tensor(np.array([[1e20, 0.0], [3e20, 4e20]], dtype=np.float32))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = T.normalize_rows(x).data
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, [[1.0, 0.0], [0.6, 0.8]], rtol=1e-6)

    def test_normalize_rows_zero_row(self):
        x = Tensor([[0.0, 0.0], [3.0, 4.0]], requires_grad=True)
        out = T.normalize_rows(x)
        assert np.array_equal(out.data[0], [0.0, 0.0])
        assert np.abs(np.linalg.norm(out.data[1]) - 1.0) < 1e-12
        backward(T.sum_all(out))
        assert np.array_equal(x.grad[0], [0.0, 0.0])


def unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def ntxent_and_grads(z, a, tau):
    zt = Tensor(z, requires_grad=True)
    at = Tensor(a, requires_grad=True)
    out = T.ntxent_view(zt, at, 1.0 / tau)
    backward(out)
    return out.item(), zt.grad, at.grad


def dense_ntxent(z, a, tau):
    """NT-Xent loss and gradients from the whole float64 N x N blocks.

    Each anchor's loss log(n_i + e_i) - log(e_i), with n_i its negatives and
    e_i its positive, is taken as log1p(n_i / e_i), and the positive's
    gradient t * e_i / d_i - t as -t * n_i / d_i, so that a near-zero loss
    keeps its relative precision.
    """
    t = 1.0 / tau
    e_zz, e_za, e_aa = np.exp(t * (z @ z.T)), np.exp(t * (z @ a.T)), np.exp(t * (a @ a.T))
    e_pos = np.diag(e_za).copy()
    for e in (e_zz, e_za, e_aa):
        np.fill_diagonal(e, 0.0)
    n_fwd = e_zz.sum(axis=1) + e_za.sum(axis=1)
    n_bwd = e_aa.sum(axis=1) + e_za.sum(axis=0)
    d_fwd, d_bwd = n_fwd + e_pos, n_bwd + e_pos
    loss = np.log1p(n_fwd / e_pos).sum() + np.log1p(n_bwd / e_pos).sum()
    # d loss / d similarity, one matrix per block
    g_zz = t * e_zz / d_fwd[:, None]
    g_aa = t * e_aa / d_bwd[:, None]
    g_za = (t * e_za * (1 / d_fwd[:, None] + 1 / d_bwd[None, :])
            - t * np.diag(n_fwd / d_fwd + n_bwd / d_bwd))
    gz = (g_zz + g_zz.T) @ z + g_za @ a
    ga = (g_aa + g_aa.T) @ a + g_za.T @ z
    return loss, gz, ga


B = T._ROW_BLOCK


class TestNtxentView:
    @pytest.mark.parametrize("tau", [0.1, 0.5, 1.5])
    def test_gradients_match_finite_differences(self, tau):
        rng = np.random.default_rng(31)
        z = unit_rows(rng, 8, 4)
        a = unit_rows(rng, 8, 4)
        z[5] = 0.0   # a zero row, as normalize_rows leaves a zero embedding
        _, gz, ga = ntxent_and_grads(z, a, tau)
        h = 1e-6
        for x, analytic in ((z, gz), (a, ga)):
            fd = np.zeros_like(x)
            for idx in np.ndindex(x.shape):
                orig = x[idx]
                x[idx] = orig + h
                up = T.ntxent_view(Tensor(z), Tensor(a), 1.0 / tau).item()
                x[idx] = orig - h
                down = T.ntxent_view(Tensor(z), Tensor(a), 1.0 / tau).item()
                x[idx] = orig
                fd[idx] = (up - down) / (2 * h)
            rel = np.abs(analytic - fd) / np.maximum(
                np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
            assert rel.max() < 1e-4

    @pytest.mark.parametrize("tau", [0.5, 0.05, 0.02])
    def test_float32_matches_float64(self, tau):
        # at small tau the negatives fall below float32's resolution of the
        # self-similarity term 1; they must not cancel against it
        rng = np.random.default_rng(32)
        z = unit_rows(rng, 64, 16).astype(np.float32)
        a = unit_rows(rng, 64, 16).astype(np.float32)
        l32, gz32, ga32 = ntxent_and_grads(z, a, tau)
        l64, gz64, ga64 = ntxent_and_grads(z.astype(np.float64),
                                           a.astype(np.float64), tau)
        assert abs(l32 - l64) <= 1e-5 * abs(l64)
        for g32, g64 in ((gz32, gz64), (ga32, ga64)):
            assert g32.dtype == np.float32
            assert np.abs(g32 - g64).max() <= 1e-4 * np.abs(g64).max()

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([2, B - 1, B, B + 1, 2 * B + 3]),
           d=st.integers(1, 6), tau=st.sampled_from([0.1, 0.5, 1.5]),
           n_zero=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    @example(n=2, d=1, tau=0.1, n_zero=0, seed=255)    # positives aligned: loss ~ 1.6e-8
    @example(n=2, d=1, tau=1.5, n_zero=0, seed=233)    # all rows equal: gradient 0
    def test_matches_dense_reference(self, n, d, tau, n_zero, seed):
        # row counts on both sides of the row-block size and its multiples
        rng = np.random.default_rng(seed)
        z = unit_rows(rng, n, d)
        a = unit_rows(rng, n, d)
        z[rng.choice(n, min(n_zero, n), replace=False)] = 0.0
        a[rng.choice(n, min(n_zero, n), replace=False)] = 0.0
        loss, gz, ga = ntxent_and_grads(z, a, tau)
        ref, rz, ra = dense_ntxent(z, a, tau)
        assert abs(loss - ref) <= 1e-9 * abs(ref)
        # where the exact gradient is 0 (all rows equal) the reference holds
        # only rounding noise, 5.6e-17 at seed 233, which no relative bound
        # can meet; there the kernel's gradient must be as small
        noise = 64 * np.finfo(np.float64).eps / tau
        for g, r in ((gz, rz), (ga, ra)):
            if np.abs(r).max() <= noise:
                assert np.abs(g).max() <= noise
            else:
                assert np.abs(g - r).max() <= 1e-9 * np.abs(r).max()

    def test_near_zero_loss_keeps_relative_precision(self):
        # each row's positive is itself and its three negatives all sit at
        # similarity -1: every anchor loses log1p(2 e^(-2t)), and each
        # coordinate's gradient is -8t q * sign, with q = e^(-2t) / (1 + 2 e^(-2t))
        x = np.array([[1.0], [-1.0]])
        t = 10.0
        loss, gz, ga = ntxent_and_grads(x.copy(), x.copy(), 1.0 / t)
        assert abs(loss - 4 * np.log1p(2 * np.exp(-2 * t))) <= 1e-13 * loss
        q = np.exp(-2 * t) / (1 + 2 * np.exp(-2 * t))
        for g in (gz, ga):
            assert np.abs(g - (-8 * t * q * x)).max() <= 1e-13 * 8 * t * q

    def test_no_square_array_is_made(self):
        n = 3 * B
        rng = np.random.default_rng(33)
        z, a = unit_rows(rng, n, 8), unit_rows(rng, n, 8)
        _, peak = traced_memory(lambda: ntxent_and_grads(z, a, 0.5))
        assert peak < n * n * z.itemsize

    def test_tape_keeps_no_gemm_operand(self):
        # the tape holds zn, an and a few N-vectors; the walk's [x, 1]
        # operands (N x (d+1) each) are rebuilt by the backward
        n, d = 2 * B + 3, 16
        rng = np.random.default_rng(34)
        zn = Tensor(unit_rows(rng, n, d), requires_grad=True)
        an = Tensor(unit_rows(rng, n, d), requires_grad=True)
        held, _ = traced_memory(lambda: T.ntxent_view(zn, an, 2.0))
        assert held < n * (d + 1) * 8

    def test_backward_credits_are_d_wide(self):
        # beyond one (B, N) tile, the backward holds at most the two rebuilt
        # [x, 1] operands, the two N x d credits and one N x d column
        # credit, about 5 N x d; the scaled left factors [t*x, -t], made
        # whole rather than a row block at a time, would take it to 7 N x d
        n, d = 2 * B + 3, 64
        rng = np.random.default_rng(35)
        zn = Tensor(unit_rows(rng, n, d), requires_grad=True)
        an = Tensor(unit_rows(rng, n, d), requires_grad=True)
        loss = T.ntxent_view(zn, an, 2.0)
        _, peak = traced_memory(lambda: backward(loss))
        assert peak < (B * n + 6 * n * d) * 8


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        p = {"w": np.array([[1.0, 2.0]])}
        state = AdamState()
        adam_step(p, {"w": np.zeros((1, 2))}, state, lr=0.1)
        assert np.array_equal(p["w"], [[1.0, 2.0]])
        assert state.step == 1

    def test_matches_hand_unrolled_recursion(self):
        g = 0.7
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        p = {"w": np.array([[1.0]])}
        state = AdamState()
        m = v = 0.0
        x = 1.0
        for t in range(1, 4):
            adam_step(p, {"w": np.array([[g]])}, state, lr=lr)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1 ** t)
            vh = v / (1 - b2 ** t)
            x -= lr * mh / (vh ** 0.5 + eps)
            assert abs(p["w"][0, 0] - x) < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_textbook_update(self, dtype):
        # the textbook form, allocating its temporaries; adam_step reuses them
        def textbook(p, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)

        rng = np.random.default_rng(11)
        # "big" spans more than one slice and is not a multiple of one; its
        # gradient is a transposed, non-contiguous view
        big = (2 * (T._ADAM_SLICE // 7) + 5, 7)
        params = {"w": rng.normal(size=(7, 5)).astype(dtype),
                  "b": np.zeros((1, 5), dtype=dtype),
                  "big": rng.normal(size=big).astype(dtype)}
        ref = {name: p.copy() for name, p in params.items()}
        moments = {name: (np.zeros_like(p), np.zeros_like(p)) for name, p in ref.items()}
        state = AdamState()
        for t in range(1, 6):
            grads = {"w": rng.normal(size=(7, 5)).astype(dtype),
                     "b": np.zeros((1, 5), dtype=dtype) if t % 2 else
                     rng.normal(size=(1, 5)).astype(dtype),
                     "big": rng.normal(size=big[::-1]).astype(dtype).T}
            if t == 3:
                grads["w"][:] = 0.0
            adam_step(params, grads, state, lr=0.01)
            for name, p in ref.items():
                textbook(p, grads[name], *moments[name], t, lr=0.01)
                assert params[name].dtype == p.dtype
                assert params[name].tobytes() == p.tobytes()

    def test_lr_zero_null_step(self):
        p = {"w": np.array([[1.0, -2.0]])}
        adam_step(p, {"w": np.array([[5.0, -3.0]])}, AdamState(), lr=0.0)
        assert np.array_equal(p["w"], [[1.0, -2.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            adam_step({"w": np.zeros((2, 2))}, {"w": np.zeros((1, 2))},
                      AdamState(), lr=0.1)

    @pytest.mark.parametrize("lr, grad_names", [
        (np.nan, ("a", "b")), (np.inf, ("a", "b")), (-0.1, ("a", "b")), ("0.1", ("a", "b")),
        (0.1, ("a",)), (0.1, ("a", "c")), (0.1, ("a", "b", "c")), (0.1, ("a", "b*"))])
    def test_bad_step_rejected_before_any_write(self, lr, grad_names):
        # "b*" is a gradient of the wrong shape, for the last parameter
        params = {"a": np.ones((2, 3)), "b": np.ones((1, 3))}
        grads = {name.rstrip("*"): np.ones((2, 3)) for name in grad_names}
        state = AdamState()
        with pytest.raises(ContractError):
            adam_step(params, grads, state, lr)
        assert state.step == 0 and not state.m
        assert all(np.array_equal(p, np.ones(p.shape)) for p in params.values())


def _ring(n, dtype):
    return sp.csr_matrix(np.eye(n, k=1) + np.eye(n, k=-1), dtype=dtype)


def _mask(a):
    return np.arange(a.data.size).reshape(a.shape) % 3 != 0


# Every differentiable op: (parent shapes, build from the parent tensors).
# Parents hold positive unit rows, which every op's domain accepts.
PROTOCOL_OPS = {
    "matmul": ([(6, 4), (4, 3)], T.matmul),
    "spmm": ([(6, 4)], lambda x: T.spmm(_ring(6, x.data.dtype), x)),
    "add": ([(6, 4), (1, 4)], T.add),
    "mul": ([(6, 4), (6, 4)], T.mul),
    "scale": ([(6, 4)], lambda a: T.scale(a, -1.5)),
    "add_scalar": ([(6, 4)], lambda a: T.add_scalar(a, 2.0)),
    "relu": ([(6, 4)], T.relu),
    "relu_mask": ([(6, 4)], lambda a: T.relu(a, _mask(a), a.data.dtype.type(1.25))),
    "sigmoid": ([(6, 4)], T.sigmoid),
    "sqrt": ([(6, 4)], T.sqrt),
    "absolute": ([(6, 4)], T.absolute),
    "sum_all": ([(6, 4)], T.sum_all),
    "mean_all": ([(6, 4)], T.mean_all),
    "sum_rows": ([(6, 4)], T.sum_rows),
    "concat_cols": ([(6, 2), (6, 3), (6, 1)], lambda *ts: T.concat_cols(ts)),
    "rowscale": ([(6, 4), (6, 1)], T.rowscale),
    "rowscale_base": ([(6, 4), (6, 1), (6, 4)],
                      lambda a, v, base: T.rowscale(a, v, base=base)),
    "normalize_rows": ([(6, 4)], T.normalize_rows),
    "ntxent_view": ([(6, 4), (6, 4)], lambda z, a: T.ntxent_view(z, a, 2.0)),
    "rows": ([(6, 4)], lambda a: T.rows(a, 2, 5)),
}


def _protocol_node(op, pattern, dtype):
    shapes, build = PROTOCOL_OPS[op]
    rng = np.random.default_rng(17)
    parents = []
    for shape, needs in zip(shapes, pattern):
        x = rng.uniform(0.5, 2.0, size=shape)
        parents.append(Tensor((x / np.linalg.norm(x, axis=1, keepdims=True)).astype(dtype),
                              requires_grad=needs))
    out = build(*parents)
    g = rng.normal(size=out.shape).astype(dtype)
    return parents, out, out._backward(g)


class TestOpProtocol:
    """An op's `_backward(g)` returns one vector-Jacobian product per parent,
    in `_parents` order; `backward` alone accumulates them."""

    def test_every_op_is_listed(self):
        ops = {name for name, fn in vars(T).items() if inspect.isfunction(fn)
               and not name.startswith("_") and "_result(" in inspect.getsource(fn)}
        assert ops == {op.split("_mask")[0].split("_base")[0] for op in PROTOCOL_OPS}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", sorted(PROTOCOL_OPS))
    def test_one_entry_per_parent(self, op, dtype):
        for pattern in itertools.product([True, False], repeat=len(PROTOCOL_OPS[op][0])):
            if not any(pattern):
                continue
            parents, out, entries = _protocol_node(op, pattern, dtype)
            assert out._parents == tuple(p.node for p in parents)
            assert len(entries) == len(out._parents)
            for p, entry in zip(parents, entries):
                if entry is None:
                    assert not p.requires_grad, (op, pattern)
                else:
                    assert isinstance(entry, np.ndarray), (op, pattern)
                    assert entry.shape == p.shape and entry.dtype == p.data.dtype

    @pytest.mark.parametrize("op, pattern, skipped", [
        ("matmul", (False, True), 0), ("matmul", (True, False), 1),
        ("rowscale", (True, False), 1), ("rowscale_base", (True, False, True), 1)])
    def test_constant_operand_takes_no_product(self, op, pattern, skipped):
        # the features in x @ enc_w1 and the keep row in rowscale(enc_w1, keep.T)
        _, _, entries = _protocol_node(op, pattern, np.float64)
        assert entries[skipped] is None


class TestTapeOwnership:
    """Tape nodes hold no arrays and each backward closure keeps only what it
    reads, so an intermediate dies when the forward code drops its tensor."""

    KEEP = np.arange(24).reshape(6, 4) % 5 != 0

    @classmethod
    def _loss(cls, x, w1, w2, refs):
        xw = T.matmul(x, w1)                        # x @ W: no backward reads it
        agg = T.spmm(_ring(6, x.data.dtype), xw)    # spmm keeps the adjacency only
        h = T.relu(agg, cls.KEEP, 1.25)             # relu keeps its output and mask
        refs.update(xw=weakref.ref(xw.data), agg=weakref.ref(agg.data),
                    h=weakref.ref(h.data))
        return T.sum_all(T.sigmoid(T.matmul(h, w2)))    # matmul reads h

    def test_dropped_inputs_die_while_the_tape_lives(self):
        rng = np.random.default_rng(31)
        x = Tensor(rng.uniform(0.5, 1.5, size=(6, 5)))
        w1, w2 = rand_tensor(rng, (5, 4), True), rand_tensor(rng, (4, 3), True)
        refs = {}
        loss = self._loss(x, w1, w2, refs)
        assert {name: r() is not None for name, r in refs.items()} == {
            "xw": False, "agg": False, "h": True}
        backward(loss)
        for w in (w1, w2):
            fd = _fd_grad(lambda: self._loss(x, w1, w2, {}), w)
            np.testing.assert_allclose(w.grad, fd, rtol=1e-6, atol=1e-9)

    def test_parents_are_nodes(self):
        rng = np.random.default_rng(32)
        x, w = rand_tensor(rng, (3, 2)), rand_tensor(rng, (2, 2), True)
        out = T.matmul(x, w)
        assert out._parents == (None, w.node)
        assert isinstance(w.node, T.Node) and x.node is None
        assert not any(isinstance(p, (Tensor, np.ndarray)) for p in out._parents)

    def test_detach_shares_the_array_and_has_no_node(self):
        # a detached tensor is a constant on the source's own array; the
        # source keeps its node, and a gradient through the constant stops
        rng = np.random.default_rng(33)
        w = rand_tensor(rng, (3, 2), True)
        node = w.node
        const = w.detach()
        assert np.shares_memory(const.data, w.data) and const.data is w.data
        assert const.node is None and w.node is node
        backward(T.sum_all(T.mul(const, w)))
        np.testing.assert_array_equal(w.grad, w.data)
