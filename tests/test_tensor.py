import mmap

import numpy as np
import pytest

from nodefuse import AdamState, Tensor, adam_step, backward
from nodefuse import tensor as T
from nodefuse.errors import ContractError, DomainError, ShapeError


def rand_tensor(rng, shape, requires_grad=False):
    return Tensor(rng.normal(size=shape), requires_grad=requires_grad)


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
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
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
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_sqrt_domain_error(self):
        with pytest.raises(DomainError):
            T.sqrt(Tensor([[1.0, -1.0]]))

    def test_relu_grad_at_zero_is_zero(self):
        x = Tensor([[0.0, 1.0, -1.0]], requires_grad=True)
        backward(T.sum_all(T.relu(x)))
        assert np.array_equal(x.grad, [[0.0, 1.0, 0.0]])


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

    def test_square_blocks_get_mappings_of_their_own(self, monkeypatch):
        # from malloc, an N x N block lands in a freed heap hole or on a new
        # mapping, and which one changed between runs, moving the peak RSS
        blocks = []
        mapped = T._mapped_square

        def recording(n, dtype):
            blocks.append(mapped(n, dtype))
            return blocks[-1]

        monkeypatch.setattr(T, "_mapped_square", recording)
        rng = np.random.default_rng(33)
        z = unit_rows(rng, 16, 4).astype(np.float32)
        a = unit_rows(rng, 16, 4).astype(np.float32)
        T.ntxent_view(Tensor(z), Tensor(a), 2.0)
        assert [(b.shape, b.dtype) for b in blocks] == [((16, 16), np.float32)] * 3
        # frombuffer reaches the mapping through a memoryview
        assert all(isinstance(b.base.base.obj, mmap.mmap) for b in blocks)


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

    def test_lr_zero_null_step(self):
        p = {"w": np.array([[1.0, -2.0]])}
        adam_step(p, {"w": np.array([[5.0, -3.0]])}, AdamState(), lr=0.0)
        assert np.array_equal(p["w"], [[1.0, -2.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            adam_step({"w": np.zeros((2, 2))}, {"w": np.zeros((1, 2))},
                      AdamState(), lr=0.1)
