"""Tests for the reverse-mode tape: every smooth op against central finite
differences, straight-through adjoints against their bit-equality contract.
"""

import numpy as np
import pytest

from ternact import autodiff as ad
from ternact.quantcore import Granularity, QuantScheme, SchemeKind, fake_quant


def fd_grad(f, x, eps=1e-5):
    """Dense central finite differences of scalar f at x."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2.0 * eps)
    return g


def assert_matches_fd(build, x, rtol=1e-6, atol=1e-8):
    """build(Var) -> scalar Var; compare tape gradient with FD."""
    v = ad.Var(x)
    loss = build(v)
    loss.backward()
    expected = fd_grad(lambda xv: float(build(ad.Var(xv)).value), x)
    np.testing.assert_allclose(v.grad, expected, rtol=rtol, atol=atol)


def weighted(out, rng):
    """Reduce an op output to a scalar through fixed random weights so the
    finite-difference probe exercises every output entry."""
    w = ad.Var(rng.standard_normal(out.value.shape))
    return ad.vsum(ad.mul(out, w))


RNG = np.random.default_rng(42)


class TestElementwiseOps:
    def test_add(self):
        x = RNG.standard_normal((3, 4))
        y = ad.Var(RNG.standard_normal((3, 4)))
        assert_matches_fd(lambda v: weighted(ad.add(v, y), np.random.default_rng(0)), x)

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.add(ad.Var(np.zeros(3)), ad.Var(np.zeros(4)))

    def test_mul(self):
        x = RNG.standard_normal((2, 5))
        y = ad.Var(RNG.standard_normal((2, 5)))
        assert_matches_fd(lambda v: weighted(ad.mul(v, y), np.random.default_rng(1)), x)

    def test_relu2(self):
        # keep pre-activations away from the kink at zero
        x = np.array([-2.0, -0.5, 0.5, 1.3, 2.0])
        assert_matches_fd(lambda v: weighted(ad.relu2(v), np.random.default_rng(4)), x)

    def test_relu2_adjoint_value(self):
        # d/dx ReLU^2 at x=2 is 2*ReLU(2) = 4
        v = ad.Var(np.array(2.0).reshape(1))
        out = ad.vsum(ad.relu2(v))
        out.backward()
        assert v.grad[0] == 4.0

    def test_silu(self):
        x = RNG.standard_normal(8) * 2.0
        assert_matches_fd(lambda v: weighted(ad.silu(v), np.random.default_rng(5)), x)


class TestMatmulOps:
    def test_linear(self):
        x = RNG.standard_normal((2, 3, 4))
        w = ad.Var(RNG.standard_normal((5, 4)))
        assert_matches_fd(lambda v: weighted(ad.linear(v, w), np.random.default_rng(11)), x)
        wv = w.value.copy()
        xfix = ad.Var(x)
        w2 = ad.Var(wv)
        loss = weighted(ad.linear(xfix, w2), np.random.default_rng(11))
        loss.backward()
        expected = fd_grad(
            lambda a: float(weighted(ad.linear(xfix, ad.Var(a)), np.random.default_rng(11)).value), wv
        )
        np.testing.assert_allclose(w2.grad, expected, rtol=1e-6, atol=1e-8)


class TestNormAndSoftmax:
    def test_rmsnorm_input_grad(self):
        x = RNG.standard_normal((2, 3, 8))
        gain = ad.Var(RNG.uniform(0.5, 1.5, 8))
        assert_matches_fd(lambda v: weighted(ad.rmsnorm(v, gain), np.random.default_rng(12)), x, rtol=1e-5)

    def test_rmsnorm_gain_grad(self):
        x = ad.Var(RNG.standard_normal((2, 3, 8)))
        gv = RNG.uniform(0.5, 1.5, 8)

        def build(g):
            return weighted(ad.rmsnorm(x, g), np.random.default_rng(13))

        g = ad.Var(gv)
        loss = build(g)
        loss.backward()
        expected = fd_grad(lambda a: float(build(ad.Var(a)).value), gv)
        np.testing.assert_allclose(g.grad, expected, rtol=1e-6, atol=1e-8)

    def test_rmsnorm_normalizes(self):
        x = RNG.standard_normal((4, 16)) * 7.0
        out = ad.rmsnorm(ad.Var(x), ad.Var(np.ones(16)))
        rms = np.sqrt(np.mean(out.value**2, axis=-1))
        np.testing.assert_allclose(rms, 1.0, rtol=1e-4)

    def test_softmax(self):
        # the max shift keeps huge logits finite and changes nothing else
        x = RNG.standard_normal((2, 5)) * 3.0
        e = np.exp(x)
        np.testing.assert_allclose(ad.softmax(x), e / e.sum(axis=-1, keepdims=True), rtol=1e-12)
        np.testing.assert_allclose(ad.softmax(x + 1e4), ad.softmax(x), rtol=1e-9)

    def test_softmax_rows_sum_to_one(self):
        x = RNG.standard_normal((3, 7)) * 10.0
        p = ad.softmax(x)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-12)


class TestRope:
    def test_position_zero_is_identity(self):
        x = RNG.standard_normal((2, 1, 8))
        np.testing.assert_array_equal(ad.rope(x, np.array([0])), x)

    def test_head_dim_two_pos_one_rotates_one_radian(self):
        out = ad.rope(np.array([[1.0, 0.0]]), np.array([1]))
        np.testing.assert_allclose(out[0], [np.cos(1.0), np.sin(1.0)], rtol=1e-15)

    def test_pair_norms_preserved(self):
        x = RNG.standard_normal((2, 5, 6))
        out = ad.rope(x, np.arange(5))
        before = x[..., 0::2] ** 2 + x[..., 1::2] ** 2
        after = out[..., 0::2] ** 2 + out[..., 1::2] ** 2
        np.testing.assert_allclose(after, before, rtol=1e-12)

    def test_grad(self):
        # rope is linear, so its gradient is its adjoint: <rope(x), g> equals
        # <x, rope_adjoint(g)>, and the adjoint of a rotation is its inverse
        x, g = RNG.standard_normal((2, 2, 3, 4))
        positions = np.arange(3)
        assert np.sum(ad.rope(x, positions) * g) == pytest.approx(np.sum(x * ad.rope_adjoint(g, positions)), rel=1e-12)
        np.testing.assert_allclose(ad.rope_adjoint(ad.rope(x, positions), positions), x, rtol=1e-12, atol=1e-15)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError):
            ad.rope(np.zeros((1, 3)), np.array([0]))


class TestEmbedding:
    def test_lookup_and_scatter_grad(self):
        table = ad.Var(RNG.standard_normal((10, 4)))
        tokens = np.array([[1, 3, 1], [0, 9, 1]])
        out = ad.embedding(table, tokens)
        np.testing.assert_array_equal(out.value, table.value[tokens])
        loss = weighted(out, np.random.default_rng(16))
        loss.backward()
        expected = fd_grad(
            lambda t: float(weighted(ad.embedding(ad.Var(t), tokens), np.random.default_rng(16)).value),
            table.value.copy(),
        )
        np.testing.assert_allclose(table.grad, expected, rtol=1e-6, atol=1e-8)

    def test_out_of_vocab_rejected(self):
        with pytest.raises(ValueError):
            ad.embedding(ad.Var(np.zeros((4, 2))), np.array([4]))


class TestCrossEntropy:
    def test_uniform_logits_is_log_vocab(self):
        logits = ad.Var(np.zeros((2, 3, 16)))
        targets = np.zeros((2, 3), dtype=np.int64)
        loss = ad.cross_entropy(logits, targets)
        assert float(loss.value) == pytest.approx(np.log(16.0), rel=1e-12)

    def test_confident_correct_goes_to_zero(self):
        logits = np.zeros((1, 1, 4))
        logits[0, 0, 2] = 50.0
        loss = ad.cross_entropy(ad.Var(logits), np.array([[2]]))
        assert float(loss.value) < 1e-12

    def test_hand_oracle(self):
        # ORACLE: -log softmax([1,2,3])[0] = log(e^1+e^2+e^3) - 1
        logits = np.array([[[1.0, 2.0, 3.0]]])
        loss = ad.cross_entropy(ad.Var(logits), np.array([[0]]))
        expected = np.log(np.exp(1) + np.exp(2) + np.exp(3)) - 1.0
        assert float(loss.value) == pytest.approx(expected, rel=1e-12)

    def test_grad(self):
        x = RNG.standard_normal((2, 3, 5))
        targets = np.array([[0, 4, 2], [1, 1, 3]])
        assert_matches_fd(lambda v: ad.cross_entropy(v, targets), x, rtol=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.cross_entropy(ad.Var(np.zeros((2, 3, 5))), np.zeros((2, 4), dtype=int))


class TestSteOps:
    def test_bitlinear_identity_matches_fd(self):
        x = RNG.standard_normal((3, 6))
        w = ad.Var(RNG.standard_normal((4, 6)))
        assert_matches_fd(
            lambda v: weighted(ad.bitlinear(v, w, None), np.random.default_rng(17)), x
        )

    def test_bitlinear_ste_dx_is_grad_times_fq_weights(self):
        from ternact.quantcore import dequantize, quantize

        x = ad.Var(RNG.standard_normal((5, 8)))
        w = ad.Var(RNG.standard_normal((3, 8)))
        out = ad.bitlinear(x, w, ad.input_codes(x.value, QuantScheme.int8()), QuantScheme.ternary())
        up = ad.Var(RNG.standard_normal((5, 3)))
        ad.vsum(ad.mul(out, up)).backward()
        fqw = dequantize(quantize(w.value, QuantScheme.ternary()))
        np.testing.assert_array_equal(x.grad, up.value @ fqw)

    def test_bitlinear_ste_dw_uses_masked_input(self):
        from ternact.quantcore import QuantScheme as QS
        from ternact.sparsify import topk_mask

        x = ad.Var(RNG.standard_normal((5, 8)))
        w = ad.Var(RNG.standard_normal((3, 8)))
        out = ad.bitlinear(x, w, ad.input_codes(x.value, QS.int8(), 0.5), QS.ternary())
        up = ad.Var(RNG.standard_normal((5, 3)))
        ad.vsum(ad.mul(out, up)).backward()
        fqx = fake_quant(x.value, QS.int8()) * topk_mask(x.value, 0.5).mask
        np.testing.assert_array_equal(w.grad, up.value.T @ fqx)

    def test_bitlinear_mask_gates_dx(self):
        from ternact.sparsify import topk_mask

        xv = RNG.standard_normal((4, 8))
        w = ad.Var(RNG.standard_normal((3, 8)))
        upv = RNG.standard_normal((4, 3))
        x = ad.Var(xv)
        out = ad.bitlinear(x, w, ad.input_codes(xv, QuantScheme.int8(), 0.5), QuantScheme.ternary())
        ad.vsum(ad.mul(out, ad.Var(upv))).backward()
        mask = topk_mask(xv, 0.5).mask
        np.testing.assert_array_equal(x.grad, (upv @ fake_quant(w.value, QuantScheme.ternary())) * mask)
        assert np.all(x.grad[~mask] == 0.0)

    def test_bitlinear_records_sparsity(self):
        from ternact.layers import BitLinearLayer, Probe, Site, bitlinear_forward, probing

        w = ad.Var(RNG.standard_normal((3, 8)))
        layer = BitLinearLayer(w, Site.ATTN_OUT, QuantScheme.int8(), k_fraction=0.5)
        with probing(Probe()) as probe:
            bitlinear_forward(layer, RNG.standard_normal((4, 8)))
        assert len(probe.sparsity[Site.ATTN_OUT]) == 1
        assert probe.sparsity[Site.ATTN_OUT][0] >= 0.5

    def test_bitlinear_rejects_codes_of_another_shape(self):
        x = ad.Var(RNG.standard_normal((4, 8)))
        w = ad.Var(RNG.standard_normal((3, 8)))
        xin = ad.input_codes(RNG.standard_normal((5, 8)), QuantScheme.int8())
        with pytest.raises(ValueError, match="do not match"):
            ad.bitlinear(x, w, xin, QuantScheme.ternary())

    @pytest.mark.parametrize("scheme", [QuantScheme.int8(), QuantScheme.int4(), QuantScheme.fp4()],
                             ids=["int8", "int4", "fp4"])
    def test_input_codes_read_quantize_codes_and_mask_a_copy(self, scheme):
        from ternact.quantcore import E2M1_GRID, quantize
        from ternact.sparsify import topk_mask

        xv = RNG.standard_normal((4, 8))
        codes = quantize(xv, scheme).codes
        if scheme.kind is SchemeKind.FP4_MINMAX:
            codes = np.sign(codes) * 2.0 * E2M1_GRID[np.abs(codes).astype(int)]
        mask = topk_mask(xv, 0.5).mask
        xin = ad.input_codes(xv, scheme, 0.5)
        assert xin.codes.dtype == np.float32
        np.testing.assert_array_equal(xin.codes, codes * mask)
        # the top-K multiply leaves the QuantizedTensor's codes unmasked
        np.testing.assert_array_equal(xin.quantized.codes, quantize(xv, scheme).codes)


class TestTapeMechanics:
    def test_reused_var_accumulates(self):
        x = ad.Var(np.array([3.0]))
        loss = ad.vsum(ad.add(ad.mul(x, x), x))  # x^2 + x -> 2x + 1 = 7
        loss.backward()
        assert x.grad[0] == 7.0

    def test_no_grad_blocks_trace(self):
        x = ad.Var(np.ones(3))
        with ad.no_grad():
            loss = ad.vsum(ad.mul(x, x))
        with pytest.raises(ad.MissingTraceError):
            loss.backward()
        assert x.grad is None

    def test_second_backward_raises(self):
        w = ad.Var(np.array([2.0]))
        loss = ad.vsum(ad.mul(ad.mul(ad.Var(np.array([3.0])), w), w))  # 3w^2 -> 6w = 12
        loss.backward()
        assert w.grad[0] == 12.0
        with pytest.raises(ad.MissingTraceError, match="consumed"):
            loss.backward()
        assert w.grad[0] == 12.0

    def test_backward_through_a_consumed_subgraph_raises(self):
        w = ad.Var(np.array([2.0]))
        shared = ad.mul(w, w)
        first, second = ad.vsum(shared), ad.vsum(ad.add(shared, w))
        first.backward()
        assert w.grad[0] == 4.0
        with pytest.raises(ad.MissingTraceError, match="consumed"):
            second.backward()
        assert w.grad[0] == 4.0

    def test_backward_requires_scalar(self):
        x = ad.Var(np.ones(3))
        with pytest.raises(ValueError):
            ad.mul(x, x).backward()

    def test_zero_upstream_gives_zero_downstream(self):
        x = ad.Var(RNG.standard_normal((3, 4)))
        out = ad.bitlinear(x, ad.Var(RNG.standard_normal((2, 4))), ad.input_codes(x.value, QuantScheme.int8()),
                           QuantScheme.ternary())
        loss = ad.vsum(ad.mul(out, ad.Var(np.zeros((3, 2)))))
        loss.backward()
        assert np.all(x.grad == 0.0)

    def test_backward_deterministic(self):
        def run():
            x = ad.Var(np.arange(6.0).reshape(2, 3))
            w = ad.Var(np.ones((4, 3)))
            loss = ad.vsum(ad.linear(ad.rmsnorm(x, ad.Var(np.ones(3))), w))
            loss.backward()
            return x.grad
        np.testing.assert_array_equal(run(), run())


class TestWeightCodeCache:
    """Ternary weight codes are cached under no_grad, keyed on the identity
    of the latent array; they must never go stale."""

    TERNARY = QuantScheme.ternary()

    @staticmethod
    def _count_weight_quantizes(monkeypatch):
        calls = []
        real = ad.quantize

        def counting(x, scheme):
            if scheme == QuantScheme.ternary():
                calls.append(scheme)
            return real(x, scheme)

        monkeypatch.setattr(ad, "quantize", counting)
        return calls

    def _project(self, x, w):
        return ad.bitlinear(ad.Var(x), w, ad.input_codes(x, QuantScheme.int4()), self.TERNARY).value

    def test_no_grad_hit_skips_quantize(self, monkeypatch):
        calls = self._count_weight_quantizes(monkeypatch)
        x = RNG.standard_normal((3, 8))
        w = ad.Var(RNG.standard_normal((4, 8)))
        with ad.no_grad():
            first = self._project(x, w)
            second = self._project(x, w)
        assert len(calls) == 1
        np.testing.assert_array_equal(first, second)

    def test_grad_mode_neither_caches_nor_freezes(self, monkeypatch):
        calls = self._count_weight_quantizes(monkeypatch)
        x = RNG.standard_normal((3, 8))
        w = ad.Var(RNG.standard_normal((4, 8)))
        self._project(x, w)
        self._project(x, w)
        assert len(calls) == 2
        assert w.value.flags.writeable

    def test_in_place_write_to_cached_weights_raises(self):
        w = ad.Var(RNG.standard_normal((4, 8)))
        with ad.no_grad():
            self._project(RNG.standard_normal((3, 8)), w)
        with pytest.raises(ValueError):
            w.value[0, 0] = 5.0
        with pytest.raises(ValueError):
            w.value.reshape(-1)[0] = 5.0

    def test_rebinding_misses_and_matches_a_fresh_projection(self):
        x = RNG.standard_normal((3, 8))
        w = ad.Var(RNG.standard_normal((4, 8)))
        with ad.no_grad():
            self._project(x, w)
            w.value = -2.0 * w.value
            cached = self._project(x, w)
            fresh = self._project(x, ad.Var(w.value.copy()))
        np.testing.assert_array_equal(cached, fresh)

    def test_scheme_change_misses(self):
        w = ad.Var(RNG.standard_normal((4, 8)))
        per_tensor_int8 = QuantScheme.int8(Granularity.PER_TENSOR)
        with ad.no_grad():
            ad.weight_codes(w, self.TERNARY)
            q = ad.weight_codes(w, per_tensor_int8)
        assert q.scheme == per_tensor_int8
        assert np.abs(q.codes).max() == 127.0

    def test_cached_entry_is_the_read_only_quantize_result(self):
        from ternact.quantcore import quantize

        w = ad.Var(RNG.standard_normal((4, 8)))
        with ad.no_grad():
            q = ad.weight_codes(w, self.TERNARY)
            assert ad.weight_codes(w, self.TERNARY) is q
        assert q.codes.dtype == np.float32 and not q.codes.flags.writeable
        np.testing.assert_array_equal(q.codes, quantize(w.value, self.TERNARY).codes)

    def test_replaced_array_is_not_kept_alive(self):
        import gc
        import weakref

        w = ad.Var(RNG.standard_normal((4, 8)))
        with ad.no_grad():
            ad.weight_codes(w, self.TERNARY)
        old = weakref.ref(w.value)
        w.value = w.value.copy()
        gc.collect()
        assert old() is None

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_latent_weight_gives_a_non_finite_projection_on_cold_cache(self):
        w = ad.Var(RNG.standard_normal((4, 8)))
        w.value[1, 2] = np.nan
        with ad.no_grad():
            assert not np.isfinite(self._project(RNG.standard_normal((3, 8)), w)).any()

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_rebinding_after_a_warm_cache_is_not_served_stale(self):
        # stale codes from the warm cache would give a finite projection
        w = ad.Var(RNG.standard_normal((4, 8)))
        with ad.no_grad():
            self._project(RNG.standard_normal((3, 8)), w)
            poisoned = w.value.copy()
            poisoned[0, 0] = np.nan
            w.value = poisoned
            assert not np.isfinite(self._project(RNG.standard_normal((3, 8)), w)).any()


class TestCodeMatmul:
    def test_exact_at_extreme_codes(self):
        # int8's -128 against ternary -1 over K=344 (the default down
        # projection): every partial sum is an integer below 2^24
        k = 344
        codes = np.full((2, k), -128.0, dtype=np.float32)
        wcodes = np.full((3, k), -1.0, dtype=np.float32)
        out = ad.code_matmul(codes, wcodes)
        assert out.dtype == np.float64
        assert np.all(out == 128.0 * k)

    def test_equals_float64_product_bit_for_bit(self):
        rng = np.random.default_rng(9)
        k = 344
        codes = rng.choice([-128.0, 127.0, -127.0, 0.0], size=(2, 5, k)).astype(np.float32)
        wcodes = rng.choice([-1.0, 0.0, 1.0], size=(7, k)).astype(np.float32)
        expected = codes.astype(np.float64) @ wcodes.astype(np.float64).T
        np.testing.assert_array_equal(ad.code_matmul(codes, wcodes), expected)

    def test_rejects_a_contraction_too_long_for_float32(self):
        k = 2**24 // 128 + 1
        with pytest.raises(ValueError):
            ad.code_matmul(np.zeros((1, k), np.float32), np.zeros((1, k), np.float32))
