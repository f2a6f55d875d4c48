"""Unit tests for projections, the gated FFN, attention, and the KV cache."""

import warnings

import numpy as np
import pytest

from ternact import autodiff as ad
from ternact.autodiff import Var
from ternact.layers import (
    BitLinearLayer,
    KvCache,
    Probe,
    Site,
    attention_core,
    attention_forward,
    bitlinear_forward,
    causal_mask,
    ffn_forward,
    kv_code_bits,
    kv_fake_quant_values,
    probing,
    relu2glu,
    relu2glu_gate_first,
)
from ternact.quantcore import QuantScheme, dequantize, fake_quant, quantize
from ternact.sparsify import measure_sparsity

RNG = np.random.default_rng(2024)


def make_layer(out_f, in_f, site=Site.UP, scheme=None, k=None, seed=0):
    rng = np.random.default_rng(seed)
    w = Var(rng.standard_normal((out_f, in_f)) * 0.2)
    return BitLinearLayer(w, site, input_scheme=scheme, k_fraction=k)


class TestBitLinearForward:
    def test_zero_weights_give_zero(self):
        layer = BitLinearLayer(Var(np.zeros((3, 4))), Site.UP, input_scheme=QuantScheme.int8())
        out = bitlinear_forward(layer, Var(RNG.standard_normal((2, 4))))
        assert np.all(out.value == 0.0)

    def test_zero_input_gives_zero(self):
        layer = make_layer(3, 4, scheme=QuantScheme.int8())
        out = bitlinear_forward(layer, Var(np.zeros((2, 4))))
        assert np.all(out.value == 0.0)

    def test_unit_case(self):
        # ORACLE: ternary leaves +-1 weights (alpha=1), int8 leaves +-1 exact,
        # so y = 1*1 + (-1)(-1) = 2
        layer = BitLinearLayer(Var(np.array([[1.0, -1.0]])), Site.QKV, input_scheme=QuantScheme.int8())
        out = bitlinear_forward(layer, Var(np.array([[1.0, -1.0]])))
        assert out.value.shape == (1, 1)
        assert out.value[0, 0] == 2.0

    def test_shape_mismatch(self):
        layer = make_layer(3, 4, scheme=QuantScheme.int8())
        with pytest.raises(ValueError):
            bitlinear_forward(layer, Var(np.zeros((2, 5))))

    def test_topk_without_input_scheme_rejected(self):
        layer = make_layer(3, 4, k=0.5)
        with pytest.raises(ValueError, match="top-K"):
            bitlinear_forward(layer, Var(np.ones((2, 4))))

    def test_weights_always_ternary_by_default(self):
        layer = make_layer(6, 8, scheme=QuantScheme.int8(), seed=3)
        x = np.eye(8)  # reads weight columns through exact +-1 activations...
        out = bitlinear_forward(layer, Var(x * 1.0)).value
        q = quantize(layer.latent_weights.value, QuantScheme.ternary())
        # every output is code * alpha * (127/127): multiples of alpha only
        alpha = float(q.scales)
        ratios = out / alpha
        np.testing.assert_allclose(ratios, np.round(ratios), atol=1e-12)

    @pytest.mark.parametrize("scheme", [QuantScheme.int8(), QuantScheme.int4(), QuantScheme.fp4()])
    def test_matches_semantic_definition(self, scheme):
        # y must equal fake-quantized input times dequantized ternary weights
        from ternact.quantcore import fake_quant

        layer = make_layer(5, 16, scheme=scheme, seed=4)
        x = RNG.standard_normal((3, 16))
        out = bitlinear_forward(layer, Var(x)).value
        fqw = dequantize(quantize(layer.latent_weights.value, QuantScheme.ternary()))
        expected = fake_quant(x, scheme) @ fqw.T
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


class TestRelu2Glu:
    def test_all_negative_gate_zeroes_output(self):
        up = make_layer(6, 4, site=Site.UP, scheme=QuantScheme.int8(), seed=5)
        gate = BitLinearLayer(Var(np.full((6, 4), -1.0)), Site.GATE, input_scheme=QuantScheme.int8())
        x = np.abs(RNG.standard_normal((2, 4))) + 0.1  # positive input
        out = relu2glu(Var(x), up, gate)
        assert np.all(out.value == 0.0)

    def test_relu2_scaling(self):
        # gate pre-activation 2 -> multiplier 4
        up = BitLinearLayer(Var(np.array([[1.0]])), Site.UP, input_scheme=QuantScheme.int8())
        gate = BitLinearLayer(Var(np.array([[2.0]])), Site.GATE, input_scheme=QuantScheme.int8())
        out = relu2glu(Var(np.array([[1.0]])), up, gate)
        # ternary of [[2]] has alpha=2, codes [[1]]: gate pre-act = 2, ReLU^2 = 4
        assert out.value[0, 0] == 4.0

    def test_gate_first_matches_dense_random(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            up = make_layer(12, 8, site=Site.UP, scheme=QuantScheme.int4(), seed=seed + 100)
            gate = make_layer(12, 8, site=Site.GATE, scheme=QuantScheme.int4(), seed=seed + 200)
            x = rng.standard_normal((4, 8))
            with ad.no_grad():
                dense = relu2glu(Var(x), up, gate).value
            sparse = relu2glu_gate_first(x, up, gate)
            np.testing.assert_array_equal(sparse, dense)

    def test_gate_first_matches_dense_int8_and_fp4(self):
        for scheme in (QuantScheme.int8(), QuantScheme.fp4()):
            up = make_layer(10, 6, site=Site.UP, scheme=scheme, seed=7)
            gate = make_layer(10, 6, site=Site.GATE, scheme=scheme, seed=8)
            x = RNG.standard_normal((5, 6))
            with ad.no_grad():
                dense = relu2glu(Var(x), up, gate).value
            np.testing.assert_array_equal(relu2glu_gate_first(x, up, gate), dense)

    def test_gate_first_batched_dims(self):
        up = make_layer(9, 4, site=Site.UP, scheme=QuantScheme.int4(), seed=9)
        gate = make_layer(9, 4, site=Site.GATE, scheme=QuantScheme.int4(), seed=10)
        x = RNG.standard_normal((2, 3, 4))
        with ad.no_grad():
            dense = relu2glu(Var(x), up, gate).value
        np.testing.assert_array_equal(relu2glu_gate_first(x, up, gate), dense)

    def test_gate_first_requires_quantized_schemes(self):
        up = make_layer(3, 4, scheme=None)
        gate = make_layer(3, 4, scheme=QuantScheme.int8())
        with pytest.raises(ValueError):
            relu2glu_gate_first(np.zeros((1, 4)), up, gate)

    def test_silu_ablation_path(self):
        up = make_layer(6, 4, scheme=QuantScheme.int8(), seed=11)
        gate = make_layer(6, 4, scheme=QuantScheme.int8(), seed=12)
        x = RNG.standard_normal((2, 4))
        out = relu2glu(Var(x), up, gate, activation="silu")
        # silu keeps negative-gate channels slightly active; output not all zero
        assert np.any(out.value != 0.0)


class TestFfnForward:
    def test_zero_input_zero_output(self):
        up = make_layer(8, 4, scheme=QuantScheme.int8(), seed=13)
        gate = make_layer(8, 4, scheme=QuantScheme.int8(), seed=14)
        down = make_layer(4, 8, site=Site.DOWN, scheme=QuantScheme.int8(), seed=15)
        out = ffn_forward(Var(np.zeros((2, 4))), up, gate, down)
        assert np.all(out.value == 0.0)

    def test_matches_composition(self):
        up = make_layer(8, 4, scheme=QuantScheme.int8(), seed=16)
        gate = make_layer(8, 4, scheme=QuantScheme.int8(), seed=17)
        down = make_layer(4, 8, site=Site.DOWN, scheme=QuantScheme.int8(), seed=18)
        x = RNG.standard_normal((1, 4))
        with ad.no_grad():
            expected = bitlinear_forward(down, relu2glu(Var(x), up, gate)).value
            got = ffn_forward(Var(x), up, gate, down).value
        np.testing.assert_array_equal(got, expected)

    def test_down_input_sparsity_at_symmetric_init(self):
        # ReLU^2 zeroes the channels whose gate pre-activation is negative,
        # about half at symmetric random init
        up = make_layer(256, 64, scheme=QuantScheme.int8(), seed=19)
        gate = make_layer(256, 64, scheme=QuantScheme.int8(), seed=20)
        down = make_layer(64, 256, site=Site.DOWN, scheme=QuantScheme.int8(), seed=21)
        x = RNG.standard_normal((8, 64))
        with ad.no_grad(), probing(Probe()) as probe:
            ffn_forward(Var(x), up, gate, down)
        assert probe.sparsity[Site.DOWN][0] >= 0.45


def strided_rope(v, positions, sign):
    """The rotary embedding as a per-call formula with strided writes: the
    reference the table-driven ``ad.rope`` must match bit for bit."""
    d = v.shape[-1]
    freqs = ad.ROPE_BASE ** (-2.0 * np.arange(d // 2) / d)
    angles = np.asarray(positions, dtype=np.float64)[:, None] * freqs[None, :]
    cos, sin = np.cos(angles), sign * np.sin(angles)
    even, odd = v[..., 0::2], v[..., 1::2]
    out = np.empty_like(v)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


class TestRope:
    def test_apply_on_arrays(self):
        x = RNG.standard_normal((2, 3, 4))
        out = ad.rope(x, np.arange(3))
        before = x[..., 0::2] ** 2 + x[..., 1::2] ** 2
        after = out[..., 0::2] ** 2 + out[..., 1::2] ** 2
        np.testing.assert_allclose(after, before, rtol=1e-12)

    @pytest.mark.parametrize(
        "positions",
        [np.arange(7), np.arange(60, 70), np.arange(290, 301), np.array([5, 0, 300, 2, 64, 63, 129, 1])],
        ids=["first", "across-first-table", "past-300", "unsorted"],
    )
    @pytest.mark.parametrize("head_dim", [4, 32])
    def test_table_matches_the_strided_formula(self, head_dim, positions):
        # one (2, b, heads, T, d) transposed view, as attention_core rotates
        qkv = RNG.standard_normal((2, positions.size, 3, 2, head_dim))
        v = qkv.transpose(2, 0, 3, 1, 4)[:2]
        np.testing.assert_array_equal(ad.rope(v, positions), strided_rope(v, positions, 1.0))
        np.testing.assert_array_equal(ad.rope_adjoint(v, positions), strided_rope(v, positions, -1.0))

    @pytest.mark.parametrize("start,stop", [(0, 7), (5, 6), (60, 70), (290, 301)],
                             ids=["first", "one", "across-first-table", "past-300"])
    @pytest.mark.parametrize("head_dim", [4, 32])
    def test_range_reads_the_same_bits_as_arange(self, head_dim, start, stop):
        # attention_core rotates a range of positions, which slices the table
        qkv = RNG.standard_normal((2, stop - start, 3, 2, head_dim))
        v = qkv.transpose(2, 0, 3, 1, 4)[:2]
        for op in (ad.rope, ad.rope_adjoint):
            np.testing.assert_array_equal(op(v, range(start, stop)), op(v, np.arange(start, stop)))

    def test_adjoint_undoes_the_rotation(self):
        x = RNG.standard_normal((3, 40, 8))
        positions = np.arange(100, 140)
        np.testing.assert_allclose(ad.rope_adjoint(ad.rope(x, positions), positions), x, rtol=0, atol=1e-12)


class TestKvCodeBits:
    @pytest.mark.parametrize("kv_bits", [3, 4, 8])
    def test_position_zero_keeps_four_bits_only_under_kv3(self, kv_bits):
        assert kv_code_bits(0, kv_bits) == (4 if kv_bits == 3 else kv_bits)
        assert [kv_code_bits(p, kv_bits) for p in (1, 2, 7)] == [kv_bits] * 3

    @pytest.mark.parametrize("kv_bits", [3, 4])
    def test_fake_quant_and_cache_store_at_the_rule_bits(self, kv_bits):
        k = RNG.standard_normal((2, 4, 8))
        cache, fq_cache = KvCache(kv_bits, 3), KvCache(kv_bits, 3)
        for position in range(3):
            cache.store(np.stack((k, k))[..., None, :])
            expected = fake_quant(k, QuantScheme.unsigned(kv_code_bits(position, kv_bits)))
            np.testing.assert_array_equal(cache.read()[0][..., position, :], expected)
            fq = kv_fake_quant_values(np.stack((k, k))[..., None, :], kv_bits, fq_cache)
            np.testing.assert_array_equal(fq[..., position, :], np.stack((expected, expected)))

    @pytest.mark.parametrize("start", [0, 1, 6])
    @pytest.mark.parametrize("kv_bits", [3, 4])
    def test_one_call_equals_quantize_row_by_row(self, kv_bits, start):
        # positions from ``start`` on, reached through a cache that holds
        # ``start`` positions
        kv = RNG.standard_normal((2, 3, 5, 8))
        kv[0, 1, 2] = 0.0  # a zero group reads back zero
        positions = np.arange(start, start + 5)
        cache = KvCache(kv_bits, start + 5)
        if start:
            cache.store(RNG.standard_normal((2, 3, start, 8)))
        got = kv_fake_quant_values(kv, kv_bits, cache)[..., start:, :]
        assert got.shape == kv.shape
        assert not got[0, 1, 2].any()
        for t, position in enumerate(positions):
            expected = fake_quant(kv[..., t, :], QuantScheme.unsigned(kv_code_bits(position, kv_bits)))
            np.testing.assert_array_equal(got[..., t, :], expected)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_head_stays_non_finite(self, bad):
        # the fake-quant does not reject NaN or inf: the head-position group that
        # holds one reads back non-finite, from the fake-quant and from the
        # cache, and every other group is as it would be without it. The
        # cache stores a NaN code as 0 without a cast warning.
        kv = RNG.standard_normal((2, 3, 8))
        clean = kv_fake_quant_values(kv, 3)
        kv[1, 2, 5] = bad
        cache = KvCache(3, 3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cache.store(kv)
        assert not [w for w in caught if "in cast" in str(w.message)]
        for got in (kv_fake_quant_values(kv, 3), cache.read()):
            assert not np.isfinite(got[1, 2]).any()
            got[1, 2] = clean[1, 2]
            np.testing.assert_array_equal(got, clean)


class TestKvQuant:
    def test_four_bit_error_bound(self):
        # per-entry error <= gamma_head / 15 from the unsigned bound
        k = RNG.standard_normal((2, 4, 8, 16))
        out = kv_fake_quant_values(k, 4)
        gamma = np.max(np.abs(k), axis=-1, keepdims=True)
        assert np.all(np.abs(out - k) <= gamma / 15.0 + 1e-15)

    def test_three_bit_keeps_position_zero_at_four_bits(self):
        kv = RNG.standard_normal((2, 1, 2, 3, 8))
        out = kv_fake_quant_values(kv, 3)
        expected_bos = kv_fake_quant_values(kv[..., :1, :], 4)
        np.testing.assert_array_equal(out[..., :1, :], expected_bos)
        # later positions really are 3-bit: at most 8 distinct levels per head
        for h in range(2):
            vals = np.unique(out[0, 0, h, 1, :])
            assert vals.size <= 8

    def test_bos_rule_only_at_absolute_position_zero(self):
        # the same K/V at positions 5-7 and at 1-3, each reached through a
        # cache that holds the earlier positions
        kv = RNG.standard_normal((2, 1, 1, 3, 8))
        reads = []
        for start in (5, 1):
            cache = KvCache(3, start + 3)
            cache.store(RNG.standard_normal((2, 1, 1, start, 8)))
            reads.append(kv_fake_quant_values(kv, 3, cache)[..., start:, :])
        np.testing.assert_array_equal(*reads)


class TestKvCache:
    def test_bits_and_capacity_validated(self):
        with pytest.raises(ValueError, match="kv_bits must be one of"):
            KvCache(5, 4)
        with pytest.raises(ValueError, match="at least one position"):
            KvCache(3, 0)

    def test_three_bit_cache_has_four_bit_bos(self):
        cache = KvCache(3, 2)
        k = RNG.standard_normal((2, 4, 64))
        cache.store(np.stack((k, k))[..., None, :])
        cache.store(np.stack((k, k))[..., None, :])
        keys = cache.read()[0]
        for p, bits in ((0, 4), (1, 3)):
            np.testing.assert_array_equal(keys[..., p, :], fake_quant(k, QuantScheme.unsigned(bits)))
        levels = [[np.unique(head).size for head in keys[..., p, :].reshape(-1, 64)] for p in (0, 1)]
        assert max(levels[0]) > 8 and max(levels[0]) <= 16
        assert max(levels[1]) <= 8

    def test_off_mode_roundtrip_exact(self):
        cache = KvCache(8, 1)
        k = RNG.standard_normal((2, 4, 8))
        v = RNG.standard_normal((2, 4, 8))
        cache.store(np.stack((k, v))[..., None, :])
        np.testing.assert_array_equal(cache.read()[0][..., 0, :], k)
        np.testing.assert_array_equal(cache.read()[1][..., 0, :], v)

    def test_scales_per_head_per_position(self):
        # doubling one head at one position doubles exactly that read-back
        k = RNG.standard_normal((2, 4, 3, 8))
        k2 = k.copy()
        k2[1, 2, 1] *= 2.0
        caches = [KvCache(4, 3), KvCache(4, 3)]
        for cache, keys in zip(caches, (k, k2)):
            for pos in range(3):
                cache.store(np.stack((keys, keys))[..., pos : pos + 1, :])
        assert len(caches[0]) == 3
        a, b = caches[0].read()[0], caches[1].read()[0]
        np.testing.assert_array_equal(b[1, 2, 1], 2.0 * a[1, 2, 1])
        b[1, 2, 1] = a[1, 2, 1]
        np.testing.assert_array_equal(a, b)

    def test_cache_matches_full_sequence_transform(self):
        # storing already fake-quantized heads re-quantizes them; unsigned
        # idempotence makes the stored dequantized cache equal the in-call K
        for kv_bits in (3, 4):
            k = RNG.standard_normal((2, 4, 6, 8))
            fq = kv_fake_quant_values(k, kv_bits)
            cache = KvCache(kv_bits, 6)
            for pos in range(6):
                cache.store(np.stack((fq, fq))[..., pos : pos + 1, :])
            np.testing.assert_array_equal(cache.read()[0], fq)

    def test_empty_cache_read_rejected(self):
        with pytest.raises(ValueError):
            KvCache(8, 1).read()

    @pytest.mark.parametrize("kv_bits", [3, 4, 8])
    def test_chunked_stores_equal_one_position_stores(self, kv_bits):
        kv = RNG.standard_normal((2, 2, 4, 11, 8))
        one_by_one, chunked = KvCache(kv_bits, 11), KvCache(kv_bits, 11)
        for pos in range(11):
            one_by_one.store(kv[..., pos : pos + 1, :])
        for lo, hi in ((0, 1), (1, 4), (4, 5), (5, 11)):
            chunked.store(kv[..., lo:hi, :])
        assert len(chunked) == 11
        np.testing.assert_array_equal(chunked.read(), one_by_one.read())
        # each position is stored at its rule bits (8: raw)
        for p in range(11):
            want = kv[..., p, :]
            if kv_bits != 8:
                want = fake_quant(want, QuantScheme.unsigned(kv_code_bits(p, kv_bits)))
            np.testing.assert_array_equal(chunked.read()[..., p, :], want)

    def test_raw_read_is_a_read_only_snapshot(self):
        cache = KvCache(8, 8)
        cache.store(RNG.standard_normal((2, 1, 2, 3, 4)))
        keys = cache.read()[0]
        with pytest.raises(ValueError):
            keys[0, 0, 0, 0] = 1.0
        before = keys.copy()
        cache.store(RNG.standard_normal((2, 1, 2, 5, 4)))
        np.testing.assert_array_equal(keys, before)
        np.testing.assert_array_equal(cache.read()[0][..., :3, :], before)

    @pytest.mark.parametrize("kv_bits", [3, 4])
    def test_store_in_the_fake_quant_equals_store_then_read(self, kv_bits):
        # kv_fake_quant_values(..., cache) quantizes the new K/V once, into
        # the cache, and returns every stored position: bit-equal to store
        # then read, and to the fake-quant of the whole prefix, chunk by
        # chunk up to the capacity
        total = 37
        kv = RNG.standard_normal((2, 1, 2, total, 8))
        direct, stored = KvCache(kv_bits, total), KvCache(kv_bits, total)
        bounds = [0, 1, 4, 15, 18, total]
        for lo, hi in zip(bounds, bounds[1:]):
            direct.store(kv[..., lo:hi, :])
            got = kv_fake_quant_values(kv[..., lo:hi, :], kv_bits, stored)
            np.testing.assert_array_equal(got, direct.read())
            np.testing.assert_array_equal(got, kv_fake_quant_values(kv[..., :hi, :], kv_bits))
        assert len(stored) == total

    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_store_keeps_a_non_finite_group_non_finite(self, bad):
        # the group that holds a NaN or inf reads back non-finite from the
        # cache, and every other group as it would without it
        kv = RNG.standard_normal((2, 1, 3, 4, 8))
        clean = kv_fake_quant_values(kv, 3)
        kv[1, 0, 2, 3, 5] = bad
        cache = KvCache(3, 4)
        kv_fake_quant_values(kv[..., :3, :], 3, cache)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = kv_fake_quant_values(kv[..., 3:, :], 3, cache)
        assert not [w for w in caught if "in cast" in str(w.message)]
        assert not np.isfinite(got[1, 0, 2, 3]).any()
        got[1, 0, 2, 3] = clean[1, 0, 2, 3]
        np.testing.assert_array_equal(got, clean)

    def test_store_rejects_unstacked_heads_or_other_bits(self):
        with pytest.raises(ValueError, match="leading axis of 2"):
            KvCache(3, 1).store(RNG.standard_normal((3, 2, 1, 8)))
        with pytest.raises(ValueError, match="kv_bits=3"):
            kv_fake_quant_values(RNG.standard_normal((2, 2, 1, 8)), 4, KvCache(3, 1))

    @pytest.mark.parametrize("kv_bits", [3, 4, 8])
    def test_store_past_capacity_rejected_before_writing(self, kv_bits):
        # the buffers are sized once: a store that would run past the
        # capacity is refused, and what the cache holds is unchanged
        kv = RNG.standard_normal((2, 1, 2, 6, 8))
        cache = KvCache(kv_bits, 5)
        cache.store(kv[..., :4, :])
        before = cache.read().copy()
        with pytest.raises(ValueError, match="exceed the cache's capacity of 5"):
            cache.store(kv[..., 4:, :])
        assert len(cache) == 4
        np.testing.assert_array_equal(cache.read(), before)
        cache.store(kv[..., 4:5, :])
        assert len(cache) == 5
        with pytest.raises(ValueError, match="capacity"):
            KvCache(kv_bits, 5).store(kv)

    def test_mismatched_heads_rejected(self):
        cache = KvCache(3, 2)
        cache.store(RNG.standard_normal((2, 2, 1, 8)))
        with pytest.raises(ValueError, match="do not match the cached"):
            cache.store(RNG.standard_normal((2, 3, 1, 8)))
        with pytest.raises(ValueError, match="do not match the cached"):
            cache.store(RNG.standard_normal((2, 2, 1, 4)))
        assert len(cache) == 1


def base_attention_setup(seed=0, hidden=16, scheme=None):
    scheme = scheme or QuantScheme.int8()
    qkv = make_layer(3 * hidden, hidden, site=Site.QKV, scheme=scheme, seed=seed)
    out = make_layer(hidden, hidden, site=Site.ATTN_OUT, scheme=QuantScheme.int8(), seed=seed + 1)
    return qkv, out


class TestAttention:
    def test_output_shape(self):
        qkv, out = base_attention_setup()
        x = RNG.standard_normal((2, 5, 16))
        y = attention_forward(Var(x), qkv, out, n_heads=2)
        assert y.value.shape == (2, 5, 16)

    def test_kv8_identical_to_unquantized(self):
        qkv, out = base_attention_setup(seed=30)
        x = RNG.standard_normal((2, 5, 16))
        with ad.no_grad():
            a = attention_forward(Var(x), qkv, out, n_heads=2, kv_bits=8).value
            b = attention_forward(Var(x), qkv, out, n_heads=2).value
        np.testing.assert_array_equal(a, b)

    def test_kv4_changes_but_stays_close(self):
        qkv, out = base_attention_setup(seed=31)
        x = RNG.standard_normal((2, 5, 16))
        with ad.no_grad():
            a = attention_forward(Var(x), qkv, out, n_heads=2, kv_bits=8).value
            b = attention_forward(Var(x), qkv, out, n_heads=2, kv_bits=4).value
        assert not np.array_equal(a, b)
        assert np.max(np.abs(a - b)) < 1.0

    def test_causality(self):
        qkv, out = base_attention_setup(seed=32)
        x = RNG.standard_normal((1, 6, 16))
        x2 = x.copy()
        x2[0, 4] += 3.0  # perturb position 4
        with ad.no_grad():
            a = attention_forward(Var(x), qkv, out, n_heads=2).value
            b = attention_forward(Var(x2), qkv, out, n_heads=2).value
        np.testing.assert_array_equal(a[0, :4], b[0, :4])
        assert not np.array_equal(a[0, 4:], b[0, 4:])

    def test_single_position_softmax_is_identity(self):
        # one key: attention weight is 1, output = out-projection of V
        qkv, out = base_attention_setup(seed=33)
        x = RNG.standard_normal((1, 1, 16))
        with ad.no_grad():
            y = attention_forward(Var(x), qkv, out, n_heads=2).value
            qkv_out = bitlinear_forward(qkv, Var(x)).value
            v = qkv_out[..., 32:]
            v_heads = v.reshape(1, 1, 2, 8).transpose(0, 2, 1, 3)
            ctx = v_heads.transpose(0, 2, 1, 3).reshape(1, 1, 16)
            expected = bitlinear_forward(out, Var(ctx)).value
        np.testing.assert_array_equal(y, expected)

    def test_attn_out_sparsity_recorded_with_topk(self):
        qkv, out = base_attention_setup(seed=34)
        out.k_fraction = 0.5
        x = RNG.standard_normal((2, 5, 16))
        with ad.no_grad(), probing(Probe()) as probe:
            attention_forward(Var(x), qkv, out, n_heads=2)
        assert probe.sparsity[Site.ATTN_OUT][0] >= 0.5

    def test_cache_populated_during_forward(self):
        qkv, out = base_attention_setup(seed=35)
        cache = KvCache(4, 4)
        x = RNG.standard_normal((1, 4, 16))
        with ad.no_grad():
            attention_forward(Var(x), qkv, out, n_heads=2, kv_bits=4, cache=cache)
        assert len(cache) == 4
        assert cache.read()[0].shape == (1, 2, 4, 8)

    @pytest.mark.parametrize("q_bits", [4, 16])
    @pytest.mark.parametrize("kv_bits", [3, 4, 8])
    def test_cached_chunks_match_one_forward(self, kv_bits, q_bits):
        qkv, out = base_attention_setup(seed=38)
        out.k_fraction = None
        x = RNG.standard_normal((2, 7, 16))
        cache = KvCache(kv_bits, 7)
        with ad.no_grad():
            full = attention_forward(Var(x), qkv, out, n_heads=2, kv_bits=kv_bits, q_bits=q_bits).value
            chunks = [
                attention_forward(Var(x[:, lo:hi]), qkv, out, n_heads=2, kv_bits=kv_bits, q_bits=q_bits,
                                  cache=cache).value
                for lo, hi in ((0, 3), (3, 4), (4, 7))
            ]
        np.testing.assert_allclose(np.concatenate(chunks, axis=1), full, rtol=0, atol=1e-12)
        assert len(cache) == 7

    def test_cache_needs_no_grad_and_matching_bits(self):
        qkv, out = base_attention_setup(seed=39)
        x = Var(RNG.standard_normal((1, 2, 16)))
        with pytest.raises(ValueError, match="no_grad"):
            attention_forward(x, qkv, out, n_heads=2, cache=KvCache(8, 2))
        with ad.no_grad(), pytest.raises(ValueError, match="kv_bits=4"):
            attention_forward(x, qkv, out, n_heads=2, kv_bits=3, cache=KvCache(4, 2))

    def test_head_divisibility_checked(self):
        qkv, out = base_attention_setup(seed=36)
        x = RNG.standard_normal((1, 2, 16))
        with pytest.raises(ValueError):
            attention_forward(Var(x), qkv, out, n_heads=3)

    @pytest.mark.parametrize("bits", [dict(kv_bits=5), dict(q_bits=8)])
    def test_bit_widths_checked(self, bits):
        qkv, out = base_attention_setup(seed=36)
        x = RNG.standard_normal((1, 2, 16))
        name, value = next(iter(bits.items()))
        with pytest.raises(ValueError, match=f"{name} must be one of .*, got {value}"):
            attention_forward(Var(x), qkv, out, n_heads=2, **bits)

    def test_grad_matches_finite_differences(self):
        # unquantized projections at kv8/q16: the fused op's adjoint against
        # central differences, for the input and both weight matrices
        qkv, out = base_attention_setup(seed=40, hidden=8)
        for layer in (qkv, out):
            layer.input_scheme = layer.weight_scheme = None
        x = Var(RNG.standard_normal((2, 3, 8)))
        g = RNG.standard_normal((2, 3, 8))

        def loss():
            return ad.vsum(ad.mul(attention_forward(x, qkv, out, n_heads=2), Var(g)))

        loss().backward()
        for var in (x, qkv.latent_weights, out.latent_weights):
            flat, fd = var.value.reshape(-1), np.zeros(var.value.size)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + 1e-6
                up = float(loss().value)
                flat[i] = orig - 1e-6
                fd[i] = (up - float(loss().value)) / 2e-6
                flat[i] = orig
            np.testing.assert_allclose(var.grad.reshape(-1), fd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("kv_bits", [3, 4])
    def test_quantizers_pass_the_gradient_straight_through(self, kv_bits):
        # rotated heads already on the q4 and kv grids: quantizing moves them
        # by rounding error only, so the straight-through gradient must be
        # the unquantized op's
        b, t, n_heads, hd = 2, 4, 2, 4
        positions = np.arange(t)
        heads = RNG.standard_normal((3, b, n_heads, t, hd))
        heads[0] = fake_quant(heads[0], QuantScheme.unsigned(4))
        heads[1:] = kv_fake_quant_values(heads[1:], kv_bits)
        heads[:2] = ad.rope_adjoint(heads[:2], positions)
        qkv = heads.transpose(1, 3, 0, 2, 4).reshape(b, t, 3 * n_heads * hd)
        g = RNG.standard_normal((b, t, n_heads * hd))
        grads = []
        for bits in ((kv_bits, 4), (8, 16)):
            var = Var(qkv)
            ad.vsum(ad.mul(attention_core(var, n_heads, *bits), Var(g))).backward()
            grads.append(var.grad)
        np.testing.assert_allclose(grads[0], grads[1], rtol=1e-9, atol=1e-12)

    def test_gradients_flow_to_all_weights(self):
        qkv, out = base_attention_setup(seed=37)
        x = Var(RNG.standard_normal((1, 4, 16)))
        y = attention_forward(x, qkv, out, n_heads=2, kv_bits=4, q_bits=4)
        loss = ad.vsum(ad.mul(y, Var(RNG.standard_normal(y.value.shape))))
        loss.backward()
        assert qkv.latent_weights.grad is not None
        assert out.latent_weights.grad is not None
        assert np.any(qkv.latent_weights.grad != 0.0)


def test_causal_mask_shape_and_values():
    m = causal_mask(3)
    assert m[0, 0] == 0.0 and m[2, 0] == 0.0
    assert m[0, 1] == -1e30 and m[0, 2] == -1e30


def test_causal_mask_after_cached_positions():
    # two queries at absolute positions 3 and 4 see keys 0..3 and 0..4
    np.testing.assert_array_equal(causal_mask(2, past=3), causal_mask(5)[3:])
    assert causal_mask(1, past=4).tolist() == [[0.0] * 5]


def test_stage_bindings_only_touch_schemes():
    layer = make_layer(4, 4, scheme=QuantScheme.int8(), seed=40)
    before = layer.latent_weights.value.copy()
    layer.input_scheme = QuantScheme.int4()
    layer.k_fraction = 0.5
    np.testing.assert_array_equal(layer.latent_weights.value, before)
