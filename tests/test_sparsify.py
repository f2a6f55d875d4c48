"""Unit tests for top-K masking and the sparsify-then-quantize composite a
bitlinear input goes through."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternact import autodiff as ad
from ternact.quantcore import QuantScheme
from ternact.sparsify import (
    TopKMask,
    gate_active_channels,
    kept_count,
    measure_sparsity,
    topk_mask,
)


def sparsify_then_quantize(x, k_fraction):
    """Int8 fake-quant with the top-K mask applied after, as the bitlinear
    input path computes it."""
    return ad.input_codes(x, QuantScheme.int8(), k_fraction).values()


def stable_argsort_mask(x, kept):
    """Reference top-K: a stable sort of the negated magnitudes puts the
    lowest index first among ties."""
    x = np.asarray(x, dtype=np.float64)
    mask = np.zeros(x.shape, dtype=bool)
    order = np.argsort(-np.abs(x), axis=-1, kind="stable")
    np.put_along_axis(mask, order[..., :kept], True, axis=-1)
    return mask


class TestKeptCount:
    def test_half_of_four(self):
        assert kept_count(4, 0.5) == 2

    def test_rounds_half_up(self):
        assert kept_count(5, 0.5) == 3

    def test_floor_of_one(self):
        assert kept_count(4, 0.1) == 1
        assert kept_count(1, 0.01) == 1

    def test_full_keep(self):
        assert kept_count(7, 1.0) == 7

    def test_k_validated(self):
        with pytest.raises(ValueError):
            kept_count(4, 0.0)
        with pytest.raises(ValueError):
            kept_count(4, 1.5)
        with pytest.raises(ValueError):
            kept_count(4, -0.5)

    def test_width_validated(self):
        with pytest.raises(ValueError):
            kept_count(0, 0.5)

    @given(st.integers(1, 4096), st.floats(0.001, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_in_range(self, n, k):
        c = kept_count(n, k)
        assert 1 <= c <= n


class TestTopkMask:
    def test_two_largest_magnitudes(self):
        m = topk_mask([3.0, -5.0, 1.0, 2.0], 0.5)
        assert np.array_equal(m.mask, [True, True, False, False])
        assert m.mask.sum() == kept_count(4, 0.5) == 2

    def test_full_keep_identity(self):
        m = topk_mask([0.1, -0.2, 0.3], 1.0)
        assert np.all(m.mask)

    def test_ties_keep_lowest_indices(self):
        m = topk_mask([1.0, 1.0, 1.0, 1.0], 0.5)
        assert np.array_equal(m.mask, [True, True, False, False])

    def test_partial_ties(self):
        # 2.0 wins outright, then the tie at 1.0 resolves to index 0
        m = topk_mask([1.0, 2.0, 1.0, 0.5], 0.5)
        assert np.array_equal(m.mask, [True, True, False, False])

    def test_batched_rows_independent(self):
        x = np.array([[3.0, -5.0, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0]])
        m = topk_mask(x, 0.5)
        assert np.array_equal(m.mask, [[True, True, False, False], [True, True, False, False]])
        assert np.array_equal(m.mask.sum(axis=-1), [kept_count(4, 0.5)] * 2)

    def test_three_dim_rows(self):
        x = np.arange(24.0).reshape(2, 3, 4) - 11.0
        m = topk_mask(x, 0.25)
        assert m.mask.shape == x.shape
        assert np.all(m.mask.sum(axis=-1) == kept_count(4, 0.25))

    def test_determinism(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((16, 33))
        a = topk_mask(x, 0.37)
        b = topk_mask(x.copy(), 0.37)
        assert np.array_equal(a.mask, b.mask)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_stays_non_finite(self, bad):
        # the mask does not reject NaN or inf; the masked input row stays
        # non-finite everywhere (NaN x 0 is NaN) and the other rows are as
        # they would be without it
        x = np.random.default_rng(6).standard_normal((3, 8))
        clean = sparsify_then_quantize(x, 0.5)
        x[1, 5] = bad
        assert topk_mask(x, 0.5).mask.shape == x.shape
        got = sparsify_then_quantize(x, 0.5)
        assert not np.isfinite(got[1]).any()
        np.testing.assert_array_equal(got[[0, 2]], clean[[0, 2]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            topk_mask([], 0.5)

    @given(
        st.integers(1, 4096),
        st.floats(0.001, 1.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_invariants_random_widths(self, n, k, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        m = topk_mask(x, k)
        kept = int(m.mask.sum())
        assert kept == kept_count(n, k)
        if kept < n:
            mags = np.abs(x)
            assert mags[m.mask].min() >= mags[~m.mask].max()


class TestTopkMatchesStableArgsort:
    """The partition-threshold mask must equal the stable-argsort one
    entry for entry, ties included."""

    @given(
        st.lists(st.integers(1, 4), min_size=0, max_size=2),
        st.integers(1, 40),
        st.floats(0.001, 1.0),
        st.integers(0, 3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_reference(self, lead, width, k, levels, seed):
        # levels 0..3 draw from that many magnitudes (0 gives all-zero rows),
        # so most rows tie heavily; otherwise continuous values
        rng = np.random.default_rng(seed)
        shape = (*lead, width)
        if levels == 3:
            x = rng.standard_normal(shape)
        else:
            x = rng.integers(-levels, levels + 1, size=shape).astype(np.float64)
        kept = kept_count(width, k)
        m = topk_mask(x, k)
        assert m.mask.shape == x.shape
        np.testing.assert_array_equal(m.mask, stable_argsort_mask(x, kept))

    def test_all_zero_rows_keep_the_lowest_indices(self):
        m = topk_mask(np.zeros((2, 3, 8)), 0.25)
        np.testing.assert_array_equal(m.mask, stable_argsort_mask(np.zeros((2, 3, 8)), 2))
        assert np.all(m.mask[..., :2]) and not np.any(m.mask[..., 2:])

    def test_keep_one_floor_takes_the_first_of_tied_maxima(self):
        x = np.array([[1.0, -3.0, 3.0, 2.0, -3.0]])
        np.testing.assert_array_equal(topk_mask(x, 0.01).mask, [[False, True, False, False, False]])

    def test_signed_zeros_tie(self):
        x = np.array([-0.0, 0.0, -0.0, 1.0])
        np.testing.assert_array_equal(topk_mask(x, 0.5).mask, stable_argsort_mask(x, 2))

    def test_kept_equals_width(self):
        x = np.random.default_rng(8).standard_normal((3, 2, 5))
        assert np.all(topk_mask(x, 1.0).mask)
        assert np.all(topk_mask(x, 0.95).mask)  # round(0.95 * 5) == 5


class TestSparsifyThenQuantize:
    def test_worked_example(self):
        # ORACLE: gamma=5, codes = round(127*x/(5+eps)) = [76,-127,25,51],
        # dequant = codes/127*5, then mask keeps the two largest
        out = sparsify_then_quantize([3.0, -5.0, 1.0, 2.0], 0.5)
        assert out[1] == -5.0
        assert out[0] == pytest.approx(2.9921, abs=1e-4)
        assert np.array_equal(out[2:], [0.0, 0.0])

    def test_full_keep_equals_plain_fake_quant(self):
        from ternact.quantcore import QuantScheme, fake_quant

        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 32))
        assert np.array_equal(sparsify_then_quantize(x, 1.0), fake_quant(x, QuantScheme.int8()))

    def test_zeros_in_zeros_out(self):
        assert np.all(sparsify_then_quantize(np.zeros((2, 8)), 0.5) == 0.0)

    def test_scale_from_unmasked_input(self):
        # the dropped -5 still sets the scale: kept 3 -> 76/127*5, not 3.0
        out = sparsify_then_quantize([3.0, -5.0, 1.0, 2.0], 0.25)
        assert np.array_equal(out != 0.0, [False, True, False, False])
        out2 = sparsify_then_quantize([3.0, -5.0, 1.0, 2.0], 0.5)
        assert out2[0] != 3.0
        assert out2[0] == pytest.approx(76.0 / 127.0 * 5.0, rel=1e-12)

    def test_mask_never_changes_kept_values(self):
        from ternact.quantcore import QuantScheme, fake_quant

        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 64))
        dense = fake_quant(x, QuantScheme.int8())
        for k in (0.25, 0.5, 0.75):
            sparse = sparsify_then_quantize(x, k)
            kept = sparse != 0.0
            assert np.array_equal(sparse[kept], dense[kept])

    def test_k_validated(self):
        with pytest.raises(ValueError):
            sparsify_then_quantize([1.0], 0.0)


class TestMeasureSparsity:
    def test_all_zeros(self):
        assert measure_sparsity(np.zeros((3, 4))) == 1.0

    def test_no_zeros(self):
        assert measure_sparsity([1.0, -2.0, 0.5]) == 0.0

    def test_half(self):
        assert measure_sparsity([0.0, 1.0, 0.0, 2.0]) == 0.5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            measure_sparsity([])

    def test_composition_even_width(self):
        # round(k*n) <= k*n here, so masking alone guarantees the bound
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.standard_normal((4, 128))
            for k in (0.25, 0.5, 0.75):
                assert measure_sparsity(sparsify_then_quantize(x, k)) >= 1.0 - k

    @pytest.mark.xfail(strict=True, reason="round(k*n) can exceed k*n; see the docstring")
    def test_composition_as_stated(self):
        """The composition bound sparsity >= 1 - k, as first stated, cannot
        hold when round(k*n) exceeds k*n or the keep-at-least-one floor
        engages. With n=5 and k=0.5 the mask keeps 3 entries and int8
        quantization zeroes none of them, so the sparsity is 0.4, not 0.5.
        The attainable form is test_composition_where_rounding_allows."""
        x = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        assert measure_sparsity(sparsify_then_quantize(x, 0.5)) >= 0.5

    @given(st.integers(1, 512), st.sampled_from([0.25, 0.5, 0.75]), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_composition_where_rounding_allows(self, n, k, seed):
        kept = kept_count(n, k)
        if kept > k * n:
            return  # bound provably unattainable for this (n, k)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        assert measure_sparsity(sparsify_then_quantize(x, k)) >= 1.0 - k


class TestGateActiveChannels:
    def test_all_negative_preactivation(self):
        g = np.zeros((2, 4))  # relu^2 of negatives
        sets = gate_active_channels(g)
        assert all(s.size == 0 for s in sets)

    def test_all_positive(self):
        g = np.full((2, 3), 0.25)
        sets = gate_active_channels(g)
        assert all(np.array_equal(s, [0, 1, 2]) for s in sets)

    def test_mixed(self):
        g = np.array([[0.0, 1.0, 0.0, 4.0], [9.0, 0.0, 0.0, 0.0]])
        sets = gate_active_channels(g)
        assert np.array_equal(sets[0], [1, 3])
        assert np.array_equal(sets[1], [0])

    def test_flattens_leading_dims(self):
        g = np.ones((2, 3, 4))
        assert len(gate_active_channels(g)) == 6

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            gate_active_channels(np.float64(1.0))


def test_topk_mask_is_dataclass_with_fields():
    m = topk_mask([1.0, 2.0], 0.5)
    assert isinstance(m, TopKMask)
    assert m.mask.dtype == bool and m.mask.shape == (2,)
    assert m.mask.sum() == kept_count(2, 0.5)
