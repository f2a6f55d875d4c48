"""Unit tests for the quantizer core.

Expected values marked ORACLE were computed by evaluating the defining
formulas directly (by hand or with the inline oracle helpers) and frozen here.
"""

import dataclasses
import math

import numpy as np
import pytest

from quant_properties import CODE_RANGES, run_suite
from ternact.quantcore import (
    EPS,
    E2M1_GRID,
    SCHEMES,
    Granularity,
    QuantScheme,
    SchemeKind,
    SQRT7,
    dequantize,
    fake_quant,
    quantize,
)


# gamma + EPS == 127 exactly, so per-tensor int8 codes are round(x)
UNIT_INT8_MAX = 127.0 - EPS


class TestRoundClip:
    """``quantize`` rounds half away from zero, then clips into the
    scheme's code range."""

    def test_clip_to_upper_bound(self):
        # ORACLE: beta = 10/4, sqrt(7) * 10 / beta = 10.58 -> clipped to 7
        q = quantize([10.0, 0.0, 0.0, 0.0], QuantScheme.int4())
        assert np.array_equal(q.codes, [7, 0, 0, 0])

    def test_zero_fixed_point(self):
        for scheme in (QuantScheme.ternary(), QuantScheme.int8(), QuantScheme.int4(), QuantScheme.fp4()):
            assert np.all(quantize(np.zeros((2, 4)), scheme).codes == 0)

    def test_round_within_range(self):
        q = quantize([-3.7, UNIT_INT8_MAX], QuantScheme.int8(Granularity.PER_TENSOR))
        assert np.array_equal(q.codes, [-4, 127])

    def test_half_away_from_zero(self):
        # numpy's default banker's rounding would give [0, 2, 2, -0, -2]
        x = [0.5, 1.5, 2.5, -0.5, -2.5, UNIT_INT8_MAX]
        q = quantize(x, QuantScheme.int8(Granularity.PER_TENSOR))
        assert np.array_equal(q.codes, [1, 2, 3, -1, -3, 127])

    def test_elementwise(self):
        x = [[2.6, -0.4], [9.0, -UNIT_INT8_MAX]]
        q = quantize(x, QuantScheme.int8(Granularity.PER_TENSOR))
        assert np.array_equal(q.codes, [[3, 0], [9, -127]])

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_passes_through(self):
        # quantize does not reject NaN or inf: the scale carries it (the
        # model's per-block check stops it, see test_model)
        for scheme in (QuantScheme.int8(), QuantScheme.ternary(), QuantScheme.unsigned(3)):
            assert np.isnan(quantize([1.0, np.nan], scheme).scales)
            assert np.isinf(quantize([np.inf], scheme).scales)
            assert not np.isfinite(fake_quant([-np.inf, 0.0], scheme)).any()


class TestTernary:
    def test_mixed_weights(self):
        # ORACLE: alpha = (0.3+0.8+0.05)/3; 0.3/alpha' -> 1, -0.8/alpha' -> -2 clipped
        q = quantize([0.3, -0.8, 0.05], QuantScheme.ternary())
        assert np.array_equal(q.codes, [1, -1, 0])
        assert q.scales == np.abs([0.3, -0.8, 0.05]).mean()
        assert q.scales == pytest.approx(0.38333, abs=5e-6)

    def test_zero_tensor(self):
        q = quantize(np.zeros(5), QuantScheme.ternary())
        assert q.scales == 0.0
        assert np.array_equal(q.codes, np.zeros(5))

    def test_symmetric_at_mean(self):
        q = quantize([1.0, -1.0, 1.0, -1.0], QuantScheme.ternary())
        assert q.scales == 1.0
        assert np.array_equal(q.codes, [1, -1, 1, -1])
        assert np.array_equal(dequantize(q), [1.0, -1.0, 1.0, -1.0])

    def test_fake_quant_values(self):
        # ORACLE: alpha * codes
        alpha = float(np.abs([0.3, -0.8, 0.05]).mean())
        out = fake_quant([0.3, -0.8, 0.05], QuantScheme.ternary())
        assert np.array_equal(out, [alpha, -alpha, 0.0])
        assert out == pytest.approx([0.38333, -0.38333, 0.0], abs=5e-6)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            quantize([], QuantScheme.ternary())

    def test_rejects_per_token_granularity(self):
        with pytest.raises(ValueError):
            QuantScheme(SchemeKind.TERNARY_ABSMEAN, Granularity.PER_TOKEN)


class TestInt8Absmax:
    def test_extremes_map_to_127(self):
        q = quantize([-1.0, 1.0], QuantScheme.int8())
        assert np.array_equal(q.codes, [-127, 127])
        assert np.array_equal(dequantize(q), [-1.0, 1.0])

    def test_positive_max(self):
        # ORACLE: gamma = 2.54, codes = round(127*x/(gamma+eps))
        q = quantize([0.0, 2.54], QuantScheme.int8())
        assert np.array_equal(q.codes, [0, 127])
        assert q.scales == 2.54
        assert np.array_equal(dequantize(q), [0.0, 2.54])

    def test_zero_tensor(self):
        q = quantize(np.zeros(4), QuantScheme.int8())
        assert q.scales == 0.0
        assert np.array_equal(q.codes, np.zeros(4))

    def test_per_token_scales(self):
        x = np.array([[1.0, -2.0], [0.5, 0.25]])
        q = quantize(x, QuantScheme.int8())
        assert np.array_equal(q.scales, [2.0, 0.5])
        # 127*1/(2+eps) = 63.49996..., so the eps in the denominator decides
        # this tie downward; without it the ratio would be exactly 63.5
        assert np.array_equal(q.codes[:, 0], [63, 127])

    def test_per_tensor_granularity(self):
        x = np.array([[1.0, -2.0], [0.5, 0.25]])
        q = quantize(x, QuantScheme.int8(Granularity.PER_TENSOR))
        assert q.scales.shape == ()
        assert q.scales == 2.0


class TestInt4Absmean:
    def test_unit_alternation(self):
        # ORACLE: beta = 1, codes = round(sqrt(7)/(1+eps)) = 3, dequant = 3/sqrt(7)
        q = quantize([1.0, -1.0, 1.0, -1.0], QuantScheme.int4())
        assert q.scales == 1.0
        assert np.array_equal(q.codes, [3, -3, 3, -3])
        expected = 3.0 / SQRT7
        assert dequantize(q) == pytest.approx([expected, -expected, expected, -expected], abs=0)
        assert expected == pytest.approx(1.13389, abs=1e-5)

    def test_outlier_clips(self):
        # ORACLE: beta = 10.3/4 = 2.575; sqrt(7)*10/beta' = 10.27 -> clipped to 7
        q = quantize([10.0, 0.1, 0.1, 0.1], QuantScheme.int4())
        assert q.scales == np.abs([10.0, 0.1, 0.1, 0.1]).mean()
        assert q.scales == pytest.approx(2.575, rel=1e-12)
        assert q.codes[0] == 7
        assert np.array_equal(q.codes[1:], [0, 0, 0])

    def test_zero_tensor(self):
        q = quantize(np.zeros(3), QuantScheme.int4())
        assert np.array_equal(q.codes, np.zeros(3))

    def test_double_multiplier_halves_codes(self):
        # ORACLE: beta doubles, so sqrt(7)/2 = 1.32 -> code 1
        q = quantize([1.0, -1.0, 1.0, -1.0], QuantScheme.int4(multiplier=2.0))
        assert q.scales == 2.0
        assert np.array_equal(q.codes, [1, -1, 1, -1])

    def test_multiplier_validated(self):
        with pytest.raises(ValueError):
            quantize([1.0], QuantScheme.int4(multiplier=3.0))


class TestFp4MinMax:
    def test_zero_tensor(self):
        q = quantize(np.zeros(4), QuantScheme.fp4())
        assert q.scales == 0.0
        assert np.all(dequantize(q) == 0.0)

    def test_grid_fixed_points(self):
        # exact fixed points need a power-of-two group scale, where every
        # intermediate (multiply by 6, divide by 6, divide by the scale) is
        # float-exact; arbitrary scales only guarantee idempotence
        for s in (1.0, 2.0**-9, 2.0, 2.0**7):
            x = np.array([6.0, -3.0, 0.5, 1.5, 0.0, -6.0, 4.0]) * s
            assert np.array_equal(fake_quant(x, QuantScheme.fp4()), x)
        for s in (0.1, 3.7):
            x = np.array([6.0, -3.0, 0.5, 1.5, 0.0, -6.0, 4.0]) * s
            once = fake_quant(x, QuantScheme.fp4())
            assert np.array_equal(fake_quant(once, QuantScheme.fp4()), once)

    def test_nearest_grid_projection(self):
        # ORACLE: brute-force nearest point over the 16-value signed E2M1 set
        q = quantize([6.0, 2.4, -0.7], QuantScheme.fp4())
        assert q.scales == 1.0
        assert np.array_equal(dequantize(q), [6.0, 2.0, -0.5])

    def test_brute_force_oracle_agreement(self):
        rng = np.random.default_rng(7)
        signed_grid = np.concatenate([-E2M1_GRID[:0:-1], E2M1_GRID])
        for _ in range(200):
            x = rng.uniform(-1.0, 1.0, size=8) * 10.0 ** rng.uniform(-2, 2)
            q = quantize(x, QuantScheme.fp4())
            s = float(q.scales)
            got = dequantize(q)
            if s == 0.0:
                assert np.all(got == 0.0)
                continue
            # nearest signed grid point, ties away from zero
            cand = signed_grid * s
            dist = np.abs(x[:, None] - cand[None, :])
            best = dist.min(axis=1)
            for i, v in enumerate(x):
                choices = cand[dist[i] == best[i]]
                pick = choices[np.argmax(np.abs(choices))]
                assert got[i] == pytest.approx(pick, rel=1e-12)

    def test_max_maps_to_six(self):
        x = np.array([0.3, -0.9, 0.05])
        q = quantize(x, QuantScheme.fp4())
        assert np.abs(q.codes).max() == 7
        assert np.max(np.abs(dequantize(q))) == pytest.approx(0.9, rel=1e-12)

    def test_midpoint_ties_round_away(self):
        # midpoints of the grid scaled so max|x| = 6 keeps the scale at 1
        x = np.array([0.25, 0.75, -1.75, 2.5, 3.5, 5.0, 6.0])
        out = fake_quant(x, QuantScheme.fp4())
        assert np.array_equal(out, [0.5, 1.0, -2.0, 3.0, 4.0, 6.0, 6.0])

    def test_literal_formula_agreement(self):
        # The per-element min-max formula: bias from the group max, a
        # power-of-two step per binade, round, rescale. Defined for nonzero
        # inputs; agreement is exact when max|X| = 6 * 2^k (integer bias).
        def literal(x):
            gmax = np.max(np.abs(x))
            b = math.log2(1.5 / gmax) + 3.0
            out = np.zeros_like(x)
            for i, v in enumerate(x):
                if v == 0.0:
                    continue
                g = 2.0 ** max(math.floor(math.floor(math.log2(abs(v))) + b), 1)
                step = g / 2.0 ** (1 + b)
                out[i] = step * math.trunc(v / step + math.copysign(0.5, v))
            return out

        rng = np.random.default_rng(11)
        for k in (-3, 0, 5):
            for _ in range(100):
                x = rng.uniform(-6.0, 6.0, size=15)
                x[rng.integers(0, 15)] = 6.0 * rng.choice([-1.0, 1.0])
                x = x * 2.0**k
                got = fake_quant(x, QuantScheme.fp4())
                assert np.array_equal(got, literal(x))
        # ties included explicitly
        x = np.array([2.5, -0.25, 1.75, -3.5, 5.0, 6.0])
        assert np.array_equal(fake_quant(x, QuantScheme.fp4()), literal(x))


class TestUnsignedAbsmax:
    def test_range_extremes_4bit(self):
        q = quantize([-1.0, 1.0], QuantScheme.unsigned(4))
        assert np.array_equal(q.codes, [0, 15])
        assert np.array_equal(dequantize(q), [-1.0, 1.0])

    def test_zero_maps_to_middle(self):
        # ORACLE: (0/1 + 1)/2 * 15 = 7.5, half-away -> 8; dequant 2*(8/15) - 1
        q = quantize([0.0, 1.0], QuantScheme.unsigned(4))
        assert np.array_equal(q.codes, [8, 15])
        assert dequantize(q)[0] == pytest.approx(1.0 / 15.0, rel=1e-12)
        assert dequantize(q)[0] == pytest.approx(0.0667, abs=1e-4)

    def test_range_extremes_3bit(self):
        q = quantize([-1.0, 1.0], QuantScheme.unsigned(3))
        assert np.array_equal(q.codes, [0, 7])

    def test_zero_group(self):
        q = quantize(np.zeros(3), QuantScheme.unsigned(4))
        assert np.all(dequantize(q) == 0.0)

    def test_bits_validated(self):
        with pytest.raises(ValueError):
            quantize([1.0], QuantScheme.unsigned(5))

    def test_lattice_codes_do_not_depend_on_the_last_ulps_of_the_scale(self):
        # a projection output is integer code sums times a row scale, and the
        # scale's last ulps depend on how many rows were computed together;
        # with |sums| <= 15 many exact ratios sit on a level boundary
        rng = np.random.default_rng(7)
        n = 12000
        rows = rng.integers(-15, 16, size=(n, 8)).astype(np.float64)
        c = rng.uniform(0.01, 10.0, size=(n, 1))
        ulps = rng.integers(1, 4, size=(n, 1)) * rng.choice([-1.0, 1.0], size=(n, 1))
        c2 = c + ulps * np.spacing(c)
        for bits in (3, 4):
            a = quantize(rows * c, QuantScheme.unsigned(bits)).codes
            b = quantize(rows * c2, QuantScheme.unsigned(bits)).codes
            assert int(np.sum(np.any(a != b, axis=1))) == 0

    def test_tie_grid_moves_codes_only_next_to_a_boundary(self):
        x = np.random.default_rng(8).standard_normal((4000, 16))
        t = x / np.max(np.abs(x), axis=-1, keepdims=True)
        for bits in (3, 4):
            levels = 2**bits - 1
            ratio = (t + 1.0) / 2.0 * levels
            unsnapped = np.trunc(ratio + 0.5)
            near = np.abs(ratio - np.floor(ratio) - 0.5) <= 2.0**-33 * levels
            codes = quantize(x, QuantScheme.unsigned(bits)).codes
            assert np.all((codes == unsnapped) | near)


class TestDequantize:
    def test_ternary_direct_scale(self):
        q = quantize(np.array([1.0, -1.0, 0.001]), QuantScheme.ternary())
        q = q._replace(scales=np.asarray(0.5))
        assert np.array_equal(dequantize(q), [0.5, -0.5, 0.0])

    @pytest.mark.parametrize("scale", [0.7930224, 1.0, 3e-300, 1e300], ids=["typical", "one", "tiny", "huge"])
    def test_ternary_is_codes_times_scale_bit_for_bit(self, scale):
        # divisor 1 skips the exact division: the bits of codes * scale in f64
        q = quantize(np.random.default_rng(8).standard_normal((344, 128)), QuantScheme.ternary())
        q = q._replace(scales=np.asarray(scale))
        got, want = dequantize(q), q.codes.astype(np.float64) * scale
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # signed zeros too

    def test_int8_full_scale(self):
        q = quantize([2.54], QuantScheme.int8())
        assert q.codes[0] == 127
        assert dequantize(q)[0] == 2.54

    def test_int4_code7(self):
        # ORACLE: 7/sqrt(7) * 1 = sqrt(7) = 2.64575...
        q = quantize([10.0, 0.1, 0.1, 0.1], QuantScheme.int4())
        got = dequantize(q)[0]
        assert got == pytest.approx(7.0 / SQRT7 * 2.575, rel=1e-12)
        assert got / q.scales == pytest.approx(2.64575, abs=1e-5)

    def test_shape_preserved(self):
        x = np.arange(12.0).reshape(3, 4) - 5.0
        for scheme in (QuantScheme.int8(), QuantScheme.int4(), QuantScheme.fp4(), QuantScheme.unsigned(4)):
            assert dequantize(quantize(x, scheme)).shape == x.shape


def reference_codes(x, q):
    """The ternary/int8/int4 quantizer as its formulas, at the scales ``q``
    holds: divisor * x / (scale + EPS), rounded half away and clipped."""
    lo, hi = CODE_RANGES[q.scheme.kind]
    s = q.scales if q.scheme.granularity is Granularity.PER_TENSOR else q.scales[..., None]
    if q.scheme.kind is SchemeKind.TERNARY_ABSMEAN:
        t = np.asarray(x / (s + EPS))
    else:
        t = np.asarray({SchemeKind.INT8_ABSMAX: 127.0, SchemeKind.INT4_ABSMEAN: SQRT7}[q.scheme.kind] * x / (s + EPS))
    return np.minimum(np.maximum(np.trunc(t + np.copysign(0.5, t)), lo), hi).astype(np.float32)


def reference_dequantize(q):
    """Each kind's dequantizer as its own formula."""
    kind = q.scheme.kind
    s = np.asarray(q.scales, dtype=np.float64)
    if q.scheme.granularity is Granularity.PER_TOKEN:
        s = s[..., None]
    c = np.asarray(q.codes, dtype=np.float64)
    if kind is SchemeKind.TERNARY_ABSMEAN:
        return c * s
    if kind is SchemeKind.INT8_ABSMAX:
        return (c / 127.0) * s
    if kind is SchemeKind.INT4_ABSMEAN:
        return (c / SQRT7) * s
    if kind is SchemeKind.FP4_MINMAX:
        return np.sign(c) * E2M1_GRID[np.abs(c).astype(np.int64)] * s
    levels = float(2**q.scheme.bits - 1)
    return (2.0 * (c / levels) - 1.0) * s


def _reference_inputs():
    rng = np.random.default_rng(29)
    normal = rng.standard_normal((3, 8))
    with_nan, with_inf = normal.copy(), normal.copy()
    with_nan[1, 2] = np.nan
    with_inf[0, 1], with_inf[2, 5] = np.inf, -np.inf
    signed_zeros = normal.copy()
    signed_zeros[:, ::2] = -0.0
    signed_zeros[2] = -0.0
    return {
        "normal": normal,
        "tied": np.array([[2.5, -2.5, 0.5, -0.5, 1.5, -1.5, 0.0, 1.0], [3.0, 3.0, -3.0, 1.0, 1.0, 0.0, -0.0, 2.0]]),
        "tiny": normal * 1e-300,
        "huge": normal * 1e307,
        "nan": with_nan,
        "inf": with_inf,
        "negative-zero": signed_zeros,
        "0-d": np.array(-1.75),
    }


REFERENCE_INPUTS = _reference_inputs()
REFERENCE_CASES = [
    (name, granularity, inp)
    for name in sorted(SCHEMES)
    for granularity in Granularity
    for inp in REFERENCE_INPUTS
    if not (granularity is Granularity.PER_TOKEN and (name == "ternary" or inp == "0-d"))
]


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)  # NaN matches NaN
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestReferenceFormulas:
    """``quantize`` and ``dequantize`` read every signed kind's format from
    ``LATTICES``; they match the per-kind formulas bit for bit, signbit
    included, on every scheme and granularity."""

    @pytest.mark.parametrize("name,granularity,inp", REFERENCE_CASES,
                             ids=[f"{n}-{g.value}-{i}" for n, g, i in REFERENCE_CASES])
    def test_matches_the_per_kind_formulas(self, name, granularity, inp):
        x = REFERENCE_INPUTS[inp]
        scheme = dataclasses.replace(SCHEMES[name], granularity=granularity)
        with np.errstate(all="ignore"):
            q = quantize(x, scheme)
            if scheme.kind in (SchemeKind.TERNARY_ABSMEAN, SchemeKind.INT8_ABSMAX, SchemeKind.INT4_ABSMEAN):
                assert_same_bits(q.codes, reference_codes(x, q))
            assert_same_bits(dequantize(q), reference_dequantize(q))


class TestFakeQuant:
    def test_identity_scheme_passthrough(self):
        # every entry lies on the per-tensor fp4 grid (scale 2.25 / 6)
        x = np.array([1.5, -2.25, 0.0])
        assert np.array_equal(fake_quant(x, QuantScheme.fp4(Granularity.PER_TENSOR)), x)

    def test_composition_matches_quantize_dequantize(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 16))
        for scheme in (QuantScheme.int8(), QuantScheme.int4(), QuantScheme.fp4(), QuantScheme.unsigned(3)):
            assert np.array_equal(fake_quant(x, scheme), dequantize(quantize(x, scheme)))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_group_stays_non_finite(self):
        # a NaN or inf makes its whole scaling group non-finite and leaves
        # every other group as it would be without it
        rng = np.random.default_rng(4)
        for bad in (np.nan, np.inf, -np.inf):
            x = rng.standard_normal((3, 8))
            x[1, 5] = bad
            for name, scheme in SCHEMES.items():
                got = fake_quant(x, scheme)
                if scheme.granularity is Granularity.PER_TENSOR:
                    assert not np.isfinite(got).any(), name
                    continue
                assert not np.isfinite(got[1]).any(), name
                clean = fake_quant(np.delete(x, 1, axis=0), scheme)
                np.testing.assert_array_equal(np.delete(got, 1, axis=0), clean, err_msg=name)


def _named_schemes():
    for name, scheme in sorted(SCHEMES.items()):
        yield pytest.param(scheme, id=name)
        if scheme.granularity is Granularity.PER_TOKEN:
            per_tensor = dataclasses.replace(scheme, granularity=Granularity.PER_TENSOR)
            yield pytest.param(per_tensor, id=f"{name}-tensor")


class TestCodeFormat:
    @pytest.mark.parametrize("scheme", list(_named_schemes()))
    def test_codes_are_integer_valued_float32_in_range(self, scheme):
        x = np.random.default_rng(21).standard_normal((3, 4, 16)) * np.array([[1e-3], [1.0], [1e3], [0.0]])
        codes = quantize(x, scheme).codes
        lo, hi = CODE_RANGES[scheme.kind]
        assert codes.dtype == np.float32 and codes.shape == x.shape
        assert np.array_equal(codes, np.round(codes))
        assert lo <= codes.min() and codes.max() <= hi

    @pytest.mark.parametrize(
        "scheme", [s for s in SCHEMES.values() if s.granularity is Granularity.PER_TOKEN]
    )
    def test_per_token_scheme_rejects_a_scalar(self, scheme):
        with pytest.raises(ValueError, match="per-tensor"):
            quantize(np.array(3.0), scheme)
        q = quantize(np.array(3.0), dataclasses.replace(scheme, granularity=Granularity.PER_TENSOR))
        assert q.codes.shape == () and q.scales.shape == ()


@pytest.fixture(scope="module")
def suite_results():
    return run_suite(n_tensors=1200, seed=99)


class TestPropertySuite:
    """Module invariants over a reduced random population (the acceptance
    suite reruns these at 10^4 tensors per scheme)."""

    @pytest.mark.parametrize(
        "key",
        [
            "code-range[ternary]",
            "code-range[int8]",
            "code-range[int4]",
            "code-range[fp4]",
            "code-range[unsigned3]",
            "code-range[unsigned4]",
            "grid-membership[fp4]",
            "zero-preservation",
            "idempotence[int8]",
            "idempotence[fp4]",
            "idempotence[unsigned3]",
            "idempotence[unsigned4]",
            "max-error-bound",
            "scale-monotonicity[scales]",
            "scale-monotonicity[codes-eps-free]",
        ],
    )
    def test_property_holds(self, suite_results, key):
        assert suite_results[key] == []

    @pytest.mark.xfail(strict=True, reason="ternary rescales on requantization; see the docstring")
    def test_ternary_idempotence_as_stated(self, suite_results):
        """Value-level ternary idempotence cannot hold. Requantizing
        alpha * codes takes the new scale mean(|alpha * codes|), which is
        alpha * mean(|codes|) < alpha whenever any code is zero, so the
        second application moves entries. The attainable form is
        test_ternary_code_idempotence: the codes are stable."""
        assert suite_results["idempotence[ternary]"] == []

    @pytest.mark.xfail(strict=True, reason="the additive eps does not scale; see the docstring")
    def test_scaling_code_invariance_as_stated(self, suite_results):
        """Exact code invariance under input scaling cannot hold for the
        quantizers whose denominator carries an additive eps (ternary, int8,
        int4). The eps does not scale with the input, so a ratio within about
        eps * |ratio| / scale of a half-integer boundary flips by one code;
        the measured rate is about 5e-5 per entry. The attainable forms are
        the eps-free codes and the scales (scale-monotonicity[codes-eps-free]
        and [scales]) and test_scaling_flips_are_boundary_steps."""
        assert suite_results["scale-monotonicity[codes-as-stated]"] == []

    def test_ternary_code_idempotence(self):
        # The attainable form: codes are stable under requantization.
        rng = np.random.default_rng(5)
        for _ in range(50):
            w = rng.standard_normal(64) * 10.0 ** rng.uniform(-2, 2)
            q1 = quantize(w, QuantScheme.ternary())
            q2 = quantize(dequantize(q1), QuantScheme.ternary())
            assert np.array_equal(q1.codes, q2.codes)

    def test_scaling_flips_are_boundary_steps(self):
        # The attainable form for eps-bearing schemes: any code that does
        # change under a power-of-two rescale moves by exactly one step, sits
        # inside the eps boundary band, and such entries are rare.
        rng = np.random.default_rng(23)
        rows = rng.standard_normal((4000, 32)) * 10.0 ** rng.uniform(-2, 2, (4000, 1))
        total = 0
        flips = 0
        for c in (0.5, 2.0, 8.0):
            for scheme, make_ratio in (
                (QuantScheme.int8(), lambda r: 127.0 * r / (np.max(np.abs(r)) + EPS)),
                (QuantScheme.int4(), lambda r: SQRT7 * r / (np.mean(np.abs(r)) + EPS)),
            ):
                qa = quantize(rows, scheme)
                qb = quantize(c * rows, scheme)
                diff = qa.codes.astype(np.int64) - qb.codes.astype(np.int64)
                total += diff.size
                flips += int(np.sum(diff != 0))
                assert np.all(np.abs(diff) <= 1)
                for i, j in np.argwhere(diff != 0):
                    ratio = make_ratio(rows[i])[j]
                    assert abs(abs(ratio) % 1.0 - 0.5) < 1e-2
        assert flips / total < 1e-3


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((8, 32))
        for scheme in (QuantScheme.int8(), QuantScheme.int4(), QuantScheme.fp4(), QuantScheme.unsigned(4)):
            a = quantize(x, scheme)
            b = quantize(x.copy(), scheme)
            assert np.array_equal(a.codes, b.codes)
            assert np.array_equal(a.scales, b.scales)


def test_fp4_scale_stabilization_is_projection():
    # F(s) = (6*s)/6 must be idempotent or FP4 fake_quant idempotence breaks.
    rng = np.random.default_rng(17)
    s = rng.uniform(0.0, 1.0, 500_000) * 10.0 ** rng.uniform(-6, 6, 500_000)
    f1 = (6.0 * s) / 6.0
    f2 = (6.0 * f1) / 6.0
    assert np.array_equal(f1, f2)
    assert np.sum(f1 != s) > 0  # the stabilization is not a no-op
