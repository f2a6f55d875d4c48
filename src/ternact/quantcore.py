"""Quantizers with explicit scale bookkeeping.

``quantize``/``dequantize`` are the one quantizer pair, a pure map from a
float tensor to integer-valued float32 codes plus real scales and back;
projections, reports and ``.q48`` files read those codes as they are, and the
KV cache quantizes through the same unsigned core, ``unsigned_codes``.
Weights quantize with one scale per tensor; activations default to one scale
per token row, where the trailing axis is the feature axis. All rounding is
round-half-away-from-zero.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# Guards every scale division so all-zero groups stay finite.
EPS = 1e-6

SQRT7 = math.sqrt(7.0)

# The unsigned quantizer rounds the ratio t = x / max|x| to this grid of
# 2^-32 steps before choosing a level. A projection output is an integer code
# sum times a row scale, so t is a ratio p/q of two integers computed to
# within a few ulps, and where p/q sits exactly on a level boundary the last
# ulp (which can depend on how many rows were computed together) would pick
# the side. Snapped, t is decided by p/q itself: for q < 2^33, p/q lies at
# least 2^-33/q from a grid midpoint (7e-15 for the largest code sums a
# projection here produces, 2^14) against a few 1e-16 of error in t. A grid
# point times 2^bits - 1 is exact in float64 (|t| <= 1, so 33 + 4 bits), so
# the level rounding sees the snapped ratio unchanged. The snap moves t by at
# most 2^-33: a code can differ from unsnapped rounding only that close to a
# boundary.
TIE_GRID = 2.0**32

# Nonnegative magnitudes representable in E2M1, up to the group scale.
E2M1_GRID = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
_E2M1_MIDPOINTS = (E2M1_GRID[:-1] + E2M1_GRID[1:]) / 2.0


class Granularity(enum.Enum):
    PER_TENSOR = "per_tensor"
    PER_TOKEN = "per_token"


class SchemeKind(enum.Enum):
    TERNARY_ABSMEAN = "ternary_absmean"  # scale mean(|W|), codes in {-1, 0, 1}
    INT8_ABSMAX = "int8_absmax"  # scale max(|X|) per group, codes in [-128, 127]
    INT4_ABSMEAN = "int4_absmean"  # scale multiplier * mean(|X|), codes in [-8, 7]
    FP4_MINMAX = "fp4_minmax"  # nearest E2M1 point x scale, max(|X|) lands on 6
    UNSIGNED_ABSMAX = "unsigned_absmax"  # [-max(|X|), max(|X|)] onto [0, 2^bits - 1]


@dataclass(frozen=True)
class QuantScheme:
    """Descriptor of one quantizer variant plus its scaling granularity.

    ``multiplier`` applies to INT4 absmean only (2.0 is the outlier-tolerant
    down-projection variant). ``bits`` applies to the unsigned absmax family.
    FP4 is always E2M1.
    """

    kind: SchemeKind
    granularity: Granularity = Granularity.PER_TOKEN
    multiplier: float = 1.0
    bits: int = 4

    def __post_init__(self) -> None:
        if self.kind is SchemeKind.TERNARY_ABSMEAN:
            if self.granularity is not Granularity.PER_TENSOR:
                raise ValueError("ternary absmean quantizes per tensor")
        if self.kind is SchemeKind.INT4_ABSMEAN and self.multiplier not in (1.0, 2.0):
            raise ValueError(f"int4 absmean multiplier must be 1 or 2, got {self.multiplier}")
        if self.kind is SchemeKind.UNSIGNED_ABSMAX and self.bits not in (3, 4):
            raise ValueError(f"unsigned absmax supports 3 or 4 bits, got {self.bits}")

    @staticmethod
    def ternary() -> "QuantScheme":
        return QuantScheme(SchemeKind.TERNARY_ABSMEAN, Granularity.PER_TENSOR)

    @staticmethod
    def int8(granularity: Granularity = Granularity.PER_TOKEN) -> "QuantScheme":
        return QuantScheme(SchemeKind.INT8_ABSMAX, granularity)

    @staticmethod
    def int4(multiplier: float = 1.0, granularity: Granularity = Granularity.PER_TOKEN) -> "QuantScheme":
        return QuantScheme(SchemeKind.INT4_ABSMEAN, granularity, multiplier=multiplier)

    @staticmethod
    def fp4(granularity: Granularity = Granularity.PER_TOKEN) -> "QuantScheme":
        return QuantScheme(SchemeKind.FP4_MINMAX, granularity)

    @staticmethod
    def unsigned(bits: int = 4, granularity: Granularity = Granularity.PER_TOKEN) -> "QuantScheme":
        return QuantScheme(SchemeKind.UNSIGNED_ABSMAX, granularity, bits=bits)


# Schemes by the names configs and the command line use.
SCHEMES: dict[str, QuantScheme] = {
    "int8": QuantScheme.int8(),
    "int4": QuantScheme.int4(),
    "int4x2": QuantScheme.int4(multiplier=2.0),
    "fp4": QuantScheme.fp4(),
    "ternary": QuantScheme.ternary(),
    "unsigned4": QuantScheme.unsigned(4),
    "unsigned3": QuantScheme.unsigned(3),
}


@dataclass(frozen=True)
class QuantizedTensor:
    """Integer codes, one scale per scaling group, and the producing scheme.

    ``scales`` has the source shape minus the feature axis for per-token
    schemes and is a 0-d array for per-tensor schemes.
    """

    codes: np.ndarray
    scales: np.ndarray
    scheme: QuantScheme


class NonFiniteValueError(ValueError):
    """A quantizer input holds NaN or infinity."""


def _as_checked_array(x, name: str = "input") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValueError(f"{name} contains non-finite values")
    return arr


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.trunc(x + np.copysign(0.5, x))


def _group_abs(fn, x: np.ndarray, granularity: Granularity) -> np.ndarray:
    # fn (np.max or np.mean) of |x| over each scaling group
    if granularity is Granularity.PER_TENSOR:
        return np.asarray(fn(np.abs(x)))
    return fn(np.abs(x), axis=-1)


def _expand(scales: np.ndarray, granularity: Granularity) -> np.ndarray:
    # Align group scales against the feature axis for broadcasting.
    if granularity is Granularity.PER_TENSOR:
        return scales
    return scales[..., None]


def unsigned_codes(x: np.ndarray, scales: np.ndarray, levels) -> np.ndarray:
    """The unsigned quantizer: x in [-scale, scale] onto float64 codes in
    [0, levels], rounded half up. ``scales`` and ``levels`` broadcast against
    ``x``, so a KV cache can quantize positions at different bit widths in
    one call. The error bound is scale/levels plus the tie grid's 2^-33 *
    scale (an entry that close to a boundary may take the farther level),
    which leaves no room for an epsilon in the divisor: zero groups are
    guarded explicitly."""
    safe = np.where(scales > 0.0, scales, 1.0)
    # t = x / scale on the tie grid, counted in grid steps: an integer in
    # [-TIE_GRID, TIE_GRID] (asarray: a 0-d quotient is a scalar)
    steps = np.asarray(x / safe)
    steps *= TIE_GRID
    np.rint(steps, out=steps)
    # (t + 1) / 2 * levels, exact and in [0, levels], then rounded half up
    steps += TIE_GRID
    steps *= levels / (2.0 * TIE_GRID)
    steps += 0.5
    return np.floor(steps, out=steps)


def unsigned_values(codes: np.ndarray, scales: np.ndarray, levels) -> np.ndarray:
    """The unsigned dequantizer: codes in [0, levels] onto [-scale, scale].
    ``scales`` and ``levels`` broadcast against ``codes``, as in
    ``unsigned_codes``."""
    return (2.0 * (codes / levels) - 1.0) * scales


def quantize(x, scheme: QuantScheme) -> QuantizedTensor:
    """Quantize a tensor under ``scheme`` (see ``SchemeKind`` for each kind).

    The codes are integer-valued float32 for every scheme (no code exceeds
    255 in magnitude, so float32 holds each exactly): projections multiply
    them directly, which keeps every contraction exact integer arithmetic.
    """
    arr = _as_checked_array(x)
    granularity = scheme.granularity
    if granularity is Granularity.PER_TOKEN and arr.ndim == 0:
        raise ValueError("a per-token scheme needs a feature axis; quantize a 0-d tensor "
                         "per tensor (--per-tensor)")
    kind = scheme.kind
    if kind is SchemeKind.TERNARY_ABSMEAN:
        scales = _group_abs(np.mean, arr, granularity)
        codes = np.clip(_round_half_away(arr / (scales + EPS)), -1, 1)
    elif kind is SchemeKind.INT8_ABSMAX:
        scales = _group_abs(np.max, arr, granularity)
        codes = np.clip(_round_half_away(127.0 * arr / (_expand(scales, granularity) + EPS)), -128, 127)
    elif kind is SchemeKind.INT4_ABSMEAN:
        scales = scheme.multiplier * _group_abs(np.mean, arr, granularity)
        codes = np.clip(_round_half_away(SQRT7 * arr / (_expand(scales, granularity) + EPS)), -8, 7)
    elif kind is SchemeKind.FP4_MINMAX:
        # One pass of s -> (6s)/6 makes the scale stable under requantization:
        # the map is a projection in float64, so fake_quant stays idempotent
        # even when 6*s rounds.
        scales = (6.0 * (_group_abs(np.max, arr, granularity) / 6.0)) / 6.0
        mag = np.abs(arr) / _expand(np.where(scales > 0.0, scales, 1.0), granularity)
        # side='right' sends exact midpoints to the larger magnitude, matching
        # round-half-away elsewhere.
        codes = np.sign(arr) * np.searchsorted(_E2M1_MIDPOINTS, mag, side="right")
    elif kind is SchemeKind.UNSIGNED_ABSMAX:
        scales = _group_abs(np.max, arr, granularity)
        codes = unsigned_codes(arr, _expand(scales, granularity), float(2**scheme.bits - 1))
    else:
        raise ValueError(f"unknown scheme kind: {kind}")
    return QuantizedTensor(codes.astype(np.float32), np.asarray(scales), scheme)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Map a QuantizedTensor's codes back to real values.

    Division-before-scale ordering is deliberate: the extreme code divides to
    exactly 1.0, so requantizing a dequantized tensor recovers the same group
    scale bit-exactly.
    """
    kind = q.scheme.kind
    s = _expand(np.asarray(q.scales, dtype=np.float64), q.scheme.granularity)
    c = np.asarray(q.codes, dtype=np.float64)
    if kind is SchemeKind.TERNARY_ABSMEAN:
        return c * s
    if kind is SchemeKind.INT8_ABSMAX:
        return (c / 127.0) * s
    if kind is SchemeKind.INT4_ABSMEAN:
        return (c / SQRT7) * s
    if kind is SchemeKind.FP4_MINMAX:
        return np.sign(c) * E2M1_GRID[np.abs(c).astype(np.int64)] * s
    if kind is SchemeKind.UNSIGNED_ABSMAX:
        return unsigned_values(c, s, float(2**q.scheme.bits - 1))
    raise ValueError(f"unknown scheme kind: {kind}")


def fake_quant(x, scheme: QuantScheme) -> np.ndarray:
    """dequantize(quantize(x, scheme)): the value every quantized operand
    takes inside a forward pass."""
    return dequantize(quantize(x, scheme))
