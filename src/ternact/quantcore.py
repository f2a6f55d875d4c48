"""Quantizers with explicit scale bookkeeping.

``quantize``/``dequantize`` are the one quantizer pair, a pure map from a
float tensor to integer-valued float32 codes plus real scales and back;
projections, reports and ``.q48`` files read those codes as they are, and the
KV cache quantizes through the same unsigned core, ``unsigned_codes``.
``LATTICES`` owns the signed code format: each kind's code range, the integer
lattice point a code stands for, and the divisor, so a value is (point /
divisor) * scale. ``dequantize``, the projections' code matmul and the
``.q48`` reader's range check all read it.
No quantizer scans for NaN or inf: one gives its group a non-finite scale,
and ``model.model_forward``'s per-block check stops it.
Weights quantize with one scale per tensor; activations default to one scale
per token row, where the trailing axis is the feature axis. All rounding is
round-half-away-from-zero.
``quantize`` is on the path of every projection, so it is written for few
and cheap numpy calls: group scales come from one ``maximum``/``add``
reduction (a mean is that sum over n, which is what ``np.mean`` computes),
the signed integer schemes scale, round and clip one fresh buffer in place,
and constant operands are 0-d arrays (``operand``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

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


def operand(value: float) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array, for a constant operand of
    the ufuncs on a projection's path. With a float64 array a ufunc computes
    the same result from it as from the Python float, but skips converting a
    Python scalar on every call, which at a decode step's one row is a third
    of the cost of a small ufunc."""
    a = np.array(value, dtype=np.float64)
    a.flags.writeable = False
    return a


_ZERO, _HALF, _ONE, _TWO = operand(0.0), operand(0.5), operand(1.0), operand(2.0)
_EPS, _SQRT7, _INT8_MAX, _TIE_GRID = operand(EPS), operand(SQRT7), operand(127.0), operand(TIE_GRID)

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

    # members are singletons equal only to themselves: the identity hash spares
    # each LATTICES lookup on a projection's path Enum's Python-level __hash__
    __hash__ = object.__hash__


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


class QuantizedTensor(NamedTuple):
    """Integer codes, one scale per scaling group, and the producing scheme.

    ``scales`` has the source shape minus the feature axis for per-token
    schemes and is a 0-d array for per-tensor schemes. A named tuple, not a
    dataclass: it is as immutable and builds in half the time, and every
    projection input builds one.
    """

    codes: np.ndarray
    scales: np.ndarray
    scheme: QuantScheme


class Lattice(NamedTuple):
    """A signed kind's code format: a code in [lo, hi] names an integer
    lattice point, the code itself or ``points[code - lo]``, and the value is
    (point / divisor) * scale."""

    lo: np.ndarray
    hi: np.ndarray
    divisor: np.ndarray
    points: np.ndarray | None = None

    @property
    def peak(self) -> float:
        """The largest |lattice point|."""
        return float(np.max(np.abs((self.lo, self.hi) if self.points is None else self.points)))


# fp4 codes index the E2M1 grid, whose points lie on a half-integer lattice;
# doubled, they are the integers -12..12 (index c + 7 holds code c).
_FP4_POINTS = np.concatenate((-2.0 * E2M1_GRID[:0:-1], 2.0 * E2M1_GRID)).astype(np.float32)

# The one owner of the signed code format: ranges, lattice maps, divisors.
LATTICES: dict[SchemeKind, Lattice] = {
    SchemeKind.TERNARY_ABSMEAN: Lattice(operand(-1.0), _ONE, _ONE),
    SchemeKind.INT8_ABSMAX: Lattice(operand(-128.0), _INT8_MAX, _INT8_MAX),
    SchemeKind.INT4_ABSMEAN: Lattice(operand(-8.0), operand(7.0), _SQRT7),
    SchemeKind.FP4_MINMAX: Lattice(operand(-7.0), operand(7.0), _TWO, _FP4_POINTS),
}


def code_range(scheme: QuantScheme) -> tuple[float, float]:
    """The closed range of ``scheme``'s integer codes."""
    if scheme.kind is SchemeKind.UNSIGNED_ABSMAX:
        return 0.0, float(2**scheme.bits - 1)
    lattice = LATTICES[scheme.kind]
    return float(lattice.lo), float(lattice.hi)


def lattice_codes(q: QuantizedTensor) -> tuple[np.ndarray, np.ndarray]:
    """A signed QuantizedTensor's codes as float32 lattice points (only fp4
    maps them, onto the doubled E2M1 grid), and the kind's divisor."""
    lattice = LATTICES[q.scheme.kind]
    if lattice.points is None:
        return q.codes, lattice.divisor
    return lattice.points[np.asarray(q.codes).astype(np.intp) - int(lattice.lo)], lattice.divisor


def _group_absmax(x: np.ndarray, granularity: Granularity) -> np.ndarray:
    # max |x| over each scaling group
    axis = None if granularity is Granularity.PER_TENSOR else -1
    return np.asarray(np.maximum.reduce(np.abs(x), axis=axis))


def _group_absmean(x: np.ndarray, granularity: Granularity) -> np.ndarray:
    # mean |x| over each scaling group: the sum over n, which is what np.mean
    # computes, bit for bit
    if granularity is Granularity.PER_TENSOR:
        return np.asarray(np.add.reduce(np.abs(x), axis=None) / x.size)
    return np.add.reduce(np.abs(x), axis=-1) / x.shape[-1]


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
    safe = np.where(scales > _ZERO, scales, _ONE)
    # t = x / scale on the tie grid, counted in grid steps: an integer in
    # [-TIE_GRID, TIE_GRID] (asarray: a 0-d quotient is a scalar)
    steps = np.asarray(x / safe)
    steps *= _TIE_GRID
    np.rint(steps, out=steps)
    # (t + 1) / 2 * levels, exact and in [0, levels], then rounded half up
    steps += _TIE_GRID
    steps *= levels / (2.0 * TIE_GRID)
    steps += _HALF
    return np.floor(steps, out=steps)


def unsigned_values(codes: np.ndarray, scales: np.ndarray, levels) -> np.ndarray:
    """The unsigned dequantizer: codes in [0, levels] onto [-scale, scale].
    ``scales`` and ``levels`` broadcast against ``codes``, as in
    ``unsigned_codes``."""
    # (2 * (codes / levels) - 1) * scales, in the one fresh array the
    # division makes
    out = codes / levels
    out *= _TWO
    out -= _ONE
    out *= scales
    return out


def quantize(x, scheme: QuantScheme) -> QuantizedTensor:
    """Quantize a tensor under ``scheme`` (see ``SchemeKind`` for each kind).

    The codes are integer-valued float32 for every scheme (no code exceeds
    255 in magnitude, so float32 holds each exactly): projections multiply
    them directly, which keeps every contraction exact integer arithmetic.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("input is empty")
    granularity = scheme.granularity
    if granularity is Granularity.PER_TOKEN and arr.ndim == 0:
        raise ValueError("a per-token scheme needs a feature axis; quantize a 0-d tensor "
                         "per tensor (--per-tensor)")
    kind = scheme.kind
    if kind is SchemeKind.FP4_MINMAX:
        # One pass of s -> (6s)/6 makes the scale stable under requantization:
        # the map is a projection in float64, so fake_quant stays idempotent
        # even when 6*s rounds.
        scales = (6.0 * (_group_absmax(arr, granularity) / 6.0)) / 6.0
        mag = np.abs(arr) / _expand(np.where(scales > 0.0, scales, 1.0), granularity)
        # side='right' sends exact midpoints to the larger magnitude, matching
        # round-half-away elsewhere. Not np.sign: a NaN takes a finite code,
        # which the consumers index by, and the group's NaN scale carries it.
        codes = np.where(arr < 0.0, -1.0, 1.0) * np.searchsorted(_E2M1_MIDPOINTS, mag, side="right")
    elif kind is SchemeKind.UNSIGNED_ABSMAX:
        scales = _group_absmax(arr, granularity)
        codes = unsigned_codes(arr, _expand(scales, granularity), float(2**scheme.bits - 1))
    else:
        # ternary, int8 and int4 invert dequantize's (point / divisor) * scale:
        # divisor * x / scale in one fresh array (asarray: a 0-d result is a
        # scalar), rounded half away from zero and clipped in place
        scales = (_group_absmax if kind is SchemeKind.INT8_ABSMAX else _group_absmean)(arr, granularity)
        if kind is SchemeKind.INT4_ABSMEAN and scheme.multiplier != 1.0:  # 1.0 * s is s, bit for bit
            scales = scheme.multiplier * scales
        lattice = LATTICES[kind]
        t = np.asarray(lattice.divisor * arr)
        t /= _expand(scales, granularity) + _EPS
        t += np.copysign(_HALF, t)
        np.trunc(t, out=t)
        np.maximum(t, lattice.lo, out=t)
        codes = np.minimum(t, lattice.hi, out=t)
    return QuantizedTensor(codes.astype(np.float32), np.asarray(scales), scheme)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Map a QuantizedTensor's codes back to real values: (lattice point /
    divisor) * scale for the signed kinds (``lattice_codes``), and
    ``unsigned_values`` for the unsigned family.

    Division-before-scale ordering is deliberate: the extreme code divides to
    exactly 1.0, so requantizing a dequantized tensor recovers the same group
    scale bit-exactly.
    """
    s = _expand(np.asarray(q.scales, dtype=np.float64), q.scheme.granularity)
    if q.scheme.kind is SchemeKind.UNSIGNED_ABSMAX:
        return unsigned_values(np.asarray(q.codes, dtype=np.float64), s, float(2**q.scheme.bits - 1))
    points, divisor = lattice_codes(q)
    # one fresh float64 array (the widening is exact), scaled in place
    out = np.divide(points, divisor, dtype=np.float64)
    out *= s
    return out


def fake_quant(x, scheme: QuantScheme) -> np.ndarray:
    """dequantize(quantize(x, scheme)): the value every quantized operand
    takes inside a forward pass."""
    return dequantize(quantize(x, scheme))
