"""Transformer sub-layers: ternary-weight projections with per-site input
schemes, the squared-ReLU gated FFN, and attention with post-rotation low-bit
key/value handling.

Every projection multiplies ternary weight codes (cached while gradients are
off, see ``autodiff.weight_codes``); what varies by site and stage is only
the input treatment (which quantizer, and whether a top-K mask is composed
in front of the attention output projection). The key/value path quantizes
per head per position after the rotary embedding, keeping absolute position
0 at 4 bits when the rest of the cache runs at 3.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .quantcore import QuantScheme, fake_quant, unsigned_codes, unsigned_values
from .sparsify import gate_active_channels, measure_sparsity

VALID_KV_BITS = (3, 4, 8)
VALID_Q_BITS = (4, 16)
# the query quantizer under q_bits=4
_Q4 = QuantScheme.unsigned(4)


def check_bit_widths(kv_bits: int, q_bits: int) -> None:
    """Reject a key/value or query bit width the attention path lacks."""
    for name, bits, valid in (("kv_bits", kv_bits, VALID_KV_BITS), ("q_bits", q_bits, VALID_Q_BITS)):
        if bits not in valid:
            raise ValueError(f"{name} must be one of {valid}, got {bits}")


class Site(str, Enum):
    QKV = "qkv"
    ATTN_OUT = "attn_out"
    GATE = "gate"
    UP = "up"
    DOWN = "down"


@dataclass
class BitLinearLayer:
    """A projection with full-precision latent weights and per-site input
    treatment. ``input_scheme``/``k_fraction`` are rebound on stage switches;
    the latent weights are never touched by rebinding."""

    latent_weights: Var
    site: Site
    input_scheme: QuantScheme | None = None
    k_fraction: float | None = None
    weight_scheme: QuantScheme | None = field(default_factory=QuantScheme.ternary)

    def __post_init__(self):
        if self.latent_weights.value.ndim != 2:
            raise ValueError("latent weights must be a 2-D out x in matrix")


class Probe:
    """What forwards run inside ``probing`` measured, one list entry per
    projection call in call order, so a forward's entries are in block order.

    ``sparsity[site]`` is the zero fraction of the input each matmul
    consumed. ``gate_activation`` is the zero fraction of the gated FFN
    activation, and ``up_effective`` the up projection's compute sparsity
    under gate-first evaluation: a multiply is skipped when its input entry
    is zero or the gate killed its output channel, composed exactly per token
    and averaged over tokens. ``inputs[site]`` holds the pre-quantization
    input rows of each site named in ``keep_inputs``.
    """

    def __init__(self, keep_inputs=()):
        self.sparsity: dict[Site, list[float]] = {site: [] for site in Site}
        self.gate_activation: list[float] = []
        self.up_effective: list[float] = []
        self.inputs: dict[Site, list[np.ndarray]] = {Site(site): [] for site in keep_inputs}
        self._up_zero_rows = None

    def record_input(self, site: Site, xv: np.ndarray, consumed: np.ndarray) -> None:
        self.sparsity[site].append(measure_sparsity(consumed))
        if site is Site.UP:
            self._up_zero_rows = np.mean(consumed == 0.0, axis=-1)
        if site in self.inputs:
            self.inputs[site].append(xv.reshape(-1, xv.shape[-1]).copy())

    def record_activation(self, act: np.ndarray) -> None:
        """Record the gated activation of the FFN whose up input came last."""
        act_zeros = np.mean(act == 0.0, axis=-1)
        self.gate_activation.append(float(np.mean(act_zeros)))
        kept = (1.0 - self._up_zero_rows) * (1.0 - act_zeros)
        self.up_effective.append(float(np.mean(1.0 - kept)))


_PROBE: Probe | None = None


@contextmanager
def probing(probe: Probe):
    """Record every projection run in the enclosed block into ``probe``."""
    global _PROBE
    prev = _PROBE
    _PROBE = probe
    try:
        yield probe
    finally:
        _PROBE = prev


def bitlinear_forward(layer: BitLinearLayer, x, xin: ad.InputCodes | None = None) -> Var:
    """Project x through the layer's quantized weight and input schemes.

    ``xin`` is x already quantized under the layer's input scheme and k, for
    callers that feed one input to several projections; None quantizes here.
    """
    x = ad.as_var(x)
    if xin is None and layer.input_scheme is not None:
        xin = ad.input_codes(x.value, layer.input_scheme, layer.k_fraction)
    elif layer.input_scheme is None and layer.k_fraction is not None:
        raise ValueError("top-K masking requires a quantizing input scheme")
    if _PROBE is not None:
        _PROBE.record_input(layer.site, x.value, x.value if xin is None else xin.values())
    return ad.bitlinear(x, layer.latent_weights, xin, layer.weight_scheme)


def relu2glu(x, up_layer: BitLinearLayer, gate_layer: BitLinearLayer, activation: str = "relu2") -> Var:
    """(x @ W_up^T) gated by ReLU^2(x @ W_gate^T), both bitlinear projections.

    When both take the same input scheme and k, x is quantized once and both
    projections read those codes. ``activation`` admits "silu" for the
    gating-function ablation.
    """
    x = ad.as_var(x)
    xin = None
    scheme = up_layer.input_scheme
    same = scheme is gate_layer.input_scheme or scheme == gate_layer.input_scheme
    if scheme is not None and same and up_layer.k_fraction == gate_layer.k_fraction:
        xin = ad.input_codes(x.value, scheme, up_layer.k_fraction)
    up = bitlinear_forward(up_layer, x, xin)
    gate = bitlinear_forward(gate_layer, x, xin)
    act = ad.relu2(gate) if activation == "relu2" else ad.silu(gate)
    if _PROBE is not None:
        _PROBE.record_activation(act.value)
    return ad.mul(up, act)


def relu2glu_gate_first(x: np.ndarray, up_layer: BitLinearLayer, gate_layer: BitLinearLayer) -> np.ndarray:
    """Inference path: compute the gate, then the up projection only on the
    channels the gate left active. Bit-identical to the dense path because
    the projection is an integer-code matmul rescaled afterwards, so each
    output element is the same exact sum whether or not its column neighbors
    are computed.
    """
    if up_layer.input_scheme is None or up_layer.weight_scheme is None:
        raise ValueError("gate-first evaluation requires quantized input and weights")
    x = np.asarray(x, dtype=np.float64)
    with ad.no_grad():
        gate = bitlinear_forward(gate_layer, x).value
        qw = ad.weight_codes(up_layer.latent_weights, up_layer.weight_scheme)
    r = np.maximum(gate, 0.0)
    act = r * r  # same multiply the dense activation op performs
    lead = x.shape[:-1]
    flat_x = x.reshape(-1, x.shape[-1])
    flat_act = act.reshape(-1, act.shape[-1])

    xin = ad.input_codes(flat_x, up_layer.input_scheme, up_layer.k_fraction)
    walpha = float(qw.scales)

    out = np.zeros_like(flat_act)
    for row, active in enumerate(gate_active_channels(flat_act)):
        if active.size == 0:
            continue
        partial = ad.code_matmul(xin.codes[row], qw.codes[active])
        out[row, active] = partial * xin.row_factor[row] * walpha * flat_act[row, active]
    return out.reshape(*lead, -1)


def ffn_forward(x, up_layer: BitLinearLayer, gate_layer: BitLinearLayer, down_layer: BitLinearLayer,
                activation: str = "relu2") -> Var:
    """Gated FFN; the down projection's input scheme sees the naturally
    sparse gated activations."""
    h = relu2glu(x, up_layer, gate_layer, activation=activation)
    return bitlinear_forward(down_layer, h)


def kv_code_bits(position: int, kv_bits: int) -> int:
    """Bits a key/value entry at an absolute position is stored with: the
    first position keeps 4 bits under a 3-bit cache; 8 means raw values."""
    return 4 if position == 0 and kv_bits == 3 else kv_bits


def kv_levels(positions: np.ndarray, kv_bits: int) -> np.ndarray:
    """Level count 2^bits - 1 of each absolute position at ``kv_code_bits``,
    shaped (T, 1) to broadcast against (..., T, head_dim) codes. Only a 3-
    or 4-bit cache quantizes; kv_bits=8 is raw and has no levels."""
    if kv_bits not in (3, 4):
        raise ValueError(f"kv quantization expects 3 or 4 bits, got {kv_bits}")
    bos = np.asarray(positions) == 0
    return np.where(bos, 2.0 ** kv_code_bits(0, kv_bits) - 1.0, 2.0**kv_bits - 1.0)[:, None]


def kv_codes(values: np.ndarray, kv_bits: int, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quantize (..., T, head_dim) K or V heads at absolute ``positions``,
    each position at ``kv_code_bits``, per head per position, in one pass.

    Returns the codes and the scales as (..., T, 1); with ``kv_levels`` they
    dequantize through ``unsigned_values``. Each position's codes equal
    ``quantize`` under ``QuantScheme.unsigned(kv_code_bits(position,
    kv_bits))``. The attention fake-quant and the cache store quantize
    through the same core, with levels they hold. kv_bits=8 is raw and
    raises ValueError. Like ``quantize``, a pure map: a NaN or inf makes its
    group non-finite.
    """
    values = np.asarray(values, dtype=np.float64)
    scales = np.maximum.reduce(np.abs(values), axis=-1, keepdims=True)
    return unsigned_codes(values, scales, kv_levels(positions, kv_bits)), scales


def kv_fake_quant_values(values: np.ndarray, kv_bits: int, positions, cache: KvCache | None = None) -> np.ndarray:
    """Fake-quantize (..., T, head_dim) per head per position at
    ``kv_code_bits`` (see ``kv_codes``).

    With a ``cache`` of the same kv_bits, ``values`` are K and V stacked as
    (2, ..., n_heads, T, head_dim) at ``positions``, which must be the next T
    positions the cache stores: they are quantized once, straight into the
    cache (``KvCache.store``; kv_bits=8 stores them raw), and the result is
    every stored position, read back as ``KvCache.read`` does. A cached
    forward stores its new K/V only here.
    """
    if cache is None:
        return unsigned_values(*kv_codes(values, kv_bits, positions), kv_levels(positions, kv_bits))
    if cache.kv_bits != kv_bits:
        raise ValueError(f"cache stores kv_bits={cache.kv_bits}, the fake-quant runs at {kv_bits}")
    start = len(cache)
    if list(positions) != list(range(start, start + np.asarray(values).shape[-2])):
        raise ValueError(f"positions {list(positions)} are not the next ones of a cache holding {start}")
    cache.store(values)
    return cache.read()


class KvCache:
    """Append-only store of quantized K/V heads, read back whole by attention
    during incremental decode.

    K and V are stacked in one buffer, (2, ..., n_heads, capacity, head_dim),
    of uint8 codes beside one scale per head per position and one level
    count per position; kv_bits=8 disables quantization and stores raw
    values. ``store`` is the one store path (``append``, ``extend`` and
    ``kv_fake_quant_values(..., cache)`` call it): it quantizes new
    positions once and writes their codes and scales in place after the
    stored ones; a full buffer is copied into one of twice the capacity. A
    read dequantizes the stored prefix in one call, each position at
    ``kv_code_bits``, so it is bit-equal to ``kv_fake_quant_values`` of the
    same positions. A NaN or inf entry leaves its head-position group
    reading back non-finite.
    """

    # positions the first buffer holds, at least
    MIN_CAPACITY = 16

    def __init__(self, kv_bits: int = 8):
        if kv_bits not in VALID_KV_BITS:
            raise ValueError(f"kv_bits must be one of {VALID_KV_BITS}, got {kv_bits}")
        self.kv_bits = kv_bits
        self._len = 0
        self._kv: np.ndarray | None = None
        self._scales: np.ndarray | None = None
        self._levels: np.ndarray | None = None

    def __len__(self) -> int:
        return self._len

    def append(self, k_heads: np.ndarray, v_heads: np.ndarray) -> None:
        """Store one position's (..., n_heads, head_dim) K and V."""
        self.extend(np.asarray(k_heads)[..., None, :], np.asarray(v_heads)[..., None, :])

    def extend(self, k: np.ndarray, v: np.ndarray) -> None:
        """Store (..., n_heads, T, head_dim) K and V at the next T positions."""
        k, v = np.asarray(k), np.asarray(v)
        if k.shape != v.shape:
            raise ValueError("K and V head shapes differ")
        self.store(np.stack((k, v)))

    def store(self, kv: np.ndarray) -> None:
        """Store K and V stacked as (2, ..., n_heads, T, head_dim) at the next
        T positions, quantized once, each position at ``kv_code_bits``."""
        kv = np.asarray(kv, dtype=np.float64)
        if kv.ndim < 3 or kv.shape[0] != 2:
            raise ValueError(f"K and V must be stacked on a leading axis of 2, got shape {kv.shape}")
        if self._kv is not None and kv.shape[:-2] + kv.shape[-1:] != self._kv.shape[:-2] + self._kv.shape[-1:]:
            cached = (*self._kv.shape[1:-2], self._len, self._kv.shape[-1])
            raise ValueError(f"heads of shape {kv.shape[1:]} do not match the cached {cached}")
        start, end = self._len, self._len + kv.shape[-2]
        if self._kv is None or end > self._kv.shape[-2]:
            self._grow(kv.shape[1:], end)
        if self.kv_bits == 8:
            self._kv[..., start:end, :] = kv
        else:
            scales = self._scales[..., start:end, :]
            np.maximum.reduce(np.abs(kv), axis=-1, keepdims=True, out=scales)
            # a NaN code is stored as 0: uint8 has no NaN, and the group's
            # non-finite scale still reads it back non-finite
            codes = unsigned_codes(kv, scales, self._levels[start:end])
            np.fmax(codes, 0.0, out=self._kv[..., start:end, :], casting="unsafe")
        self._len = end

    def _grow(self, shape: tuple[int, ...], end: int) -> None:
        # move the stored positions into buffers of at least twice the room
        capacity = max(end, self.MIN_CAPACITY, 0 if self._kv is None else 2 * self._kv.shape[-2])
        lead = (2, *shape[:-2], capacity)
        self._kv = self._moved(self._kv, lead + shape[-1:], np.float64 if self.kv_bits == 8 else np.uint8)
        if self.kv_bits != 8:
            self._scales = self._moved(self._scales, lead + (1,), np.float64)
            self._levels = kv_levels(np.arange(capacity), self.kv_bits)

    def _moved(self, old: np.ndarray | None, shape: tuple[int, ...], dtype) -> np.ndarray:
        new = np.empty(shape, dtype=dtype)
        if old is not None:
            new[..., : self._len, :] = old[..., : self._len, :]
        return new

    def read(self) -> np.ndarray:
        """Dequantized keys and values in one call, stacked as (2, ...,
        n_heads, T, head_dim); at kv_bits=8 a read-only view of the stored
        values, which later appends never write."""
        if not self._len:
            raise ValueError("empty cache")
        n = self._len
        if self.kv_bits == 8:
            kv = self._kv[..., :n, :]
            kv.flags.writeable = False
            return kv
        return unsigned_values(self._kv[..., :n, :], self._scales[..., :n, :], self._levels[:n])

    def keys(self) -> np.ndarray:
        """Dequantized keys, shape (..., n_heads, T, head_dim)."""
        return self.read()[0]

    def values(self) -> np.ndarray:
        """Dequantized values, as ``keys``."""
        return self.read()[1]

    def stored_code_bits(self, position: int) -> int:
        """Bits the entries stored at ``position`` were quantized with; 8
        means raw."""
        if not 0 <= position < len(self):
            raise IndexError(f"position {position} is not stored (length {len(self)})")
        return kv_code_bits(position, self.kv_bits)


def causal_mask(t: int, past: int = 0) -> np.ndarray:
    """Additive (t, past + t) mask for t queries that follow ``past`` cached
    positions: 0 where the key is not later than the query, a large negative
    elsewhere."""
    return np.triu(np.full((t, past + t), -1e30), k=past + 1)


def attention_forward(
    x,
    qkv_layer: BitLinearLayer,
    out_layer: BitLinearLayer,
    n_heads: int,
    kv_bits: int = 8,
    q_bits: int = 16,
    cache: KvCache | None = None,
) -> Var:
    """Causal multi-head attention with quantized projections and
    post-rotation K/V treatment: the qkv projection, ``attention_core``, and
    the output projection.

    With a ``cache`` (inference only), x holds the positions that follow the
    cached ones; see ``attention_core``."""
    x = ad.as_var(x)
    h = x.value.shape[-1]
    if h % n_heads != 0:
        raise ValueError(f"hidden size {h} not divisible by {n_heads} heads")
    check_bit_widths(kv_bits, q_bits)
    if cache is not None and ad.grad_enabled():
        raise ValueError("a KV cache serves inference only; run the forward under no_grad")
    qkv = bitlinear_forward(qkv_layer, x)
    return bitlinear_forward(out_layer, attention_core(qkv, n_heads, kv_bits, q_bits, cache))


def attention_core(qkv: Var, n_heads: int, kv_bits: int, q_bits: int, cache: KvCache | None = None) -> Var:
    """One tape op from the (b, t, 3h) query/key/value projection to the
    (b, t, h) context.

    Q and K rotate at their absolute positions; Q is fake-quantized when
    q_bits=4 and K/V below kv_bits=8. With a ``cache``, the new K/V are
    quantized once, straight into the cache, by ``kv_fake_quant_values``
    (at kv_bits=8 stored raw), and every key and value is read back from
    the cache, so a decode step computes one position. The adjoint passes
    the gradient straight through each quantizer; the rest is the exact
    adjoint of the scores, softmax and context products, one numpy
    expression per step.
    """
    b, t, h3 = qkv.value.shape
    h = h3 // 3
    hd = h // n_heads
    past = 0 if cache is None else len(cache)
    positions = range(past, past + t)
    scale = 1.0 / math.sqrt(hd)

    heads = qkv.value.reshape(b, t, 3, n_heads, hd).transpose(2, 0, 3, 1, 4)
    qk = ad.rope(heads[:2], positions)
    q, k, v = qk[0], qk[1], heads[2]
    if q_bits == 4:
        q = fake_quant(q, _Q4)
    if kv_bits != 8 or cache is not None:
        # at kv8 without a cache K and V stay views, which the adjoint holds
        # without a copy
        k, v = kv_fake_quant_values(np.concatenate((qk[1:], heads[2:])), kv_bits, positions, cache)

    scores = (q @ k.swapaxes(-1, -2)) * scale
    if t > 1:  # one query's mask is all zeros
        scores = scores + causal_mask(t, past)
    p = ad.softmax(scores)
    ctx = (p @ v).transpose(0, 2, 1, 3).reshape(b, t, h)

    def backward(g):
        go = g.reshape(b, t, n_heads, hd).transpose(0, 2, 1, 3)
        dp = go @ v.swapaxes(-1, -2)
        dv = p.swapaxes(-1, -2) @ go
        ds = p * (dp - np.sum(dp * p, axis=-1, keepdims=True))
        ds = ds * scale
        dq = ds @ k
        dk = (q.swapaxes(-1, -2) @ ds).swapaxes(-1, -2)
        # adding into zeros maps -0.0 to 0.0, the bits a sum of zero-padded
        # q, k and v gradients would have
        dqkv = np.zeros((b, t, 3, n_heads, hd))
        dheads = dqkv.transpose(2, 0, 3, 1, 4)
        dheads[:2] += ad.rope_adjoint(np.stack((dq, dk)), positions)
        dheads[2] += dv
        return (dqkv.reshape(b, t, h3),)

    return Var(ctx, (qkv,), backward)
