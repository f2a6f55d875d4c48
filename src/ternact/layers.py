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

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .quantcore import QuantScheme, fake_quant, operand, unsigned_codes, unsigned_values
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
    projections read those codes. The gated product is one tape op,
    ``ad.glu``. ``activation`` admits "silu" for the gating-function
    ablation.
    """
    x = ad.as_var(x)
    xin = None
    scheme = up_layer.input_scheme
    same = scheme is gate_layer.input_scheme or scheme == gate_layer.input_scheme
    if scheme is not None and same and up_layer.k_fraction == gate_layer.k_fraction:
        xin = ad.input_codes(x.value, scheme, up_layer.k_fraction)
    up = bitlinear_forward(up_layer, x, xin)
    gate = bitlinear_forward(gate_layer, x, xin)
    if _PROBE is not None:
        _PROBE.record_activation(ad.gated_activation(gate.value, activation))
    return ad.glu(up, gate, activation)


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
    act = ad.gated_activation(gate, "relu2")  # the activation the dense op applies
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


def kv_fake_quant_values(kv: np.ndarray, kv_bits: int, cache: KvCache | None = None) -> np.ndarray:
    """Fake-quantize K and V stacked as (2, ..., T, head_dim), per head per
    position: each position reads back as ``fake_quant`` under
    ``QuantScheme.unsigned(kv_code_bits(position, kv_bits))`` at its
    absolute position, and kv_bits=8 reads back raw. A NaN or inf makes its
    group non-finite.

    The values are stored at the next T positions of ``cache``, of the same
    kv_bits, or of a fresh ``KvCache(kv_bits, T)`` (positions from 0), and
    the result is every stored position, ``cache.read()``: the cache is the
    one K/V quantizer.
    """
    if cache is None:
        cache = KvCache(kv_bits, np.shape(kv)[-2])
    elif cache.kv_bits != kv_bits:
        raise ValueError(f"cache stores kv_bits={cache.kv_bits}, the fake-quant runs at {kv_bits}")
    cache.store(kv)
    return cache.read()


class KvCache:
    """Append-only store of quantized K/V heads for up to ``capacity``
    positions, read back whole by attention.

    K and V are stacked in one buffer, (2, ..., n_heads, capacity, head_dim),
    of uint8 codes beside one scale per head per position; kv_bits=8
    disables quantization and stores raw values. The level count of each
    position (2^bits - 1 at ``kv_code_bits``) is one table built here, and
    the buffers are allocated once, at the first store, which fixes the
    head shape. ``store`` is the one store path (``kv_fake_quant_values``
    calls it): it quantizes new positions once and writes their codes and
    scales in place after the stored ones. ``read`` is the one read path:
    it dequantizes the stored prefix in one call. A NaN or inf entry leaves
    its head-position group reading back non-finite.
    """

    def __init__(self, kv_bits: int, capacity: int):
        if kv_bits not in VALID_KV_BITS:
            raise ValueError(f"kv_bits must be one of {VALID_KV_BITS}, got {kv_bits}")
        if capacity < 1:
            raise ValueError(f"a KV cache holds at least one position, got capacity {capacity}")
        self.kv_bits = kv_bits
        self.capacity = capacity
        self._len = 0
        self._kv: np.ndarray | None = None
        self._scales: np.ndarray | None = None
        if kv_bits != 8:
            # (capacity, 1): broadcasts against (..., T, head_dim) codes
            self._levels = np.full((capacity, 1), 2.0**kv_bits - 1.0)
            self._levels[0] = 2.0 ** kv_code_bits(0, kv_bits) - 1.0

    def __len__(self) -> int:
        return self._len

    def store(self, kv: np.ndarray) -> None:
        """Store K and V stacked as (2, ..., n_heads, T, head_dim) at the next
        T positions, quantized once, each position at ``kv_code_bits``."""
        kv = np.asarray(kv, dtype=np.float64)
        if kv.ndim < 3 or kv.shape[0] != 2:
            raise ValueError(f"K and V must be stacked on a leading axis of 2, got shape {kv.shape}")
        start, end = self._len, self._len + kv.shape[-2]
        if end > self.capacity:
            raise ValueError(f"{kv.shape[-2]} positions after {start} exceed the cache's capacity of {self.capacity}")
        if self._kv is None:
            shape = (*kv.shape[:-2], self.capacity, kv.shape[-1])
            self._kv = np.empty(shape, dtype=np.float64 if self.kv_bits == 8 else np.uint8)
            if self.kv_bits != 8:
                self._scales = np.empty((*shape[:-1], 1))
        elif kv.shape[:-2] + kv.shape[-1:] != self._kv.shape[:-2] + self._kv.shape[-1:]:
            cached = (*self._kv.shape[1:-2], self._len, self._kv.shape[-1])
            raise ValueError(f"heads of shape {kv.shape[1:]} do not match the cached {cached}")
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

    def read(self) -> np.ndarray:
        """Dequantized keys and values in one call, stacked as (2, ...,
        n_heads, T, head_dim); at kv_bits=8 a read-only view of the stored
        values, which later stores never write."""
        if not self._len:
            raise ValueError("empty cache")
        n = self._len
        if self.kv_bits == 8:
            kv = self._kv[..., :n, :]
            kv.flags.writeable = False
            return kv
        return unsigned_values(self._kv[..., :n, :], self._scales[..., :n, :], self._levels[:n])


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
    qkv = bitlinear_forward(qkv_layer, x)
    return bitlinear_forward(out_layer, attention_core(qkv, n_heads, kv_bits, q_bits, cache))


@functools.cache
def _score_scale(head_dim: int) -> np.ndarray:
    # 1/sqrt(head_dim) as a 0-d operand (quantcore.operand)
    return operand(1.0 / math.sqrt(head_dim))


def _attend(qkv: np.ndarray, n_heads: int, kv_bits: int, q_bits: int, past: int, cache: KvCache | None):
    """Q, K, V and the softmax p of a (b, t, 3h) qkv output whose positions
    follow ``past`` ones: what the attention core's forward computes and its
    adjoint rebuilds, with the same ops."""
    b, t, h3 = qkv.shape
    hd = h3 // (3 * n_heads)
    heads = qkv.reshape(b, t, 3, n_heads, hd).transpose(2, 0, 3, 1, 4)
    # rope reads a contiguous copy: on the strided head view its passes cost
    # more than the copy
    qk = ad.rope(np.ascontiguousarray(heads[:2]), range(past, past + t))
    q, k, v = qk[0], qk[1], heads[2]
    if q_bits == 4:
        q = fake_quant(q, _Q4)
    if kv_bits != 8 or cache is not None:  # uncached kv8 K/V are used as they are
        k, v = kv_fake_quant_values(np.concatenate((qk[1:], heads[2:])), kv_bits, cache)
    scores = q @ k.swapaxes(-1, -2)
    scores *= _score_scale(hd)
    if t > 1:  # one query's mask is all zeros
        scores += causal_mask(t, past)
    return q, k, v, ad.softmax(scores)


def attention_core(qkv: Var, n_heads: int, kv_bits: int, q_bits: int, cache: KvCache | None = None) -> Var:
    """One tape op from the (b, t, 3h) query/key/value projection to the
    (b, t, h) context.

    Q and K rotate at their absolute positions; Q is fake-quantized when
    q_bits=4. K and V are quantized once, by ``kv_fake_quant_values``: into
    ``cache`` when there is one (at kv_bits=8 stored raw), so a decode step
    computes one position and reads every key and value back from the
    cache, else below kv_bits=8 into a fresh cache of this call's
    positions. The adjoint keeps only the qkv output, as its code sums
    where it has them (``Var.kept``), and rebuilds Q, K, V and the softmax
    from it with the forward's ops (``_attend``). It passes the gradient
    straight through each quantizer; the rest is the exact adjoint of the
    scores, softmax and context products, one numpy expression per step.
    """
    if cache is not None and ad.grad_enabled():
        raise ValueError("a KV cache serves inference only; run the forward under no_grad")
    b, t, h3 = qkv.value.shape
    h = h3 // 3
    hd = h // n_heads
    past = 0 if cache is None else len(cache)
    _, _, v, p = _attend(qkv.value, n_heads, kv_bits, q_bits, past, cache)
    # the context products land in (b, t, heads, head_dim) order, so the
    # (b, t, h) context is a view, not a transposed copy
    ctx = np.empty((b, t, n_heads, hd))
    np.matmul(p, v, out=ctx.transpose(0, 2, 1, 3))
    ctx = ctx.reshape(b, t, h)
    kept = qkv.kept()

    def backward(g):
        # the tape runs no cache, so the rebuild starts at position 0
        q, k, v, p = _attend(ad.rebuild(kept), n_heads, kv_bits, q_bits, 0, None)
        go = g.reshape(b, t, n_heads, hd).transpose(0, 2, 1, 3)
        dv = p.swapaxes(-1, -2) @ go
        # ds = p * (dp - sum(dp * p)) * scale, dp = go @ v^T, in dp's buffer
        ds = go @ v.swapaxes(-1, -2)
        ds -= np.sum(ds * p, axis=-1, keepdims=True)
        ds *= p
        ds *= _score_scale(hd)
        del v, p  # each rebuilt array goes once the last product reading it ran
        dqk = np.empty((2, *dv.shape))
        np.matmul(ds, k, out=dqk[0])
        np.matmul(ds.swapaxes(-1, -2), q, out=dqk[1])
        del q, k, ds
        dqk = ad.rope_adjoint(dqk, range(t))
        # adding 0.0 maps -0.0 to 0.0, the bits a sum of zero-padded q, k
        # and v gradients would have
        dqkv = np.empty((b, t, 3, n_heads, hd))
        dheads = dqkv.transpose(2, 0, 3, 1, 4)
        np.add(dqk, 0.0, out=dheads[:2])
        np.add(dv, 0.0, out=dheads[2])
        return (dqkv.reshape(b, t, h3),)

    return Var(ctx, (qkv,), backward)
