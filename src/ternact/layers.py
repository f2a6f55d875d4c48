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

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .quantcore import QuantScheme, dequantize, fake_quant, quantize
from .sparsify import gate_active_channels

VALID_KV_BITS = (3, 4, 8)
VALID_Q_BITS = (4, 16)


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
    mask_in_adjoint: bool = True

    def __post_init__(self):
        if self.latent_weights.value.ndim != 2:
            raise ValueError("latent weights must be a 2-D out x in matrix")

    @property
    def out_features(self) -> int:
        return self.latent_weights.value.shape[0]

    @property
    def in_features(self) -> int:
        return self.latent_weights.value.shape[1]


@dataclass(frozen=True)
class RopeParams:
    head_dim: int
    base: float = 10000.0

    def __post_init__(self):
        if self.head_dim % 2 != 0:
            raise ValueError(f"head_dim must be even, got {self.head_dim}")


def bitlinear_forward(layer: BitLinearLayer, x, stats: dict | None = None, stats_key: str | None = None) -> Var:
    """Project x through the layer's quantized weight and input schemes."""
    return ad.bitlinear(
        ad.as_var(x),
        layer.latent_weights,
        layer.input_scheme,
        k_fraction=layer.k_fraction,
        weight_scheme=layer.weight_scheme,
        mask_in_adjoint=layer.mask_in_adjoint,
        stats=stats,
        stats_key=stats_key if stats_key is not None else layer.site.value,
    )


def relu2glu(x, up_layer: BitLinearLayer, gate_layer: BitLinearLayer,
             activation: str = "relu2", stats: dict | None = None) -> Var:
    """(x @ W_up^T) gated by ReLU^2(x @ W_gate^T), both bitlinear projections.

    ``activation`` admits "silu" for the gating-function ablation.
    """
    x = ad.as_var(x)
    up = bitlinear_forward(up_layer, x, stats=stats)
    gate = bitlinear_forward(gate_layer, x, stats=stats)
    act = ad.relu2(gate) if activation == "relu2" else ad.silu(gate)
    if stats is not None:
        # effective up-projection sparsity: a multiply is skipped when the
        # input entry is zero or the gate killed the output channel, so the
        # composition is exact per token and averaged over tokens
        consumed = x.value
        if up_layer.input_scheme is not None:
            consumed = ad.input_codes(consumed, up_layer.input_scheme, up_layer.k_fraction).values()
        in_zeros = np.mean(consumed == 0.0, axis=-1)
        act_zeros = np.mean(act.value == 0.0, axis=-1)
        stats["gate_activation"] = float(np.mean(act_zeros))
        stats["up_effective"] = float(np.mean(1.0 - (1.0 - in_zeros) * (1.0 - act_zeros)))
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
                activation: str = "relu2", stats: dict | None = None) -> Var:
    """Gated FFN; the down projection's input scheme sees (and measures) the
    naturally sparse gated activations."""
    h = relu2glu(x, up_layer, gate_layer, activation=activation, stats=stats)
    return bitlinear_forward(down_layer, h, stats=stats)


def _unsigned_per_group(values: np.ndarray, bits: int) -> np.ndarray:
    return fake_quant(values, QuantScheme.unsigned(bits))


def kv_fake_quant_values(values: np.ndarray, kv_bits: int, positions: np.ndarray) -> np.ndarray:
    """Fake-quantize (..., T, head_dim) per head per position.

    kv_bits=8 means off (the caller should not even get here); at 3 bits any
    entry at absolute position 0 is kept at 4 bits instead.
    """
    if kv_bits not in (3, 4):
        raise ValueError(f"kv fake-quant expects 3 or 4 bits, got {kv_bits}")
    out = _unsigned_per_group(values, kv_bits)
    if kv_bits == 3:
        bos = np.asarray(positions) == 0
        if bos.any():
            out[..., bos, :] = _unsigned_per_group(values[..., bos, :], 4)
    return out


class KvCache:
    """Append-only per-position store of quantized K/V heads.

    Single writer appends; readers may hold any prefix snapshot. Scales are
    kept per head per position. kv_bits=8 disables quantization and stores
    raw values.
    """

    def __init__(self, kv_bits: int = 8, q_bits: int = 16):
        if kv_bits not in VALID_KV_BITS:
            raise ValueError(f"kv_bits must be one of {VALID_KV_BITS}, got {kv_bits}")
        if q_bits not in VALID_Q_BITS:
            raise ValueError(f"q_bits must be one of {VALID_Q_BITS}, got {q_bits}")
        self.kv_bits = kv_bits
        self.q_bits = q_bits
        self.bos_bits = 4 if kv_bits == 3 else kv_bits
        self._k: list = []
        self._v: list = []

    def __len__(self) -> int:
        return len(self._k)

    def _bits_for(self, position: int) -> int:
        return self.bos_bits if position == 0 else self.kv_bits

    def append(self, k_heads: np.ndarray, v_heads: np.ndarray) -> None:
        """Store one position's (..., n_heads, head_dim) K and V."""
        if k_heads.shape != v_heads.shape:
            raise ValueError("K and V head shapes differ")
        position = len(self._k)
        if self.kv_bits == 8:
            self._k.append(np.array(k_heads, dtype=np.float64))
            self._v.append(np.array(v_heads, dtype=np.float64))
            return
        bits = self._bits_for(position)
        scheme = QuantScheme.unsigned(bits)
        self._k.append(quantize(k_heads, scheme))
        self._v.append(quantize(v_heads, scheme))

    def _gather(self, store: list) -> np.ndarray:
        if not store:
            raise ValueError("empty cache")
        if self.kv_bits == 8:
            return np.stack(store, axis=-2)
        return np.stack([dequantize(q) for q in store], axis=-2)

    def keys(self) -> np.ndarray:
        """Dequantized keys, shape (..., n_heads, T, head_dim)."""
        return self._gather(self._k)

    def values(self) -> np.ndarray:
        return self._gather(self._v)

    def stored_code_bits(self, position: int) -> int:
        """Bits actually used for a stored position (inspection hook)."""
        if self.kv_bits == 8:
            return 8
        return self._bits_for(position)


def causal_mask(t: int) -> np.ndarray:
    """Additive mask: 0 on and below the diagonal, a large negative above."""
    return np.triu(np.full((t, t), -1e30), k=1)


def attention_forward(
    x,
    qkv_layer: BitLinearLayer,
    out_layer: BitLinearLayer,
    rope_params: RopeParams,
    n_heads: int,
    kv_bits: int = 8,
    q_bits: int = 16,
    causal: bool = True,
    positions: np.ndarray | None = None,
    cache: KvCache | None = None,
    stats: dict | None = None,
) -> Var:
    """Multi-head attention with quantized projections and post-rotation
    K/V treatment. When a cache is given, the current K/V heads are appended
    to it position by position (and attention still runs over the in-call
    sequence; cache replay for incremental decode goes through the cache's
    own accessors)."""
    x = ad.as_var(x)
    b, t, h = x.value.shape
    if h % n_heads != 0:
        raise ValueError(f"hidden size {h} not divisible by {n_heads} heads")
    hd = h // n_heads
    if hd != rope_params.head_dim:
        raise ValueError("rope head_dim does not match hidden/heads")
    if kv_bits not in VALID_KV_BITS:
        raise ValueError(f"kv_bits must be one of {VALID_KV_BITS}, got {kv_bits}")
    if q_bits not in VALID_Q_BITS:
        raise ValueError(f"q_bits must be one of {VALID_Q_BITS}, got {q_bits}")
    if positions is None:
        positions = np.arange(t)

    qkv = bitlinear_forward(qkv_layer, x, stats=stats)
    q, k, v = ad.split_last(qkv, (h, h, h))

    def to_heads(z):
        return ad.transpose(ad.reshape(z, (b, t, n_heads, hd)), (0, 2, 1, 3))

    q, k, v = to_heads(q), to_heads(k), to_heads(v)
    q = ad.rope(q, positions, rope_params.base)
    k = ad.rope(k, positions, rope_params.base)

    if q_bits == 4:
        q = ad.fake_quant_ste(q, lambda z: _unsigned_per_group(z, 4))
    if kv_bits != 8:
        k = ad.fake_quant_ste(k, lambda z: kv_fake_quant_values(z, kv_bits, positions))
        v = ad.fake_quant_ste(v, lambda z: kv_fake_quant_values(z, kv_bits, positions))

    if cache is not None:
        for pos in range(t):
            cache.append(k.value[..., pos, :], v.value[..., pos, :])

    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(hd))
    if causal:
        scores = ad.add_const(scores, causal_mask(t))
    attn = ad.softmax(scores)
    ctx = ad.reshape(ad.transpose(ad.matmul(attn, v), (0, 2, 1, 3)), (b, t, h))
    return bitlinear_forward(out_layer, ctx, stats=stats)

