"""Decoder-only toy transformer assembled from the quantized sub-layers,
with stage switching between the 8-bit warmup regime and the hybrid low-bit
regime.

Stage 1 binds every projection input to int8; stage 2 rebinds query/key/value
and both FFN inputs to 4-bit (integer absmean, or the fp4 grid in fp4 mode),
puts the half top-K mask in front of the attention output projection, and
keeps the down projection at int8. Rebinding never touches latent weights.

``ModelConfig.site_bindings`` overlays per-site input schemes on whichever
stage is bound (the ablation presets), so a checkpoint, which records its
configuration, reloads with the binding it was trained with.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .layers import (
    BitLinearLayer,
    KvCache,
    Site,
    attention_forward,
    check_bit_widths,
    ffn_forward,
)
from .quantcore import SCHEMES, QuantScheme


class NonFiniteValueError(ValueError):
    """A block of the forward produced NaN or infinity."""


class Stage(str, Enum):
    STAGE1 = "stage1"
    STAGE2 = "stage2"


@dataclass
class ModelConfig:
    hidden_size: int = 128
    glu_size: int = 344
    n_heads: int = 4
    n_layers: int = 4
    vocab_size: int = 256
    seq_len: int = 128
    stage: Stage = Stage.STAGE1
    fp4_mode: bool = False
    kv_bits: int = 8
    q_bits: int = 16
    activation: str = "relu2"
    # {site: {"scheme": name in quantcore.SCHEMES, "k": top-K fraction or None}}
    site_bindings: dict | None = None

    def __post_init__(self):
        for name in ("hidden_size", "glu_size", "n_heads", "n_layers", "vocab_size", "seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.hidden_size % self.n_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by n_heads {self.n_heads}"
            )
        if self.head_dim % 2 != 0:
            raise ValueError(f"head_dim must be even for the rotary embedding, got {self.head_dim}")
        check_bit_widths(self.kv_bits, self.q_bits)
        if self.activation not in ad.GLU_ACTIVATIONS:
            raise ValueError("activation must be 'relu2' or 'silu'")
        self.stage = Stage(self.stage)
        if not isinstance(self.site_bindings or {}, dict):
            raise ValueError("site_bindings must map site names to bindings")
        for name, binding in (self.site_bindings or {}).items():
            _check_site_binding(name, binding)

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.n_heads


def _check_site_binding(name: str, binding) -> None:
    if name not in {site.value for site in Site}:
        raise ValueError(f"unknown projection site: {name}")
    if not isinstance(binding, dict) or "scheme" not in binding:
        raise ValueError(f'site {name}: a binding needs a "scheme"')
    unknown = set(binding) - {"scheme", "k"}
    if unknown:
        raise ValueError(f"site {name}: unknown binding keys {sorted(unknown)}")
    if binding["scheme"] not in ad.INPUT_SCHEMES:
        raise ValueError(
            f"site {name}: scheme must be one of {sorted(ad.INPUT_SCHEMES)}, got {binding['scheme']!r}"
        )
    k = binding.get("k")
    if k is not None and (
        isinstance(k, bool) or not isinstance(k, (int, float)) or not 0.0 < k <= 1.0
    ):
        raise ValueError(f"site {name}: k must be in (0, 1] or null, got {k!r}")


@dataclass
class Block:
    """One transformer block. The field order is the order of its parameters
    in ``named_parameters`` (and so in a checkpoint) and of its projections
    in ``projection_layers``."""

    attn_norm: Var
    qkv: BitLinearLayer
    attn_out: BitLinearLayer
    ffn_norm: Var
    gate: BitLinearLayer
    up: BitLinearLayer
    down: BitLinearLayer


class TransformerModel:
    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        h, g, v = config.hidden_size, config.glu_size, config.vocab_size

        def proj(out_f, in_f, site):
            # effective ternary weights are ~0.8*std in magnitude, so the
            # fan-in scaling keeps pre-activation variance near one
            w = Var(rng.standard_normal((out_f, in_f)) / np.sqrt(in_f))
            return BitLinearLayer(w, site)

        self.embedding = Var(rng.standard_normal((v, h)) * 0.02)
        self.blocks: list[Block] = []
        for _ in range(config.n_layers):
            self.blocks.append(
                Block(
                    attn_norm=Var(np.ones(h)),
                    qkv=proj(3 * h, h, Site.QKV),
                    attn_out=proj(h, h, Site.ATTN_OUT),
                    ffn_norm=Var(np.ones(h)),
                    gate=proj(g, h, Site.GATE),
                    up=proj(g, h, Site.UP),
                    down=proj(h, g, Site.DOWN),
                )
            )
        self.final_norm = Var(np.ones(h))
        self.head = Var(rng.standard_normal((v, h)) * 0.02)
        configure_stage(self, config.stage)

    def named_parameters(self) -> dict[str, Var]:
        params: dict[str, Var] = {"embedding": self.embedding}
        for i, blk in enumerate(self.blocks):
            for name, part in vars(blk).items():
                params[f"blocks.{i}.{name}"] = part.latent_weights if isinstance(part, BitLinearLayer) else part
        params["final_norm"] = self.final_norm
        params["head"] = self.head
        return params

    def projection_layers(self) -> list[BitLinearLayer]:
        return [part for blk in self.blocks for part in vars(blk).values() if isinstance(part, BitLinearLayer)]


def parameter_count(config: ModelConfig) -> int:
    """The number of parameter values a model of ``config`` holds, counted
    in Python ints from the configuration alone, without building it."""
    h, g, v = config.hidden_size, config.glu_size, config.vocab_size
    # per block: two norm gains, qkv and attn_out, gate, up and down
    per_block = 2 * h + 4 * h * h + 3 * g * h
    # the embedding and head tables and the final norm gain
    return 2 * v * h + h + config.n_layers * per_block


def stage_bindings(stage: Stage, fp4_mode: bool) -> dict[Site, tuple[QuantScheme | None, float | None]]:
    """Per-site (input scheme, top-K fraction) for a training stage."""
    stage = Stage(stage)
    if stage is Stage.STAGE1:
        return {site: (QuantScheme.int8(), None) for site in Site}
    four_bit = QuantScheme.fp4() if fp4_mode else QuantScheme.int4()
    return {
        Site.QKV: (four_bit, None),
        Site.GATE: (four_bit, None),
        Site.UP: (four_bit, None),
        Site.ATTN_OUT: (QuantScheme.int8(), 0.5),
        Site.DOWN: (QuantScheme.int8(), None),
    }


def configure_stage(model: TransformerModel, stage: Stage) -> TransformerModel:
    """Rebind every projection's input treatment for the given stage, with
    the config's ``site_bindings`` laid over the stage's row. Weights are
    ternary in every stage, so this also undoes ``configure_identity``."""
    bindings = stage_bindings(stage, model.config.fp4_mode)
    for name, binding in (model.config.site_bindings or {}).items():
        bindings[Site(name)] = (SCHEMES[binding["scheme"]], binding.get("k"))
    for layer in model.projection_layers():
        layer.input_scheme, layer.k_fraction = bindings[layer.site]
        layer.weight_scheme = QuantScheme.ternary()
    model.config.stage = Stage(stage)
    return model


def configure_identity(model: TransformerModel) -> TransformerModel:
    """Disable all quantization (inputs and weights): the full-precision
    configuration the finite-difference gradient check runs against."""
    for layer in model.projection_layers():
        layer.input_scheme = None
        layer.k_fraction = None
        layer.weight_scheme = None
    return model


def model_forward(model: TransformerModel, tokens: np.ndarray, caches: list[KvCache] | None = None) -> Var:
    """Logits over the vocabulary, shape (batch, len, vocab).

    With ``caches``, one ``KvCache`` per block, ``tokens`` continue the
    positions the caches hold, and attention reads the earlier positions
    from them (inference only, see ``attention_forward``). A block whose
    output holds NaN or inf raises ``NonFiniteValueError`` naming it."""
    cfg = model.config
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ValueError("tokens must be (batch, len)")
    if caches is None:
        caches, past = [None] * len(model.blocks), 0
    elif len(caches) != len(model.blocks):
        raise ValueError(f"need one KV cache per block ({len(model.blocks)}), got {len(caches)}")
    else:
        past = len(caches[0])
    if past + tokens.shape[1] > cfg.seq_len:
        raise ValueError(f"sequence length {past + tokens.shape[1]} exceeds seq_len {cfg.seq_len}")
    x = ad.embedding(model.embedding, tokens)
    for i, (blk, cache) in enumerate(zip(model.blocks, caches)):
        attn = attention_forward(
            ad.rmsnorm(x, blk.attn_norm),
            blk.qkv,
            blk.attn_out,
            cfg.n_heads,
            kv_bits=cfg.kv_bits,
            q_bits=cfg.q_bits,
            cache=cache,
        )
        x = ad.add(x, attn)
        ffn = ffn_forward(
            ad.rmsnorm(x, blk.ffn_norm),
            blk.up,
            blk.gate,
            blk.down,
            activation=cfg.activation,
        )
        x = ad.add(x, ffn)
        if not np.isfinite(x.value).all():  # the forward's one check: quantizers pass NaN/inf
            raise NonFiniteValueError(f"block {i} output is not finite")
    x = ad.rmsnorm(x, model.final_norm)
    return ad.linear(x, model.head)


def greedy_decode(model: TransformerModel, prompt: np.ndarray, n_new: int) -> np.ndarray:
    """Extend each prompt row with ``n_new`` argmax continuations.

    The prompt fills one KV cache per block, then each step feeds only the
    token it just chose, so a token costs one position per layer. When the
    caches hold seq_len positions, the next step starts fresh caches on the
    last seq_len tokens, which is a full forward over that window."""
    cfg = model.config
    tokens = np.asarray(prompt)
    if tokens.ndim != 2 or 0 in tokens.shape:
        raise ValueError(f"prompt must be a non-empty (batch, len) array, got shape {tokens.shape}")
    if n_new < 0:
        raise ValueError(f"n_new must be non-negative, got {n_new}")
    caches: list[KvCache] = []
    with ad.no_grad():
        for _ in range(n_new):
            if not caches or len(caches[0]) == cfg.seq_len:
                caches = [KvCache(cfg.kv_bits) for _ in model.blocks]
                feed = tokens[:, -cfg.seq_len:]
            logits = model_forward(model, feed, caches)
            feed = np.argmax(logits.value[:, -1, :], axis=-1)[:, None]
            tokens = np.concatenate([tokens, feed], axis=1)
    return tokens
