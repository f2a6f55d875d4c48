"""Decoder-only toy transformer assembled from the quantized sub-layers,
with stage switching between the 8-bit warmup regime and the hybrid low-bit
regime.

Stage 1 binds every projection input to int8; stage 2 rebinds query/key/value
and both FFN inputs to 4-bit (integer absmean, or the fp4 grid in fp4 mode),
puts the half top-K mask in front of the attention output projection, and
keeps the down projection at int8. Rebinding never touches latent weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .layers import (
    VALID_KV_BITS,
    VALID_Q_BITS,
    BitLinearLayer,
    RopeParams,
    Site,
    attention_forward,
    ffn_forward,
)
from .quantcore import QuantScheme


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

    def __post_init__(self):
        for name in ("hidden_size", "glu_size", "n_heads", "n_layers", "vocab_size", "seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.hidden_size % self.n_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by n_heads {self.n_heads}"
            )
        if self.kv_bits not in VALID_KV_BITS:
            raise ValueError(f"kv_bits must be one of {VALID_KV_BITS}")
        if self.q_bits not in VALID_Q_BITS:
            raise ValueError(f"q_bits must be one of {VALID_Q_BITS}")
        if self.activation not in ("relu2", "silu"):
            raise ValueError("activation must be 'relu2' or 'silu'")
        self.stage = Stage(self.stage)

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.n_heads


@dataclass
class Block:
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
        self.rope = RopeParams(head_dim=config.head_dim)
        configure_stage(self, config.stage)

    def named_parameters(self) -> dict[str, Var]:
        params: dict[str, Var] = {"embedding": self.embedding}
        for i, blk in enumerate(self.blocks):
            params[f"blocks.{i}.attn_norm"] = blk.attn_norm
            params[f"blocks.{i}.qkv"] = blk.qkv.latent_weights
            params[f"blocks.{i}.attn_out"] = blk.attn_out.latent_weights
            params[f"blocks.{i}.ffn_norm"] = blk.ffn_norm
            params[f"blocks.{i}.gate"] = blk.gate.latent_weights
            params[f"blocks.{i}.up"] = blk.up.latent_weights
            params[f"blocks.{i}.down"] = blk.down.latent_weights
        params["final_norm"] = self.final_norm
        params["head"] = self.head
        return params

    def projection_layers(self) -> list[BitLinearLayer]:
        layers = []
        for blk in self.blocks:
            layers.extend([blk.qkv, blk.attn_out, blk.gate, blk.up, blk.down])
        return layers

    def num_parameters(self, non_embedding: bool = True) -> int:
        """Total parameters; with ``non_embedding`` the token table and the
        output head (both vocab x hidden lookup tables) are excluded."""
        total = sum(p.value.size for p in self.named_parameters().values())
        if non_embedding:
            total -= self.embedding.value.size + self.head.value.size
        return total


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
    """Rebind every projection's input treatment for the given stage. Weights
    are ternary in every stage, so this also undoes ``configure_identity``."""
    bindings = stage_bindings(stage, model.config.fp4_mode)
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


def model_forward(
    model: TransformerModel,
    tokens: np.ndarray,
    stats: dict | None = None,
) -> Var:
    """Logits over the vocabulary, shape (batch, len, vocab)."""
    cfg = model.config
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ValueError("tokens must be (batch, len)")
    if tokens.shape[1] > cfg.seq_len:
        raise ValueError(f"sequence length {tokens.shape[1]} exceeds seq_len {cfg.seq_len}")
    x = ad.embedding(model.embedding, tokens)
    for i, blk in enumerate(model.blocks):
        blk_stats = {} if stats is not None else None
        if blk_stats is not None and "capture" in stats:
            blk_stats["capture"] = stats["capture"]
        attn = attention_forward(
            ad.rmsnorm(x, blk.attn_norm),
            blk.qkv,
            blk.attn_out,
            model.rope,
            cfg.n_heads,
            kv_bits=cfg.kv_bits,
            q_bits=cfg.q_bits,
            stats=blk_stats,
        )
        x = ad.add(x, attn)
        ffn = ffn_forward(
            ad.rmsnorm(x, blk.ffn_norm),
            blk.up,
            blk.gate,
            blk.down,
            activation=cfg.activation,
            stats=blk_stats,
        )
        x = ad.add(x, ffn)
        if stats is not None:
            for key, val in blk_stats.items():
                if key != "capture":
                    stats[f"blocks.{i}.{key}"] = val
    x = ad.rmsnorm(x, model.final_norm)
    return ad.linear(x, model.head)


def cross_entropy_loss(logits: Var, targets: np.ndarray) -> Var:
    return ad.cross_entropy(logits, targets)


def greedy_decode(model: TransformerModel, prompt: np.ndarray, n_new: int) -> np.ndarray:
    """Extend each prompt row with argmax continuations (smoke-test helper)."""
    tokens = np.asarray(prompt)
    for _ in range(n_new):
        with ad.no_grad():
            logits = model_forward(model, tokens[:, -model.config.seq_len:])
        nxt = np.argmax(logits.value[:, -1, :], axis=-1)
        tokens = np.concatenate([tokens, nxt[:, None]], axis=1)
    return tokens


def closed_form_param_count(config: ModelConfig) -> int:
    """Non-embedding parameters:
    per block 4*h^2 (qkv+out) + 3*h*g (gate/up/down) + 2*h (norm gains),
    plus the final norm gain."""
    h, g = config.hidden_size, config.glu_size
    return config.n_layers * (4 * h * h + 3 * h * g + 2 * h) + h
