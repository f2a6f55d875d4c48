"""Two-stage training with straight-through gradients.

Latent weights live in full precision and are the only model state the
optimizer changes: it rebinds them, never writes them in place, and updates
its own moments in place. Every forward consumes freshly quantized views.
Stage 1 runs all projection inputs at int8 with the peak learning rate
decaying to the second-stage rate; at the split point the model is rebound
to the hybrid low-bit configuration and training continues on the same
optimizer moments with the rate decaying to zero and weight decay switched
off.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .layers import attention_core, causal_mask, kv_fake_quant_values
from .model import NonFiniteValueError, Stage, TransformerModel, model_forward
from .model import configure_identity, configure_stage
from .quantcore import QuantScheme, fake_quant
from .sparsify import topk_mask

ADAM_BETAS = (0.9, 0.95)
CLIP_NORM = 1.0  # gradients are rescaled to at most this global norm
ADAM_EPS = 1e-8
FD_EPS = 1e-5  # central finite-difference step of grad_check_ste


@dataclass
class TrainerConfig:
    total_steps: int = 1000
    stage_split: float = 0.95
    peak_lr: float = 1.5e-3
    second_stage_lr: float = 1.0e-3
    wd_first: float = 0.1
    wd_second: float = 0.0
    warmup_steps: int = 50
    batch_size: int = 16
    seed: int = 0
    single_stage: Stage | None = None

    def __post_init__(self):
        if not 0.0 < self.stage_split < 1.0:
            raise ValueError("stage_split must be in (0, 1)")
        for name in ("peak_lr", "second_stage_lr"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a positive finite number, got {value}")
        for name in ("wd_first", "wd_second"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and at least 0, got {value}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be at least 0, got {self.warmup_steps}")
        if self.total_steps < 1:
            raise ValueError("total_steps must be positive")
        if self.single_stage is not None:
            self.single_stage = Stage(self.single_stage)

    @property
    def stage1_steps(self) -> int:
        if self.single_stage is not None:
            return self.total_steps if self.single_stage is Stage.STAGE1 else 0
        return int(round(self.stage_split * self.total_steps))


@dataclass
class OptimizerState:
    """AdamW moments keyed like the model's named parameters."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, model: TransformerModel) -> "OptimizerState":
        params = model.named_parameters()
        return cls(
            m={k: np.zeros_like(p.value) for k, p in params.items()},
            v={k: np.zeros_like(p.value) for k, p in params.items()},
        )


@dataclass
class StepRecord:
    step: int
    stage: str
    lr: float
    wd: float
    loss: float
    grad_norm: float


@dataclass
class TrainLog:
    records: list[StepRecord] = field(default_factory=list)
    divergence_step: int | None = None

    SMOOTHING_WINDOW = 100

    def smoothed_loss(self) -> float:
        """Mean of the last ``SMOOTHING_WINDOW`` finite losses."""
        losses = [r.loss for r in self.records if math.isfinite(r.loss)]
        if not losses:
            return float("nan")
        return float(np.mean(losses[-self.SMOOTHING_WINDOW:]))


def _warm_cosine(step: int, warmup: int, span: int, peak: float, floor: float) -> float:
    if step < warmup:
        return peak * (step + 1) / warmup
    t = (step - warmup) / max(1, span - warmup)
    return floor + (peak - floor) * 0.5 * (1.0 + math.cos(math.pi * t))


def lr_schedule(step: int, config: TrainerConfig) -> tuple[float, float]:
    """(learning rate, weight decay) at a global step.

    Two-stage: linear warmup to the peak, cosine down to the second-stage
    rate by the boundary, then cosine from that rate to zero with no
    re-warmup; weight decay switches exactly at the boundary. Single-stage
    (ablation runs): one warmup-plus-cosine from the peak to zero, first-stage
    weight decay throughout, so ablations differ only in scheme bindings.
    """
    if config.single_stage is not None:
        lr = _warm_cosine(step, config.warmup_steps, config.total_steps, config.peak_lr, 0.0)
        return lr, config.wd_first
    s1 = config.stage1_steps
    if step < s1:
        lr = _warm_cosine(step, config.warmup_steps, s1, config.peak_lr, config.second_stage_lr)
        return lr, config.wd_first
    t = (step - s1) / max(1, config.total_steps - s1)
    lr = config.second_stage_lr * 0.5 * (1.0 + math.cos(math.pi * t))
    return lr, config.wd_second


def global_grad_norm(params: dict[str, ad.Var]) -> float:
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    return math.sqrt(total)


def adamw_update(
    params: dict[str, ad.Var],
    state: OptimizerState,
    lr: float,
    wd: float,
) -> None:
    b1, b2 = ADAM_BETAS
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        # the moments update in place; the weights are rebound, never
        # written, because the weight-code cache keys on their identity.
        # The update p - lr mhat / (sqrt(vhat) + eps) - lr wd p is formed in
        # two buffers, `new` (the next weights) and `scratch`, with the
        # expression's ops in its order (a product's operand order moves
        # no bit)
        m, v = state.m[name], state.v[name]
        scratch = np.multiply(g, 1.0 - b1)
        m *= b1
        m += scratch
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - b2
        v *= b2
        v += scratch
        new = np.divide(m, 1.0 - b1**t)  # mhat
        new *= lr
        np.divide(v, 1.0 - b2**t, out=scratch)  # vhat
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        new /= scratch
        np.subtract(p.value, new, out=new)
        np.multiply(p.value, lr * wd, out=scratch)
        new -= scratch
        p.value = new


def train_step(
    model: TransformerModel,
    batch: tuple[np.ndarray, np.ndarray],
    state: OptimizerState,
    config: TrainerConfig,
    step: int,
) -> tuple[float, float]:
    """One forward/backward/update. Returns (loss, pre-clip grad norm); a
    non-finite loss or gradient norm, or a non-finite block output in the
    forward (``NonFiniteValueError``), skips the update, leaving the
    weights, the moments and the optimizer step as they were, and is
    reported, not raised."""
    inputs, targets = batch
    params = model.named_parameters()
    for p in params.values():
        p.zero_grad()
    try:
        loss = ad.cross_entropy(model_forward(model, inputs), targets)
    except NonFiniteValueError:
        return float("nan"), float("nan")
    loss_val = float(loss.value)
    if not math.isfinite(loss_val):
        return loss_val, float("nan")
    loss.backward()
    norm = global_grad_norm(params)
    if not math.isfinite(norm):
        return loss_val, norm
    if norm > CLIP_NORM:
        factor = CLIP_NORM / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * factor
    lr, wd = lr_schedule(step, config)
    adamw_update(params, state, lr, wd)
    return loss_val, norm


class DivergenceMonitor:
    """Flags a run after ``PATIENCE`` consecutive steps whose loss is
    non-finite or above ``FACTOR`` times the median of the last ``WINDOW``
    finite losses."""

    PATIENCE = 50
    FACTOR = 10.0
    WINDOW = 100

    def __init__(self):
        self.recent = deque(maxlen=self.WINDOW)
        self.bad_streak = 0

    def update(self, loss: float) -> bool:
        bad = not math.isfinite(loss)
        if not bad and self.recent:
            bad = loss > self.FACTOR * float(np.median(self.recent))
        if math.isfinite(loss):
            self.recent.append(loss)
        self.bad_streak = self.bad_streak + 1 if bad else 0
        return self.bad_streak >= self.PATIENCE


def run_two_stage(
    model: TransformerModel,
    stream,
    config: TrainerConfig,
    on_boundary=None,
    on_record=None,
) -> TrainLog:
    """Full training run; the stage switch reuses the optimizer moments.
    Non-finite starting weights are bad input and raise; a run that goes
    non-finite later is stopped by the divergence monitor."""
    for name, p in model.named_parameters().items():
        if not np.all(np.isfinite(p.value)):
            raise NonFiniteValueError(f"parameter {name} is not finite before training")
    state = OptimizerState.init(model)
    log = TrainLog()
    s1 = config.stage1_steps
    if config.single_stage is not None:
        configure_stage(model, config.single_stage)
    else:
        configure_stage(model, Stage.STAGE1 if s1 > 0 else Stage.STAGE2)
    monitor = DivergenceMonitor()
    for step in range(config.total_steps):
        if config.single_stage is None and step == s1 and s1 > 0:
            configure_stage(model, Stage.STAGE2)
            if on_boundary is not None:
                on_boundary(model, state, step)
        loss, norm = train_step(model, next(stream), state, config, step)
        lr, wd = lr_schedule(step, config)
        record = StepRecord(step, model.config.stage.value, lr, wd, loss, norm)
        log.records.append(record)
        if on_record is not None:
            on_record(record)
        # a step whose update was skipped for its gradient counts as bad
        if monitor.update(loss if math.isfinite(norm) else norm) and log.divergence_step is None:
            log.divergence_step = step
            break
    return log


@dataclass
class GradCheckReport:
    max_rel_error: float
    n_coordinates: int
    per_param: dict[str, float]
    ste_identity_ok: bool
    topk_gated_ok: bool
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance and self.ste_identity_ok and self.topk_gated_ok


def _relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


# Every scheme a bitlinear input can take.
BITLINEAR_INPUTS = tuple(ad.INPUT_SCHEMES.values())


def ste_contract(rng: np.random.Generator) -> tuple[bool, bool]:
    """Check the straight-through contract through the live adjoints.

    ``attention_core`` at kv 3/4 with q 4 must hand the qkv projection, bit
    for bit, the adjoint of the unquantized attention evaluated at the
    fake-quantized rotated heads. ``bitlinear`` under every input scheme must
    give dx = g @ fq(w) and dw = g^T @ fq(x) bit for bit. With top-K on, dw
    sees the masked input and dx is gated by the mask. Returns
    (pass-through ok, top-K gating ok).
    """
    b, t, n_heads, hd = 2, 5, 2, 4
    qkv = rng.standard_normal((b, t, 3 * n_heads * hd))
    heads = qkv.reshape(b, t, 3, n_heads, hd).transpose(2, 0, 3, 1, 4)
    pos, scale = np.arange(t), float(1.0 / np.sqrt(hd))
    identity_ok = True
    for kv_bits in (3, 4):
        qkv_var = ad.Var(qkv)
        ctx = attention_core(qkv_var, n_heads, kv_bits, q_bits=4)
        g = rng.standard_normal(ctx.shape)
        ad.vsum(ad.mul(ctx, ad.Var(g))).backward()
        q = fake_quant(ad.rope(heads[0], pos), QuantScheme.unsigned(4))
        k, v = kv_fake_quant_values(np.stack((ad.rope(heads[1], pos), heads[2])), kv_bits)
        p = ad.softmax(q @ np.swapaxes(k, -1, -2) * scale + causal_mask(t))
        go = g.reshape(b, t, n_heads, hd).transpose(0, 2, 1, 3)
        dp = go @ np.swapaxes(v, -1, -2)
        ds = p * (dp - np.sum(dp * p, axis=-1, keepdims=True)) * scale
        dq = ad.rope_adjoint(ds @ k, pos)
        dk = ad.rope_adjoint(np.swapaxes(np.swapaxes(q, -1, -2) @ ds, -1, -2), pos)
        dv = np.swapaxes(p, -1, -2) @ go
        expected = np.concatenate([d.transpose(0, 2, 1, 3).reshape(b, t, -1) for d in (dq, dk, dv)], axis=-1)
        identity_ok = identity_ok and np.array_equal(qkv_var.grad, expected)

    x = rng.standard_normal((4, 8))
    ternary = QuantScheme.ternary()
    w = ad.Var(rng.standard_normal((3, 8)))
    fqw = fake_quant(w.value, ternary)
    k_fraction = 0.5
    mask = topk_mask(x, k_fraction).mask
    topk_ok = True
    for scheme in BITLINEAR_INPUTS:
        for k in (None, k_fraction):
            xv = ad.Var(x)
            w.zero_grad()
            y = ad.bitlinear(xv, w, ad.input_codes(x, scheme, k), ternary)
            g = rng.standard_normal(y.shape)
            ad.vsum(ad.mul(y, ad.Var(g))).backward()
            fqx, dx = fake_quant(x, scheme), g @ fqw
            if k is not None:
                fqx, dx = fqx * mask, dx * mask
            ok = np.array_equal(xv.grad, dx) and np.array_equal(w.grad, g.T @ fqx)
            if k is None:
                identity_ok = identity_ok and ok
            else:
                topk_ok = topk_ok and ok
    return bool(identity_ok), bool(topk_ok)


def grad_check_ste(
    model: TransformerModel,
    batch: tuple[np.ndarray, np.ndarray],
    samples_per_tensor: int = 25,
    tolerance: float = 1e-4,
    seed: int = 0,
) -> GradCheckReport:
    """Verify the two halves of the gradient contract on a small model:
    with quantization fully disabled the tape gradients must match central
    finite differences coordinate-wise, and with quantization on the
    straight-through adjoints must be exact pass-throughs."""
    inputs, targets = batch
    configure_identity(model)
    params = model.named_parameters()
    for p in params.values():
        p.zero_grad()
    logits = model_forward(model, inputs)
    ad.cross_entropy(logits, targets).backward()
    analytic = {k: p.grad.copy() for k, p in params.items()}

    def loss_value() -> float:
        with ad.no_grad():
            return float(ad.cross_entropy(model_forward(model, inputs), targets).value)

    rng = np.random.default_rng(seed)
    per_param: dict[str, float] = {}
    worst = 0.0
    n_checked = 0
    for name, p in params.items():
        # perturb a private copy: the model's own array may be read-only
        # (see autodiff.weight_codes)
        p.value = p.value.copy()
        flat = p.value.reshape(-1)
        idx = rng.choice(flat.size, size=min(samples_per_tensor, flat.size), replace=False)
        worst_here = 0.0
        for i in idx:
            orig = flat[i]
            flat[i] = orig + FD_EPS
            up = loss_value()
            flat[i] = orig - FD_EPS
            down = loss_value()
            flat[i] = orig
            fd = (up - down) / (2.0 * FD_EPS)
            worst_here = max(worst_here, _relative_error(fd, float(analytic[name].reshape(-1)[i])))
            n_checked += 1
        per_param[name] = worst_here
        worst = max(worst, worst_here)

    ste_ok, topk_ok = ste_contract(rng)

    configure_stage(model, model.config.stage)
    return GradCheckReport(
        max_rel_error=worst,
        n_coordinates=n_checked,
        per_param=per_param,
        ste_identity_ok=ste_ok,
        topk_gated_ok=topk_ok,
        tolerance=tolerance,
    )
