"""Sparsity accounting, activation histograms, quantization-error summaries,
and held-out perplexity evaluation.

Sparsity of a projection site counts exact zeros in the tensor its matmul
actually consumes (post-sparsify, post-quantize). The up-projection row is
the effective compute sparsity under gate-first evaluation: a multiply is
skipped when the input entry is zero or the gate zeroed the output channel,
composed exactly per token. Overall sparsity weights the per-site rates by
projection parameter counts, so the activated-parameter figure is the
expected number of weights touched per token.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .model import TransformerModel, model_forward
from .quantcore import QuantScheme, fake_quant

SITE_ROWS = ("qkv", "out", "up", "gate", "down")

_STAT_LEAF = {
    "qkv": "qkv",
    "out": "attn_out",
    "up": "up_effective",
    "gate": "gate",
    "down": "down",
}


@dataclass(frozen=True)
class SparsityReport:
    """Per-site input sparsity (percent), parameter weights, and the derived
    parameter-weighted overall rate and activated-parameter count."""

    sparsity_pct: dict[str, float]
    params: dict[str, int]
    overall_pct: float
    activated_params: float

    def __post_init__(self):
        for site, pct in self.sparsity_pct.items():
            if not 0.0 <= pct <= 100.0:
                raise ValueError(f"{site} sparsity {pct} outside [0, 100]")

    def to_csv_text(self) -> str:
        out = io.StringIO()
        out.write("site,sparsity_pct,params\n")
        for site in SITE_ROWS:
            out.write(f"{site},{self.sparsity_pct[site]!r},{self.params[site]}\n")
        out.write(f"overall,{self.overall_pct!r},{sum(self.params.values())}\n")
        out.write(f"activated,{self.activated_params!r},\n")
        return out.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "sparsity_pct": dict(self.sparsity_pct),
            "params": dict(self.params),
            "overall_pct": self.overall_pct,
            "activated_params": self.activated_params,
        }


def site_param_counts(model: TransformerModel) -> dict[str, int]:
    """Projection weight counts per site across all blocks (norms and token
    tables carry no activation sparsity and are excluded)."""
    cfg = model.config
    h, g, n = cfg.hidden_size, cfg.glu_size, cfg.n_layers
    return {
        "qkv": n * 3 * h * h,
        "out": n * h * h,
        "up": n * h * g,
        "gate": n * h * g,
        "down": n * h * g,
    }


def sparsity_report(model: TransformerModel, eval_stream, n_batches: int = 8) -> SparsityReport:
    """Run forwards and aggregate measured input sparsity per site."""
    if n_batches < 1:
        raise ValueError("need at least one batch")
    sums = {site: 0.0 for site in SITE_ROWS}
    count = 0
    for _ in range(n_batches):
        try:
            inputs, _ = next(eval_stream)
        except StopIteration:
            break
        stats: dict = {}
        with ad.no_grad():
            model_forward(model, inputs, stats=stats)
        for site in SITE_ROWS:
            leaf = _STAT_LEAF[site]
            vals = [v for k, v in stats.items() if k.endswith("." + leaf)]
            sums[site] += float(np.mean(vals))
        count += 1
    if count == 0:
        raise ValueError("evaluation stream yielded no batches")
    pct = {site: 100.0 * sums[site] / count for site in SITE_ROWS}
    params = site_param_counts(model)
    total = sum(params.values())
    overall = sum(params[s] * pct[s] for s in SITE_ROWS) / total
    activated = sum(params[s] * (1.0 - pct[s] / 100.0) for s in SITE_ROWS)
    return SparsityReport(pct, params, overall, activated)


def composed_up_sparsity(input_sparsity: float, gate_sparsity: float) -> float:
    """Fraction of up-projection multiplies skipped when input zeros and
    gate-killed channels combine: 1 - (1-a)(1-b)."""
    for name, v in (("input_sparsity", input_sparsity), ("gate_sparsity", gate_sparsity)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {v}")
    return 1.0 - (1.0 - input_sparsity) * (1.0 - gate_sparsity)


@dataclass(frozen=True)
class HistogramSpec:
    site: str
    bin_edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        if len(self.bin_edges) != len(self.counts) + 1:
            raise ValueError("bin_edges must have one more entry than counts")

    @property
    def sample_count(self) -> int:
        return int(self.counts.sum())

    def to_csv_text(self) -> str:
        out = io.StringIO()
        out.write("bin_left,count\n")
        for left, c in zip(self.bin_edges[:-1], self.counts):
            out.write(f"{float(left)!r},{int(c)}\n")
        return out.getvalue()


def _strided_cap(flat: np.ndarray, cap: int) -> np.ndarray:
    if flat.size <= cap:
        return flat
    stride = int(np.ceil(flat.size / cap))
    return flat[::stride]


def activation_histogram(
    model: TransformerModel,
    eval_stream,
    site,
    bins: int = 64,
    n_batches: int = 4,
    sample_cap: int = 10**6,
) -> HistogramSpec:
    """Histogram of pre-quantization input values at one projection site,
    deterministically subsampled to at most ``sample_cap`` values."""
    site_key = getattr(site, "value", site)
    collected: list[np.ndarray] = []
    capture = {site_key: collected}
    for _ in range(n_batches):
        inputs, _ = next(eval_stream)
        with ad.no_grad():
            model_forward(model, inputs, stats={"capture": capture})
    if not collected:
        raise ValueError(f"no activations captured for site {site_key!r}")
    flat = np.concatenate([a.ravel() for a in collected])
    flat = _strided_cap(flat, sample_cap)
    counts, edges = np.histogram(flat, bins=bins)
    return HistogramSpec(site_key, edges, counts)


def scheme_label(scheme: QuantScheme | None) -> str:
    if scheme is None:
        return "identity"
    label = scheme.kind.value
    if scheme.kind.value == "int4_absmean" and scheme.multiplier != 1.0:
        label += f"_x{int(scheme.multiplier)}"
    if scheme.kind.value == "unsigned_absmax":
        label += f"_{scheme.bits}bit"
    return label


def quant_error_report(
    x: np.ndarray, schemes: list[QuantScheme | None], bins: int = 32
) -> dict[str, dict]:
    """Per-scheme reconstruction error of fake quantization against the
    source tensor, plus a histogram of the quantized values."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty input")
    report: dict[str, dict] = {}
    for scheme in schemes:
        y = fake_quant(x, scheme) if scheme is not None else x
        err = y - x
        counts, edges = np.histogram(y.ravel(), bins=bins)
        report[scheme_label(scheme)] = {
            "mse": float(np.mean(err**2)),
            "max_abs_err": float(np.max(np.abs(err))),
            "histogram": HistogramSpec(scheme_label(scheme), edges, counts),
        }
    return report


def eval_perplexity(model: TransformerModel, eval_stream, n_batches: int = 8) -> float:
    """exp(mean token cross-entropy) over held-out batches."""
    if n_batches < 1:
        raise ValueError("need at least one batch")
    losses = []
    for _ in range(n_batches):
        inputs, targets = next(eval_stream)
        with ad.no_grad():
            loss = ad.cross_entropy(model_forward(model, inputs), targets)
        losses.append(float(loss.value))
    return float(np.exp(np.mean(losses)))
