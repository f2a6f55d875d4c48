"""Sparsity accounting, activation histograms and held-out perplexity
evaluation.

Sparsity of a projection site counts exact zeros in the tensor its matmul
actually consumes (post-sparsify, post-quantize). The up-projection row is
the effective compute sparsity under gate-first evaluation (see
``layers.Probe``, which both reports read). Overall sparsity weights the
per-site rates by projection parameter counts, so the activated-parameter
figure is the expected number of weights touched per token.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .layers import Probe, Site, probing
from .model import TransformerModel, model_forward
from .quantcore import QuantScheme

# The projection site behind each report row.
_ROW_SITE = {
    "qkv": Site.QKV,
    "out": Site.ATTN_OUT,
    "up": Site.UP,
    "gate": Site.GATE,
    "down": Site.DOWN,
}
SITE_ROWS = tuple(_ROW_SITE)
# values an activation histogram keeps at most, by a fixed stride
HIST_SAMPLE_CAP = 10**6


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
    sizes = {site: 0 for site in Site}
    for layer in model.projection_layers():
        sizes[layer.site] += layer.latent_weights.value.size
    return {row: sizes[site] for row, site in _ROW_SITE.items()}


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
        probe = Probe()
        with ad.no_grad(), probing(probe):
            model_forward(model, inputs)
        rates = {row: probe.sparsity[site] for row, site in _ROW_SITE.items()}
        rates["up"] = probe.up_effective
        for site in SITE_ROWS:
            sums[site] += float(np.mean(rates[site]))
        count += 1
    if count == 0:
        raise ValueError("evaluation stream yielded no batches")
    pct = {site: 100.0 * sums[site] / count for site in SITE_ROWS}
    params = site_param_counts(model)
    total = sum(params.values())
    overall = sum(params[s] * pct[s] for s in SITE_ROWS) / total
    activated = sum(params[s] * (1.0 - pct[s] / 100.0) for s in SITE_ROWS)
    return SparsityReport(pct, params, overall, activated)


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
) -> HistogramSpec:
    """Histogram of pre-quantization input values at one projection site,
    deterministically subsampled to at most ``HIST_SAMPLE_CAP`` values."""
    site = Site(site)
    probe = Probe(keep_inputs=(site,))
    for _ in range(n_batches):
        inputs, _ = next(eval_stream)
        with ad.no_grad(), probing(probe):
            model_forward(model, inputs)
    collected = probe.inputs[site]
    if not collected:
        raise ValueError(f"no activations captured for site {site.value!r}")
    flat = np.concatenate([a.ravel() for a in collected])
    flat = _strided_cap(flat, HIST_SAMPLE_CAP)
    counts, edges = np.histogram(flat, bins=bins)
    return HistogramSpec(site.value, edges, counts)


def scheme_label(scheme: QuantScheme | None) -> str:
    if scheme is None:
        return "identity"
    label = scheme.kind.value
    if scheme.kind.value == "int4_absmean" and scheme.multiplier != 1.0:
        label += f"_x{int(scheme.multiplier)}"
    if scheme.kind.value == "unsigned_absmax":
        label += f"_{scheme.bits}bit"
    return label


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
