"""Span tracing from outside the program.

The tracer replaces functions of the ternact package at the names their
callers look them up under (a module global, or a class attribute for
methods), times every call, and restores the originals when it is removed.
Nothing inside ``src/`` knows it is being traced.

Spans nest: a span's self time is its duration minus the time of the spans
that ran inside it, so the self times of all spans add up to the time the
outermost spans cover. Spans are only recorded while the tracer is armed,
which the workloads do around each measured operation; work between
operations (input generation, output checks) is never attributed.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import ternact.autodiff
import ternact.data
import ternact.layers
import ternact.metrics
import ternact.model
import ternact.train
from ternact.quantcore import SchemeKind

SITES = ("qkv", "attn_out", "gate", "up", "down")

# Spans every workload must fire; a later change that moves work out of one
# of these functions has to update the trace along with it.
COMMON_SPANS = (
    "model.forward",
    "layers.attention",
    *(f"autodiff.bitlinear.{site}" for site in SITES),
    "autodiff.rmsnorm",
    "autodiff.rope",
    "autodiff.softmax",
    "autodiff.head_ce",
    "quantcore.quantize",
    "sparsify.topk",
)


@dataclass
class SpanStat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    """Aggregates span times and the counters recorded at span boundaries."""

    def __init__(self):
        self.spans: dict[str, SpanStat] = defaultdict(SpanStat)
        self.counters: dict[str, int] = defaultdict(int)
        self.covered = 0.0  # time inside outermost spans
        self.prefill_s: list[float] = []
        self.armed = False
        self._stack: list[list] = []  # [child time, span name] per open span
        self._await_prefill = False
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def armed_for_op(self, request: bool = False):
        """Record spans for the enclosed operation. ``request`` marks the
        start of a decode request, whose first forward is its prefill."""
        self.armed = True
        self._await_prefill = request
        try:
            yield
        finally:
            self.armed = False
            self._await_prefill = False

    def _call(self, name: str, fn, args, kwargs, after):
        start = perf_counter()
        frame = [0.0, name]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            self._stack.pop()
            stat = self.spans[name]
            stat.calls += 1
            stat.total += duration
            stat.self_time += duration - frame[0]
            if self._stack:
                self._stack[-1][0] += duration
            else:
                self.covered += duration
        if after is not None:
            after(self, args, result, duration)
        return result

    def _wrap(self, owner, attr: str, name, after=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.armed:
                return original(*args, **kwargs)
            span = name(args) if callable(name) else name
            return tracer._call(span, original, args, kwargs, after)

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap the package's functions for the duration of the block."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        ad = ternact.autodiff
        for module in (ternact.train, ternact.metrics, ternact.model):
            self._wrap(module, "model_forward", "model.forward", _after_forward)
        self._wrap(ternact.model, "attention_forward", "layers.attention")
        self._wrap(ternact.layers, "bitlinear_forward", _bitlinear_span)
        self._wrap(ternact.layers, "kv_fake_quant_values", "layers.kv_quant")
        self._wrap(ad, "quantize", "quantcore.quantize", _after_quantize)
        self._wrap(ad, "topk_mask", "sparsify.topk", _after_topk)
        self._wrap(ad.Var, "backward", "autodiff.backward")
        self._wrap(ad, "rmsnorm", "autodiff.rmsnorm")
        self._wrap(ad, "rope", "autodiff.rope")
        self._wrap(ad, "softmax", "autodiff.softmax")
        self._wrap(ad, "linear", "autodiff.head_ce")
        self._wrap(ad, "cross_entropy", "autodiff.head_ce")
        self._wrap(ternact.train, "adamw_update", "train.adamw")
        self._wrap(ternact.train, "global_grad_norm", "train.grad_norm")
        self._wrap(ternact.data.MarkovChain, "sample", "data.sample")
        try:
            yield self
        finally:
            while self._originals:
                owner, attr, original = self._originals.pop()
                setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def self_ms(self, name: str) -> float:
        return 1e3 * self.spans[name].self_time

    def calls(self, name: str) -> int:
        return self.spans[name].calls

    def check_spans(self, expected, absent) -> list[str]:
        """Problems with span coverage: an expected span that never fired, or
        a span predicted absent that recorded any call or time."""
        problems = [f"span {name} never fired" for name in expected if self.calls(name) == 0]
        for name in absent:
            if self.calls(name) != 0 or self.self_ms(name) != 0.0:
                problems.append(f"span {name} predicted absent but fired {self.calls(name)} times")
        return problems

    def layer_metrics(self, op_seconds: float, n_ops: int, n_tokens: int) -> dict[str, float]:
        """Span metrics per op. ``op_seconds`` is the summed wall time of the
        ``n_ops`` measured ops, ``n_tokens`` the tokens they trained, scored
        or generated. Every ``_ms`` metric but ``model.forward_ms`` is a self
        time, so those add up to the op time less ``trace.unattributed_pct``."""
        out = {}
        for name in (*(f"autodiff.bitlinear.{s}" for s in SITES), "autodiff.backward", "train.adamw",
                     "train.grad_norm", "autodiff.rmsnorm", "autodiff.rope", "autodiff.softmax",
                     "autodiff.head_ce", "layers.kv_quant", "quantcore.quantize", "sparsify.topk",
                     "data.sample"):
            out[f"{name}_ms"] = self.self_ms(name) / n_ops
        out["layers.attention_core_ms"] = self.self_ms("layers.attention") / n_ops
        out["model.forward_self_ms"] = self.self_ms("model.forward") / n_ops
        out["model.forward_ms"] = 1e3 * self.spans["model.forward"].total / n_ops
        for name in ("layers.kv_quant", "quantcore.quantize", "sparsify.topk", "model.forward"):
            out[f"{name}_calls"] = self.calls(name) / n_ops
        out["quantcore.weight_quantize_calls"] = self.counters["weight_quantize"] / n_ops
        out["sparsify.kept_fraction"] = self.kept_fraction("") or 0.0
        out["model.positions_per_token"] = self.counters["positions"] / n_tokens
        out["model.prefill_ms"] = 1e3 * statistics.median(self.prefill_s) if self.prefill_s else 0.0
        out["trace.unattributed_pct"] = 100.0 * (op_seconds - self.covered) / op_seconds
        return out

    def kept_fraction(self, site: str) -> float | None:
        """Share of entries the top-K masks kept, at one projection site or,
        for ``site=""``, at all of them; None when no mask ran there."""
        suffix = f".{site}" if site else ""
        considered = self.counters[f"topk_entries{suffix}"]
        return self.counters[f"topk_kept{suffix}"] / considered if considered else None


def _bitlinear_span(args) -> str:
    return f"autodiff.bitlinear.{args[0].site.value}"


def _after_forward(tracer: Tracer, args, result, duration: float) -> None:
    tokens = args[1]
    tracer.counters["positions"] += int(tokens.shape[0] * tokens.shape[1])
    if tracer._await_prefill:
        tracer.prefill_s.append(duration)
        tracer._await_prefill = False


def _after_quantize(tracer: Tracer, args, result, duration: float) -> None:
    if args[1].kind is SchemeKind.TERNARY_ABSMEAN:
        tracer.counters["weight_quantize"] += 1


def _after_topk(tracer: Tracer, args, result, duration: float) -> None:
    # count what the mask actually keeps, not what it claims to keep
    kept, size = int(result.mask.sum()), int(result.mask.size)
    site = next((name.rsplit(".", 1)[1] for _, name in reversed(tracer._stack)
                 if name.startswith("autodiff.bitlinear.")), "none")
    for suffix in ("", f".{site}"):
        tracer.counters[f"topk_kept{suffix}"] += kept
        tracer.counters[f"topk_entries{suffix}"] += size
