"""One benchmark run: set up a workload several times, measure it, check its
outputs and turn what it did into the metrics BENCHMARK.json names.

An untraced run (trace 0) reports the end-to-end metrics, with every time
read at one nominal machine speed (``calibrate.py``); the report line gives
the measured times beside them. A traced run (trace 1) alternates untraced
rounds with rounds under the tracer and reports the per-layer metrics of
the traced rounds, uncalibrated; the difference between the two kinds of
round is the tracing overhead.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
from time import perf_counter

import numpy as np

from calibrate import Speedometer
from tracing import SITES, Tracer
from workloads import DEFAULT, WORKLOADS, Phase, Size, rounds

# kernel runs on either side of a set-up: a set-up is one long op, so its
# calibration averages more runs than that of a short op
SETUP_KERNEL_RUNS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "tokens_per_s": "tokens/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "loss_nats": "nats",
    "token_match": "fraction",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    **{f"autodiff.bitlinear.{site}_ms": "ms/op" for site in SITES},
    "autodiff.backward_ms": "ms/op",
    "train.adamw_ms": "ms/op",
    "train.grad_norm_ms": "ms/op",
    "autodiff.rmsnorm_ms": "ms/op",
    "autodiff.rope_ms": "ms/op",
    "autodiff.softmax_ms": "ms/op",
    "autodiff.head_ce_ms": "ms/op",
    "layers.attention_core_ms": "ms/op",
    "layers.kv_quant_ms": "ms/op",
    "layers.kv_quant_calls": "calls/op",
    "quantcore.quantize_ms": "ms/op",
    "quantcore.quantize_calls": "calls/op",
    "quantcore.weight_quantize_calls": "calls/op",
    "sparsify.topk_ms": "ms/op",
    "sparsify.topk_calls": "calls/op",
    "sparsify.kept_fraction": "fraction",
    "model.forward_ms": "ms/op",
    "model.forward_self_ms": "ms/op",
    "model.forward_calls": "calls/op",
    "model.positions_per_token": "positions",
    "model.prefill_ms": "ms",
    "train.stage1_step_ms": "ms",
    "train.stage2_step_ms": "ms",
    "data.sample_ms": "ms/op",
    "tensorio.save_ms": "ms",
    "tensorio.load_ms": "ms",
    "tensorio.checkpoint_bytes": "bytes",
    "trace.unattributed_pct": "%",
    "trace.overhead_pct": "%",
}


def tail(samples: list[float], q: float = 0.9) -> tuple[float, int]:
    """Nearest-rank q-quantile and the number of samples above its rank."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _finite_or_zero(value: float) -> float:
    value = float(value)
    return value if math.isfinite(value) else 0.0


def _median_or_zero(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def fingerprint() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "library default"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def calibrated(phase: Phase, setup: list[tuple[float, int]]) -> tuple[list[float], list[float], float]:
    """Set-up times, op times and the summed op time, each read against the
    reference kernel runs around it."""
    factor = phase.speed.factor
    return ([t * factor(m, SETUP_KERNEL_RUNS) for t, m in setup],
            [t * factor(m) for t, m in zip(phase.op_s, phase.op_mark)],
            sum(t * factor(m) for t, m in phase.busy))


def end_to_end(setup_s: list[float], ops: list[float], busy_s: float, tokens: int,
               quality: dict[str, float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_s),
        "tokens_per_s": tokens / busy_s if busy_s > 0 else 0.0,
        "op_ms_p50": 1e3 * _median_or_zero(ops),
        "op_ms_p90": 1e3 * tail(ops)[0] if ops else 0.0,
        "loss_nats": quality["loss_nats"],
        "token_match": quality["token_match"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, tracer: Tracer, traced: Phase, reference: Phase) -> dict[str, float]:
    out = tracer.layer_metrics(traced.busy_s, max(1, traced.units), max(1, traced.tokens))
    for stage in ("stage1", "stage2"):
        out[f"train.{stage}_step_ms"] = 1e3 * _median_or_zero(traced.step_s[stage])
    io = workload.io
    out["tensorio.save_ms"] = 1e3 * _median_or_zero(io["save_s"])
    out["tensorio.load_ms"] = 1e3 * _median_or_zero(io["load_s"])
    out["tensorio.checkpoint_bytes"] = float(io["bytes"][-1]) if io["bytes"] else 0.0
    ref_ms, traced_ms = _median_or_zero(reference.op_s), _median_or_zero(traced.op_s)
    out["trace.overhead_pct"] = 100.0 * (traced_ms - ref_ms) / ref_ms if ref_ms else 0.0
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        size: Size = DEFAULT) -> tuple[dict, dict]:
    """(result, report): the result is the object the last output line
    carries, the report what a reader needs to trust it."""
    workload = WORKLOADS[workload_name](size, seed)
    speed = None if trace else Speedometer()
    setup = []  # (seconds, calibration mark) of each set-up
    for _ in range(workload.setup_repeats):
        if speed:
            speed.tick(SETUP_KERNEL_RUNS)
        start = perf_counter()
        workload.setup()
        setup.append((perf_counter() - start, speed.mark() if speed else 0))
    setup_s = [t for t, _ in setup]

    if trace:
        # untraced and traced rounds alternate, so that drift in the
        # machine's speed falls on both alike and cancels in the overhead
        reference, phase, tracer = Phase(), Phase(), Tracer()
        for _ in rounds(phase, seconds):
            workload.measure(reference, 0)
            with tracer.installed():
                workload.measure(phase, 0, tracer=tracer)
        phases = (reference, phase)
        problems = tracer.check_spans(workload.expected_spans, workload.absent_spans)
    else:
        speed.tick(SETUP_KERNEL_RUNS)  # also closes the last set-up
        phase = workload.measure(Phase(speed), seconds, workload.min_ops())
        speed.tick()
        phases = (phase,)
        problems = []
    finished, quality = workload.finish(phase)
    problems += finished
    calibration = None
    if trace:
        values, units = per_layer(workload, tracer, phase, reference), PER_LAYER_UNITS
    else:
        setup_cal, ops_cal, busy_cal = calibrated(phase, setup)
        values, units = end_to_end(setup_cal, ops_cal, busy_cal, phase.tokens, quality), END_TO_END_UNITS
        measured = end_to_end(setup_s, phase.op_s, phase.busy_s, phase.tokens, quality)
        calibration = {
            "measured": {k: measured[k] for k in ("setup_s", "tokens_per_s", "op_ms_p50", "op_ms_p90")},
            "kernel_runs": len(speed.ref_s),
            "kernel_ms_median": 1e3 * statistics.median(speed.ref_s),
            "factor_median": speed.median_factor(),
        }

    failures = [f for p in phases for f in p.failures]
    result = {
        "correct": not problems and not failures,
        "attempted": sum(p.attempted for p in phases),
        "failed": len(failures),
        # a metric that could not be measured (every op failed) reads 0,
        # which keeps the line valid JSON; "correct" is false then anyway
        "metrics": {name: {"value": _finite_or_zero(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    report = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fingerprint": fingerprint(),
        "inputs_digest": workload.inputs_digest,
        "op_samples": len(phase.op_s),
        "op_samples_beyond_p90": tail(phase.op_s)[1] if phase.op_s else 0,
        "setup_s_each": setup_s,
        "calibration": calibration,
        "quality": quality,
        "problems": problems,
        "failures": failures[:20],
    }
    return result, report
