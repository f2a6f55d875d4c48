"""Smoke tests of the benchmark on a tiny model.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import calibrate  # noqa: E402
import workloads  # noqa: E402
from workloads import Size  # noqa: E402

TINY = Size(
    model=dict(hidden_size=16, glu_size=44, n_heads=2, n_layers=2, vocab_size=32, seq_len=8),
    batch_size=4,
    train_steps=30,
    stage_split=0.6,
    setup_train_steps=30,
    final_steps=5,
    loss_batches=4,
    match_requests=4,
    check_requests=2,
    decode_loss_batches=2,
)
NAMES = tuple(workloads.WORKLOADS)


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_declared_metrics_match_the_emitted_ones():
    assert bench.END_TO_END_UNITS == _declared("end_to_end")
    assert bench.PER_LAYER_UNITS == _declared("per_layer")


@pytest.mark.parametrize("trace", (False, True))
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result, report = bench.run(name, seed=3, seconds=0.2, trace=trace, size=TINY)
    assert result["correct"], report
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = bench.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_inputs_but_not_metric_names(name):
    first, first_report = bench.run(name, seed=1, seconds=0.1, trace=False, size=TINY)
    second, second_report = bench.run(name, seed=2, seconds=0.1, trace=False, size=TINY)
    assert first_report["inputs_digest"] != second_report["inputs_digest"]
    assert list(first["metrics"]) == list(second["metrics"])


@pytest.mark.parametrize("name", NAMES)
def test_nan_latent_weight_is_a_failed_op_not_an_abort(name, monkeypatch):
    def poisoned(model):
        model.blocks[0].qkv.latent_weights.value[0, 0] = np.nan
        return model

    # train poisons the model it builds; eval and decode the one they load,
    # after their set-up training ran on a healthy one
    if name == "train":
        build = workloads.TransformerModel
        monkeypatch.setattr(workloads, "TransformerModel", lambda *a, **k: poisoned(build(*a, **k)))
    else:
        load = workloads.tensorio.load_checkpoint
        monkeypatch.setattr(workloads.tensorio, "load_checkpoint",
                            lambda path: (poisoned(load(path)[0]), {}))
    result, report = bench.run(name, seed=0, seconds=0.05, trace=False, size=TINY)
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]
    assert "ValueError" in report["failures"][0]


def test_calibration_reads_each_op_against_the_kernel_runs_around_it():
    speed = calibrate.Speedometer()
    nominal = calibrate.NOMINAL_S
    speed.ref_s = [nominal, 2 * nominal, 2 * nominal, 4 * nominal]
    assert speed.factor(0) == 1.0  # before the first run: that run alone
    assert speed.factor(1) == pytest.approx(2 / 3)  # between runs 0 and 1
    assert speed.factor(2) == 0.5
    assert speed.factor(4) == 0.25  # after the last run: that run alone
    assert speed.factor(2, width=2) == pytest.approx(1 / 2.25)


def test_untraced_report_gives_measured_times_beside_calibrated_ones():
    result, report = bench.run("eval", seed=1, seconds=0.1, trace=False, size=TINY)
    calibration = report["calibration"]
    assert calibration["kernel_runs"] >= 2 * bench.SETUP_KERNEL_RUNS
    assert set(calibration["measured"]) == {"setup_s", "tokens_per_s", "op_ms_p50", "op_ms_p90"}
    assert all(v > 0 for v in calibration["measured"].values())
    assert all(result["metrics"][k]["value"] > 0 for k in calibration["measured"])
