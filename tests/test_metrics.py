"""Sparsity accounting, the composed up-projection rate, activation
histograms, and quantization-error comparisons."""

import json

import numpy as np
import pytest

from ternact import autodiff as ad
from ternact import metrics
from ternact.cli import main
from ternact.data import MarkovChain, MarkovDataConfig, batch_stream
from ternact.layers import Probe, Site, probing
from ternact.metrics import (
    HistogramSpec,
    activation_histogram,
    eval_perplexity,
    scheme_label,
    site_param_counts,
    sparsity_report,
)
from ternact.model import (
    ModelConfig,
    Stage,
    TransformerModel,
    configure_identity,
    model_forward,
)
from ternact.quantcore import QuantScheme
from ternact.tensorio import save_tensor


def tiny_model(seed=0, **overrides):
    base = dict(hidden_size=16, glu_size=44, n_heads=2, n_layers=2, vocab_size=32, seq_len=16)
    base.update(overrides)
    return TransformerModel(ModelConfig(**base), seed=seed)


def tiny_stream(seed=7, batch_size=2, seq_len=12):
    chain = MarkovChain(MarkovDataConfig(vocab_size=32, seed=0))
    return batch_stream(chain, batch_size=batch_size, seq_len=seq_len, seed=seed)


def composed(a, b):
    """The up projection's skipped-multiply fraction when input zeros (a)
    and gate-killed channels (b) combine independently."""
    return 1.0 - (1.0 - a) * (1.0 - b)


class TestComposedUpSparsity:
    def test_reference_values(self):
        assert composed(0.120, 0.675) == pytest.approx(0.714, abs=1e-3)
        assert composed(0.120, 0.675) == pytest.approx(0.714, abs=1e-12)

    def test_trivial_cases(self):
        assert composed(0.0, 0.0) == 0.0
        assert composed(1.0, 0.3) == 1.0
        assert composed(0.3, 1.0) == 1.0


@pytest.fixture(scope="module")
def stage2_report():
    model = tiny_model(stage=Stage.STAGE2)
    return sparsity_report(model, tiny_stream(), n_batches=4)


class TestSparsityReport:
    def test_rows_in_range(self, stage2_report):
        for site, pct in stage2_report.sparsity_pct.items():
            assert 0.0 <= pct <= 100.0, site

    def test_out_row_is_half_plus_quant_slack(self, stage2_report):
        assert 50.0 <= stage2_report.sparsity_pct["out"] <= 60.0

    def test_down_row_reflects_gated_activations(self, stage2_report):
        assert stage2_report.sparsity_pct["down"] >= 45.0

    def test_internal_consistency(self, stage2_report):
        params, pct = stage2_report.params, stage2_report.sparsity_pct
        total = sum(params.values())
        overall = sum(params[s] * pct[s] for s in params) / total
        activated = sum(params[s] * (1.0 - pct[s] / 100.0) for s in params)
        assert stage2_report.overall_pct == pytest.approx(overall, abs=1e-9)
        assert stage2_report.activated_params == pytest.approx(activated, abs=1e-6)
        assert stage2_report.activated_params <= total

    def test_param_weights_match_projection_sizes(self):
        model = tiny_model()
        params = site_param_counts(model)
        assert params["qkv"] == 2 * 3 * 16 * 16
        assert params["out"] == 2 * 16 * 16
        assert params["up"] == params["gate"] == params["down"] == 2 * 16 * 44
        assert sum(params.values()) == sum(
            layer.latent_weights.value.size for layer in model.projection_layers()
        )

    def test_up_row_matches_composition_formula(self):
        # aggregate-mean composition vs exact per-token measurement
        model = tiny_model(stage=Stage.STAGE2)
        inputs, _ = next(tiny_stream())
        with ad.no_grad(), probing(Probe()) as probe:
            model_forward(model, inputs)
        gate_in = np.mean(probe.sparsity[Site.GATE])
        act = np.mean(probe.gate_activation)
        up_eff = np.mean(probe.up_effective)
        assert abs(composed(gate_in, act) - up_eff) < 0.02

    def test_identity_silu_model_is_dense(self):
        model = tiny_model(activation="silu")
        configure_identity(model)
        report = sparsity_report(model, tiny_stream(), n_batches=2)
        for site, pct in report.sparsity_pct.items():
            assert pct < 1.0, site
        assert report.activated_params == pytest.approx(sum(report.params.values()), rel=0.01)

    def test_csv_shape(self, stage2_report):
        lines = stage2_report.to_csv_text().strip().split("\n")
        assert lines[0] == "site,sparsity_pct,params"
        assert len(lines) == 8
        assert lines[1].startswith("qkv,")
        assert lines[-2].startswith("overall,")
        assert lines[-1].startswith("activated,")
        down = float(lines[5].split(",")[1])
        assert down == stage2_report.sparsity_pct["down"]

    def test_json_roundtrips_fields(self, stage2_report):
        d = stage2_report.to_json_dict()
        assert d["overall_pct"] == stage2_report.overall_pct
        assert set(d["sparsity_pct"]) == {"qkv", "out", "up", "gate", "down"}

    def test_empty_stream_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            sparsity_report(model, iter([]), n_batches=4)
        with pytest.raises(ValueError):
            sparsity_report(model, tiny_stream(), n_batches=0)


class TestHistogram:
    def test_counts_sum_to_samples(self):
        model = tiny_model()
        spec = activation_histogram(model, tiny_stream(), Site.QKV, bins=32, n_batches=2)
        # per batch: n_layers blocks x (batch*seq rows) x hidden features
        assert spec.sample_count == 2 * 2 * (2 * 12) * 16
        assert len(spec.counts) == 32
        assert len(spec.bin_edges) == 33

    def test_sample_cap_is_enforced(self, monkeypatch):
        monkeypatch.setattr(metrics, "HIST_SAMPLE_CAP", 500)
        model = tiny_model()
        spec = activation_histogram(model, tiny_stream(), Site.QKV, bins=8, n_batches=2)
        assert 250 <= spec.sample_count <= 500

    def test_constant_activations_occupy_one_bin(self):
        model = tiny_model()
        model.embedding.value = np.zeros_like(model.embedding.value)
        spec = activation_histogram(model, tiny_stream(), Site.QKV, bins=16, n_batches=1)
        assert np.count_nonzero(spec.counts) == 1

    def test_qkv_inputs_near_symmetric_at_init(self):
        model = tiny_model()
        inputs, _ = next(tiny_stream())
        with ad.no_grad(), probing(Probe(keep_inputs=[Site.QKV])) as probe:
            model_forward(model, inputs)
        values = np.concatenate([a.ravel() for a in probe.inputs[Site.QKV]])
        centered = values - values.mean()
        skewness = np.mean(centered**3) / np.mean(centered**2) ** 1.5
        assert abs(skewness) < 0.5

    def test_csv_shape(self):
        spec = HistogramSpec("qkv", np.array([0.0, 1.0, 2.0]), np.array([3, 4]))
        lines = spec.to_csv_text().strip().split("\n")
        assert lines == ["bin_left,count", "0.0,3", "1.0,4"]

    def test_edges_counts_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HistogramSpec("qkv", np.array([0.0, 1.0]), np.array([1, 2]))


def quant_report(tmp_path, x, scheme_name: str) -> dict:
    """The error report ``ternact quant`` writes for ``x`` under a scheme."""
    tensor = tmp_path / "x.ba48"
    save_tensor(tensor, x)
    out = tmp_path / scheme_name
    args = ["quant", "--tensor", str(tensor), "--out-dir", str(out), "--scheme", scheme_name]
    assert main(args) == 0
    return json.loads((out / "quant_stats.json").read_text())


class TestQuantErrorReport:
    """Reconstruction errors as the ``quant`` command reports them."""

    def test_zero_input_zero_error_for_all_schemes(self, tmp_path):
        for name in ("int8", "int4", "fp4", "unsigned4"):
            assert quant_report(tmp_path, np.zeros((4, 8)), name)["mse"] == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_int8_beats_int4_on_heavy_tails(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_t(3, size=(64, 128))
        int8, int4 = (quant_report(tmp_path, x, name) for name in ("int8", "int4"))
        assert (int8["scheme"], int4["scheme"]) == ("int8_absmax", "int4_absmean")
        assert int8["mse"] <= int4["mse"]

    def test_labels_disambiguate_variants(self):
        assert scheme_label(QuantScheme.int4(multiplier=2.0)) == "int4_absmean_x2"
        assert scheme_label(QuantScheme.unsigned(3)) == "unsigned_absmax_3bit"
        assert scheme_label(None) == "identity"

    def test_empty_input_rejected(self, tmp_path, capsys):
        tensor = tmp_path / "empty.ba48"
        save_tensor(tensor, np.zeros((0,)))
        args = ["quant", "--tensor", str(tensor), "--out-dir", str(tmp_path / "q"), "--scheme", "int8"]
        assert main(args) == 1
        assert "error: input is empty" in capsys.readouterr().err


class TestPerplexity:
    def test_uniform_model_ppl_equals_vocab(self):
        model = tiny_model()
        model.head.value = np.zeros_like(model.head.value)
        ppl = eval_perplexity(model, tiny_stream(), n_batches=2)
        assert ppl == pytest.approx(32.0, rel=1e-9)

    def test_exp_of_mean_token_nll_over_batches(self):
        # three batches whose losses differ, so a median, or a mean of
        # per-batch perplexities, misses exp of the mean token NLL
        model = tiny_model(stage=Stage.STAGE2)
        model.head.value = model.head.value * 50.0
        stream = tiny_stream(seed=9)
        batches = [next(stream) for _ in range(3)]
        nll = []
        for inputs, targets in batches:
            with ad.no_grad():
                logits = model_forward(model, inputs).value
            shifted = logits - logits.max(axis=-1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            nll.append(-np.take_along_axis(logp, targets[..., None], axis=-1))
        assert len({float(n.mean()) for n in nll}) == 3
        expected = np.exp(np.concatenate(nll).mean())
        assert eval_perplexity(model, iter(batches), n_batches=3) == pytest.approx(expected, rel=1e-12)

    def test_deterministic(self):
        model = tiny_model(stage=Stage.STAGE2)
        a = eval_perplexity(model, tiny_stream(seed=9), n_batches=2)
        b = eval_perplexity(model, tiny_stream(seed=9), n_batches=2)
        assert a == b
