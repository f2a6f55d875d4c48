"""End-to-end command-line runs on miniature models: artifact layout,
manifest checksums, preset expansion, exit codes, reproducibility."""

import copy
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from ternact import cli
from ternact.cli import ABLATION_PRESETS, ConfigError, main, resolve_config
from ternact.layers import Site
from ternact.model import BINDINGS, Stage, stage_bindings
from ternact.quantcore import SCHEMES, Granularity
from ternact.tensorio import CHECKPOINT_MAGIC, load_checkpoint, load_quantized, save_tensor

TINY_FLAGS = [
    "--hidden-size", "16",
    "--glu-size", "44",
    "--n-layers", "2",
    "--n-heads", "2",
    "--vocab-size", "32",
    "--seq-len", "8",
    "--batch-size", "2",
    "--warmup-steps", "2",
]


def run_train(out_dir, *extra):
    return main(["train", "--out-dir", str(out_dir), *TINY_FLAGS, *extra])


class TestResolveConfig:
    def test_defaults_pass_through(self):
        cfg = resolve_config(None, {})
        assert cfg["hidden_size"] == 128
        assert cfg["ablation"] is None

    def test_file_then_flags_precedence(self, tmp_path):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({"total_steps": 99, "peak_lr": 0.5}))
        cfg = resolve_config(str(cfile), {"total_steps": 7})
        assert cfg["total_steps"] == 7
        assert cfg["peak_lr"] == 0.5

    def test_preset_expands_to_plain_keys(self):
        cfg = resolve_config(None, {"ablation": "full-int4"})
        assert cfg["single_stage"] == "stage2"
        assert cfg["divergence_expected"] is True
        assert cfg["site_bindings"]["down"]["scheme"] == "int4x2"

    def test_flags_override_preset(self):
        cfg = resolve_config(None, {"ablation": "hybrid", "single_stage": "stage1"})
        assert cfg["single_stage"] == "stage1"

    def test_preset_overrides_file(self, tmp_path):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({"single_stage": "stage1", "peak_lr": 0.5}))
        cfg = resolve_config(str(cfile), {"ablation": "hybrid"})
        assert cfg["single_stage"] == "stage2"
        assert cfg["peak_lr"] == 0.5

    def test_unknown_config_keys_rejected(self, tmp_path):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({"hidden_sizes": 4}))
        with pytest.raises(ConfigError):
            resolve_config(str(cfile), {})

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config("/nonexistent/c.json", {})

    def test_every_preset_is_expandable(self):
        for name in ABLATION_PRESETS:
            cfg = resolve_config(None, {"ablation": name})
            assert cfg["site_bindings"], name


    @pytest.mark.parametrize(
        "key,value",
        [("total_steps", "3"), ("total_steps", 3.0), ("total_steps", True), ("peak_lr", False),
         ("peak_lr", "1e-3"), ("fp4_mode", 1), ("activation", 2)],
    )
    def test_value_of_wrong_type_rejected(self, tmp_path, key, value):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({key: value}))
        with pytest.raises(ConfigError, match=key):
            resolve_config(str(cfile), {})

    def test_int_accepted_for_float_and_none_defaults_unchecked(self, tmp_path):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({"peak_lr": 1, "fp4_mode": True, "single_stage": "stage2"}))
        cfg = resolve_config(str(cfile), {})
        assert (cfg["peak_lr"], cfg["fp4_mode"], cfg["single_stage"]) == (1, True, "stage2")


def _row(qkv, attn_out, gate, up, down):
    """A per-site binding row from (scheme, k) pairs, in site order."""
    pairs = zip(("qkv", "attn_out", "gate", "up", "down"), (qkv, attn_out, gate, up, down))
    return {site: {"scheme": scheme, "k": k} for site, (scheme, k) in pairs}


class TestBindingTable:
    """The paper's per-site bindings, written out here as literals: what
    each stage binds, and what each ablation preset runs."""

    STAGE1 = _row(("int8", None), ("int8", None), ("int8", None), ("int8", None), ("int8", None))
    STAGE2 = _row(("int4", None), ("int8", 0.5), ("int4", None), ("int4", None), ("int8", None))
    STAGE2_FP4 = _row(("fp4", None), ("int8", 0.5), ("fp4", None), ("fp4", None), ("int8", None))
    # preset: (site_bindings, activation, divergence_expected)
    PRESETS = {
        "hybrid": (STAGE2, "relu2", False),
        "full-int4": (
            _row(("int4", None), ("int4", 0.5), ("int4", None), ("int4", None), ("int4x2", None)),
            "relu2",
            True,
        ),
        "full-fp4": (
            _row(("fp4", None), ("fp4", 0.5), ("fp4", None), ("fp4", None), ("fp4", None)),
            "relu2",
            False,
        ),
        "down-int8": (STAGE2, "relu2", False),
        "down-fp4": (
            _row(("int4", None), ("int8", 0.5), ("int4", None), ("int4", None), ("fp4", None)),
            "relu2",
            False,
        ),
        "down-relu2-vs-swish": (STAGE2, "silu", False),
        "outproj-topk-on": (STAGE2, "relu2", False),
        "outproj-topk-off": (
            _row(("int4", None), ("int8", None), ("int4", None), ("int4", None), ("int8", None)),
            "relu2",
            False,
        ),
    }

    def test_paper_bindings(self):
        def resolved(row):
            return {Site(site): (SCHEMES[b["scheme"]], b["k"]) for site, b in row.items()}

        for fp4_mode in (False, True):
            assert stage_bindings(Stage.STAGE1, fp4_mode) == resolved(self.STAGE1)
        assert stage_bindings(Stage.STAGE2, False) == resolved(self.STAGE2)
        assert stage_bindings(Stage.STAGE2, True) == resolved(self.STAGE2_FP4)
        assert set(ABLATION_PRESETS) == set(self.PRESETS)
        for name, expected in self.PRESETS.items():
            cfg = resolve_config(None, {"ablation": name})
            assert cfg["single_stage"] == "stage2", name
            assert (cfg["site_bindings"], cfg["activation"], cfg["divergence_expected"]) == expected, name

    @pytest.mark.parametrize("preset", sorted(ABLATION_PRESETS))
    def test_resolved_bindings_are_a_copy(self, preset):
        # the table's rows share inner dicts; a run's config must not
        table, presets = copy.deepcopy(BINDINGS), copy.deepcopy(ABLATION_PRESETS)
        bindings = resolve_config(None, {"ablation": preset})["site_bindings"]
        for binding in bindings.values():
            binding.update(scheme="int8", k=1.0)
        bindings["qkv"] = {"scheme": "fp4", "k": None}
        assert BINDINGS == table
        assert ABLATION_PRESETS == presets


class TestTrain:
    def test_zero_steps_emits_initial_checkpoint_only(self, tmp_path):
        assert run_train(tmp_path, "--steps", "0") == 0
        assert (tmp_path / "init.ckpt").exists()
        assert not (tmp_path / "final.ckpt").exists()
        assert not (tmp_path / "boundary.ckpt").exists()
        assert (tmp_path / "log.csv").read_text() == "step,stage,lr,wd,loss,grad_norm\n"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert set(manifest["artifacts"]) == {"init.ckpt", "log.csv"}

    def test_short_two_stage_run_artifacts(self, tmp_path):
        assert run_train(tmp_path, "--steps", "6", "--stage-split", "0.67") == 0
        lines = (tmp_path / "log.csv").read_text().strip().split("\n")
        assert lines[0] == "step,stage,lr,wd,loss,grad_norm"
        assert len(lines) == 7
        stages = [line.split(",")[1] for line in lines[1:]]
        assert stages == ["stage1"] * 4 + ["stage2"] * 2
        model, extra = load_checkpoint(tmp_path / "final.ckpt")
        assert model.config.stage is Stage.STAGE2
        assert extra["step"] == 6
        boundary, bextra = load_checkpoint(tmp_path / "boundary.ckpt")
        assert bextra["step"] == 4
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["diverged"] is None
        assert {"init.ckpt", "boundary.ckpt", "final.ckpt", "log.csv"} <= set(
            manifest["artifacts"]
        )

    def test_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_train(a, "--steps", "5") == 0
        assert run_train(b, "--steps", "5") == 0
        assert (a / "log.csv").read_bytes() == (b / "log.csv").read_bytes()
        assert (a / "final.ckpt").read_bytes() == (b / "final.ckpt").read_bytes()
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        assert ma["artifacts"] == mb["artifacts"]

    def test_ablation_preset_binds_sites(self, tmp_path):
        assert run_train(tmp_path, "--steps", "2", "--ablation", "outproj-topk-off") == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["ablation"] == "outproj-topk-off"
        assert manifest["config"]["site_bindings"]["attn_out"]["k"] is None
        assert manifest["config"]["single_stage"] == "stage2"
        lines = (tmp_path / "log.csv").read_text().strip().split("\n")[1:]
        assert all(line.split(",")[1] == "stage2" for line in lines)

    @pytest.mark.parametrize(
        "flag, value", [("--steps", "-3"), ("--batch-size", "0"), ("--batch-size", "-1")]
    )
    def test_bad_run_length_rejected_before_writing(self, tmp_path, capsys, flag, value):
        out = tmp_path / "run"
        assert run_train(out, flag, value) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, key",
        [
            (["--peak-lr", "nan"], "peak_lr"),
            (["--peak-lr", "inf"], "peak_lr"),
            (["--warmup-steps", "-3"], "warmup_steps"),
            ('{"second_stage_lr": Infinity}', "second_stage_lr"),
            ('{"wd_first": -0.1}', "wd_first"),
            ('{"wd_second": NaN}', "wd_second"),
        ],
        ids=["peak-lr-nan", "peak-lr-inf", "warmup-negative", "second-stage-lr-inf",
             "wd-first-negative", "wd-second-nan"],
    )
    def test_bad_rate_or_warmup_rejected_before_writing(self, tmp_path, capsys, extra, key):
        if isinstance(extra, str):  # a config file: JSON reads NaN and Infinity
            (tmp_path / "c.json").write_text(extra)
            extra = ["--config", str(tmp_path / "c.json")]
        out = tmp_path / "run"
        assert run_train(out, "--steps", "2", *extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "binding",
        [
            {"ffn": {"scheme": "int4", "k": None}},
            {"qkv": {"scheme": "int5", "k": None}},
            {"qkv": {"k": None}},
            {"attn_out": {"scheme": "int8", "k": 0}},
        ],
        ids=["unknown-site", "unknown-scheme", "missing-scheme", "k-zero"],
    )
    def test_bad_site_bindings_rejected_before_writing(self, tmp_path, capsys, binding):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({"site_bindings": binding}))
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfile), "--out-dir", str(out), *TINY_FLAGS, "--steps", "2"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("preset", sorted(ABLATION_PRESETS))
    def test_checkpoint_reloads_with_trained_bindings(self, tmp_path, monkeypatch, preset):
        trained = {}
        save = cli.save_checkpoint

        def spy(path, model, extra=None):
            bound = [(layer.input_scheme, layer.k_fraction) for layer in model.projection_layers()]
            trained[Path(path).name] = bound
            save(path, model, extra=extra)

        monkeypatch.setattr(cli, "save_checkpoint", spy)
        assert run_train(tmp_path, "--steps", "2", "--ablation", preset) == 0
        loaded, _ = load_checkpoint(tmp_path / "final.ckpt")
        reloaded = [(layer.input_scheme, layer.k_fraction) for layer in loaded.projection_layers()]
        assert reloaded == trained["final.ckpt"]
        preset_bindings = ABLATION_PRESETS[preset]["site_bindings"]
        expected = [preset_bindings[layer.site.value] for layer in loaded.projection_layers()]
        assert reloaded == [(SCHEMES[b["scheme"]], b["k"]) for b in expected]

    def test_config_file_feeds_run(self, tmp_path):
        cfile = tmp_path / "c.json"
        cfile.write_text(
            json.dumps(
                {
                    "hidden_size": 16, "glu_size": 44, "n_layers": 2, "n_heads": 2,
                    "vocab_size": 32, "seq_len": 8, "batch_size": 2,
                    "warmup_steps": 2, "total_steps": 3,
                }
            )
        )
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfile), "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["hidden_size"] == 16
        assert manifest["config"]["total_steps"] == 3

    def test_bad_config_file_is_usage_error(self, tmp_path):
        cfile = tmp_path / "c.json"
        cfile.write_text("{not json")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfile), "--out-dir", str(out)]) == 1

    def test_wrong_typed_config_value_is_usage_error(self, tmp_path, capsys):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({"total_steps": "3"}))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfile), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "total_steps" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_non_finite_forward_is_divergence(self, tmp_path, capsys):
        # the weights blow past float64 range: the quantizers see inf, the
        # steps report non-finite losses and the monitor ends the run
        assert run_train(tmp_path, "--steps", "80", "--peak-lr", "1e100") == 3
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert isinstance(manifest["diverged"], int)
        assert (tmp_path / "diverged.marker").read_text() == f"step {manifest['diverged']}\n"
        rows = (tmp_path / "log.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == manifest["diverged"] + 1
        assert rows[-1].split(",")[4] == "nan"
        # the run reports where it diverged, not the mean loss from before
        out = capsys.readouterr().out
        assert f"trained {len(rows)} steps; divergence detected at step {manifest['diverged']}\n" in out
        assert "smoothed loss" not in out
        # weights past f32's range leave no final.ckpt, and the manifest
        # lists only what was written
        assert "final.ckpt not written: parameter embedding is not finite in f32" in out
        assert not (tmp_path / "final.ckpt").exists()
        assert set(manifest["artifacts"]) == {"init.ckpt", "log.csv", "diverged.marker"}
        assert {p.name for p in tmp_path.iterdir()} == {*manifest["artifacts"], "manifest.json"}

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_boundary_past_f32_before_divergence_still_diverges(self, tmp_path, capsys):
        # the stage boundary (step 40) falls after the weights pass f32's
        # range and before the monitor ends the run (step 50)
        assert run_train(tmp_path, "--steps", "80", "--peak-lr", "1e100", "--stage-split", "0.5") == 3
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert (tmp_path / "diverged.marker").read_text() == f"step {manifest['diverged']}\n"
        assert manifest["diverged"] > 40
        out = capsys.readouterr().out
        assert "boundary.ckpt not written: parameter embedding is not finite in f32" in out
        assert not (tmp_path / "boundary.ckpt").exists()
        assert set(manifest["artifacts"]) == {"init.ckpt", "log.csv", "diverged.marker"}

    def test_refused_checkpoint_without_divergence_is_an_error(self, tmp_path, monkeypatch):
        def refuse_final(path, model, extra=None):
            if Path(path).name == "final.ckpt":
                raise ValueError("parameter embedding is not finite in f32; checkpoint not written")
            save_checkpoint(path, model, extra)

        save_checkpoint = cli.save_checkpoint
        monkeypatch.setattr(cli, "save_checkpoint", refuse_final)
        assert run_train(tmp_path, "--steps", "3") == 1
        assert not (tmp_path / "final.ckpt").exists()

    def test_unknown_ablation_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out-dir", str(tmp_path), "--ablation", "everything"])
        assert exc.value.code == 1

    def test_missing_out_dir_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])
        assert exc.value.code == 1


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(
        ["train", "--out-dir", str(out), *TINY_FLAGS, "--steps", "4", "--stage-split", "0.5"]
    )
    assert code == 0
    return out


class TestGradcheck:
    def test_passes_and_reports(self, tmp_path, capsys):
        assert main(["gradcheck", "--samples", "4", "--out-dir", str(tmp_path)]) == 0
        assert "PASS" in capsys.readouterr().out
        report = json.loads((tmp_path / "gradcheck.json").read_text())
        assert report["passed"] is True
        assert report["max_rel_error"] <= report["tolerance"]

    def test_impossible_tolerance_fails_with_2(self, capsys):
        assert main(["gradcheck", "--samples", "2", "--tolerance", "1e-18"]) == 2
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag,value",
        [("--samples", "0"), ("--samples", "-1"), ("--tolerance", "-1"), ("--tolerance", "0"),
         ("--tolerance", "nan"), ("--tolerance", "inf")],
    )
    def test_bad_flag_rejected_before_checking(self, tmp_path, capsys, flag, value):
        out = tmp_path / "gc"
        assert main(["gradcheck", flag, value, "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and flag in captured.err
        assert "checked" not in captured.out
        assert not out.exists()


class TestSparsity:
    def test_report_artifacts(self, trained_dir, tmp_path):
        out = tmp_path / "sp"
        code = main(
            [
                "sparsity",
                "--checkpoint", str(trained_dir / "final.ckpt"),
                "--out-dir", str(out),
                "--batches", "2",
            ]
        )
        assert code == 0
        lines = (out / "sparsity.csv").read_text().strip().split("\n")
        assert lines[0] == "site,sparsity_pct,params"
        report = json.loads((out / "sparsity.json").read_text())
        out_row = report["sparsity_pct"]["out"]
        assert 50.0 <= out_row <= 60.0

    def test_missing_checkpoint_is_usage_error(self, tmp_path):
        assert (
            main(
                [
                    "sparsity",
                    "--checkpoint", str(tmp_path / "nope.ckpt"),
                    "--out-dir", str(tmp_path),
                ]
            )
            == 1
        )


class TestHist:
    def test_histogram_csv(self, trained_dir, tmp_path):
        out = tmp_path / "h"
        code = main(
            [
                "hist",
                "--checkpoint", str(trained_dir / "final.ckpt"),
                "--out-dir", str(out),
                "--site", "qkv",
                "--bins", "16",
                "--batches", "1",
            ]
        )
        assert code == 0
        lines = (out / "hist_qkv.csv").read_text().strip().split("\n")
        assert lines[0] == "bin_left,count"
        assert len(lines) == 17
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert sum(counts) > 0


class TestKvEval:
    def test_comparison_table(self, trained_dir, tmp_path):
        out = tmp_path / "kv"
        code = main(
            [
                "kv-eval",
                "--checkpoint", str(trained_dir / "final.ckpt"),
                "--out-dir", str(out),
                "--kv-bits", "4",
                "--batches", "2",
            ]
        )
        assert code == 0
        lines = (out / "kv_eval.csv").read_text().strip().split("\n")
        assert lines[0] == "kv_bits,q_bits,perplexity"
        assert lines[1].startswith("8,16,")
        assert lines[2].startswith("4,16,")
        report = json.loads((out / "kv_eval.json").read_text())
        assert report["variant"]["kv_bits"] == 4
        assert "degradation_pct" in report


class TestQuant:
    def test_quantize_tensor_file(self, tmp_path):
        x = np.random.default_rng(0).standard_normal((8, 16))
        tensor_path = tmp_path / "x.ba48"
        save_tensor(tensor_path, x)
        out = tmp_path / "q"
        code = main(
            ["quant", "--tensor", str(tensor_path), "--out-dir", str(out), "--scheme", "int8"]
        )
        assert code == 0
        q = load_quantized(out / "x.int8.q48")
        assert q.codes.shape == (8, 16)
        stats = json.loads((out / "quant_stats.json").read_text())
        assert stats["mse"] > 0
        assert stats["max_abs_err"] > 0

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_scalar_tensor_needs_per_tensor(self, tmp_path, capsys, scheme):
        tensor_path = tmp_path / "s.t"
        save_tensor(tensor_path, np.array(3.0))
        argv = ["quant", "--tensor", str(tensor_path), "--scheme", scheme]
        if SCHEMES[scheme].granularity is Granularity.PER_TOKEN:
            assert main([*argv, "--out-dir", str(tmp_path / "q")]) == 1
            assert "--per-tensor" in capsys.readouterr().err
            assert not (tmp_path / "q").exists()
        out = tmp_path / "qt"
        assert main([*argv, "--per-tensor", "--out-dir", str(out)]) == 0
        q = load_quantized(out / f"s.{scheme}.q48")
        assert q.codes.shape == () and q.scales.shape == ()

    def test_missing_tensor_is_usage_error(self, tmp_path):
        assert (
            main(
                ["quant", "--tensor", str(tmp_path / "no.ba48"), "--out-dir", str(tmp_path), "--scheme", "int8"]
            )
            == 1
        )


@pytest.mark.parametrize(
    "command", ["sparsity", "hist", "kv-eval", "quant", "quant-empty", "quant-nan", "quant-inf"]
)
def test_bad_input_leaves_no_out_dir(tmp_path, capsys, command):
    out = tmp_path / "x" / "out"
    missing = str(tmp_path / "missing.ckpt")
    argv = {
        "sparsity": ["sparsity", "--checkpoint", missing],
        "hist": ["hist", "--checkpoint", missing, "--site", "qkv"],
        "kv-eval": ["kv-eval", "--checkpoint", missing],
        "quant": ["quant", "--tensor", str(tmp_path / "missing.ba48"), "--scheme", "int8"],
        "quant-empty": ["quant", "--tensor", str(tmp_path / "empty.ba48"), "--scheme", "int8"],
        "quant-nan": ["quant", "--tensor", str(tmp_path / "nan.ba48"), "--scheme", "int8"],
        "quant-inf": ["quant", "--tensor", str(tmp_path / "inf.ba48"), "--scheme", "int8"],
    }[command]
    save_tensor(tmp_path / "empty.ba48", np.zeros((0, 4)))
    for bad in (np.nan, np.inf):
        save_tensor(tmp_path / f"{bad}.ba48", np.array([[1.0, bad], [2.0, 3.0]]))
    assert main([*argv, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command,offset,byte",
    [("sparsity", 13, 0xFF), ("sparsity", 16, 0xFF), ("kv-eval", 13, 0xFF), ("quant", 12, 0x7F)],
    ids=["sparsity-header-length", "sparsity-header-length-top-byte", "kv-eval-header-length", "quant-dim-top-byte"],
)
def test_length_field_past_the_file_is_one_error_line(trained_dir, tmp_path, capsys, command, offset, byte):
    # a checkpoint's header length or a tensor's dim that claims more bytes
    # than the file holds exits 1 with one error line, not a traceback
    if command != "quant":
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes((trained_dir / "final.ckpt").read_bytes())
        argv = [command, "--checkpoint", str(path)]
    else:
        path = tmp_path / "corrupt.ba48"
        save_tensor(path, np.ones(16))
        argv = ["quant", "--tensor", str(path), "--scheme", "int8"]
    data = bytearray(path.read_bytes())
    data[offset] = byte
    path.write_bytes(bytes(data))
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [("hist", "--bins", "0"), ("hist", "--batches", "0"), ("hist", "--bins", "-2"),
     ("sparsity", "--batches", "0"), ("kv-eval", "--batches", "0")],
)
def test_bad_report_flag_names_the_flag(trained_dir, tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    argv = [command, "--checkpoint", str(trained_dir / "final.ckpt"), "--out-dir", str(out), flag, value]
    if command == "hist":
        argv += ["--site", "qkv"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag} must be at least 1")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [("sparsity", "--seed"), ("hist", "--seed"), ("kv-eval", "--seed"), ("quant", "--seed"), ("quant", "--config")],
)
def test_flag_nothing_reads_is_a_usage_error(tmp_path, capsys, command, flag):
    # the reports read no seed and quant reads no config: such a flag exits 1
    # at the parser and creates no out-dir
    out = tmp_path / "out"
    argv = {"quant": ["--tensor", "x.ba48", "--scheme", "int8"], "hist": ["--checkpoint", "x", "--site", "qkv"]}
    argv = [command, *argv.get(command, ["--checkpoint", "x"]), "--out-dir", str(out), flag, "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not out.exists()


HELD_OUT = {
    "vocab_size": 32, "n_successors": 8, "zipf_exponent": 1.0, "data_seed": 0,
    "seq_len": 8, "batch_size": 16, "eval_seed": 2,
}


@pytest.mark.parametrize(
    "command, recorded",
    [("gradcheck", {"seed": 0, "data_seed": 0, "stream_seed": 1}), ("sparsity", HELD_OUT),
     ("hist", HELD_OUT), ("kv-eval", HELD_OUT), ("quant", None)],
)
def test_manifest_records_only_what_the_command_read(trained_dir, tmp_path, command, recorded):
    # a report records the held-out data parameters it drew batches with
    # (here the checkpoint's vocabulary and length), and no seed; quant
    # reads no config
    tensor = tmp_path / "x.ba48"
    save_tensor(tensor, np.arange(8.0).reshape(2, 4))
    checkpoint = ["--checkpoint", str(trained_dir / "final.ckpt"), "--batches", "1"]
    argv = {
        "gradcheck": ["--samples", "2"],
        "sparsity": checkpoint,
        "hist": [*checkpoint, "--site", "qkv"],
        "kv-eval": checkpoint,
        "quant": ["--tensor", str(tensor), "--scheme", "int8"],
    }[command]
    out = tmp_path / "out"
    assert main([command, *argv, "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest.get("config") == recorded
    assert manifest.get("seed") == (recorded or {}).get("seed")
    assert ("seed" in manifest) == ("seed" in (recorded or {}))


@pytest.mark.parametrize(
    "header",
    [{"format": 1, "model_config": {}, "extra": {}},
     {"format": 1, "model_config": {"bogus": 1}, "param_names": [], "extra": {}},
     [1, 2]],
    ids=["no-param-names", "unknown-config-key", "list"],
)
def test_malformed_checkpoint_header_is_usage_error(tmp_path, capsys, header):
    blob = json.dumps(header).encode()
    path = tmp_path / "bad.ckpt"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob)
    out = tmp_path / "out"
    assert main(["sparsity", "--checkpoint", str(path), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: unreadable checkpoint {path}: malformed checkpoint header")
    assert not out.exists()
