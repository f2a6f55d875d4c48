"""Command-line entry point: training runs, ablation presets, gradient
checking, and measurement reports.

Configuration is a flat JSON object; command-line flags override file values,
ablation presets expand to ordinary config keys (so a run's manifest shows
exactly what was bound where), and every command records only the settings
it read plus artifact checksums in ``manifest.json`` under the output directory.

Exit codes: 0 success, 1 usage or bad input, 2 check failure, 3 divergence
detected where none was expected (expected divergence is recorded via a
``diverged.marker`` artifact and exits 0).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .data import MarkovChain, MarkovDataConfig, batch_stream
from .layers import VALID_KV_BITS, VALID_Q_BITS, Site
from .metrics import activation_histogram, eval_perplexity, scheme_label, sparsity_report
from .model import BINDINGS, ModelConfig, TransformerModel
from .quantcore import SCHEMES, Granularity, dequantize, quantize
from .tensorio import (
    FormatError,
    load_checkpoint,
    load_tensor,
    save_checkpoint,
    save_quantized,
)
from .train import TrainerConfig, grad_check_ste, run_two_stage

DEFAULTS: dict = {
    # model
    "hidden_size": 128,
    "glu_size": 344,
    "n_heads": 4,
    "n_layers": 4,
    "vocab_size": 256,
    "seq_len": 32,
    "fp4_mode": False,
    "kv_bits": 8,
    "q_bits": 16,
    "activation": "relu2",
    # trainer
    "total_steps": 600,
    "stage_split": 0.95,
    "peak_lr": 1.5e-3,
    "second_stage_lr": 1.0e-3,
    "wd_first": 0.1,
    "wd_second": 0.0,
    "warmup_steps": 50,
    "batch_size": 16,
    # data
    "n_successors": 8,
    "zipf_exponent": 1.0,
    "data_seed": 0,
    "stream_seed": 1,
    "eval_seed": 2,
    # run
    "seed": 0,
    "ablation": None,
    "single_stage": None,
    "site_bindings": None,
    "divergence_expected": False,
}

# Each preset is a plain config overlay: a single-stage run at a row of
# model.BINDINGS (hybrid, down-int8 and outproj-topk-on all name the stage-2
# row), identical schedule, so runs differ only in what is quantized. The
# bindings travel in ModelConfig.site_bindings, so checkpoints keep them.
ABLATION_PRESETS: dict[str, dict] = {
    name: {"single_stage": "stage2", "site_bindings": BINDINGS[row], **settings}
    for name, row, settings in (
        ("hybrid", "stage2", {}),
        ("full-int4", "full-int4", {"divergence_expected": True}),
        ("full-fp4", "full-fp4", {}),
        ("down-int8", "stage2", {}),
        ("down-fp4", "down-fp4", {}),
        ("down-relu2-vs-swish", "stage2", {"activation": "silu"}),
        ("outproj-topk-on", "stage2", {}),
        ("outproj-topk-off", "outproj-topk-off", {}),
    )
}


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; this tool reserves 2 for
    check failures and uses 1 for usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _check_type(key: str, value) -> None:
    """Reject a config-file value whose type does not match its default's;
    bool never passes for a number, and an int passes for a float. Keys that
    default to None are checked where they are used."""
    default = DEFAULTS[key]
    if default is None:
        return
    if isinstance(default, bool):
        ok = isinstance(value, bool)
    else:
        accepted = (int, float) if isinstance(default, float) else type(default)
        ok = isinstance(value, accepted) and not isinstance(value, bool)
    if not ok:
        raise ConfigError(
            f"config key {key} must be {type(default).__name__}, got {type(value).__name__} {value!r}"
        )


def resolve_config(config_file: str | None, overrides: dict) -> dict:
    """defaults -> JSON file -> ablation preset -> explicit flag overrides."""
    cfg = dict(DEFAULTS)
    if config_file is not None:
        try:
            loaded = json.loads(Path(config_file).read_text())
        except FileNotFoundError as e:
            raise ConfigError(f"config file not found: {config_file}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from e
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            _check_type(key, value)
        cfg.update(loaded)
    overrides = {k: v for k, v in overrides.items() if v is not None}
    ablation = overrides.get("ablation", cfg.get("ablation"))
    if ablation is not None:
        if ablation not in ABLATION_PRESETS:
            raise ConfigError(f"unknown ablation preset: {ablation}")
        cfg["ablation"] = ablation
        cfg.update(copy.deepcopy(ABLATION_PRESETS[ablation]))
    cfg.update(overrides)
    return cfg


def _from_cfg(cls, cfg: dict):
    """A ModelConfig or TrainerConfig from the config's values of its fields."""
    return cls(**{f.name: cfg[f.name] for f in dataclasses.fields(cls) if f.name in cfg})


def _chain(cfg: dict) -> MarkovChain:
    return MarkovChain(
        MarkovDataConfig(
            vocab_size=cfg["vocab_size"],
            n_successors=cfg["n_successors"],
            zipf_exponent=cfg["zipf_exponent"],
            seed=cfg["data_seed"],
        )
    )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out: Path, command: str, artifacts: list[Path], **fields) -> None:
    """Record the command, its artifacts' checksums and ``fields``: only the
    settings the command read (``config``, ``seed``), so the manifest states
    its provenance, and the run's outcome."""
    manifest = {
        "command": command,
        "out_dir": str(out),
        "artifacts": {p.name: _sha256(p) for p in artifacts},
        **fields,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_model(path: str) -> tuple[TransformerModel, dict]:
    try:
        return load_checkpoint(path)
    except FileNotFoundError as e:
        raise ConfigError(f"checkpoint not found: {path}") from e
    except FormatError as e:
        raise ConfigError(f"unreadable checkpoint {path}: {e}") from e


def _eval_stream(cfg: dict, model: TransformerModel, extra: dict):
    """Held-out batches matching the checkpoint's data parameters (falling
    back to the resolved config) and the model's own vocabulary, and the
    parameters they were drawn with."""
    data = {**cfg, **extra.get("data", {})}
    held_out = {
        "vocab_size": model.config.vocab_size,
        "n_successors": data["n_successors"],
        "zipf_exponent": data["zipf_exponent"],
        "data_seed": data["data_seed"],
        "seq_len": min(data["seq_len"], model.config.seq_len),
        "batch_size": cfg["batch_size"],
        "eval_seed": cfg["eval_seed"],
    }
    stream = batch_stream(
        _chain(held_out), held_out["batch_size"], held_out["seq_len"], held_out["eval_seed"]
    )
    return stream, held_out


def cmd_train(cfg: dict, args) -> int:
    # everything that can reject the config runs before anything is written
    if cfg["total_steps"] < 0:
        raise ConfigError(f"--steps must be at least 0, got {cfg['total_steps']}")
    if cfg["batch_size"] < 1:
        raise ConfigError(f"--batch-size must be at least 1, got {cfg['batch_size']}")
    model = TransformerModel(_from_cfg(ModelConfig, cfg), seed=cfg["seed"])
    trainer = stream = None
    if cfg["total_steps"] > 0:
        trainer = _from_cfg(TrainerConfig, cfg)
        stream = batch_stream(_chain(cfg), cfg["batch_size"], cfg["seq_len"], cfg["stream_seed"])
    out = _out_dir(args)
    data_extra = {
        "data": {
            "n_successors": cfg["n_successors"],
            "zipf_exponent": cfg["zipf_exponent"],
            "data_seed": cfg["data_seed"],
            "seq_len": cfg["seq_len"],
        }
    }
    artifacts = [out / "init.ckpt", out / "log.csv"]
    save_checkpoint(out / "init.ckpt", model, extra={"step": 0, **data_extra})

    rows: list[str] = []
    diverged_step = None
    if trainer is not None:
        refused: list[ValueError] = []

        def checkpoint(name, m, step):
            # weights past f32's range are refused; a run that diverges goes
            # on without the file, any other run fails once it ends
            try:
                save_checkpoint(out / name, m, extra={"step": step, **data_extra})
            except ValueError as e:
                print(f"{name} not written: {e}")
                refused.append(e)
                return
            artifacts.append(out / name)

        def on_boundary(m, state, step):
            checkpoint("boundary.ckpt", m, step)

        def on_record(r):
            rows.append(f"{r.step},{r.stage},{r.lr!r},{r.wd!r},{r.loss!r},{r.grad_norm!r}")

        log = run_two_stage(model, stream, trainer, on_boundary=on_boundary, on_record=on_record)
        diverged_step = log.divergence_step
        checkpoint("final.ckpt", model, len(log.records))
        if refused and diverged_step is None:
            raise refused[0]
        if diverged_step is None:
            print(f"trained {len(log.records)} steps; smoothed loss {log.smoothed_loss():.4f}")
        else:
            print(f"trained {len(log.records)} steps; divergence detected at step {diverged_step}")
    else:
        print("0 steps requested; wrote the initial checkpoint only")

    (out / "log.csv").write_text("step,stage,lr,wd,loss,grad_norm\n" + "".join(r + "\n" for r in rows))
    if diverged_step is not None:
        marker = out / "diverged.marker"
        marker.write_text(f"step {diverged_step}\n")
        artifacts.append(marker)
    _write_manifest(out, "train", artifacts, config=cfg, seed=cfg["seed"], diverged=diverged_step)
    if diverged_step is not None and not cfg["divergence_expected"]:
        return 3
    return 0


def cmd_gradcheck(cfg: dict, args) -> int:
    if args.samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")
    if not (np.isfinite(args.tolerance) and args.tolerance > 0.0):
        raise ConfigError(f"--tolerance must be a positive finite number, got {args.tolerance}")
    fixture = ModelConfig(
        hidden_size=16, glu_size=44, n_heads=2, n_layers=2, vocab_size=32, seq_len=16
    )
    model = TransformerModel(fixture, seed=cfg["seed"])
    chain = MarkovChain(MarkovDataConfig(vocab_size=32, seed=cfg["data_seed"]))
    batch = next(batch_stream(chain, batch_size=2, seq_len=8, seed=cfg["stream_seed"]))
    report = grad_check_ste(
        model,
        batch,
        samples_per_tensor=args.samples,
        tolerance=args.tolerance,
        seed=cfg["seed"],
    )
    for name in sorted(report.per_param):
        print(f"{name}: max rel err {report.per_param[name]:.3e}")
    print(
        f"checked {report.n_coordinates} coordinates; max rel err "
        f"{report.max_rel_error:.3e} (tolerance {report.tolerance:g}); "
        f"ste identity {'ok' if report.ste_identity_ok else 'BROKEN'}; "
        f"topk gating {'ok' if report.topk_gated_ok else 'BROKEN'}"
    )
    if args.out_dir is not None:
        out = _out_dir(args)
        payload = {
            "max_rel_error": report.max_rel_error,
            "n_coordinates": report.n_coordinates,
            "per_param": report.per_param,
            "ste_identity_ok": report.ste_identity_ok,
            "topk_gated_ok": report.topk_gated_ok,
            "tolerance": report.tolerance,
            "passed": report.passed,
        }
        (out / "gradcheck.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        seeds = {key: cfg[key] for key in ("seed", "data_seed", "stream_seed")}
        _write_manifest(out, "gradcheck", [out / "gradcheck.json"], config=seeds, seed=cfg["seed"])
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 2


def _check_at_least_one(args, *names: str) -> None:
    """Reject a report flag below 1 before anything loads."""
    for name in names:
        if getattr(args, name) < 1:
            raise ConfigError(f"--{name} must be at least 1, got {getattr(args, name)}")


def cmd_sparsity(cfg: dict, args) -> int:
    _check_at_least_one(args, "batches")
    model, extra = _load_model(args.checkpoint)
    stream, held_out = _eval_stream(cfg, model, extra)
    report = sparsity_report(model, stream, n_batches=args.batches)
    out = _out_dir(args)
    csv_path = out / "sparsity.csv"
    json_path = out / "sparsity.json"
    csv_path.write_text(report.to_csv_text())
    json_path.write_text(json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n")
    for site in ("qkv", "out", "up", "gate", "down"):
        print(f"{site}: {report.sparsity_pct[site]:.1f}%")
    print(f"overall: {report.overall_pct:.1f}%  activated params: {report.activated_params:.0f}")
    _write_manifest(out, "sparsity", [csv_path, json_path], config=held_out)
    return 0


def cmd_hist(cfg: dict, args) -> int:
    _check_at_least_one(args, "bins", "batches")
    model, extra = _load_model(args.checkpoint)
    stream, held_out = _eval_stream(cfg, model, extra)
    hist = activation_histogram(
        model, stream, args.site, bins=args.bins, n_batches=args.batches
    )
    out = _out_dir(args)
    path = out / f"hist_{args.site}.csv"
    path.write_text(hist.to_csv_text())
    print(f"{hist.sample_count} samples in {len(hist.counts)} bins -> {path}")
    _write_manifest(out, "hist", [path], config=held_out)
    return 0


def cmd_kv_eval(cfg: dict, args) -> int:
    _check_at_least_one(args, "batches")
    model, extra = _load_model(args.checkpoint)

    def ppl(kv_bits: int, q_bits: int) -> tuple[float, dict]:
        model.config.kv_bits = kv_bits
        model.config.q_bits = q_bits
        stream, held_out = _eval_stream(cfg, model, extra)
        return eval_perplexity(model, stream, n_batches=args.batches), held_out

    baseline, held_out = ppl(8, 16)
    variant, _ = ppl(args.kv_bits, args.q_bits)
    degradation = 100.0 * (variant - baseline) / baseline
    out = _out_dir(args)
    csv_path = out / "kv_eval.csv"
    csv_path.write_text(
        "kv_bits,q_bits,perplexity\n"
        f"8,16,{baseline!r}\n"
        f"{args.kv_bits},{args.q_bits},{variant!r}\n"
    )
    json_path = out / "kv_eval.json"
    json_path.write_text(
        json.dumps(
            {
                "baseline": {"kv_bits": 8, "q_bits": 16, "perplexity": baseline},
                "variant": {
                    "kv_bits": args.kv_bits,
                    "q_bits": args.q_bits,
                    "perplexity": variant,
                },
                "degradation_pct": degradation,
            },
            sort_keys=True,
            indent=2,
        )
        + "\n"
    )
    print(
        f"kv8/q16 perplexity {baseline:.4f}; kv{args.kv_bits}/q{args.q_bits} "
        f"{variant:.4f} ({degradation:+.2f}%)"
    )
    _write_manifest(out, "kv-eval", [csv_path, json_path], config=held_out)
    return 0


def cmd_quant(cfg: dict, args) -> int:
    try:
        x = load_tensor(args.tensor)
    except FileNotFoundError:
        raise ConfigError(f"tensor file not found: {args.tensor}")
    except FormatError as e:
        raise ConfigError(f"unreadable tensor {args.tensor}: {e}")
    if not np.isfinite(x).all():
        raise ConfigError(f"tensor {args.tensor} holds NaN or infinity")
    scheme = SCHEMES[args.scheme]
    if args.per_tensor:
        scheme = dataclasses.replace(scheme, granularity=Granularity.PER_TENSOR)
    q = quantize(x, scheme)
    deq = dequantize(q)
    err = deq - x
    report = {
        "scheme": scheme_label(scheme),
        "shape": list(x.shape),
        "mse": float(np.mean(err**2)),
        "max_abs_err": float(np.max(np.abs(err))),
    }
    out = _out_dir(args)
    q_path = out / (Path(args.tensor).stem + f".{args.scheme}.q48")
    save_quantized(q_path, q)
    report_path = out / "quant_stats.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    print(f"{report['scheme']}: mse {report['mse']:.3e}, max abs err {report['max_abs_err']:.3e}")
    _write_manifest(out, "quant", [q_path, report_path])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ternact", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def configured(p, seeded=False):
        p.add_argument("--config", help="JSON config file; flags override its values")
        if seeded:
            p.add_argument("--seed", type=int, default=None)

    p_train = sub.add_parser("train", help="run the two-stage recipe or an ablation preset")
    configured(p_train, seeded=True)
    p_train.add_argument("--out-dir", required=True)
    p_train.add_argument("--ablation", choices=sorted(ABLATION_PRESETS), default=None)
    p_train.add_argument("--steps", type=int, default=None, dest="total_steps")
    p_train.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    p_train.add_argument("--hidden-size", type=int, default=None, dest="hidden_size")
    p_train.add_argument("--glu-size", type=int, default=None, dest="glu_size")
    p_train.add_argument("--n-layers", type=int, default=None, dest="n_layers")
    p_train.add_argument("--n-heads", type=int, default=None, dest="n_heads")
    p_train.add_argument("--seq-len", type=int, default=None, dest="seq_len")
    p_train.add_argument("--vocab-size", type=int, default=None, dest="vocab_size")
    p_train.add_argument("--warmup-steps", type=int, default=None, dest="warmup_steps")
    p_train.add_argument("--peak-lr", type=float, default=None, dest="peak_lr")
    p_train.add_argument("--stage-split", type=float, default=None, dest="stage_split")
    p_train.add_argument("--kv-bits", type=int, choices=VALID_KV_BITS, default=None, dest="kv_bits")
    p_train.add_argument("--q-bits", type=int, choices=VALID_Q_BITS, default=None, dest="q_bits")
    p_train.add_argument(
        "--activation", choices=("relu2", "silu"), default=None, dest="activation"
    )
    p_train.add_argument(
        "--fp4-mode", action="store_const", const=True, default=None, dest="fp4_mode"
    )
    p_train.add_argument(
        "--single-stage", choices=("stage1", "stage2"), default=None, dest="single_stage"
    )
    p_train.set_defaults(func=cmd_train)

    p_grad = sub.add_parser("gradcheck", help="verify gradients on the small fixture model")
    configured(p_grad, seeded=True)
    p_grad.add_argument("--out-dir", default=None)
    p_grad.add_argument("--samples", type=int, default=25, help="coordinates per tensor")
    p_grad.add_argument("--tolerance", type=float, default=1e-4)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_sp = sub.add_parser("sparsity", help="measure per-site input sparsity of a checkpoint")
    configured(p_sp)
    p_sp.add_argument("--checkpoint", required=True)
    p_sp.add_argument("--out-dir", required=True)
    p_sp.add_argument("--batches", type=int, default=8)
    p_sp.set_defaults(func=cmd_sparsity)

    p_hist = sub.add_parser("hist", help="histogram of pre-quantization inputs at a site")
    configured(p_hist)
    p_hist.add_argument("--checkpoint", required=True)
    p_hist.add_argument("--out-dir", required=True)
    p_hist.add_argument("--site", choices=[s.value for s in Site], required=True)
    p_hist.add_argument("--bins", type=int, default=64)
    p_hist.add_argument("--batches", type=int, default=4)
    p_hist.set_defaults(func=cmd_hist)

    p_kv = sub.add_parser("kv-eval", help="held-out perplexity of a KV/Q bit-width variant")
    configured(p_kv)
    p_kv.add_argument("--checkpoint", required=True)
    p_kv.add_argument("--out-dir", required=True)
    p_kv.add_argument("--kv-bits", type=int, choices=VALID_KV_BITS, default=4)
    p_kv.add_argument("--q-bits", type=int, choices=VALID_Q_BITS, default=16)
    p_kv.add_argument("--batches", type=int, default=8)
    p_kv.set_defaults(func=cmd_kv_eval)

    p_q = sub.add_parser("quant", help="quantize a tensor file and report its error")
    p_q.add_argument("--tensor", required=True)
    p_q.add_argument("--out-dir", required=True)
    p_q.add_argument("--scheme", choices=sorted(SCHEMES), required=True)
    p_q.add_argument("--per-tensor", action="store_true")
    p_q.set_defaults(func=cmd_quant)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: getattr(args, k) for k in DEFAULTS if hasattr(args, k)}
    try:
        cfg = resolve_config(getattr(args, "config", None), overrides)
        return args.func(cfg, args)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
