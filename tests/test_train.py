"""Two-stage trainer: schedule shape, AdamW arithmetic, straight-through
adjoints vs finite differences, divergence detection, and bit-exact
reproducibility."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from ternact import autodiff as ad
from ternact import train
from ternact.data import MarkovChain, MarkovDataConfig, batch_stream
from ternact.model import ModelConfig, NonFiniteValueError, Stage, TransformerModel, model_forward
from ternact.quantcore import QuantScheme, SchemeKind, fake_quant
from ternact.sparsify import topk_mask
from ternact.train import (
    BITLINEAR_INPUTS,
    DivergenceMonitor,
    OptimizerState,
    StepRecord,
    TrainLog,
    TrainerConfig,
    adamw_update,
    global_grad_norm,
    grad_check_ste,
    lr_schedule,
    run_two_stage,
    ste_contract,
    train_step,
)


def tiny_model(seed=0, **overrides) -> TransformerModel:
    base = dict(
        hidden_size=16,
        glu_size=44,
        n_heads=2,
        n_layers=2,
        vocab_size=32,
        seq_len=16,
    )
    base.update(overrides)
    return TransformerModel(ModelConfig(**base), seed=seed)


def tiny_stream(seed=7, batch_size=2, seq_len=8):
    chain = MarkovChain(MarkovDataConfig(vocab_size=32, seed=0))
    return batch_stream(chain, batch_size=batch_size, seq_len=seq_len, seed=seed)


class TestSchedule:
    CFG = TrainerConfig(total_steps=1000, stage_split=0.95, warmup_steps=50)

    def test_warmup_is_linear(self):
        lr0, wd0 = lr_schedule(0, self.CFG)
        assert lr0 == pytest.approx(self.CFG.peak_lr / 50, rel=1e-12)
        assert wd0 == 0.1
        lr_mid, _ = lr_schedule(24, self.CFG)
        assert lr_mid == pytest.approx(self.CFG.peak_lr * 25 / 50, rel=1e-12)

    def test_peak_at_end_of_warmup(self):
        assert lr_schedule(49, self.CFG)[0] == pytest.approx(self.CFG.peak_lr, rel=1e-12)
        assert lr_schedule(50, self.CFG)[0] == pytest.approx(self.CFG.peak_lr, rel=1e-12)

    def test_stage1_decays_to_second_stage_rate(self):
        lr_last, wd_last = lr_schedule(949, self.CFG)
        assert wd_last == 0.1
        assert lr_last == pytest.approx(self.CFG.second_stage_lr, rel=1e-4)
        assert lr_last > self.CFG.second_stage_lr

    def test_no_rewarmup_at_boundary(self):
        lr_b, wd_b = lr_schedule(950, self.CFG)
        assert lr_b == self.CFG.second_stage_lr
        assert wd_b == 0.0
        assert abs(lr_schedule(949, self.CFG)[0] - lr_b) < 1e-6

    def test_stage2_decays_toward_zero(self):
        lr_end, wd_end = lr_schedule(999, self.CFG)
        assert wd_end == 0.0
        assert 0.0 < lr_end < 0.05 * self.CFG.second_stage_lr

    def test_nonincreasing_after_warmup(self):
        rates = [lr_schedule(s, self.CFG)[0] for s in range(49, 1000)]
        assert all(b <= a + 1e-18 for a, b in zip(rates, rates[1:]))

    def test_wd_switches_exactly_at_boundary(self):
        assert lr_schedule(949, self.CFG)[1] == 0.1
        assert lr_schedule(950, self.CFG)[1] == 0.0

    def test_single_stage_runs_one_cosine_to_zero(self):
        cfg = TrainerConfig(total_steps=200, warmup_steps=10, single_stage=Stage.STAGE2)
        assert lr_schedule(0, cfg)[0] == pytest.approx(cfg.peak_lr / 10, rel=1e-12)
        assert lr_schedule(10, cfg)[0] == pytest.approx(cfg.peak_lr, rel=1e-12)
        lr_end, wd_end = lr_schedule(199, cfg)
        assert lr_end < 0.01 * cfg.peak_lr
        assert wd_end == cfg.wd_first

    def test_stage1_steps_property(self):
        assert TrainerConfig(total_steps=1000, stage_split=0.95).stage1_steps == 950
        assert TrainerConfig(total_steps=200, single_stage=Stage.STAGE1).stage1_steps == 200
        assert TrainerConfig(total_steps=200, single_stage=Stage.STAGE2).stage1_steps == 0

    def test_single_stage_is_coerced_to_a_stage(self):
        assert TrainerConfig(single_stage="stage2").single_stage is Stage.STAGE2
        with pytest.raises(ValueError):
            TrainerConfig(single_stage="stage3")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(stage_split=0.0)
        with pytest.raises(ValueError):
            TrainerConfig(peak_lr=-1.0)
        with pytest.raises(ValueError):
            TrainerConfig(total_steps=0)

    @pytest.mark.parametrize(
        "key,value",
        [("peak_lr", math.nan), ("peak_lr", math.inf), ("peak_lr", 0.0),
         ("second_stage_lr", math.inf), ("second_stage_lr", -1e-3),
         ("wd_first", math.nan), ("wd_first", -0.1), ("wd_second", math.inf),
         ("warmup_steps", -3)],
    )
    def test_bad_rate_or_warmup_rejected_by_name(self, key, value):
        with pytest.raises(ValueError, match=key):
            TrainerConfig(**{key: value})


class TestAdamW:
    def test_single_step_hand_oracle(self):
        p = ad.Var(np.array([2.0]))
        p.grad = np.array([0.5])
        state = OptimizerState(m={"p": np.zeros(1)}, v={"p": np.zeros(1)})
        adamw_update({"p": p}, state, lr=0.1, wd=0.1)
        m = 0.1 * 0.5
        v = 0.05 * 0.25
        mhat = m / (1 - 0.9)
        vhat = v / (1 - 0.95)
        expected = 2.0 - 0.1 * mhat / (math.sqrt(vhat) + 1e-8) - 0.1 * 0.1 * 2.0
        assert p.value[0] == pytest.approx(expected, rel=1e-14)
        assert state.step == 1
        assert state.m["p"][0] == pytest.approx(m, rel=1e-14)
        assert state.v["p"][0] == pytest.approx(v, rel=1e-14)

    def test_bias_correction_uses_global_step(self):
        p = ad.Var(np.array([2.0]))
        state = OptimizerState(m={"p": np.zeros(1)}, v={"p": np.zeros(1)})
        for _ in range(2):
            p.grad = np.array([0.5])
            adamw_update({"p": p}, state, lr=0.1, wd=0.0)
        assert state.step == 2
        # constant gradient: both bias-corrected moments equal the raw values
        assert state.m["p"][0] / (1 - 0.9**2) == pytest.approx(0.5, rel=1e-12)
        assert state.v["p"][0] / (1 - 0.95**2) == pytest.approx(0.25, rel=1e-12)

    def test_weight_decay_is_decoupled(self):
        # zero gradient: the only movement is the decay term lr*wd*p
        p = ad.Var(np.array([3.0, -1.5]))
        p.grad = np.zeros(2)
        state = OptimizerState(m={"p": np.zeros(2)}, v={"p": np.zeros(2)})
        orig = p.value.copy()
        adamw_update({"p": p}, state, lr=0.01, wd=0.1)
        np.testing.assert_array_equal(p.value, orig - 0.01 * 0.1 * orig)

    def test_param_without_grad_is_skipped(self):
        p = ad.Var(np.array([1.0]))
        state = OptimizerState(m={"p": np.zeros(1)}, v={"p": np.zeros(1)})
        adamw_update({"p": p}, state, lr=0.1, wd=0.1)
        assert p.value[0] == 1.0
        assert state.m["p"][0] == 0.0

    def test_global_grad_norm(self):
        a = ad.Var(np.zeros(1))
        b = ad.Var(np.zeros(1))
        a.grad = np.array([3.0])
        b.grad = np.array([4.0])
        assert global_grad_norm({"a": a, "b": b}) == pytest.approx(5.0, rel=1e-15)


class TestSteBackward:
    """The straight-through contract, checked through the live adjoints."""

    @staticmethod
    def _bitlinear_grads(x, w, scheme, k):
        xv, wv = ad.Var(x), ad.Var(w)
        y = ad.bitlinear(xv, wv, ad.input_codes(x, scheme, k), QuantScheme.ternary())
        g = np.random.default_rng(5).standard_normal(y.shape)
        ad.vsum(ad.mul(y, ad.Var(g))).backward()
        return g, xv.grad, wv.grad

    def test_bitlinear_passes_through_every_input_scheme(self):
        rng = np.random.default_rng(1)
        x, w = rng.standard_normal((2, 3, 8)), rng.standard_normal((5, 8))
        fqw = fake_quant(w, QuantScheme.ternary())
        for scheme in BITLINEAR_INPUTS:
            g, dx, dw = self._bitlinear_grads(x, w, scheme, None)
            np.testing.assert_array_equal(dx, g @ fqw)
            np.testing.assert_array_equal(dw, g.reshape(-1, 5).T @ fake_quant(x, scheme).reshape(-1, 8))

    def test_topk_gates(self):
        rng = np.random.default_rng(2)
        x, w = rng.standard_normal((4, 10)), rng.standard_normal((3, 10))
        mask = topk_mask(x, 0.5).mask
        for scheme in BITLINEAR_INPUTS:
            g, dx, dw = self._bitlinear_grads(x, w, scheme, 0.5)
            np.testing.assert_array_equal(dx, (g @ fake_quant(w, QuantScheme.ternary())) * mask)
            np.testing.assert_array_equal(dw, g.T @ (fake_quant(x, scheme) * mask))
            assert np.all(dx[~mask] == 0.0)

    def test_contract_check_passes(self):
        assert ste_contract(np.random.default_rng(3)) == (True, True)


class TestTrainStep:
    def test_updates_weights_and_reports_norm(self):
        model = tiny_model(seed=1)
        batch = next(tiny_stream())
        state = OptimizerState.init(model)
        before = {k: p.value.copy() for k, p in model.named_parameters().items()}
        loss, norm = train_step(model, batch, state, TrainerConfig(total_steps=10), step=0)
        assert math.isfinite(loss) and loss > 0
        assert math.isfinite(norm) and norm > 0
        changed = [
            k for k, p in model.named_parameters().items()
            if not np.array_equal(p.value, before[k])
        ]
        assert "blocks.0.qkv" in changed and "head" in changed
        assert state.step == 1

    def test_clip_caps_stored_gradients(self, monkeypatch):
        model = tiny_model(seed=1)
        batch = next(tiny_stream())
        state = OptimizerState.init(model)
        monkeypatch.setattr(train, "CLIP_NORM", 1e-3)
        _, norm = train_step(model, batch, state, TrainerConfig(total_steps=10), step=0)
        assert norm > 1e-3
        after = global_grad_norm(model.named_parameters())
        assert after == pytest.approx(1e-3, rel=1e-9)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nonfinite_loss_skips_update(self):
        model = tiny_model(seed=1)
        model.head.value = np.full_like(model.head.value, np.inf)
        batch = next(tiny_stream())
        state = OptimizerState.init(model)
        before = model.embedding.value.copy()
        loss, norm = train_step(model, batch, state, TrainerConfig(total_steps=10), step=0)
        assert not math.isfinite(loss)
        assert math.isnan(norm)
        np.testing.assert_array_equal(model.embedding.value, before)
        assert state.step == 0


def graph_nodes(loss: ad.Var) -> list[ad.Var]:
    """Every Var reachable from ``loss`` through its recorded parents."""
    nodes, stack = {}, [loss]
    while stack:
        v = stack.pop()
        if id(v) not in nodes:
            nodes[id(v)] = v
            stack.extend(v._parents)
    return list(nodes.values())


class TestTapeRelease:
    """backward() consumes the tape: intermediates die with the walk, and only
    leaves keep gradients."""

    @pytest.mark.parametrize("stage", [Stage.STAGE1, Stage.STAGE2])
    def test_backward_frees_every_intermediate(self, stage):
        model = tiny_model(stage=stage)
        inputs, targets = next(tiny_stream())
        logits = model_forward(model, inputs)
        loss = ad.cross_entropy(logits, targets)
        refs = [weakref.ref(v) for v in graph_nodes(loss) if v._parents and v is not logits and v is not loss]
        assert len(refs) > 20
        logits_value = logits.value.copy()
        loss.backward()
        assert sum(r() is not None for r in refs) == 0
        for held in (loss, logits):
            assert held.grad is None and held._parents == ()
        np.testing.assert_array_equal(logits.value, logits_value)
        for p in model.named_parameters().values():
            assert p.grad is not None and p.grad.shape == p.value.shape

    @pytest.mark.parametrize("stage", [Stage.STAGE1, Stage.STAGE2])
    def test_backward_memory_is_bounded_by_the_gradients(self, stage):
        # tracemalloc sees every numpy allocation, so the figures are exact:
        # about 1 MB is traced after the forward; a backward that kept the
        # tape would peak near 2 MB and hold nearly all of it afterwards
        config = ModelConfig(hidden_size=32, glu_size=64, n_heads=2, n_layers=2, vocab_size=64,
                             seq_len=16, stage=stage)
        model = TransformerModel(config, seed=0)
        chain = MarkovChain(MarkovDataConfig(vocab_size=64, seed=1))
        inputs, targets = next(batch_stream(chain, batch_size=4, seq_len=16, seed=2))
        grad_bytes = sum(p.value.nbytes for p in model.named_parameters().values())
        tracemalloc.start()
        try:
            loss = ad.cross_entropy(model_forward(model, inputs), targets)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert start > 4 * grad_bytes
        assert peak - start < grad_bytes
        assert held < 1.25 * grad_bytes


class TestNonFiniteForward:
    """A non-finite latent weight makes a quantizer in the forward refuse its
    input; the step reports a non-finite loss instead of raising."""

    @staticmethod
    def inf_weight_model() -> TransformerModel:
        model = tiny_model()
        model.blocks[0].qkv.latent_weights.value[0, 0] = np.inf
        return model

    def test_step_reports_and_leaves_state_untouched(self):
        model = tiny_model()
        stream = tiny_stream()
        state = OptimizerState.init(model)
        cfg = TrainerConfig(total_steps=10)
        train_step(model, next(stream), state, cfg, step=0)  # live moments
        model.blocks[0].qkv.latent_weights.value[0, 0] = np.inf
        params = {k: p.value.copy() for k, p in model.named_parameters().items()}
        moments = {k: (state.m[k].copy(), state.v[k].copy()) for k in state.m}
        loss, norm = train_step(model, next(stream), state, cfg, step=1)
        assert not math.isfinite(loss)
        assert not math.isfinite(norm)
        for name, p in model.named_parameters().items():
            np.testing.assert_array_equal(p.value, params[name])
            np.testing.assert_array_equal(state.m[name], moments[name][0])
            np.testing.assert_array_equal(state.v[name], moments[name][1])
        assert state.step == 1

    def test_run_rejects_non_finite_starting_weights(self):
        # a model handed in non-finite is bad input, not a divergence
        cfg = TrainerConfig(total_steps=60, warmup_steps=2, batch_size=2, single_stage=Stage.STAGE1)
        with pytest.raises(NonFiniteValueError, match="blocks.0.qkv"):
            run_two_stage(self.inf_weight_model(), tiny_stream(), cfg)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_run_whose_forward_overflows_diverges(self):
        # the first update takes the weights to ~1e100; every later forward
        # overflows and hands a quantizer non-finite values, so it is skipped
        cfg = TrainerConfig(total_steps=80, warmup_steps=2, batch_size=2, peak_lr=1e100)
        model = tiny_model()
        log = run_two_stage(model, tiny_stream(), cfg)
        assert log.divergence_step == DivergenceMonitor.PATIENCE
        assert math.isfinite(log.records[0].loss)
        assert all(math.isnan(r.loss) for r in log.records[1:])
        assert all(np.all(np.isfinite(p.value)) for p in model.named_parameters().values())


def overflowing_model() -> TransformerModel:
    """A finite model whose loss stays finite but whose gradient norm is
    not: the huge embedding column overflows in the rmsnorm adjoint."""
    model = tiny_model()
    model.embedding.value[:, 0] = 1e200
    return model


class TestNonFiniteGradient:
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_step_leaves_weights_and_moments_untouched(self):
        model = overflowing_model()
        state = OptimizerState.init(model)
        before = {k: p.value.copy() for k, p in model.named_parameters().items()}
        loss, norm = train_step(model, next(tiny_stream()), state, TrainerConfig(total_steps=10), step=0)
        assert math.isfinite(loss)
        assert not math.isfinite(norm)
        for name, p in model.named_parameters().items():
            assert np.all(np.isfinite(p.value)), name
            np.testing.assert_array_equal(p.value, before[name])
        assert state.step == 0
        assert all(not np.any(m) for m in state.m.values())
        assert all(not np.any(v) for v in state.v.values())

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_run_stuck_on_it_diverges(self):
        cfg = TrainerConfig(total_steps=60, warmup_steps=2, batch_size=2, single_stage=Stage.STAGE1)
        log = run_two_stage(overflowing_model(), tiny_stream(), cfg)
        assert log.divergence_step == 49
        assert all(math.isfinite(r.loss) and not math.isfinite(r.grad_norm) for r in log.records)


class TestDivergenceMonitor:
    def test_steady_losses_never_flag(self):
        mon = DivergenceMonitor()
        rng = np.random.default_rng(0)
        assert not any(mon.update(1.0 + 0.1 * rng.standard_normal()) for _ in range(300))

    def test_flags_on_50th_consecutive_nonfinite(self):
        mon = DivergenceMonitor()
        for _ in range(100):
            assert not mon.update(1.0)
        for i in range(49):
            assert not mon.update(float("nan")), f"flagged early at nan #{i + 1}"
        assert mon.update(float("nan"))

    def test_flags_on_sustained_explosion(self):
        mon = DivergenceMonitor()
        for _ in range(100):
            assert not mon.update(1.0)
        for i in range(49):
            assert not mon.update(11.0), f"flagged early at spike #{i + 1}"
        assert mon.update(11.0)

    def test_single_good_step_resets_the_streak(self):
        mon = DivergenceMonitor()
        for _ in range(100):
            mon.update(1.0)
        for _ in range(49):
            mon.update(float("nan"))
        assert not mon.update(1.0)
        for i in range(49):
            assert not mon.update(float("nan")), f"flagged early at nan #{i + 1}"
        assert mon.update(float("nan"))


class TestRunTwoStage:
    def test_stage_switch_and_records(self):
        model = tiny_model(seed=5)
        cfg = TrainerConfig(total_steps=8, stage_split=0.75, warmup_steps=2, batch_size=2)
        seen = {}

        def on_boundary(m, state, step):
            seen["step"] = step
            seen["moments_live"] = any(np.any(v != 0) for v in state.m.values())
            seen["stage"] = m.config.stage

        log = run_two_stage(model, tiny_stream(seed=7), cfg, on_boundary=on_boundary)
        assert len(log.records) == 8
        assert [r.stage for r in log.records] == ["stage1"] * 6 + ["stage2"] * 2
        assert [r.stage for r in log.records].index("stage2") == 6
        assert seen["step"] == 6
        assert seen["stage"] is Stage.STAGE2
        assert seen["moments_live"], "optimizer moments must carry over the boundary"
        assert model.config.stage is Stage.STAGE2
        assert all(math.isfinite(r.loss) for r in log.records)
        assert log.divergence_step is None
        for r in log.records:
            lr, wd = lr_schedule(r.step, cfg)
            assert r.lr == lr and r.wd == wd

    def test_single_stage_never_switches(self):
        model = tiny_model(seed=5)
        cfg = TrainerConfig(
            total_steps=4, warmup_steps=2, batch_size=2, single_stage=Stage.STAGE2
        )
        log = run_two_stage(model, tiny_stream(seed=7), cfg)
        assert [r.stage for r in log.records] == ["stage2"] * 4

    def test_bit_exact_reproducibility(self):
        cfg = TrainerConfig(total_steps=6, stage_split=0.67, warmup_steps=2, batch_size=2)
        runs = []
        for _ in range(2):
            model = tiny_model(seed=5)
            log = run_two_stage(model, tiny_stream(seed=7), cfg)
            weights = {k: p.value.copy() for k, p in model.named_parameters().items()}
            runs.append((log, weights))
        (log_a, w_a), (log_b, w_b) = runs
        assert [(r.loss, r.grad_norm) for r in log_a.records] == [
            (r.loss, r.grad_norm) for r in log_b.records
        ]
        for k in w_a:
            np.testing.assert_array_equal(w_a[k], w_b[k])

    def test_smoothed_loss_window(self):
        # the mean of the last 100 finite losses; non-finite ones are skipped
        losses = [float(i) for i in range(150)] + [float("nan")] * 3
        log = TrainLog(records=[StepRecord(i, "stage1", 0.0, 0.0, x, 1.0) for i, x in enumerate(losses)])
        assert TrainLog.SMOOTHING_WINDOW == 100
        assert log.smoothed_loss() == pytest.approx(np.mean(np.arange(50, 150)))
        assert math.isnan(TrainLog().smoothed_loss())


class TestGradCheck:
    def test_tape_matches_finite_differences(self):
        model = tiny_model(seed=2)
        batch = next(tiny_stream(seed=3))
        report = grad_check_ste(model, batch, samples_per_tensor=12, seed=0)
        assert report.max_rel_error <= report.tolerance, report.per_param
        assert report.ste_identity_ok
        assert report.topk_gated_ok
        assert report.passed
        assert report.n_coordinates >= 12 * len(model.named_parameters())

    def test_model_is_restored_after_check(self):
        model = tiny_model(seed=2)
        batch = next(tiny_stream(seed=3))
        grad_check_ste(model, batch, samples_per_tensor=4, seed=0)
        for layer in model.projection_layers():
            assert layer.input_scheme is not None
            assert layer.weight_scheme.kind is SchemeKind.TERNARY_ABSMEAN
        tokens = batch[0]
        with ad.no_grad():
            out = model_forward(model, tokens)
        assert np.all(np.isfinite(out.value))
