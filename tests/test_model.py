"""Model assembly: parameter bookkeeping, stage rebinding, causality, and
forward determinism on small configurations."""

import numpy as np
import pytest

from ternact import autodiff as ad
from ternact.layers import Site
from ternact.model import (
    ModelConfig,
    Stage,
    TransformerModel,
    closed_form_param_count,
    configure_identity,
    configure_stage,
    cross_entropy_loss,
    greedy_decode,
    model_forward,
    stage_bindings,
)
from ternact.quantcore import SchemeKind


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        hidden_size=16,
        glu_size=44,
        n_heads=2,
        n_layers=2,
        vocab_size=32,
        seq_len=16,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestConfig:
    def test_head_dim(self):
        assert tiny_config().head_dim == 8

    def test_heads_must_divide_hidden(self):
        with pytest.raises(ValueError):
            tiny_config(n_heads=3)

    def test_kv_bits_validated(self):
        with pytest.raises(ValueError):
            tiny_config(kv_bits=5)

    def test_activation_validated(self):
        with pytest.raises(ValueError):
            tiny_config(activation="gelu")

    def test_stage_coerced_from_string(self):
        assert tiny_config(stage="stage2").stage is Stage.STAGE2


class TestParameterCount:
    def test_tiny_closed_form_value(self):
        # 2 * (4*16^2 + 3*16*44 + 2*16) + 16
        assert closed_form_param_count(tiny_config()) == 6352

    def test_default_closed_form_value(self):
        # 4 * (4*128^2 + 3*128*344 + 2*128) + 128
        assert closed_form_param_count(ModelConfig()) == 791680

    @pytest.mark.parametrize("cfg", [tiny_config(), tiny_config(n_layers=1, glu_size=40)])
    def test_model_matches_closed_form(self, cfg):
        model = TransformerModel(cfg, seed=0)
        assert model.num_parameters(non_embedding=True) == closed_form_param_count(cfg)

    def test_full_count_adds_two_vocab_tables(self):
        cfg = tiny_config()
        model = TransformerModel(cfg, seed=0)
        full = model.num_parameters(non_embedding=False)
        assert full - model.num_parameters() == 2 * cfg.vocab_size * cfg.hidden_size

    def test_named_parameter_keys(self):
        model = TransformerModel(tiny_config(), seed=0)
        keys = set(model.named_parameters())
        expected = {"embedding", "final_norm", "head"}
        for i in range(2):
            for leaf in ("attn_norm", "qkv", "attn_out", "ffn_norm", "gate", "up", "down"):
                expected.add(f"blocks.{i}.{leaf}")
        assert keys == expected

    def test_named_parameters_alias_layer_weights(self):
        # the optimizer mutates these Vars; the layers must see the updates
        model = TransformerModel(tiny_config(), seed=0)
        params = model.named_parameters()
        assert params["blocks.0.qkv"] is model.blocks[0].qkv.latent_weights
        assert params["blocks.1.down"] is model.blocks[1].down.latent_weights


class TestStageBindings:
    def test_stage1_all_int8_no_mask(self):
        bindings = stage_bindings(Stage.STAGE1, fp4_mode=False)
        for site in Site:
            scheme, k = bindings[site]
            assert scheme.kind is SchemeKind.INT8_ABSMAX
            assert k is None

    def test_stage2_hybrid(self):
        bindings = stage_bindings(Stage.STAGE2, fp4_mode=False)
        for site in (Site.QKV, Site.GATE, Site.UP):
            assert bindings[site][0].kind is SchemeKind.INT4_ABSMEAN
            assert bindings[site][1] is None
        assert bindings[Site.ATTN_OUT] == (bindings[Site.ATTN_OUT][0], 0.5)
        assert bindings[Site.ATTN_OUT][0].kind is SchemeKind.INT8_ABSMAX
        assert bindings[Site.DOWN][0].kind is SchemeKind.INT8_ABSMAX
        assert bindings[Site.DOWN][1] is None

    def test_stage2_fp4_mode_swaps_only_the_4bit_sites(self):
        bindings = stage_bindings(Stage.STAGE2, fp4_mode=True)
        for site in (Site.QKV, Site.GATE, Site.UP):
            assert bindings[site][0].kind is SchemeKind.FP4_MINMAX
        # the down projection keeps int8 even in fp4 mode
        assert bindings[Site.DOWN][0].kind is SchemeKind.INT8_ABSMAX
        assert bindings[Site.ATTN_OUT][0].kind is SchemeKind.INT8_ABSMAX
        assert bindings[Site.ATTN_OUT][1] == 0.5

    def test_configure_stage_rebinding_preserves_weights(self):
        model = TransformerModel(tiny_config(), seed=3)
        before = {k: p.value.copy() for k, p in model.named_parameters().items()}
        configure_stage(model, Stage.STAGE2)
        configure_stage(model, Stage.STAGE1)
        configure_stage(model, Stage.STAGE2)
        for k, p in model.named_parameters().items():
            np.testing.assert_array_equal(p.value, before[k])
        assert model.config.stage is Stage.STAGE2
        for layer in model.projection_layers():
            assert layer.weight_scheme.kind is SchemeKind.TERNARY_ABSMEAN

    def test_configure_identity_then_stage_restores_everything(self):
        model = TransformerModel(tiny_config(), seed=3)
        configure_identity(model)
        for layer in model.projection_layers():
            assert layer.input_scheme is None
            assert layer.k_fraction is None
            assert layer.weight_scheme is None
        configure_stage(model, Stage.STAGE1)
        for layer in model.projection_layers():
            assert layer.input_scheme.kind is SchemeKind.INT8_ABSMAX
            assert layer.weight_scheme.kind is SchemeKind.TERNARY_ABSMEAN


class TestForward:
    def test_logits_shape(self):
        model = TransformerModel(tiny_config(), seed=0)
        tokens = np.arange(12).reshape(2, 6) % 32
        with ad.no_grad():
            logits = model_forward(model, tokens)
        assert logits.shape == (2, 6, 32)

    def test_rejects_bad_token_shapes(self):
        model = TransformerModel(tiny_config(), seed=0)
        with pytest.raises(ValueError):
            model_forward(model, np.arange(6))
        with pytest.raises(ValueError):
            model_forward(model, np.zeros((1, 17), dtype=np.int64))

    def test_forward_is_deterministic_and_pure(self):
        model = TransformerModel(tiny_config(), seed=1)
        tokens = np.random.default_rng(7).integers(0, 32, size=(2, 10))
        before = {k: p.value.copy() for k, p in model.named_parameters().items()}
        with ad.no_grad():
            a = model_forward(model, tokens).value
            b = model_forward(model, tokens).value
        np.testing.assert_array_equal(a, b)
        for k, p in model.named_parameters().items():
            np.testing.assert_array_equal(p.value, before[k])

    @pytest.mark.parametrize("stage", [Stage.STAGE1, Stage.STAGE2])
    def test_causality(self, stage):
        # changing token t must not change logits at positions before t
        model = TransformerModel(tiny_config(stage=stage), seed=2)
        rng = np.random.default_rng(0)
        tokens = rng.integers(0, 32, size=(1, 12))
        altered = tokens.copy()
        altered[0, 7] = (altered[0, 7] + 5) % 32
        with ad.no_grad():
            base = model_forward(model, tokens).value
            poke = model_forward(model, altered).value
        np.testing.assert_array_equal(base[:, :7, :], poke[:, :7, :])
        assert not np.array_equal(base[:, 7:, :], poke[:, 7:, :])

    def test_zero_head_gives_uniform_loss(self):
        model = TransformerModel(tiny_config(), seed=0)
        model.head.value = np.zeros_like(model.head.value)
        tokens = np.random.default_rng(3).integers(0, 32, size=(2, 8))
        with ad.no_grad():
            loss = cross_entropy_loss(model_forward(model, tokens[:, :-1]), tokens[:, 1:])
        assert float(loss.value) == pytest.approx(np.log(32), rel=1e-12)

    def test_initial_loss_near_uniform(self):
        # small-scale embedding/head init keeps the starting loss near log(vocab)
        model = TransformerModel(tiny_config(), seed=0)
        tokens = np.random.default_rng(4).integers(0, 32, size=(4, 12))
        with ad.no_grad():
            loss = cross_entropy_loss(model_forward(model, tokens[:, :-1]), tokens[:, 1:])
        assert abs(float(loss.value) - np.log(32)) < 0.2

    def test_stats_keys_cover_all_sites(self):
        model = TransformerModel(tiny_config(stage=Stage.STAGE2), seed=0)
        tokens = np.random.default_rng(5).integers(0, 32, size=(2, 8))
        stats = {}
        with ad.no_grad():
            model_forward(model, tokens, stats=stats)
        leaves = [site.value for site in Site] + ["gate_activation", "up_effective"]
        expected = {f"blocks.{i}.{leaf}" for i in range(2) for leaf in leaves}
        assert set(stats) == expected
        assert stats["blocks.0.attn_out"] >= 0.5
        assert stats["blocks.0.up_effective"] >= stats["blocks.0.gate_activation"]

    def test_greedy_decode_extends_and_is_deterministic(self):
        model = TransformerModel(tiny_config(), seed=0)
        prompt = np.array([[1, 2, 3]])
        out1 = greedy_decode(model, prompt, 5)
        out2 = greedy_decode(model, prompt, 5)
        assert out1.shape == (1, 8)
        np.testing.assert_array_equal(out1, out2)
        np.testing.assert_array_equal(out1[:, :3], prompt)


class TestWeightCodeCache:
    """No-grad forwards reuse cached ternary weight codes; every way the
    model's weights or bindings change must show up in the next forward."""

    TOKENS = np.random.default_rng(11).integers(0, 32, size=(2, 10))

    @staticmethod
    def _copy(model, **overrides):
        """A model with fresh arrays holding the same weights: nothing cached."""
        fresh = TransformerModel(tiny_config(**overrides), seed=0)
        for name, p in fresh.named_parameters().items():
            p.value = model.named_parameters()[name].value.copy()
        configure_stage(fresh, model.config.stage)
        return fresh

    def _logits(self, model):
        with ad.no_grad():
            return model_forward(model, self.TOKENS).value

    def test_forward_after_an_adamw_step_matches_an_uncached_model(self):
        from ternact.train import OptimizerState, TrainerConfig, train_step

        model = TransformerModel(tiny_config(stage=Stage.STAGE2), seed=0)
        before = self._logits(model)
        state = OptimizerState.init(model)
        batch = (self.TOKENS[:, :-1], self.TOKENS[:, 1:])
        train_step(model, batch, state, TrainerConfig(total_steps=4, warmup_steps=1), step=0)
        after = self._logits(model)
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, self._logits(self._copy(model, stage=Stage.STAGE2)))

    @pytest.mark.parametrize("fp4", [False, True])
    def test_rebinding_never_serves_stale_codes(self, fp4):
        model = TransformerModel(tiny_config(stage=Stage.STAGE2, fp4_mode=fp4), seed=0)
        self._logits(model)
        configure_identity(model)
        fresh = self._copy(model, fp4_mode=fp4)
        configure_identity(fresh)
        np.testing.assert_array_equal(self._logits(model), self._logits(fresh))
        for stage in (Stage.STAGE1, Stage.STAGE2):
            configure_stage(model, stage)
            np.testing.assert_array_equal(self._logits(model), self._logits(self._copy(model, fp4_mode=fp4)))

    def test_grad_check_after_a_cached_forward(self):
        from ternact.train import grad_check_ste

        model = TransformerModel(tiny_config(), seed=0)
        before = self._logits(model)
        report = grad_check_ste(model, (self.TOKENS[:, :-1], self.TOKENS[:, 1:]), samples_per_tensor=2)
        assert report.passed
        np.testing.assert_array_equal(self._logits(model), before)
