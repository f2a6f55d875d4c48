"""Model assembly: parameter bookkeeping, stage rebinding, causality, and
forward determinism on small configurations."""

import hashlib

import numpy as np
import pytest

from ternact import autodiff as ad
from ternact import layers as layers_mod
from ternact import model as model_mod
from ternact.data import MarkovChain, MarkovDataConfig, batch_stream
from ternact.layers import KvCache, Probe, Site, probing
from ternact.model import (
    ModelConfig,
    NonFiniteValueError,
    Stage,
    TransformerModel,
    configure_identity,
    configure_stage,
    greedy_decode,
    model_forward,
    stage_bindings,
)
from ternact.quantcore import SCHEMES, SchemeKind
from ternact.sparsify import measure_sparsity
from ternact.train import OptimizerState, TrainerConfig, run_two_stage, train_step


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

    def test_odd_head_dim_rejected(self):
        # the rotary embedding turns pairs of head channels
        with pytest.raises(ValueError, match="head_dim must be even"):
            tiny_config(hidden_size=10, n_heads=2)


def closed_form_param_count(config: ModelConfig) -> int:
    """Non-embedding parameters:
    per block 4*h^2 (qkv+out) + 3*h*g (gate/up/down) + 2*h (norm gains),
    plus the final norm gain."""
    h, g = config.hidden_size, config.glu_size
    return config.n_layers * (4 * h * h + 3 * h * g + 2 * h) + h


class TestParameterCount:
    def test_tiny_closed_form_value(self):
        # 2 * (4*16^2 + 3*16*44 + 2*16) + 16
        assert closed_form_param_count(tiny_config()) == 6352

    def test_default_closed_form_value(self):
        # 4 * (4*128^2 + 3*128*344 + 2*128) + 128
        assert closed_form_param_count(ModelConfig()) == 791680

    @pytest.mark.parametrize("cfg", [tiny_config(), tiny_config(n_layers=1, glu_size=40)])
    def test_model_matches_closed_form(self, cfg):
        params = TransformerModel(cfg, seed=0).named_parameters()
        non_embedding = sum(p.value.size for name, p in params.items() if name not in ("embedding", "head"))
        assert non_embedding == closed_form_param_count(cfg)

    def test_full_count_adds_two_vocab_tables(self):
        cfg = tiny_config()
        full = sum(p.value.size for p in TransformerModel(cfg, seed=0).named_parameters().values())
        assert full - closed_form_param_count(cfg) == 2 * cfg.vocab_size * cfg.hidden_size

    @pytest.mark.parametrize("cfg", [tiny_config(), tiny_config(n_layers=1, glu_size=40, vocab_size=7), ModelConfig()],
                             ids=["tiny", "one-layer", "default"])
    def test_parameter_count_is_the_built_models(self, cfg):
        # load_checkpoint bounds a header's claim by it before building
        full = sum(p.value.size for p in TransformerModel(cfg, seed=0).named_parameters().values())
        assert model_mod.parameter_count(cfg) == full

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
            loss = ad.cross_entropy(model_forward(model, tokens[:, :-1]), tokens[:, 1:])
        assert float(loss.value) == pytest.approx(np.log(32), rel=1e-12)

    def test_initial_loss_near_uniform(self):
        # small-scale embedding/head init keeps the starting loss near log(vocab)
        model = TransformerModel(tiny_config(), seed=0)
        tokens = np.random.default_rng(4).integers(0, 32, size=(4, 12))
        with ad.no_grad():
            loss = ad.cross_entropy(model_forward(model, tokens[:, :-1]), tokens[:, 1:])
        assert abs(float(loss.value) - np.log(32)) < 0.2

    def test_stats_keys_cover_all_sites(self):
        model = TransformerModel(tiny_config(stage=Stage.STAGE2), seed=0)
        tokens = np.random.default_rng(5).integers(0, 32, size=(2, 8))
        with ad.no_grad(), probing(Probe()) as probe:
            model_forward(model, tokens)
        # one entry per block at every site, in block order
        assert set(probe.sparsity) == set(Site)
        for rates in (*probe.sparsity.values(), probe.gate_activation, probe.up_effective):
            assert len(rates) == 2
        assert probe.sparsity[Site.ATTN_OUT][0] >= 0.5
        assert probe.up_effective[0] >= probe.gate_activation[0]
        assert probe.inputs == {}

    def test_greedy_decode_extends_and_is_deterministic(self):
        model = TransformerModel(tiny_config(), seed=0)
        prompt = np.array([[1, 2, 3]])
        out1 = greedy_decode(model, prompt, 5)
        out2 = greedy_decode(model, prompt, 5)
        assert out1.shape == (1, 8)
        np.testing.assert_array_equal(out1, out2)
        np.testing.assert_array_equal(out1[:, :3], prompt)

    @pytest.mark.parametrize(
        ("prompt", "n_new", "name"),
        [(np.zeros((1, 0), dtype=np.int64), 3, "prompt"), (np.array([1, 2, 3]), 3, "prompt"),
         (np.array([[1, 2, 3]]), -1, "n_new")],
        ids=["empty", "one-dimensional", "negative-n_new"],
    )
    def test_greedy_decode_rejects_bad_input(self, prompt, n_new, name):
        model = TransformerModel(tiny_config(), seed=0)
        with pytest.raises(ValueError, match=name):
            greedy_decode(model, prompt, n_new)


class TestNonFiniteBlock:
    """``model_forward`` checks each block's output once; the quantizers in
    between pass a NaN or inf through, so the forward stops at the block
    where it entered, and names it."""

    @pytest.mark.filterwarnings("ignore:invalid value encountered", "ignore:overflow encountered")
    @pytest.mark.parametrize("fp4_mode", [False, True], ids=["int4", "fp4"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_poisoned_block_is_named(self, bad, fp4_mode):
        config = tiny_config(n_layers=3, stage=Stage.STAGE2, kv_bits=3, q_bits=4, fp4_mode=fp4_mode)
        model = TransformerModel(config, seed=0)
        model.blocks[1].qkv.latent_weights.value[0, 0] = bad
        tokens = np.random.default_rng(0).integers(0, 32, (2, 6))
        with pytest.raises(NonFiniteValueError, match="block 1"):
            model_forward(model, tokens)
        with ad.no_grad():
            with pytest.raises(NonFiniteValueError, match="block 1"):
                model_forward(model, tokens)
            with probing(Probe()), pytest.raises(NonFiniteValueError, match="block 1"):
                model_forward(model, tokens)
        with pytest.raises(NonFiniteValueError, match="block 1"):
            greedy_decode(model, tokens[:, :3], 4)


class TestProbe:
    """``layers.probing`` records what each projection consumed, reading the
    input codes the matmul used rather than quantizing again."""

    TOKENS = np.random.default_rng(6).integers(0, 32, size=(2, 8))

    def stage2_model(self):
        return TransformerModel(tiny_config(stage=Stage.STAGE2), seed=0)

    def test_probed_forward_quantizes_no_more(self, monkeypatch):
        model = self.stage2_model()
        with ad.no_grad():
            model_forward(model, self.TOKENS)  # warm the weight-code cache
        calls = []
        real = ad.quantize
        monkeypatch.setattr(ad, "quantize", lambda x, scheme: calls.append(scheme) or real(x, scheme))
        with ad.no_grad():
            model_forward(model, self.TOKENS)
        unprobed = len(calls)
        calls.clear()
        with ad.no_grad(), probing(Probe(keep_inputs=list(Site))):
            model_forward(model, self.TOKENS)
        # one per distinct projection input: gate and up share one
        assert len(calls) == unprobed == 2 * (len(Site) - 1)

    @pytest.mark.parametrize(
        "bindings,per_block",
        [
            (None, len(Site) - 1),
            ({"gate": {"scheme": "int4", "k": 0.5}, "up": {"scheme": "int4", "k": 0.5}}, len(Site) - 1),
            ({"up": {"scheme": "int8", "k": None}}, len(Site)),
            ({"up": {"scheme": "int4", "k": 0.5}}, len(Site)),
        ],
        ids=["stage-row", "same-scheme-and-k", "up-other-scheme", "up-other-k"],
    )
    def test_gate_and_up_share_codes_only_under_one_binding(self, monkeypatch, bindings, per_block):
        # the reference FFN quantizes gate and up each on its own
        def separate(x, up_layer, gate_layer, activation="relu2"):
            up = layers_mod.bitlinear_forward(up_layer, x)
            return ad.glu(up, layers_mod.bitlinear_forward(gate_layer, x), activation)

        model = TransformerModel(tiny_config(stage=Stage.STAGE2, site_bindings=bindings), seed=0)
        params = list(model.named_parameters().values())
        targets = np.roll(self.TOKENS, 1, axis=1)
        results = []
        for ffn in (layers_mod.relu2glu, separate):
            monkeypatch.setattr(layers_mod, "relu2glu", ffn)
            calls = []
            real = ad.quantize
            monkeypatch.setattr(ad, "quantize", lambda x, scheme: calls.append(scheme) or real(x, scheme))
            with ad.no_grad():
                logits = model_forward(model, self.TOKENS).value
            monkeypatch.setattr(ad, "quantize", real)
            calls = [scheme for scheme in calls if scheme.kind is not SchemeKind.TERNARY_ABSMEAN]
            for p in params:
                p.zero_grad()
            ad.cross_entropy(model_forward(model, self.TOKENS), targets).backward()
            results.append((len(calls), logits, [p.grad for p in params]))
        (shared_calls, logits, grads), (_, want_logits, want_grads) = results
        assert shared_calls == per_block * len(model.blocks)
        np.testing.assert_array_equal(logits, want_logits)
        for got, want in zip(grads, want_grads):
            np.testing.assert_array_equal(got, want)

    def test_each_site_rate_is_the_consumed_input_sparsity(self):
        model = self.stage2_model()
        with ad.no_grad(), probing(Probe(keep_inputs=list(Site))) as probe:
            model_forward(model, self.TOKENS)
        by_site = {site: [l for l in model.projection_layers() if l.site is site] for site in Site}
        for site in Site:
            assert len(probe.sparsity[site]) == len(probe.inputs[site]) == 2
            for layer, x, rate in zip(by_site[site], probe.inputs[site], probe.sparsity[site]):
                consumed = ad.input_codes(x, layer.input_scheme, layer.k_fraction).values()
                assert rate == measure_sparsity(consumed), site

    def test_nothing_recorded_outside_probing(self):
        model = self.stage2_model()
        probe = Probe(keep_inputs=list(Site))
        with ad.no_grad():
            model_forward(model, self.TOKENS)
            with probing(probe):
                pass
            model_forward(model, self.TOKENS)
        assert all(not rates for rates in probe.sparsity.values())
        assert all(not rows for rows in probe.inputs.values())
        assert not probe.gate_activation and not probe.up_effective

    def test_slot_restored_after_nesting_and_exception(self):
        model = self.stage2_model()
        outer, inner = Probe(), Probe()
        with ad.no_grad(), probing(outer):
            with probing(inner):
                model_forward(model, self.TOKENS)
            model_forward(model, self.TOKENS)
            with pytest.raises(RuntimeError):
                with probing(inner):
                    raise RuntimeError("inside the block")
            model_forward(model, self.TOKENS)
        with ad.no_grad():
            model_forward(model, self.TOKENS)
        assert len(inner.up_effective) == 2
        assert len(outer.up_effective) == 4
        assert [len(r) for r in outer.sparsity.values()] == [4] * len(Site)


class TestSiteBindings:
    """``ModelConfig.site_bindings`` lays per-site schemes over whichever
    stage row is bound, and bad bindings fail when the config is built."""

    OVERLAY = {"down": {"scheme": "fp4", "k": None}, "attn_out": {"scheme": "int8", "k": None}}

    @staticmethod
    def bound(model):
        return {layer.site.value: (layer.input_scheme, layer.k_fraction) for layer in model.projection_layers()}

    @pytest.mark.parametrize("fp4_mode", [False, True])
    def test_overlay_on_every_stage(self, fp4_mode):
        model = TransformerModel(tiny_config(site_bindings=self.OVERLAY, fp4_mode=fp4_mode), seed=0)
        for stage in (Stage.STAGE1, Stage.STAGE2, Stage.STAGE1):
            configure_identity(model)
            configure_stage(model, stage)
            row = {site.value: b for site, b in stage_bindings(stage, fp4_mode).items()}
            row["down"] = (SCHEMES["fp4"], None)
            row["attn_out"] = (SCHEMES["int8"], None)
            assert self.bound(model) == row

    def test_full_fraction_accepted(self):
        tiny_config(site_bindings={"qkv": {"scheme": "int4", "k": 1.0}, "up": {"scheme": "int4x2"}})

    @pytest.mark.parametrize(
        "bindings, match",
        [
            (["qkv"], "site_bindings must map"),
            ({"ffn": {"scheme": "int4", "k": None}}, "unknown projection site"),
            ({"qkv": {"scheme": "int5", "k": None}}, "scheme must be one of"),
            ({"qkv": {"scheme": "ternary", "k": None}}, "scheme must be one of"),
            ({"qkv": {"k": None}}, 'needs a "scheme"'),
            ({"qkv": "int4"}, 'needs a "scheme"'),
            ({"qkv": {"scheme": "int4", "kk": 0.5}}, "unknown binding keys"),
            ({"qkv": {"scheme": "int4", "k": 0}}, r"k must be in \(0, 1\]"),
            ({"qkv": {"scheme": "int4", "k": 1.5}}, r"k must be in \(0, 1\]"),
            ({"qkv": {"scheme": "int4", "k": "half"}}, r"k must be in \(0, 1\]"),
        ],
    )
    def test_bad_binding_rejected(self, bindings, match):
        with pytest.raises(ValueError, match=match):
            tiny_config(site_bindings=bindings)


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


def prefix_recompute_decode(model: TransformerModel, prompt: np.ndarray, n_new: int) -> np.ndarray:
    """The decode loop before the KV cache was read: every step runs a full
    forward over the last seq_len tokens."""
    tokens = np.asarray(prompt)
    for _ in range(n_new):
        with ad.no_grad():
            logits = model_forward(model, tokens[:, -model.config.seq_len:])
        nxt = np.argmax(logits.value[:, -1, :], axis=-1)
        tokens = np.concatenate([tokens, nxt[:, None]], axis=1)
    return tokens


@pytest.fixture(scope="module")
def trained_tiny():
    """A tiny model trained for 30 steps: trained projections put many K/V
    entries on 3-bit rounding ties, which random weights rarely do."""
    model = TransformerModel(tiny_config(), seed=0)
    chain = MarkovChain(MarkovDataConfig(vocab_size=32, seed=1))
    recipe = TrainerConfig(total_steps=30, warmup_steps=2, batch_size=4, seed=0)
    run_two_stage(model, batch_stream(chain, 4, 16, 2), recipe)
    prompts = [chain.sample(np.random.default_rng(3), 1, n) for n in range(1, 9)]
    return model, prompts


def bind(model: TransformerModel, stage: Stage, kv_bits: int, q_bits: int) -> TransformerModel:
    model.config.kv_bits, model.config.q_bits = kv_bits, q_bits
    # two attn_out inputs of equal magnitude in one forward can differ by an
    # ulp in the other, which changes what top-K keeps; checked without it
    model.config.site_bindings = {"attn_out": {"scheme": "int8", "k": None}} if stage is Stage.STAGE2 else None
    return configure_stage(model, stage)


class TestIncrementalDecode:
    """``greedy_decode`` feeds the prompt once, then one token per step,
    and attention reads earlier positions from the KV caches."""

    @staticmethod
    def recorded_decode(monkeypatch, model, prompt, n_new):
        calls = []
        forward = model_mod.model_forward

        def recording(m, tokens, caches=None):
            logits = forward(m, tokens, caches)
            calls.append((len(caches[0]) - tokens.shape[1], tokens.shape[1], logits.value[0]))
            return logits

        monkeypatch.setattr(model_mod, "model_forward", recording)
        out = greedy_decode(model, prompt, n_new)
        monkeypatch.setattr(model_mod, "model_forward", forward)
        return out, calls

    @pytest.mark.parametrize("stage", [Stage.STAGE1, Stage.STAGE2])
    @pytest.mark.parametrize("q_bits", [4, 16])
    @pytest.mark.parametrize("kv_bits", [3, 4, 8])
    def test_every_step_matches_the_full_forward(self, monkeypatch, trained_tiny, stage, kv_bits, q_bits):
        model, prompts = trained_tiny
        bind(model, stage, kv_bits, q_bits)
        for prompt in prompts:
            out, calls = self.recorded_decode(monkeypatch, model, prompt, 16 - prompt.shape[1])
            with ad.no_grad():
                full = model_forward(model, out).value[0]
            for past, fed, logits in calls:
                np.testing.assert_allclose(logits, full[past:past + fed], rtol=0, atol=1e-12)
            np.testing.assert_array_equal(np.argmax(full[prompt.shape[1] - 1:-1], axis=-1),
                                          out[0, prompt.shape[1]:])

    @pytest.mark.parametrize("prompt_len,n_new", [(1, 15), (5, 6), (9, 1), (16, 1)])
    def test_feeds_each_position_once(self, monkeypatch, trained_tiny, prompt_len, n_new):
        model, _ = trained_tiny
        bind(model, Stage.STAGE2, 3, 4)
        prompt = np.arange(prompt_len)[None, :] % 32
        _, calls = self.recorded_decode(monkeypatch, model, prompt, n_new)
        assert [fed for _, fed, _ in calls] == [prompt_len] + [1] * (n_new - 1)
        assert sum(fed for _, fed, _ in calls) == prompt_len + n_new - 1

    @pytest.mark.parametrize("kv_bits", [3, 8])
    def test_past_seq_len_equals_prefix_recompute(self, trained_tiny, kv_bits):
        model, prompts = trained_tiny
        model.config.kv_bits, model.config.q_bits, model.config.site_bindings = kv_bits, 4, None
        configure_stage(model, Stage.STAGE2)
        for prompt in (prompts[0], prompts[7], np.tile(prompts[7], 3)):
            want = prefix_recompute_decode(model, prompt, 24)
            np.testing.assert_array_equal(greedy_decode(model, prompt, 24), want)

    @pytest.mark.parametrize("q_bits", [4, 16])
    @pytest.mark.parametrize("kv_bits", [3, 4])
    def test_each_new_position_is_quantized_once(self, monkeypatch, kv_bits, q_bits):
        # a cached forward quantizes its new K and V once per block, in one
        # call, straight into the cache
        cfg = tiny_config(stage=Stage.STAGE2, kv_bits=kv_bits, q_bits=q_bits)
        model = TransformerModel(cfg, seed=3)
        quantized = []
        unsigned_codes = layers_mod.unsigned_codes

        def counting(x, scales, levels):
            quantized.append(x.shape)
            return unsigned_codes(x, scales, levels)

        monkeypatch.setattr(layers_mod, "unsigned_codes", counting)
        caches = [KvCache(kv_bits) for _ in model.blocks]
        with ad.no_grad():
            for tokens in (np.array([[1, 2, 3]]), np.array([[4]]), np.array([[5]])):
                quantized.clear()
                model_forward(model, tokens, caches)
                new_kv = (2, 1, cfg.n_heads, tokens.shape[1], cfg.head_dim)
                assert quantized == [new_kv] * cfg.n_layers

    def test_cache_under_grad_rejected(self):
        model = TransformerModel(tiny_config(), seed=0)
        caches = [KvCache(8) for _ in model.blocks]
        with pytest.raises(ValueError, match="no_grad"):
            model_forward(model, np.array([[1, 2]]), caches)

    def test_cache_overflow_rejected(self):
        model = TransformerModel(tiny_config(seq_len=4), seed=0)
        caches = [KvCache(8) for _ in model.blocks]
        with ad.no_grad():
            model_forward(model, np.array([[1, 2, 3]]), caches)
            with pytest.raises(ValueError, match="sequence length 5 exceeds seq_len 4"):
                model_forward(model, np.array([[4, 5]]), caches)
            model_forward(model, np.array([[4]]), caches)
        assert len(caches[0]) == 4

    def test_cache_count_and_bits_checked(self):
        model = TransformerModel(tiny_config(kv_bits=3), seed=0)
        with ad.no_grad():
            with pytest.raises(ValueError, match="one KV cache per block"):
                model_forward(model, np.array([[1]]), [KvCache(3)])
            with pytest.raises(ValueError, match="kv_bits=8"):
                model_forward(model, np.array([[1]]), [KvCache(8) for _ in model.blocks])


class TestOutputDigests:
    """sha256 of what a seeded tiny stage-2 model computes, pinned so that a
    rewrite meant to be exact keeps every bit: no-grad logits, greedy decode
    past seq_len, the losses of a short stage-2 training run, and the
    parameter gradients of one train step in each stage."""

    GRAD_DIGESTS = {
        Stage.STAGE1: "10a639026871cedcc8b7619b920001ae41a27f2c6f6623e30065463832a1e1c9",
        Stage.STAGE2: "c96824a20461d6e131d888c9f53f485f307b33c9dd4141d26ac126f7b842e82b",
    }

    DIGESTS = {
        (3, 4, False): {
            "logits": "038e96d4065c92261411f593a5efcdad8ad74212c30b55cf59ed26459a974dc0",
            "decode": "61ed02c928ef1c1a7bdefb4827baadbba19ab403e353329429dfcb9520d46b48",
            "losses": "8be65acc28540d42249d0b884b03b21d47f74f57c04b95832b9227d3d8b8420a",
        },
        (3, 4, True): {
            "logits": "27418f654b10f5850c98187e7e967d689c9d2e1b16b439930d98c76bed0970c5",
            "decode": "e86ccc38fffb90eb1635768f2981b6dfc5c3fc7e8fd8644b1a8fd3bc41b7bee4",
            "losses": "51201a6dafed331f430e2dcbe12d0922fc4d824be1df63cf395a333e51e94c48",
        },
        (4, 4, False): {
            "logits": "dc70a695420f6ad0065b076713f766fccc9302868248751686cf11b3da43c9fc",
            "decode": "6772e267a6e3cd87930d8222524798299dcc88446c6a0b08dc132de437add20c",
            "losses": "ef6389c4ba3fbb99dfb92d69ced47dde377ef6dfbe16cc4e67f73a4740feeb9b",
        },
        (4, 4, True): {
            "logits": "8e8e0c465b085fbd607289361f1a0175d393139b8975de8c1186543bf175a8cd",
            "decode": "33231f9f7e587d61e903860d123f32845d1afc0efad6db7dc7ccf93dfb79fd84",
            "losses": "8c0266d382e0b428b8b39f8cd368fb360ca68d1964b286b48e14bf37ef88e749",
        },
        (8, 16, False): {
            "logits": "c055b9c259188ab5fa4715a4ee490edccac0732c77f4243187ded14709a75f91",
            "decode": "757c66e78158b794ed5a9b0519394965366c811dfa5cb31cfe13c3a9d8eb620c",
            "losses": "0d9fba0ba9223ad2cb47977b84edd1de21d8036c92e71366aec75c2b2b56b3bd",
        },
        (8, 16, True): {
            "logits": "af76c9046428b647f5e06d58e602a66b92f43d09c6932c8c758d0fc86ed79385",
            "decode": "d9a3ff60bea19b17d57b4f78b9fc565dc52d4a1b2a972a624f28238c8bae388c",
            "losses": "a778afda85e42a213bedc41104c10f46b296846f41c5e7e06dc66b516550ac20",
        },
    }

    @staticmethod
    def digest(array) -> str:
        return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()

    @pytest.mark.parametrize(
        "kv_bits,q_bits,fp4_mode", sorted(DIGESTS),
        ids=[f"kv{kv}-q{q}-{'fp4' if fp4 else 'int4'}" for kv, q, fp4 in sorted(DIGESTS)],
    )
    def test_outputs_are_stable(self, kv_bits, q_bits, fp4_mode):
        config = dict(stage=Stage.STAGE2, kv_bits=kv_bits, q_bits=q_bits, fp4_mode=fp4_mode)
        tokens = np.random.default_rng(11).integers(0, 32, size=(2, 16))
        model = TransformerModel(tiny_config(**config), seed=7)
        with ad.no_grad():
            logits = model_forward(model, tokens).value
        decoded = greedy_decode(model, tokens[:1, :3], 20)
        chain = MarkovChain(MarkovDataConfig(vocab_size=32, seed=1))
        recipe = TrainerConfig(total_steps=20, warmup_steps=2, batch_size=4, single_stage=Stage.STAGE2)
        log = run_two_stage(TransformerModel(tiny_config(**config), seed=7), batch_stream(chain, 4, 16, 2), recipe)
        got = {
            "logits": self.digest(logits),
            "decode": self.digest(decoded),
            "losses": self.digest([record.loss for record in log.records]),
        }
        assert got == self.DIGESTS[kv_bits, q_bits, fp4_mode]

    @pytest.mark.parametrize("stage", sorted(GRAD_DIGESTS))
    def test_gradients_are_stable(self, stage):
        # one digest over every parameter's gradient (after the clip), in
        # named_parameters order
        model = TransformerModel(tiny_config(stage=stage), seed=7)
        batch = next(batch_stream(MarkovChain(MarkovDataConfig(vocab_size=32, seed=1)), 4, 16, 2))
        train_step(model, batch, OptimizerState.init(model), TrainerConfig(), step=0)
        digest = hashlib.sha256()
        for p in model.named_parameters().values():
            digest.update(np.ascontiguousarray(p.grad, dtype=np.float64).tobytes())
        assert digest.hexdigest() == self.GRAD_DIGESTS[stage]
