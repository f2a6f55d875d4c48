"""Binary tensor blocks, quantized-tensor blocks, and checkpoints round-trip
with f32 value storage and byte-reproducible output."""

import io

import numpy as np
import pytest

from ternact.model import ModelConfig, Stage, TransformerModel
from ternact.quantcore import Granularity, QuantScheme, quantize
from ternact.tensorio import (
    FormatError,
    load_checkpoint,
    load_quantized,
    load_tensor,
    read_quantized,
    read_tensor,
    save_checkpoint,
    save_quantized,
    save_tensor,
    write_quantized,
    write_tensor,
)


def roundtrip_dense(arr):
    buf = io.BytesIO()
    write_tensor(buf, arr)
    buf.seek(0)
    return read_tensor(buf)


class TestDenseTensor:
    @pytest.mark.parametrize(
        "shape", [(3, 4), (5,), (2, 3, 4), ()],
        ids=["matrix", "vector", "cube", "scalar"],
    )
    def test_roundtrip_shapes(self, shape):
        arr = np.random.default_rng(0).standard_normal(shape)
        out = roundtrip_dense(arr)
        assert out.shape == arr.shape
        np.testing.assert_array_equal(out, arr.astype(np.float32).astype(np.float64))

    def test_values_stored_as_f32(self):
        out = roundtrip_dense(np.array([np.pi]))
        assert out[0] == np.float32(np.pi)
        assert out.dtype == np.float64

    def test_bad_magic_rejected(self):
        buf = io.BytesIO(b"NOPE" + bytes(16))
        with pytest.raises(FormatError):
            read_tensor(buf)

    def test_truncated_stream_rejected(self):
        buf = io.BytesIO()
        write_tensor(buf, np.ones((4, 4)))
        data = buf.getvalue()[:-8]
        with pytest.raises(FormatError):
            read_tensor(io.BytesIO(data))

    def test_file_helpers(self, tmp_path):
        arr = np.arange(6.0).reshape(2, 3)
        path = tmp_path / "t.ba48"
        save_tensor(path, arr)
        np.testing.assert_array_equal(load_tensor(path), arr)


class TestQuantizedTensor:
    @pytest.mark.parametrize(
        "scheme",
        [
            QuantScheme.ternary(),
            QuantScheme.int8(),
            QuantScheme.int8(Granularity.PER_TENSOR),
            QuantScheme.int4(),
            QuantScheme.int4(multiplier=2.0),
            QuantScheme.fp4(),
            QuantScheme.unsigned(4),
            QuantScheme.unsigned(3),
        ],
        ids=["ternary", "int8", "int8-tensor", "int4", "int4-x2", "fp4", "u4", "u3"],
    )
    def test_roundtrip_preserves_codes_and_scheme(self, scheme):
        x = np.random.default_rng(1).standard_normal((6, 16)) * 3.0
        q = quantize(x, scheme)
        buf = io.BytesIO()
        write_quantized(buf, q)
        buf.seek(0)
        out = read_quantized(buf)
        assert out.scheme == scheme
        assert out.codes.dtype == q.codes.dtype
        np.testing.assert_array_equal(out.codes, q.codes)
        np.testing.assert_array_equal(
            out.scales, np.asarray(q.scales).astype(np.float32).astype(np.float64)
        )

    def test_dense_reader_rejects_quantized_block(self):
        q = quantize(np.ones((2, 4)), QuantScheme.int8())
        buf = io.BytesIO()
        write_quantized(buf, q)
        buf.seek(0)
        with pytest.raises(FormatError):
            read_tensor(buf)

    def test_quantized_reader_rejects_dense_block(self):
        buf = io.BytesIO()
        write_tensor(buf, np.ones((2, 4)))
        buf.seek(0)
        with pytest.raises(FormatError):
            read_quantized(buf)

    def test_file_helpers(self, tmp_path):
        q = quantize(np.random.default_rng(2).standard_normal((3, 8)), QuantScheme.int4())
        path = tmp_path / "q.ba48"
        save_quantized(path, q)
        out = load_quantized(path)
        np.testing.assert_array_equal(out.codes, q.codes)


def tiny_model(**overrides):
    base = dict(hidden_size=16, glu_size=44, n_heads=2, n_layers=2, vocab_size=32, seq_len=16)
    base.update(overrides)
    return TransformerModel(ModelConfig(**base), seed=3)


class TestCheckpoint:
    def test_roundtrip_config_and_values(self, tmp_path):
        model = tiny_model(stage=Stage.STAGE2, kv_bits=4, activation="silu")
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, extra={"step": 12})
        loaded, extra = load_checkpoint(path)
        assert extra == {"step": 12}
        assert loaded.config == model.config
        assert loaded.config.stage is Stage.STAGE2
        for name, p in model.named_parameters().items():
            np.testing.assert_array_equal(
                loaded.named_parameters()[name].value,
                p.value.astype(np.float32).astype(np.float64),
            )

    def test_loaded_model_has_stage_bindings(self, tmp_path):
        model = tiny_model(stage=Stage.STAGE2)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        assert loaded.blocks[0].attn_out.k_fraction == 0.5

    def test_loaded_model_keeps_site_bindings(self, tmp_path):
        bindings = {"qkv": {"scheme": "fp4", "k": None}, "attn_out": {"scheme": "int8", "k": None}}
        model = tiny_model(stage=Stage.STAGE2, site_bindings=bindings)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        assert loaded.config.site_bindings == bindings
        assert [(l.input_scheme, l.k_fraction) for l in loaded.projection_layers()] == [
            (l.input_scheme, l.k_fraction) for l in model.projection_layers()
        ]
        assert loaded.blocks[0].qkv.input_scheme == QuantScheme.fp4()
        assert loaded.blocks[0].attn_out.k_fraction is None

    def test_save_is_byte_reproducible(self, tmp_path):
        model = tiny_model()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, model, extra={"note": "x"})
        save_checkpoint(b, model, extra={"note": "x"})
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [1e39, np.inf, np.nan])
    def test_value_not_finite_in_f32_rejected(self, tmp_path, bad):
        # 1e39 is finite in f64 but would be stored as inf
        model = tiny_model()
        model.blocks[1].up.latent_weights.value[3, 4] = bad
        model.head.value[0, 0] = bad
        path = tmp_path / "m.ckpt"
        with pytest.raises(ValueError, match="parameter blocks.1.up is not finite in f32"):
            save_checkpoint(path, model)
        assert not path.exists()

    def test_largest_f32_value_accepted(self, tmp_path):
        model = tiny_model()
        model.head.value[0, 0] = -float(np.finfo(np.float32).max)
        save_checkpoint(tmp_path / "m.ckpt", model)
        loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
        assert loaded.head.value[0, 0] == model.head.value[0, 0]
