"""Binary tensor blocks, quantized-tensor blocks, and checkpoints round-trip
with f32 value storage and byte-reproducible output."""

import dataclasses
import hashlib
import io
import json
import struct
import warnings

import numpy as np
import pytest

from ternact import tensorio
from ternact.model import ModelConfig, Stage, TransformerModel
from ternact.quantcore import SCHEMES, Granularity, QuantizedTensor, QuantScheme, SchemeKind, quantize
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

    # (shape written, dims rewritten at bytes 5 on): a vector's dim whose top
    # byte is 0x7f gave read() a count it raised OverflowError on; two dims
    # whose product passes 2^64 wrapped in int64 to a small count
    CORRUPT_DIMS = [((16,), struct.pack("<Q", 0x7F << 56 | 16)), ((4, 4), struct.pack("<QQ", 2**62 + 1, 8))]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape,dims", CORRUPT_DIMS, ids=["top-byte", "product-past-2^64"])
    def test_dims_past_the_stream_are_a_format_error(self, shape, dims):
        # the element count is counted in Python ints and bounded by the
        # bytes left before anything is read for it
        buf = io.BytesIO()
        write_tensor(buf, np.ones(shape))
        block = bytearray(buf.getvalue())
        block[5 : 5 + len(dims)] = dims
        with pytest.raises(FormatError, match="truncated"):
            read_tensor(io.BytesIO(bytes(block)))

    @pytest.mark.filterwarnings("error")
    def test_shape_numpy_cannot_form_is_a_format_error(self):
        # a (0, 4) tensor holds no data bytes, so a second dim of 2^63 passes
        # the length bound; numpy's reshape refuses the shape
        buf = io.BytesIO()
        write_tensor(buf, np.ones((0, 4)))
        block = bytearray(buf.getvalue())
        block[13:21] = struct.pack("<Q", 2**63)
        with pytest.raises(FormatError, match="cannot be formed"):
            read_tensor(io.BytesIO(bytes(block)))

    @pytest.mark.filterwarnings("error")
    def test_signalling_nan_widens_without_a_warning(self):
        # the last value of a (2, 2) block set to a signalling NaN: the f32 ->
        # f64 cast warned "invalid value encountered in cast"
        buf = io.BytesIO()
        write_tensor(buf, np.ones((2, 2)))
        block = bytearray(buf.getvalue())
        block[-4:] = struct.pack("<I", 0x7F800001)
        out = read_tensor(io.BytesIO(bytes(block)))
        assert np.isnan(out[1, 1])
        np.testing.assert_array_equal(out.flat[:3], 1.0)


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

    # sha256 of the .q48 block of one fixed tensor, per scheme and
    # granularity; the bytes stay those of the int8/uint8 code format
    Q48_SHA256 = {
        ("fp4", "per_token"): "9538e14e8eac2150830cf4cde11471e9f77431499dcbb427f54e7eeb46f5d768",
        ("fp4", "per_tensor"): "02f4ac9730457eb4683102af67af26334806f3af4edd16d1c217f004ca8325e8",
        ("int4", "per_token"): "16a429878d2276d7b7b614908cf74c474880e6caa2ca0bcf411f202bc0625b47",
        ("int4", "per_tensor"): "308b70285548ea4d752d441af97e17ca058c2f17bbfdd0867ff980495c9c0f0e",
        ("int4x2", "per_token"): "41288e16f9574fa47b18f2c89ab1ac3c87bbfa09d89597a6f2a5d458dcb4c866",
        ("int4x2", "per_tensor"): "e465537c5f7feefc4d7b3d51ce2b5afc2b16da25d840d5c307d2661af29ad46d",
        ("int8", "per_token"): "e41cfba8eec7da656c2194d285ce053a2237d273db1721eb5130663cb7685156",
        ("int8", "per_tensor"): "5408b8d845218bfa3028fd4704d6c2b97772f3a4e5d634ce476117bc25794786",
        ("ternary", "per_tensor"): "500fa58d8c980d4f1479d16c47759ee5cc6fc43042f6dacde3e9d92fa6e5ade0",
        ("unsigned3", "per_token"): "914ebe89fbc0fc533ccb9c2c3b3c3dc8276d36f73670f25b8206b79c2770550a",
        ("unsigned3", "per_tensor"): "da006832af30c8a8e29cd9ee08534f05e2062c7df64fc2169f48fc35b4f411b9",
        ("unsigned4", "per_token"): "5935dc4fa41baf8990f7c32a26975337b9cc2e99973e71c1725cff597b9c7e10",
        ("unsigned4", "per_tensor"): "17fa202186b31de2ee2a3f1e109d3b22186c7ce0ccac52eadbc74f4fb5190f97",
    }

    @pytest.mark.parametrize(
        "name,granularity", sorted(Q48_SHA256), ids=[f"{n}-{g}" for n, g in sorted(Q48_SHA256)]
    )
    def test_block_bytes_are_stable(self, name, granularity):
        x = np.random.default_rng(48).standard_normal((3, 4, 16)) * np.array([[1e-3], [1.0], [1e3], [0.0]])
        scheme = dataclasses.replace(SCHEMES[name], granularity=Granularity(granularity))
        buf = io.BytesIO()
        write_quantized(buf, quantize(x, scheme))
        assert hashlib.sha256(buf.getvalue()).hexdigest() == self.Q48_SHA256[name, granularity]
        buf.seek(0)
        np.testing.assert_array_equal(read_quantized(buf).codes, quantize(x, scheme).codes)

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

    # (scheme, stored code, whether it is in the scheme's range): both ends
    # of every range and one past each end where the code byte can hold it.
    # int8 fills its i8 byte, so it has no past-end byte; unsigned codes are
    # u8, so only the high end has one.
    CODE_EDGES = [
        ("ternary", -1, True), ("ternary", 1, True), ("ternary", -2, False), ("ternary", 2, False),
        ("int8", -128, True), ("int8", 127, True),
        ("int4", -8, True), ("int4", 7, True), ("int4", -9, False), ("int4", 8, False),
        ("int4", 100, False), ("int4", -50, False),
        ("int4x2", -8, True), ("int4x2", 7, True), ("int4x2", -9, False), ("int4x2", 8, False),
        ("fp4", -7, True), ("fp4", 7, True), ("fp4", -8, False), ("fp4", 8, False), ("fp4", 9, False),
        ("unsigned4", 0, True), ("unsigned4", 15, True), ("unsigned4", 16, False),
        ("unsigned3", 0, True), ("unsigned3", 7, True), ("unsigned3", 8, False), ("unsigned3", 206, False),
    ]

    @pytest.mark.parametrize("name,code,legal", CODE_EDGES, ids=[f"{n}{c:+d}" for n, c, _ in CODE_EDGES])
    def test_reader_checks_codes_against_the_scheme_range(self, name, code, legal):
        # a stored code outside its scheme's range is refused at load, not
        # turned into a value past the group scale (or an IndexError for fp4)
        q = quantize(np.random.default_rng(3).standard_normal((2, 4)), SCHEMES[name])
        buf = io.BytesIO()
        write_quantized(buf, q)
        dtype = np.uint8 if SCHEMES[name].kind is SchemeKind.UNSIGNED_ABSMAX else np.int8
        block = buf.getvalue()[:-1] + np.array([code], dtype=dtype).tobytes()
        if not legal:
            with pytest.raises(FormatError, match="outside"):
                read_quantized(io.BytesIO(block))
            return
        out = read_quantized(io.BytesIO(block))
        assert out.codes[-1, -1] == code
        np.testing.assert_array_equal(out.codes[:-1], q.codes[:-1])

    @pytest.mark.parametrize(
        "codes_shape,scales_shape,granularity",
        [((2, 4), (4,), Granularity.PER_TOKEN), ((2, 4), (2,), Granularity.PER_TENSOR), ((), (), Granularity.PER_TOKEN)],
        ids=["per-token-feature-axis", "per-tensor-vector", "per-token-scalar"],
    )
    def test_reader_checks_scales_against_the_codes(self, codes_shape, scales_shape, granularity):
        q = QuantizedTensor(np.zeros(codes_shape, np.float32), np.ones(scales_shape), QuantScheme.int8(granularity))
        buf = io.BytesIO()
        write_quantized(buf, q)
        with pytest.raises(FormatError, match="do not fit"):
            read_quantized(io.BytesIO(buf.getvalue()))

    @pytest.mark.parametrize("name,code,legal", [*CODE_EDGES, ("int8", 200, False), ("int8", -129, False),
                                                 ("int8", 0.5, False), ("unsigned4", -1, False),
                                                 ("fp4", np.nan, False)],
                             ids=[f"{n}{c:+g}" for n, c, _ in CODE_EDGES] + ["int8+200", "int8-129", "int8+0.5",
                                                                            "unsigned4-1", "fp4nan"])
    def test_writer_refuses_codes_the_reader_refuses(self, name, code, legal):
        # a code outside the scheme's range, or not an integer, is refused
        # before any byte is written, not narrowed into another code (int8
        # 200 read back as the legal -56)
        q = quantize(np.random.default_rng(3).standard_normal((2, 4)), SCHEMES[name])
        q.codes[-1, -1] = code
        buf = io.BytesIO()
        if not legal:
            with pytest.raises(FormatError, match="code range"):
                write_quantized(buf, q)
            assert buf.getvalue() == b""
            return
        write_quantized(buf, q)
        buf.seek(0)
        np.testing.assert_array_equal(read_quantized(buf).codes, q.codes)

    # a rank-2 block's bytes: magic 0-3, rank 4, dims 5-20, scheme tag 21,
    # bits 22, multiplier 23, granularity 24, scale rank 25, scale dim 26-33
    HEADER_EDITS = [
        ("int4", 23, 0, "names no scheme.*multiplier"),
        ("unsigned4", 22, 5, "names no scheme.*3 or 4 bits"),
        ("int8", 21, 1, "names no scheme.*per tensor"),  # a per-token block tagged ternary
        ("int4", 33, 0x7F, "truncated"),
    ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name,offset,byte,match", HEADER_EDITS,
                             ids=["int4-multiplier-0", "unsigned-5-bits", "ternary-per-token", "scale-dim"])
    def test_header_the_format_cannot_hold_is_a_format_error(self, name, offset, byte, match):
        # a scheme the descriptor cannot form is a FormatError, not
        # QuantScheme's ValueError; a length past the stream is refused
        # before it is read
        buf = io.BytesIO()
        write_quantized(buf, quantize(np.random.default_rng(4).standard_normal((2, 4)), SCHEMES[name]))
        block = bytearray(buf.getvalue())
        block[offset] = byte
        with pytest.raises(FormatError, match=match):
            read_quantized(io.BytesIO(bytes(block)))

    # (byte offset in the first f32 scale, bytes written there): its top
    # byte set to 0xff, and whole patterns of a signalling NaN, -inf and +inf
    BAD_SCALES = [(3, b"\xff"), (0, struct.pack("<I", 0x7F800001)), (0, struct.pack("<f", -np.inf)),
                  (0, struct.pack("<f", np.inf))]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("offset,patch", BAD_SCALES, ids=["top-byte-0xff", "snan", "-inf", "+inf"])
    @pytest.mark.parametrize("name", ["int8", "int4", "unsigned4", "unsigned3"])
    def test_non_finite_scale_is_a_format_error(self, name, offset, patch):
        # a rank-2 per-token block's scales start at byte 34; the f32 -> f64
        # widening of a signalling NaN would warn "invalid value" first. The
        # input is scaled to a first scale of 1.5, in [1, 2), whose exponent
        # is all ones once the top byte is 0xff
        x = np.random.default_rng(5).standard_normal((2, 4))
        x *= 1.5 / quantize(x, SCHEMES[name]).scales[0]
        buf = io.BytesIO()
        write_quantized(buf, quantize(x, SCHEMES[name]))
        block = bytearray(buf.getvalue())
        block[34 + offset : 34 + offset + len(patch)] = patch
        assert not np.isfinite(np.frombuffer(bytes(block[34:38]), dtype="<f4")[0])
        with pytest.raises(FormatError, match="not finite"):
            read_quantized(io.BytesIO(bytes(block)))

    @pytest.mark.filterwarnings("error")
    def test_shape_numpy_cannot_form_is_a_format_error(self):
        # codes of shape (0, 4) and scales of shape (0,): no byte to bound a
        # feature dim of 2^63 by
        buf = io.BytesIO()
        write_quantized(buf, QuantizedTensor(np.zeros((0, 4), np.float32), np.ones(0), QuantScheme.int8()))
        block = bytearray(buf.getvalue())
        block[13:21] = struct.pack("<Q", 2**63)
        with pytest.raises(FormatError, match="cannot be formed"):
            read_quantized(io.BytesIO(bytes(block)))

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("offset", [13, 16], ids=["byte-13", "top-byte"])
    def test_header_length_past_the_file_is_a_format_error(self, tmp_path, offset):
        # the u64 header length at bytes 9-16 set past the file's size is
        # refused before the header is read, not allocated (byte 13 gave a
        # MemoryError) or handed to read() (byte 16, an OverflowError)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model(n_layers=1))
        data = bytearray(path.read_bytes())
        data[offset] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    # the head is the last block of a checkpoint; its last value rewritten
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bits", [0x7F800001, 0x7FC00000, 0xFF800000], ids=["snan", "nan", "-inf"])
    def test_non_finite_parameter_is_a_format_error_naming_it(self, tmp_path, bits):
        # save_checkpoint refuses to write one, so load_checkpoint refuses it
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model())
        data = bytearray(path.read_bytes())
        data[-4:] = struct.pack("<I", bits)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="parameter head is not finite"):
            load_checkpoint(path)

    @staticmethod
    def with_model_config(path, **changes) -> None:
        """Rewrite the header of the checkpoint at ``path`` with ``changes``
        laid over its model config; the tensors stay as they are."""
        data = path.read_bytes()
        (length,) = struct.unpack("<Q", data[9:17])
        header = json.loads(data[17 : 17 + length])
        header["model_config"].update(changes)
        blob = json.dumps(header).encode()
        path.write_bytes(data[:9] + struct.pack("<Q", len(blob)) + blob + data[17 + length :])

    @pytest.mark.parametrize("changes", [{"hidden_size": 2**20}, {"n_layers": 10**12}, {"n_layers": 3}],
                             ids=["hidden-2^20", "layers-10^12", "one-layer-more"])
    def test_header_claiming_more_than_the_file_holds_builds_no_model(self, tmp_path, monkeypatch, changes):
        # a 2^20-wide model would need about 35 TB: the header's claim is
        # bounded by the bytes left in the file before any model is built
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model())
        self.with_model_config(path, **changes)

        def build(*args, **kwargs):
            raise AssertionError("the model was built")
        monkeypatch.setattr(tensorio, "TransformerModel", build)
        with pytest.raises(FormatError, match="needs .* bytes of parameters"):
            load_checkpoint(path)

    def test_repeated_parameter_name_is_a_format_error(self, tmp_path):
        # names that end in a second "embedding", with one more block
        # appended, passed the name-set and byte checks, and the last block
        # silently replaced the embedding
        model = tiny_model(n_layers=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        data = path.read_bytes()
        (length,) = struct.unpack("<Q", data[9:17])
        header = json.loads(data[17 : 17 + length])
        header["param_names"].append("embedding")
        blob = json.dumps(header).encode()
        extra = io.BytesIO()
        write_tensor(extra, np.zeros_like(model.embedding.value))
        path.write_bytes(data[:9] + struct.pack("<Q", len(blob)) + blob + data[17 + length :] + extra.getvalue())
        with pytest.raises(FormatError, match="repeats the parameter name 'embedding'"):
            load_checkpoint(path)

    def test_largest_f32_value_accepted(self, tmp_path):
        model = tiny_model()
        model.head.value[0, 0] = -float(np.finfo(np.float32).max)
        save_checkpoint(tmp_path / "m.ckpt", model)
        loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
        assert loaded.head.value[0, 0] == model.head.value[0, 0]


def corruptions(blob: bytes):
    """(label, bytes) for every truncation of ``blob`` and for bytes
    0x00/0xff/0x7f/0x80 written at each of its first 400 bytes."""
    for n in range(len(blob)):
        yield f"truncated to {n} bytes", blob[:n]
    for offset in range(min(len(blob), 400)):
        for byte in (0x00, 0xFF, 0x7F, 0x80):
            data = bytearray(blob)
            data[offset] = byte
            yield f"byte {offset} set to {byte:#04x}", bytes(data)


class TestCorruptionSweep:
    """Every corruption of a checkpoint, a dense tensor and a .q48 block of
    every scheme either loads or raises FormatError, with warnings as
    errors: no other exception and no warning escapes a reader."""

    def sweep(self, blob: bytes, load) -> None:
        for label, data in corruptions(blob):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    load(data)
                except FormatError:
                    pass
                except Exception as e:  # name the case that escaped
                    pytest.fail(f"{label}: {type(e).__name__}: {e}")

    def test_checkpoint(self, tmp_path):
        config = ModelConfig(hidden_size=4, glu_size=4, n_heads=2, n_layers=1, vocab_size=8, seq_len=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, TransformerModel(config, seed=3))
        blob = path.read_bytes()

        def load(data):
            path.write_bytes(data)
            load_checkpoint(path)

        self.sweep(blob, load)

    def test_dense_tensor(self):
        buf = io.BytesIO()
        write_tensor(buf, np.arange(16.0).reshape(4, 4))
        self.sweep(buf.getvalue(), lambda data: read_tensor(io.BytesIO(data)))

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_quantized_block(self, name):
        buf = io.BytesIO()
        write_quantized(buf, quantize(np.random.default_rng(7).standard_normal((2, 4)), SCHEMES[name]))
        self.sweep(buf.getvalue(), lambda data: read_quantized(io.BytesIO(data)))
