"""Binary interchange formats for tensors and model checkpoints.

Dense tensor blocks: magic ``BA48``, one rank byte, little-endian u64 dims,
then the values as little-endian f32 in row-major order. Quantized tensors
reuse the header with the top bit of the rank byte set, followed by a scheme
descriptor, the f32 scale array (with its own rank/dims), and one code byte
per entry (i8, or u8 for the unsigned family; sub-byte packing is out of
scope); reading widens them back to the float32 codes ``quantize`` returns,
and refuses a code outside its scheme's ``quantcore.code_range``, a NaN or
infinite scale, or scales of a shape the granularity does not give; writing
refuses such a code first. Every length and dimension field is bounded by
the bytes left in the (seekable) stream before it is read, and a shape numpy
cannot form is refused.
A dense block's values widen to f64 with no warning, a signalling NaN
included.
Checkpoints are a ``BA48CKPT1`` magic, a length-prefixed JSON header carrying
the model configuration and parameter order, and one dense block per
parameter in that order. Values are stored as f32, so loading widens
back to f64 but does not recover bits beyond f32; a parameter that is not
finite in f32 is refused on save and on load. The loader builds the model
only once the file holds the 4 bytes per parameter value that the header's
configuration claims.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import struct
from collections import Counter
from typing import BinaryIO

import numpy as np

from .model import ModelConfig, TransformerModel, parameter_count
from .quantcore import Granularity, QuantizedTensor, QuantScheme, SchemeKind, code_range

TENSOR_MAGIC = b"BA48"
CHECKPOINT_MAGIC = b"BA48CKPT1"
_QUANTIZED_FLAG = 0x80

_SCHEME_TAGS = {
    SchemeKind.TERNARY_ABSMEAN: 1,
    SchemeKind.INT8_ABSMAX: 2,
    SchemeKind.INT4_ABSMEAN: 3,
    SchemeKind.FP4_MINMAX: 4,
    SchemeKind.UNSIGNED_ABSMAX: 5,
}
_TAG_SCHEMES = {v: k for k, v in _SCHEME_TAGS.items()}


class FormatError(ValueError):
    pass


def _code_dtype(scheme: QuantScheme) -> np.dtype:
    # one byte per code on disk; codes are float32 in memory
    return np.dtype(np.uint8 if scheme.kind is SchemeKind.UNSIGNED_ABSMAX else np.int8)


def _bytes_left(f: BinaryIO) -> int:
    start = f.tell()
    left = f.seek(0, io.SEEK_END) - start
    f.seek(start)
    return left


def _read_exact(f: BinaryIO, n: int) -> bytes:
    # a length read from the stream is bounded by the bytes the stream holds
    # before anything is allocated for it
    left = _bytes_left(f)
    if n > left:
        raise FormatError(f"truncated stream: wanted {n} bytes, {left} left")
    data = f.read(n)
    if len(data) != n:
        raise FormatError(f"truncated stream: wanted {n} bytes, got {len(data)}")
    return data


def _write_dims(f: BinaryIO, shape: tuple[int, ...]) -> None:
    for dim in shape:
        f.write(struct.pack("<Q", dim))


def _read_dims(f: BinaryIO, rank: int) -> tuple[tuple[int, ...], int]:
    """The shape and its element count, counted in Python ints so that no
    product of u64 dims overflows."""
    shape = tuple(struct.unpack("<Q", _read_exact(f, 8))[0] for _ in range(rank))
    return shape, math.prod(shape)


def _reshaped(data: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # the element count already matches, so only a shape numpy cannot form
    # (a dim past its index range beside a zero dim) fails here
    try:
        return data.reshape(shape)
    except ValueError as e:
        raise FormatError(f"shape {shape} cannot be formed: {e}") from e


def write_tensor(f: BinaryIO, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim > 127:
        raise FormatError("rank exceeds the format's one-byte field")
    f.write(TENSOR_MAGIC)
    f.write(struct.pack("<B", arr.ndim))
    _write_dims(f, arr.shape)
    f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_tensor(f: BinaryIO) -> np.ndarray:
    magic = _read_exact(f, 4)
    if magic != TENSOR_MAGIC:
        raise FormatError(f"bad tensor magic {magic!r}")
    rank = struct.unpack("<B", _read_exact(f, 1))[0]
    if rank & _QUANTIZED_FLAG:
        raise FormatError("quantized block where a dense tensor was expected")
    shape, count = _read_dims(f, rank)
    data = np.frombuffer(_read_exact(f, 4 * count), dtype="<f4")
    # a signalling NaN widens to a quiet one; without the errstate the cast
    # warns "invalid value"
    with np.errstate(invalid="ignore"):
        values = data.astype(np.float64)
    return _reshaped(values, shape)


def write_quantized(f: BinaryIO, q: QuantizedTensor) -> None:
    """Raises FormatError, before anything is written, for a code the reader
    would refuse: one outside ``code_range(q.scheme)``, or not an integer."""
    scheme = q.scheme
    lo, hi = code_range(scheme)
    codes = q.codes
    bad = codes[~((codes >= lo) & (codes <= hi) & (codes == np.round(codes)))]
    if bad.size:
        raise FormatError(f"code {bad[0]:g} is not an integer in the {scheme.kind.value} code range [{lo:g}, {hi:g}]")
    f.write(TENSOR_MAGIC)
    f.write(struct.pack("<B", q.codes.ndim | _QUANTIZED_FLAG))
    _write_dims(f, q.codes.shape)
    f.write(
        struct.pack(
            "<BBBB",
            _SCHEME_TAGS[scheme.kind],
            scheme.bits,
            int(scheme.multiplier),
            1 if scheme.granularity is Granularity.PER_TOKEN else 0,
        )
    )
    scales = np.asarray(q.scales, dtype=np.float64)
    f.write(struct.pack("<B", scales.ndim))
    _write_dims(f, scales.shape)
    f.write(np.ascontiguousarray(scales, dtype="<f4").tobytes())
    f.write(np.ascontiguousarray(q.codes, dtype=_code_dtype(scheme)).tobytes())


def read_quantized(f: BinaryIO) -> QuantizedTensor:
    magic = _read_exact(f, 4)
    if magic != TENSOR_MAGIC:
        raise FormatError(f"bad tensor magic {magic!r}")
    rank = struct.unpack("<B", _read_exact(f, 1))[0]
    if not rank & _QUANTIZED_FLAG:
        raise FormatError("dense block where a quantized tensor was expected")
    shape, count = _read_dims(f, rank & ~_QUANTIZED_FLAG)
    tag, bits, multiplier, per_token = struct.unpack("<BBBB", _read_exact(f, 4))
    if tag not in _TAG_SCHEMES:
        raise FormatError(f"unknown scheme tag {tag}")
    kind = _TAG_SCHEMES[tag]
    granularity = Granularity.PER_TOKEN if per_token else Granularity.PER_TENSOR
    kwargs = {}
    if kind is SchemeKind.UNSIGNED_ABSMAX:
        kwargs["bits"] = bits
    if kind is SchemeKind.INT4_ABSMEAN:
        kwargs["multiplier"] = float(multiplier)
    try:
        scheme = QuantScheme(kind, granularity, **kwargs)
    except ValueError as e:
        raise FormatError(f"scheme descriptor names no scheme: {e}") from e
    scale_rank = struct.unpack("<B", _read_exact(f, 1))[0]
    scale_shape, scale_count = _read_dims(f, scale_rank)
    scales = np.frombuffer(_read_exact(f, 4 * scale_count), dtype="<f4")
    # checked in f32: widening a signalling NaN warns
    if not np.isfinite(scales).all():
        raise FormatError("a scale is not finite")
    scales = _reshaped(scales.astype(np.float64), scale_shape)
    if scale_shape != (shape[:-1] if per_token else ()) or (per_token and not shape):
        raise FormatError(f"scales of shape {scale_shape} do not fit {granularity.value} codes {shape}")
    codes = np.frombuffer(_read_exact(f, count), dtype=_code_dtype(scheme)).astype(np.float32)
    lo, hi = code_range(scheme)
    bad = codes[(codes < lo) | (codes > hi)]
    if bad.size:
        raise FormatError(f"code {bad[0]:g} outside the {kind.value} code range [{lo:g}, {hi:g}]")
    return QuantizedTensor(_reshaped(codes, shape), scales, scheme)


def save_tensor(path, arr: np.ndarray) -> None:
    with open(path, "wb") as f:
        write_tensor(f, arr)


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        return read_tensor(f)


def save_quantized(path, q: QuantizedTensor) -> None:
    with open(path, "wb") as f:
        write_quantized(f, q)


def load_quantized(path) -> QuantizedTensor:
    with open(path, "rb") as f:
        return read_quantized(f)


def _config_to_dict(config: ModelConfig) -> dict:
    d = dataclasses.asdict(config)
    d["stage"] = config.stage.value
    return d


def save_checkpoint(path, model: TransformerModel, extra: dict | None = None) -> None:
    """Write the model configuration plus every named parameter. ``extra``
    must be JSON-serializable; it rides along in the header.

    Raises ValueError, before anything is written, naming the first
    parameter that is not finite once stored as f32."""
    params = model.named_parameters()
    for name, p in params.items():
        with np.errstate(over="ignore"):  # past f32's range is inf, reported below
            finite = np.all(np.isfinite(p.value.astype(np.float32)))
        if not finite:
            raise ValueError(f"parameter {name} is not finite in f32; checkpoint not written")
    header = {
        "format": 1,
        "model_config": _config_to_dict(model.config),
        "param_names": list(params),
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for name in params:
            write_tensor(f, params[name].value)


def load_checkpoint(path) -> tuple[TransformerModel, dict]:
    with open(path, "rb") as f:
        magic = _read_exact(f, len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}")
        header_len = struct.unpack("<Q", _read_exact(f, 8))[0]
        try:
            header = json.loads(_read_exact(f, header_len))
            if header.get("format") != 1:
                raise FormatError(f"unsupported checkpoint format {header.get('format')!r}")
            config = ModelConfig(**header["model_config"])
            # str() lets an unhashable entry fail the name check below
            names, extra = [str(n) for n in header["param_names"]], dict(header["extra"])
        except FormatError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise FormatError(f"malformed checkpoint header: {type(e).__name__}: {e}") from e
        # every parameter value takes 4 bytes, so a header that claims more
        # than the file holds is refused before the model is built
        needed, left = 4 * parameter_count(config), _bytes_left(f)
        if needed > left:
            raise FormatError(f"the header's model needs {needed} bytes of parameters, the file holds {left}")
        # a repeated name would let a later block replace an earlier one
        repeated = [name for name, count in Counter(names).items() if count > 1]
        if repeated:
            raise FormatError(f"checkpoint header repeats the parameter name {repeated[0]!r}")
        model = TransformerModel(config, seed=0)
        params = model.named_parameters()
        if set(names) != set(params):
            raise FormatError("checkpoint parameter names do not match the configuration")
        for name in names:
            value = read_tensor(f)
            if value.shape != params[name].value.shape:
                raise FormatError(
                    f"shape mismatch for {name}: {value.shape} vs {params[name].value.shape}"
                )
            if not np.isfinite(value).all():
                raise FormatError(f"parameter {name} is not finite")
            params[name].value = value
    return model, extra
