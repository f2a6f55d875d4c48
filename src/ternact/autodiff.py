"""Reverse-mode automatic differentiation on numpy arrays.

A ``Var`` wraps a float64 array and remembers how it was produced; calling
``backward`` on a scalar loss walks the recorded graph in reverse
topological order and accumulates gradients into every upstream leaf
``Var``. The walk consumes the graph: each node drops its adjoint, parents
and gradient once its adjoint has run, so the tape is freed as it goes and
a graph can be walked once.
Quantizers and the top-K mask are non-differentiable, so the ops that apply
them (``bitlinear`` here, the attention core in ``layers``) register
straight-through adjoints: the gradient passes each quantizer unchanged, and
the mask gates it. ``bitlinear`` multiplies integer lattice points, read
with their divisors from ``quantcore.lattice_codes``.
``softmax`` and ``rope`` are array functions those adjoints are written
around.

Inside ``no_grad()`` ops compute values only and record nothing.
"""

from __future__ import annotations

import functools
import weakref
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from .quantcore import (
    LATTICES,
    SCHEMES,
    QuantizedTensor,
    QuantScheme,
    SchemeKind,
    dequantize,
    lattice_codes,
    quantize,
)
from .sparsify import topk_mask

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable trace recording for the enclosed forward computations."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def grad_enabled() -> bool:
    """Whether ops record onto the tape (False inside ``no_grad``)."""
    return _GRAD_ENABLED


class MissingTraceError(RuntimeError):
    """backward() was called on a value with no recorded forward trace, or
    whose graph an earlier backward() consumed."""


# the adjoint slot of a node an earlier backward() consumed
_CONSUMED = object()


class Var:
    """Node in the reverse-mode tape.

    A Var with parents records the adjoint that maps its gradient to theirs.
    ``backward`` consumes that record: afterwards only leaves (Vars with no
    parents, the parameters among them) hold a ``.grad``, and every Var
    keeps its ``.value``.
    """

    __slots__ = ("value", "grad", "_parents", "_backward", "_traced", "_codes", "__weakref__")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._codes = None  # weight-code cache, see weight_codes
        self._parents: tuple[Var, ...] = tuple(parents) if _GRAD_ENABLED else ()
        self._backward = backward if _GRAD_ENABLED else None
        self._traced = _GRAD_ENABLED

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every upstream leaf.

        The walk consumes the graph: once a node's adjoint has run, the node
        drops its adjoint, its parents and its gradient, so each intermediate
        array is freed as soon as no later adjoint reads it. Leaves keep
        their gradients. A second backward() through a consumed node raises
        ``MissingTraceError`` before any gradient moves.
        """
        if self.value.ndim != 0:
            raise ValueError("backward() requires a scalar loss")
        if not self._traced:
            raise MissingTraceError(
                "no forward trace was recorded (the loss was computed under no_grad)"
            )
        order: list[Var] = []
        seen: set[int] = set()
        stack: list[tuple[Var, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _CONSUMED:
                raise MissingTraceError("the graph was consumed by an earlier backward()")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.value)
        while order:
            # popping drops the list's reference to the node
            node = order.pop()
            adjoint, parents, g = node._backward, node._parents, node.grad
            if adjoint is None:
                continue  # a leaf keeps its gradient
            node._backward, node._parents, node.grad = _CONSUMED, (), None
            if g is None:
                continue
            for parent, pg in zip(parents, adjoint(g)):
                if pg is None:
                    continue
                if parent.grad is None:
                    parent.grad = pg
                else:
                    parent.grad = parent.grad + pg


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def add(a: Var, b: Var) -> Var:
    a, b = as_var(a), as_var(b)
    if a.value.shape != b.value.shape:
        raise ValueError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")
    return Var(a.value + b.value, (a, b), lambda g: (g, g))


def mul(a: Var, b: Var) -> Var:
    a, b = as_var(a), as_var(b)
    if a.value.shape != b.value.shape:
        raise ValueError(f"mul shape mismatch: {a.value.shape} vs {b.value.shape}")
    av, bv = a.value, b.value
    return Var(av * bv, (a, b), lambda g: (g * bv, g * av))


def linear(x: Var, w: Var) -> Var:
    """x @ w.T for a 2-D weight, gradients reduced over all leading dims."""
    x, w = as_var(x), as_var(w)
    xv, wv = x.value, w.value
    if wv.ndim != 2 or xv.shape[-1] != wv.shape[1]:
        raise ValueError(f"linear shape mismatch: {xv.shape} @ {wv.shape}.T")

    def backward(g):
        g2 = g.reshape(-1, wv.shape[0])
        return g @ wv, g2.T @ xv.reshape(-1, wv.shape[1])

    return Var(xv @ wv.T, (x, w), backward)


def embedding(table: Var, tokens: np.ndarray) -> Var:
    table = as_var(table)
    tokens = np.asarray(tokens)
    if tokens.min() < 0 or tokens.max() >= table.value.shape[0]:
        raise ValueError("token id outside the embedding table")

    def backward(g):
        dt = np.zeros_like(table.value)
        np.add.at(dt, tokens.reshape(-1), g.reshape(-1, table.value.shape[1]))
        return (dt,)

    return Var(table.value[tokens], (table,), backward)


def relu2(a: Var) -> Var:
    """ReLU squared; adjoint is 2*ReLU(x)."""
    a = as_var(a)
    av = a.value
    r = np.maximum(av, 0.0)
    return Var(r * r, (a,), lambda g: (g * 2.0 * np.maximum(av, 0.0),))


def silu(a: Var) -> Var:
    a = as_var(a)
    s = 1.0 / (1.0 + np.exp(-a.value))
    out = a.value * s
    return Var(out, (a,), lambda g: (g * (s + out * (1.0 - s)),))


def rmsnorm(x: Var, gain: Var, eps: float = 1e-6) -> Var:
    """x / sqrt(mean(x^2) + eps) * gain over the last axis."""
    x, gain = as_var(x), as_var(gain)
    xv = x.value
    n = xv.shape[-1]
    # r has one entry per row: at a decode step's one row, a new array is
    # cheaper than an in-place update
    r = np.sqrt(np.add.reduce(xv * xv, axis=-1, keepdims=True) / n + eps)
    gv = gain.value

    def backward(g):
        gg = g * gv
        dx = gg / r - xv * np.add.reduce(gg * xv, axis=-1, keepdims=True) / (n * r**3)
        dgain = np.add.reduce(g * (xv / r), axis=tuple(range(g.ndim - 1)))
        return dx, dgain

    return Var(xv / r * gv, (x, gain), backward)


def softmax(a: np.ndarray, axis: int = -1) -> np.ndarray:
    e = a - np.maximum.reduce(a, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=axis, keepdims=True)
    return e


# Rotary embedding base: pair i of a head turns by pos * ROPE_BASE^(-2i/d).
ROPE_BASE = 10000.0
# Positions the first rotary table of a head size covers; a later position
# grows it to the next power of two.
_ROPE_MIN_POSITIONS = 64


@functools.cache
def _rope_table(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rotary factors of positions [0, n) for head size d, read-only: an
    (n, d) table with the cos of each pair's angle on both entries of the
    pair, and an (n, d/2) table of the sines."""
    freqs = ROPE_BASE ** (-2.0 * np.arange(d // 2) / d)
    angles = np.arange(n, dtype=np.float64)[:, None] * freqs[None, :]
    table = np.repeat(np.cos(angles), 2, axis=-1), np.sin(angles)
    for t in table:
        t.flags.writeable = False
    return table


def _rotate(v: np.ndarray, positions: np.ndarray, sign: float) -> np.ndarray:
    # pair (e, o) turns into (e*cos - o*sin, o*cos + e*sin), or by the
    # opposite angle for sign -1. The cos product runs over whole rows; the
    # sin products update the two strided halves in place.
    d = v.shape[-1]
    if d % 2 != 0:
        raise ValueError(f"rope requires an even head_dim, got {d}")
    if type(positions) is range and positions.step == 1 and positions.start >= 0:
        # a contiguous range reads a slice of the table
        top, rows = positions.stop, slice(positions.start, positions.stop)
    else:
        rows = np.asarray(positions)
        top = int(rows.max()) + 1
    n = _ROPE_MIN_POSITIONS if top <= _ROPE_MIN_POSITIONS else 1 << (top - 1).bit_length()
    cos, sin = _rope_table(d, n)
    sin = sin[rows]
    out = v * cos[rows]
    even, odd = v[..., 0::2], v[..., 1::2]
    if sign > 0:
        out[..., 0::2] -= odd * sin
        out[..., 1::2] += even * sin
    else:
        out[..., 0::2] += odd * sin
        out[..., 1::2] -= even * sin
    return out


def rope(v: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Rotate interleaved pairs of the last axis by pos * ROPE_BASE^(-2i/d).

    Expects (..., T, head_dim) with an even head_dim; positions holds T
    nonnegative integers, in any order. A ``range`` of consecutive positions
    slices the rotary table instead of indexing it, with the same result.
    """
    return _rotate(v, positions, 1.0)


def rope_adjoint(g: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The adjoint of ``rope``: the rotation by the opposite angle."""
    return _rotate(g, positions, -1.0)


# The scheme kinds a bitlinear input can take, and the named schemes of
# those kinds.
INPUT_KINDS = frozenset((SchemeKind.INT8_ABSMAX, SchemeKind.INT4_ABSMEAN, SchemeKind.FP4_MINMAX))
INPUT_SCHEMES = {name: scheme for name, scheme in SCHEMES.items() if scheme.kind in INPUT_KINDS}
# Largest |lattice point| a bitlinear input can hold (int8's -128); a float32
# sum of K such points times ternary codes stays exact while K * it <= 2^24.
_INPUT_PEAK = max(LATTICES[kind].peak for kind in INPUT_KINDS)


class InputCodes(NamedTuple):
    """A bitlinear input as integer-valued float32 ``codes`` (top-K masked),
    the per-row ``row_factor`` that maps code products back to values, and the
    keep-``mask`` (None when k is off)."""

    codes: np.ndarray
    row_factor: np.ndarray
    mask: np.ndarray | None
    quantized: QuantizedTensor

    def values(self) -> np.ndarray:
        """The dequantized, masked input: the operand the matmul consumes."""
        return _masked_values(self.quantized, self.mask)


def _masked_values(q: QuantizedTensor, mask: np.ndarray | None) -> np.ndarray:
    deq = dequantize(q)
    return deq if mask is None else deq * mask


def input_codes(xv, scheme: QuantScheme, k_fraction: float | None = None) -> InputCodes:
    """Quantize a bitlinear input to codes, row factors and the top-K mask.

    This is the one place a projection input becomes integer codes; the
    dense and gate-first FFN paths and the sparsity reports all read it.
    """
    if scheme.kind not in INPUT_KINDS:
        raise ValueError(f"unsupported bitlinear input scheme {scheme.kind}")
    q = quantize(xv, scheme)
    # the code-product multiplier: a product of input lattice points and
    # weight codes times (group scale / divisor) * alpha is the projection
    codes, divisor = lattice_codes(q)
    row_factor = q.scales[..., None] / divisor
    mask = None
    if k_fraction is not None:
        mask = topk_mask(xv, k_fraction).mask
        codes = codes * mask  # a new array: q.codes stay the unmasked codes
    return InputCodes(codes, row_factor, mask, q)


def weight_codes(w: Var, scheme: QuantScheme) -> QuantizedTensor:
    """``quantize(w.value, scheme)``, whose float32 codes the code matmul
    reads as they are.

    Under ``no_grad`` the result is cached on the Var, keyed on the identity
    of ``w.value`` and on the scheme. The optimizer rebinds ``w.value`` on
    every update, which invalidates the entry; the cached array is marked
    read-only so an in-place write fails instead of serving stale codes. The
    cache holds only a weak reference to the array it was built from.
    """
    wv = w.value
    hit = w._codes
    if hit is not None and hit[0]() is wv and (hit[1] is scheme or hit[1] == scheme):
        return hit[2]
    q = quantize(wv, scheme)
    q.codes.flags.writeable = False
    if not _GRAD_ENABLED:
        wv.flags.writeable = False
        w._codes = (weakref.ref(wv), scheme, q)
    return q


def code_matmul(codes: np.ndarray, wcodes: np.ndarray) -> np.ndarray:
    """codes @ wcodes.T over float32 integer codes, returned as float64.

    Every product and partial sum is an integer of magnitude at most
    128 * K <= 2^24 (128: the largest input lattice point), so float32 holds
    each exactly and the result equals the float64 product bit for bit,
    whatever the summation order.
    """
    k = codes.shape[-1]
    if k * _INPUT_PEAK > 2**24:
        raise ValueError(f"a code matmul over K={k} would not be exact in float32")
    flat = codes.reshape(-1, k) @ wcodes.T
    return flat.astype(np.float64).reshape(*codes.shape[:-1], wcodes.shape[0])


def bitlinear(
    x: Var,
    w: Var,
    xin: InputCodes | None,
    weight_scheme: QuantScheme | None = None,
) -> Var:
    """Fused quantized projection y = fq(x) @ fq_w(w).T with STE adjoints.

    ``xin`` is the input prepared by ``input_codes`` (None leaves x
    unquantized). When both operands are quantized the product is computed
    over integer codes and rescaled afterwards, which makes the result
    independent of summation order (every partial sum is an exact small
    integer), so a column-subset evaluation is bit-identical to the dense one.

    STE: dx is the upstream gradient times the dequantized weight, gated by
    the top-K mask; dw is the upstream gradient times the dequantized, masked
    input. Both operands are dequantized only when the adjoint or a non-code
    product needs them.
    """
    x, w = as_var(x), as_var(w)
    xv, wv = x.value, w.value
    if wv.ndim != 2 or xv.shape[-1] != wv.shape[1]:
        raise ValueError(f"bitlinear shape mismatch: {xv.shape} @ {wv.shape}.T")
    if xin is not None and xin.codes.shape != xv.shape:
        raise ValueError(f"input codes of shape {xin.codes.shape} do not match x {xv.shape}")

    qw = None if weight_scheme is None else weight_codes(w, weight_scheme)
    # the adjoint reads the input's quantized tensor and mask, not the
    # masked code copy the forward multiplies
    xq, mask = (None, None) if xin is None else (xin.quantized, xin.mask)

    def fq_weights():
        return wv if qw is None else dequantize(qw)

    def fq_input():
        return xv if xq is None else _masked_values(xq, mask)

    if xin is not None and qw is not None:
        y = code_matmul(xin.codes, qw.codes)
        y *= xin.row_factor
        y *= qw.scales  # one 0-d scale
    else:
        y = fq_input() @ fq_weights().T

    def backward(g):
        dx = g @ fq_weights()
        if mask is not None:
            dx = dx * mask
        g2 = g.reshape(-1, wv.shape[0])
        dw = g2.T @ fq_input().reshape(-1, wv.shape[1])
        return dx, dw

    return Var(y, (x, w), backward)


def vsum(a: Var) -> Var:
    a = as_var(a)
    return Var(np.sum(a.value), (a,), lambda g: (np.broadcast_to(g, a.value.shape).copy(),))


def cross_entropy(logits: Var, targets: np.ndarray) -> Var:
    """Mean negative log-likelihood over all positions."""
    logits = as_var(logits)
    lv = logits.value
    targets = np.asarray(targets)
    if targets.shape != lv.shape[:-1]:
        raise ValueError(f"target shape {targets.shape} does not match logits {lv.shape}")
    shifted = lv - np.max(lv, axis=-1, keepdims=True)
    logz = np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    logp = shifted - logz
    flat_idx = targets.reshape(-1)
    picked = logp.reshape(-1, lv.shape[-1])[np.arange(flat_idx.size), flat_idx]
    loss = -np.mean(picked)

    def backward(g):
        p = np.exp(logp).reshape(-1, lv.shape[-1])  # a fresh array
        p[np.arange(flat_idx.size), flat_idx] -= 1.0
        return ((g / flat_idx.size) * p.reshape(lv.shape),)

    return Var(loss, (logits,), backward)
