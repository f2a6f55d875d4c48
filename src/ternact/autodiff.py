"""Reverse-mode automatic differentiation on numpy arrays.

A ``Var`` wraps a float64 array. An op run under grad gives its output Var
a tape node, which holds the op's adjoint, the nodes of its inputs and a
gradient slot; a leaf Var (one no op produced, the parameters among them)
is its own node. The tape links nodes, not Vars, so an intermediate array
is freed when the forward drops its Var, unless an adjoint captured it, and
every adjoint captures only what it reads, in the smallest exact form: a
quantized operand as int8 codes, and the output of a code matmul as its
integer sums (``CodeSums``, reached through ``Var.kept``), from which the
adjoint rebuilds the float64 value with the forward's own ops (``rebuild``).
A code matmul is exact in any order, so the rebuilt value, and every
gradient, is the one a tape that kept the value gives, bit for bit.
Calling ``backward`` on a scalar loss walks the nodes in reverse
topological order and accumulates gradients into every upstream leaf. The
walk consumes the tape: each node drops its adjoint, parents and gradient
once its adjoint has run, so the tape is freed as it goes and can be walked
once.
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
    count_operand,
    dequantize,
    lattice_codes,
    operand,
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


class _Node:
    """One entry of the tape: the gradient slot, the adjoint that maps it to
    the parents' gradients, and the parent nodes."""

    __slots__ = ("grad", "_backward", "_parents", "__weakref__")

    def __init__(self, backward=None, parents: tuple[_Node, ...] = ()):
        self.grad: np.ndarray | None = None
        self._backward = backward
        self._parents = parents


class Var(_Node):
    """A value, and the tape node of the op that produced it.

    An op run under grad gives its output a ``_node`` of its own, which
    links to the nodes of its inputs and never to a Var, so the value goes
    when the Var goes unless an adjoint captured it. A leaf (a Var no op
    produced, the parameters among them) has no ``_node``: it is its own
    node, and keeps the ``.grad`` that ``backward`` accumulates into it.
    (A leaf that referred to itself would be a cycle, freed only by the
    cyclic garbage collector, with its value.)
    """

    __slots__ = ("value", "_node", "_traced", "_codes", "_sums")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self._codes = None  # weight-code cache, see weight_codes
        self._sums = None  # the value as code sums, see kept
        self._traced = _GRAD_ENABLED
        super().__init__()
        self._node = None
        if _GRAD_ENABLED and backward is not None:
            self._node = _Node(backward, tuple(p._node or p for p in parents))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad = None

    def kept(self):
        """What an adjoint keeps to rebuild this value in backward: the
        ``CodeSums`` of a code matmul run under grad, or else the value
        itself. ``rebuild`` reads either to the same float64 bits."""
        return self.value if self._sums is None else self._sums

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every upstream leaf.

        The walk consumes the tape: once a node's adjoint has run, the node
        drops its adjoint, its parents and its gradient, so each array an
        adjoint captured is freed as soon as no later adjoint reads it.
        Leaves keep their gradients. A second backward() through a consumed
        node raises ``MissingTraceError`` before any gradient moves.
        """
        if self.value.ndim != 0:
            raise ValueError("backward() requires a scalar loss")
        if not self._traced:
            raise MissingTraceError(
                "no forward trace was recorded (the loss was computed under no_grad)"
            )
        root = self._node or self
        order: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
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
        root.grad = np.ones_like(self.value)
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

    # each product is one 2-D gemm over the flattened rows: numpy runs a
    # stacked operand as one gemm per leading index, which costs more
    out, k = wv.shape

    def backward(g):
        g2 = g.reshape(-1, out)
        return (g2 @ wv).reshape(xv.shape), g2.T @ xv.reshape(-1, k)

    return Var((xv.reshape(-1, k) @ wv.T).reshape(*xv.shape[:-1], out), (x, w), backward)


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


# the gating functions ``glu`` admits
GLU_ACTIVATIONS = ("relu2", "silu")


def gated_activation(gv: np.ndarray, activation: str) -> np.ndarray:
    """ReLU²(gv), or SiLU(gv) = gv * sigmoid(gv): the gate ``glu`` applies."""
    if activation == "relu2":
        act = np.maximum(gv, 0.0)
        act *= act
        return act
    return gv * _sigmoid(gv)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) in one buffer
    s = np.negative(x)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def glu(up: Var, gate: Var, activation: str) -> Var:
    """up * act(gate), with act ReLU² or SiLU (``gated_activation``), as one op.

    The adjoint holds up and gate, as their code sums when code matmuls
    made them (``Var.kept``), not the activation or the product: it rebuilds
    them and recomputes the activation and its derivative (2 ReLU(x), or
    s + act(x) (1 - s) with s the sigmoid) with the forward's numpy ops.
    """
    up, gate = as_var(up), as_var(gate)
    uv, gv = up.value, gate.value
    if uv.shape != gv.shape:
        raise ValueError(f"glu shape mismatch: {uv.shape} vs {gv.shape}")
    if activation not in GLU_ACTIVATIONS:
        raise ValueError(f"activation must be one of {GLU_ACTIVATIONS}, got {activation!r}")

    # the adjoint keeps up's and gate's code sums where they have them
    ukept, gkept = up.kept(), gate.kept()

    def backward(g):
        # d up = g act(gate) and d gate = (g up) act'(gate), built in the
        # rebuilt up's and gate's buffers, with the products in the order an
        # activation op followed by a mul forms them
        dgate, gv = rebuild(ukept), rebuild(gkept)
        np.multiply(g, dgate, out=dgate)
        if activation == "relu2":
            act = np.maximum(gv, 0.0, out=gv)
            dgate *= 2.0
            dgate *= act  # act' = 2 ReLU
            act *= act
        else:
            s = _sigmoid(gv)
            act = np.multiply(gv, s, out=gv)
            dact = 1.0 - s
            dact *= act
            dact += s  # act' = s + act (1 - s)
            dgate *= dact
        act *= g
        return act, dgate

    out = gated_activation(gv, activation)
    out *= uv
    return Var(out, (up, gate), backward)


# added to the mean square under rmsnorm's square root
RMSNORM_EPS = 1e-6
_RMSNORM_EPS = operand(RMSNORM_EPS)


def rmsnorm(x: Var, gain: Var) -> Var:
    """x / sqrt(mean(x^2) + RMSNORM_EPS) * gain over the last axis."""
    x, gain = as_var(x), as_var(gain)
    xv = x.value
    n = count_operand(xv.shape[-1])
    # one buffer holds the squares, then the output. r has one entry per
    # row: at a decode step's one row, a new array is cheaper than an
    # in-place update
    y = xv * xv
    r = np.sqrt(np.add.reduce(y, axis=-1, keepdims=True) / n + _RMSNORM_EPS)
    gv = gain.value

    def backward(g):
        # dx = gg / r - (xv * sum(gg * xv)) / (n r^3) with gg = g * gain, and
        # dgain = sum(g * (xv / r)), in two buffers with the ops in order
        gg = g * gv
        t = gg * xv
        np.multiply(xv, np.add.reduce(t, axis=-1, keepdims=True), out=t)
        t /= n * r**3
        dx = np.divide(gg, r, out=gg)
        dx -= t
        np.divide(xv, r, out=t)
        t *= g
        return dx, np.add.reduce(t, axis=tuple(range(g.ndim - 1)))

    np.divide(xv, r, out=y)
    y *= gv
    return Var(y, (x, gain), backward)


def softmax(a: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    e = a - np.maximum.reduce(a, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
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
    # sin products, formed in one half-size buffer, update the two strided
    # halves in place.
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
    product = np.multiply(odd, sin)
    if sign > 0:
        out[..., 0::2] -= product
        out[..., 1::2] += np.multiply(even, sin, out=product)
    else:
        out[..., 0::2] += product
        out[..., 1::2] -= np.multiply(even, sin, out=product)
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
# The longest contraction whose code sums fit int16: K * _INPUT_PEAK <= 32767.
_INT16_SUMS_K = np.iinfo(np.int16).max // int(_INPUT_PEAK)


class InputCodes(NamedTuple):
    """A bitlinear input as integer-valued float32 ``codes`` (top-K masked),
    the per-row ``row_factor`` that maps code products back to values, the
    keep-``mask`` (None when k is off) and the ``quantized`` tensor, whose
    codes are int8 under grad: what the adjoint keeps."""

    codes: np.ndarray
    row_factor: np.ndarray
    mask: np.ndarray | None
    quantized: QuantizedTensor

    def values(self) -> np.ndarray:
        """The dequantized, masked input: the operand the matmul consumes."""
        return _masked_values(self.quantized, self.mask)


def _masked_values(q: QuantizedTensor, mask: np.ndarray | None) -> np.ndarray:
    deq = dequantize(q)  # a fresh array
    if mask is not None:
        deq *= mask
    return deq


def _int8_codes(q: QuantizedTensor) -> QuantizedTensor:
    # every signed code fits int8, and dequantize widens it to the float64 the
    # float32 code gives
    return q._replace(codes=q.codes.astype(np.int8))


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
    return InputCodes(codes, row_factor, mask, _int8_codes(q) if _GRAD_ENABLED else q)


def weight_codes(w: Var, scheme: QuantScheme) -> QuantizedTensor:
    """``quantize(w.value, scheme)``, whose float32 codes the code matmul
    reads as they are.

    Under ``no_grad`` the result is cached on the Var, keyed on the identity
    of ``w.value`` and on the scheme. The optimizer rebinds ``w.value`` on
    every update, which invalidates the entry; the cached array is marked
    read-only so an in-place write fails instead of serving stale codes. The
    cache holds only a weak reference to the array it was built from.
    The cached codes are stored (in, out)-contiguous, ``codes`` being the
    transposed view, so the ``codes.T`` a code matmul reads is C-ordered:
    BLAS runs a few-row product several times faster on it than on the
    transposed layout, and the integer sums are the same.
    """
    wv = w.value
    hit = w._codes
    if hit is not None and hit[0]() is wv and (hit[1] is scheme or hit[1] == scheme):
        return hit[2]
    q = quantize(wv, scheme)
    if not _GRAD_ENABLED:
        q = q._replace(codes=np.ascontiguousarray(q.codes.T).T)
        wv.flags.writeable = False
        w._codes = (weakref.ref(wv), scheme, q)
    q.codes.flags.writeable = False
    return q


def code_matmul(codes: np.ndarray, wcodes: np.ndarray) -> np.ndarray:
    """codes @ wcodes.T over float32 integer codes: the integer sums, as
    float32.

    Every product and partial sum is an integer of magnitude at most
    128 * K <= 2^24 (128: the largest input lattice point), so float32 holds
    each exactly and the result is the exact sum, whatever the summation
    order.
    """
    k = codes.shape[-1]
    if k * _INPUT_PEAK > 2**24:
        raise ValueError(f"a code matmul over K={k} would not be exact in float32")
    flat = codes.reshape(-1, k) @ wcodes.T
    return flat.reshape(*codes.shape[:-1], wcodes.shape[0])


def _scaled_sums(sums: np.ndarray, row_factor: np.ndarray, scale: np.ndarray) -> np.ndarray:
    # sums * row_factor * scale in one fresh float64 array, widened (exactly)
    # first: on a batch-16 output, two same-dtype multiplies run faster than
    # one multiply that casts its operand
    y = sums.astype(np.float64)
    y *= row_factor
    y *= scale
    return y


class CodeSums(NamedTuple):
    """A code matmul's output as the tape keeps it: the exact integer
    ``sums`` (int16 while K * 128 fits it, else float32), the input's
    ``row_factor`` and the weight's 0-d ``scale``. ``values`` rebuilds the
    output with the forward's own ops, so bit for bit."""

    sums: np.ndarray
    row_factor: np.ndarray
    scale: np.ndarray

    def values(self) -> np.ndarray:
        return _scaled_sums(self.sums, self.row_factor, self.scale)


def rebuild(kept) -> np.ndarray:
    """The value that ``Var.kept`` returned ``kept`` for, in a fresh array
    the adjoint may write."""
    return kept.values() if type(kept) is CodeSums else kept.copy()


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
    Under grad, such an output also carries its ``CodeSums`` (``Var.kept``),
    which an adjoint that reads the output keeps instead of the float64.

    STE: dx is the upstream gradient times the dequantized weight, gated by
    the top-K mask; dw is the upstream gradient times the dequantized, masked
    input. The adjoint keeps both operands' codes as int8, and dequantizes
    them only when it runs.
    """
    x, w = as_var(x), as_var(w)
    xv, wv = x.value, w.value
    if wv.ndim != 2 or xv.shape[-1] != wv.shape[1]:
        raise ValueError(f"bitlinear shape mismatch: {xv.shape} @ {wv.shape}.T")
    if xin is not None and xin.codes.shape != xv.shape:
        raise ValueError(f"input codes of shape {xin.codes.shape} do not match x {xv.shape}")

    qw = None if weight_scheme is None else weight_codes(w, weight_scheme)
    # the adjoint reads the input's quantized tensor and mask, not the
    # masked code copy the forward multiplies, and x itself only when it
    # is not quantized
    xq, mask = (None, None) if xin is None else (xin.quantized, xin.mask)
    xkeep = xv if xin is None else None
    wq = qw if qw is None or not _GRAD_ENABLED else _int8_codes(qw)

    def fq_weights():
        return wv if wq is None else dequantize(wq)

    def fq_input():
        return xkeep if xq is None else _masked_values(xq, mask)

    sums = None
    if xin is not None and qw is not None:
        sums = code_matmul(xin.codes, qw.codes)
        y = _scaled_sums(sums, xin.row_factor, qw.scales)
    else:
        y = fq_input() @ fq_weights().T

    xshape = xv.shape  # what the adjoint reads of x when x is quantized

    def backward(g):
        # both products are one 2-D gemm over the flattened rows (see linear)
        g2 = g.reshape(-1, wv.shape[0])
        dx = (g2 @ fq_weights()).reshape(xshape)
        if mask is not None:
            dx *= mask
        dw = g2.T @ fq_input().reshape(-1, wv.shape[1])
        return dx, dw

    out = Var(y, (x, w), backward)
    if sums is not None and _GRAD_ENABLED:
        if xv.shape[-1] <= _INT16_SUMS_K:
            sums = sums.astype(np.int16)
        out._sums = CodeSums(sums, xin.row_factor, qw.scales)
    return out


def vsum(a: Var) -> Var:
    a = as_var(a)
    shape = a.value.shape
    return Var(np.sum(a.value), (a,), lambda g: (np.broadcast_to(g, shape).copy(),))


def cross_entropy(logits: Var, targets: np.ndarray) -> Var:
    """Mean negative log-likelihood over all positions."""
    logits = as_var(logits)
    lv = logits.value
    targets = np.asarray(targets)
    if targets.shape != lv.shape[:-1]:
        raise ValueError(f"target shape {targets.shape} does not match logits {lv.shape}")
    shifted = lv - np.max(lv, axis=-1, keepdims=True)
    logz = np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    logp = np.subtract(shifted, logz, out=shifted)
    flat_idx = targets.reshape(-1)
    picked = logp.reshape(-1, lv.shape[-1])[np.arange(flat_idx.size), flat_idx]
    loss = -np.mean(picked)
    shape = lv.shape

    def backward(g):
        # in logp's buffer: a consumed tape runs each adjoint once
        p = np.exp(logp, out=logp).reshape(-1, shape[-1])
        p[np.arange(flat_idx.size), flat_idx] -= 1.0
        p *= g / flat_idx.size
        return (p.reshape(shape),)

    return Var(loss, (logits,), backward)
