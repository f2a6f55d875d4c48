"""Top-K magnitude masking and sparsity measurement.

Masking is per token row along the last axis: each row keeps its
``max(1, round(k_fraction * n))`` largest-magnitude entries, ties broken by
lowest index. Bitlinear inputs compose the mask after quantization
(``autodiff.input_codes``): the scale comes from the full row, so dropped
entries are exact zeros while kept entries see the same scale they would
without masking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantcore import _as_checked_array


@dataclass(frozen=True)
class TopKMask:
    """Boolean keep-mask plus the bookkeeping that defines it."""

    mask: np.ndarray
    k_fraction: float
    kept_counts: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.mask.shape


def kept_count(width: int, k_fraction: float) -> int:
    """Entries kept per row: max(1, round(k * n)), half rounding up."""
    if not 0.0 < k_fraction <= 1.0:
        raise ValueError(f"k_fraction must be in (0, 1], got {k_fraction}")
    if width < 1:
        raise ValueError("rows must have at least one entry")
    return max(1, int(np.trunc(k_fraction * width + 0.5)))


def topk_mask(x, k_fraction: float) -> TopKMask:
    """Keep the largest-magnitude entries of each row along the last axis."""
    x = _as_checked_array(x)
    width = x.shape[-1]
    kept = kept_count(width, k_fraction)
    if kept >= width:
        mask = np.ones(x.shape, dtype=bool)
    else:
        # the kept-th largest magnitude is the row's threshold; everything
        # above it is kept, and so are its ties as long as they fit
        mag = np.abs(x)
        threshold = np.partition(mag, width - kept, axis=-1)[..., width - kept, None]
        mask = mag >= threshold
        crowded = np.count_nonzero(mask, axis=-1) > kept
        if crowded.any():
            # too many ties at the threshold: the lowest indices win
            m, t = mag[crowded], threshold[crowded]
            above, tied = m > t, m == t
            room = kept - np.count_nonzero(above, axis=-1)
            mask[crowded] = above | (tied & (np.cumsum(tied, axis=-1) <= room[..., None]))
    counts = np.full(x.shape[:-1], kept, dtype=np.int64)
    return TopKMask(mask=mask, k_fraction=float(k_fraction), kept_counts=counts)


def measure_sparsity(x) -> float:
    """Fraction of exactly-zero entries."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("cannot measure sparsity of an empty tensor")
    return float(np.mean(x == 0.0))


def gate_active_channels(g) -> list[np.ndarray]:
    """Column indices with nonzero gate activation, one array per token row.

    Rows are the flattened leading dimensions; the gate activation is
    nonnegative by construction, so nonzero means the pre-activation was
    positive.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim == 0:
        raise ValueError("gate activations must have at least one axis")
    flat = g.reshape(-1, g.shape[-1])
    return [np.flatnonzero(row) for row in flat]
