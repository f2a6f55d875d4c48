"""Shared quantizer property-suite runner.

Used by test_quantcore for unit-level assertions and by test_acceptance, which
runs the full 10^4-tensors-per-scheme sweep with timing. Each check returns a
list of violation strings; empty means the property held everywhere.
"""

from __future__ import annotations

import numpy as np

from ternact.quantcore import (
    EPS,
    E2M1_GRID,
    Granularity,
    QuantScheme,
    SchemeKind,
    dequantize,
    fake_quant,
    quantize,
)

# Per-token row widths used to build the random-tensor population. Each row of
# a batch is its own scaling group, i.e. one independent random tensor.
_WIDTHS = (4, 8, 17, 32, 64, 128)

CODE_RANGES = {
    SchemeKind.TERNARY_ABSMEAN: (-1, 1),
    SchemeKind.INT8_ABSMAX: (-128, 127),
    SchemeKind.INT4_ABSMEAN: (-8, 7),
    SchemeKind.FP4_MINMAX: (-7, 7),
    SchemeKind.UNSIGNED_ABSMAX: (0, 15),
}

IDEMPOTENT_KINDS = (
    SchemeKind.TERNARY_ABSMEAN,
    SchemeKind.INT8_ABSMAX,
    SchemeKind.FP4_MINMAX,
    SchemeKind.UNSIGNED_ABSMAX,
)

SYMMETRIC_SCHEMES = {
    "ternary": QuantScheme.ternary(),
    "int8": QuantScheme.int8(),
    "int4": QuantScheme.int4(),
    "fp4": QuantScheme.fp4(),
}

ALL_SCHEMES = dict(SYMMETRIC_SCHEMES, unsigned3=QuantScheme.unsigned(3), unsigned4=QuantScheme.unsigned(4))


def random_rows(rng: np.ndarray, n_tensors: int) -> list[np.ndarray]:
    """Batches of random per-token tensors, widths and magnitudes mixed."""
    per = n_tensors // len(_WIDTHS)
    batches = []
    for w in _WIDTHS:
        rows = rng.standard_normal((per, w))
        rows *= 10.0 ** rng.uniform(-2.0, 2.0, size=(per, 1))
        # plant exact zeros so zero preservation is exercised inside groups
        zeros = rng.random((per, w)) < 0.05
        rows[zeros] = 0.0
        batches.append(rows)
    return batches


def check_code_range(scheme: QuantScheme, batches: list[np.ndarray]) -> list[str]:
    lo, hi = CODE_RANGES[scheme.kind]
    bad = []
    for rows in batches:
        q = quantize(rows, scheme) if scheme.kind is not SchemeKind.TERNARY_ABSMEAN else None
        if q is None:
            for row in rows:
                qr = quantize(row, scheme)
                if qr.codes.min() < lo or qr.codes.max() > hi:
                    bad.append(f"ternary codes outside [{lo},{hi}]")
        elif q.codes.min() < lo or q.codes.max() > hi:
            bad.append(f"{scheme.kind.value} codes outside [{lo},{hi}]")
    return bad


def check_grid_membership(batches: list[np.ndarray]) -> list[str]:
    scheme = QuantScheme.fp4()
    bad = []
    for rows in batches:
        q = quantize(rows, scheme)
        mags = np.abs(q.codes.astype(np.int64))
        if mags.max() > 7:
            bad.append("fp4 magnitude code above 7")
            continue
        expected = np.sign(q.codes) * E2M1_GRID[mags] * q.scales[..., None]
        if not np.array_equal(dequantize(q), expected):
            bad.append("fp4 dequant off the sign x E2M1-grid x scale lattice")
    return bad


def check_zero_preservation(batches: list[np.ndarray]) -> list[str]:
    bad = []
    for name, scheme in SYMMETRIC_SCHEMES.items():
        for rows in batches:
            if scheme.kind is SchemeKind.TERNARY_ABSMEAN:
                out = np.stack([fake_quant(r, scheme) for r in rows])
            else:
                out = fake_quant(rows, scheme)
            if not np.all(out[rows == 0.0] == 0.0):
                bad.append(f"{name}: exact zero not preserved")
            if not np.all(fake_quant(np.zeros(rows.shape[-1]), scheme) == 0.0):
                bad.append(f"{name}: zero tensor not preserved")
    return bad


def check_idempotence(scheme: QuantScheme, batches: list[np.ndarray]) -> list[str]:
    bad = []
    for rows in batches:
        if scheme.kind is SchemeKind.TERNARY_ABSMEAN:
            once = np.stack([fake_quant(r, scheme) for r in rows])
            twice = np.stack([fake_quant(r, scheme) for r in once])
        else:
            once = fake_quant(rows, scheme)
            twice = fake_quant(once, scheme)
        if not np.array_equal(once, twice):
            n = int(np.sum(once != twice))
            bad.append(f"{scheme.kind.value}: fake_quant not idempotent ({n} entries moved)")
    return bad


def check_error_bounds(batches: list[np.ndarray]) -> list[str]:
    bad = []
    for rows in batches:
        q8 = quantize(rows, QuantScheme.int8())
        err = np.abs(rows - dequantize(q8))
        gamma = q8.scales[..., None]
        live = gamma > 0
        bound = gamma / 254.0 + EPS * np.abs(rows) / np.where(live, gamma, 1.0)
        if not np.all(err[np.broadcast_to(live, err.shape)] <= bound[np.broadcast_to(live, err.shape)]):
            bad.append("int8 error above gamma/254 + eps|x|/gamma")
        for bits in (3, 4):
            qu = quantize(rows, QuantScheme.unsigned(bits))
            erru = np.abs(rows - dequantize(qu))
            # the tie grid may round an entry within 2^-33 of a level
            # boundary to the farther level
            boundu = qu.scales[..., None] * (1.0 / (2**bits - 1) + 2.0**-33)
            if not np.all(erru <= boundu):
                bad.append(f"unsigned{bits} error above gamma/(2^{bits}-1) + 2^-33 gamma")
    return bad


def check_scale_monotonicity(batches: list[np.ndarray]) -> dict[str, list[str]]:
    """Scaling the input by a power of two must scale every scale exactly and
    leave codes unchanged. Code equality is only attainable where the code
    denominator carries no additive eps (fp4, unsigned); for the eps-bearing
    schemes (ternary, int8, int4) entries whose pre-rounding ratio falls
    inside the eps-induced boundary band flip by one code, so that part is
    reported separately as 'codes-as-stated'.
    """
    scales_bad: list[str] = []
    eps_free_bad: list[str] = []
    stated_bad: list[str] = []
    factors = (0.5, 2.0, 8.0)
    eps_free = {"fp4": QuantScheme.fp4(), "unsigned4": QuantScheme.unsigned(4)}
    eps_bearing = {"int8": QuantScheme.int8(), "int4": QuantScheme.int4()}
    for rows in batches:
        for c in factors:
            tern_ref = [quantize(r, QuantScheme.ternary()) for r in rows[:16]]
            tern_scaled = [quantize(c * r, QuantScheme.ternary()) for r in rows[:16]]
            for a, b in zip(tern_ref, tern_scaled):
                if not np.array_equal(c * a.scales, b.scales):
                    scales_bad.append(f"ternary: alpha not exactly covariant under x{c}")
                if not np.array_equal(a.codes, b.codes):
                    stated_bad.append(f"ternary: codes changed under x{c}")
            for group, bucket in ((eps_free, eps_free_bad), (eps_bearing, stated_bad)):
                for name, scheme in group.items():
                    qa = quantize(rows, scheme)
                    qb = quantize(c * rows, scheme)
                    if not np.array_equal(c * qa.scales, qb.scales):
                        scales_bad.append(f"{name}: scales not exactly covariant under x{c}")
                    if not np.array_equal(qa.codes, qb.codes):
                        n = int(np.sum(qa.codes != qb.codes))
                        dmax = int(np.max(np.abs(qa.codes.astype(np.int64) - qb.codes.astype(np.int64))))
                        bucket.append(f"{name}: {n} codes changed under x{c} (max step {dmax})")
    return {
        "scale-monotonicity[scales]": scales_bad,
        "scale-monotonicity[codes-eps-free]": eps_free_bad,
        "scale-monotonicity[codes-as-stated]": stated_bad,
    }


def run_suite(n_tensors: int = 10_000, seed: int = 20240817) -> dict[str, list[str]]:
    """Run every property over ``n_tensors`` random tensors per scheme."""
    rng = np.random.default_rng(seed)
    batches = random_rows(rng, n_tensors)
    results: dict[str, list[str]] = {}
    for name, scheme in ALL_SCHEMES.items():
        results[f"code-range[{name}]"] = check_code_range(scheme, batches)
    results["grid-membership[fp4]"] = check_grid_membership(batches)
    results["zero-preservation"] = check_zero_preservation(batches)
    for name, scheme in ALL_SCHEMES.items():
        if scheme.kind in IDEMPOTENT_KINDS:
            results[f"idempotence[{name}]"] = check_idempotence(scheme, batches)
    results["max-error-bound"] = check_error_bounds(batches)
    results.update(check_scale_monotonicity(batches))
    return results
