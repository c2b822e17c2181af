"""Posterior summaries for fitted models: the approximate law of k,
expected component counts in intervals, residual extraction, intensity
overlays, and signal reconstruction with its error metric.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .model import (
    ApproxModel,
    ModelError,
    ParamSpace,
    SampleSet,
    _component_log_mass,
    _draw_columns,
    _point_labels,
)
from .sinusoid import _batched_design

__all__ = [
    "approx_posterior_k",
    "expected_count_interval",
    "empirical_count_interval",
    "residuals",
    "bma_histogram_intensity",
    "reconstruct_bma",
    "reconstruct_from_model",
    "reconstruction_error_db",
    "summarize",
]

DB_FLOOR = -300.0
_CHUNK = 8192  # draws per batched reconstruction solve; bounds the memory held


# ---------------------------------------------------------------------------
# law of the component count
# ---------------------------------------------------------------------------


def approx_posterior_k(model: ApproxModel, k_cap: int | None = None) -> np.ndarray:
    """Distribution of the total component count under the fitted model.

    The count is a sum of independent presence indicators plus a Poisson
    outlier count; the result is computed by exact convolution.  Mass
    beyond ``k_cap`` is folded into the last entry, so the vector always
    sums to one.
    """
    lam = model.lam
    if k_cap is None:
        k_cap = model.L + math.ceil(lam + 10.0 * math.sqrt(lam)) + 5
    if k_cap < 0:
        raise ModelError("k_cap must be nonnegative")

    binomial_part = np.ones(1)
    for pi in model.pis():
        binomial_part = np.convolve(binomial_part, [1.0 - pi, pi])

    if lam > 0.0:
        ks = np.arange(k_cap + 1)
        poisson_part = np.exp(ks * math.log(lam) - lam - gammaln(ks + 1.0))
    else:
        poisson_part = np.ones(1)

    full = np.convolve(binomial_part, poisson_part)
    out = np.zeros(k_cap + 1)
    head = min(full.size, k_cap)
    out[:head] = full[:head]
    out[k_cap] = 1.0 - out[:k_cap].sum()
    return out


# ---------------------------------------------------------------------------
# expected component counts in intervals
# ---------------------------------------------------------------------------


def _validate_interval(space: ParamSpace, interval) -> np.ndarray:
    box = np.atleast_2d(np.asarray(interval, dtype=float))
    if box.shape != (space.dim, 2):
        raise ModelError(f"interval must have shape ({space.dim}, 2)")
    if not np.isfinite(box).all():
        raise ModelError("interval bounds must be finite")
    if np.any(box[:, 0] > box[:, 1]):
        raise ModelError("interval lower bounds exceed upper bounds")
    lo, hi = space.bounds[:, 0], space.bounds[:, 1]
    if np.any(box[:, 0] < lo) or np.any(box[:, 1] > hi):
        raise ModelError("interval reaches outside the parameter box")
    return box


def expected_count_interval(model: ApproxModel, interval) -> float:
    """Mean number of components the fitted model places in a sub-box.

    Sums each gate probability times the truncated-Gaussian mass of the
    box, plus the share of the outlier rate proportional to volume.
    """
    box = _validate_interval(model.space, interval)
    widths = box[:, 1] - box[:, 0]
    total = model.lam * float(np.prod(widths / model.space.widths))
    log_share = _component_log_mass(model, box).sum(axis=1) - _component_log_mass(model).sum(axis=1)
    return total + float(np.sum(model.pis() * np.exp(log_share)))


def empirical_count_interval(samples: SampleSet, interval) -> float:
    """Average over samples of the number of components inside the box."""
    box = _validate_interval(samples.space, interval)
    if len(samples) == 0:
        raise ModelError("empty sample set")
    inside = np.all((samples.points >= box[:, 0]) & (samples.points <= box[:, 1]), axis=1)
    return int(inside.sum()) / len(samples)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


def residuals(
    samples: SampleSet, allocations: list, L: int
) -> tuple[np.ndarray, np.ndarray]:
    """Components allocated to the outlier label, with their origins.

    Returns the (n, d) array of residual points and an (n, 2) array of
    (sample index, component index) pairs.  Binning for display is left
    to the output layer.
    """
    out = np.flatnonzero(_point_labels(samples, allocations, L) == L + 1)
    rows = np.repeat(np.arange(len(samples)), samples.k)[out]
    return samples.points[out], np.stack([rows, out - samples.offsets[rows]], axis=1)


# ---------------------------------------------------------------------------
# intensities
# ---------------------------------------------------------------------------


def bma_histogram_intensity(
    samples: SampleSet, bins=50, dim: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of all components pooled across samples, scaled so the
    bars integrate to the mean number of components per sample.

    For multivariate samples ``dim`` selects the coordinate to pool.
    """
    if len(samples) == 0:
        raise ModelError("empty sample set")
    if not 0 <= dim < samples.space.dim:
        raise ModelError(f"dim {dim} out of range")
    counts, edges = np.histogram(samples.points[:, dim], bins=bins, range=tuple(samples.space.bounds[dim]))
    heights = counts / (len(samples) * np.diff(edges))
    return heights, edges


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def reconstruct_bma(samples: SampleSet, y: np.ndarray, delta2: float) -> np.ndarray:
    """Model-averaged noiseless signal estimate: the average of
    D(omega) a_hat(omega) over the frequency vectors of 1-d samples (chain
    samples or model draws), skipping those with a singular design or a
    frequency outside (0, pi)."""
    if samples.space.dim != 1:
        raise ModelError("reconstruction needs 1-d frequency samples")
    if not 0.0 < delta2 < math.inf:
        raise ModelError(f"delta2 must be finite and positive, got {delta2!r}")
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ModelError("the signal must be finite")
    if len(samples) == 0:
        raise ModelError("no draws to reconstruct from")
    N = y.size
    shrink = delta2 / (1.0 + delta2)
    acc = np.zeros(N)
    used = 0
    for k, _, block in samples.by_k():
        stacked = block[:, :, 0]
        for start in range(0, stacked.shape[0], _CHUNK):
            W = stacked[start : start + _CHUNK]
            # a frequency at 0 or pi has a zero or rounding-size sine column
            W = W[np.all((W > 0.0) & (W < math.pi), axis=1)]
            Dt = _batched_design(W, N)
            G = Dt @ np.swapaxes(Dt, 1, 2)
            Dty = Dt @ y
            # a zero pivot in the LU of D'D, where np.linalg.solve would raise
            singular = np.linalg.slogdet(G)[0] == 0.0
            G[singular] = np.eye(2 * k)
            ahat = shrink * np.linalg.solve(G, Dty[:, :, None])[:, :, 0]
            ahat[singular] = 0.0
            acc += ahat.reshape(-1) @ Dt.reshape(-1, N)
            used += W.shape[0] - int(singular.sum())
    if used == 0:
        raise ModelError("every draw had a singular design")
    return acc / used


def reconstruct_from_model(
    model: ApproxModel, y: np.ndarray, delta2: float, size: int, rng
) -> np.ndarray:
    """Noiseless signal estimate from draws of the fitted model.

    Frequencies are generated from the gated components and the outlier
    process; amplitudes come from their posterior mean given the observed
    signal.  To leave the outliers out, pass the model with a zero rate,
    ``ApproxModel(model.space, model.components, 0.0)``.
    """
    points, k, _ = _draw_columns(model, size, rng)
    if size < 1:
        raise ModelError("need at least one draw")
    return reconstruct_bma(SampleSet.ingest_columns(model.space, points, k), y, delta2)


def reconstruction_error_db(y_hat: np.ndarray, y_ref: np.ndarray) -> float:
    """Energy of the estimation error relative to the reference, in dB."""
    y_hat = np.asarray(y_hat, dtype=float)
    y_ref = np.asarray(y_ref, dtype=float)
    if y_hat.shape != y_ref.shape:
        raise ModelError("shape mismatch")
    denom = float(y_ref @ y_ref)
    if denom <= 0.0:
        raise ModelError("reference signal has no energy")
    diff = y_hat - y_ref
    ratio = float(diff @ diff) / denom
    if ratio == 0.0:
        return DB_FLOOR
    return max(10.0 * math.log10(ratio), DB_FLOOR)


# ---------------------------------------------------------------------------
# the assembled report
# ---------------------------------------------------------------------------


def summarize(
    model: ApproxModel,
    samples: SampleSet,
    allocations: list | None = None,
    intervals=(),
    reconstruction_db: float | None = None,
) -> dict:
    """The report document: the fitted components, the law of k, expected
    and empirical counts per interval, and, when given, the residual points
    and the reconstruction error."""
    doc = {
        "components": [
            {"mu": m.tolist(), "sd": s.tolist(), "pi": float(p)}
            for m, s, p in zip(model.mus(), np.sqrt(model.sigma2s()), model.pis())
        ],
        "lambda": float(model.lam),
        "p_k": approx_posterior_k(model).tolist(),
        "intervals": [
            {
                "bounds": np.atleast_2d(np.asarray(box, dtype=float)).tolist(),
                "model": expected_count_interval(model, box),
                "empirical": empirical_count_interval(samples, box),
            }
            for box in intervals
        ],
    }
    if allocations is not None:
        res_pts, _ = residuals(samples, allocations, model.L)
        doc["residuals"] = res_pts.tolist()
        doc["residual_fraction"] = res_pts.shape[0] / len(samples)
    if reconstruction_db is not None:
        doc["reconstruction_db"] = reconstruction_db
    return doc
