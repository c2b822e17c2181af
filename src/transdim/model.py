"""Variable-dimensional parametric model: domain types and exact densities.

The model describes random draws ``(k, theta_1..theta_k)`` from a union of
subspaces of differing dimensionality.  It has ``L`` gated Gaussian
components (each present with probability ``pi_l``, truncated to a bounded
box) plus a homogeneous Poisson point process with mean count ``lam`` that
absorbs points none of the Gaussians explains.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import gammaln, log_ndtr, ndtr, ndtri

__all__ = [
    "ParamSpace",
    "VariableDimSample",
    "AllocationVector",
    "GaussianComponent",
    "ApproxModel",
    "SampleSet",
    "indicator_from_allocation",
    "labeled_joint_log_density",
    "sample_batch_from_model",
    "model_intensity",
]

LOG_2PI = math.log(2.0 * math.pi)


class ModelError(ValueError):
    """Invalid model, sample, or allocation input."""


def _check_int(name: str, value, least: int) -> None:
    """Raise ModelError unless ``value`` is an integer >= ``least``; a bool
    is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ModelError(f"{name} must be an integer >= {least}, got {value!r}")


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamSpace:
    """Bounded box of component parameters: ``d`` intervals ``(lo, hi)``."""

    bounds: np.ndarray

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.bounds, dtype=float))
        if b.ndim != 2 or b.shape[1] != 2:
            raise ModelError(f"bounds must have shape (d, 2), got {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ModelError("bounds must be finite")
        if not np.all(b[:, 0] < b[:, 1]):
            raise ModelError("each lower bound must be strictly below the upper bound")
        object.__setattr__(self, "bounds", b)

    @property
    def dim(self) -> int:
        return self.bounds.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.bounds[:, 1] - self.bounds[:, 0]

    @property
    def log_volume(self) -> float:
        return float(np.sum(np.log(self.widths)))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Elementwise membership of points with shape (..., d)."""
        pts = np.asarray(points, dtype=float)
        lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        return np.all((pts >= lo) & (pts <= hi), axis=-1)


@dataclass
class VariableDimSample:
    """One draw ``(k, theta_1..theta_k)``; components is a (k, d) array."""

    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=float)
        if c.size == 0:
            c = c.reshape(0, c.shape[1] if c.ndim == 2 else 1)
        if c.ndim != 2:
            raise ModelError(f"components must be a (k, d) array, got shape {c.shape}")
        self.components = c

    @property
    def k(self) -> int:
        return self.components.shape[0]


@dataclass
class AllocationVector:
    """Labels ``z_1..z_k`` in ``{1..L+1}``; label ``L+1`` is the point process."""

    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)

    @property
    def k(self) -> int:
        return self.labels.shape[0]


@dataclass
class GaussianComponent:
    """Axis-aligned Gaussian with presence probability ``pi``.

    ``pi = 0`` is tolerated so that re-estimation can hand back a component
    that attracted no samples (densities then signal ``-inf`` where the gate
    would need to be open); such components are meant to be pruned.
    """

    mu: np.ndarray
    sigma2: np.ndarray
    pi: float

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float).reshape(-1)
        self.sigma2 = np.asarray(self.sigma2, dtype=float).reshape(-1)
        if self.mu.shape != self.sigma2.shape:
            raise ModelError("mu and sigma2 must have the same length")
        if not np.isfinite(self.mu).all():
            raise ModelError("mu must be finite")
        if not ((self.sigma2 > 0) & (self.sigma2 < math.inf)).all():
            raise ModelError("sigma2 must be finite and positive componentwise")
        if not (0.0 <= self.pi <= 1.0):
            raise ModelError(f"pi must lie in [0, 1], got {self.pi}")


@dataclass
class ApproxModel:
    """Fitted object: L gated Gaussians, outlier rate ``lam``, and the box."""

    space: ParamSpace
    components: list[GaussianComponent]
    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam < math.inf:
            raise ModelError(f"lam must be finite and nonnegative, got {self.lam}")
        for comp in self.components:
            if comp.mu.shape[0] != self.space.dim:
                raise ModelError("component dimension does not match the space")

    @property
    def L(self) -> int:
        return len(self.components)

    def mus(self) -> np.ndarray:
        """Stacked means, shape (L, d)."""
        return np.array([c.mu for c in self.components], dtype=float).reshape(-1, self.space.dim)

    def sigma2s(self) -> np.ndarray:
        return np.array([c.sigma2 for c in self.components], dtype=float).reshape(-1, self.space.dim)

    def pis(self) -> np.ndarray:
        return np.array([c.pi for c in self.components])


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Ordered collection of variable-dimensional samples plus provenance,
    held as two columns: ``points``, every record's components stacked in
    record order into one read-only (P, d) array, and ``k``, the (M,) count
    per record, so record i is ``points[offsets[i]:offsets[i + 1]]``.

    Samples whose components fall outside the box are rejected at ingestion
    (never clamped); ``rejected`` holds the count.
    """

    space: ParamSpace
    points: np.ndarray
    k: np.ndarray
    provenance: dict = field(default_factory=dict)
    rejected: int = 0

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float).view()
        k = np.asarray(self.k)
        if points.ndim != 2 or points.shape[1] != self.space.dim or k.ndim != 1 or (
                k.size and k.dtype.kind not in "iu"):
            raise ModelError(f"need (P, {self.space.dim}) points and (M,) integer k, "
                             f"got {points.shape} and {k.shape} {k.dtype}")
        k = k.astype(np.int64)
        if np.any(k < 0) or k.sum() != points.shape[0]:
            raise ModelError(f"k must be >= 0 and add up to the {points.shape[0]} points")
        points.flags.writeable = k.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "k", k)

    def __len__(self) -> int:
        return self.k.shape[0]

    @cached_property
    def offsets(self) -> np.ndarray:
        """(M+1,) start of each record in ``points``, then P."""
        return np.concatenate(([0], np.cumsum(self.k)))

    def split(self, per_point: np.ndarray) -> list[np.ndarray]:
        """Cut an array aligned with ``points`` into one view per record."""
        ends = self.offsets.tolist()
        return [per_point[a:b] for a, b in zip(ends, ends[1:])]

    @cached_property
    def samples(self) -> tuple[VariableDimSample, ...]:
        """One read-only VariableDimSample view per record."""
        return tuple(VariableDimSample(c) for c in self.split(self.points))

    def k_values(self) -> np.ndarray:
        return self.k

    def empirical_posterior_k(self) -> np.ndarray:
        """Relative frequency of each k, indexed 0..max(k)."""
        if len(self) == 0:
            raise ModelError("empty sample set")
        return np.bincount(self.k) / len(self)

    def by_k(self):
        """Yield ``(k, record indices, (n, k, d) block)`` for each k present,
        in ascending k; the block's rows follow record order."""
        starts = self.offsets[:-1]
        for k in np.unique(self.k).tolist():
            idx = np.flatnonzero(self.k == k)
            yield k, idx, self.points[starts[idx, None] + np.arange(k)]

    @classmethod
    def ingest(cls, space: ParamSpace, raw: list[np.ndarray], provenance: dict | None = None):
        """Build a SampleSet from one (k_i, d) array per record, dropping
        the records with out-of-box components."""
        arrays = [np.asarray(a, dtype=float).reshape(-1, space.dim) for a in raw]
        points = np.concatenate(arrays or [np.zeros((0, space.dim))])
        return cls.ingest_columns(space, points, [len(a) for a in arrays], provenance)

    @classmethod
    def ingest_columns(cls, space: ParamSpace, points, k, provenance: dict | None = None):
        """:meth:`ingest` for records already held as the two columns."""
        whole = cls(space, points, k, provenance or {})
        rows = np.repeat(np.arange(len(whole)), whole.k)
        bad = np.bincount(rows[~space.contains(whole.points)], minlength=len(whole)) > 0
        return cls(space, whole.points[~bad[rows]], whole.k[~bad], whole.provenance, int(bad.sum()))


# ---------------------------------------------------------------------------
# Truncated-normal helpers
# ---------------------------------------------------------------------------


def _log_interval_mass(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """log(Phi(beta) - Phi(alpha)) computed stably for alpha < beta."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    # reflect so the dominant term is evaluated in the left tail
    flip = alpha + beta > 0
    a = np.where(flip, -beta, alpha)
    b = np.where(flip, -alpha, beta)
    lb = log_ndtr(b)
    la = log_ndtr(a)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = lb + np.log1p(-np.exp(la - lb))
    return np.where(la == lb, -np.inf, out)


def _component_log_mass(model: ApproxModel, box: np.ndarray | None = None) -> np.ndarray:
    """Per-component, per-dimension log mass of a (d, 2) box, by default the
    model's own, shape (L, d)."""
    mus = model.mus()
    sig = np.sqrt(model.sigma2s())
    lo, hi = (model.space.bounds if box is None else box).T
    return _log_interval_mass((lo - mus) / sig, (hi - mus) / sig)


def _gaussian_log_densities(points: np.ndarray, model: ApproxModel) -> np.ndarray:
    """Box-truncated Gaussian log density of each point under each component.

    Parameters
    ----------
    points : (..., d) array of locations inside the box.

    Returns
    -------
    (..., L) array of log densities.
    """
    pts = np.asarray(points, dtype=float)
    mus = model.mus()
    sig2 = model.sigma2s()
    log_mass = _component_log_mass(model)
    diff = pts[..., None, :] - mus
    per_dim = -0.5 * (LOG_2PI + np.log(sig2)) - 0.5 * diff * diff / sig2 - log_mass
    return per_dim.sum(axis=-1)


def _truncated_normal_draws(
    mu: np.ndarray, sigma: np.ndarray, lo: np.ndarray, hi: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Inverse-CDF draws restricted to [lo, hi]; u are uniforms on (0, 1)."""
    clo = ndtr((lo - mu) / sigma)
    chi = ndtr((hi - mu) / sigma)
    x = mu + sigma * ndtri(clo + u * (chi - clo))
    return np.clip(x, lo, hi)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _label_counts(labels: np.ndarray, rows: np.ndarray, n: int, L: int) -> np.ndarray:
    """(n, L+1) count of each 1-based label in each of n records, ``rows``
    naming each point's record; checked as :func:`indicator_from_allocation`."""
    if labels.size and (labels.min() < 1 or labels.max() > L + 1):
        raise ModelError(f"labels must lie in 1..{L + 1}")
    counts = np.bincount(rows * (L + 1) + labels - 1, minlength=n * (L + 1)).reshape(n, L + 1)
    repeated = np.argwhere(counts[:, :L] > 1)
    if repeated.size:
        raise ModelError(f"Gaussian label {repeated[0, 1] + 1} repeated: allocation is invalid")
    return counts


def indicator_from_allocation(z: AllocationVector, L: int) -> np.ndarray:
    """Count how many points each label received: an (L+1,) array whose last
    entry counts the outlier points.

    Raises if a label is out of range or a Gaussian label repeats (the
    allocation is then not a valid labeling).
    """
    return _label_counts(z.labels, np.zeros(z.k, dtype=np.int64), 1, L)[0]


def _point_labels(samples: SampleSet, allocations: list, L: int) -> np.ndarray:
    """The 1-based labels of ``samples.points`` from one AllocationVector per
    record, each checked as :func:`indicator_from_allocation` checks it."""
    if len(allocations) != len(samples):
        raise ModelError("allocations do not align with the sample set")
    wrong = np.flatnonzero(np.array([z.k for z in allocations], dtype=np.int64) != samples.k)
    if wrong.size:
        raise ModelError(f"allocation {wrong[0]} has wrong length")
    labels = np.concatenate([z.labels for z in allocations] or [np.zeros(0, dtype=np.int64)])
    _label_counts(labels, np.repeat(np.arange(len(samples)), samples.k), len(samples), L)
    return labels


def labeled_joint_log_density(
    x: VariableDimSample, z: AllocationVector, model: ApproxModel
) -> float:
    """Joint log density of a sample together with its allocation."""
    if x.k != z.k:
        raise ModelError(f"sample has k={x.k} but allocation has k={z.k}")
    if not np.all(model.space.contains(x.components)):
        raise ModelError("sample has components outside the parameter box")
    L = model.L
    xi = indicator_from_allocation(z, L)
    n_out = int(xi[L])
    out = -model.lam - float(gammaln(x.k + 1))
    if n_out > 0:
        if model.lam == 0.0:
            return -np.inf
        out += n_out * (math.log(model.lam) - model.space.log_volume)
    gauss = z.labels <= L
    dens = _gaussian_log_densities(x.components[gauss], model)
    picked = dens[np.arange(int(gauss.sum())), z.labels[gauss] - 1]
    # canonical summation order: exact invariance under permuting the
    # (theta_j, z_j) pairs
    out += float(np.sort(picked).sum())
    pis = model.pis()
    present = xi[:L] == 1
    with np.errstate(divide="ignore"):
        log_pi = np.log(pis)
        log_1m = np.log1p(-pis)
    term = np.where(present, log_pi, log_1m)
    if np.any(np.isneginf(term)):
        return -np.inf
    return out + float(term.sum())


def _draw_columns(model: ApproxModel, size: int, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``size`` draws of the model as columns: the (P, d) points in record
    order, the (size,) count per record and the (P,) labels in 1..L+1."""
    _check_int("size", size, 0)
    rng = np.random.default_rng(rng)
    L, d = model.L, model.space.dim
    lo, hi = model.space.bounds[:, 0], model.space.bounds[:, 1]
    pis = model.pis()
    present = rng.random((size, L)) < pis
    n_out = rng.poisson(model.lam, size=size)
    k = present.sum(axis=1) + n_out
    k_max = int(k.max()) if size else 0

    points = np.zeros((size, k_max, d))
    labels = np.zeros((size, k_max), dtype=np.int64)
    mus, sig = model.mus(), np.sqrt(model.sigma2s())
    fill = np.zeros(size, dtype=np.int64)
    for l in range(L):
        rows = np.flatnonzero(present[:, l])
        u = rng.random((rows.size, d))
        draws = _truncated_normal_draws(mus[l], sig[l], lo, hi, u)
        points[rows, fill[rows]] = draws
        labels[rows, fill[rows]] = l + 1
        fill[rows] += 1
    total_out = int(n_out.sum())
    unif = lo + rng.random((total_out, d)) * (hi - lo)
    rows = np.repeat(np.arange(size), n_out)
    # positions fill[row], fill[row]+1, ... within each row
    offsets = np.arange(total_out) - np.repeat(np.cumsum(n_out) - n_out, n_out)
    points[rows, fill[rows] + offsets] = unif
    labels[rows, fill[rows] + offsets] = L + 1

    # uniform random arrangement of the k points in each row
    keys = rng.random((size, k_max))
    keys[np.arange(k_max) >= k[:, None]] = np.inf
    order = np.argsort(keys, axis=1)
    points = np.take_along_axis(points, order[:, :, None], axis=1)
    labels = np.take_along_axis(labels, order, axis=1)
    keep = np.arange(k_max) < k[:, None]
    return points[keep], k, labels[keep]


def sample_batch_from_model(
    model: ApproxModel, size: int, rng: np.random.Generator | int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Draw many samples with their true allocations.

    Returns
    -------
    samples : list of (k_i, d) arrays
    labels : list of (k_i,) int arrays with values in 1..L+1
    """
    points, k, labels = _draw_columns(model, size, rng)
    records = SampleSet(model.space, points, k)
    return records.split(points), records.split(labels)


def model_intensity(theta: np.ndarray, model: ApproxModel) -> np.ndarray | float:
    """Expected component density at theta: sum of pi_l times each Gaussian.

    The point process term is deliberately excluded.  Accepts a single
    point (d,) or a batch (..., d).
    """
    theta = np.asarray(theta, dtype=float)
    scalar = theta.ndim == 1
    if not np.all(model.space.contains(theta)):
        raise ModelError("theta lies outside the parameter box")
    vals = np.exp(_gaussian_log_densities(theta, model)) @ model.pis()
    return float(vals) if scalar else vals

