"""Brute-force oracles for the closed forms: enumeration and quadrature.

Each function recomputes a quantity the package evaluates in closed form,
by the slowest obvious route, so that the two can be compared.  They are
exponential in k and L or cubic in the grid size and meant for small
instances only.  ``transdim oracle`` and the test suite share them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy import integrate
from scipy.special import gammaln, logsumexp

from .model import ApproxModel, ModelError, _gaussian_log_densities, _label_counts
from .muons import PulseShape, pulse_density
from .sinusoid import design_matrix

__all__ = [
    "labeled_joint_log_density",
    "enumerate_allocations",
    "exact_allocation_log_posterior",
    "unlabeled_log_density",
    "gate_count_law",
    "truncated_poisson_log_normaliser",
    "quadrature_log_marginal",
    "pulse_bin_quadrature",
]


def labeled_joint_log_density(points, labels, model: ApproxModel) -> float:
    """Joint log density of one record's (k, d) points together with their
    labels z_1..z_k in 1..L+1, label L+1 being the point process."""
    x = np.asarray(points, dtype=float)
    z = np.asarray(labels, dtype=np.int64).reshape(-1)
    k, L = z.size, model.L
    if x.shape != (k, model.space.dim):
        raise ModelError(f"need ({k}, {model.space.dim}) points for {k} labels, got {x.shape}")
    if not np.all(model.space.contains(x)):
        raise ModelError("sample has components outside the parameter box")
    counts = _label_counts(z, np.zeros(k, dtype=np.int64), 1, L)[0]
    n_out = int(counts[L])
    out = -model.lam - float(gammaln(k + 1))
    if n_out > 0:
        if model.lam == 0.0:
            return -np.inf
        out += n_out * (math.log(model.lam) - model.space.log_volume)
    gauss = z <= L
    dens = _gaussian_log_densities(x[gauss], model)
    picked = dens[np.arange(int(gauss.sum())), z[gauss] - 1]
    # canonical summation order: exact invariance under permuting the
    # (theta_j, z_j) pairs
    out += float(np.sort(picked).sum())
    pis = model.pis()
    with np.errstate(divide="ignore"):
        term = np.where(counts[:L] == 1, np.log(pis), np.log1p(-pis))
    if np.any(np.isneginf(term)):
        return -np.inf
    return out + float(term.sum())


def enumerate_allocations(k: int, L: int):
    """Yield every valid label tuple for k points: Gaussian labels unique."""
    for combo in itertools.product(range(1, L + 2), repeat=k):
        gauss = [c for c in combo if c <= L]
        if len(gauss) == len(set(gauss)):
            yield combo


def _enumerated_joint(points, model: ApproxModel):
    """Every allocation of the (k, d) points, its joint log density, and
    their log-sum-exp."""
    zs = list(enumerate_allocations(len(points), model.L))
    logs = np.array([labeled_joint_log_density(points, z, model) for z in zs])
    m = logs.max()
    if not np.isfinite(m):
        return zs, logs, -np.inf
    return zs, logs, float(m + math.log(np.exp(np.sort(logs) - m).sum()))


def exact_allocation_log_posterior(points, model: ApproxModel) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """All allocations of the (k, d) points with normalized log posterior
    probabilities."""
    zs, logs, norm = _enumerated_joint(points, model)
    if not np.isfinite(norm):
        raise ModelError("sample has zero density under the model")
    return zs, logs - norm


def unlabeled_log_density(points, model: ApproxModel) -> float:
    """Log density of the (k, d) points, marginalized over allocations by
    direct enumeration."""
    return _enumerated_joint(points, model)[2]


def gate_count_law(pis) -> np.ndarray:
    """Law of the number of open gates, by summing over all 2^L gate patterns."""
    pis = np.asarray(pis, dtype=float)
    law = np.zeros(pis.size + 1)
    for gates in itertools.product((0, 1), repeat=pis.size):
        law[sum(gates)] += np.prod(np.where(gates, pis, 1.0 - pis))
    return law


def truncated_poisson_log_normaliser(rate: float, k_max: int) -> float:
    """log sum_{j<=k_max} rate^j / j!, the sum taken exactly in rationals at
    the float rate and rounded once: through log1p below 2, else after a
    power of two has scaled it to within a factor 2 of 1."""
    r = Fraction(rate)
    total = sum(r**j / math.factorial(j) for j in range(k_max + 1))
    if total < 2:
        return math.log1p(total - 1)
    e = total.numerator.bit_length() - total.denominator.bit_length()
    return math.log(total / 2**e) + e * math.log(2.0)


def quadrature_log_marginal(y, omega: float, delta2: float) -> float:
    """log p(y | k=1, omega, delta2) by a 3-d grid over both amplitudes and
    the log noise variance, under the g-prior and the Jeffreys prior."""
    N = y.size
    D = design_matrix(np.array([omega]), N)
    G = D.T @ D
    Dty = D.T @ y
    yty = float(y @ y)
    ols = np.linalg.solve(G, Dty)
    s2c = (yty - Dty @ ols) / N
    na, ns = 120, 160
    half = math.sqrt(s2c * 2 / N) * 12 + 3.0
    ac = np.linspace(ols[0] - half, ols[0] + half, na)
    as_ = np.linspace(ols[1] - half, ols[1] + half, na)
    ls2 = np.linspace(math.log(s2c) - 6, math.log(s2c) + 6, ns)
    s2 = np.exp(ls2)
    AC, AS = np.meshgrid(ac, as_, indexing="ij")
    quad_form = AC**2 * G[0, 0] + 2 * AC * AS * G[0, 1] + AS**2 * G[1, 1]
    rss = yty - 2 * (AC * Dty[0] + AS * Dty[1]) + quad_form
    logdet = math.log(np.linalg.det(G))
    cube = np.empty((na, na, ns))
    for i, s in enumerate(s2):
        cube[:, :, i] = (
            -0.5 * N * math.log(2 * math.pi * s)
            - rss / (2 * s)
            - math.log(2 * math.pi * delta2 * s)
            + 0.5 * logdet
            - quad_form / (2 * delta2 * s)
            - math.log(s)  # Jeffreys prior on the noise variance
        )
    steps = math.log((ac[1] - ac[0]) * (as_[1] - as_[0]) * (ls2[1] - ls2[0]))
    return float(logsumexp(cube + np.log(s2)[None, None, :]) + steps)


def pulse_bin_quadrature(muons, edges, shape: PulseShape = PulseShape()) -> np.ndarray:
    """Mean count per bin by adaptive quadrature of each muon's pulse."""
    out = np.zeros(len(edges) - 1)
    for i in range(out.size):
        for t, a in muons:
            pts = [t] if edges[i] < t < edges[i + 1] else None
            v, _ = integrate.quad(
                lambda s, t=t, a=a: a * pulse_density(s - t, shape),
                edges[i], edges[i + 1], points=pts, limit=200,
                epsabs=1e-14, epsrel=1e-13,
            )
            out[i] += v
    return out
