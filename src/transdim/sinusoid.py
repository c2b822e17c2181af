"""Reversible-jump sampler for sinusoids in white Gaussian noise.

The observation model is y = D(omega) a + noise, with the amplitudes given a
g-prior N(0, delta2 * sigma2 * (D'D)^-1), Jeffreys prior on sigma2, uniform
frequencies on (0, pi), and a Poisson prior on the number of sinusoids
truncated at k_max.  Amplitudes and noise variance are integrated out, so
the chain moves on (k, omega, delta2, rate).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg
from scipy.special import gammaln

from .model import ModelError, ParamSpace, SampleSet, _log_prob_ratio

__all__ = [
    "SinusoidSignal",
    "SinChainConfig",
    "sin_param_space",
    "design_matrix",
    "log_target_marginal",
    "log_marginal_likelihood",
    "amplitude_posterior_mean",
    "generate_synthetic_signal",
    "birth_state",
    "death_state",
    "rjmcmc_run",
]

logger = logging.getLogger(__name__)


def sin_param_space() -> ParamSpace:
    """Frequency domain (0, pi) as a 1-d parameter box."""
    return ParamSpace(np.array([[0.0, math.pi]]))


@dataclass
class SinusoidSignal:
    """Observed series plus, for synthetic data, the generating truth."""

    y: np.ndarray
    true_k: int | None = None
    true_omega: np.ndarray | None = None
    true_amplitudes: np.ndarray | None = None
    true_sigma2: float | None = None
    snr_db: float | None = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float).reshape(-1)
        if self.y.size < 2:
            raise ModelError("signal must contain at least two samples")
        if self.true_omega is not None:
            self.true_omega = np.asarray(self.true_omega, dtype=float).reshape(-1)
            if np.any((self.true_omega <= 0) | (self.true_omega >= math.pi)):
                raise ModelError("frequencies must lie strictly inside (0, pi)")

    @property
    def N(self) -> int:
        return self.y.size


@dataclass
class SinChainConfig:
    iterations: int = 100_000
    burn_in: int = 20_000
    thinning: int = 5
    k_max: int = 20
    birth_prob: float = 0.25
    death_prob: float = 0.25
    update_prob: float = 0.5
    rw_step: float = 0.01
    delta2_init: float = 20.0
    sample_delta2: bool = True
    alpha_delta: float = 2.0
    beta_delta: float = 20.0
    rate_init: float = 3.0
    sample_rate: bool = True
    alpha_rate: float = 1.0
    beta_rate: float = 1.0
    rng_seed: int = 0
    init_omega: tuple = ()

    def __post_init__(self):
        if not math.isclose(self.birth_prob + self.death_prob + self.update_prob, 1.0):
            raise ModelError("move probabilities must sum to 1")
        if min(self.birth_prob, self.death_prob, self.update_prob) < 0:
            raise ModelError("move probabilities must be nonnegative")
        if not (0 <= self.burn_in < self.iterations):
            raise ModelError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.thinning < 1 or self.k_max < 1:
            raise ModelError("thinning and k_max must be positive")
        if self.delta2_init <= 0 or self.rate_init <= 0:
            raise ModelError("delta2_init and rate_init must be positive")
        if len(self.init_omega) > self.k_max:
            raise ModelError("init_omega longer than k_max")


# ---------------------------------------------------------------------------
# Deterministic pieces
# ---------------------------------------------------------------------------


def design_matrix(omega: np.ndarray, N: int) -> np.ndarray:
    """N x 2k matrix of cosine/sine columns at sample indices 0..N-1."""
    omega = np.asarray(omega, dtype=float).reshape(-1)
    k = omega.size
    D = np.empty((N, 2 * k))
    if k:
        phase = np.arange(N)[:, None] * omega[None, :]
        D[:, 0::2] = np.cos(phase)
        D[:, 1::2] = np.sin(phase)
    return D


def _design_factor(omega: np.ndarray, y: np.ndarray):
    """Design products for sorted omega: (D, cho(D'D), D'y, y'D(D'D)^-1 D'y).

    Returns None when D'D is numerically singular (coincident frequencies or
    frequencies at the boundary).
    """
    N = y.size
    D = design_matrix(omega, N)
    G = D.T @ D
    try:
        cho = linalg.cho_factor(G, lower=False, check_finite=False)
    except linalg.LinAlgError:
        return None
    Dty = D.T @ y
    quad = float(Dty @ linalg.cho_solve(cho, Dty, check_finite=False))
    return D, cho, Dty, quad


def _data_part(omega: np.ndarray, y: np.ndarray, delta2: float):
    """(-k log(1+delta2) - N/2 log(y'P y), quad) for sorted omega.

    quad is the projection quadratic form, reusable across delta2 changes.
    """
    N = y.size
    yty = float(y @ y)
    k = omega.size
    if k == 0:
        return -0.5 * N * math.log(yty), 0.0
    fac = _design_factor(omega, y)
    if fac is None:
        logger.debug("singular design for omega=%s", omega)
        return -np.inf, math.nan
    _, _, _, quad = fac
    shrink = delta2 / (1.0 + delta2)
    ypy = yty - shrink * quad
    if ypy <= 0.0:
        return -np.inf, quad
    return -k * math.log1p(delta2) - 0.5 * N * math.log(ypy), quad


def _log_trunc_series(rate: float, k_max: int) -> float:
    """log sum_{j<=k_max} rate^j / j! (the truncated Poisson normalizer,
    exponential damping cancelled)."""
    j = np.arange(k_max + 1)
    terms = j * math.log(rate) - gammaln(j + 1)
    m = terms.max()
    return float(m + math.log(np.exp(terms - m).sum()))


def _log_trunc_poisson_mass(rate: float, k_max: int) -> float:
    """log P(Poisson(rate) <= k_max)."""
    return -rate + _log_trunc_series(rate, k_max)


def _log_k_prior(k: int, rate: float, k_max: int) -> float:
    """Log pmf of a Poisson(rate) truncated to {0..k_max}, plus the uniform
    frequency prior factor k*log(1/pi)."""
    if k > k_max:
        return -np.inf
    return (
        k * math.log(rate) - float(gammaln(k + 1)) - _log_trunc_series(rate, k_max)
        - k * math.log(math.pi)
    )


def log_target_marginal(
    k: int, omega, y, delta2: float, rate: float, k_max: int = SinChainConfig.k_max
) -> float:
    """Log posterior density of (k, omega) up to a constant, amplitudes and
    noise variance integrated out.

    Exactly permutation-invariant in omega: frequencies are sorted before any
    linear algebra, so reorderings evaluate bit-identically.
    """
    omega = np.sort(np.asarray(omega, dtype=float).reshape(-1))
    if omega.size != k:
        raise ModelError(f"k={k} but {omega.size} frequencies given")
    if k and (omega[0] <= 0.0 or omega[-1] >= math.pi):
        return -np.inf
    y = np.asarray(y, dtype=float).reshape(-1)
    data, _ = _data_part(omega, y, delta2)
    return data + _log_k_prior(k, rate, k_max)


def log_marginal_likelihood(omega, y, delta2: float) -> float:
    """Exact log p(y | k, omega, delta2) with all constants.

    Equals log[ pi^(-N/2) Gamma(N/2) (1+delta2)^(-k) (y'P y)^(-N/2) ].
    """
    omega = np.sort(np.asarray(omega, dtype=float).reshape(-1))
    y = np.asarray(y, dtype=float).reshape(-1)
    N = y.size
    data, _ = _data_part(omega, y, delta2)
    return data + float(gammaln(0.5 * N)) - 0.5 * N * math.log(math.pi)


def amplitude_posterior_mean(omega, y, delta2: float) -> np.ndarray:
    """Posterior mean of the 2k stacked amplitudes given the frequencies.

    Shrinks the least-squares solution by delta2/(1+delta2).
    """
    omega = np.asarray(omega, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if omega.size == 0:
        return np.zeros(0)
    fac = _design_factor(omega, y)
    if fac is None:
        raise ModelError("design matrix has numerically singular normal equations")
    _, cho, Dty, _ = fac
    shrink = delta2 / (1.0 + delta2)
    return shrink * linalg.cho_solve(cho, Dty, check_finite=False)


def generate_synthetic_signal(
    k: int, omega, energies, phases, snr_db: float, N: int, seed
) -> SinusoidSignal:
    """Sum of k sinusoids with given energies/phases in white noise.

    The j-th sinusoid is sqrt(A_j) cos(omega_j t + phi_j), i.e. amplitude
    pair (sqrt(A_j) cos(-phi_j), sqrt(A_j) sin(-phi_j)); the noise variance
    is set from the in-band energy so that |Da|^2 / (N sigma2) hits the
    requested SNR.  Pass snr_db=inf for a noiseless signal.
    """
    omega = np.asarray(omega, dtype=float).reshape(-1)
    energies = np.asarray(energies, dtype=float).reshape(-1)
    phases = np.asarray(phases, dtype=float).reshape(-1)
    if not (omega.size == energies.size == phases.size == k):
        raise ModelError("omega, energies, phases must all have length k")
    if np.any(energies <= 0):
        raise ModelError("energies must be positive")
    amp = np.empty(2 * k)
    amp[0::2] = np.sqrt(energies) * np.cos(-phases)
    amp[1::2] = np.sqrt(energies) * np.sin(-phases)
    D = design_matrix(omega, N)
    clean = D @ amp
    if math.isinf(snr_db):
        sigma2 = 0.0
        y = clean
    else:
        sigma2 = float(clean @ clean) / (N * 10.0 ** (snr_db / 10.0))
        rng = np.random.default_rng(seed)
        y = clean + math.sqrt(sigma2) * rng.standard_normal(N)
    return SinusoidSignal(
        y, true_k=k, true_omega=omega, true_amplitudes=amp,
        true_sigma2=sigma2, snr_db=snr_db,
    )


# ---------------------------------------------------------------------------
# Chain moves
# ---------------------------------------------------------------------------


def birth_state(omega: np.ndarray, new: float) -> np.ndarray:
    """Insert a frequency, keeping the state sorted."""
    pos = int(np.searchsorted(omega, new))
    return np.insert(omega, pos, new)


def death_state(omega: np.ndarray, index: int) -> np.ndarray:
    """Remove the frequency at ``index``."""
    return np.delete(omega, index)


def _sample_inverse_gamma(rng, shape: float, scale: float) -> float:
    """One draw from InvGamma(shape, scale) (density ~ x^-shape-1 e^-scale/x)."""
    return scale / rng.gamma(shape)


def rjmcmc_run(signal: SinusoidSignal, config: SinChainConfig) -> SampleSet:
    """Run the trans-dimensional chain and collect thinned frequency samples.

    Each iteration attempts one dimension move (birth of a uniform frequency,
    death of a uniform pick, or a reflected random-walk sweep over the
    current frequencies), then refreshes delta2 through its auxiliary
    conditional and the Poisson rate through a conjugate-form proposal with
    the truncation correction.  Acceptance rates and hyperparameter means are
    reported in the SampleSet provenance.
    """
    y = signal.y
    N = signal.N
    if float(y @ y) <= 0.0:
        raise ModelError("signal is identically zero")
    rng = np.random.default_rng(config.rng_seed)
    space = sin_param_space()

    omega = np.sort(np.asarray(config.init_omega, dtype=float))
    if omega.size and (omega[0] <= 0.0 or omega[-1] >= math.pi):
        raise ModelError("init_omega must lie strictly inside (0, pi)")
    delta2 = config.delta2_init
    rate = config.rate_init
    data_cur, quad_cur = _data_part(omega, y, delta2)
    if not np.isfinite(data_cur):
        raise ModelError("initial state has zero posterior density")

    yty = float(y @ y)
    attempts = {"birth": 0, "death": 0, "update": 0, "rate": 0}
    accepts = {"birth": 0, "death": 0, "update": 0, "rate": 0}
    singular = 0
    records: list[np.ndarray] = []
    delta2_sum = 0.0
    rate_sum = 0.0
    recorded = 0

    log_pi = math.log(math.pi)
    log_db = _log_prob_ratio(config.death_prob, config.birth_prob)
    for it in range(config.iterations):
        k = omega.size
        u = rng.random()
        if u < config.birth_prob:
            # birth: uniform new frequency; prior and proposal densities cancel
            attempts["birth"] += 1
            if k < config.k_max:
                new = rng.random() * math.pi
                prop = birth_state(omega, new)
                data_p, quad_p = _data_part(prop, y, delta2)
                if not np.isfinite(data_p):
                    singular += 1
                log_r = (
                    data_p - data_cur
                    + _log_k_prior(k + 1, rate, config.k_max)
                    - _log_k_prior(k, rate, config.k_max)
                    + log_db
                    + log_pi
                )
                if math.log(rng.random()) < log_r:
                    omega, data_cur, quad_cur = prop, data_p, quad_p
                    accepts["birth"] += 1
        elif u < config.birth_prob + config.death_prob:
            attempts["death"] += 1
            if k > 0:
                idx = int(rng.integers(k))
                prop = death_state(omega, idx)
                data_p, quad_p = _data_part(prop, y, delta2)
                log_r = (
                    data_p - data_cur
                    + _log_k_prior(k - 1, rate, config.k_max)
                    - _log_k_prior(k, rate, config.k_max)
                    - log_db
                    - log_pi
                )
                if math.log(rng.random()) < log_r:
                    omega, data_cur, quad_cur = prop, data_p, quad_p
                    accepts["death"] += 1
        else:
            # reflected random-walk on each frequency in turn; the proposal
            # is symmetric and positions stay fixed within the sweep (the
            # state is resorted only after the last inner step)
            for j in range(k):
                attempts["update"] += 1
                w = omega[j] + config.rw_step * rng.standard_normal()
                while w < 0.0 or w > math.pi:
                    w = abs(w)
                    if w > math.pi:
                        w = 2.0 * math.pi - w
                prop = omega.copy()
                prop[j] = w
                data_p, quad_p = _data_part(np.sort(prop), y, delta2)
                if not np.isfinite(data_p):
                    singular += 1
                if math.log(rng.random()) < data_p - data_cur:
                    omega, data_cur, quad_cur = prop, data_p, quad_p
                    accepts["update"] += 1
            if k:
                omega = np.sort(omega)

        if config.sample_delta2:
            # refresh delta2 through its exact conditional given auxiliary
            # draws of (sigma2, amplitudes), then discard the auxiliaries
            k = omega.size
            shrink = delta2 / (1.0 + delta2)
            ypy = yty - shrink * quad_cur
            sigma2 = _sample_inverse_gamma(rng, 0.5 * N, 0.5 * ypy)
            if k:
                D, cho, Dty, _ = _design_factor(omega, y)
                mean = shrink * linalg.cho_solve(cho, Dty, check_finite=False)
                z = rng.standard_normal(2 * k)
                dev = linalg.solve_triangular(cho[0], z, lower=False, check_finite=False)
                a = mean + math.sqrt(sigma2 * shrink) * dev
                Da = D @ a
                energy = float(Da @ Da)
            else:
                energy = 0.0
            delta2 = _sample_inverse_gamma(
                rng, config.alpha_delta + k, config.beta_delta + 0.5 * energy / sigma2
            )
            if k:
                shrink = delta2 / (1.0 + delta2)
                data_cur = -k * math.log1p(delta2) - 0.5 * N * math.log(
                    yty - shrink * quad_cur
                )

        if config.sample_rate:
            # conjugate-form proposal; the truncation of p(k | rate) at k_max
            # leaves a residual mass ratio to correct for
            attempts["rate"] += 1
            k = omega.size
            prop_rate = rng.gamma(config.alpha_rate + k, 1.0 / (config.beta_rate + 1.0))
            if prop_rate > 0:
                log_r = _log_trunc_poisson_mass(rate, config.k_max) - _log_trunc_poisson_mass(
                    prop_rate, config.k_max
                )
                if math.log(rng.random()) < log_r:
                    rate = prop_rate
                    accepts["rate"] += 1

        if it >= config.burn_in and (it - config.burn_in) % config.thinning == 0:
            records.append(omega.reshape(-1, 1).copy())
            delta2_sum += delta2
            rate_sum += rate
            recorded += 1

    rates = {
        m: (accepts[m] / attempts[m] if attempts[m] else math.nan) for m in attempts
    }
    provenance = {
        "sampler": "sinusoid-rjmcmc",
        "seed": config.rng_seed,
        "iterations": config.iterations,
        "burn_in": config.burn_in,
        "thinning": config.thinning,
        "extras": {
            "acceptance_rates": rates,
            "mean_delta2": delta2_sum / max(recorded, 1),
            "mean_rate": rate_sum / max(recorded, 1),
            "singular_proposals": singular,
            "k_max": config.k_max,
            "N": N,
        },
    }
    return SampleSet.ingest(space, records, provenance)
