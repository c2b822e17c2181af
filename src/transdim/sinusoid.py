"""Reversible-jump sampler for sinusoids in white Gaussian noise.

The observation model is y = D(omega) a + noise, with the amplitudes given a
g-prior N(0, delta2 * sigma2 * (D'D)^-1), Jeffreys prior on sigma2, uniform
frequencies on (0, pi), and a Poisson prior on the number of sinusoids
truncated at k_max.  Amplitudes and noise variance are integrated out, so
the chain moves on (k, omega, delta2, rate).

The chain runs on the shared engine of :mod:`transdim.rjmcmc`, which owns
birth and death; this module supplies the uniform frequency draw of a birth,
the marginal likelihood, the frequency random walk and the refresh of delta2
and the rate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.special import gammaln

from . import rjmcmc
from .model import ModelError, ParamSpace, SampleSet

__all__ = [
    "SinusoidSignal",
    "SinChainConfig",
    "sin_param_space",
    "design_matrix",
    "log_target_marginal",
    "log_marginal_likelihood",
    "generate_synthetic_signal",
    "rjmcmc_run",
]

logger = logging.getLogger(__name__)


# hyperpriors: delta2 ~ InvGamma(ALPHA_DELTA, BETA_DELTA) and the Poisson
# rate ~ Gamma(ALPHA_RATE, BETA_RATE), shape and rate
ALPHA_DELTA, BETA_DELTA = 2.0, 20.0
ALPHA_RATE, BETA_RATE = 1.0, 1.0


def sin_param_space() -> ParamSpace:
    """Frequency domain (0, pi) as a 1-d parameter box."""
    return ParamSpace(np.array([[0.0, math.pi]]))


def _check_band(omega: np.ndarray) -> None:
    """Raise ModelError unless every frequency lies strictly inside (0, pi);
    NaN does not."""
    if not np.all((omega > 0.0) & (omega < math.pi)):
        raise ModelError("frequencies must lie strictly inside (0, pi)")


@dataclass
class SinusoidSignal:
    """Observed series plus, for synthetic data, the generating truth."""

    y: np.ndarray
    true_omega: np.ndarray | None = None
    true_amplitudes: np.ndarray | None = None
    true_sigma2: float | None = None
    snr_db: float | None = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float).reshape(-1)
        if self.y.size < 2:
            raise ModelError("signal must contain at least two samples")
        if not np.all(np.isfinite(self.y)):
            raise ModelError("signal samples must be finite")
        if self.true_omega is not None:
            self.true_omega = np.asarray(self.true_omega, dtype=float).reshape(-1)
            _check_band(self.true_omega)

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
    rw_step: float = 0.01
    delta2_init: float = 20.0
    sample_delta2: bool = True
    rate_init: float = 3.0
    sample_rate: bool = True
    rng_seed: int = 0
    init_omega: tuple = ()

    def __post_init__(self):
        rjmcmc.check_chain_config(self, "rw_step", "delta2_init", "rate_init")
        if len(self.init_omega) > self.k_max:
            raise ModelError("init_omega longer than k_max")
        if not all(0.0 < w < math.pi for w in self.init_omega):
            raise ModelError("init_omega must lie strictly inside (0, pi)")


# ---------------------------------------------------------------------------
# Deterministic pieces
# ---------------------------------------------------------------------------


def design_matrix(omega: np.ndarray, N: int) -> np.ndarray:
    """N x 2k matrix of interleaved cosine/sine columns at sample indices
    0..N-1; omega of shape (..., k) gives one matrix per row, (..., N, 2k)."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    k = omega.shape[-1]
    D = np.empty(omega.shape[:-1] + (N, 2 * k))
    phase = np.arange(N)[:, None] * omega[..., None, :]
    D[..., 0::2] = np.cos(phase)
    D[..., 1::2] = np.sin(phase)
    return D


def _batched_design(W: np.ndarray, N: int) -> np.ndarray:
    """(n, 2k, N) transposed designs of the n rows of W, cosine rows then
    sine rows.  With t = B s + r and B = ceil(sqrt(N)), the trig of omega t
    comes from that of omega r and omega B s by angle addition: about 4
    sqrt(N) trig calls per frequency instead of 2 N, and equal to
    :func:`design_matrix` to about 1e-14, not bit for bit."""
    n, k = W.shape
    B = math.isqrt(max(N - 1, 0)) + 1
    S = -(-N // B)
    r, s = W[..., None] * np.arange(B), W[..., None] * (B * np.arange(S))
    cs, ss = np.cos(s), np.sin(s)
    # cos(a + b) = (cos a, -sin a).(cos b, sin b), sin(a + b) = (sin a, cos a).(cos b, sin b)
    rows = np.stack([cs, -ss, ss, cs], axis=-1).reshape(n, k, S, 2, 2).swapaxes(2, 3)
    cols = np.stack([np.cos(r), np.sin(r)], axis=-2)[:, :, None]
    out = np.empty((n, 2, k, S, B))
    np.matmul(rows, cols, out=out.swapaxes(1, 2))
    return out.reshape(n, 2 * k, S * B)[..., :N]


def _data_term(k: int, N: int, yty: float, quad: float, delta2: float) -> float:
    """-k log(1+delta2) - N/2 log(y'P y) with y'P y = y'y - delta2/(1+delta2)
    quad, quad = y'D (D'D)^-1 D'y; -inf when y'P y <= 0, where the
    frequencies fit the signal exactly."""
    ypy = yty - delta2 / (1.0 + delta2) * quad
    if ypy <= 0.0:
        return -np.inf
    return -k * math.log1p(delta2) - 0.5 * N * math.log(ypy)


def _data_part(omega: np.ndarray, y: np.ndarray, delta2: float):
    """(:func:`_data_term`, u) for sorted omega: u = R^-T D'y, R the upper
    Cholesky factor of D'D (LAPACK called directly, as cho_factor does), so
    y'D (D'D)^-1 D'y = u'u.  u does not depend on delta2, so the chain keeps
    it with the state for the delta2 refresh.  It is empty for k = 0, and the
    result is (-inf, None) for a frequency outside (0, pi) or a numerically
    singular D'D (coincident frequencies).
    """
    N = y.size
    yty = float(y @ y)
    k = omega.size
    if k == 0:
        return _data_term(0, N, yty, 0.0, delta2), np.empty(0)
    if omega[0] <= 0.0 or omega[-1] >= math.pi:
        return -np.inf, None
    D = design_matrix(omega, N)
    R, info = lapack.dpotrf(D.T @ D, clean=0)
    if info > 0:
        logger.debug("singular design for omega=%s", omega)
        return -np.inf, None
    u = lapack.dtrtrs(R, D.T @ y, trans=1)[0]
    return _data_term(k, N, yty, float(u @ u), delta2), u


def _log_trunc_series(rate: float, k_max: int) -> float:
    """log sum_{j<=k_max} rate^j / j! (the truncated Poisson normalizer,
    exponential damping cancelled)."""
    j = np.arange(k_max + 1)
    terms = j * math.log(rate) - gammaln(j + 1)
    m = terms.max()
    return float(m + math.log(np.exp(terms - m).sum()))


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
    y = np.asarray(y, dtype=float).reshape(-1)
    if k > k_max:
        return -np.inf
    data, _ = _data_part(omega, y, delta2)
    # the Poisson(rate) k prior truncated to {0..k_max}, and the uniform frequency prior pi^-k
    return data + (k * math.log(rate) - float(gammaln(k + 1)) - _log_trunc_series(rate, k_max)
                   - k * math.log(math.pi))


def log_marginal_likelihood(omega, y, delta2: float) -> float:
    """Exact log p(y | k, omega, delta2) with all constants.

    Equals log[ pi^(-N/2) Gamma(N/2) (1+delta2)^(-k) (y'P y)^(-N/2) ].
    """
    omega = np.sort(np.asarray(omega, dtype=float).reshape(-1))
    y = np.asarray(y, dtype=float).reshape(-1)
    N = y.size
    data, _ = _data_part(omega, y, delta2)
    return data + float(gammaln(0.5 * N)) - 0.5 * N * math.log(math.pi)


def generate_synthetic_signal(
    k: int, omega, energies, phases, snr_db: float, N: int, seed
) -> SinusoidSignal:
    """Sum of k sinusoids with given energies/phases in white noise.

    The j-th sinusoid is sqrt(A_j) cos(omega_j t + phi_j), i.e. amplitude
    pair (sqrt(A_j) cos(-phi_j), sqrt(A_j) sin(-phi_j)); the noise variance
    is set from the in-band energy so that |Da|^2 / (N sigma2) hits the
    requested SNR.  Pass snr_db=inf for a noiseless signal; NaN and -inf
    are refused.
    """
    omega = np.asarray(omega, dtype=float).reshape(-1)
    energies = np.asarray(energies, dtype=float).reshape(-1)
    phases = np.asarray(phases, dtype=float).reshape(-1)
    if not (omega.size == energies.size == phases.size == k):
        raise ModelError("omega, energies, phases must all have length k")
    _check_band(omega)
    if not (np.all((energies > 0.0) & (energies < math.inf)) and np.isfinite(phases).all()):
        raise ModelError("energies must be finite and positive, phases finite")
    if not -math.inf < snr_db <= math.inf:
        raise ModelError(f"snr_db must be a number above -inf, got {snr_db!r}")
    amp = np.empty(2 * k)
    amp[0::2] = np.sqrt(energies) * np.cos(-phases)
    amp[1::2] = np.sqrt(energies) * np.sin(-phases)
    D = design_matrix(omega, N)
    clean = D @ amp
    if snr_db == math.inf:
        sigma2 = 0.0
        y = clean
    else:
        sigma2 = float(clean @ clean) / (N * 10.0 ** (snr_db / 10.0))
        rng = np.random.default_rng(seed)
        y = clean + math.sqrt(sigma2) * rng.standard_normal(N)
    return SinusoidSignal(y, true_omega=omega, true_amplitudes=amp, true_sigma2=sigma2,
                          snr_db=snr_db)


# ---------------------------------------------------------------------------
# Chain moves
# ---------------------------------------------------------------------------


class _SinChain(rjmcmc.Chain):
    """State (omega as (k, 1) rows, data part, u of :func:`_data_part`);
    delta2 and the rate beside it."""

    sampler = "sinusoid-rjmcmc"
    extra_moves = ("rate",)

    def __init__(self, signal: SinusoidSignal, config: SinChainConfig):
        self.y, self.yty = signal.y, float(signal.y @ signal.y)
        if self.yty <= 0.0:
            raise ModelError("signal is identically zero")
        super().__init__(config, sin_param_space())
        omega = np.sort(np.asarray(config.init_omega, dtype=float)).reshape(-1, 1)
        self.delta2, self.rate = config.delta2_init, config.rate_init
        self.state = (omega, *_data_part(omega[:, 0], self.y, self.delta2))
        self.log_norm = _log_trunc_series(self.rate, config.k_max)  # at self.rate
        self.singular = self.records = 0
        self.delta2_sum = self.rate_sum = 0.0

    def score(self, omega: np.ndarray):
        """(omega, ``_data_part`` at the current delta2), counting zero-density proposals."""
        data, u = _data_part(omega[:, 0], self.y, self.delta2)
        if not np.isfinite(data):
            self.singular += 1
        return omega, data, u

    def new_row(self):
        return [self.rng.random() * math.pi]  # uniform on (0, pi), the frequency prior

    def sweep(self):
        # symmetric reflected random walk, one normal per step; positions
        # stay fixed within the sweep and the engine resorts the state after
        for j in range(len(self.state[0])):
            omega, data, _ = self.state
            prop = omega.copy()
            step = self.config.rw_step * self.rng.standard_normal()
            prop[j, 0] = rjmcmc.reflect(omega[j, 0] + step, 0.0, math.pi)
            _, data_p, u_p = self.score(np.sort(prop, axis=0))
            yield data_p - data, (prop, data_p, u_p)

    def refresh(self, attempts, accepts):
        cfg, rng, yty, N = self.config, self.rng, self.yty, self.y.size
        omega, data, u = self.state
        k = omega.size
        if cfg.sample_delta2:
            # refresh delta2 through its exact conditional given auxiliary
            # draws of (sigma2, amplitudes a), then discard the auxiliaries;
            # InvGamma(shape, scale) is drawn as scale / Gamma(shape), and
            # |D a|^2 = |R a|^2 with R a ~ N(shrink u, sigma2 shrink I)
            quad = float(u @ u)
            shrink = self.delta2 / (1.0 + self.delta2)
            sigma2 = 0.5 * (yty - shrink * quad) / rng.gamma(0.5 * N)
            Ra = shrink * u + math.sqrt(sigma2 * shrink) * rng.standard_normal(2 * k)
            energy = float(Ra @ Ra)
            self.delta2 = (BETA_DELTA + 0.5 * energy / sigma2) / rng.gamma(ALPHA_DELTA + k)
            data = _data_term(k, N, yty, quad, self.delta2)
            if data == -np.inf:
                raise ModelError(f"the {k} frequencies fit the signal exactly at delta2 = "
                                 f"{self.delta2:.3g}: the noise variance has no proper posterior")
            self.state = (omega, data, u)
        if cfg.sample_rate:
            # conjugate-form proposal; the truncation of p(k | rate) at k_max
            # leaves a ratio of masses log P(Poisson(.) <= k_max) to correct for
            attempts["rate"] += 1
            prop_rate = rng.gamma(ALPHA_RATE + k, 1.0 / (BETA_RATE + 1.0))
            if prop_rate > 0:
                log_norm_p = _log_trunc_series(prop_rate, cfg.k_max)
                log_r = (-self.rate + self.log_norm) - (-prop_rate + log_norm_p)
                if math.log(rng.random()) < log_r:
                    self.rate, self.log_norm = prop_rate, log_norm_p
                    accepts["rate"] += 1

    def record(self):
        self.delta2_sum += self.delta2
        self.rate_sum += self.rate
        self.records += 1
        return self.state[0].copy()

    def extras(self):
        n = self.records
        return {"mean_delta2": self.delta2_sum / n, "mean_rate": self.rate_sum / n,
                "singular_proposals": self.singular, "N": self.y.size}


def rjmcmc_run(signal: SinusoidSignal, config: SinChainConfig) -> SampleSet:
    """Run the trans-dimensional chain and collect thinned frequency samples.

    Each iteration attempts one dimension move (birth of a uniform frequency,
    death of a uniform pick, or a reflected random-walk sweep over the
    current frequencies), then refreshes delta2 through its auxiliary
    conditional and the Poisson rate through a conjugate-form proposal with
    the truncation correction.  Acceptance rates (``rate`` among them) and
    hyperparameter means are reported in the SampleSet provenance.
    """
    return rjmcmc.run(_SinChain(signal, config))
