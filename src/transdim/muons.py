"""Forward model and reversible-jump sampler for photoelectron count traces.

Each muon deposits light according to a rise-then-decay pulse profile; the
detector histograms photoelectrons into fixed-width time bins, and the
counts are Poisson with means obtained by integrating the summed per-muon
intensities over each bin.  The chain explores (k, {(t, a)}) with uniform
arrival times over the observation window, a Gamma prior on amplitudes
(truncated to the amplitude box), and a truncated Poisson prior on k.  The
chain runs on the shared engine of :mod:`transdim.rjmcmc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammainc, gammaincinv, gammaln, xlogy

from . import rjmcmc
from .model import ModelError, ParamSpace, SampleSet

__all__ = [
    "PulseShape",
    "PECountSignal",
    "AugerChainConfig",
    "auger_param_space",
    "pulse_density",
    "pulse_cdf",
    "expected_bin_counts",
    "log_likelihood_pe",
    "simulate_pe_signal",
    "rjmcmc_run_auger",
]


@dataclass(frozen=True)
class PulseShape:
    """Rise-then-decay time profile ``(1 - e^{-t/t_d}) e^{-t/tau}``.

    ``rise_time`` is the turn-on constant t_d and ``decay`` the exponential
    tail constant tau, both in nanoseconds.
    """

    rise_time: float = 15.0
    decay: float = 67.0

    def __post_init__(self):
        if not (self.rise_time > 0.0 and math.isfinite(self.rise_time)):
            raise ModelError(f"rise_time must be positive, got {self.rise_time}")
        if not (self.decay > 0.0 and math.isfinite(self.decay)):
            raise ModelError(f"decay must be positive, got {self.decay}")

    @property
    def norm(self) -> float:
        """Total mass of the unnormalized profile: tau^2 / (t_d + tau)."""
        return self.decay**2 / (self.rise_time + self.decay)


@dataclass
class PECountSignal:
    """Binned photoelectron counts starting at ``t0`` with width ``t_delta``."""

    counts: np.ndarray
    t0: float = 0.0
    t_delta: float = 25.0

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 1 or c.size == 0:
            raise ModelError("counts must be a nonempty vector")
        if not np.all(np.isfinite(np.asarray(c, dtype=float))):
            raise ModelError("counts must be finite")
        if np.any(np.asarray(c, dtype=float) != np.round(np.asarray(c, dtype=float))):
            raise ModelError("counts must be integers")
        c = np.asarray(c, dtype=np.int64)
        if np.any(c < 0):
            raise ModelError("counts must be nonnegative")
        if not self.t_delta > 0.0:
            raise ModelError(f"t_delta must be positive, got {self.t_delta}")
        self.counts = c

    @property
    def n_bins(self) -> int:
        return self.counts.size

    def edges(self) -> np.ndarray:
        """The n_bins + 1 bin boundaries."""
        return self.t0 + self.t_delta * np.arange(self.n_bins + 1)

    @property
    def window(self) -> tuple[float, float]:
        """Observation window covered by the bins."""
        return (self.t0, self.t0 + self.t_delta * self.n_bins)


def auger_param_space(signal: PECountSignal, a_max: float) -> ParamSpace:
    """Per-muon box: arrival over the observation window, amplitude in (0, a_max]."""
    lo, hi = signal.window
    return ParamSpace(np.array([[lo, hi], [0.0, float(a_max)]]))


def pulse_density(t, shape: PulseShape = PulseShape()):
    """Normalized pulse profile, zero before the arrival instant."""
    arr = np.asarray(t, dtype=float)
    out = np.zeros_like(arr)
    m = arr >= 0.0
    tm = arr[m]
    out[m] = -np.expm1(-tm / shape.rise_time) * np.exp(-tm / shape.decay) / shape.norm
    if np.isscalar(t) or arr.ndim == 0:
        return float(out)
    return out


def pulse_cdf(t, shape: PulseShape = PulseShape()):
    """Closed-form distribution function of ``pulse_density``.

    For t >= 0 this is [tau(1 - e^{-t/tau}) - c(1 - e^{-t/c})] / Z with
    c = t_d tau / (t_d + tau) and Z the normalization of the profile.
    """
    arr = np.asarray(t, dtype=float)
    tau = shape.decay
    c = shape.rise_time * tau / (shape.rise_time + tau)
    tm = np.maximum(arr, 0.0)  # +0.0 for t <= 0; NaN stays NaN
    out = (c * np.expm1(-tm / c) - tau * np.expm1(-tm / tau)) / shape.norm
    return float(out) if arr.ndim == 0 else out


def _muon_array(muons) -> np.ndarray:
    arr = np.asarray(muons, dtype=float).reshape(-1, 2)
    if not (np.isfinite(arr).all() and (arr[:, 1] > 0.0).all()):
        raise ModelError("muon arrivals and amplitudes must be finite, amplitudes positive")
    return arr


def _unit_masses(times, edges: np.ndarray, shape: PulseShape) -> np.ndarray:
    """Bin masses of unit-amplitude muons, one row per arrival time, clamped
    so that a sum of contributions is exactly that of the combined set."""
    cdf = pulse_cdf(edges - np.reshape(times, (-1, 1)), shape)
    return np.maximum(cdf[:, 1:] - cdf[:, :-1], 0.0)


def _canonical_sum(times, amps, masses) -> np.ndarray:
    """Sum of ``amps[i] * masses[i]`` in (arrival, amplitude) order, added
    one row at a time onto zeros, as a fresh array (not a view that would
    keep the (k + 1, n) buffer alive)."""
    o = np.lexsort((amps, times))
    terms = np.zeros((o.size + 1, masses.shape[1]))
    np.multiply(amps[o, None], masses[o], out=terms[1:])
    return np.add.accumulate(terms, axis=0)[-1].copy()


def expected_bin_counts(
    muons,
    signal: PECountSignal,
    shape: PulseShape = PulseShape(),
) -> np.ndarray:
    """Mean photoelectron count per bin for a set of muons.

    ``muons`` is a (k, 2) array, or a sequence of pairs, of (arrival,
    amplitude) rows.  Contributions are accumulated in a canonical order
    (sorted by arrival, then amplitude) so the result is bit-identical
    under permutation of the input.
    """
    arr = _muon_array(muons)
    return _canonical_sum(arr[:, 0], arr[:, 1], _unit_masses(arr[:, 0], signal.edges(), shape))


def log_likelihood_pe(counts, expected) -> float:
    """Poisson log likelihood of the binned counts given the bin means.

    Uses the convention 0 log 0 = 0; a positive count in a bin with zero
    mean yields -inf.
    """
    n = np.asarray(counts, dtype=float)
    nbar = np.asarray(expected, dtype=float)
    if n.shape != nbar.shape:
        raise ModelError(f"length mismatch: {n.shape} counts vs {nbar.shape} means")
    if np.any(nbar < 0.0):
        raise ModelError("bin means must be nonnegative")
    return float(np.sum(xlogy(n, nbar)) - np.sum(nbar) - np.sum(gammaln(n + 1.0)))


def simulate_pe_signal(
    muons,
    n_bins: int,
    shape: PulseShape = PulseShape(),
    seed=None,
    **geometry,
) -> PECountSignal:
    """Draw a synthetic count trace: Poisson counts around the bin means.

    ``geometry`` takes the ``t0`` and ``t_delta`` of :class:`PECountSignal`.
    """
    if n_bins < 1:
        raise ModelError("n_bins must be at least 1")
    empty = PECountSignal(np.zeros(n_bins, dtype=np.int64), **geometry)
    nbar = expected_bin_counts(muons, empty, shape)
    rng = np.random.default_rng(seed)
    return PECountSignal(rng.poisson(nbar), empty.t0, empty.t_delta)


@dataclass
class AugerChainConfig:
    """Settings for the trans-dimensional muon chain.

    Birth draws a new muon from the priors, death removes a uniformly
    chosen one, and the update move sweeps the current muons with a
    reflected random walk on arrivals and a log-scale random walk on
    amplitudes.  ``rate`` is the prior mean number of muons.
    """

    iterations: int = 20_000
    burn_in: int = 2_000
    thinning: int = 1
    k_max: int = 20
    rate: float = 3.0
    birth_prob: float = 0.25
    death_prob: float = 0.25
    t_step: float = 20.0
    log_a_step: float = 0.3
    amp_alpha: float = 1.0
    amp_beta: float = 0.1
    a_max: float = 500.0
    pulse: PulseShape = field(default_factory=PulseShape)
    init_muons: tuple = ()
    rng_seed: int | None = None

    def __post_init__(self):
        rjmcmc.check_chain_config(
            self, "rate", "t_step", "log_a_step", "amp_alpha", "amp_beta", "a_max"
        )
        if len(self.init_muons) > self.k_max:
            raise ModelError("more initial muons than k_max allows")
        mass = gammainc(self.amp_alpha, self.amp_beta * self.a_max)
        if mass == 0.0:
            raise ModelError("the amplitude prior has no mass in (0, a_max]")
        # the birth redraws an amplitude that rounds to 0; with a positive
        # median each redraw ends the loop with probability at least 1/2
        if gammaincinv(self.amp_alpha, 0.5 * mass) / self.amp_beta == 0.0:
            raise ModelError("the amplitude prior's median in (0, a_max] rounds to 0")


class _AugerChain(rjmcmc.Chain):
    """State (rows, log likelihood).  A row holds a muon's (arrival, amplitude)
    and then its ``_unit_masses`` row; rows are sorted by arrival, and the
    engine's sort by column 0 keeps each mass row with its muon."""

    sampler = "auger-rjmcmc"

    def __init__(self, signal: PECountSignal, config: AugerChainConfig):
        super().__init__(config, auger_param_space(signal, config.a_max))
        self.signal = signal
        self.lo, self.hi = signal.window
        if config.init_muons:
            muons = _muon_array(config.init_muons)
            if not np.all(self.space.contains(muons)):
                raise ModelError("initial muons fall outside the parameter box")
            muons = muons[np.argsort(muons[:, 0])]
        else:
            # one muon at the window start keeps every bin mean strictly
            # positive; an all-zero trace starts from the empty configuration
            total = int(signal.counts.sum())
            muons = np.array([[self.lo, float(total)]]) if total else np.zeros((0, 2))
        self.edges, self.n = signal.edges(), signal.counts.astype(float)
        self.log_n_fact = np.sum(gammaln(self.n + 1.0))
        rows = np.hstack([muons, _unit_masses(muons[:, 0], self.edges, config.pulse)])
        self.state = (rows, self._loglik(rows))
        self.log_rate = math.log(config.rate)

    def _loglik(self, rows: np.ndarray) -> float:
        """``log_likelihood_pe(counts, expected_bin_counts(muons))``, same operations."""
        nbar = _canonical_sum(rows[:, 0], rows[:, 1], rows[:, 2:])
        return float(xlogy(self.n, nbar).sum() - nbar.sum() - self.log_n_fact)

    def birth(self, log_q):
        # new muon from the priors; prior and proposal densities cancel.  The
        # amplitude prior is Gamma truncated to (0, a_max]: a Gamma draw that
        # misses it is replaced by an exact inverse-CDF draw, which misses
        # again only by rounding to 0 (a tiny amp_alpha)
        cfg, rng, (rows, ll) = self.config, self.rng, self.state
        t = self.lo + (self.hi - self.lo) * rng.random()
        a = rng.gamma(cfg.amp_alpha, 1.0 / cfg.amp_beta)
        while not 0.0 < a <= cfg.a_max:
            u = rng.random() * gammainc(cfg.amp_alpha, cfg.amp_beta * cfg.a_max)
            a = min(gammaincinv(cfg.amp_alpha, u) / cfg.amp_beta, cfg.a_max)
        row = np.hstack([[t, float(a)], _unit_masses(t, self.edges, cfg.pulse)[0]])
        prop = np.vstack([rows, row])
        ll_p = self._loglik(prop)
        log_r = ll_p - ll + self.log_rate - math.log(len(rows) + 1) + log_q
        return log_r, (prop[np.argsort(prop[:, 0])], ll_p)

    def death(self, index, log_q):
        rows, ll = self.state
        prop = np.delete(rows, index, axis=0)
        ll_p = self._loglik(prop)
        return ll_p - ll - self.log_rate + math.log(len(rows)) + log_q, (prop, ll_p)

    def update(self, j):
        # reflected walk on the arrival, log-scale walk on the amplitude
        cfg, rng, (rows, ll) = self.config, self.rng, self.state
        t_new = rjmcmc.reflect(rows[j, 0] + cfg.t_step * rng.standard_normal(), self.lo, self.hi)
        a_old = rows[j, 1]
        a_new = a_old * math.exp(cfg.log_a_step * rng.standard_normal())
        if not 0.0 < a_new <= cfg.a_max:  # outside the prior, or underflowed to 0
            return None
        prop = rows.copy()
        prop[j, :2] = (t_new, a_new)
        prop[j, 2:] = _unit_masses(t_new, self.edges, cfg.pulse)[0]
        ll_p = self._loglik(prop)
        # Gamma prior ratio plus the log-walk Jacobian a_new/a_old
        log_r = (ll_p - ll + cfg.amp_alpha * math.log(a_new / a_old)
                 - cfg.amp_beta * (a_new - a_old))
        return log_r, (prop, ll_p)

    def record(self):
        return self.state[0][:, :2].copy()

    def extras(self):
        shape = self.config.pulse
        return {"rate": self.config.rate, "window": [self.lo, self.hi], "bins": self.signal.n_bins,
                "pulse": {"rise_time": shape.rise_time, "decay": shape.decay}}


def rjmcmc_run_auger(signal: PECountSignal, config: AugerChainConfig) -> SampleSet:
    """Run the trans-dimensional chain on a count trace.

    Returns the post-burn-in, thinned states as d=2 samples (arrival,
    amplitude), sorted by arrival, with acceptance diagnostics in the
    provenance record.
    """
    return rjmcmc.run(_AugerChain(signal, config))
