"""The reversible-jump engine shared by the sinusoid and muon samplers:
behaviour that must be the same through either sampler, and the helpers
the engine owns.
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import digamma, gammainc, gammaincinv, gammaln
from scipy.stats import gamma as gamma_law

from transdim import muons, rjmcmc, sinusoid
from transdim.model import ModelError
from transdim.muons import (
    AugerChainConfig,
    PECountSignal,
    PulseShape,
    expected_bin_counts,
    log_likelihood_pe,
    rjmcmc_run_auger,
    simulate_pe_signal,
)
from transdim.rjmcmc import reflect
from transdim.sinusoid import SinChainConfig, generate_synthetic_signal, rjmcmc_run


def _three_tones():
    return generate_synthetic_signal(
        3, (0.63, 0.68, 0.73), (20.0, 6.32, 20.0), (0.0, math.pi / 4, math.pi / 3),
        7.0, 64, seed=4,
    )


def _two_muons():
    return simulate_pe_signal([(150.0, 60.0), (400.0, 50.0)], 30, seed=3)


def _sampler_run(sampler, signal=None, **settings):
    if sampler == "sinusoid":
        return rjmcmc_run(signal or _three_tones(), SinChainConfig(**settings))
    return rjmcmc_run_auger(signal or _two_muons(), AugerChainConfig(**settings))


@pytest.mark.parametrize("sampler", ["sinusoid", "muons"])
def test_chain_without_death_move_never_grows(sampler):
    signal, prior = {
        "sinusoid": (None, {}),
        "muons": (PECountSignal(np.zeros(10, dtype=np.int64)), {"rate": 5.0}),
    }[sampler]
    ss = _sampler_run(
        sampler, signal, iterations=2_000, burn_in=100,
        birth_prob=0.5, death_prob=0.0, rng_seed=2, **prior,
    )
    # births are irreversible here, so the sampler must refuse them all
    assert set(ss.k_values().tolist()) == {0}


@pytest.mark.parametrize("sampler, k_max", [("sinusoid", 2), ("muons", 1)])
def test_k_never_exceeds_k_max(sampler, k_max):
    ss = _sampler_run(sampler, iterations=2_000, burn_in=0, thinning=1, k_max=k_max, rng_seed=5)
    ks = ss.k_values()
    # the chain sits at the cap most of the time, so births are refused there
    assert ks.max() == k_max
    assert np.mean(ks == k_max) > 0.5


@pytest.mark.parametrize("sampler", ["sinusoid", "muons"])
@pytest.mark.parametrize(
    "iterations, burn_in, thinning", [(400, 0, 1), (401, 100, 7), (400, 399, 3)]
)
def test_record_count_follows_burn_in_and_thinning(sampler, iterations, burn_in, thinning):
    ss = _sampler_run(
        sampler, iterations=iterations, burn_in=burn_in, thinning=thinning, rng_seed=3
    )
    assert len(ss) + ss.rejected == math.ceil((iterations - burn_in) / thinning)
    assert ss.provenance["iterations"] == iterations
    assert ss.provenance["burn_in"] == burn_in
    assert ss.provenance["thinning"] == thinning


def _reflect_reference(w, lo, hi):
    """Reflection into [0, hi] written as abs() then a mirror at hi; the
    reference for ``reflect`` with lo = 0."""
    assert lo == 0.0
    while w < 0.0 or w > hi:
        w = abs(w)
        if w > hi:
            w = 2.0 * hi - w
    return w


def test_reflect_matches_the_zero_floor_form_bitwise():
    rng = np.random.default_rng(0)
    steps = np.concatenate([rng.standard_normal(2000) * 0.3, rng.standard_normal(2000) * 20.0])
    start = rng.random(steps.size) * math.pi
    for x in start + steps:
        got = reflect(float(x), 0.0, math.pi)
        assert got == _reflect_reference(float(x), 0.0, math.pi)
        assert 0.0 <= got <= math.pi


def test_reflect_stays_in_a_shifted_window():
    for x, want in ((-30.0, 70.0), (530.0, 510.0), (250.0, 250.0), (1050.0, 50.0)):
        assert reflect(x, 20.0, 520.0) == want


@pytest.mark.parametrize("x", [1e20, -1e20, -3e300, 1.7e308])
def test_reflect_returns_for_a_point_far_outside(x):
    # 2*hi - x rounded back to -x at 1e20, and the folding never ended
    assert 0.0 <= reflect(x, 0.0, 750.0) <= 750.0
    assert -1.0 <= reflect(x, -1.0, 2.0) <= 2.0


def test_reflect_moves_a_far_point_by_whole_periods():
    # the period of the folding is 2(hi - lo) = 1500; these are exact
    for x, want in ((1.5e9 + 250.25, 250.25), (-1.5e9 + 100.5, 100.5), (1.5e9 + 1000.0, 500.0),
                    (-1.5e9 - 100.0, 100.0)):
        assert reflect(x, 0.0, 750.0) == want


# ---------------------------------------------------------------------------
# the sampler contract: (k, d) rows and one sweep step per component
# ---------------------------------------------------------------------------


def _update_only_chain(sampler, k):
    """A chain of either sampler started at k components that only updates;
    the sinusoid's delta2 and rate are held, so its refresh draws nothing."""
    if sampler == "sinusoid":
        return sinusoid._SinChain(_three_tones(), SinChainConfig(
            birth_prob=0.0, death_prob=0.0, init_omega=(0.63, 0.68, 0.73)[:k],
            delta2=20.0, rate=3.0, rng_seed=6))
    # a muon chain on a nonzero trace starts at one muon, on an empty trace at none
    signal = _two_muons() if k else PECountSignal(np.zeros(30, dtype=np.int64))
    return muons._AugerChain(signal, AugerChainConfig(
        birth_prob=0.0, death_prob=0.0, rng_seed=6,
        init_muons=((100.0, 40.0), (150.0, 60.0), (400.0, 50.0))[:k]))


@pytest.mark.parametrize("sampler", ["sinusoid", "muons"])
def test_an_update_at_k_zero_draws_only_the_move(sampler):
    chain = _update_only_chain(sampler, 0)
    assert chain.state[0].shape == (0, {"sinusoid": 129, "muons": 32}[sampler])
    twin = np.random.default_rng(6)
    twin.random()
    attempts = dict.fromkeys(("birth", "death", "update") + chain.extra_moves, 0)
    rjmcmc._step(chain, attempts, dict(attempts))
    assert chain.rng.bit_generator.state == twin.bit_generator.state
    assert attempts["update"] == 0


@pytest.mark.parametrize("sampler, column, value", [("sinusoid", 0, 4.0), ("muons", 1, 1e4)])
def test_the_engine_refuses_a_start_outside_the_box(sampler, column, value):
    # a frequency above pi, or an amplitude above a_max: the state's
    # likelihood term stays finite, so only the box check can refuse it
    chain = _update_only_chain(sampler, 1)
    rows = chain.state[0].copy()
    rows[0, column] = value
    chain.state = (rows, *chain.state[1:])
    with pytest.raises(ModelError, match="outside the parameter box"):
        rjmcmc.run(chain)


@pytest.mark.parametrize("sampler", ["sinusoid", "muons"])
@pytest.mark.parametrize("k", [1, 3])
def test_a_sweep_yields_once_per_component(sampler, k):
    chain = _update_only_chain(sampler, k)
    rows = chain.state[0]
    assert rows.ndim == 2 and len(rows) == k
    steps = list(chain.sweep())
    assert len(steps) == k
    assert all(step is None or step[1][0].shape == rows.shape for step in steps)
    attempts = dict.fromkeys(("birth", "death", "update") + chain.extra_moves, 0)
    rjmcmc._step(chain, attempts, dict(attempts))
    assert attempts["update"] == k


# ---------------------------------------------------------------------------
# cached likelihood state against a fresh recompute after every iteration
# ---------------------------------------------------------------------------


class _CheckedAuger(muons._AugerChain):
    """Checks the cached mass rows and log likelihood after every iteration.
    The mass rows must be exact; the log likelihood sums the bin means as
    one product, in another order than ``expected_bin_counts``, so it is
    compared to a relative 1e-12."""

    def refresh(self, attempts, accepts):
        super().refresh(attempts, accepts)
        rows, ll = self.state
        shape, k = self.config.pulse, len(rows)
        self.ks.add(k)
        assert rows.shape == (k, 2 + self.signal.n_bins)
        assert np.all(np.diff(rows[:, 0]) >= 0.0)
        for t, _, *masses in rows:
            unit = expected_bin_counts(np.array([[t, 1.0]]), self.signal, shape)
            assert np.array_equal(np.array(masses), unit)
        fresh = log_likelihood_pe(self.signal.counts,
                                  expected_bin_counts(rows[:, :2], self.signal, shape))
        assert ll == pytest.approx(fresh, rel=1e-12, abs=0.0)


class _CheckedSin(sinusoid._SinChain):
    """Checks the cached prior normaliser, the rows' design columns and the
    data part after every iteration, all bit for bit."""

    def refresh(self, attempts, accepts):
        super().refresh(attempts, accepts)
        (rows, data, u), k_max = self.state, self.config.k_max
        self.ks.add(len(rows))
        assert self.log_norm == sinusoid._log_trunc_series(self.rate, k_max)
        fresh_rows = sinusoid._rows(rows[:, 0], self.y.size)
        assert np.array_equal(rows, fresh_rows)
        fresh, fresh_u = sinusoid._data_part(fresh_rows, self.y, self.delta2)
        assert data == fresh
        assert np.array_equal(u, fresh_u)


@pytest.mark.parametrize("start, settings", [
    ("one muon", {}),
    ("empty", {"rate": 1.0}),
    ("k_max", {"k_max": 3, "init_muons": ((100.0, 40.0), (150.0, 60.0), (400.0, 50.0))}),
    ("a_max", {"a_max": 70.0, "init_muons": ((150.0, 50.0),)}),
])
def test_muon_cached_state_equals_recompute(start, settings):
    signal = PECountSignal(np.zeros(12, dtype=np.int64)) if start == "empty" else _two_muons()
    chain = _CheckedAuger(signal, AugerChainConfig(iterations=400, burn_in=0, rng_seed=8,
                                                   **settings))
    chain.ks = set()
    ss = rjmcmc.run(chain)
    assert ss.samples[0].components.shape[1] == 2
    assert len(chain.ks) > 1  # births and deaths were accepted


@pytest.mark.parametrize("k", range(13))
def test_muon_loglik_matches_the_reference_on_shuffled_rows(k):
    # k = 0 gives -inf on this trace; test_muons checks that it sets no
    # floating-point flag
    signal = _two_muons()
    chain = muons._AugerChain(signal, AugerChainConfig(a_max=100.0, rng_seed=0))
    rng = np.random.default_rng(k)
    lo, hi = signal.window
    for _ in range(20):
        muon = np.column_stack([rng.uniform(lo - 100.0, hi, k), rng.uniform(1.0, 100.0, k)])
        rows = np.hstack([muon, muons._unit_masses(muon[:, 0], signal.edges(), PulseShape())])
        rows = rows[rng.permutation(k)]
        ref = log_likelihood_pe(signal.counts, expected_bin_counts(muon, signal))
        assert chain._loglik(rows) == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("settings", [
    {},
    {"init_omega": (0.63, 0.73)},
    {"k_max": 2, "init_omega": (0.6, 2.0)},
    {"delta2": 20.0, "rate": 3.0},
])
def test_sinusoid_cached_state_equals_recompute(settings):
    chain = _CheckedSin(_three_tones(), SinChainConfig(iterations=400, burn_in=0, rng_seed=9,
                                                       **settings))
    chain.ks = set()
    rjmcmc.run(chain)
    assert len(chain.ks) > 1


# ---------------------------------------------------------------------------
# joint-distribution test (Geweke 2004, "Getting it right"): alternate one
# engine iteration with a fresh data draw y ~ p(y | theta); the theta marginal
# of that chain is the prior, so any error in a move's acceptance ratio or
# in the cached likelihood shows as a drift away from it
# ---------------------------------------------------------------------------

GEWEKE_BATCHES = 50
GEWEKE_Z_BOUND = 4.0  # fixed before the first run


def _batch_means_z(values, expected):
    """z-scores of the column means against ``expected``, with the Monte
    Carlo error from non-overlapping batch means."""
    batches = values.reshape(GEWEKE_BATCHES, -1, values.shape[1]).mean(axis=1)
    se = batches.std(axis=0, ddof=1) / math.sqrt(GEWEKE_BATCHES)
    return (values.mean(axis=0) - expected) / se


def test_muon_sampler_keeps_the_prior_under_successive_conditional_draws():
    n_iter, window, a_max, alpha, beta, rate, k_max = 100_000, 300.0, 30.0, 2.0, 0.2, 2.0, 5
    signal = PECountSignal(np.zeros(12, dtype=np.int64))  # bins of 25 over (0, 300)
    cfg = AugerChainConfig(iterations=1, burn_in=0, k_max=k_max, rate=rate, amp_alpha=alpha,
                           amp_beta=beta, a_max=a_max, rng_seed=31)
    chain = muons._AugerChain(signal, cfg)
    rng = np.random.default_rng(32)

    # the prior: k ~ Poisson(rate) on 0..k_max, arrivals uniform on the
    # window, amplitudes Gamma(alpha, rate beta) truncated to (0, a_max]
    pk = np.array([rate**k / math.factorial(k) for k in range(k_max + 1)])
    pk /= pk.sum()
    mean_k, mass = float(pk @ np.arange(k_max + 1)), gammainc(alpha, beta * a_max)
    mean_a = alpha / beta * gammainc(alpha + 1, beta * a_max) / mass
    mean_a2 = alpha * (alpha + 1) / beta**2 * gammainc(alpha + 2, beta * a_max) / mass

    k0 = rng.choice(k_max + 1, p=pk)
    start = np.column_stack([rng.uniform(0.0, window, k0),
                             gammaincinv(alpha, rng.uniform(0.0, mass, k0)) / beta])
    rows = np.hstack([start, muons._unit_masses(start[:, 0], chain.edges, cfg.pulse)])
    attempts = dict.fromkeys(("birth", "death", "update"), 0)
    accepts = dict.fromkeys(attempts, 0)
    stats = np.empty((n_iter, 6))
    for i in range(n_iter):
        counts = rng.poisson(expected_bin_counts(rows[:, :2], signal, cfg.pulse))
        chain.n, chain.log_n_fact = counts.astype(float), np.sum(gammaln(counts + 1.0))
        chain.state = (rows, chain._loglik(rows))
        rjmcmc._step(chain, attempts, accepts)
        rows = chain.state[0]
        t, a = rows[:, 0] / window, rows[:, 1] / a_max
        stats[i] = (t.size, t.size == 0, t.sum(), t @ t, a.sum(), a @ a)

    expected = np.array([mean_k, pk[0], mean_k / 2, mean_k / 3, mean_k * mean_a / a_max,
                         mean_k * mean_a2 / a_max**2])
    z = _batch_means_z(stats, expected)
    assert min(accepts.values()) > 0
    assert np.all(np.abs(z) < GEWEKE_Z_BOUND), z


def test_sinusoid_sampler_keeps_the_prior_under_successive_conditional_draws():
    # y is drawn at sigma2 = 1: under the Jeffreys prior the posterior depends
    # on y only through y/|y|, whose law given theta does not depend on sigma2
    n_iter, N, k_max = 200_000, 16, 4
    chain = sinusoid._SinChain(_three_tones(), SinChainConfig(iterations=1, burn_in=0,
                                                              k_max=k_max, rw_step=0.05,
                                                              rng_seed=41))
    rng = np.random.default_rng(42)

    # the prior: rate ~ Gamma(ALPHA_RATE, BETA_RATE), k | rate ~ Poisson(rate)
    # on 0..k_max, frequencies uniform on (0, pi), delta2 ~ InvGamma(ALPHA_DELTA,
    # BETA_DELTA); the k marginal by quadrature over the rate
    def k_moment(f):
        def integrand(r):
            pk = np.array([r**k / math.factorial(k) for k in range(k_max + 1)])
            return f(pk / pk.sum()) * gamma_law.pdf(r, sinusoid.ALPHA_RATE,
                                                    scale=1.0 / sinusoid.BETA_RATE)
        return integrate.quad(integrand, 0.0, np.inf)[0]

    mean_k, p0 = k_moment(lambda pk: pk @ np.arange(k_max + 1)), k_moment(lambda pk: pk[0])
    mean_log_delta2 = math.log(sinusoid.BETA_DELTA) - float(digamma(sinusoid.ALPHA_DELTA))
    mean_rate = sinusoid.ALPHA_RATE / sinusoid.BETA_RATE

    chain.rate = rng.gamma(sinusoid.ALPHA_RATE, 1.0 / sinusoid.BETA_RATE)
    chain.log_norm = sinusoid._log_trunc_series(chain.rate, k_max)
    chain.delta2 = sinusoid.BETA_DELTA / rng.gamma(sinusoid.ALPHA_DELTA)
    pk = np.array([chain.rate**k / math.factorial(k) for k in range(k_max + 1)])
    omega = np.sort(rng.uniform(0.0, math.pi, rng.choice(k_max + 1, p=pk / pk.sum())))
    attempts = dict.fromkeys(("birth", "death", "update", "rate"), 0)
    accepts = dict.fromkeys(attempts, 0)
    draws = np.empty((n_iter, 6))
    for i in range(n_iter):
        # amplitudes a = sqrt(delta2) R^-1 z with R'R = D'D, the g-prior at sigma2 = 1
        D = sinusoid.design_matrix(omega, N)
        a = math.sqrt(chain.delta2) * np.linalg.solve(np.linalg.cholesky(D.T @ D).T,
                                                      rng.standard_normal(2 * omega.size))
        chain.y = D @ a + rng.standard_normal(N)
        chain.yty = float(chain.y @ chain.y)
        chain.state = chain.score(sinusoid._rows(omega, N))
        rjmcmc._step(chain, attempts, accepts)
        omega = chain.state[0][:, 0]
        w = omega / math.pi
        draws[i] = (w.size, w.size == 0, w.sum(), w @ w, math.log(chain.delta2), chain.rate)

    expected = np.array([mean_k, p0, mean_k / 2, mean_k / 3, mean_log_delta2, mean_rate])
    z = _batch_means_z(draws, expected)
    assert min(accepts.values()) > 0
    assert np.all(np.abs(z) < GEWEKE_Z_BOUND), z
