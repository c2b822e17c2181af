"""Pulse model and muon chain: quadrature oracles for the forward model,
closed-form checks for the likelihood, and grid oracles for the sampler.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gammainc, gammaln, xlogy

from transdim.model import ModelError
from transdim import muons
from transdim.muons import (
    AugerChainConfig,
    PECountSignal,
    PulseShape,
    auger_param_space,
    expected_bin_counts,
    log_likelihood_pe,
    pulse_cdf,
    pulse_density,
    rjmcmc_run_auger,
    simulate_pe_signal,
)

SHAPE = PulseShape()


# ---------------------------------------------------------------------------
# pulse profile
# ---------------------------------------------------------------------------


def test_pulse_shape_validation():
    assert SHAPE.rise_time == 15.0 and SHAPE.decay == 67.0
    assert SHAPE.norm == pytest.approx(67.0**2 / 82.0, rel=1e-15)
    with pytest.raises(ModelError):
        PulseShape(rise_time=0.0)
    with pytest.raises(ModelError):
        PulseShape(decay=-1.0)


def test_pulse_density_is_causal():
    assert pulse_density(-5.0) == 0.0
    out = pulse_density(np.array([-10.0, -0.001, 0.0, 1.0]))
    assert out[0] == out[1] == 0.0
    assert out[2] == 0.0  # rise factor vanishes at the arrival instant
    assert out[3] > 0.0


def test_pulse_density_integrates_to_one():
    total, err = integrate.quad(pulse_density, 0.0, np.inf, limit=200)
    assert err < 1e-9
    assert total == pytest.approx(1.0, abs=1e-8)


def test_pulse_density_short_rise_limit_is_exponential():
    shape = PulseShape(rise_time=1e-6, decay=67.0)
    got = pulse_density(67.0, shape)
    assert got == pytest.approx(math.exp(-1.0) / 67.0, rel=1e-3)


def test_pulse_cdf_matches_quadrature():
    for t in (5.0, 30.0, 120.0, 500.0):
        ref, err = integrate.quad(pulse_density, 0.0, t, epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-10
        assert pulse_cdf(t) == pytest.approx(ref, rel=1e-8)


def test_pulse_cdf_limits_and_monotonicity():
    assert pulse_cdf(0.0) == 0.0
    assert pulse_cdf(-3.0) == 0.0
    assert pulse_cdf(20 * 67.0) == pytest.approx(1.0, abs=1e-7)
    grid = pulse_cdf(np.linspace(0, 800, 2001))
    assert np.all(np.diff(grid) >= 0.0)


def test_pulse_cdf_is_positive_zero_before_arrival_and_propagates_nan():
    # the clamp at 0 gives +0.0, never -0.0, for every t <= 0
    before = np.array([-math.inf, -1e300, -3.0, -5e-324, -0.0, 0.0])
    assert not np.any(pulse_cdf(before)) and not np.any(np.signbit(pulse_cdf(before)))
    assert all(pulse_cdf(t) == 0.0 and not np.signbit(pulse_cdf(t)) for t in before)
    # NaN in, NaN out; no muon function reaches it, since _muon_array
    # refuses a non-finite arrival
    assert math.isnan(pulse_cdf(math.nan))
    assert np.isnan(pulse_cdf(np.array([1.0, math.nan]))[1])


# ---------------------------------------------------------------------------
# expected bin counts
# ---------------------------------------------------------------------------


def geometry(n_bins, t0=0.0, t_delta=25.0):
    return PECountSignal(np.zeros(n_bins, dtype=np.int64), t0, t_delta)


def test_expected_counts_empty_is_zero():
    out = expected_bin_counts([], geometry(12))
    np.testing.assert_array_equal(out, np.zeros(12))


def test_expected_counts_capture_total_intensity():
    # window extends 20 decay constants past the arrival: all mass inside
    sig = geometry(54)
    out = expected_bin_counts([(10.0, 7.5)], sig)
    assert abs(out.sum() - 7.5) < 1e-6
    assert np.all(out >= 0.0)


def test_expected_counts_single_bin_matches_quadrature():
    sig = geometry(20)
    out = expected_bin_counts([(100.0, 3.2)], sig)
    ref, err = integrate.quad(
        lambda s: 3.2 * pulse_density(s - 100.0), 150.0, 175.0,
        epsabs=1e-14, epsrel=1e-14,
    )
    assert err < 1e-12
    assert out[6] == pytest.approx(ref, rel=1e-8)


def test_expected_counts_additive_in_muons():
    sig = geometry(30)
    m1, m2, m3 = (60.0, 4.0), (200.0, 9.0), (410.0, 2.5)
    combined = expected_bin_counts([m1, m2, m3], sig)
    split = expected_bin_counts([m1, m2], sig) + expected_bin_counts([m3], sig)
    np.testing.assert_array_equal(combined, split)


def test_expected_counts_permutation_invariant_bitwise():
    import itertools

    sig = geometry(25)
    muons = [(60.0, 4.0), (200.0, 9.0), (410.0, 2.5)]
    base = expected_bin_counts(muons, sig)
    for perm in itertools.permutations(muons):
        np.testing.assert_array_equal(expected_bin_counts(list(perm), sig), base)


def _reference_expected_bin_counts(muons, signal, shape):
    """Reference forward model: masked pulse CDF, np.diff mass rows, and a
    Python loop adding a * m onto zeros in lexsort order."""
    arr = np.asarray(muons, dtype=float).reshape(-1, 2)
    tau = shape.decay
    c = shape.rise_time * tau / (shape.rise_time + tau)
    x = signal.edges() - arr[:, :1]
    cdf = np.zeros_like(x)
    m = x > 0.0
    cdf[m] = (c * np.expm1(-x[m] / c) - tau * np.expm1(-x[m] / tau)) / shape.norm
    masses = np.maximum(np.diff(cdf, axis=1), 0.0)
    out = np.zeros(signal.n_bins)
    for i in np.lexsort((arr[:, 1], arr[:, 0])):
        out += arr[i, 1] * masses[i]
    return out, cdf


def test_expected_counts_bytewise_equal_to_reference():
    rng = np.random.default_rng(20261019)
    for _ in range(3000):
        shape = PulseShape(rise_time=rng.uniform(0.5, 40.0), decay=rng.uniform(5.0, 150.0))
        sig = geometry(int(rng.integers(1, 41)), rng.uniform(-50.0, 50.0), rng.uniform(1.0, 40.0))
        lo, hi = sig.window
        k = int(rng.integers(0, 12))
        # arrivals up to 100 ns before t0 and past the window's end
        pairs = np.column_stack([rng.uniform(lo - 100.0, hi + 100.0, k),
                                 rng.gamma(1.0, 30.0, k) + 1e-3])
        if k >= 3:
            pairs[1, 0] = pairs[0, 0]  # tied arrival, its own amplitude
            if rng.random() < 0.5:
                pairs[2] = pairs[0]  # tied (arrival, amplitude) pair
        ref, ref_cdf = _reference_expected_bin_counts(pairs, sig, shape)
        got = expected_bin_counts(pairs, sig, shape)
        assert got.tobytes() == ref.tobytes()
        assert pulse_cdf(sig.edges() - pairs[:, :1], shape).tobytes() == ref_cdf.tobytes()


@pytest.mark.parametrize("k", [0, 1, 6])
def test_expected_counts_is_a_fresh_vector(k):
    # a view into the summation buffer would keep the whole (k + 1, n) array alive
    out = expected_bin_counts([(40.0 * i, 5.0 + i) for i in range(k)], geometry(17))
    assert out.shape == (17,)
    assert out.flags.owndata and out.base is None


def test_expected_counts_rejects_bad_amplitude():
    with pytest.raises(ModelError):
        expected_bin_counts([(50.0, 0.0)], geometry(10))
    with pytest.raises(ModelError):
        expected_bin_counts(np.array([[50.0, -2.0]]), geometry(10))


@pytest.mark.parametrize("muon", [(math.nan, 50.0), (math.inf, 50.0), (-math.inf, 50.0),
                                  (100.0, math.nan), (100.0, math.inf)])
def test_non_finite_muons_are_refused(muon):
    # a non-finite arrival gave zero bin masses, so the muon vanished; a
    # non-finite amplitude reached the Poisson draw
    with pytest.raises(ModelError, match="finite"):
        expected_bin_counts([(60.0, 4.0), muon], geometry(10))
    with pytest.raises(ModelError, match="finite"):
        simulate_pe_signal([muon], 10, seed=1)


# ---------------------------------------------------------------------------
# Poisson bin likelihood
# ---------------------------------------------------------------------------


def test_likelihood_zero_counts():
    nbar = np.array([0.3, 1.2, 0.0, 4.5])
    assert log_likelihood_pe(np.zeros(4), nbar) == pytest.approx(-nbar.sum(), rel=1e-15)
    assert log_likelihood_pe([0], [0.0]) == 0.0


def test_likelihood_single_bin_value():
    assert log_likelihood_pe([2], [1.0]) == pytest.approx(-1.0 - math.log(2.0), rel=1e-15)


def test_likelihood_impossible_observation():
    assert log_likelihood_pe([1], [0.0]) == -np.inf
    assert log_likelihood_pe([0, 3], [2.0, 0.0]) == -np.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_log_of_zero_mean_sets_no_floating_point_flag():
    # xlogy(n, 0) is -inf for n > 0 without raising numpy's divide flag, so
    # the likelihood and the chain's copy of it need no errstate guard
    with np.errstate(all="raise"):
        assert log_likelihood_pe([1, 0], [0.0, 0.0]) == -np.inf
        sig = PECountSignal(np.array([2, 0, 1]))
        chain = muons._AugerChain(sig, AugerChainConfig(rng_seed=0))
        assert chain._loglik(np.zeros((0, 2 + sig.n_bins))) == -np.inf


def test_likelihood_matches_poisson_pmf():
    rng = np.random.default_rng(0)
    nbar = rng.uniform(0.1, 8.0, size=40)
    n = rng.poisson(nbar)
    ref = float(stats.poisson.logpmf(n, nbar).sum())
    assert log_likelihood_pe(n, nbar) == pytest.approx(ref, rel=1e-12)


def test_likelihood_validates_inputs():
    with pytest.raises(ModelError):
        log_likelihood_pe([1, 2], [1.0])
    with pytest.raises(ModelError):
        log_likelihood_pe([1], [-0.5])


def test_true_parameters_beat_leave_one_out():
    muons = [(80.0, 40.0), (250.0, 35.0), (520.0, 45.0)]
    sig = simulate_pe_signal(muons, 30, seed=14)
    full = log_likelihood_pe(sig.counts, expected_bin_counts(muons, sig))
    for j in range(3):
        reduced = [m for i, m in enumerate(muons) if i != j]
        dropped = log_likelihood_pe(sig.counts, expected_bin_counts(reduced, sig))
        assert full > dropped


# ---------------------------------------------------------------------------
# signals and geometry
# ---------------------------------------------------------------------------


def test_signal_edges_and_window():
    sig = PECountSignal(np.array([1, 0, 2]), t0=50.0, t_delta=10.0)
    np.testing.assert_array_equal(sig.edges(), [50.0, 60.0, 70.0, 80.0])
    assert sig.window == (50.0, 80.0)
    assert sig.n_bins == 3


def test_signal_validation():
    with pytest.raises(ModelError):
        PECountSignal(np.array([1, -1]))
    with pytest.raises(ModelError):
        PECountSignal(np.array([0.5, 1.0]))
    with pytest.raises(ModelError):
        PECountSignal(np.array([]))
    with pytest.raises(ModelError):
        PECountSignal(np.array([1, 2]), t_delta=0.0)
    # non-finite geometry, and a last edge t0 + n_bins t_delta that overflows
    for geometry in ({"t0": math.nan}, {"t0": math.inf}, {"t0": -math.inf},
                     {"t_delta": math.inf}, {"t_delta": math.nan}, {"t_delta": 1e308}):
        with pytest.raises(ModelError, match="finite"):
            PECountSignal(np.array([1, 2]), **geometry)


def test_param_space_covers_window_and_amplitudes():
    space = auger_param_space(geometry(40), a_max=300.0)
    np.testing.assert_array_equal(space.bounds, [[0.0, 1000.0], [0.0, 300.0]])


def test_simulate_is_deterministic_and_plausible():
    muons = [(100.0, 50.0), (400.0, 60.0)]
    a = simulate_pe_signal(muons, 40, seed=8)
    b = simulate_pe_signal(muons, 40, seed=8)
    np.testing.assert_array_equal(a.counts, b.counts)
    mean_total = expected_bin_counts(muons, geometry(40)).sum()
    assert abs(a.counts.sum() - mean_total) < 5 * math.sqrt(mean_total)
    empty = simulate_pe_signal([], 10, seed=0)
    assert empty.counts.sum() == 0


# ---------------------------------------------------------------------------
# the chain
# ---------------------------------------------------------------------------


def test_chain_config_validation():
    with pytest.raises(ModelError):
        AugerChainConfig(birth_prob=0.6, death_prob=0.5)
    with pytest.raises(ModelError):
        AugerChainConfig(iterations=10, burn_in=10)
    with pytest.raises(ModelError):
        AugerChainConfig(k_max=1, init_muons=((10.0, 5.0), (20.0, 5.0)))
    with pytest.raises(ModelError):
        AugerChainConfig(amp_beta=0.0)
    # a bad setting must fail here: inside the chain, amp_beta=inf (gamma
    # scale 0) hangs the truncated amplitude draw and t_step=nan records NaN
    # arrivals that ingest then rejects
    for bad in (
        {"amp_beta": math.inf}, {"t_step": math.nan}, {"log_a_step": -0.3},
        {"amp_alpha": math.inf}, {"a_max": math.nan}, {"rate": 0.0},
        {"burn_in": -1}, {"thinning": 0}, {"k_max": 2.5},
        # Gamma(1000, rate 0.1) puts no mass in (0, 500] at float precision
        {"amp_alpha": 1000.0},
        # Gamma(1e-12) has mass there, but its median rounds to 0
        {"amp_alpha": 1e-12},
    ):
        with pytest.raises(ModelError):
            AugerChainConfig(**bad)


def test_chain_rejects_inconsistent_init():
    sig = simulate_pe_signal([(100.0, 60.0)], 20, seed=5)
    bad = AugerChainConfig(iterations=100, burn_in=10, init_muons=((9999.0, 5.0),))
    with pytest.raises(ModelError):
        rjmcmc_run_auger(sig, bad)
    # a muon arriving after the first observed count leaves that bin at
    # zero mean: impossible start
    late = AugerChainConfig(iterations=100, burn_in=10, init_muons=((490.0, 5.0),))
    with pytest.raises(ModelError):
        rjmcmc_run_auger(sig, late)


def test_chain_prefers_empty_model_on_zero_counts():
    sig = PECountSignal(np.zeros(20, dtype=np.int64))
    cfg = AugerChainConfig(iterations=30_000, burn_in=5_000, rate=1.0, rng_seed=1)
    ss = rjmcmc_run_auger(sig, cfg)
    pk = ss.empirical_posterior_k()
    assert pk[0] > 0.6
    assert pk.sum() == pytest.approx(1.0, abs=1e-12)


def test_fixed_k_arrival_posterior_matches_closed_form():
    """With k pinned at 1 and a unit-shape Gamma amplitude prior, the
    amplitude integrates out analytically; the chain's arrival histogram
    must reproduce that marginal."""
    sig = simulate_pe_signal([(210.0, 80.0)], 20, seed=5)
    cfg = AugerChainConfig(
        iterations=30_000, burn_in=3_000,
        birth_prob=0.0, death_prob=0.0,
        init_muons=((100.0, 20.0),), rng_seed=9, t_step=8.0, log_a_step=0.15,
    )
    ss = rjmcmc_run_auger(sig, cfg)
    ts = np.array([s.components[0, 0] for s in ss.samples])

    beta = cfg.amp_beta
    total = int(sig.counts.sum())
    grid = np.arange(0.25, 500.0, 0.5)
    lm = np.empty(grid.size)
    for i, t in enumerate(grid):
        m = expected_bin_counts([(t, 1.0)], sig)
        with np.errstate(divide="ignore"):
            lm[i] = float(np.sum(xlogy(sig.counts, m))) + float(
                gammaln(total + 1)
            ) - (total + 1) * math.log(beta + m.sum())
    w = np.exp(lm - lm.max())
    edges = sig.edges()
    oracle = np.histogram(grid, bins=edges, weights=w)[0]
    oracle /= oracle.sum()
    emp = np.histogram(ts, bins=edges)[0] / ts.size

    assert abs(int(np.argmax(emp)) - int(np.argmax(oracle))) <= 1
    assert 0.5 * np.abs(emp - oracle).sum() < 0.05
    oracle_mean = float((grid * w).sum() / w.sum())
    assert abs(ts.mean() - oracle_mean) < 2.0


def test_chain_recovers_two_muons():
    sig = simulate_pe_signal([(150.0, 60.0), (400.0, 50.0)], 30, seed=3)
    cfg = AugerChainConfig(
        iterations=20_000, burn_in=4_000, rate=1.0,
        amp_alpha=2.0, amp_beta=0.05, rng_seed=6,
    )
    ss = rjmcmc_run_auger(sig, cfg)
    pk = ss.empirical_posterior_k()
    assert int(np.argmax(pk)) == 2
    assert pk[2] > 0.5
    pairs = np.array([s.components for s in ss.samples if s.k == 2])
    arrivals = pairs[:, :, 0].mean(axis=0)
    assert abs(arrivals[0] - 150.0) < 25.0
    assert abs(arrivals[1] - 400.0) < 25.0


def test_chain_deterministic_and_documented():
    sig = simulate_pe_signal([(120.0, 50.0)], 20, seed=4)
    cfg = AugerChainConfig(iterations=4_000, burn_in=1_000, thinning=3, rng_seed=13)
    a = rjmcmc_run_auger(sig, cfg)
    b = rjmcmc_run_auger(sig, cfg)
    assert len(a) == len(b) == 1000
    for xa, xb in zip(a.samples, b.samples):
        assert np.array_equal(xa.components, xb.components)
    assert a.provenance == b.provenance
    assert a.provenance["sampler"] == "auger-rjmcmc"
    assert a.provenance["extras"]["pulse"] == {"rise_time": 15.0, "decay": 67.0}
    assert set(a.provenance["extras"]["acceptance_rates"]) == {"birth", "death", "update"}
    assert a.rejected == 0


def test_chain_samples_are_sorted_and_in_bounds():
    sig = simulate_pe_signal([(150.0, 60.0), (400.0, 50.0)], 30, seed=3)
    cfg = AugerChainConfig(iterations=3_000, burn_in=500, rng_seed=21)
    ss = rjmcmc_run_auger(sig, cfg)
    space = auger_param_space(sig, cfg.a_max)
    np.testing.assert_array_equal(ss.space.bounds, space.bounds)
    for s in ss.samples:
        assert s.components.shape[1] == 2
        if s.k:
            assert np.all(np.diff(s.components[:, 0]) >= 0.0)
            assert bool(np.all(space.contains(s.components)))


def test_birth_amplitude_follows_truncated_prior():
    # a_max = 40 cuts Gamma(2, rate 0.05) at 26% of its mass, so about one
    # draw in four goes through the inverse-CDF fallback; the mixture must
    # still be the prior truncated to (0, a_max]
    sig = simulate_pe_signal([(150.0, 60.0)], 20, seed=3)
    cfg = AugerChainConfig(amp_alpha=2.0, amp_beta=0.05, a_max=40.0, init_muons=((150.0, 30.0),),
                           rng_seed=5)
    chain = muons._AugerChain(sig, cfg)
    amps = np.array([chain.new_row()[1] for _ in range(4000)])
    assert np.all((amps > 0.0) & (amps <= cfg.a_max))
    mass = gammainc(cfg.amp_alpha, cfg.amp_beta * cfg.a_max)
    cdf = lambda x: gammainc(cfg.amp_alpha, cfg.amp_beta * x) / mass  # noqa: E731
    assert stats.kstest(amps, cdf).pvalue > 1e-3


def test_chain_finishes_when_prior_mass_below_a_max_is_tiny():
    # Gamma(100, rate 0.1) has mass 3.2e-10 in (0, 500]: resampling until a
    # draw landed there never ended
    sig = simulate_pe_signal([(150.0, 60.0), (400.0, 50.0)], 30, seed=3)
    cfg = AugerChainConfig(iterations=600, burn_in=100, amp_alpha=100.0, amp_beta=0.1,
                           a_max=500.0, rng_seed=3)
    ss = rjmcmc_run_auger(sig, cfg)
    amps = np.concatenate([s.components[:, 1] for s in ss.samples])
    assert amps.size and np.all((amps > 0.0) & (amps <= cfg.a_max))


def test_chain_finishes_when_prior_median_is_tiny():
    # Gamma(1e-3, rate 0.1) truncated to (0, 500] has its median at 5.2e-301:
    # most Gamma draws round to 0 and the birth redraws them
    sig = simulate_pe_signal([(150.0, 60.0), (400.0, 50.0)], 30, seed=3)
    cfg = AugerChainConfig(iterations=600, burn_in=100, amp_alpha=1e-3, rng_seed=3)
    ss = rjmcmc_run_auger(sig, cfg)
    amps = np.concatenate([s.components[:, 1] for s in ss.samples])
    assert amps.size and np.all((amps > 0.0) & (amps <= cfg.a_max))


def test_amplitude_step_underflowing_to_zero_is_rejected():
    # Gamma(0.002) amplitudes reach subnormal values, where a wide log-scale
    # step underflows to 0: the step is outside the prior and is rejected
    # (it raised "muon amplitudes must be positive")
    sig = simulate_pe_signal([(150.0, 60.0), (400.0, 50.0)], 30, seed=3)
    cfg = AugerChainConfig(iterations=3000, burn_in=100, amp_alpha=0.002, log_a_step=3.0,
                           rng_seed=0)
    ss = rjmcmc_run_auger(sig, cfg)
    amps = np.concatenate([s.components[:, 1] for s in ss.samples])
    assert amps.min() > 0.0
