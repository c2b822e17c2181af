"""Sinusoid sampler: design matrix, marginal target, the design factor,
synthetic signals, and the trans-dimensional chain.

Oracles: direct trigonometric summation for the design products, 3-d
quadrature over (amplitudes, noise variance) for the marginal likelihood,
dense solves for the design factor, and fine-grid evaluation of the
target for chain-level distribution checks.
"""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import lapack
from scipy.special import gammaln, logsumexp

from transdim.model import ModelError
from transdim.oracle import quadrature_log_marginal
from transdim.sinusoid import (
    SinChainConfig,
    SinusoidSignal,
    _batched_design,
    _SinChain,
    _data_part,
    design_matrix,
    generate_synthetic_signal,
    log_marginal_likelihood,
    log_target_marginal,
    rjmcmc_run,
    sin_param_space,
)


# ---------------------------------------------------------------------------
# design matrix
# ---------------------------------------------------------------------------


def test_design_matrix_quarter_period():
    D = design_matrix(np.array([math.pi / 2]), 4)
    assert D.shape == (4, 2)
    np.testing.assert_allclose(D[:, 0], [1.0, 0.0, -1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(D[:, 1], [0.0, 1.0, 0.0, -1.0], atol=1e-15)


def test_design_matrix_empty():
    D = design_matrix(np.array([]), 5)
    assert D.shape == (5, 0)
    assert (D.T @ D).shape == (0, 0)


def test_design_matrix_matches_direct_summation():
    omega = np.array([0.63, 0.68, 0.73])
    N = 64
    D = design_matrix(omega, N)
    direct = np.empty((N, 6))
    for i in range(N):
        for j, w in enumerate(omega):
            direct[i, 2 * j] = math.cos(w * i)
            direct[i, 2 * j + 1] = math.sin(w * i)
    np.testing.assert_array_equal(D, direct)


@pytest.mark.parametrize("k", [0, 1, 3, 6])
def test_batched_design_matrix_equals_stacked_single_calls(k):
    omega = np.random.default_rng(k).uniform(0.0, math.pi, size=(5, k))
    D = design_matrix(omega, 32)
    assert D.shape == (5, 32, 2 * k)
    assert np.array_equal(D, np.stack([design_matrix(w, 32) for w in omega]))


@pytest.mark.parametrize("N", [2, 17, 64, 100])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_angle_addition_design_matches_design_matrix(N, k):
    # cosine rows then sine rows of the transposed design; n = 0 is the
    # empty chunk of a k-group whose draws were all dropped
    for n in (0, 7):
        omega = np.random.default_rng(10 * N + k).uniform(0.0, math.pi, size=(n, k))
        D = design_matrix(omega, N)
        got = _batched_design(omega, N)
        assert got.shape == (n, 2 * k, N)
        want = np.concatenate([D[..., 0::2], D[..., 1::2]], axis=2).swapaxes(1, 2)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_design_products_near_half_identity():
    # well-separated frequencies: D'D is close to (N/2) I
    omega = np.array([0.5, 1.3, 2.2])
    N = 64
    G = design_matrix(omega, N).T @ design_matrix(omega, N)
    np.testing.assert_allclose(G, (N / 2) * np.eye(6), atol=0.08 * N)
    assert np.all(np.abs(np.diag(G) - N / 2) < 0.05 * N)


# ---------------------------------------------------------------------------
# marginal target
# ---------------------------------------------------------------------------


def trunc_poisson_logpmf(k, rate, k_max):
    return float(
        stats.poisson.logpmf(k, rate) - math.log(stats.poisson.cdf(k_max, rate))
    )


def test_target_empty_model_value():
    rng = np.random.default_rng(1)
    y = rng.standard_normal(16)
    got = log_target_marginal(0, [], y, 5.0, 1.5, k_max=10)
    expected = -8.0 * math.log(float(y @ y)) + trunc_poisson_logpmf(0, 1.5, 10)
    assert got == pytest.approx(expected, rel=1e-12)


def test_target_exactly_permutation_invariant():
    rng = np.random.default_rng(2)
    y = rng.standard_normal(32)
    omega = np.array([0.41, 1.17, 2.53])
    base = log_target_marginal(3, omega, y, 10.0, 2.0)
    for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
        assert log_target_marginal(3, omega[perm], y, 10.0, 2.0) == base


def test_target_singular_design_is_minus_inf():
    rng = np.random.default_rng(3)
    y = rng.standard_normal(16)
    assert log_target_marginal(2, [0.7, 0.7], y, 5.0, 1.0) == -np.inf
    assert log_target_marginal(1, [0.0], y, 5.0, 1.0) == -np.inf
    assert log_target_marginal(1, [math.pi], y, 5.0, 1.0) == -np.inf


def test_target_beyond_k_max_is_minus_inf():
    rng = np.random.default_rng(4)
    y = rng.standard_normal(16)
    assert log_target_marginal(2, [0.5, 1.0], y, 5.0, 1.0, k_max=1) == -np.inf


def test_marginal_likelihood_matches_three_dim_quadrature():
    """Closed form against brute-force integration over the amplitude pair
    and the noise variance under their priors (N=8, k=1)."""
    sig = generate_synthetic_signal(1, [0.9], [4.0], [0.3], 7.0, 8, seed=5)
    integral = quadrature_log_marginal(sig.y, 0.9, 8.0)
    assert log_marginal_likelihood([0.9], sig.y, 8.0) == pytest.approx(integral, abs=1e-3)


def test_marginal_likelihood_empty_model_constant():
    rng = np.random.default_rng(6)
    y = rng.standard_normal(12)
    got = log_marginal_likelihood([], y, 7.0)
    expected = (
        float(gammaln(6.0)) - 6.0 * math.log(math.pi) - 6.0 * math.log(float(y @ y))
    )
    assert got == pytest.approx(expected, rel=1e-13)


# ---------------------------------------------------------------------------
# the design factor's direct LAPACK calls
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "omega",
    [[0.7, 0.7], [0.4, 1.9, 1.9], [1.2, 1.2, 2.0], [0.0], [0.0, 1.3], [math.pi], [1.3, math.pi]],
)
def test_singular_design_is_minus_inf_and_has_no_amplitude_mean(omega):
    # coincident frequencies repeat a column; a frequency at 0 gives an
    # all-zero sine column, one at pi a sine column of rounding size
    y = np.random.default_rng(3).standard_normal(16)
    data, fac = _data_part(np.array(omega), y, 5.0)
    assert data == -np.inf
    assert fac is None
    assert log_marginal_likelihood(omega, y, 5.0) == -np.inf


def test_amplitude_mean_empty():
    # k = 0 has no amplitudes to solve for: no design factor, and the data
    # part is the empty model's -N/2 log(y'y) for any delta2
    y = np.ones(8)
    for d2 in (0.5, 5.0, 1e8):
        data, fac = _data_part(np.empty(0), y, d2)
        assert fac is None
        assert data == pytest.approx(-0.5 * 8 * math.log(8.0), rel=1e-15)


@pytest.mark.parametrize(
    "omega", [[0.3], [0.63, 0.68, 0.73], [0.5, 1.5, 2.5, 3.0], [0.1, 0.2, 0.9, 1.7, 2.2, 2.9]]
)
def test_design_factor_matches_dense_solves(omega):
    y = np.random.default_rng(7).standard_normal(64)
    omega = np.array(omega)
    D = design_matrix(omega, 64)
    G, Dty = D.T @ D, D.T @ y
    ref = np.linalg.solve(G, Dty)
    D_f, R, ahat, quad = _data_part(omega, y, 5.0)[1]
    np.testing.assert_array_equal(D_f, D)
    # the least-squares amplitudes; the delta2 refresh's mean is 5/6 of them
    np.testing.assert_allclose(ahat, ref, rtol=1e-12)
    R = np.triu(R)  # the lower triangle is not part of the factor
    np.testing.assert_allclose(R.T @ R, G, rtol=1e-12, atol=1e-12 * np.abs(G).max())
    assert quad == pytest.approx(float(Dty @ ref), rel=1e-12)
    # the delta2 refresh's triangular solve
    z = np.random.default_rng(1).standard_normal(omega.size * 2)
    np.testing.assert_allclose(lapack.dtrtrs(R, z)[0], np.linalg.solve(R, z), rtol=1e-12)


# ---------------------------------------------------------------------------
# synthetic signals
# ---------------------------------------------------------------------------


def test_synthetic_noise_variance_matches_snr_definition():
    sig = generate_synthetic_signal(
        3, [0.63, 0.68, 0.73], [20.0, 6.32, 20.0], [0.0, math.pi / 4, math.pi / 3],
        7.0, 64, seed=0,
    )
    D = design_matrix(sig.true_omega, 64)
    clean = D @ sig.true_amplitudes
    assert sig.true_sigma2 == pytest.approx(
        float(clean @ clean) / (64 * 10.0 ** 0.7), rel=1e-12
    )


def test_synthetic_infinite_snr_is_noiseless():
    sig = generate_synthetic_signal(1, [0.8], [4.0], [0.2], math.inf, 32, seed=1)
    D = design_matrix(sig.true_omega, 32)
    np.testing.assert_array_equal(sig.y, D @ sig.true_amplitudes)
    assert sig.true_sigma2 == 0.0


def test_exact_fit_of_noiseless_signal_is_model_error():
    # delta2 climbs to ~1e16 until y'Py rounds to <= 0 in the delta2
    # refresh, which then raised "math domain error"
    sig = generate_synthetic_signal(1, [1.0], [4.0], [0.3], math.inf, 64, seed=0)
    cfg = SinChainConfig(iterations=3000, burn_in=100, init_omega=(1.0,), rng_seed=0)
    with pytest.raises(ModelError, match="exactly"):
        rjmcmc_run(sig, cfg)


def test_synthetic_phase_convention():
    sig = generate_synthetic_signal(1, [1.0], [1.0], [0.0], math.inf, 8, seed=0)
    np.testing.assert_allclose(sig.true_amplitudes, [1.0, 0.0], atol=1e-15)
    # quarter-cycle phase moves energy into the sine column
    sig2 = generate_synthetic_signal(1, [1.0], [1.0], [-math.pi / 2], math.inf, 8, seed=0)
    np.testing.assert_allclose(sig2.true_amplitudes, [0.0, 1.0], atol=1e-15)


def test_synthetic_rejects_bad_energy():
    with pytest.raises(ModelError):
        generate_synthetic_signal(1, [0.5], [0.0], [0.0], 7.0, 16, seed=0)
    with pytest.raises(ModelError):
        generate_synthetic_signal(2, [0.5], [1.0], [0.0], 7.0, 16, seed=0)


def test_signal_validation():
    with pytest.raises(ModelError):
        SinusoidSignal(np.array([1.0]))
    with pytest.raises(ModelError):
        SinusoidSignal(np.ones(8), true_omega=np.array([0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_signal_is_refused(bad):
    # without the check the chain failed later with "initial state has zero
    # posterior density", which does not name the cause
    y = np.sin(0.7 * np.arange(16))
    y[3] = bad
    with pytest.raises(ModelError, match="finite"):
        SinusoidSignal(y)


# ---------------------------------------------------------------------------
# chain state helpers
# ---------------------------------------------------------------------------


class _FixedUniform:
    """Stands in for the chain's generator: every uniform draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_birth_then_death_restores_state_exactly():
    sig = generate_synthetic_signal(1, [0.9], [4.0], [0.3], 7.0, 16, seed=5)
    omega = np.array([0.4, 1.1, 2.9])
    chain = _SinChain(sig, SinChainConfig(init_omega=tuple(omega)))
    start = chain.state
    # new frequencies inside the state and at both edges
    for u, pos in ((0.75 / math.pi, 1), (0.1 / math.pi, 0), (3.0 / math.pi, 3)):
        chain.rng, chain.state = _FixedUniform(u), start
        _, grown = chain.birth(0.0)
        assert grown[0].tolist() == [*omega[:pos], u * math.pi, *omega[pos:]]
        chain.state = grown
        _, back = chain.death(pos, 0.0)
        assert np.array_equal(back[0], omega)
        assert back[1] == start[1]


# ---------------------------------------------------------------------------
# the chain itself
# ---------------------------------------------------------------------------


def test_chain_config_validation():
    with pytest.raises(ModelError):
        SinChainConfig(birth_prob=0.6, death_prob=0.5)
    with pytest.raises(ModelError):
        SinChainConfig(iterations=100, burn_in=100)
    with pytest.raises(ModelError):
        SinChainConfig(k_max=2, init_omega=(0.3, 0.6, 0.9))
    # a bad setting must fail here, before any sampling
    for bad in (
        {"rw_step": 0.0}, {"delta2_init": math.inf},
        {"thinning": math.nan}, {"iterations": 1e3}, {"k_max": 0},
        {"birth_prob": math.nan}, {"init_omega": (0.5, math.pi)},
    ):
        with pytest.raises(ModelError):
            SinChainConfig(**bad)


def test_chain_marginals_match_gridded_target():
    """k_max=1 lets the whole target be gridded: chain occupancy of
    {k=0} plus 200 frequency bins must sit within TV 0.05 of it."""
    sig = generate_synthetic_signal(1, [1.1], [4.0], [0.5], 7.0, 8, seed=11)
    d2, lam = 8.0, 1.0
    cfg = SinChainConfig(
        iterations=120_000, burn_in=20_000, thinning=1, k_max=1,
        rw_step=0.15, delta2_init=d2, sample_delta2=False,
        rate_init=lam, sample_rate=False, rng_seed=42,
    )
    ss = rjmcmc_run(sig, cfg)
    assert len(ss) == 100_000

    edges = np.linspace(0.0, math.pi, 201)
    mids = 0.5 * (edges[:-1] + edges[1:])
    t0 = log_target_marginal(0, [], sig.y, d2, lam, k_max=1)
    t1 = np.array([log_target_marginal(1, [w], sig.y, d2, lam, k_max=1) for w in mids])
    logp = np.concatenate([[t0], t1 + math.log(edges[1] - edges[0])])
    p_exact = np.exp(logp - logp.max())
    p_exact /= p_exact.sum()

    emp = np.zeros(201)
    ks = ss.k_values()
    emp[0] = float(np.mean(ks == 0))
    omg = np.array([s.components[0, 0] for s in ss.samples if s.k == 1])
    emp[1:] = np.bincount(np.clip(np.digitize(omg, edges) - 1, 0, 199), minlength=200) / len(ss)
    tv = 0.5 * float(np.abs(emp - p_exact).sum())
    assert tv < 0.05, f"TV against gridded target: {tv:.4f}"


def test_chain_prefers_empty_model_on_pure_noise():
    rng = np.random.default_rng(7)
    noise = SinusoidSignal(rng.standard_normal(16) * 3.0)
    d2, lam = 8.0, 1.0
    cfg = SinChainConfig(
        iterations=60_000, burn_in=10_000, thinning=1, k_max=1,
        rw_step=0.2, delta2_init=d2, sample_delta2=False,
        rate_init=lam, sample_rate=False, rng_seed=3,
    )
    ss = rjmcmc_run(noise, cfg)
    mids = np.linspace(0, math.pi, 4001)[1:-1]
    t1 = np.array([log_target_marginal(1, [w], noise.y, d2, lam, k_max=1) for w in mids])
    t0 = log_target_marginal(0, [], noise.y, d2, lam, k_max=1)
    logZ1 = float(logsumexp(t1)) + math.log(mids[1] - mids[0])
    p0_exact = 1.0 / (1.0 + math.exp(logZ1 - t0))
    p0_emp = float(np.mean(ss.k_values() == 0))
    assert p0_exact > 0.5
    assert abs(p0_emp - p0_exact) < 0.03


@pytest.fixture(scope="module")
def fixed_k_run():
    sig = generate_synthetic_signal(1, [0.73], [20.0], [math.pi / 3], 7.0, 64, seed=2)
    cfg = SinChainConfig(
        iterations=20_000, burn_in=2_000, thinning=1, k_max=1,
        birth_prob=0.0, death_prob=0.0,
        rw_step=0.02, delta2_init=50.0, sample_delta2=False,
        rate_init=1.0, sample_rate=False, rng_seed=8, init_omega=(0.6,),
    )
    return sig, rjmcmc_run(sig, cfg)


def test_fixed_k_posterior_mean_hits_target_peak(fixed_k_run):
    sig, ss = fixed_k_run
    assert set(ss.k_values().tolist()) == {1}
    om = np.array([s.components[0, 0] for s in ss.samples])
    grid = np.linspace(0.70, 0.76, 12001)
    tg = np.array([log_target_marginal(1, [w], sig.y, 50.0, 1.0, k_max=1) for w in grid])
    peak = grid[np.argmax(tg)]
    assert abs(om.mean() - peak) < 0.01


def test_update_move_transitions_are_reversible(fixed_k_run):
    """Bin the frozen single-frequency path; forward and backward transition
    counts between bins must agree within sampling error."""
    _, ss = fixed_k_run
    om = np.array([s.components[0, 0] for s in ss.samples])
    edges = np.linspace(0.70, 0.76, 13)
    b = np.digitize(om, edges) - 1
    ok = (b >= 0) & (b < 12)
    C = np.zeros((12, 12))
    for i in range(len(b) - 1):
        if ok[i] and ok[i + 1]:
            C[b[i], b[i + 1]] += 1
    checked = 0
    for i in range(12):
        for j in range(i + 1, 12):
            tot = C[i, j] + C[j, i]
            if tot >= 50:
                z = abs(C[i, j] - C[j, i]) / math.sqrt(tot)
                assert z < 5.0, f"bins {i}->{j}: counts {C[i,j]} vs {C[j,i]}"
                checked += 1
    assert checked >= 5


def test_chain_is_deterministic_and_documents_itself():
    sig = generate_synthetic_signal(1, [1.0], [6.0], [0.3], 7.0, 16, seed=4)
    cfg = SinChainConfig(iterations=3_000, burn_in=500, thinning=5, rng_seed=77)
    a = rjmcmc_run(sig, cfg)
    b = rjmcmc_run(sig, cfg)
    assert len(a) == len(b) == 500
    for xa, xb in zip(a.samples, b.samples):
        assert np.array_equal(xa.components, xb.components)
    assert a.provenance == b.provenance
    assert a.provenance["sampler"] == "sinusoid-rjmcmc"
    assert a.provenance["seed"] == 77
    rates = a.provenance["extras"]["acceptance_rates"]
    assert set(rates) == {"birth", "death", "update", "rate"}
    assert 0 <= a.provenance["extras"]["mean_delta2"]


def test_chain_samples_live_in_frequency_space():
    sig = generate_synthetic_signal(2, [0.9, 1.7], [8.0, 8.0], [0.0, 0.5], 7.0, 32, seed=6)
    cfg = SinChainConfig(iterations=4_000, burn_in=1_000, thinning=4, rng_seed=5)
    ss = rjmcmc_run(sig, cfg)
    space = sin_param_space()
    assert np.array_equal(ss.space.bounds, space.bounds)
    assert ss.rejected == 0
    for s in ss.samples:
        assert s.components.shape[1] == 1
        if s.k:
            assert np.all((s.components > 0) & (s.components < math.pi))
            assert np.all(np.diff(s.components[:, 0]) >= 0)  # recorded sorted
