"""Diagnostics: exact enumeration oracles for the law of k, counting
oracles for interval expectations, planted-outlier recovery, and
reconstruction checks against closed-form least squares.
"""

import json
import math

import numpy as np
import pytest
from scipy import stats

from transdim import diagnostics
from transdim.diagnostics import (
    approx_posterior_k,
    bma_histogram_intensity,
    empirical_count_interval,
    expected_count_interval,
    reconstruct_bma,
    reconstruct_from_model,
    reconstruction_error_db,
    residuals,
    summarize,
)
from transdim.fit import FitConfig, mstep_robust, sem_fit
from transdim.model import (
    AllocationVector,
    ApproxModel,
    GaussianComponent,
    ModelError,
    ParamSpace,
    SampleSet,
    _component_log_mass,
    _gaussian_log_densities,
    model_intensity,
    sample_batch_from_model,
)
from transdim.oracle import gate_count_law
from transdim.sinusoid import SinChainConfig, design_matrix, generate_synthetic_signal, rjmcmc_run

UNIT = ParamSpace(np.array([[0.0, 1.0]]))


def make_model(mus, sigma2s, pis, lam, space=UNIT):
    comps = [
        GaussianComponent(np.atleast_1d(np.asarray(m, dtype=float)),
                          np.atleast_1d(np.asarray(s, dtype=float)), p)
        for m, s, p in zip(mus, sigma2s, pis)
    ]
    return ApproxModel(space, comps, lam)


# ---------------------------------------------------------------------------
# approximate posterior of k
# ---------------------------------------------------------------------------


def test_posterior_k_point_mass():
    model = make_model([0.5], [0.01], [1.0], 0.0)
    p = approx_posterior_k(model)
    assert p[1] == 1.0
    assert p.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(p[2:] == 0.0)


def test_posterior_k_two_half_gates():
    model = make_model([0.3, 0.7], [0.01, 0.01], [0.5, 0.5], 0.0)
    p = approx_posterior_k(model)
    np.testing.assert_allclose(p[:3], [0.25, 0.5, 0.25], atol=1e-15)


def test_posterior_k_pure_poisson():
    model = ApproxModel(UNIT, [], 0.1)
    p = approx_posterior_k(model)
    ref = stats.poisson.pmf(np.arange(p.size), 0.1)
    np.testing.assert_allclose(p[:-1], ref[:-1], rtol=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_posterior_k_matches_gate_enumeration():
    rng = np.random.default_rng(3)
    pis = rng.uniform(0.05, 0.95, size=10)
    model = make_model(
        rng.uniform(0.1, 0.9, size=10), np.full(10, 0.01), pis, 0.0
    )
    p = approx_posterior_k(model)
    np.testing.assert_allclose(p[:11], gate_count_law(pis), atol=1e-12)
    # the folded remainder entry absorbs float rounding from the convolution
    assert np.all(p[11:] < 1e-12)


def test_posterior_k_matches_generative_frequencies():
    model = make_model([0.3, 0.7], [0.002, 0.004], [0.7, 0.4], 0.6)
    p = approx_posterior_k(model)
    _, labels = sample_batch_from_model(model, 200_000, np.random.default_rng(11))
    ks = np.array([lab.size for lab in labels])
    emp = np.bincount(ks, minlength=p.size) / ks.size
    for k in range(8):
        se = math.sqrt(p[k] * (1 - p[k]) / ks.size)
        assert abs(emp[k] - p[k]) < 3.5 * se + 1e-12


def test_posterior_k_cap_folds_tail():
    model = make_model([0.3], [0.01], [0.8], 2.5)
    full = approx_posterior_k(model)
    short = approx_posterior_k(model, k_cap=2)
    assert short.size == 3
    np.testing.assert_allclose(short[:2], full[:2], rtol=1e-15)
    assert short[2] == pytest.approx(full[2:].sum(), rel=1e-12)
    assert short.sum() == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# interval counts
# ---------------------------------------------------------------------------


def test_interval_count_whole_box_is_total_mass():
    model = make_model([0.3, 0.8], [0.001, 0.02], [0.9, 0.35], 0.27)
    got = expected_count_interval(model, [[0.0, 1.0]])
    assert got == pytest.approx(0.9 + 0.35 + 0.27, rel=1e-14)


def test_interval_count_empty_and_validation():
    model = make_model([0.5], [0.01], [0.6], 0.3)
    assert expected_count_interval(model, [[0.4, 0.4]]) == 0.0
    with pytest.raises(ModelError):
        expected_count_interval(model, [[-0.1, 0.5]])
    with pytest.raises(ModelError):
        expected_count_interval(model, [[0.6, 0.5]])


def test_empty_model_counts_only_the_point_process():
    # L = 0: no Gaussian terms, so the count is lam times the volume share
    space = ParamSpace(np.array([[0.0, 2.0], [1.0, 3.0]]))
    model = ApproxModel(space, [], 0.8)
    assert expected_count_interval(model, [[0.5, 1.5], [1.0, 2.0]]) == 0.8 * 0.25
    assert _gaussian_log_densities(np.full((3, 4, 2), 1.5), model).shape == (3, 4, 0)
    assert _component_log_mass(model).shape == (0, 2)


def test_interval_count_additive():
    model = make_model([0.3, 0.62], [0.003, 0.01], [0.8, 0.5], 0.4)
    whole = expected_count_interval(model, [[0.1, 0.9]])
    left = expected_count_interval(model, [[0.1, 0.55]])
    right = expected_count_interval(model, [[0.55, 0.9]])
    assert left + right == pytest.approx(whole, rel=1e-12)


def test_interval_count_matches_empirical():
    model = make_model([0.3, 0.7], [0.002, 0.004], [0.85, 0.45], 0.3)
    draws, _ = sample_batch_from_model(model, 40_000, np.random.default_rng(7))
    ss = SampleSet.ingest(UNIT, draws)
    box = [[0.2, 0.5]]
    truth = expected_count_interval(model, box)
    per_sample = np.array([
        np.sum((a[:, 0] >= 0.2) & (a[:, 0] <= 0.5)) if a.size else 0 for a in draws
    ])
    se = per_sample.std() / math.sqrt(per_sample.size)
    got = empirical_count_interval(ss, box)
    assert got == pytest.approx(per_sample.mean(), rel=1e-12)
    assert abs(got - truth) < 4 * se + 1e-12


def test_empirical_count_validation():
    ss = SampleSet(UNIT, np.zeros((0, 1)), [])
    with pytest.raises(ModelError):
        empirical_count_interval(ss, [[0.0, 1.0]])


@pytest.mark.parametrize("box", [[[0.5, 0.2]], [[-1.0, 2.0]], [[0.2, 1.5]],
                                 [[math.nan, 1.0]], [[0.2, math.nan]], [[math.nan, math.nan]]])
def test_both_interval_counts_reject_reversed_or_outside_intervals(box):
    # reversed bounds, bounds reaching outside the unit box, and NaN bounds,
    # which every comparison lets through
    model = make_model([0.5], [0.01], [0.6], 0.3)
    ss = build_set([[0.3], [0.4, 0.9]])
    with pytest.raises(ModelError):
        expected_count_interval(model, box)
    with pytest.raises(ModelError):
        empirical_count_interval(ss, box)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


def build_set(arrays):
    return SampleSet.ingest(UNIT, [np.asarray(a, dtype=float).reshape(-1, 1) for a in arrays])


def test_residuals_extracts_sink_labels():
    ss = build_set([[0.2], [0.5, 0.9]])
    allocs = [AllocationVector([3]), AllocationVector([1, 3])]
    pts, src = residuals(ss, allocs, L=2)
    np.testing.assert_array_equal(pts, [[0.2], [0.9]])
    np.testing.assert_array_equal(src, [[0, 0], [1, 1]])


def test_residuals_empty_and_errors():
    ss = build_set([[0.2], [0.5]])
    allocs = [AllocationVector([1]), AllocationVector([2])]
    pts, src = residuals(ss, allocs, L=2)
    assert pts.shape == (0, 1) and src.shape == (0, 2)
    with pytest.raises(ModelError):
        residuals(ss, allocs[:1], L=2)
    with pytest.raises(ModelError):
        residuals(ss, [AllocationVector([1, 2]), AllocationVector([2])], L=2)


@pytest.mark.parametrize("labels", [[[7, 0], [-3]], [[1, 1], [2]]])
def test_residuals_and_mstep_reject_the_same_invalid_labels(labels):
    # out-of-range labels, and a Gaussian label used twice in one sample
    ss = build_set([[0.2, 0.8], [0.5]])
    allocs = [AllocationVector(z) for z in labels]
    with pytest.raises(ModelError):
        residuals(ss, allocs, L=1)
    with pytest.raises(ModelError):
        mstep_robust(ss, allocs, 1, make_model([0.5], [0.01], [0.5], 0.5))


def test_residual_fraction_equals_refitted_rate():
    ss = build_set([[0.2, 0.8], [0.5], [0.4, 0.6, 0.9]])
    allocs = [
        AllocationVector([1, 3]),
        AllocationVector([2]),
        AllocationVector([1, 2, 3]),
    ]
    previous = make_model([0.3, 0.6], [0.01, 0.01], [0.5, 0.5], 0.5)
    refit = mstep_robust(ss, allocs, 2, previous)
    pts, _ = residuals(ss, allocs, L=2)
    assert pts.shape[0] / len(ss) == pytest.approx(refit.lam, abs=1e-12)


def test_residuals_recover_planted_outliers():
    rng = np.random.default_rng(17)
    truth = make_model([0.3, 0.7], [4e-4, 4e-4], [1.0, 1.0], 0.0)
    draws, _ = sample_batch_from_model(truth, 500, rng)
    planted = [0.05, 0.5, 0.95, 0.15, 0.85]
    for i, v in enumerate(planted):
        draws[i] = np.vstack([draws[i], [[v]]])
    ss = SampleSet.ingest(UNIT, draws)
    result = sem_fit(ss, FitConfig(iterations=60, averaging_window=30, rng_seed=5))
    pts, _ = residuals(ss, result.allocations, result.model.L)
    found = sum(any(abs(pts[:, 0] - v) < 1e-12) for v in planted)
    assert found >= 4


# ---------------------------------------------------------------------------
# intensities
# ---------------------------------------------------------------------------


def test_histogram_single_sample_integrates_to_k():
    ss = build_set([[0.21, 0.6]])
    heights, edges = bma_histogram_intensity(ss, bins=10)
    assert float(np.sum(heights * np.diff(edges))) == pytest.approx(2.0, rel=1e-15)


def test_histogram_validation():
    with pytest.raises(ModelError):
        bma_histogram_intensity(SampleSet(UNIT, np.zeros((0, 1)), []))
    ss = build_set([[0.5]])
    with pytest.raises(ModelError):
        bma_histogram_intensity(ss, dim=1)


def test_histogram_matches_model_intensity():
    model = make_model([0.35, 0.75], [0.003, 0.001], [0.9, 0.6], 0.0)
    draws, _ = sample_batch_from_model(model, 20_000, np.random.default_rng(9))
    ss = SampleSet.ingest(UNIT, draws)
    heights, edges = bma_histogram_intensity(ss, bins=40)
    width = float(edges[1] - edges[0])
    truth = np.array([
        expected_count_interval(model, [[edges[b], edges[b + 1]]]) / width
        for b in range(40)
    ])
    per_bin = np.zeros((len(ss), 40))
    for i, s in enumerate(ss.samples):
        if s.k:
            idx = np.clip(np.digitize(s.components[:, 0], edges) - 1, 0, 39)
            per_bin[i] = np.bincount(idx, minlength=40)
    se = per_bin.std(axis=0) / (width * math.sqrt(len(ss)))
    dev = np.abs(heights - truth)
    assert dev.mean() < 3 * se.mean()


def test_histogram_dim_selection_for_pairs():
    space = ParamSpace(np.array([[0.0, 1000.0], [0.0, 100.0]]))
    raw = [np.array([[100.0, 30.0], [400.0, 55.0]])]
    ss = SampleSet.ingest(space, raw)
    h_t, e_t = bma_histogram_intensity(ss, bins=10, dim=0)
    h_a, e_a = bma_histogram_intensity(ss, bins=10, dim=1)
    assert float(np.sum(h_t * np.diff(e_t))) == pytest.approx(2.0)
    assert float(np.sum(h_a * np.diff(e_a))) == pytest.approx(2.0)
    assert e_t[-1] == 1000.0 and e_a[-1] == 100.0


def test_intensity_curve_on_a_grid_integrates_to_the_gate():
    model = make_model([0.4], [0.01], [0.7], 0.2)
    grid = np.linspace(0.0, 1.0, 101)
    curve = model_intensity(grid[:, None], model)
    assert curve.shape == (101,)
    np.testing.assert_array_equal(curve, [model_intensity(np.array([t]), model) for t in grid])
    fine = np.linspace(0.0, 1.0, 20001)
    integral = np.trapezoid(model_intensity(fine[:, None], model), fine)
    assert integral == pytest.approx(0.7, abs=1e-4)


def test_intensity_curve_multivariate_needs_matrix_grid():
    space = ParamSpace(np.array([[0.0, 1.0], [0.0, 1.0]]))
    comp = GaussianComponent(np.array([0.5, 0.5]), np.array([0.01, 0.01]), 0.5)
    model = ApproxModel(space, [comp], 0.0)
    with pytest.raises(ModelError):
        model_intensity(np.linspace(0, 1, 5), model)
    with pytest.raises(ModelError):
        model_intensity(np.linspace(0, 1, 5)[:, None], model)
    out = model_intensity(np.tile([[0.5, 0.5]], (3, 1)), model)
    assert out.shape == (3,)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


SIN_SPACE = ParamSpace(np.array([[0.0, math.pi]]))


def test_reconstruct_bma_empty_models_give_zero():
    raw = [np.zeros((0, 1)) for _ in range(5)]
    ss = SampleSet.ingest(SIN_SPACE, raw)
    y = np.random.default_rng(0).standard_normal(16)
    np.testing.assert_array_equal(reconstruct_bma(ss, y, 10.0), np.zeros(16))
    with pytest.raises(ModelError):
        reconstruct_bma(SampleSet(SIN_SPACE, np.zeros((0, 1)), []), y, 10.0)


def test_reconstruct_bma_single_frequency_matches_direct_formula():
    sig = generate_synthetic_signal(1, [0.9], [16.0], [0.4], 25.0, 32, seed=3)
    raw = [np.array([[0.9]]), np.array([[0.92]])]
    ss = SampleSet.ingest(SIN_SPACE, raw)
    got = reconstruct_bma(ss, sig.y, 40.0)
    shrink = 40.0 / 41.0
    ref = np.zeros(32)
    for w in (0.9, 0.92):
        D = design_matrix(np.array([w]), 32)
        ref += D @ (shrink * np.linalg.solve(D.T @ D, D.T @ sig.y))
    np.testing.assert_allclose(got, ref / 2.0, rtol=1e-12)


def test_reconstruct_bma_one_draw_approaches_least_squares():
    sig = generate_synthetic_signal(2, [0.7, 1.9], [9.0, 4.0], [0.1, 1.2], 10.0, 64, seed=9)
    D = design_matrix(sig.true_omega, 64)
    ols, *_ = np.linalg.lstsq(D, sig.y, rcond=None)
    ss = SampleSet.ingest(SIN_SPACE, [sig.true_omega[:, None]])
    np.testing.assert_allclose(reconstruct_bma(ss, sig.y, 1e8), D @ ols, rtol=1e-6)


def test_reconstruct_bma_one_draw_is_zero_for_orthogonal_signal():
    N = 32
    D = design_matrix(np.array([0.8]), N)
    r = np.random.default_rng(10).standard_normal(N)
    y = r - D @ np.linalg.solve(D.T @ D, D.T @ r)
    ss = SampleSet.ingest(SIN_SPACE, [np.array([[0.8]])])
    np.testing.assert_allclose(reconstruct_bma(ss, y, 5.0), np.zeros(N), atol=1e-12)


def test_reconstruct_bma_one_draw_shrinks_by_expected_factor():
    sig = generate_synthetic_signal(1, [1.1], [4.0], [0.0], 20.0, 64, seed=12)
    ss = SampleSet.ingest(SIN_SPACE, [sig.true_omega[:, None]])
    d2 = 3.0
    full = reconstruct_bma(ss, sig.y, 1e12)
    np.testing.assert_allclose(reconstruct_bma(ss, sig.y, d2), d2 / (1 + d2) * full, rtol=1e-9)


def test_reconstruct_bma_skips_singular_draws():
    # a frequency of exactly 0 has an all-zero sine column, one of exactly pi
    # a sine column of rounding size, and coincident frequencies repeat a
    # column; a samples file read back can hold any of them
    sig = generate_synthetic_signal(2, [0.6, 1.7], [16.0, 9.0], [0.4, 1.0], 10.0, 32, seed=3)
    raw = [np.array([[0.6]]), np.array([[0.61], [1.7]]), np.array([[1.69]]), np.array([[0.59], [1.71]])]
    clean = reconstruct_bma(SampleSet.ingest(SIN_SPACE, raw), sig.y, 40.0)
    for singular in (np.array([[0.0]]), np.array([[0.0], [1.7]]), np.array([[math.pi]]),
                     np.array([[0.6], [math.pi]]), np.array([[0.6], [0.6]]),
                     np.array([[0.6], [1.7], [1.7]])):
        with_zero = raw[:2] + [singular] + raw[2:]
        got = reconstruct_bma(SampleSet.ingest(SIN_SPACE, with_zero), sig.y, 40.0)
        assert np.array_equal(got, clean)
    only_singular = SampleSet.ingest(
        SIN_SPACE, [np.array([[0.0]]), np.array([[0.0], [1.2]]), np.array([[math.pi]])]
    )
    with pytest.raises(ModelError):
        reconstruct_bma(only_singular, sig.y, 40.0)


def test_high_snr_chain_reconstruction_is_accurate():
    sig = generate_synthetic_signal(1, [0.73], [20.0], [math.pi / 3], 20.0, 64, seed=2)
    cfg = SinChainConfig(
        iterations=8_000, burn_in=1_000, k_max=1,
        birth_prob=0.0, death_prob=0.0,
        rw_step=0.02, delta2_init=50.0, sample_delta2=False,
        rate_init=1.0, sample_rate=False, rng_seed=8, init_omega=(0.7,),
    )
    ss = rjmcmc_run(sig, cfg)
    clean = design_matrix(sig.true_omega, 64) @ sig.true_amplitudes
    y_hat = reconstruct_bma(ss, sig.y, 50.0)
    assert reconstruction_error_db(y_hat, clean) < -20.0


def test_reconstruct_from_model_is_stable_across_seeds():
    model = ApproxModel(
        SIN_SPACE,
        [
            GaussianComponent(np.array([0.63]), np.array([1e-4]), 0.95),
            GaussianComponent(np.array([0.73]), np.array([1e-4]), 0.9),
        ],
        0.05,
    )
    sig = generate_synthetic_signal(2, [0.63, 0.73], [20.0, 20.0], [0.0, 1.0], 7.0, 64, seed=4)
    r1 = reconstruct_from_model(model, sig.y, 50.0, 100_000, np.random.default_rng(1))
    r2 = reconstruct_from_model(model, sig.y, 50.0, 100_000, np.random.default_rng(2))
    rms = float(np.sqrt(np.mean((r1 - r2) ** 2)))
    scale = float(np.sqrt(np.mean(r1**2)))
    assert rms < 0.01 * scale


def test_reconstruction_matches_per_draw_solves_across_chunks(monkeypatch):
    # k from 0 to 4 in random order; among them draws at 0 and at pi and
    # coincident frequencies, in the middle of their k-groups
    rng = np.random.default_rng(21)
    N = 32
    y = rng.standard_normal(N)
    grid = np.linspace(0.2, 2.9, 10)  # 0.3 apart, beyond the 2 pi / N resolution
    raw = [np.sort(rng.choice(grid, size=int(k), replace=False))
           for k in rng.integers(0, 5, size=60)]
    singular = [np.array([0.0]), np.array([0.9, 0.9]), np.array([0.4, math.pi]),
                np.array([0.2, 1.3, 1.3]), np.array([0.0, 0.5, 1.0, 2.0])]
    for j, w in zip((7, 19, 30, 41, 52), singular):
        raw.insert(j, w)
    ss = SampleSet.ingest(SIN_SPACE, [w[:, None] for w in raw])
    shrink = 7.0 / 8.0
    ref, used = np.zeros(N), 0
    for w in raw:
        if any(w is bad for bad in singular):
            continue
        used += 1
        if w.size:
            D = design_matrix(w, N)
            ref += D @ (shrink * np.linalg.solve(D.T @ D, D.T @ y))
    got = reconstruct_bma(ss, y, 7.0)
    np.testing.assert_allclose(got, ref / used, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    # three draws per batched solve: every k-group crosses chunk edges; the
    # chunk sums are added in turn, so only the rounding of the sum may move
    monkeypatch.setattr(diagnostics, "_CHUNK", 3)
    chunked = reconstruct_bma(ss, y, 7.0)
    np.testing.assert_allclose(chunked, got, rtol=1e-13, atol=1e-14 * np.abs(got).max())


def test_reconstruct_from_model_matches_per_draw_solves():
    # the same draws as sample_batch_from_model at the same seed, each
    # solved densely with the exact design
    model = ApproxModel(
        SIN_SPACE,
        [GaussianComponent(np.array([0.6]), np.array([1e-3]), 0.9),
         GaussianComponent(np.array([1.7]), np.array([4e-3]), 0.6)],
        0.4,
    )
    sig = generate_synthetic_signal(2, [0.6, 1.7], [16.0, 9.0], [0.4, 1.0], 10.0, 48, seed=6)
    draws, _ = sample_batch_from_model(model, 3000, np.random.default_rng(17))
    shrink = 30.0 / 31.0
    ref = np.zeros(sig.N)
    for w in draws:
        if w.size:
            D = design_matrix(w[:, 0], sig.N)
            ref += D @ (shrink * np.linalg.solve(D.T @ D, D.T @ sig.y))
    ref /= len(draws)
    got = reconstruct_from_model(model, sig.y, 30.0, 3000, np.random.default_rng(17))
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("size", [2.5, True, -1, "3", None])
def test_model_draws_reject_a_size_that_is_not_a_count(size):
    model = ApproxModel(SIN_SPACE, [GaussianComponent(np.array([0.7]), np.array([1e-3]), 0.9)], 0.4)
    y = np.random.default_rng(5).standard_normal(32)
    with pytest.raises(ModelError, match="size"):
        sample_batch_from_model(model, size, 3)
    with pytest.raises(ModelError, match="size"):
        reconstruct_from_model(model, y, 20.0, size, np.random.default_rng(3))


@pytest.mark.parametrize("delta2", [math.nan, math.inf, -1.0, -0.5, 0.0])
def test_reconstruction_rejects_delta2_outside_zero_to_infinity(delta2):
    comp = GaussianComponent(np.array([0.7]), np.array([1e-3]), 0.9)
    model = ApproxModel(SIN_SPACE, [comp], 0.4)
    ss = SampleSet.ingest(SIN_SPACE, [np.array([[0.7]]), np.zeros((0, 1))])
    y = np.random.default_rng(5).standard_normal(32)
    with pytest.raises(ModelError, match="delta2"):
        reconstruct_bma(ss, y, delta2)
    with pytest.raises(ModelError, match="delta2"):
        reconstruct_from_model(model, y, delta2, 100, np.random.default_rng(3))


def test_reconstruction_rejects_a_non_finite_signal():
    ss = SampleSet.ingest(SIN_SPACE, [np.array([[0.7]]), np.zeros((0, 1))])
    y = np.random.default_rng(5).standard_normal(32)
    y[4] = math.nan
    with pytest.raises(ModelError, match="finite"):
        reconstruct_bma(ss, y, 20.0)


def test_error_db_values():
    y = np.zeros(10)
    y[0] = 1.0
    off = y.copy()
    off[1] = math.sqrt(0.1)
    assert reconstruction_error_db(off, y) == pytest.approx(-10.0, rel=1e-12)
    assert reconstruction_error_db(y, y) == -300.0
    assert reconstruction_error_db(2 * y, y) == pytest.approx(0.0, abs=1e-12)
    tiny = y.copy()
    tiny[1] = 1e-40
    assert reconstruction_error_db(tiny, y) == -300.0
    with pytest.raises(ModelError):
        reconstruction_error_db(y, np.zeros(10))
    with pytest.raises(ModelError):
        reconstruction_error_db(y, np.zeros(4))


# ---------------------------------------------------------------------------
# assembled report
# ---------------------------------------------------------------------------


def test_summarize_round_trip():
    model = make_model([0.3, 0.7], [0.002, 0.004], [0.85, 0.45], 0.3)
    draws, labels = sample_batch_from_model(model, 2_000, np.random.default_rng(19))
    ss = SampleSet.ingest(UNIT, draws)
    allocs = [AllocationVector(lab) for lab in labels]
    doc = summarize(
        model, ss, allocations=allocs, intervals=([[0.2, 0.5]],), reconstruction_db=-12.5
    )
    assert sum(doc["p_k"]) == pytest.approx(1.0, abs=1e-12)
    assert doc["lambda"] == 0.3
    entry = doc["intervals"][0]
    assert set(entry) == {"bounds", "model", "empirical"}
    assert abs(entry["model"] - entry["empirical"]) < 0.05
    true_outliers = sum(int(np.sum(lab == 3)) for lab in labels)
    assert doc["residual_fraction"] == pytest.approx(true_outliers / 2000, abs=1e-15)
    assert len(doc["residuals"]) == true_outliers
    assert json.loads(json.dumps(doc)) == doc  # plain JSON types throughout
    assert doc["reconstruction_db"] == -12.5
