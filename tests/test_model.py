"""Core model: exact densities, generative sampler, enumeration.

Oracles used here are independent of the implementation under test:
scipy.stats.truncnorm for truncated densities, quadrature for masses and
normalization, closed-form hand formulas for small allocation sets, and
Monte Carlo from the generative description for distribution-level checks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from transdim.fit import FitConfig
from transdim.model import (
    ApproxModel,
    GaussianComponent,
    ModelError,
    ParamSpace,
    SampleSet,
    _draw_columns,
    _gaussian_log_densities,
    _label_counts,
    model_intensity,
    sample_batch_from_model,
)
from transdim.montecarlo import MonteCarloConfig
from transdim.muons import AugerChainConfig
from transdim.oracle import (
    enumerate_allocations,
    exact_allocation_log_posterior,
    labeled_joint_log_density,
    unlabeled_log_density,
)
from transdim.sinusoid import SinChainConfig


def make_model(bounds, mus, sigma2s, pis, lam):
    space = ParamSpace(np.asarray(bounds, dtype=float))
    comps = [
        GaussianComponent(np.atleast_1d(m), np.atleast_1d(s), p)
        for m, s, p in zip(mus, sigma2s, pis)
    ]
    return ApproxModel(space, comps, lam)


def truncnorm_pdf(x, mu, sigma, lo, hi):
    a, b = (lo - mu) / sigma, (hi - mu) / sigma
    return stats.truncnorm.pdf(x, a, b, loc=mu, scale=sigma)


# ---------------------------------------------------------------------------
# label counts of one record: the (L+1,) indicator, last entry the outliers
# ---------------------------------------------------------------------------


def indicator(labels, L):
    labels = np.asarray(labels, dtype=np.int64)
    return _label_counts(labels, np.zeros(labels.size, dtype=np.int64), 1, L)[0]


def test_indicator_empty_sample():
    assert indicator([], L=2).tolist() == [0, 0, 0]


def test_indicator_counts_labels():
    assert indicator([2, 3, 3], L=2).tolist() == [0, 1, 2]


def test_indicator_rejects_repeated_gaussian_label():
    with pytest.raises(ModelError):
        indicator([1, 1], L=2)


def test_indicator_rejects_out_of_range_label():
    with pytest.raises(ModelError):
        indicator([4], L=2)


# ---------------------------------------------------------------------------
# the allocation prior: the joint density less the point densities
# ---------------------------------------------------------------------------


@pytest.fixture
def gate_model():
    return make_model([(0.0, 1.0)], [[0.5]], [[0.01]], [0.4], 0.2)


def point_log_densities(x, z, model):
    """log density of each of the (k, d) points x under its label in z: the
    truncated Gaussian of a Gaussian label, the uniform density on the box
    for label L+1."""
    dens = np.append(_gaussian_log_densities(x, model),
                     np.full((len(x), 1), -model.space.log_volume), axis=1)
    return dens[np.arange(len(x)), np.asarray(z, dtype=int) - 1]


def test_allocation_prior_empty(gate_model):
    # with no points the joint density is the allocation prior itself
    x = np.zeros((0, 1))
    z = np.array([], dtype=int)
    assert labeled_joint_log_density(x, z, gate_model) == pytest.approx(
        math.log(0.6) - 0.2, abs=1e-14
    )


def test_allocation_prior_single_component(gate_model):
    x = np.array([[0.45]])
    z = np.array([1])
    got = labeled_joint_log_density(x, z, gate_model) - math.log(
        truncnorm_pdf(0.45, 0.5, 0.1, 0.0, 1.0)
    )
    assert got == pytest.approx(math.log(0.4) - 0.2, abs=1e-13)


def test_allocation_prior_two_outliers(gate_model):
    # the uniform density on the unit box is 1, so the joint is the prior
    x = np.array([[0.1], [0.9]])
    z = np.array([2, 2])
    expected = -0.2 + 2 * math.log(0.2) - math.log(2.0) + math.log(0.6)
    assert labeled_joint_log_density(x, z, gate_model) == pytest.approx(expected, abs=1e-13)


def test_allocation_prior_sums_to_one_over_valid_allocations():
    model = make_model(
        [(0.0, 1.0)], [[0.3], [0.7]], [[0.01], [0.04]], [0.7, 0.4], 0.3
    )
    total = 0.0
    for k in range(0, 13):
        x = np.linspace(0.05, 0.95, k).reshape(k, 1)
        for z in enumerate_allocations(k, model.L):
            total += math.exp(
                labeled_joint_log_density(x, z, model) - point_log_densities(x, z, model).sum()
            )
    # truncated at k=12; remaining Poisson tail is below 1e-13
    assert total == pytest.approx(1.0, abs=1e-11)


# ---------------------------------------------------------------------------
# component densities: box-truncated Gaussians and the uniform outlier density
# ---------------------------------------------------------------------------


def test_component_density_outlier_label_unit_box():
    assert ParamSpace(np.array([[0.0, 1.0]])).log_volume == 0.0


def test_component_density_outlier_label_general_box():
    model = make_model([(0.0, math.pi)], [[0.5]], [[0.01]], [0.4], 0.2)
    assert -model.space.log_volume == pytest.approx(-math.log(math.pi), abs=1e-15)
    # one outlier point: the joint density carries lam times the uniform density
    x = np.array([[1.0]])
    z = np.array([2])
    expected = -0.2 + math.log(0.2) - math.log(math.pi) + math.log(0.6)
    assert labeled_joint_log_density(x, z, model) == pytest.approx(expected, abs=1e-14)


def test_component_density_gaussian_center():
    model = make_model([(0.0, math.pi)], [[0.5]], [[0.01]], [0.4], 0.2)
    got = float(_gaussian_log_densities(np.array([0.5]), model)[0])
    mass = stats.norm.cdf(math.pi, 0.5, 0.1) - stats.norm.cdf(0.0, 0.5, 0.1)
    expected = math.log(stats.norm.pdf(0.5, 0.5, 0.1) / mass)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(1.383646846440986, abs=1e-12)


def test_component_density_matches_truncnorm_oracle():
    model = make_model([(0.0, 1.0)], [[0.8]], [[0.09]], [0.5], 0.1)
    xs = np.array([0.05, 0.3, 0.77, 0.99])
    got = _gaussian_log_densities(xs[:, None], model)[:, 0]
    for x, g in zip(xs, got):
        assert g == pytest.approx(
            math.log(truncnorm_pdf(x, 0.8, 0.3, 0.0, 1.0)), rel=1e-10
        )


def test_component_density_rejects_out_of_bounds():
    model = make_model([(0.0, 1.0)], [[0.5]], [[0.01]], [0.4], 0.2)
    with pytest.raises(ModelError):
        labeled_joint_log_density(
            np.array([[1.5]]), np.array([1]), model
        )


def test_component_density_normalizes_over_box():
    model = make_model(
        [(0.0, 1.0)], [[0.1], [0.95]], [[0.0025], [0.04]], [0.5, 0.5], 0.0
    )
    for label in (1, 2):
        mass, err = integrate.quad(
            lambda t, lb=label: math.exp(
                _gaussian_log_densities(np.array([t]), model)[lb - 1]
            ),
            0.0,
            1.0,
            limit=200,
        )
        assert abs(math.log(mass)) < 1e-6


def test_component_density_two_dimensional():
    model = make_model(
        [(0.0, 1.0), (-2.0, 2.0)], [[0.5, 0.0]], [[0.01, 0.25]], [0.9], 0.1
    )
    got = float(_gaussian_log_densities(np.array([0.4, 0.5]), model)[0])
    expected = math.log(
        truncnorm_pdf(0.4, 0.5, 0.1, 0.0, 1.0) * truncnorm_pdf(0.5, 0.0, 0.5, -2.0, 2.0)
    )
    assert got == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# labeled_joint_log_density
# ---------------------------------------------------------------------------


def test_labeled_joint_empty_sample():
    model = make_model([(0.0, 1.0)], [[0.5]], [[0.01]], [0.8], 0.1)
    x = np.zeros((0, 1))
    z = np.array([], dtype=int)
    assert labeled_joint_log_density(x, z, model) == pytest.approx(
        -0.1 + math.log(0.2), abs=1e-14
    )
    # a gate with pi = 0 is closed with probability one
    never = make_model([(0.0, 1.0)], [[0.5]], [[0.01]], [0.0], 0.2)
    assert labeled_joint_log_density(x, z, never) == pytest.approx(-0.2, abs=1e-15)


def test_labeled_joint_single_point():
    model = make_model([(0.0, 1.0)], [[0.5]], [[0.01]], [0.8], 0.1)
    x = np.array([[0.5]])
    z = np.array([1])
    expected = -0.1 + math.log(0.8) + math.log(truncnorm_pdf(0.5, 0.5, 0.1, 0.0, 1.0))
    assert labeled_joint_log_density(x, z, model) == pytest.approx(expected, rel=1e-12)


def test_labeled_joint_mixed_allocation():
    model = make_model([(0.0, 1.0)], [[0.3], [0.7]], [[0.01], [0.04]], [0.7, 0.4], 0.3)
    x = np.array([[0.25], [0.9]])
    z = np.array([1, 3])
    expected = (
        -0.3
        - math.log(2.0)
        + math.log(0.3)  # one outlier, unit box
        + math.log(truncnorm_pdf(0.25, 0.3, 0.1, 0.0, 1.0))
        + math.log(0.7)
        + math.log(0.6)
    )
    assert labeled_joint_log_density(x, z, model) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "pi, lam, points, labels",
    [
        pytest.param(1.0, 0.2, [], [], id="closed-gate-with-pi-one"),
        pytest.param(0.4, 0.0, [[0.3]], [2], id="outlier-with-zero-rate"),
        pytest.param(0.0, 0.2, [[0.5]], [1], id="used-gate-with-pi-zero"),
    ],
)
def test_labeled_joint_impossible_allocation_is_minus_inf(pi, lam, points, labels):
    model = make_model([(0.0, 1.0)], [[0.5]], [[0.01]], [pi], lam)
    x = np.array(points, dtype=float).reshape(-1, 1)
    assert labeled_joint_log_density(x, labels, model) == -np.inf


def test_labeled_joint_k_mismatch_errors():
    model = make_model([(0.0, 1.0)], [[0.5]], [[0.01]], [0.8], 0.1)
    x = np.array([[0.5]])
    with pytest.raises(ModelError):
        labeled_joint_log_density(x, np.array([1, 2]), model)


def test_labeled_joint_invalid_allocation_errors():
    model = make_model([(0.0, 1.0)], [[0.5]], [[0.01]], [0.8], 0.1)
    x = np.array([[0.4], [0.6]])
    with pytest.raises(ModelError):
        labeled_joint_log_density(x, np.array([1, 1]), model)


def closed_form_pair_density(t1, t2, model):
    """Unlabeled density of a two-point sample for L=2, written from scratch."""
    (mu1,), (mu2,) = model.components[0].mu, model.components[1].mu
    s1 = math.sqrt(model.components[0].sigma2[0])
    s2 = math.sqrt(model.components[1].sigma2[0])
    p1, p2 = model.components[0].pi, model.components[1].pi
    lo, hi = model.space.bounds[0]
    lam = model.lam
    u = lam / (hi - lo)

    def n1(t):
        return truncnorm_pdf(t, mu1, s1, lo, hi)

    def n2(t):
        return truncnorm_pdf(t, mu2, s2, lo, hi)

    total = (
        p1 * p2 * (n1(t1) * n2(t2) + n2(t1) * n1(t2))
        + p1 * (1 - p2) * u * (n1(t1) + n1(t2))
        + (1 - p1) * p2 * u * (n2(t1) + n2(t2))
        + (1 - p1) * (1 - p2) * u * u
    )
    return math.exp(-lam) / 2.0 * total


def test_enumeration_matches_closed_form_pair_density():
    model = make_model([(0.0, 1.0)], [[0.3], [0.7]], [[0.01], [0.04]], [0.7, 0.4], 0.3)
    rng = np.random.default_rng(7)
    for _ in range(20):
        t1, t2 = rng.random(2)
        x = np.array([[t1], [t2]])
        got = math.exp(unlabeled_log_density(x, model))
        assert got == pytest.approx(closed_form_pair_density(t1, t2, model), rel=1e-11)


def test_k_probabilities_enumeration_vs_monte_carlo():
    """Integrated unlabeled density per k agrees with generative frequencies."""
    model = make_model([(0.0, 1.0)], [[0.3], [0.7]], [[0.01], [0.04]], [0.7, 0.4], 0.3)
    n = 200_000
    samples, _ = sample_batch_from_model(model, n, np.random.default_rng(3))
    ks = np.array([s.shape[0] for s in samples])

    p0 = math.exp(
        labeled_joint_log_density(
            np.zeros((0, 1)),
            np.array([], dtype=int),
            model,
        )
    )
    p1, _ = integrate.quad(
        lambda t: math.exp(unlabeled_log_density(np.array([[t]]), model)),
        0.0,
        1.0,
        limit=200,
    )
    nodes, weights = np.polynomial.legendre.leggauss(80)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    vals = np.array(
        [[closed_form_pair_density(a, b, model) for b in nodes] for a in nodes]
    )
    p2 = float(weights @ vals @ weights)

    for k, p in ((0, p0), (1, p1), (2, p2)):
        freq = float(np.mean(ks == k))
        se = math.sqrt(p * (1 - p) / n)
        assert abs(freq - p) < 3.5 * se, f"k={k}: freq={freq}, exact={p}"


def test_exact_allocation_posterior_normalizes():
    model = make_model([(0.0, 1.0)], [[0.3], [0.7]], [[0.01], [0.04]], [0.7, 0.4], 0.3)
    x = np.array([[0.28], [0.74], [0.5]])
    zs, logp = exact_allocation_log_posterior(x, model)
    assert len(zs) == len(logp)
    assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-12)
    # the natural allocation should dominate
    best = zs[int(np.argmax(logp))]
    assert set(best[:2]) == {1, 2} and best[2] == 3


# ---------------------------------------------------------------------------
# exact permutation invariance
# ---------------------------------------------------------------------------


@st.composite
def random_case(draw):
    L = draw(st.integers(0, 2))
    k = draw(st.integers(0, 2))
    pis = [draw(st.floats(0.05, 1.0)) for _ in range(L)]
    mus = [[draw(st.floats(0.05, 0.95))] for _ in range(L)]
    sig2 = [[draw(st.floats(1e-4, 0.5))] for _ in range(L)]
    lam = draw(st.floats(0.01, 3.0))
    pts = np.array([[draw(st.floats(0.0, 1.0))] for _ in range(k)])
    model = make_model([(0.0, 1.0)], mus, sig2, pis, lam)
    return model, pts


@given(random_case())
@settings(max_examples=60, deadline=None)
def test_unlabeled_density_exactly_permutation_invariant(case):
    model, pts = case
    if pts.shape[0] != 2:
        return
    a = unlabeled_log_density(pts, model)
    b = unlabeled_log_density(pts[::-1].copy(), model)
    assert a == b  # bitwise


@given(random_case(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_labeled_joint_exact_under_simultaneous_permutation(case, pyrandom):
    model, pts = case
    k, L = pts.shape[0], model.L
    if k == 0:
        return
    labels = None
    for cand in enumerate_allocations(k, L):
        if pyrandom.random() < 0.5:
            labels = np.array(cand, dtype=int)
            break
    if labels is None:
        labels = np.array(next(iter(enumerate_allocations(k, L))), dtype=int)
    perm = np.array(pyrandom.sample(range(k), k))
    assert labeled_joint_log_density(pts, labels, model) == labeled_joint_log_density(
        pts[perm].copy(), labels[perm].copy(), model
    )


# ---------------------------------------------------------------------------
# sample_batch_from_model
# ---------------------------------------------------------------------------


def test_sampler_deterministic_gate():
    model = make_model([(0.0, 1.0)], [[0.5]], [[0.01]], [1.0], 0.0)
    for seed in range(5):
        (x,), (z,) = sample_batch_from_model(model, 1, seed)
        assert x.shape == (1, 1)
        assert z.tolist() == [1]


def test_sampler_pure_outlier_process():
    space = ParamSpace(np.array([[0.0, 1.0]]))
    model = ApproxModel(space, [], 2.0)
    samples, labels = sample_batch_from_model(model, 50_000, np.random.default_rng(11))
    ks = np.array([s.shape[0] for s in samples])
    for lab in labels:
        assert np.all(lab == 1)  # L+1 with L=0
    assert np.mean(ks) == pytest.approx(2.0, abs=3 * math.sqrt(2.0 / 50_000))


def test_sampler_arrangement_is_uniform():
    model = make_model([(0.0, 1.0)], [[0.2], [0.8]], [[0.01], [0.01]], [1.0, 1.0], 0.0)
    n = 100_000
    _, labels = sample_batch_from_model(model, n, np.random.default_rng(5))
    first_is_one = sum(int(lab[0] == 1) for lab in labels)
    # Binomial(n, 1/2), 4 sigma band
    assert abs(first_is_one - n / 2) < 4 * math.sqrt(n / 4)


def test_sampler_mean_k():
    model = make_model([(0.0, 1.0)], [[0.3], [0.7]], [[0.01], [0.04]], [0.9, 0.5], 0.2)
    n = 100_000
    samples, _ = sample_batch_from_model(model, n, np.random.default_rng(19))
    ks = np.array([s.shape[0] for s in samples])
    expected = 0.9 + 0.5 + 0.2
    var = 0.9 * 0.1 + 0.5 * 0.5 + 0.2
    assert np.mean(ks) == pytest.approx(expected, abs=3 * math.sqrt(var / n))


def test_sampler_truncated_marginal_matches_truncnorm():
    model = make_model([(0.0, 1.0)], [[0.7]], [[0.09]], [1.0], 0.0)
    samples, _ = sample_batch_from_model(model, 20_000, np.random.default_rng(23))
    draws = np.concatenate([s[:, 0] for s in samples])
    a, b = (0.0 - 0.7) / 0.3, (1.0 - 0.7) / 0.3
    stat = stats.kstest(draws, stats.truncnorm(a, b, loc=0.7, scale=0.3).cdf)
    assert stat.pvalue > 1e-4


def test_sampler_labels_consistent_with_sample():
    model = make_model(
        [(0.0, 1.0)], [[0.2], [0.8]], [[0.0004], [0.0004]], [0.9, 0.9], 0.5
    )
    samples, labels = sample_batch_from_model(model, 2_000, np.random.default_rng(1))
    for pts, lab in zip(samples, labels):
        assert pts.shape[0] == lab.shape[0]
        xi = indicator(lab, 2)
        assert np.all(xi[:2] <= 1)
        near_1 = pts[lab == 1, 0]
        if near_1.size:
            assert np.all(np.abs(near_1 - 0.2) < 0.12)


def test_sampler_lists_split_the_drawn_columns():
    model = make_model(
        [(0.0, 1.0), (0.0, 2.0)], [[0.2, 0.5], [0.8, 1.5]], [[0.01, 0.04], [0.02, 0.01]], [0.9, 0.4], 1.5
    )
    samples, labels = sample_batch_from_model(model, 500, 7)
    points, k, flat_labels = _draw_columns(model, 500, 7)
    assert [s.shape[0] for s in samples] == k.tolist()
    assert np.array_equal(np.concatenate(samples), points)
    assert np.array_equal(np.concatenate(labels), flat_labels)
    empty = _draw_columns(model, 0, 7)
    assert [a.shape for a in empty] == [(0, 2), (0,), (0,)]
    assert sample_batch_from_model(model, 0, 7) == ([], [])


# ---------------------------------------------------------------------------
# model_intensity
# ---------------------------------------------------------------------------


def test_intensity_no_components():
    space = ParamSpace(np.array([[0.0, 1.0]]))
    model = ApproxModel(space, [], 1.0)
    assert model_intensity(np.array([0.5]), model) == 0.0


def test_intensity_single_component_scales_density():
    model = make_model([(0.0, 1.0)], [[0.5]], [[0.01]], [0.5], 0.3)
    got = model_intensity(np.array([0.45]), model)
    assert got == pytest.approx(0.5 * truncnorm_pdf(0.45, 0.5, 0.1, 0.0, 1.0), rel=1e-10)


def test_intensity_integrates_to_sum_of_gates():
    model = make_model(
        [(0.0, 1.0)], [[0.3], [0.7]], [[0.01], [0.04]], [0.7, 0.4], 0.3
    )
    total, err = integrate.quad(
        lambda t: float(model_intensity(np.array([t]), model)), 0.0, 1.0, limit=200
    )
    assert total == pytest.approx(0.7 + 0.4, abs=1e-6)


def test_intensity_rejects_out_of_bounds():
    model = make_model([(0.0, 1.0)], [[0.5]], [[0.01]], [0.5], 0.3)
    with pytest.raises(ModelError):
        model_intensity(np.array([1.2]), model)


@pytest.mark.parametrize(
    "d, theta",
    [
        pytest.param(1, np.linspace(0.0, 1.0, 5), id="1d-grid-read-as-one-5d-point"),
        pytest.param(2, np.array([0.5]), id="one-coordinate-of-a-2d-point"),
        pytest.param(2, np.full((2, 3), 0.5), id="rows-of-width-3"),
        pytest.param(1, np.array(0.5), id="scalar"),
    ],
)
def test_intensity_rejects_points_of_the_wrong_width(d, theta):
    model = make_model([(0.0, 1.0)] * d, [[0.5] * d], [[0.01] * d], [0.5], 0.3)
    with pytest.raises(ModelError, match=r"shape \(\.\.\., %d\)" % d):
        model_intensity(theta, model)


# ---------------------------------------------------------------------------
# SampleSet ingestion
# ---------------------------------------------------------------------------


def test_sampleset_rejects_out_of_box_samples():
    space = ParamSpace(np.array([[0.0, 1.0]]))
    raw = [
        np.array([[0.5]]),
        np.array([[0.5], [1.5]]),  # second point outside
        np.zeros((0, 1)),
    ]
    ss = SampleSet.ingest(space, raw, {"sampler": "test"})
    assert len(ss) == 2
    assert ss.rejected == 1
    assert ss.k_values().tolist() == [1, 0]


def test_sampleset_empirical_k_distribution():
    space = ParamSpace(np.array([[0.0, 1.0]]))
    raw = [np.array([[0.5]]), np.array([[0.2], [0.8]]), np.array([[0.4]])]
    ss = SampleSet.ingest(space, raw)
    post = ss.empirical_posterior_k()
    assert post.tolist() == pytest.approx([0.0, 2 / 3, 1 / 3])


@pytest.mark.parametrize(
    "points, k",
    [
        (np.zeros((3, 1)), [1, 1]),  # rows do not add up to k
        (np.zeros((2, 1)), [3]),
        (np.zeros((2, 2)), [1, 1]),  # d does not match the space
        (np.zeros(2), [1, 1]),
        (np.zeros((2, 1)), [3, -1]),  # a negative k
        (np.zeros((2, 1)), [1.0, 1.0]),  # k is not an integer array
        (np.zeros((2, 1)), [[1, 1]]),
    ],
)
def test_sampleset_rejects_inconsistent_columns(points, k):
    with pytest.raises(ModelError):
        SampleSet(ParamSpace(np.array([[0.0, 1.0]])), points, k)


def test_sampleset_columns_are_read_only():
    ss = SampleSet(ParamSpace(np.array([[0.0, 1.0]])), np.array([[0.2], [0.4], [0.6]]), [2, 0, 1])
    assert [s.components.tolist() for s in ss.samples] == [[[0.2], [0.4]], [], [[0.6]]]
    assert ss.samples is ss.samples
    with pytest.raises(ValueError):
        ss.samples[0].components[0, 0] = 0.9
    with pytest.raises(ValueError):
        ss.k[0] = 1


# ---------------------------------------------------------------------------
# type validation
# ---------------------------------------------------------------------------


def test_param_space_validation():
    with pytest.raises(ModelError):
        ParamSpace(np.array([[1.0, 0.0]]))
    with pytest.raises(ModelError):
        ParamSpace(np.array([[0.0, np.inf]]))
    space = ParamSpace(np.array([[0.0, 2.0], [1.0, 3.0]]))
    assert space.log_volume == pytest.approx(math.log(4.0))


def test_gaussian_component_validation():
    with pytest.raises(ModelError):
        GaussianComponent(np.array([0.5]), np.array([0.0]), 0.5)
    with pytest.raises(ModelError):
        GaussianComponent(np.array([0.5]), np.array([0.1]), -0.1)
    with pytest.raises(ModelError):
        GaussianComponent(np.array([0.5]), np.array([0.1]), 1.2)
    GaussianComponent(np.array([0.5]), np.array([0.1]), 1.0)  # pi = 1 allowed


def test_model_validation():
    space = ParamSpace(np.array([[0.0, 1.0]]))
    with pytest.raises(ModelError):
        ApproxModel(space, [], -0.5)
    with pytest.raises(ModelError):
        ApproxModel(space, [GaussianComponent(np.array([0.5, 0.5]), np.array([0.1, 0.1]), 0.5)], 0.1)


@pytest.mark.parametrize("mu, sigma2, lam", [
    ([math.nan], [0.1], 0.1), ([-math.inf], [0.1], 0.1), ([0.5], [math.nan], 0.1),
    ([0.5], [math.inf], 0.1), ([0.5], [0.1], math.nan), ([0.5], [0.1], math.inf),
])
def test_model_parameters_must_be_finite(mu, sigma2, lam):
    space = ParamSpace(np.array([[0.0, 1.0]]))
    with pytest.raises(ModelError, match="finite"):
        ApproxModel(space, [GaussianComponent(mu, sigma2, 0.5)], lam)


# ---------------------------------------------------------------------------
# integer settings
# ---------------------------------------------------------------------------


def _draw(size):
    return _draw_columns(ApproxModel(ParamSpace(np.array([[0.0, 1.0]])), [], 0.5), size, 0)


_INTEGER_FIELDS = [
    (SinChainConfig, "iterations"), (SinChainConfig, "burn_in"), (SinChainConfig, "thinning"),
    (SinChainConfig, "k_max"), (SinChainConfig, "rng_seed"),
    (AugerChainConfig, "iterations"), (AugerChainConfig, "burn_in"),
    (AugerChainConfig, "thinning"), (AugerChainConfig, "k_max"), (AugerChainConfig, "rng_seed"),
    (FitConfig, "iterations"), (FitConfig, "imh_inner_steps"), (FitConfig, "averaging_window"),
    (FitConfig, "rng_seed"), (FitConfig, "fixed_L"),
    (MonteCarloConfig, "replicates"), (MonteCarloConfig, "master_seed"),
    (MonteCarloConfig, "reconstruction_draws"), (_draw, "size"),
]


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("make, name", _INTEGER_FIELDS,
                         ids=[f"{make.__name__}.{name}" for make, name in _INTEGER_FIELDS])
def test_integer_settings_reject_booleans(make, name, value):
    with pytest.raises(ModelError, match=name):
        make(**{name: value})


@pytest.mark.parametrize("cls, name", [
    (SinChainConfig, "update_prob"), (AugerChainConfig, "update_prob"),
    (SinChainConfig, "alpha_delta"), (SinChainConfig, "beta_delta"),
    (SinChainConfig, "alpha_rate"), (SinChainConfig, "beta_rate"),
    (FitConfig, "sigma2_floor"), (MonteCarloConfig, "intervals"),
    (FitConfig, "init_pi"), (FitConfig, "init_lambda"),
    (FitConfig, "percentile_for_L"), (FitConfig, "threshold_for_L"),
    (SinChainConfig, "delta2_init"), (SinChainConfig, "sample_delta2"),
    (SinChainConfig, "rate_init"), (SinChainConfig, "sample_rate"),
])
def test_settings_that_are_constants_cannot_be_set(cls, name):
    # the update move takes what birth and death leave; the hyperpriors, the
    # variance floor, the fit's starting values and the replication intervals
    # are module constants, and each sinusoid hyperparameter has the one
    # setting delta2 or rate
    with pytest.raises(TypeError, match=name):
        cls(**{name: 0.5})
