"""Fitting engine: initialization, allocation transitions, robust updates,
pruning, and the full stochastic EM loop.

Distribution-level checks use exact enumeration of the allocation
conditional as the oracle; the end-to-end fit is checked against data drawn
from a known model.
"""

import hashlib
import logging
import math
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from transdim.fit import (
    SIGMA2_FLOOR,
    FitConfig,
    _draws,
    _imh_steps,
    _log_weights,
    _logsumexp,
    _robust_moments,
    _Rows,
    _sequential_sweep,
    choose_component_count,
    imh_batch_step,
    initialize_model,
    mstep_robust,
    sem_fit,
)
from transdim.model import (
    AllocationVector,
    ApproxModel,
    GaussianComponent,
    ModelError,
    ParamSpace,
    SampleSet,
    _label_counts,
    _point_labels,
    sample_batch_from_model,
)
from transdim.oracle import exact_allocation_log_posterior, labeled_joint_log_density


def make_model(bounds, mus, sigma2s, pis, lam):
    space = ParamSpace(np.asarray(bounds, dtype=float))
    comps = [
        GaussianComponent(np.atleast_1d(m), np.atleast_1d(s), p)
        for m, s, p in zip(mus, sigma2s, pis)
    ]
    return ApproxModel(space, comps, lam)


def as_sampleset(space, arrays, **prov):
    return SampleSet.ingest(space, [np.asarray(a, dtype=float).reshape(-1, space.dim) for a in arrays], prov)


# ---------------------------------------------------------------------------
# choosing L and initialization
# ---------------------------------------------------------------------------


def test_component_count_percentile_rule():
    # 1000 samples with p(k=1)=0.3, p(2)=0.4, p(3)=0.203, p(4)=0.097
    ks = np.repeat([1, 2, 3, 4], [300, 400, 203, 97])
    cfg = FitConfig(percentile_for_L=0.9)
    assert choose_component_count(ks, cfg) == 3


def test_component_count_threshold_rule():
    ks = np.repeat([1, 2, 3, 4, 6], [300, 400, 203, 60, 37])
    cfg = FitConfig(init_rule="threshold", threshold_for_L=0.05)
    assert choose_component_count(ks, cfg) == 4
    cfg2 = FitConfig(init_rule="threshold", threshold_for_L=0.25)
    assert choose_component_count(ks, cfg2) == 2


def test_component_count_fixed_rule():
    cfg = FitConfig(init_rule="fixed", fixed_L=5)
    assert choose_component_count(np.array([1, 2, 3]), cfg) == 5
    with pytest.raises(ModelError):
        FitConfig(init_rule="fixed")


def test_initialize_all_empty_samples_gives_pure_point_process():
    space = ParamSpace(np.array([[0.0, 1.0]]))
    ss = as_sampleset(space, [np.zeros((0, 1))] * 20)
    model = initialize_model(ss, FitConfig())
    assert model.L == 0
    assert model.lam == pytest.approx(0.1)


def test_initialize_recovers_means_of_known_model():
    true = make_model([(0.0, 1.0)], [[0.3], [0.7]], [[0.0016], [0.0016]], [0.95, 0.9], 0.1)
    raw, _ = sample_batch_from_model(true, 4000, np.random.default_rng(2))
    ss = SampleSet.ingest(true.space, raw)
    model = initialize_model(ss, FitConfig())
    assert model.L == 2
    mus = np.sort(model.mus()[:, 0])
    assert abs(mus[0] - 0.3) < 0.05
    assert abs(mus[1] - 0.7) < 0.05
    assert model.pis().tolist() == [0.9, 0.9]
    assert model.lam == pytest.approx(0.1)


def test_initialize_fallback_uses_larger_samples(caplog):
    space = ParamSpace(np.array([[0.0, 1.0]]))
    rng = np.random.default_rng(0)
    arrays = [np.sort(rng.random(3)).reshape(3, 1) for _ in range(30)]
    ss = as_sampleset(space, arrays)
    cfg = FitConfig(init_rule="fixed", fixed_L=2)
    with caplog.at_level(logging.WARNING, logger="transdim.fit"):
        model = initialize_model(ss, cfg)
    assert model.L == 2
    assert any("k >= 2" in rec.message for rec in caplog.records)


def test_unreachable_fixed_L_is_lowered_to_largest_k(caplog):
    space = ParamSpace(np.array([[0.0, 1.0]]))
    rng = np.random.default_rng(1)
    arrays = [np.sort(rng.random(k)).reshape(k, 1) for k in [1, 2] * 15]
    ss = as_sampleset(space, arrays)
    cfg = FitConfig(init_rule="fixed", fixed_L=3, iterations=5, averaging_window=2,
                    prune_threshold=0)
    with caplog.at_level(logging.WARNING, logger="transdim.fit"):
        result = sem_fit(ss, cfg)
    assert result.trace.models[0].L == 2
    assert result.notes == ["fixed_L=3 lowered to 2, the largest k observed"]
    assert any("k >= 3" in rec.message for rec in caplog.records)
    # the k = L start: moments of the k = 2 samples
    assert initialize_model(ss, cfg).mus()[:, 0].tolist() == pytest.approx(
        np.median([a[:, 0] for a in arrays if a.shape[0] == 2], axis=0).tolist()
    )


def test_fixed_L_from_a_single_record_keeps_its_components():
    # 300 records with k <= 5 near four arrivals and one with k = 6: at
    # fixed_L = 6 that one record is the whole pool, whose variances alone sit
    # at the floor and send every point to clutter
    space = ParamSpace(np.array([[0.0, 1000.0], [0.0, 500.0]]))
    rng = np.random.default_rng(9)
    truth = np.array([[100.0, 60.0], [300.0, 50.0], [500.0, 80.0], [700.0, 40.0]])

    def record(k):
        n = min(k, 4)
        rows = truth[np.sort(rng.permutation(4)[:n])] + rng.normal(0.0, [3.0, 5.0], (n, 2))
        return np.vstack([rows, rng.uniform([0.0, 0.0], [1000.0, 100.0], (k - n, 2))])

    arrays = [record(k) for k in rng.choice([3, 4, 5], 300, p=[0.2, 0.6, 0.2])] + [record(6)]
    result = sem_fit(SampleSet.ingest(space, arrays),
                     FitConfig(init_rule="fixed", fixed_L=6, iterations=5, averaging_window=2))
    assert result.trace.models[1].L >= 4  # the components left after iteration 0
    fitted = result.model.mus()
    for t, a in truth:
        assert np.min(np.abs(fitted - [t, a]).max(axis=1)) < 5.0


def test_a_repeated_state_does_not_seed_a_zero_variance():
    # 40 records of two muons whose arrivals move while 30 of them repeat one
    # pair of amplitudes, as a chain that rejects its amplitude steps does: the
    # pool is not thin, but its amplitude IQR is zero
    space = ParamSpace(np.array([[0.0, 1000.0], [0.0, 500.0]]))
    rng = np.random.default_rng(4)
    arrivals = np.array([200.0, 600.0]) + rng.normal(0.0, 3.0, (40, 2))
    amps = np.where(np.arange(40)[:, None] < 30, [60.0, 50.0], rng.uniform(40.0, 80.0, (40, 2)))
    ss = SampleSet.ingest(space, list(np.stack([arrivals, amps], axis=-1)))
    sigma2 = initialize_model(ss, FitConfig(init_rule="fixed", fixed_L=2)).sigma2s()
    # the amplitudes take the all-points floor; the arrivals keep their own spread
    assert sigma2[:, 1].tolist() == [_robust_moments(ss.points)[1][1] / 4] * 2
    assert sigma2[:, 0].tolist() == _robust_moments(arrivals)[1].tolist()
    assert np.all(sigma2 > 100 * SIGMA2_FLOOR)


# ---------------------------------------------------------------------------
# allocation transition
# ---------------------------------------------------------------------------


@pytest.fixture
def ambiguous_model():
    return make_model(
        [(0.0, 1.0)], [[0.3], [0.7]], [[0.0225], [0.0225]], [0.7, 0.4], 0.5
    )


def test_imh_empty_sample_is_identity(ambiguous_model):
    P = np.zeros((1, 0, 1))
    Z = np.zeros((1, 0), dtype=np.int64)
    Z1, accepted, joint = imh_batch_step(P, Z, ambiguous_model, 0)
    assert Z1.shape == (1, 0)
    assert np.all(accepted)
    ref = labeled_joint_log_density(np.zeros((0, 1)), [], ambiguous_model)
    assert joint[0] == pytest.approx(ref, rel=1e-12)


def test_imh_single_state_always_accepts():
    # pi=1 and lam=0: the only valid allocation of a 1-point sample is (1)
    model = make_model([(0.0, 1.0)], [[0.5]], [[0.01]], [1.0], 0.0)
    P = np.full((1000, 1, 1), 0.5)
    Z = np.ones((1000, 1), dtype=np.int64)
    Z1, accepted, _ = imh_batch_step(P, Z, model, np.random.default_rng(3))
    assert np.all(Z1 == 1)
    assert np.all(accepted)


def _tv(freqs: dict, exact: dict) -> float:
    keys = set(freqs) | set(exact)
    return 0.5 * sum(abs(freqs.get(t, 0.0) - exact.get(t, 0.0)) for t in keys)


def test_imh_one_step_preserves_exact_conditional(ambiguous_model):
    """Start 1e5 replicates at the exact allocation conditional, apply one
    transition, and require the state law to stay put (TV below 0.02)."""
    x = np.array([[0.45], [0.58]])
    zs, logp = exact_allocation_log_posterior(x, ambiguous_model)
    probs = np.exp(logp)
    rng = np.random.default_rng(17)
    n = 100_000
    draw = rng.choice(len(zs), size=n, p=probs)
    Z0 = np.array(zs, dtype=np.int64)[draw]
    P = np.broadcast_to(x, (n, 2, 1)).copy()
    Z1, _, _ = imh_batch_step(P, Z0, ambiguous_model, rng)
    uniq, counts = np.unique(Z1, axis=0, return_counts=True)
    freqs = {tuple(u): c / n for u, c in zip(uniq, counts)}
    exact = {tuple(z): p for z, p in zip(zs, probs)}
    assert _tv(freqs, exact) < 0.02


def test_imh_long_run_occupancy_matches_enumeration(ambiguous_model):
    """A single-sample chain visits the three reachable allocations with the
    exact conditional frequencies (over 1e5 pooled transitions)."""
    x = np.array([[0.52]])
    zs, logp = exact_allocation_log_posterior(x, ambiguous_model)
    exact = {z[0]: p for z, p in zip(zs, np.exp(logp))}
    rng = np.random.default_rng(29)
    chains, steps, burn = 500, 220, 20
    P = np.broadcast_to(x, (chains, 1, 1)).copy()
    Z = np.full((chains, 1), 3, dtype=np.int64)  # start everything at the sink
    occupancy = np.zeros(4)
    for t in range(steps):
        Z, _, _ = imh_batch_step(P, Z, ambiguous_model, rng)
        if t >= burn:
            occupancy += np.bincount(Z[:, 0], minlength=4)
    freqs = {lab: occupancy[lab] / occupancy.sum() for lab in (1, 2, 3)}
    assert _tv(freqs, exact) < 0.02


def test_imh_outputs_stay_valid_allocations(ambiguous_model):
    rng = np.random.default_rng(5)
    P = rng.random((200, 3, 1))
    Z = np.full((200, 3), 3, dtype=np.int64)
    for _ in range(10):
        Z, _, _ = imh_batch_step(P, Z, ambiguous_model, rng)
        _label_counts(Z.reshape(-1), np.repeat(np.arange(200), 3), 200, 2)


def test_imh_forced_sink_when_rate_is_zero():
    # lam=0 and a closed-out component set forces the sink, which has zero
    # density; the chain must still move (never crash, never stall forever)
    model = make_model([(0.0, 1.0)], [[0.5]], [[0.0001]], [1.0], 0.0)
    P = np.array([[[0.5], [0.99]]])  # second point far from the component
    Z = np.array([[1, 2]], dtype=np.int64)
    rng = np.random.default_rng(11)
    Z1, _, joint = imh_batch_step(P, Z, model, rng)
    assert Z1.shape == (1, 2)
    assert np.isneginf(joint) or np.isfinite(joint)


def test_batch_joint_matches_reference_density(ambiguous_model):
    rng = np.random.default_rng(13)
    P = rng.random((50, 2, 1))
    Z = np.full((50, 2), 3, dtype=np.int64)
    Z1, _, joint = imh_batch_step(P, Z, ambiguous_model, rng)
    for i in range(50):
        ref = labeled_joint_log_density(P[i], Z1[i], ambiguous_model)
        assert joint[i] == pytest.approx(ref, rel=1e-9, abs=1e-9)


# The two-loop E-step the fused sweep replaced, kept as its reference: one
# loop draws the proposal, a second loop scores the current allocation, and
# both normalise with scipy's logsumexp.


def _reference_propose(logw, order, gumbel, L):
    n, k, _ = logw.shape
    rows = np.arange(n)
    avail = np.ones((n, L + 1), dtype=bool)
    Z = np.empty((n, k), dtype=np.int64)
    logrho = np.zeros(n)
    for t in range(k):
        j = order[:, t]
        w = np.where(avail, logw[rows, j, :], -np.inf)
        norm = logsumexp(w, axis=1)
        forced = np.isneginf(norm)
        pick = np.argmax(w + gumbel[:, t, :], axis=1)
        pick = np.where(forced, L, pick)
        with np.errstate(invalid="ignore"):
            logrho += np.where(forced, 0.0, w[rows, pick] - norm)
        Z[rows, j] = pick
        g = pick < L
        avail[rows[g], pick[g]] = False
    return Z, logrho


def _reference_logprob(logw, order, Z, L):
    n, k, _ = logw.shape
    rows = np.arange(n)
    avail = np.ones((n, L + 1), dtype=bool)
    logrho = np.zeros(n)
    for t in range(k):
        j = order[:, t]
        c = Z[rows, j]
        w = np.where(avail, logw[rows, j, :], -np.inf)
        norm = logsumexp(w, axis=1)
        forced = np.isneginf(norm)
        with np.errstate(invalid="ignore"):
            raw = w[rows, c] - norm
        logrho += np.where(forced, np.where(c == L, 0.0, -np.inf), raw)
        g = c < L
        avail[rows[g], c[g]] = False
    return logrho


def _visit(rng, n, k, L):
    order = np.argsort(rng.random((n, k)), axis=1)
    return order, -np.log(-np.log(rng.random((n, k, L + 1))))


@pytest.mark.parametrize("lam, k", [(0.5, 1), (0.5, 2), (0.5, 4), (0.0, 2), (0.0, 3)])
def test_fused_sweep_matches_two_loop_reference(lam, k):
    """Same labels and, to float64 rounding, the same log proposal
    probabilities as the two-loop reference, which reads the same random
    numbers drawn per group as (n, k) and (n, k, L+1) arrays.  With lam = 0
    the outlier label has zero weight, so points beyond the L Gaussian labels
    are forced to it, and a current allocation that uses it elsewhere has
    zero density."""
    model = make_model([(0.0, 1.0)], [[0.3], [0.7]], [[0.0225], [0.0225]], [0.7, 0.4], lam)
    clutter = make_model([(0.0, 1.0)], [[0.3], [0.7]], [[0.0225], [0.0225]], [0.7, 0.4], 3.0)
    L, n = 2, 500
    rng = np.random.default_rng(100 + k)
    P = rng.random((n, k, 1))
    Z0, _ = _reference_propose(_log_weights(P, clutter), *_visit(rng, n, k, L), L)
    logw = _log_weights(P, model)
    order, gumbel = _visit(np.random.default_rng(7), n, k, L)
    rows = _Rows(np.full(n, k))
    draws = _draws(np.random.default_rng(7), rows, L)

    Zp, lrho_p, lrho_c = _sequential_sweep(logw.reshape(n * k, L + 1).T, rows, *draws, L, Z0.ravel())
    Zr, lrho_r = _reference_propose(logw, order, gumbel, L)
    assert np.array_equal(Zp.reshape(n, k), Zr)
    np.testing.assert_allclose(lrho_p, lrho_r, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        lrho_c, _reference_logprob(logw, order, Z0, L), rtol=1e-12, atol=1e-12
    )
    # the proposal layer never reads the current allocation
    Zo, lrho_o, _ = _sequential_sweep(logw.reshape(n * k, L + 1).T, rows, *draws, L,
                                      np.full(n * k, L))
    assert np.array_equal(Zo, Zp) and np.array_equal(lrho_o, lrho_p)
    if lam == 0.0:
        assert np.all((Zp.reshape(n, k) == L).sum(axis=1) == max(k - L, 0))
        assert np.isneginf(lrho_c).any() and np.isfinite(lrho_c).any()


def test_sweep_normalises_over_the_available_labels_only():
    """lam = 0, which the M-step gives whenever no point goes to clutter, and
    two tight components far apart.  Once one point takes component 1, the
    other's only available label of nonzero weight is component 2, some
    1,800 nats below component 1.  The sweep must propose it and score the
    valid current state as finite.  A log-sum-exp shifted by the maximum
    over all labels underflows there: it sends the proposal to clutter and
    scores half of the current states as -inf."""
    model = make_model([(0.0, 1.0)], [[0.2], [0.8]], [[1e-4], [1e-4]], [0.5, 0.5], 0.0)
    n, L = 2000, 2
    rows = _Rows(np.full(n, 2))
    logw = _log_weights(np.tile([0.20, 0.21], n)[:, None], model).T
    Z0 = np.tile([0, 1], n)
    Zp, lrho_p, lrho_c = _sequential_sweep(
        logw, rows, *_draws(np.random.default_rng(9), rows, L), L, Z0)
    assert np.all(np.sort(Zp.reshape(n, 2), axis=1) == [0, 1])
    assert np.all(np.isfinite(lrho_p)) and np.all(np.isfinite(lrho_c))


def _ragged_samples():
    """185 shuffled two-dimensional records with k = 0, 1, 2, 3 and 9."""
    rng = np.random.default_rng(2026)
    ks = rng.permutation(np.repeat([0, 1, 2, 3, 9], [15, 40, 60, 45, 25]))
    centers = np.array([[0.2, 0.3], [0.5, 0.7], [0.8, 0.4]])
    arrays = [np.clip(centers[rng.integers(3, size=k)] + 0.05 * rng.standard_normal((k, 2)),
                      0.01, 0.99) for k in ks]
    return SampleSet.ingest(ParamSpace(np.array([[0.0, 1.0], [0.0, 1.0]])), arrays)


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("lam", [0.5, 0.0])
def test_batched_estep_matches_per_group_reference(steps, lam, L=3):
    """One sweep over all k-groups equals the per-group E-step, built from
    the two-loop reference and the per-record oracle.  The reference draws
    step-major: in each inner step, k-group by k-group in ascending k, visit
    uniforms, Gumbel uniforms, then accept uniforms; a k = 0 group draws
    nothing.  Rows of 9 points pass numpy's 8-wide pairwise summation
    block."""
    ss = _ragged_samples()
    mus = [[0.2, 0.3], [0.5, 0.7], [0.8, 0.4], [0.25, 0.35], [0.45, 0.65], [0.75, 0.45],
           [0.5, 0.4], [0.3, 0.6], [0.7, 0.7]]
    model = make_model([(0.0, 1.0)] * 2, mus[:L], [[0.004, 0.003]] * L,
                       [0.9, 0.6, 0.8, 0.7, 0.5, 0.6, 0.4, 0.3, 0.5][:L], lam)
    clutter = ApproxModel(model.space, model.components, 3.0)
    groups = [(k, P) for k, _, P in ss.by_k()]
    start = np.random.default_rng(3)
    Z = [_reference_propose(_log_weights(P, clutter), *_visit(start, len(P), k, L), L)[0]
         for k, P in groups]
    ks = np.concatenate([np.full(len(P), k) for k, P in groups])
    got_Z, got_acc, got_joint = _imh_steps(
        np.concatenate([P.reshape(-1, 2) for _, P in groups]), _Rows(ks),
        np.concatenate([Zg.ravel() for Zg in Z]), model, np.random.default_rng(4), steps)

    def oracle(P, Zg):
        return np.array([labeled_joint_log_density(x, z + 1, model) for x, z in zip(P, Zg)])

    rng = np.random.default_rng(4)
    joint = [oracle(P, Zg) for (_, P), Zg in zip(groups, Z)]
    acc = [np.ones(len(P), dtype=bool) for _, P in groups]
    for _ in range(steps):
        for g, (k, P) in enumerate(groups):
            if k == 0:
                continue
            logw = _log_weights(P, model)
            order, gumbel = _visit(rng, len(P), k, L)
            Zp, lrho_p = _reference_propose(logw, order, gumbel, L)
            lrho_c = _reference_logprob(logw, order, Z[g], L)
            jp = oracle(P, Zp)
            with np.errstate(invalid="ignore"):
                ratio = (jp - joint[g]) + (lrho_c - lrho_p)
            ratio[np.isnan(ratio)] = -np.inf
            with np.errstate(divide="ignore"):
                acc[g] = (np.log(rng.random(len(P))) < ratio) | np.isneginf(joint[g])
            Z[g] = np.where(acc[g][:, None], Zp, Z[g])
            joint[g] = np.where(acc[g], jp, joint[g])

    assert np.array_equal(got_Z, np.concatenate([Zg.ravel() for Zg in Z]))
    assert np.array_equal(got_acc, np.concatenate(acc))
    np.testing.assert_allclose(got_joint, np.concatenate(joint), rtol=1e-12, atol=1e-12)
    assert np.isfinite(got_joint).any()


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("lam", [0.5, 0.0])
def test_batched_estep_matches_per_group_reference_at_ten_labels(steps, lam):
    """As above with L = 9.  The sweep sums its ten labels along a leading
    axis, one after another, where the references sum a contiguous row of
    ten pairwise, so the log proposal probabilities may differ in the last
    bit; the labels and accepts must still match exactly."""
    test_batched_estep_matches_per_group_reference(steps, lam, L=9)


def test_one_step_fit_on_ragged_records_is_unchanged():
    """Labels, criteria and final model of a one-inner-step fit over records
    of k = 0, 1, 2, 3 and 9 hash to the digest recorded when the E-step still
    ran one k-group at a time."""
    result = sem_fit(_ragged_samples(), FitConfig(iterations=20, averaging_window=10,
                                                  init_rule="fixed", fixed_L=3, rng_seed=8))
    m = result.model
    parts = [np.concatenate([z.labels for z in result.allocations]).astype(np.int64),
             np.array(result.trace.criteria), m.mus(), m.sigma2s(), m.pis(), np.array([m.lam])]
    assert hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest() == (
        "9b75443e78c86b432b860c25a19cc9362d0c9d54a6e17e21e192dc17d95489a2")


def test_logsumexp_matches_scipy_on_rows_with_neginf():
    rng = np.random.default_rng(8)
    w = rng.normal(scale=1000.0, size=(300, 5))  # exp over- and underflows unshifted
    w[rng.random(w.shape) < 0.4] = -np.inf
    w[:7] = -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _logsumexp(w.T)
    assert np.all(np.isneginf(got[:7]))
    np.testing.assert_allclose(got, logsumexp(w, axis=1), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("lam", [0.5, 0.0])
def test_inner_steps_match_repeated_batch_steps(ambiguous_model, lam):
    """n hoisted inner steps equal n calls of imh_batch_step, which
    recomputes the weights and the current density, bit for bit; both draw
    the same random numbers.  Starting everything at the outlier label gives
    a zero-density state when lam = 0."""
    model = ApproxModel(ambiguous_model.space, ambiguous_model.components, lam)
    rng = np.random.default_rng(23)
    P = rng.random((300, 3, 1))
    Z0 = np.full((300, 3), 3, dtype=np.int64)
    for steps in (1, 2, 5):
        a, b = np.random.default_rng(61), np.random.default_rng(61)
        Z, acc, joint = _imh_steps(P.reshape(900, 1), _Rows(np.full(300, 3)),
                                   (Z0 - 1).ravel(), model, a, steps)
        Zb = Z0
        for _ in range(steps):
            Zb, acc_b, joint_b = imh_batch_step(P, Zb, model, b)
        assert np.array_equal(Z.reshape(300, 3) + 1, Zb)
        assert np.array_equal(acc, acc_b)
        assert np.array_equal(joint, joint_b)
        assert a.random() == b.random()


# ---------------------------------------------------------------------------
# M-step
# ---------------------------------------------------------------------------


def test_mstep_median_and_iqr():
    space = ParamSpace(np.array([[0.0, 6.0]]))
    ss = as_sampleset(space, [np.array([[float(v)]]) for v in (1, 2, 3, 4, 5)])
    allocs = [AllocationVector(np.array([1]))] * 5
    prev = make_model([(0.0, 6.0)], [[3.0]], [[1.0]], [0.5], 0.1)
    model = mstep_robust(ss, allocs, 1, prev)
    assert model.components[0].mu[0] == pytest.approx(3.0)
    assert math.sqrt(model.components[0].sigma2[0]) == pytest.approx(2.0 / 1.349, rel=1e-12)
    assert model.components[0].pi == 1.0
    assert model.lam == 0.0


def test_mstep_counts_presence_and_outliers():
    # component 1 present in 60 of 100 samples; 30 sink points in total
    space = ParamSpace(np.array([[0.0, 1.0]]))
    rng = np.random.default_rng(0)
    arrays, allocs = [], []
    for _ in range(60):
        arrays.append(rng.random((1, 1)))
        allocs.append(AllocationVector(np.array([1])))
    for _ in range(30):
        arrays.append(rng.random((1, 1)))
        allocs.append(AllocationVector(np.array([2])))
    for _ in range(10):
        arrays.append(np.zeros((0, 1)))
        allocs.append(AllocationVector(np.array([], dtype=int)))
    ss = as_sampleset(space, arrays)
    prev = make_model([(0.0, 1.0)], [[0.5]], [[0.01]], [0.5], 0.1)
    model = mstep_robust(ss, allocs, 1, prev)
    assert model.components[0].pi == pytest.approx(0.6)
    assert model.lam == pytest.approx(0.3)


def test_mstep_keeps_previous_parameters_for_empty_component():
    space = ParamSpace(np.array([[0.0, 1.0]]))
    ss = as_sampleset(space, [np.array([[0.4]]), np.array([[0.6]])])
    allocs = [AllocationVector(np.array([1])), AllocationVector(np.array([1]))]
    prev = make_model([(0.0, 1.0)], [[0.5], [0.9]], [[0.01], [0.02]], [0.5, 0.5], 0.1)
    model = mstep_robust(ss, allocs, 2, prev)
    assert model.components[1].mu[0] == 0.9
    assert model.components[1].sigma2[0] == 0.02
    assert model.components[1].pi == 0.0
    assert model.lam == 0.0


def test_mstep_applies_variance_floor():
    space = ParamSpace(np.array([[0.0, 1.0]]))
    ss = as_sampleset(space, [np.array([[0.5]])] * 4)
    allocs = [AllocationVector(np.array([1]))] * 4
    prev = make_model([(0.0, 1.0)], [[0.5]], [[0.01]], [0.5], 0.1)
    model = mstep_robust(ss, allocs, 1, prev)
    assert model.components[0].sigma2[0] == 1e-10


# ---------------------------------------------------------------------------
# criterion
# ---------------------------------------------------------------------------


def test_sem_fit_criterion_negates_joint_density():
    """The first criterion is minus the summed joint log density of the
    allocations it produced, under the initial model."""
    model = make_model([(0.0, 1.0)], [[0.3], [0.7]], [[0.01], [0.04]], [0.7, 0.4], 0.3)
    raw, _ = sample_batch_from_model(model, 300, np.random.default_rng(21))
    ss = SampleSet.ingest(model.space, raw)
    cfg = FitConfig(iterations=1, averaging_window=1, prune_threshold=0, rng_seed=4)
    result = sem_fit(ss, cfg)
    start = initialize_model(ss, cfg)
    expected = -sum(
        labeled_joint_log_density(x.components, z.labels, start)
        for x, z in zip(ss.samples, result.allocations)
    )
    assert result.trace.criteria[0] == pytest.approx(expected, rel=1e-12)


def test_criterion_signals_zero_density_as_infinity():
    # an initial gate with pi = 1 gives every empty sample zero density
    space = ParamSpace(np.array([[0.0, 1.0]]))
    ss = as_sampleset(space, [np.zeros((0, 1))] * 5 + [np.array([[0.5]])] * 5)
    cfg = FitConfig(iterations=1, averaging_window=1, prune_threshold=0,
                    init_rule="fixed", fixed_L=1, init_pi=1.0)
    assert sem_fit(ss, cfg).trace.criteria[0] == math.inf


# ---------------------------------------------------------------------------
# full fit
# ---------------------------------------------------------------------------


TRUE_MODEL = None


@pytest.fixture(scope="module")
def recovery_fit():
    true = make_model(
        [(0.0, 1.0)], [[0.3], [0.7]], [[0.0016], [0.0016]], [0.9, 0.5], 0.2
    )
    raw, _ = sample_batch_from_model(true, 20_000, np.random.default_rng(123))
    ss = SampleSet.ingest(true.space, raw)
    result = sem_fit(ss, FitConfig(rng_seed=7))
    return true, ss, result


def test_fit_recovers_generating_parameters(recovery_fit):
    true, _, result = recovery_fit
    model = result.model
    assert model.L == 2
    order = np.argsort(model.mus()[:, 0])
    mus = model.mus()[order, 0]
    pis = model.pis()[order]
    assert abs(mus[0] - 0.3) < 0.02
    assert abs(mus[1] - 0.7) < 0.02
    assert abs(pis[0] - 0.9) < 0.05
    assert abs(pis[1] - 0.5) < 0.05
    assert abs(model.lam - 0.2) < 0.1


def test_fit_parameters_stay_in_range(recovery_fit):
    _, _, result = recovery_fit
    for snap in result.trace.models:
        assert np.all(snap.pis() >= 0.0) and np.all(snap.pis() <= 1.0)
        assert snap.lam >= 0.0


def test_fit_component_count_never_increases(recovery_fit):
    _, _, result = recovery_fit
    Ls = [m.L for m in result.trace.models]
    assert all(a >= b for a, b in zip(Ls, Ls[1:]))


def test_fit_criterion_stabilizes(recovery_fit):
    # the criterion settles almost immediately and then only jitters with
    # the allocation resampling; compare late window means
    _, _, result = recovery_fit
    crit = np.array(recovery_fit[2].trace.criteria)
    assert len(crit) == 100
    early, late = crit[40:60].mean(), crit[80:100].mean()
    assert abs(late - early) / abs(late) < 0.01


def test_fit_final_allocations_are_valid(recovery_fit):
    _, ss, result = recovery_fit
    assert len(result.allocations) == len(ss)
    _point_labels(ss, result.allocations, result.trace.models[-1].L)


def test_fit_is_deterministic_given_seed():
    true = make_model([(0.0, 1.0)], [[0.4], [0.8]], [[0.0025], [0.0025]], [0.8, 0.6], 0.1)
    raw, _ = sample_batch_from_model(true, 1500, np.random.default_rng(5))
    ss = SampleSet.ingest(true.space, raw)
    cfg = FitConfig(iterations=30, averaging_window=10, rng_seed=99)
    a = sem_fit(ss, cfg)
    b = sem_fit(ss, cfg)
    assert a.trace.criteria == b.trace.criteria
    assert np.array_equal(a.model.mus(), b.model.mus())
    assert np.array_equal(a.model.sigma2s(), b.model.sigma2s())
    assert np.array_equal(a.model.pis(), b.model.pis())
    assert a.model.lam == b.model.lam


def test_fit_prunes_starved_component():
    space = ParamSpace(np.array([[0.0, 1.0]]))
    rng = np.random.default_rng(31)
    arrays = [np.array([[v]]) for v in rng.normal(0.5, 0.03, size=295)]
    # five two-point samples whose second point sits in a tight decoy cluster
    for v in rng.normal(0.5, 0.03, size=5):
        arrays.append(np.array([[v], [0.9 + 0.001 * rng.standard_normal()]]))
    ss = SampleSet.ingest(space, arrays)
    cfg = FitConfig(
        iterations=20, averaging_window=10, rng_seed=3,
        init_rule="fixed", fixed_L=2,
    )
    result = sem_fit(ss, cfg)
    assert result.pruned, "expected the 5-sample decoy component to be pruned"
    assert result.model.L == 1
    assert abs(result.model.components[0].mu[0] - 0.5) < 0.02
    Ls = [m.L for m in result.trace.models]
    assert all(a >= b for a, b in zip(Ls, Ls[1:]))


def test_fit_reports_when_all_components_die():
    space = ParamSpace(np.array([[0.0, 1.0]]))
    rng = np.random.default_rng(41)
    arrays = [np.zeros((0, 1))] * 100 + [rng.random((1, 1)) for _ in range(6)]
    ss = SampleSet.ingest(space, arrays)
    cfg = FitConfig(
        iterations=15, averaging_window=5, rng_seed=2,
        init_rule="fixed", fixed_L=1,
    )
    result = sem_fit(ss, cfg)
    assert result.model.L == 0
    assert any("point-process" in n for n in result.notes)
    assert result.model.lam > 0


def test_fit_rejects_empty_input():
    space = ParamSpace(np.array([[0.0, 1.0]]))
    ss = SampleSet(space, np.zeros((0, 1)), [])
    with pytest.raises(ModelError):
        sem_fit(ss, FitConfig())


def test_fit_config_validation():
    with pytest.raises(ModelError):
        FitConfig(iterations=10, averaging_window=20)
    with pytest.raises(ModelError):
        FitConfig(prune_threshold=-1)
    with pytest.raises(ModelError):
        FitConfig(init_rule="nope")
    FitConfig(prune_threshold=2.5, init_pi=1.0, threshold_for_L=0.0, init_lambda=0.0)


@pytest.mark.parametrize(
    "settings",
    [
        {"iterations": 2.5, "averaging_window": 1},
        {"imh_inner_steps": 1.5},
        {"averaging_window": 2.5},
        {"init_rule": "fixed", "fixed_L": -1},
        {"init_rule": "fixed", "fixed_L": 2.5},
        {"prune_threshold": math.nan},
        {"init_pi": 1.5},
        {"init_pi": math.nan},
        {"threshold_for_L": 5.0},
        {"threshold_for_L": -0.1},
        {"init_lambda": -1.0},
        {"init_lambda": math.inf},
        {"init_lambda": math.nan},
    ],
)
def test_fit_config_rejects_settings_that_crash_or_mean_nothing(settings):
    with pytest.raises(ModelError):
        FitConfig(**settings)
