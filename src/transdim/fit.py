"""Fitting engine for the gated-Gaussian / point-process approximation.

A stochastic EM loop: each iteration updates every sample's allocation with
Metropolis-Hastings transitions (independent sequential proposal),
evaluates the completed negative log-likelihood, and re-estimates the model
parameters with robust statistics.  Components that attract too few samples
are pruned, and the returned model averages the final window of iterations.

The E-step computes the log allocation weights once per model, label-major
(L+1, P) so that each reduction over the labels is elementwise, and one sweep
over every record, sorted by k, both draws the proposal and scores the
current allocation.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .model import (
    AllocationVector,
    ApproxModel,
    GaussianComponent,
    ModelError,
    SampleSet,
    _check_int,
    _gaussian_log_densities,
    _point_labels,
)

__all__ = [
    "FitConfig",
    "FitTrace",
    "FitResult",
    "PruneEvent",
    "choose_component_count",
    "initialize_model",
    "imh_batch_step",
    "mstep_robust",
    "sem_fit",
]

logger = logging.getLogger(__name__)

IQR_TO_SIGMA = 1.349  # Gaussian consistency factor for the interquartile range
SIGMA2_FLOOR = 1e-10  # least variance a robust moment estimate returns
# starting values: the initial gates' pi and clutter rate, and the levels of the rules for L
INIT_PI, INIT_LAMBDA = 0.9, 0.1
PERCENTILE_FOR_L, THRESHOLD_FOR_L = 0.9, 0.05


@dataclass
class FitConfig:
    """Knobs for :func:`sem_fit`.

    ``init_rule`` selects how the component count L is chosen from the
    empirical distribution of k: ``"percentile"`` takes the smallest k whose
    CDF reaches ``PERCENTILE_FOR_L``, ``"threshold"`` the largest k whose
    probability is at least ``THRESHOLD_FOR_L``, and ``"fixed"`` uses
    ``fixed_L`` (lowered to the largest k observed when no sample reaches it).
    The starting model's gates have pi = ``INIT_PI``, its clutter ``INIT_LAMBDA``.
    """

    iterations: int = 100
    imh_inner_steps: int = 1
    averaging_window: int = 50
    prune_threshold: int = 10
    rng_seed: int = 0
    init_rule: str = "percentile"
    fixed_L: int | None = None

    def __post_init__(self):
        for name in ("iterations", "imh_inner_steps", "averaging_window"):
            _check_int(name, getattr(self, name), 1)
        _check_int("rng_seed", self.rng_seed, 0)
        if self.averaging_window > self.iterations:
            raise ModelError("averaging_window must not exceed iterations")
        if self.fixed_L is not None:
            _check_int("fixed_L", self.fixed_L, 0)
        # the comparison is False for NaN, so NaN fails the check
        if not (isinstance(self.prune_threshold, numbers.Real) and self.prune_threshold >= 0.0):
            raise ModelError(f"prune_threshold must be a real >= 0, got {self.prune_threshold!r}")
        if self.init_rule not in ("percentile", "threshold", "fixed"):
            raise ModelError(f"unknown init_rule {self.init_rule!r}")
        if self.init_rule == "fixed" and self.fixed_L is None:
            raise ModelError("init_rule 'fixed' requires fixed_L")


@dataclass
class FitTrace:
    """Per-iteration history: criterion, model snapshot, allocation counts.

    ``counts[r]`` has length L_r + 1: per-component sample counts followed
    by the total number of points sent to the outlier process.
    ``accept_rates[r]`` is the share of samples whose last inner transition
    accepted its proposal.
    """

    criteria: list = field(default_factory=list)
    models: list = field(default_factory=list)
    counts: list = field(default_factory=list)
    accept_rates: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.criteria)


@dataclass(frozen=True)
class PruneEvent:
    iteration: int
    component: int
    allocated: int


@dataclass
class FitResult:
    model: ApproxModel
    trace: FitTrace
    allocations: list
    pruned: list
    notes: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def choose_component_count(k_values: np.ndarray, config: FitConfig) -> int:
    """Pick the number of Gaussian components from the empirical law of k by
    ``config.init_rule`` (see :class:`FitConfig`); the threshold rule falls
    back to the mode when no p(k) reaches ``THRESHOLD_FOR_L``."""
    ks = np.asarray(k_values, dtype=np.int64)
    if ks.size == 0:
        raise ModelError("no samples")
    if config.init_rule == "fixed":
        return int(config.fixed_L)
    pk = np.bincount(ks) / ks.size
    if config.init_rule == "percentile":
        cdf = np.cumsum(pk)
        return int(np.argmax(cdf >= PERCENTILE_FOR_L - 1e-12))
    hits = np.flatnonzero(pk >= THRESHOLD_FOR_L)
    if hits.size == 0:
        return int(np.argmax(pk))
    return int(hits[-1])


def _robust_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Median and squared interquartile range over 1.349 along axis 0 (linearly
    interpolated quartiles), the latter floored at SIGMA2_FLOOR."""
    mu = np.median(x, axis=0)
    q25, q75 = np.percentile(x, [25.0, 75.0], axis=0)
    return mu, np.maximum(((q75 - q25) / IQR_TO_SIGMA) ** 2, SIGMA2_FLOOR)


def _lift_variances(sigma2, low, points, L):
    """The variances flagged by ``low`` lifted to at least the robust variance
    of all points over L^2, so that neither one record nor a repeated state
    can collapse them; the all-points moments are computed only when needed."""
    if low.any():
        sigma2 = np.where(low, np.maximum(sigma2, _robust_moments(points)[1] / L**2), sigma2)
    return sigma2


def initialize_model(samples: SampleSet, config: FitConfig) -> ApproxModel:
    """Starting model: L from the k-distribution, moments from sorted components.

    Each sample with k = L is sorted by its first coordinate; the median and
    scaled interquartile range of the l-th sorted component across those
    samples seed mu_l and sigma_l.  Falls back to samples with k >= L
    (taking the first L sorted components) when no sample has exactly k = L.
    A fixed L above every observed k is lowered to the largest k.  A variance
    from fewer than ``prune_threshold`` records, or one at ``SIGMA2_FLOOR``,
    is floored at the robust variance of all points over L^2.
    """
    if len(samples) == 0:
        raise ModelError("cannot initialize from an empty sample set")
    space = samples.space
    ks = samples.k_values()
    L = choose_component_count(ks, config)
    if L > ks.max():
        logger.warning("no samples with k >= %d; lowering L to %d, the largest k observed",
                       L, ks.max())
        L = int(ks.max())
    if L == 0:
        return ApproxModel(space, [], INIT_LAMBDA)
    pool = [block for k, _, block in samples.by_k() if k >= L]
    if pool[0].shape[1] > L:
        logger.warning("no samples with k = %d; initializing from %d samples with k >= %d",
                       L, sum(map(len, pool)), L)
    else:
        pool = pool[:1]
    stacked = np.concatenate([
        np.take_along_axis(block, np.argsort(block[:, :, :1], axis=1, kind="stable")[:, :L], axis=1)
        for block in pool
    ])  # (n, L, d), each sample's first L components by first coordinate
    mu, sigma2 = _robust_moments(stacked)
    # too few records to spread each rank, or records that repeat one value
    low = (len(stacked) < config.prune_threshold) | (sigma2 == SIGMA2_FLOOR)
    sigma2 = _lift_variances(sigma2, low, samples.points, L)
    comps = [GaussianComponent(mu[l], sigma2[l], INIT_PI) for l in range(L)]
    return ApproxModel(space, comps, INIT_LAMBDA)


# ---------------------------------------------------------------------------
# Allocation transition (batched over every record at once)
# ---------------------------------------------------------------------------


class _Rows:
    """Row layout of the E-step for records sorted by ascending k (see
    :func:`_sequential_sweep`); ``groups`` holds (k, first row, end row)."""

    def __init__(self, ks):
        self.ks = ks
        self.start = np.concatenate(([0], np.cumsum(ks)))
        self.row = np.repeat(np.arange(ks.size), ks)  # row of each point
        self.vm = np.argsort(np.arange(self.row.size) - self.start[self.row], kind="stable")
        self.lo = np.searchsorted(ks, np.arange(ks.max(initial=0)), side="right").tolist()
        self.pos = np.cumsum([0] + [ks.size - s for s in self.lo]).tolist()
        self.groups = [(k, *np.searchsorted(ks, [k, k + 1]).tolist()) for k in np.unique(ks).tolist()]
        self.lgk = gammaln(ks + 1)


def _log_weights(points: np.ndarray, model: ApproxModel) -> np.ndarray:
    """Log allocation weights of (..., d) points per label, shape (..., L+1).

    Gaussian labels weigh pi_l times the truncated density; the last column
    is the point-process intensity lam/|box|.
    """
    L = model.L
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.pis())
    out = np.empty(points.shape[:-1] + (L + 1,))
    out[..., :L] = _gaussian_log_densities(points, model) + log_pi
    out[..., L] = (math.log(model.lam) if model.lam > 0 else -np.inf) - model.space.log_volume
    return out


def _joint_logdens(logw: np.ndarray, Z: np.ndarray, model: ApproxModel, rows: _Rows) -> np.ndarray:
    """Joint log density per row; ``logw`` is (L+1, P) and Z 0-based (P,).
    Each gate that no point uses, per the (L+1, M) mask ``used``, contributes
    log(1 - pi_l).  Each k-group sums its own (n, k) run, as numpy's pairwise
    summation groups rows of 8 or more terms by their width."""
    picked = logw[Z, np.arange(Z.size)]
    data = np.empty(rows.ks.size)
    for k, a, b in rows.groups:
        data[a:b] = picked[rows.start[a]:rows.start[b]].reshape(b - a, k).sum(axis=1)
    used = np.zeros((model.L + 1, rows.ks.size), dtype=bool)
    used[Z, rows.row] = True
    with np.errstate(divide="ignore"):
        closed = np.where(used[:model.L], 0.0, np.log1p(-model.pis())[:, None]).sum(axis=0)
    return (-model.lam - rows.lgk) + data + closed


def _logsumexp(w):
    """Log-sum-exp over the leading (label) axis, shifted by the maximum; a
    slice whose entries are all -inf gives -inf."""
    top = w.max(axis=0)
    top[top == -np.inf] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(w - top).sum(axis=0)) + top


def _draws(rng, rows: _Rows, L: int, u=None):
    """One sweep's visit order and Gumbel noise, visit-major, drawn k-group by
    k-group in ascending k as uniforms (n, k), then (n, k, L+1), then, when
    ``u`` is given, accept uniforms (n,) into its rows.  k = 0 draws nothing."""
    order = np.empty(rows.row.size, dtype=np.int64)
    gumbel = np.empty((rows.row.size, L + 1))
    for k, a, b in rows.groups:
        p, q = rows.start[a], rows.start[b]
        np.add(np.argsort(rng.random((b - a, k)), axis=1), rows.start[a:b, None],
               out=order[p:q].reshape(b - a, k))
        rng.random(out=gumbel[p:q])
        if u is not None and k:
            rng.random(out=u[a:b])
    gumbel = np.take(gumbel, rows.vm, axis=0)
    for f in (np.log, np.negative, np.log, np.negative):  # -log(-log(u)), in place
        f(gumbel, out=gumbel)
    return order[rows.vm], gumbel


def _sequential_sweep(logw, rows: _Rows, visit, gumbel, L, Z0):
    """Visit each record's points along a random order and draw an
    allocation that reuses no Gaussian label; score the current allocation
    Z0 along the same order in the same sweep.

    Row layout: rows are the records sorted by ascending k.  ``logw`` is
    label-major (L+1, P); its point axis, ``Z0`` and the returned labels are
    record-major, point j of row r at ``rows.start[r] + j``, so each k-group
    is one contiguous (n, k) run.  Visit t touches the rows with k > t, the
    suffix ``rows.lo[t]:``, so every k-group shares one sweep of max k
    visits; the available labels are an (L+1, 2, M) mask, and each visit's
    weights are (L+1, 2, n), reduced over the leading label axis.
    ``visit`` (P,) and ``gumbel`` (P, L+1) are visit-major: entry
    ``rows.pos[t] + i`` holds the point that row ``lo[t] + i`` visits at
    step t and that visit's Gumbel noise; ``rows.vm`` maps each entry to
    the record-major slot start[r] + t.

    Returns the 0-based proposal and its log proposal probability per row
    (conditional on the visit order), then that of Z0.  The proposal does
    not depend on Z0.
    """
    M = rows.ks.size
    idx = np.arange(M)
    lay = np.arange(2)[:, None]  # layer 0 is the proposal, layer 1 is Z0
    seq = np.empty((2, visit.size), dtype=np.int64)  # labels in visit order
    seq[1] = Z0[visit]
    avail = np.ones((L + 1, 2, M), dtype=bool)
    logrho = np.zeros((2, M))
    for t, s in enumerate(rows.lo):
        vis = slice(rows.pos[t], rows.pos[t + 1])
        w = np.where(avail[:, :, s:], np.take(logw, visit[vis], axis=1)[:, None], -np.inf)
        norm = _logsumexp(w)
        forced = norm == -np.inf
        seq[0, vis] = np.where(forced[0], L, (w[:, 0] + gumbel[vis].T).argmax(axis=0))
        c = seq[:, vis]
        with np.errstate(invalid="ignore"):
            raw = w[c, lay, idx[:M - s]] - norm
        logrho[:, s:] += np.where(forced, np.where(c == L, 0.0, -np.inf), raw)
        avail[c, lay, idx[s:]] = c == L
    Z = np.empty_like(Z0)
    Z[visit] = seq[0]
    return (Z, *logrho)


def _imh_steps(points, rows: _Rows, Z, model, rng, steps):
    """``steps`` batched MH transitions under one model on the layout ``rows``.

    Z is 0-based (P,).  Returns (new labels, accepted mask of the last step,
    joint log density of the new state).  The log weights and the current
    joint density are computed once, and each step's joint density carries
    over to the next.  The same sampled visit order enters both proposal
    probabilities, so the order factor cancels from the acceptance ratio.  A
    current state of zero joint density is escaped unconditionally.
    """
    L = model.L
    logw = _log_weights(points, model).T.copy()
    joint = _joint_logdens(logw, Z, model, rows)
    for _ in range(steps):  # FitConfig keeps steps >= 1, so accept is always bound
        u = np.zeros(rows.ks.size)  # k = 0 rows draw nothing; log(0) accepts
        Zp, lrho_p, lrho_c = _sequential_sweep(logw, rows, *_draws(rng, rows, L, u), L, Z)
        joint_prop = _joint_logdens(logw, Zp, model, rows)
        with np.errstate(invalid="ignore"):
            log_ratio = (joint_prop - joint) + (lrho_c - lrho_p)
        log_ratio = np.where(np.isnan(log_ratio), -np.inf, log_ratio)
        with np.errstate(divide="ignore"):
            accept = np.log(u) < log_ratio
        accept |= np.isneginf(joint)
        Z = np.where(accept[rows.row], Zp, Z)
        joint = np.where(accept, joint_prop, joint)
    return Z, accept, joint


def imh_batch_step(points, labels, model, rng):
    """Batched allocation transition for n samples that share one k.

    Parameters
    ----------
    points : (n, k, d) array
    labels : (n, k) int array, 1-based (label L+1 is the outlier process)
    rng : numpy Generator or seed

    Returns
    -------
    (new_labels, accepted, joint_log_density), with labels again 1-based.
    """
    rng = np.random.default_rng(rng)
    n, k, d = np.shape(points)
    Z1, accepted, joint = _imh_steps(np.reshape(points, (n * k, d)), _Rows(np.full(n, k)),
                                     np.asarray(labels, dtype=np.int64).ravel() - 1, model, rng, 1)
    return Z1.reshape(n, k) + 1, accepted, joint


# ---------------------------------------------------------------------------
# M-step
# ---------------------------------------------------------------------------


def _mstep_core(pts, lab, M, L, space, previous):
    """Robust parameter update from flattened (point, label) arrays.

    lab is 0-based; label L marks outlier points.  Gaussian labels occur at
    most once per sample, so per-label point counts equal per-label sample
    counts.
    """
    counts = np.bincount(lab, minlength=L + 1)
    pis = counts[:L] / M
    lam = counts[L] / M
    comps = []
    for l in range(L):
        sel = pts[lab == l]
        if sel.shape[0]:
            mu, sigma2 = _robust_moments(sel)
            sigma2 = _lift_variances(sigma2, sigma2 == SIGMA2_FLOOR, pts, L)
        else:
            mu = previous.components[l].mu.copy()
            sigma2 = previous.components[l].sigma2.copy()
        comps.append(GaussianComponent(mu, sigma2, float(pis[l])))
    return ApproxModel(space, comps, float(lam)), counts


def mstep_robust(
    samples: SampleSet,
    allocations: list,
    L: int,
    previous: ApproxModel,
) -> ApproxModel:
    """Robust parameter update given allocations.

    pi_l is the fraction of samples containing component l; lam the mean
    outlier count; mu_l the per-coordinate median of allocated points and
    sigma_l their interquartile range over 1.349 (linearly interpolated
    quartiles), lifted as in :func:`initialize_model` when at ``SIGMA2_FLOOR``.
    A component with no allocated points keeps its previous (mu, sigma) and
    gets pi_l = 0.
    """
    M = len(samples)
    if M == 0 or M != len(allocations):
        raise ModelError("samples and allocations must align and be nonempty")
    lab = _point_labels(samples, allocations, L) - 1
    model, _ = _mstep_core(samples.points, lab, M, L, samples.space, previous)
    return model


# ---------------------------------------------------------------------------
# The fit loop
# ---------------------------------------------------------------------------


def sem_fit(samples: SampleSet, config: FitConfig) -> FitResult:
    """Fit the approximation by stochastic EM.

    Allocations warm-start across iterations (the per-sample chains simply
    continue under the updated model).  After each iteration any component
    with fewer than ``config.prune_threshold`` allocated samples is dropped
    and its points relabel to the outlier process; the final model averages
    parameters over the last ``averaging_window`` iterations that follow the
    last pruning event.
    """
    if len(samples) == 0:
        raise ModelError("cannot fit an empty sample set")
    rng = np.random.default_rng(config.rng_seed)
    model = initialize_model(samples, config)
    space = samples.space
    M = len(samples)
    rows = _Rows(np.sort(samples.k))
    src = np.argsort(np.repeat(samples.k, samples.k), kind="stable")  # sorted points' origin
    pts = samples.points[src]
    notes: list = []
    if config.init_rule == "fixed" and model.L < config.fixed_L:
        notes.append(f"fixed_L={config.fixed_L} lowered to {model.L}, the largest k observed")

    # first allocation: a proposal against all outliers, which it ignores
    Z = _sequential_sweep(_log_weights(pts, model).T.copy(), rows, *_draws(rng, rows, model.L),
                          model.L, np.full(pts.shape[0], model.L))[0]

    trace = FitTrace()
    pruned_log: list = []
    last_prune = -1
    for r in range(config.iterations):
        Z, acc, joint = _imh_steps(pts, rows, Z, model, rng, config.imh_inner_steps)
        criterion = -sum(float(joint[a:b].sum()) for _, a, b in rows.groups)
        new_model, counts = _mstep_core(pts, Z, M, model.L, space, model)

        trace.criteria.append(criterion)
        trace.models.append(new_model)
        trace.counts.append(counts.copy())
        trace.accept_rates.append(int(acc.sum()) / M)

        L_old = new_model.L
        keep = counts[:L_old] >= config.prune_threshold
        if not np.all(keep):
            for l in np.flatnonzero(~keep):
                ev = PruneEvent(iteration=r, component=int(l), allocated=int(counts[l]))
                pruned_log.append(ev)
                logger.info(
                    "iteration %d: pruning component %d (%d allocated samples)",
                    r, int(l), int(counts[l]),
                )
            survivors = [new_model.components[l] for l in np.flatnonzero(keep)]
            new_model = ApproxModel(space, survivors, new_model.lam)
            L_new = len(survivors)
            lut = np.full(L_old + 1, L_new, dtype=np.int64)
            lut[np.flatnonzero(keep)] = np.arange(L_new)
            Z = lut[Z]
            last_prune = r
            if L_new == 0:
                notes.append(
                    f"all components pruned at iteration {r}; "
                    "continuing with the pure point-process model"
                )
                logger.warning(notes[-1])
        model = new_model

    usable = [i for i in range(config.iterations) if i > last_prune]
    if not usable:
        final = model
        notes.append(
            "pruning occurred at the final iteration; returning the last "
            "model without window averaging"
        )
    else:
        win = usable[-config.averaging_window:]
        snaps = [trace.models[i] for i in win]
        mu = np.mean([s.mus() for s in snaps], axis=0)
        sigma2 = np.mean([s.sigma2s() for s in snaps], axis=0)
        pis = np.mean([s.pis() for s in snaps], axis=0)
        comps = [GaussianComponent(mu[l], sigma2[l], float(pis[l])) for l in range(snaps[-1].L)]
        final = ApproxModel(space, comps, float(np.mean([s.lam for s in snaps])))

    labels = np.empty(samples.points.shape[0], dtype=np.int64)
    labels[src] = Z + 1
    allocations = [AllocationVector(z) for z in samples.split(labels)]
    return FitResult(final, trace, allocations, pruned_log, notes)
