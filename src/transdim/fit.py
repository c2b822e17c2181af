"""Fitting engine for the gated-Gaussian / point-process approximation.

A stochastic EM loop: each iteration updates every sample's allocation with
Metropolis-Hastings transitions (independent sequential proposal),
evaluates the completed negative log-likelihood, and re-estimates the model
parameters with robust statistics.  Components that attract too few samples
are pruned, and the returned model averages the final window of iterations.

The E-step computes the log allocation weights once per model and k-group,
and one sweep over the points both draws the proposal and scores the
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


@dataclass
class FitConfig:
    """Knobs for :func:`sem_fit`.

    ``init_rule`` selects how the component count L is chosen from the
    empirical distribution of k: ``"percentile"`` takes the smallest k whose
    CDF reaches ``percentile_for_L``, ``"threshold"`` the largest k whose
    probability is at least ``threshold_for_L``, and ``"fixed"`` uses
    ``fixed_L`` (lowered to the largest k observed when no sample reaches it).
    """

    iterations: int = 100
    imh_inner_steps: int = 1
    averaging_window: int = 50
    prune_threshold: int = 10
    init_pi: float = 0.9
    init_lambda: float = 0.1
    percentile_for_L: float = 0.9
    rng_seed: int = 0
    init_rule: str = "percentile"
    threshold_for_L: float = 0.05
    fixed_L: int | None = None

    def __post_init__(self):
        for name in ("iterations", "imh_inner_steps", "averaging_window"):
            _check_int(name, getattr(self, name), 1)
        _check_int("rng_seed", self.rng_seed, 0)
        if self.averaging_window > self.iterations:
            raise ModelError("averaging_window must not exceed iterations")
        if self.fixed_L is not None:
            _check_int("fixed_L", self.fixed_L, 0)
        # every comparison below is False for NaN, so NaN fails each check
        for name, ok, need in (
            ("prune_threshold", lambda v: v >= 0.0, ">= 0"),
            ("init_pi", lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
            ("threshold_for_L", lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
            ("percentile_for_L", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
            ("init_lambda", lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
        ):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and ok(value)):
                raise ModelError(f"{name} must be a real {need}, got {value!r}")
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
    """Pick the number of Gaussian components from the empirical law of k."""
    ks = np.asarray(k_values, dtype=np.int64)
    if ks.size == 0:
        raise ModelError("no samples")
    if config.init_rule == "fixed":
        return int(config.fixed_L)
    pk = np.bincount(ks) / ks.size
    if config.init_rule == "percentile":
        cdf = np.cumsum(pk)
        return int(np.argmax(cdf >= config.percentile_for_L - 1e-12))
    hits = np.flatnonzero(pk >= config.threshold_for_L)
    if hits.size == 0:
        return int(np.argmax(pk))
    return int(hits[-1])


def _robust_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Median and squared interquartile range over 1.349 along axis 0 (linearly
    interpolated quartiles), the latter floored at SIGMA2_FLOOR."""
    mu = np.median(x, axis=0)
    q25, q75 = np.percentile(x, [25.0, 75.0], axis=0)
    return mu, np.maximum(((q75 - q25) / IQR_TO_SIGMA) ** 2, SIGMA2_FLOOR)


def initialize_model(samples: SampleSet, config: FitConfig) -> ApproxModel:
    """Starting model: L from the k-distribution, moments from sorted components.

    Each sample with k = L is sorted by its first coordinate; the median and
    scaled interquartile range of the l-th sorted component across those
    samples seed mu_l and sigma_l.  Falls back to samples with k >= L
    (taking the first L sorted components) when no sample has exactly k = L.
    A fixed L above every observed k is lowered to the largest k.
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
        return ApproxModel(space, [], config.init_lambda)
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
    comps = [GaussianComponent(mu[l], sigma2[l], config.init_pi) for l in range(L)]
    return ApproxModel(space, comps, config.init_lambda)


# ---------------------------------------------------------------------------
# Allocation transition (batched over samples that share the same k)
# ---------------------------------------------------------------------------


def _log_weights(points: np.ndarray, model: ApproxModel) -> np.ndarray:
    """Log allocation weights per point and label, shape (n, k, L+1).

    Gaussian labels weigh pi_l times the truncated density; the last column
    is the point-process intensity lam/|box|.
    """
    n, k, d = points.shape
    L = model.L
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.pis())
    log_out = (math.log(model.lam) if model.lam > 0 else -np.inf) - model.space.log_volume
    out = np.empty((n, k, L + 1))
    logN = _gaussian_log_densities(points.reshape(n * k, d), model).reshape(n, k, L)
    out[:, :, :L] = logN + log_pi
    out[:, :, L] = log_out
    return out


def _joint_logdens(logw: np.ndarray, Z: np.ndarray, model: ApproxModel, k: int) -> np.ndarray:
    """Joint log density of (sample, allocation) rows; Z is 0-based (n, k).
    Each gate that no point uses contributes log(1 - pi_l)."""
    rows = np.arange(Z.shape[0])[:, None]
    const = -model.lam - float(gammaln(k + 1))
    used = np.zeros((Z.shape[0], model.L + 1), dtype=bool)
    used[rows, Z] = True
    with np.errstate(divide="ignore"):
        closed = np.where(used[:, :model.L], 0.0, np.log1p(-model.pis())).sum(axis=1)
    return const + logw[rows, np.arange(k), Z].sum(axis=1) + closed


def _logsumexp(w):
    """Log-sum-exp over the last axis, shifted by the maximum; a slice whose
    entries are all -inf gives -inf."""
    top = w.max(axis=-1, keepdims=True)
    top[top == -np.inf] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(w - top).sum(axis=-1)) + top[..., 0]


def _sequential_sweep(logw, order, gumbel, L, Z0=None):
    """Visit points along ``order`` and draw an allocation that reuses no
    Gaussian label; given a current allocation Z0, score it along the same
    order in the same sweep.

    Returns the 0-based proposal and its log proposal probability (conditional
    on the visit order), then that of Z0 when given.
    """
    n, k, _ = logw.shape
    rows = np.arange(n)
    layers = 1 if Z0 is None else 2  # layer 0 is the proposal, layer 1 is Z0
    lay = np.arange(layers)[:, None]
    seq = np.empty((layers, n, k), dtype=np.int64)  # labels in visit order
    if Z0 is not None:
        seq[1] = np.take_along_axis(Z0, order, axis=1)
    avail = np.ones((layers, n, L + 1), dtype=bool)
    logrho = np.zeros((layers, n))
    for t in range(k):
        w = np.where(avail, logw[rows, order[:, t], :], -np.inf)
        norm = _logsumexp(w)
        forced = norm == -np.inf
        seq[0, :, t] = np.where(forced[0], L, (w[0] + gumbel[:, t, :]).argmax(axis=1))
        c = seq[:, :, t]
        with np.errstate(invalid="ignore"):
            raw = w[lay, rows, c] - norm
        logrho += np.where(forced, np.where(c == L, 0.0, -np.inf), raw)
        avail[lay, rows, c] = c == L
    Z = np.empty((n, k), dtype=np.int64)
    np.put_along_axis(Z, order, seq[0], axis=1)
    return (Z, *logrho)


def _imh_steps(points, Z, model, rng, steps):
    """``steps`` batched MH transitions under one model; Z is 0-based (n, k).

    Returns (new labels, accepted mask of the last step, joint log density of
    the new state).  The log weights and the current joint density are
    computed once, and each step's joint density carries over to the next.
    The same sampled visit order enters both proposal probabilities, so the
    order factor cancels from the acceptance ratio.  A current state of zero
    joint density is escaped unconditionally.
    """
    n, k, _ = points.shape
    L = model.L
    logw = _log_weights(points, model)
    joint = _joint_logdens(logw, Z, model, k)
    accept = np.ones(n, dtype=bool)
    if k == 0:
        return Z.copy(), accept, joint
    for _ in range(steps):
        order = np.argsort(rng.random((n, k)), axis=1)
        gumbel = -np.log(-np.log(rng.random((n, k, L + 1))))
        Zp, lrho_p, lrho_c = _sequential_sweep(logw, order, gumbel, L, Z)
        joint_prop = _joint_logdens(logw, Zp, model, k)
        with np.errstate(invalid="ignore"):
            log_ratio = (joint_prop - joint) + (lrho_c - lrho_p)
        log_ratio = np.where(np.isnan(log_ratio), -np.inf, log_ratio)
        with np.errstate(divide="ignore"):
            accept = np.log(rng.random(n)) < log_ratio
        accept |= np.isneginf(joint)
        Z = np.where(accept[:, None], Zp, Z)
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
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    Z1, accepted, joint = _imh_steps(points, labels - 1, model, rng, 1)
    return Z1 + 1, accepted, joint


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
    quartiles).  A component with no allocated points keeps its previous
    (mu, sigma) and gets pi_l = 0.
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
    groups = list(samples.by_k())  # (k, record indices, (n, k, d) block), ascending k
    pts = np.concatenate([P.reshape(-1, space.dim) for _, _, P in groups])  # M-step points
    notes: list = []
    if config.init_rule == "fixed" and model.L < config.fixed_L:
        notes.append(f"fixed_L={config.fixed_L} lowered to {model.L}, the largest k observed")

    Z = []  # 0-based labels per group
    for k, idx, P in groups:
        logw = _log_weights(P, model)
        order = np.argsort(rng.random((idx.size, k)), axis=1)
        gumbel = -np.log(-np.log(rng.random((idx.size, k, model.L + 1))))
        Z.append(_sequential_sweep(logw, order, gumbel, model.L)[0])

    trace = FitTrace()
    pruned_log: list = []
    last_prune = -1
    for r in range(config.iterations):
        joint_total = 0.0
        n_accept = 0
        for g, (_, _, P) in enumerate(groups):
            Z[g], acc, joint = _imh_steps(P, Z[g], model, rng, config.imh_inner_steps)
            joint_total += float(joint.sum())
            n_accept += int(acc.sum())
        criterion = -joint_total

        lab = np.concatenate([Zg.reshape(-1) for Zg in Z])
        new_model, counts = _mstep_core(pts, lab, M, model.L, space, model)

        trace.criteria.append(criterion)
        trace.models.append(new_model)
        trace.counts.append(counts.copy())
        trace.accept_rates.append(n_accept / M)

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
            Z = [lut[Zg] for Zg in Z]
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
    for (k, idx, _), Zg in zip(groups, Z):
        labels[samples.offsets[idx, None] + np.arange(k)] = Zg + 1
    allocations = [AllocationVector(z) for z in samples.split(labels)]
    return FitResult(final, trace, allocations, pruned_log, notes)
