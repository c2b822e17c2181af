"""Reversible-jump MCMC engine (Green 1995) shared by the sinusoid and muon
samplers: one loop for move choice, accept draws, counters, burn-in,
thinning and provenance; each sampler subclasses :class:`Chain`.
"""

import math
import numbers

import numpy as np

from .model import ModelError, ParamSpace, SampleSet, _check_int

__all__ = ["Chain", "run", "reflect", "check_chain_config"]


def _log_prob_ratio(num: float, den: float) -> float:
    """log(num/den) for move probabilities; a zero acts as a hard barrier."""
    if num == den:
        return 0.0
    if num == 0.0:
        return -math.inf
    if den == 0.0:
        return math.inf
    return math.log(num) - math.log(den)


def reflect(x: float, lo: float, hi: float) -> float:
    """Fold a random-walk step back into [lo, hi] by mirroring at the edges;
    the folded walk stays symmetric.  A point more than 32 periods 2(hi - lo)
    from lo is first moved by whole periods, which the folding ignores."""
    while x < lo or x > hi:
        if abs(x - lo) > 64.0 * (hi - lo):
            period = 2.0 * (hi - lo)
            x = lo + (math.fmod(x, period) - math.fmod(lo, period))
        if x < lo:
            x = 2.0 * lo - x
        if x > hi:
            x = 2.0 * hi - x
    return x


def check_chain_config(config, *positive: str) -> None:
    """Raise ModelError for a bad shared chain setting (the seed included),
    or for any field named in ``positive`` that is not finite and > 0.  The
    update move takes the probability that birth and death leave."""
    for name, least in (("iterations", 1), ("burn_in", 0), ("thinning", 1), ("k_max", 1)):
        _check_int(name, getattr(config, name), least)
    if config.burn_in >= config.iterations:
        raise ModelError("burn_in must be below iterations")
    if config.rng_seed is not None:
        _check_int("rng_seed", config.rng_seed, 0)
    birth, death = config.birth_prob, config.death_prob
    if not (birth >= 0.0 and death >= 0.0 and birth + death <= 1.0):
        raise ModelError("birth_prob and death_prob must be >= 0 with a sum of at most 1")
    for name in positive:
        value = getattr(config, name)
        if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0.0):
            raise ModelError(f"{name} must be finite and positive, got {value!r}")


class Chain:
    """A sampler's side of :func:`run`.

    Each iteration picks birth, death or an update sweep with the configured
    probabilities; a birth at k_max or a death at k = 0 counts an attempt
    and draws nothing more.  ``state`` is a tuple (rows, log likelihood
    term, cached terms...), the rows a (k, d) array sorted by its first
    column; ``state[1]`` excludes the k prior and the component prior.  The
    engine owns birth and death: a birth inserts ``new_row()``, one
    component drawn from its prior, at its sorted place, and a death removes
    a uniform pick; ``score(rows)`` returns the proposed state, and the
    acceptance ratio is its likelihood ratio times the Poisson(``rate``)
    k-prior ratio and the move-probability ratio, since the component prior
    and the birth's proposal density cancel.  ``sweep()`` is a generator
    with one step per row of the state at its start: step j draws its own
    random numbers, changes only row j, and yields ``(log_r,
    proposed_state)``, or None for a step outside the prior, rejected
    without an accept draw; the engine sorts the rows after the sweep.
    ``refresh`` runs after every move and counts the sampler's
    ``extra_moves``; ``record`` returns the (k, d) array to store and
    ``extras`` the sampler's entries of ``provenance["extras"]``.
    """

    sampler: str  # the provenance "sampler" entry
    extra_moves: tuple = ()

    def __init__(self, config, space: ParamSpace):
        self.config, self.space = config, space
        self.rng = np.random.default_rng(config.rng_seed)

    def refresh(self, attempts: dict, accepts: dict) -> None:
        pass


def run(chain: Chain) -> SampleSet:
    """Check the start (inside the box, nonzero density), then run and ingest the thinned states."""
    config = chain.config
    if not np.all(chain.space.contains(chain.state[0][:, :chain.space.dim])):
        raise ModelError("the initial state falls outside the parameter box")
    if not np.isfinite(chain.state[1]):
        raise ModelError("initial state has zero posterior density")
    attempts = dict.fromkeys(("birth", "death", "update") + chain.extra_moves, 0)
    accepts = dict.fromkeys(attempts, 0)
    records: list[np.ndarray] = []
    for it in range(config.iterations):
        _step(chain, attempts, accepts)
        if it >= config.burn_in and (it - config.burn_in) % config.thinning == 0:
            records.append(chain.record())

    rates = {m: (accepts[m] / attempts[m] if attempts[m] else math.nan) for m in attempts}
    provenance = {"sampler": chain.sampler, "seed": config.rng_seed,
                  "iterations": config.iterations, "burn_in": config.burn_in,
                  "thinning": config.thinning,
                  "extras": {"acceptance_rates": rates, "k_max": config.k_max, **chain.extras()}}
    return SampleSet.ingest(chain.space, records, provenance)


def _step(chain: Chain, attempts: dict, accepts: dict) -> None:
    """One iteration: a birth, a death or an update sweep, then the refresh."""
    config, rng = chain.config, chain.rng
    log_db = _log_prob_ratio(config.death_prob, config.birth_prob)

    def metropolis(move: str, log_r: float, prop: tuple) -> None:
        if math.log(rng.random()) < log_r:
            chain.state = prop
            accepts[move] += 1

    rows, lik = chain.state[:2]
    k = len(rows)
    u = rng.random()
    if u < config.birth_prob:
        attempts["birth"] += 1
        if k < config.k_max:
            row = np.array([chain.new_row()])
            i = rows[:, 0].searchsorted(row[0, 0])
            prop = chain.score(np.concatenate((rows[:i], row, rows[i:])))
            log_r = prop[1] - lik + math.log(chain.rate) - math.log(k + 1) + log_db
            metropolis("birth", log_r, prop)
    elif u < config.birth_prob + config.death_prob:
        attempts["death"] += 1
        if k > 0:
            prop = chain.score(np.delete(rows, int(rng.integers(k)), axis=0))
            metropolis("death", prop[1] - lik - math.log(chain.rate) + math.log(k) - log_db, prop)
    else:
        for proposal in chain.sweep():
            attempts["update"] += 1
            if proposal is not None:
                metropolis("update", *proposal)
        rows, *rest = chain.state
        chain.state = (rows.take(rows[:, 0].argsort(), axis=0), *rest)
    chain.refresh(attempts, accepts)
