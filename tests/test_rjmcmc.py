"""The reversible-jump engine shared by the sinusoid and muon samplers:
behaviour that must be the same through either sampler, and the helpers
the engine owns.
"""

import math

import numpy as np
import pytest

from transdim.muons import AugerChainConfig, PECountSignal, rjmcmc_run_auger, simulate_pe_signal
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
        birth_prob=0.5, death_prob=0.0, update_prob=0.5, rng_seed=2, **prior,
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
