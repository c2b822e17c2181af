"""Golden chains: both samplers pinned to recorded output.

Short runs that between them reach every branch of the shared loop and of
each sampler's proposals (see the comment on each case).  The sinusoid values
were recorded with the samplers as they were before they shared one engine,
apart from sin-singular's mean_delta2: the delta2 refresh now takes its
energy |Da|^2 as |Ra|^2 from the cached u = R^-T D'y, which rounds
differently on that case's near-singular six-sample designs.  The muon values
were recorded again when the update sweep began to draw all of its normals
at its first step, before the accept uniforms: that draw order gives other
realisations.  muon-k-max stays at k = 1, where the draw order is as before;
its digest moved because the amplitude step now takes numpy's exp, which can
differ from math.exp in the last bit.  muon-empty kept its k counts and rates.
Sample arrays (through a digest of their bytes), k counts and acceptance
rates must match exactly.  The sinusoid's hyperparameter means go through
LAPACK, so they are compared to a relative 1e-12, which leaves room for
another BLAS.  A change that alters the arithmetic on purpose records the
values again and says so.
"""

import hashlib
import math

import numpy as np
import pytest

from transdim.muons import AugerChainConfig, PECountSignal, rjmcmc_run_auger, simulate_pe_signal
from transdim.sinusoid import SinChainConfig, generate_synthetic_signal, rjmcmc_run

SIGNALS = {
    "three-tones": lambda: generate_synthetic_signal(
        3, (0.63, 0.68, 0.73), (20.0, 6.32, 20.0), (0.0, math.pi / 4, math.pi / 3),
        7.0, 64, seed=4,
    ),
    "short-tone": lambda: generate_synthetic_signal(1, [1.2], [4.0], [0.3], 10.0, 6, seed=8),
    "two-muons": lambda: simulate_pe_signal([(150.0, 60.0), (400.0, 50.0)], 30, seed=3),
    "no-counts": lambda: PECountSignal(np.zeros(12, dtype=np.int64)),
}

# name: (signal, chain settings, recorded output)
CASES = {
    # delta2 and the rate refreshed every iteration
    "sin-sampled-hyper": (
        "three-tones",
        dict(iterations=3000, burn_in=500, thinning=2, rng_seed=11),
        dict(samples=1250, rejected=0, digest="e467def623ea167b",
             k_counts=[0, 0, 913, 236, 63, 23, 15],
             rates=(0.06928104575163399, 0.06684491978609626, 0.611957796014068, 1.0),
             mean_delta2=51.011799516697025, mean_rate=1.7165104918063814,
             singular_proposals=0),
    ),
    # both refreshes off, so the rate acceptance is NaN
    "sin-fixed-hyper": (
        "three-tones",
        dict(iterations=3000, burn_in=500, thinning=1, sample_delta2=False, sample_rate=False,
             rng_seed=12),
        dict(samples=2500, rejected=0, digest="facd90c52786f176",
             k_counts=[0, 0, 927, 980, 361, 138, 80, 14],
             rates=(0.11634349030470914, 0.10457516339869281, 0.7348164627363738, math.nan),
             mean_delta2=20.0, mean_rate=3.0,
             singular_proposals=0),
    ),
    # explicit starting frequencies
    "sin-init-omega": (
        "three-tones",
        dict(iterations=2000, burn_in=200, thinning=3, rw_step=0.02, init_omega=(0.6, 0.7),
             rng_seed=13),
        dict(samples=600, rejected=0, digest="0fd73b3cff9259f0",
             k_counts=[0, 0, 313, 225, 55, 6, 1],
             rates=(0.06483300589390963, 0.0642570281124498, 0.4822057098161909, 1.0),
             mean_delta2=45.336570229521875, mean_rate=1.8258788282348728,
             singular_proposals=0),
    ),
    # births refused at k_max = 2
    "sin-k-max": (
        "three-tones",
        dict(iterations=3000, burn_in=0, thinning=1, k_max=2, rng_seed=14),
        dict(samples=3000, rejected=0, digest="5e884c2eb8d49cc6",
             k_counts=[19, 145, 2836],
             rates=(0.009722222222222222, 0.006657789613848202, 0.5080862533692723,
                    0.8066666666666666),
             mean_delta2=48.02593011599386, mean_rate=1.8791966508512368,
             singular_proposals=0),
    ),
    # six samples carry at most three tones: larger states are singular
    "sin-singular": (
        "short-tone",
        dict(iterations=3000, burn_in=100, thinning=1, k_max=6, rate_init=6.0, sample_rate=False,
             rng_seed=15),
        dict(samples=2900, rejected=0, digest="c216160b615ed2d3",
             k_counts=[49, 735, 947, 1160, 9],
             rates=(0.27560050568900124, 0.3059490084985836, 0.9873096446700508, math.nan),
             mean_delta2=21.591965528492125, mean_rate=6.0,
             singular_proposals=274),
    ),
    # unequal birth and death probabilities: log(death/birth) != 0
    "sin-uneven-moves": (
        "three-tones",
        dict(iterations=2000, burn_in=200, thinning=1, birth_prob=0.3, death_prob=0.2,
             rng_seed=20),
        dict(samples=1800, rejected=0, digest="15514f3fd7b6e165",
             k_counts=[0, 46, 1188, 508, 58],
             rates=(0.046052631578947366, 0.06435643564356436, 0.5725581395348838, 1.0),
             mean_delta2=47.941684088579784, mean_rate=1.6644049829628296,
             singular_proposals=0),
    ),
    # explicit starting muons
    "muon-init": (
        "two-muons",
        dict(iterations=3000, burn_in=500, thinning=2, init_muons=((120.0, 40.0), (380.0, 40.0)),
             rng_seed=16),
        dict(samples=1250, rejected=0, digest="c4d88e48de2435ac",
             k_counts=[0, 0, 109, 367, 320, 218, 130, 71, 34, 1],
             rates=(0.30250990752972257, 0.30522088353413657, 0.4665149544863459)),
    ),
    # a_max = 70, so some updates skip their accept draw
    "muon-small-a-max": (
        "two-muons",
        dict(iterations=3000, burn_in=300, thinning=1, a_max=70.0, init_muons=((150.0, 50.0),),
             rng_seed=17),
        dict(samples=2700, rejected=0, digest="4f2e13cad4bc07d4",
             k_counts=[0, 0, 376, 767, 794, 451, 222, 88, 2],
             rates=(0.325, 0.3215223097112861, 0.4558797833304211)),
    ),
    # births refused at k_max = 1
    "muon-k-max": (
        "two-muons",
        dict(iterations=3000, burn_in=0, thinning=1, k_max=1, rng_seed=18),
        dict(samples=3000, rejected=0, digest="35a5350bd2884646",
             k_counts=[0, 3000],
             rates=(0.0, 0.0, 0.06180871828236825)),
    ),
    # unequal birth and death probabilities: log(death/birth) != 0
    "muon-uneven-moves": (
        "two-muons",
        dict(iterations=2000, burn_in=200, thinning=1, birth_prob=0.2, death_prob=0.35,
             rng_seed=21),
        dict(samples=1800, rejected=0, digest="30c4abf510f04f81",
             k_counts=[0, 0, 121, 529, 628, 318, 156, 40, 8],
             rates=(0.3973684210526316, 0.20704225352112676, 0.4528518200057323)),
    ),
    # zero counts: the chain starts empty and deaths at k = 0 draw nothing
    "muon-empty": (
        "no-counts",
        dict(iterations=2000, burn_in=100, thinning=1, rate=1.0, rng_seed=19),
        dict(samples=1900, rejected=0, digest="8e8d277bdfdb326d",
             k_counts=[1604, 292, 4],
             rates=(0.15037593984962405, 0.16458333333333333, 0.8571428571428571)),
    ),
}


def observe(signal_name, settings):
    """Run one case and reduce it to what the golden values record."""
    signal = SIGNALS[signal_name]()
    if isinstance(signal, PECountSignal):
        ss = rjmcmc_run_auger(signal, AugerChainConfig(**settings))
    else:
        ss = rjmcmc_run(signal, SinChainConfig(**settings))
    h = hashlib.sha256()
    for s in ss.samples:
        h.update(np.int64(s.k).tobytes())
        h.update(np.ascontiguousarray(s.components, dtype="<f8").tobytes())
    extras = ss.provenance["extras"]
    out = dict(samples=len(ss), rejected=ss.rejected, digest=h.hexdigest()[:16],
               k_counts=np.bincount(ss.k_values()).tolist(),
               rates=extras["acceptance_rates"])
    out.update({key: extras[key] for key in ("mean_delta2", "mean_rate", "singular_proposals")
                if key in extras})
    return out


@pytest.mark.parametrize("name", list(CASES))
def test_samplers_reproduce_recorded_chains(name):
    signal_name, settings, want = CASES[name]
    want = dict(want)
    got = observe(signal_name, settings)
    for key in ("mean_delta2", "mean_rate"):
        if key in want:
            assert got.pop(key) == pytest.approx(want.pop(key), rel=1e-12), key
    rates, want_rates = got.pop("rates"), want.pop("rates")
    assert list(rates) == ["birth", "death", "update", "rate"][: len(want_rates)]
    for move, value in zip(list(rates), want_rates):
        assert rates[move] == value or math.isnan(rates[move]) and math.isnan(value), move
    assert got == want
