"""Replicated end-to-end study: simulate, sample, fit, and compare the
chain posterior with its fitted approximation, replicate by replicate.

Each replicate regenerates the noise, runs the trans-dimensional chain,
fits the gated-Gaussian approximation (component count chosen by the
probability-threshold rule), and records posterior mass, MAP agreement,
reconstruction errors, and expected interval counts computed both from
the chain and from the fitted model.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .diagnostics import (
    approx_posterior_k,
    empirical_count_interval,
    expected_count_interval,
    reconstruct_bma,
    reconstruct_from_model,
    reconstruction_error_db,
)
from .fit import FitConfig, sem_fit
from .model import ModelError, _check_int
from .sinusoid import SinChainConfig, design_matrix, generate_synthetic_signal, rjmcmc_run
from .storage import _fmt, spawn_seeds, write_csv

__all__ = ["MonteCarloConfig", "run_replicate", "run_monte_carlo", "write_mc_csv", "MC_COLUMNS"]

logger = logging.getLogger(__name__)

MC_COLUMNS = (
    "replicate",
    "status",
    "k_map_chain",
    "k_map_model",
    "map_agree",
    "p2_chain",
    "p2_model",
    "p3_chain",
    "p3_model",
    "recon_bma_db",
    "recon_model_db",
    "count_low_chain",
    "count_low_model",
    "count_high_chain",
    "count_high_model",
)

_PAPER_SIGNAL = {
    "k": 3,
    "omega": (0.63, 0.68, 0.73),
    "energies": (20.0, 6.32, 20.0),
    "phases": (0.0, math.pi / 4, math.pi / 3),
    "snr_db": 7.0,
    "n": 64,
}


@dataclass
class MonteCarloConfig:
    """Settings for the replication harness."""

    replicates: int = 100
    master_seed: int = 0
    signal: dict = field(default_factory=dict)
    chain: dict = field(default_factory=dict)
    fit: dict = field(default_factory=dict)
    reconstruction_draws: int = 10_000
    # the two frequency intervals whose expected counts each replicate records
    intervals: ClassVar[tuple] = ((0.0, math.pi / 4), (math.pi / 4, math.pi / 2))

    def __post_init__(self):
        for name in ("replicates", "reconstruction_draws"):
            _check_int(name, getattr(self, name), 1)
        _check_int("master_seed", self.master_seed, 0)
        if not all(isinstance(doc, dict) for doc in (self.signal, self.chain, self.fit)):
            raise ModelError("signal, chain and fit settings must be mappings")
        unknown = set(self.signal) - set(_PAPER_SIGNAL)
        if unknown:
            raise ModelError(f"unknown signal keys: {sorted(unknown)}")
        self.signal = {**_PAPER_SIGNAL, **self.signal}
        self.fit = {"init_rule": "threshold", **self.fit}
        # build the signal (at a fixed seed of its own) and both configs once,
        # so that a bad key or value fails here rather than in every replicate
        sp = self.signal
        try:
            generate_synthetic_signal(sp["k"], sp["omega"], sp["energies"], sp["phases"],
                                      sp["snr_db"], sp["n"], seed=0)
            SinChainConfig(**self.chain)
            FitConfig(**self.fit)
        except (TypeError, ValueError) as exc:  # ModelError is a ValueError
            raise ModelError(f"bad signal, chain or fit settings ({exc})") from None


def run_replicate(config: MonteCarloConfig, replicate: int, rep_seed: int) -> dict:
    """One end-to-end pass; raises on failure (the caller isolates it)."""
    sig_seed, chain_seed, fit_seed, recon_seed = spawn_seeds(rep_seed, 4)
    sp = config.signal
    sig = generate_synthetic_signal(
        sp["k"], sp["omega"], sp["energies"], sp["phases"], sp["snr_db"], sp["n"],
        seed=sig_seed,
    )
    chain_cfg = SinChainConfig(**{**config.chain, "rng_seed": chain_seed})
    ss = rjmcmc_run(sig, chain_cfg)

    fit_cfg = FitConfig(**{**config.fit, "rng_seed": fit_seed})
    fitted = sem_fit(ss, fit_cfg)
    model = fitted.model

    pk_chain = ss.empirical_posterior_k()
    pk_chain = np.pad(pk_chain, (0, max(0, 4 - pk_chain.size)))
    pk_model = approx_posterior_k(model)
    pk_model = np.pad(pk_model, (0, max(0, 4 - pk_model.size)))

    clean = design_matrix(sig.true_omega, sp["n"]) @ sig.true_amplitudes
    delta2 = float(ss.provenance["extras"]["mean_delta2"])
    bma = reconstruct_bma(ss, sig.y, delta2)
    from_model = reconstruct_from_model(
        model, sig.y, delta2, config.reconstruction_draws, np.random.default_rng(recon_seed)
    )

    lo_box = [[config.intervals[0][0], config.intervals[0][1]]]
    hi_box = [[config.intervals[1][0], config.intervals[1][1]]]
    return {
        "replicate": replicate,
        "status": "ok",
        "k_map_chain": int(np.argmax(pk_chain)),
        "k_map_model": int(np.argmax(pk_model)),
        "map_agree": int(np.argmax(pk_chain) == np.argmax(pk_model)),
        "p2_chain": float(pk_chain[2]),
        "p2_model": float(pk_model[2]),
        "p3_chain": float(pk_chain[3]),
        "p3_model": float(pk_model[3]),
        "recon_bma_db": reconstruction_error_db(bma, clean),
        "recon_model_db": reconstruction_error_db(from_model, clean),
        "count_low_chain": empirical_count_interval(ss, lo_box),
        "count_low_model": expected_count_interval(model, lo_box),
        "count_high_chain": empirical_count_interval(ss, hi_box),
        "count_high_model": expected_count_interval(model, hi_box),
    }


def run_monte_carlo(config: MonteCarloConfig) -> list[dict]:
    """All replicates, in order; failures yield a marker row and move on."""
    seeds = spawn_seeds(config.master_seed, config.replicates)
    rows = []
    for r, rep_seed in enumerate(seeds):
        try:
            rows.append(run_replicate(config, r, rep_seed))
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            logger.warning("replicate %d failed: %s", r, exc)
            row = {c: "" for c in MC_COLUMNS}
            row["replicate"] = r
            row["status"] = f"failed: {type(exc).__name__}"
            rows.append(row)
    return rows


def write_mc_csv(rows: list[dict], path) -> None:
    """Aggregate table with a stable column order and full-precision reals."""
    def cell(v):
        return _fmt(v) if isinstance(v, float) else v

    write_csv(path, MC_COLUMNS, ([cell(row.get(c, "")) for c in MC_COLUMNS] for row in rows))
