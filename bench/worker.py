"""One benchmark process: set up a workload, run timed passes, check them.

``run.py`` starts this script with BLAS threads pinned and ``src`` on the
import path, reads the JSON object it prints as its last line, and turns it
into the benchmark's result.  Every pass is one closed-loop trip through the
pipeline (sampler -> fit -> queries), made only of calls into transdim's
public functions.  Passes differ only in their seeds, which come from the
run seed through ``spawn_seeds``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

from transdim import montecarlo
from transdim.diagnostics import (
    approx_posterior_k,
    empirical_count_interval,
    expected_count_interval,
    reconstruct_bma,
    reconstruct_from_model,
    reconstruction_error_db,
)
from transdim.fit import FitConfig, imh_batch_step, mstep_robust, sem_fit
from transdim.model import ApproxModel, sample_batch_from_model
from transdim.montecarlo import MonteCarloConfig
from transdim.muons import (
    AugerChainConfig,
    expected_bin_counts,
    log_likelihood_pe,
    rjmcmc_run_auger,
    simulate_pe_signal,
)
from transdim.sinusoid import (
    SinChainConfig,
    design_matrix,
    generate_synthetic_signal,
    log_marginal_likelihood,
    rjmcmc_run,
)
from transdim.storage import read_model, read_samples, spawn_seeds, write_model, write_samples

from spans import NO_TRACE, Tracer, call_time, layer_self_time

WORKLOADS = ("sin-gate4", "muon-gate8", "replication")

# Pass seeds are spawned up front; no run reaches this many passes.
MAX_PASSES = 400
MIN_PASSES = 3
WARMUP_SEED = 1

# Acceptance gate 4: three tones in 64 samples at 7 dB.
TONES = {
    "k": 3,
    "omega": (0.63, 0.68, 0.73),
    "energies": (20.0, 6.32, 20.0),
    "phases": (0.0, math.pi / 4, math.pi / 3),
    "snr_db": 7.0,
    "n": 64,
}
GATE4_NOISE_SEED = 4
# Acceptance gate 9's two frequency intervals.
SIN_INTERVALS = ([[0.0, math.pi / 4]], [[math.pi / 4, math.pi / 2]])

# Acceptance gate 8: five muons, two of them piled up, in 30 bins of 25 ns.
MUONS = ((105.0, 50.0), (169.0, 45.0), (267.0, 40.0), (268.0, 40.0), (498.0, 50.0))
MUON_BINS = 30
GATE8_NOISE_SEED = 22
MUON_CHAIN = {"thinning": 5, "rate": 1.0, "amp_alpha": 2.0, "amp_beta": 0.05}
# Early and late halves of the 750 ns window, over all amplitudes.
MUON_INTERVALS = ([[0.0, 375.0], [0.0, 500.0]], [[375.0, 750.0], [0.0, 500.0]])

# Run lengths.  "full" is what the benchmark times; "smoke" only checks the
# wiring, and is also the untimed warm-up pass of every run.
SIZES = {
    "full": {
        "sin-gate4": {"iterations": 1500, "burn_in": 700, "fit_iterations": 15,
                      "window": 8, "recon_draws": 1000},
        "muon-gate8": {"iterations": 3500, "burn_in": 1000, "fit_iterations": 30,
                       "window": 15, "recon_draws": 1000},
        "replication": {"iterations": 3000, "burn_in": 1000, "fit_iterations": 40,
                        "window": 20, "recon_draws": 10000},
    },
    "smoke": {
        "sin-gate4": {"iterations": 400, "burn_in": 100, "fit_iterations": 10,
                      "window": 5, "recon_draws": 200},
        "muon-gate8": {"iterations": 600, "burn_in": 100, "fit_iterations": 10,
                       "window": 5, "recon_draws": 100},
        "replication": {"iterations": 400, "burn_in": 100, "fit_iterations": 10,
                        "window": 5, "recon_draws": 200},
    },
}


# ---------------------------------------------------------------------------
# Pass results and the output check
# ---------------------------------------------------------------------------


def _pad(p: np.ndarray, n: int) -> np.ndarray:
    return np.pad(p, (0, max(0, n - p.size)))


def _tv(pk_chain: np.ndarray, pk_model: np.ndarray) -> float:
    n = max(pk_chain.size, pk_model.size)
    return 0.5 * float(np.abs(_pad(pk_chain, n) - _pad(pk_model, n)).sum())


def _model_ok(model) -> bool:
    """Finite parameters, means inside the box, valid gates and rate."""
    if not (math.isfinite(model.lam) and model.lam >= 0.0):
        return False
    if model.L == 0:
        return True
    mus, s2, pis = model.mus(), model.sigma2s(), model.pis()
    return bool(
        np.all(np.isfinite(mus)) and np.all(model.space.contains(mus))
        and np.all(np.isfinite(s2)) and np.all(s2 > 0.0)
        and np.all((pis >= 0.0) & (pis <= 1.0))
    )


def _fingerprint(pk_chain, model, criterion, extra=None) -> dict:
    """Behaviour at full precision; the digest changes with any bit of it."""
    fp = {
        "pk": [float(v) for v in pk_chain],
        "mu": [[float(v) for v in c.mu] for c in model.components],
        "pi": [float(c.pi) for c in model.components],
        "lam": float(model.lam),
        "criterion": float(criterion),
    }
    if extra:
        fp.update(extra)
    fp["digest"] = hashlib.sha256(
        json.dumps(fp, sort_keys=True).encode()).hexdigest()[:16]
    return fp


def _result(ss, res, model, pk_chain, pk_model, recon_db, counts, truth, extra_fp=None):
    """Common pass record: fingerprint, quality, checks, layer counters.

    ``recon_db`` is (chain, model) reconstruction error in dB and ``counts``
    one (chain, model) pair of interval counts per interval.
    """
    checks = {
        "samples": len(ss) > 0 and ss.rejected == 0,
        "model": _model_ok(model),
        "pk_sums_to_1": abs(float(pk_model.sum()) - 1.0) <= 1e-9,
        "truth": bool(truth),
    }
    prov = ss.provenance.get("extras", {})
    return {
        "fingerprint": _fingerprint(pk_chain, model, res.trace.criteria[-1], extra_fp),
        "quality": {
            "pk_tv": _tv(pk_chain, pk_model),
            "recon_gap_db": abs(recon_db[0] - recon_db[1]),
            "interval_count_gap": float(np.mean([abs(a - b) for a, b in counts])),
            "counts": [[float(a), float(b)] for a, b in counts],
        },
        "checks": checks,
        "stats": {
            "accept": prov.get("acceptance_rates", {}),
            "singular": prov.get("singular_proposals", 0),
            "samples": len(ss),
            "k_groups": int(np.unique(ss.k_values()).size),
            "fit_accept_rate": float(np.mean(res.trace.accept_rates)),
            "final_L": model.L,
            "pruned": len(res.pruned),
            "criterion_per_sample": float(res.trace.criteria[-1]) / len(ss),
        },
        "state": (ss, res),
    }


def _recovers(model, targets, tol: float, pi_min: float) -> bool:
    """Distinct components with pi >= pi_min lie within tol of each target."""
    strong = [c.mu[0] for c in model.components if c.pi >= pi_min]
    for t in targets:
        near = [m for m in strong if abs(m - t) <= tol]
        if not near:
            return False
        strong.remove(min(near, key=lambda m: abs(m - t)))
    return True


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class SinGate4:
    """Gate 4's signal, thinning 1, a six-inner-step fit, then the queries.

    The signal is gate 4's own noisy series (noise seed 4): its posterior is
    the one the gate checks, so the truth is recoverable from a short chain.
    Passes differ in their chain, fit and reconstruction seeds.
    """

    name = "sin-gate4"
    chain_layer = "sinusoid"

    def __init__(self, size: dict, pass_seeds: list[int]):
        self.size = size
        self.signal = generate_synthetic_signal(
            TONES["k"], TONES["omega"], TONES["energies"], TONES["phases"],
            TONES["snr_db"], TONES["n"], seed=GATE4_NOISE_SEED)
        self.clean = design_matrix(self.signal.true_omega, TONES["n"]) @ \
            self.signal.true_amplitudes
        self.seeds = [spawn_seeds(s, 3) for s in pass_seeds]

    def run_pass(self, i: int, tr) -> dict:
        sig, clean = self.signal, self.clean
        chain_seed, fit_seed, recon_seed = self.seeds[i]
        z = self.size
        with tr.span("sinusoid.rjmcmc_run"):
            ss = rjmcmc_run(sig, SinChainConfig(
                iterations=z["iterations"], burn_in=z["burn_in"], thinning=1,
                rng_seed=chain_seed))
        with tr.span("fit.sem_fit"):
            res = sem_fit(ss, FitConfig(
                iterations=z["fit_iterations"], averaging_window=z["window"],
                imh_inner_steps=6, rng_seed=fit_seed))
        model = res.model
        with tr.span("model.empirical_posterior_k"):
            pk_chain = ss.empirical_posterior_k()
        with tr.span("diagnostics.approx_posterior_k"):
            pk_model = approx_posterior_k(model)
        delta2 = float(ss.provenance["extras"]["mean_delta2"])
        with tr.span("diagnostics.reconstruct_bma"):
            bma = reconstruct_bma(ss, sig.y, delta2)
        with tr.span("diagnostics.reconstruct_from_model"):
            from_model = reconstruct_from_model(
                model, sig.y, delta2, z["recon_draws"], np.random.default_rng(recon_seed))
        with tr.span("diagnostics.reconstruction_error_db"):
            recon = (reconstruction_error_db(bma, clean),
                     reconstruction_error_db(from_model, clean))
        counts = []
        for box in SIN_INTERVALS:
            with tr.span("diagnostics.empirical_count_interval"):
                emp = empirical_count_interval(ss, box)
            with tr.span("diagnostics.expected_count_interval"):
                exp = expected_count_interval(model, box)
            counts.append((emp, exp))
        # Gate 4 asks for mass >= 0.9 and pi > 0.85 within 0.03 of the outer
        # tones after 100k iterations; a 1.5k-iteration chain gets looser limits.
        mass = float(_pad(pk_chain, 5)[2:5].sum())
        truth = mass >= 0.5 and _recovers(model, (0.63, 0.73), 0.07, 0.5)
        return _result(ss, res, model, pk_chain, pk_model, recon, counts, truth)


class MuonGate8:
    """Gate 8's trace and chain, samples and model through the file formats,
    a fixed six-component fit in d=2, then the queries.

    The trace is gate 8's own draw (seed 22); passes differ in their chain,
    fit and model-draw seeds.
    """

    name = "muon-gate8"
    chain_layer = "muons"

    def __init__(self, size: dict, pass_seeds: list[int], workdir: Path):
        self.size = size
        self.workdir = workdir
        self.signal = simulate_pe_signal(MUONS, MUON_BINS, seed=GATE8_NOISE_SEED)
        self.clean = expected_bin_counts(np.array(MUONS), self.signal)
        self.seeds = [spawn_seeds(s, 3) for s in pass_seeds]

    def run_pass(self, i: int, tr) -> dict:
        sig = self.signal
        chain_seed, fit_seed, draw_seed = self.seeds[i]
        z = self.size
        spath = self.workdir / "samples.txt"
        mpath = self.workdir / "model.json"
        with tr.span("muons.rjmcmc_run_auger"):
            ss = rjmcmc_run_auger(sig, AugerChainConfig(
                iterations=z["iterations"], burn_in=z["burn_in"], rng_seed=chain_seed,
                **MUON_CHAIN))
        with tr.span("storage.write_samples"):
            write_samples(ss, spath)
        with tr.span("storage.read_samples"):
            back = read_samples(spath)
        with tr.span("fit.sem_fit"):
            res = sem_fit(back, FitConfig(
                iterations=z["fit_iterations"], averaging_window=z["window"],
                init_rule="fixed", fixed_L=6, rng_seed=fit_seed))
        with tr.span("storage.write_model"):
            write_model(res.model, mpath)
        with tr.span("storage.read_model"):
            model = read_model(mpath)
        with tr.span("model.empirical_posterior_k"):
            pk_chain = back.empirical_posterior_k()
        with tr.span("diagnostics.approx_posterior_k"):
            pk_model = approx_posterior_k(model)
        # The muon analogue of gate 9's reconstruction: the mean bin-count
        # trace from the chain's samples against the one from draws of the
        # gated components.  Clutter is left out of the draws: its amplitudes
        # are uniform up to a_max, which no chain sample resembles.
        with tr.span("muons.expected_bin_counts"):
            bma = np.mean([expected_bin_counts(s.components, sig) for s in back.samples],
                          axis=0)
        gated = ApproxModel(model.space, list(model.components), 0.0)
        with tr.span("model.sample_batch_from_model"):
            draws, _ = sample_batch_from_model(gated, z["recon_draws"], draw_seed)
        with tr.span("muons.expected_bin_counts"):
            from_model = np.mean([expected_bin_counts(d, sig) for d in draws], axis=0)
        with tr.span("diagnostics.reconstruction_error_db"):
            recon = (reconstruction_error_db(bma, self.clean),
                     reconstruction_error_db(from_model, self.clean))
        counts = []
        for box in MUON_INTERVALS:
            with tr.span("diagnostics.empirical_count_interval"):
                emp = empirical_count_interval(back, box)
            with tr.span("diagnostics.expected_count_interval"):
                exp = expected_count_interval(model, box)
            counts.append((emp, exp))
        nbytes = spath.stat().st_size + mpath.stat().st_size
        round_trip = (
            back.k_values().tolist() == ss.k_values().tolist()
            and all(np.array_equal(a.components, b.components)
                    for a, b in zip(back.samples, ss.samples))
            and model.lam == res.model.lam
            and np.array_equal(model.mus(), res.model.mus())
            and np.array_equal(model.sigma2s(), res.model.sigma2s())
            and np.array_equal(model.pis(), res.model.pis())
        )
        # gate 8's own limits
        mass = float(_pad(pk_chain, 7)[4:7].sum())
        strong = sum(c.pi > 0.7 for c in model.components)
        out = _result(back, res, model, pk_chain, pk_model, recon, counts,
                      mass >= 0.7 and strong >= 4)
        out["checks"]["storage_round_trip"] = bool(round_trip)
        out["stats"]["bytes"] = nbytes
        return out


def _capturing(fn, store: dict, key: str):
    """Pass-through wrapper that keeps the last value ``fn`` returned."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        store[key] = out
        return out
    return wrapper


class Replication:
    """Gate 9's harness, one replicate per pass.

    Untraced passes call ``montecarlo.run_replicate`` itself.  To read the
    chain and the fit that the replicate made (for p(k) and the
    fingerprint), the names ``run_replicate`` looks up in its module are
    wrapped to keep their last return value.  Traced passes make the same
    public calls as ``run_replicate`` with the same spawned seeds, each in
    its own span, and must reproduce the untraced row exactly.
    """

    name = "replication"
    chain_layer = "sinusoid"

    def __init__(self, size: dict, pass_seeds: list[int]):
        self.size = size
        self.pass_seeds = pass_seeds
        z = size
        self.config = MonteCarloConfig(
            replicates=1,
            chain={"iterations": z["iterations"], "burn_in": z["burn_in"], "thinning": 5},
            fit={"iterations": z["fit_iterations"], "averaging_window": z["window"]},
            reconstruction_draws=z["recon_draws"],
        )
        self.captured: dict = {}
        for name in ("rjmcmc_run", "sem_fit"):
            fn = getattr(montecarlo, name)
            fn = getattr(fn, "__wrapped__", fn)
            setattr(montecarlo, name, _capturing(fn, self.captured, name))

    def run_pass(self, i: int, tr) -> dict:
        if tr is NO_TRACE:
            row = montecarlo.run_replicate(self.config, i, self.pass_seeds[i])
            ss, fitted = self.captured["rjmcmc_run"], self.captured["sem_fit"]
        else:
            with tr.span("montecarlo.run_replicate"):
                row, ss, fitted = self._replicate_traced(tr, i, self.pass_seeds[i])
        model = fitted.model
        pk_chain = ss.empirical_posterior_k()
        pk_model = approx_posterior_k(model)
        recon = (row["recon_bma_db"], row["recon_model_db"])
        counts = [(row["count_low_chain"], row["count_low_model"]),
                  (row["count_high_chain"], row["count_high_model"])]
        truth = (row["status"] == "ok" and 2 <= row["k_map_chain"] <= 5
                 and row["recon_model_db"] <= -3.0)
        out = _result(ss, fitted, model, pk_chain, pk_model, recon, counts, truth,
                      {"row": row})
        out["row"] = row
        return out

    def _replicate_traced(self, tr, replicate: int, rep_seed: int):
        """``montecarlo.run_replicate`` call by call, each call in a span."""
        config = self.config
        with tr.span("storage.spawn_seeds"):
            sig_seed, chain_seed, fit_seed, recon_seed = spawn_seeds(rep_seed, 4)
        sp = config.signal
        with tr.span("sinusoid.generate_synthetic_signal"):
            sig = generate_synthetic_signal(
                sp["k"], sp["omega"], sp["energies"], sp["phases"], sp["snr_db"],
                sp["n"], seed=sig_seed)
        chain_cfg = SinChainConfig(**{**config.chain, "rng_seed": chain_seed})
        with tr.span("sinusoid.rjmcmc_run"):
            ss = rjmcmc_run(sig, chain_cfg)
        fit_cfg = FitConfig(**{**config.fit, "rng_seed": fit_seed})
        with tr.span("fit.sem_fit"):
            fitted = sem_fit(ss, fit_cfg)
        model = fitted.model
        with tr.span("model.empirical_posterior_k"):
            pk_chain = _pad(ss.empirical_posterior_k(), 4)
        with tr.span("diagnostics.approx_posterior_k"):
            pk_model = _pad(approx_posterior_k(model), 4)
        with tr.span("sinusoid.design_matrix"):
            clean = design_matrix(sig.true_omega, sp["n"]) @ sig.true_amplitudes
        delta2 = float(ss.provenance["extras"]["mean_delta2"])
        with tr.span("diagnostics.reconstruct_bma"):
            bma = reconstruct_bma(ss, sig.y, delta2)
        with tr.span("diagnostics.reconstruct_from_model"):
            from_model = reconstruct_from_model(
                model, sig.y, delta2, config.reconstruction_draws,
                np.random.default_rng(recon_seed))
        lo_box = [[config.intervals[0][0], config.intervals[0][1]]]
        hi_box = [[config.intervals[1][0], config.intervals[1][1]]]
        with tr.span("diagnostics.reconstruction_error_db"):
            recon_bma_db = reconstruction_error_db(bma, clean)
            recon_model_db = reconstruction_error_db(from_model, clean)
        with tr.span("diagnostics.empirical_count_interval"):
            count_low_chain = empirical_count_interval(ss, lo_box)
            count_high_chain = empirical_count_interval(ss, hi_box)
        with tr.span("diagnostics.expected_count_interval"):
            count_low_model = expected_count_interval(model, lo_box)
            count_high_model = expected_count_interval(model, hi_box)
        row = {
            "replicate": replicate,
            "status": "ok",
            "k_map_chain": int(np.argmax(pk_chain)),
            "k_map_model": int(np.argmax(pk_model)),
            "map_agree": int(np.argmax(pk_chain) == np.argmax(pk_model)),
            "p2_chain": float(pk_chain[2]),
            "p2_model": float(pk_model[2]),
            "p3_chain": float(pk_chain[3]),
            "p3_model": float(pk_model[3]),
            "recon_bma_db": recon_bma_db,
            "recon_model_db": recon_model_db,
            "count_low_chain": count_low_chain,
            "count_low_model": count_low_model,
            "count_high_chain": count_high_chain,
            "count_high_model": count_high_model,
        }
        return row, ss, fitted


def make_workload(name: str, size_name: str, seed: int, workdir: Path):
    size = SIZES[size_name][name]
    seeds = spawn_seeds(seed, MAX_PASSES)
    if name == "sin-gate4":
        return SinGate4(size, seeds)
    if name == "muon-gate8":
        return MuonGate8(size, seeds, workdir)
    return Replication(size, seeds)


# ---------------------------------------------------------------------------
# Probes: single layers on fixed inputs or on a pass's final state
# ---------------------------------------------------------------------------


def _per_call(fn, calls: int, batches: int = 7) -> float:
    """Median over batches of the mean seconds per call."""
    times = []
    for _ in range(batches):
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t) / calls)
    return statistics.median(times)


PROBE_OMEGA = {
    "k1": (0.68,),
    "k3": (0.63, 0.68, 0.73),
    "k6": (0.3, 0.63, 0.68, 0.73, 1.5, 2.4),
}
PROBE_MUONS = {
    "k1": MUONS[:1],
    "k5": MUONS,
    "k10": MUONS + ((40.0, 30.0), (220.0, 20.0), (330.0, 35.0), (420.0, 25.0),
                    (600.0, 45.0)),
}


def forward_probes() -> dict:
    """Per-call cost of the two forward models on fixed inputs, in us."""
    y = generate_synthetic_signal(
        TONES["k"], TONES["omega"], TONES["energies"], TONES["phases"],
        TONES["snr_db"], TONES["n"], seed=GATE4_NOISE_SEED).y
    out = {}
    for key, omega in PROBE_OMEGA.items():
        w = np.array(omega)
        out[f"sinusoid.lml_us.{key}"] = 1e6 * _per_call(
            lambda: log_marginal_likelihood(w, y, 20.0), 300)
    sig = simulate_pe_signal(MUONS, MUON_BINS, seed=GATE8_NOISE_SEED)
    for key, muons in PROBE_MUONS.items():
        arr = np.array(muons)
        out[f"muons.ebc_us.{key}"] = 1e6 * _per_call(
            lambda: expected_bin_counts(arr, sig), 300)
    nbar = expected_bin_counts(np.array(MUONS), sig)
    out["muons.loglik_us"] = 1e6 * _per_call(lambda: log_likelihood_pe(sig.counts, nbar), 300)
    return out


def state_probes(ss, res) -> dict:
    """E-step, M-step, model draws and p(k) on a pass's own final state."""
    model = res.model
    ks = ss.k_values()
    nonzero = ks[ks > 0]
    out = {}
    if nonzero.size and model.L:
        k = int(np.bincount(nonzero).argmax())
        idx = np.flatnonzero(ks == k)
        points = np.stack([ss.samples[i].components for i in idx])
        labels = np.stack([res.allocations[i].labels for i in idx])
        out["fit.estep_ms"] = 1e3 * _per_call(
            lambda: imh_batch_step(points, labels, model, 0), 1, 5)
    else:
        out["fit.estep_ms"] = 0.0
    out["fit.mstep_ms"] = 1e3 * _per_call(
        lambda: mstep_robust(ss, res.allocations, model.L, model), 1, 5)
    draws = 2000
    out["model.draw_us"] = 1e6 * _per_call(
        lambda: sample_batch_from_model(model, draws, 0), 1, 5) / draws
    out["diagnostics.pk_us"] = 1e6 * _per_call(lambda: approx_posterior_k(model), 100, 5)
    return out


# ---------------------------------------------------------------------------
# Host-speed reference
# ---------------------------------------------------------------------------


def reference_work() -> float:
    """Fixed work of the benchmark's own, made of the kinds of operation a
    pass spends its time in: small design matrices and LAPACK solves, then
    Gaussian log-densities with ``logsumexp`` and short reductions, each one
    call from a Python loop.  It calls nothing in transdim, so a change to
    the program leaves its time alone; only the host's speed moves it.

    The two kinds run in separate loops.  Over 12 minutes of a drifting
    host, the sum of two such loops followed the pass times of all three
    workloads more closely than one loop doing both (log residual 0.038-0.041
    against 0.050-0.059, in 16 s bins)."""
    g = np.random.default_rng(0)
    t = np.arange(64.0)
    y = g.standard_normal(64)
    pts = g.standard_normal((400, 3))
    acc = 0.0
    for _ in range(400):
        w = g.uniform(0.1, 3.0, 3)
        d = np.cos(np.outer(t, w))
        gram = d.T @ d + np.eye(3)
        chol = np.linalg.cholesky(gram)
        b = np.linalg.solve(gram, d.T @ y)
        acc += float(np.log(np.diag(chol)).sum() + b @ b)
    for _ in range(300):
        w = g.uniform(0.1, 3.0, 3)
        acc += float(logsumexp(-0.5 * ((pts - w) ** 2).sum(axis=1)))
        acc += float(np.diff(np.exp(-np.maximum(t - 10.0 * w[0], 0.0) / 5.0)).sum())
    return acc


def reference_s() -> float:
    """Wall time of one call of :func:`reference_work`."""
    t = time.perf_counter()
    reference_work()
    return time.perf_counter() - t


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _timed_pass(wl, i: int, tr) -> tuple[float, dict | None, str | None]:
    """Wall time of one pass, its record, and an error if it raised."""
    t = time.perf_counter()
    try:
        out = wl.run_pass(i, tr)
    except Exception as exc:  # noqa: BLE001 - a failed pass is counted, not fatal
        return time.perf_counter() - t, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t, out, None


def _passed(out) -> bool:
    return out is not None and all(out["checks"].values())


def _failures(out, err) -> list[str]:
    if err:
        return [err]
    return [k for k, ok in out["checks"].items() if not ok]


def untraced_run(wl, seconds: float, first: int) -> dict:
    """Passes ``first``, ``first + 1``, ... until ``seconds`` have passed,
    each followed by one call of the host-speed reference, timed apart."""
    times, ref, quality, failures = [], [], [], []
    fingerprint = None
    t_end = time.perf_counter() + seconds
    i = first
    while i < MAX_PASSES and (i < first + MIN_PASSES or time.perf_counter() < t_end):
        dt, out, err = _timed_pass(wl, i, NO_TRACE)
        times.append(dt)
        ref.append(reference_s())
        if _passed(out):
            quality.append(out["quality"])
        else:
            failures.append({"pass": i, "failed": _failures(out, err)})
        if i == first and out is not None:
            fingerprint = out["fingerprint"]
        i += 1
    return {"pass_s": times, "reference_s": ref, "quality": quality,
            "failures": failures, "fingerprint": fingerprint}


def traced_run(wl, seconds: float) -> dict:
    """Untraced and traced passes alternate on the same pass seeds; which of
    the two goes first alternates too."""
    tracer = Tracer()
    plain, traced, records, failures = [], [], [], []
    last = None
    t_end = time.perf_counter() + seconds
    i = 0
    while i < MAX_PASSES and (i < MIN_PASSES or time.perf_counter() < t_end):
        tracer.pass_id = i
        if i % 2:
            dt1, out1, err1 = _timed_pass(wl, i, tracer)
            dt0, out0, err0 = _timed_pass(wl, i, NO_TRACE)
        else:
            dt0, out0, err0 = _timed_pass(wl, i, NO_TRACE)
            dt1, out1, err1 = _timed_pass(wl, i, tracer)
        plain.append(dt0)
        traced.append(dt1)
        bad = _failures(out0, err0) + _failures(out1, err1)
        if not bad and out0["fingerprint"] != out1["fingerprint"]:
            bad.append("traced pass differs from untraced pass")
        if bad:
            failures.append({"pass": i, "failed": bad})
        else:
            records.append((i, out1))
            last = out1
        i += 1
    metrics = layer_metrics(wl, tracer.spans, records, plain, traced)
    if last is not None:
        metrics.update(state_probes(*last["state"]))
    metrics.update(forward_probes())
    return {"metrics": metrics, "failures": failures, "spans": tracer.spans,
            "passes": i}


def _med(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(wl, spans, records, plain, traced) -> dict:
    z = wl.size
    per_pass = []
    for i, out in records:
        per_pass.append((i, out, traced[i], layer_self_time(spans, i)))
    m = {}
    chain_call = {"sinusoid": "sinusoid.rjmcmc_run", "muons": "muons.rjmcmc_run_auger"}
    for layer, call in chain_call.items():
        chain_s = _med([call_time(spans, i, call) for i, _, _, _ in per_pass])
        m[f"{layer}.chain_s"] = chain_s
        m[f"{layer}.iter_us"] = 1e6 * chain_s / z["iterations"]
        for move in ("birth", "death", "update"):
            rates = [out["stats"]["accept"].get(move, 0.0) for _, out, _, _ in per_pass]
            m[f"{layer}.accept.{move}"] = _med(rates) if layer == wl.chain_layer else 0.0
    m["sinusoid.singular"] = _med([out["stats"]["singular"] for _, out, _, _ in per_pass])
    fit_s = _med([call_time(spans, i, "fit.sem_fit") for i, _, _, _ in per_pass])
    m["fit.sem_fit_s"] = fit_s
    m["fit.iter_ms"] = 1e3 * fit_s / z["fit_iterations"]
    for key, name in (("samples", "fit.samples"), ("k_groups", "fit.k_groups"),
                      ("fit_accept_rate", "fit.accept_rate"), ("final_L", "fit.final_L"),
                      ("pruned", "fit.pruned"),
                      ("criterion_per_sample", "fit.criterion_per_sample")):
        m[name] = _med([out["stats"][key] for _, out, _, _ in per_pass])
    m["diagnostics.recon_model_s"] = _med(
        [call_time(spans, i, "diagnostics.reconstruct_from_model") for i, *_ in per_pass])
    m["diagnostics.recon_bma_s"] = _med(
        [call_time(spans, i, "diagnostics.reconstruct_bma") for i, *_ in per_pass])
    m["storage.write_s"] = _med(
        [call_time(spans, i, "storage.write_samples") + call_time(spans, i, "storage.write_model")
         for i, *_ in per_pass])
    m["storage.read_s"] = _med(
        [call_time(spans, i, "storage.read_samples") + call_time(spans, i, "storage.read_model")
         for i, *_ in per_pass])
    m["storage.bytes"] = _med([out["stats"].get("bytes", 0) for _, out, _, _ in per_pass])
    rep = [call_time(spans, i, "montecarlo.run_replicate") for i, *_ in per_pass]
    m["montecarlo.replicate_s"] = _med(rep)
    m["montecarlo.replicate_s.max"] = float(max(rep, default=0.0))
    m["montecarlo.failed"] = (len(plain) - len(records)) if wl.name == "replication" else 0
    for layer in ("sinusoid", "muons", "fit", "diagnostics", "storage"):
        m[f"{layer}.share"] = _med([own.get(layer, 0.0) / total
                                    for _, _, total, own in per_pass])
    m["trace.overhead_frac"] = (_med(traced) - _med(plain)) / _med(plain)
    return m


def setup_workload(args, workdir: Path):
    """One untimed smoke-size pass as warm-up, then inputs for every pass.

    The warm-up pass has a fixed seed: its cost, like a pass's, depends on
    the numbers of components the chain visits, and set-up should not vary
    with the run seed.  The timed workload is made last: a replication
    workload wraps names in ``montecarlo`` for itself, and the latest
    wrapping wins.
    """
    make_workload(args.workload, "smoke", WARMUP_SEED, workdir).run_pass(0, NO_TRACE)
    return make_workload(args.workload, "full", args.seed, workdir)


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def smoke(workdir: Path, seed: int) -> dict:
    """Every workload at smoke size, traced and untraced, once each."""
    report = {}
    for name in WORKLOADS:
        wl = make_workload(name, "smoke", seed, workdir)
        _, out0, err0 = _timed_pass(wl, 0, NO_TRACE)
        tracer = Tracer()
        tracer.pass_id = 0
        _, out1, err1 = _timed_pass(wl, 0, tracer)
        bad = _failures(out0, err0) + _failures(out1, err1)
        # at smoke size the chain is too short to recover the truth
        bad = [b for b in bad if b != "truth"]
        if not bad and out0["fingerprint"] != out1["fingerprint"]:
            bad.append("traced pass differs from untraced pass")
        report[name] = {"ok": not bad, "failed": bad, "spans": len(tracer.spans)}
    return report


def crosscheck() -> dict:
    """Stage times at the sizes of the ROADMAP re-anchor table.

    20k chain iterations with 4k burn-in and thinning 1 (16k samples), at
    gate 4's and gate 8's settings and seeds; one measurement each.
    """
    out = {}
    sig = generate_synthetic_signal(
        TONES["k"], TONES["omega"], TONES["energies"], TONES["phases"],
        TONES["snr_db"], TONES["n"], seed=GATE4_NOISE_SEED)
    t = time.perf_counter()
    ss = rjmcmc_run(sig, SinChainConfig(iterations=20_000, burn_in=4_000, thinning=1,
                                        rng_seed=104))
    out["sinusoid chain, 20k iterations"] = time.perf_counter() - t
    t = time.perf_counter()
    sem_fit(ss, FitConfig(iterations=100, averaging_window=50, imh_inner_steps=6, rng_seed=2))
    out["sinusoid sem_fit, 16k samples, 6 inner steps"] = time.perf_counter() - t
    pe = simulate_pe_signal(MUONS, MUON_BINS, seed=GATE8_NOISE_SEED)
    t = time.perf_counter()
    ss = rjmcmc_run_auger(pe, AugerChainConfig(
        iterations=20_000, burn_in=4_000, rng_seed=11, **{**MUON_CHAIN, "thinning": 1}))
    out["muon chain, 20k iterations"] = time.perf_counter() - t
    t = time.perf_counter()
    sem_fit(ss, FitConfig(iterations=100, averaging_window=50, init_rule="fixed",
                          fixed_L=6, rng_seed=0))
    out["muon sem_fit, 16k samples, L=6"] = time.perf_counter() - t
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--mode", choices=("run", "smoke", "crosscheck"), default="run")
    p.add_argument("--workload", choices=WORKLOADS, default=WORKLOADS[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--first-pass", type=int, default=0,
                   help="index of the first untraced pass (its seeds)")
    p.add_argument("--workdir", type=Path, required=True)
    args = p.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.mode == "smoke":
            doc = {"smoke": smoke(args.workdir, args.seed)}
        elif args.mode == "crosscheck":
            doc = {"crosscheck": crosscheck(), "environment": environment()}
        else:
            wl = setup_workload(args, args.workdir)
            doc = {"first_pass_at": time.monotonic()}
            if args.trace:
                doc.update(traced_run(wl, args.seconds))
            else:
                doc.update(untraced_run(wl, args.seconds, args.first_pass))
            doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            doc["environment"] = environment()
            doc["sizes"] = SIZES["full"][args.workload]
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
