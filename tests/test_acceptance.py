"""End-to-end acceptance gates.

Ten checks covering the whole package: generative/labeled densities,
allocation-step stationarity, model recovery, both samplers at full scale,
the closed-form oracles, the replication harness, and determinism.  Each
test prints one PASS/FAIL line (bypassing capture) with its key numbers
and wall time.
"""

import math
import time

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln, logsumexp

from transdim import cli
from transdim.diagnostics import approx_posterior_k
from transdim.fit import FitConfig, imh_batch_step, sem_fit
from transdim.model import (
    ApproxModel,
    GaussianComponent,
    ParamSpace,
    SampleSet,
    sample_batch_from_model,
)
from transdim.montecarlo import MonteCarloConfig, run_monte_carlo
from transdim.muons import (
    AugerChainConfig,
    PECountSignal,
    PulseShape,
    expected_bin_counts,
    rjmcmc_run_auger,
    simulate_pe_signal,
)
from transdim.oracle import (
    exact_allocation_log_posterior,
    gate_count_law,
    labeled_joint_log_density,
    pulse_bin_quadrature,
    quadrature_log_marginal,
    unlabeled_log_density,
)
from transdim.sinusoid import (
    SinChainConfig,
    generate_synthetic_signal,
    log_target_marginal,
    rjmcmc_run,
)

pytestmark = pytest.mark.acceptance


def _gate(capsys, num, ok, detail, elapsed, limit):
    ok = bool(ok) and elapsed <= limit
    line = (f"[acceptance {num}/10] {'PASS' if ok else 'FAIL'}: {detail} "
            f"({elapsed:.1f}s, limit {limit:.0f}s)")
    with capsys.disabled():
        print(f"\n{line}", flush=True)
    assert ok, line


def _reference_model():
    """Two gated components plus a busy outlier process on [0, 1]."""
    return ApproxModel(
        ParamSpace(np.array([[0.0, 1.0]])),
        [
            GaussianComponent(np.array([0.3]), np.array([0.004]), 0.7),
            GaussianComponent(np.array([0.7]), np.array([0.009]), 0.5),
        ],
        0.4,
    )


# ---------------------------------------------------------------------------
# 1. labeled density vs generative Monte Carlo
# ---------------------------------------------------------------------------


def test_labeled_density_matches_generative_draws(capsys):
    t0 = time.perf_counter()
    model = _reference_model()
    n = 1_000_000
    nodes, weights = leggauss(12)

    def mass_1d(a, b, f):
        x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        return 0.5 * (b - a) * float(np.dot(weights, [f(v) for v in x]))

    def mass_2d(ax, bx, ay, by, f):
        xs = 0.5 * (bx - ax) * nodes + 0.5 * (ax + bx)
        ys = 0.5 * (by - ay) * nodes + 0.5 * (ay + by)
        total = 0.0
        for wx, xv in zip(weights, xs):
            for wy, yv in zip(weights, ys):
                total += wx * wy * f(xv, yv)
        return 0.25 * (bx - ax) * (by - ay) * total

    def f_sum(v):
        return math.exp(unlabeled_log_density(np.array([[v]]), model))

    def f_lab(v, lab):
        return math.exp(labeled_joint_log_density(np.array([[v]]), [lab], model))

    def f_pair(a, b):
        return math.exp(unlabeled_log_density(np.array([[a], [b]]), model))

    pts, labs = sample_batch_from_model(model, n, np.random.default_rng(4))
    ks = np.fromiter((p.shape[0] for p in pts), dtype=np.int64, count=n)

    # empty-sample cell
    p0 = math.exp(unlabeled_log_density(np.zeros((0, 1)), model))
    worst = abs(np.mean(ks == 0) - p0) / math.sqrt(p0 * (1 - p0) / n)
    cells = 1

    # k = 1: twenty bins, once marginalized over allocations and once per label
    edges = np.linspace(0.0, 1.0, 21)
    x1 = np.array([p[0, 0] for p, k in zip(pts, ks) if k == 1])
    z1 = np.array([l[0] for l, k in zip(labs, ks) if k == 1])
    for lab in (0, 1, 2, 3):
        sel = x1 if lab == 0 else x1[z1 == lab]
        counts, _ = np.histogram(sel, edges)
        f = f_sum if lab == 0 else (lambda v, lab=lab: f_lab(v, lab))
        for i in range(20):
            pm = mass_1d(edges[i], edges[i + 1], f)
            se = math.sqrt(pm * (1 - pm) / n)
            worst = max(worst, abs(counts[i] / n - pm) / se)
            cells += 1

    # k = 2: allocation-summed density on the (min, max) representation
    edges2 = np.linspace(0.0, 1.0, 11)
    x2 = np.array([np.sort(p[:, 0]) for p, k in zip(pts, ks) if k == 2])
    idx = np.minimum(np.searchsorted(edges2, x2, side="right") - 1, 9)
    for i in range(10):
        for j in range(i, 10):
            c = int(np.sum((idx[:, 0] == i) & (idx[:, 1] == j)))
            pm = mass_2d(edges2[i], edges2[i + 1], edges2[j], edges2[j + 1], f_pair)
            if i != j:
                pm *= 2.0  # both orderings land in the sorted cell
            se = math.sqrt(pm * (1 - pm) / n)
            worst = max(worst, abs(c / n - pm) / se if se > 0
                        else (0.0 if c == 0 else math.inf))
            cells += 1

    _gate(capsys, 1, worst < 3.0,
          f"labeled/unlabeled density vs 1e6 draws: worst |z| = {worst:.2f} "
          f"over {cells} cells (need < 3)",
          time.perf_counter() - t0, 60.0)


# ---------------------------------------------------------------------------
# 2. allocation-step stationarity
# ---------------------------------------------------------------------------


def test_allocation_transitions_preserve_exact_conditional(capsys):
    t0 = time.perf_counter()
    model = _reference_model()
    x = np.array([[0.32], [0.68]])
    zs, logp = exact_allocation_log_posterior(x, model)
    exact = {z: math.exp(v) for z, v in zip(zs, logp)}

    chains, steps = 100, 1000
    rng = np.random.default_rng(7)
    labels = np.full((chains, 2), 3, dtype=np.int64)  # start everything outlier
    points = np.repeat(x[None], chains, axis=0)
    counts = {}
    for _ in range(steps):
        labels, _, _ = imh_batch_step(points, labels, model, rng)
        for row in labels:
            key = (int(row[0]), int(row[1]))
            counts[key] = counts.get(key, 0) + 1
    total = chains * steps
    tv = 0.5 * sum(abs(counts.get(z, 0) / total - p) for z, p in exact.items())

    _gate(capsys, 2, tv < 0.02,
          f"allocation chain vs enumerated conditional: TV = {tv:.4f} "
          f"after {total} transitions (need < 0.02)",
          time.perf_counter() - t0, 30.0)


# ---------------------------------------------------------------------------
# 3. recovery of a known generative model
# ---------------------------------------------------------------------------


def test_fit_recovers_known_model_across_seeds(capsys):
    t0 = time.perf_counter()
    space = ParamSpace(np.array([[0.0, 1.0]]))
    truth = ApproxModel(
        space,
        [
            GaussianComponent(np.array([0.3]), np.array([0.0004]), 0.9),
            GaussianComponent(np.array([0.7]), np.array([0.0009]), 0.5),
        ],
        0.2,
    )
    passes = 0
    for seed in range(10):
        pts, _ = sample_batch_from_model(truth, 20_000, np.random.default_rng(seed))
        ss = SampleSet.ingest(space, pts, {"sampler": "generative"})
        res = sem_fit(ss, FitConfig(iterations=60, averaging_window=30,
                                    rng_seed=seed + 100))
        m = res.model
        if m.L != 2:
            continue
        order = np.argsort(m.mus()[:, 0])
        mus = m.mus()[order, 0]
        pis = m.pis()[order]
        passes += (
            abs(mus[0] - 0.3) <= 0.02 and abs(mus[1] - 0.7) <= 0.02
            and abs(pis[0] - 0.9) <= 0.05 and abs(pis[1] - 0.5) <= 0.05
            and abs(m.lam - 0.2) <= 0.1
        )
    _gate(capsys, 3, passes >= 9,
          f"20k-draw recovery (mu +-0.02, pi +-0.05, lam +-0.1): "
          f"{passes}/10 seeds (need >= 9)",
          time.perf_counter() - t0, 120.0)


# ---------------------------------------------------------------------------
# 4. three-sinusoid experiment at full scale
# ---------------------------------------------------------------------------


def test_sinusoid_experiment_full_scale(capsys):
    t0 = time.perf_counter()
    sig = generate_synthetic_signal(
        3, [0.63, 0.68, 0.73], [20.0, 6.32, 20.0],
        [0.0, math.pi / 4, math.pi / 3], 7.0, 64, seed=4,
    )
    cfg = SinChainConfig(iterations=100_000, burn_in=20_000, thinning=1,
                         rng_seed=104)
    ss = rjmcmc_run(sig, cfg)
    pk = ss.empirical_posterior_k()
    mass = float(pk[2:5].sum()) if pk.size > 2 else 0.0

    res = sem_fit(ss, FitConfig(iterations=100, averaging_window=50,
                                imh_inner_steps=6, rng_seed=2))
    m = res.model
    crit = res.trace.criteria
    drift = abs(crit[99] - crit[49]) / abs(crit[49])

    outer_lo = any(abs(c.mu[0] - 0.63) <= 0.03 and c.pi > 0.85 for c in m.components)
    outer_hi = any(abs(c.mu[0] - 0.73) <= 0.03 and c.pi > 0.85 for c in m.components)
    middle = any(abs(c.mu[0] - 0.68) <= 0.03 and 0.05 <= c.pi <= 0.9
                 for c in m.components)
    ok = mass >= 0.9 and outer_lo and outer_hi and middle and drift < 0.01

    comps = ", ".join(f"({c.mu[0]:.3f}, pi={c.pi:.2f})" for c in m.components)
    _gate(capsys, 4, ok,
          f"p(2<=k<=4|y) = {mass:.3f} (need >= 0.9); components {comps}; "
          f"criterion drift iters 50->100 = {drift:.4f} (need < 0.01)",
          time.perf_counter() - t0, 600.0)


# ---------------------------------------------------------------------------
# 5. component-count posterior of the fitted family
# ---------------------------------------------------------------------------


def test_component_count_posterior_exact_and_sampled(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    space = ParamSpace(np.array([[0.0, 1.0]]))
    mus = rng.uniform(0.1, 0.9, size=10)
    pis = rng.uniform(0.05, 0.95, size=10)
    gates_only = ApproxModel(
        space,
        [GaussianComponent(np.array([m]), np.array([0.01]), p)
         for m, p in zip(mus, pis)],
        0.0,
    )
    p = approx_posterior_k(gates_only)
    exact_dev = float(np.abs(p[:11] - gate_count_law(pis)).max())

    with_pp = ApproxModel(
        space,
        [
            GaussianComponent(np.array([0.2]), np.array([0.01]), 0.85),
            GaussianComponent(np.array([0.5]), np.array([0.02]), 0.35),
            GaussianComponent(np.array([0.8]), np.array([0.005]), 0.6),
        ],
        1.7,
    )
    pk = approx_posterior_k(with_pp)
    n = 200_000
    pts, _ = sample_batch_from_model(with_pp, n, np.random.default_rng(11))
    ks = np.fromiter((q.shape[0] for q in pts), dtype=np.int64, count=n)
    emp = np.bincount(ks, minlength=pk.size) / n
    worst = 0.0
    for k in range(max(emp.size, pk.size)):
        pm = pk[k] if k < pk.size else 0.0
        se = math.sqrt(pm * (1 - pm) / n)
        e = emp[k] if k < emp.size else 0.0
        if se > 0:
            worst = max(worst, abs(e - pm) / se)

    _gate(capsys, 5, exact_dev <= 1e-12 and worst < 3.0,
          f"k-posterior: enumeration dev {exact_dev:.1e} (need <= 1e-12), "
          f"Monte Carlo worst |z| = {worst:.2f} (need < 3)",
          time.perf_counter() - t0, 60.0)


# ---------------------------------------------------------------------------
# 6. frequency-marginal oracle
# ---------------------------------------------------------------------------


def test_frequency_marginal_matches_quadrature_on_five_signals(capsys):
    t0 = time.perf_counter()
    delta2, rate, k_max = 8.0, 3.0, 20

    def log_k_prior_oracle(k):
        j = np.arange(k_max + 1)
        series = logsumexp(j * math.log(rate) - gammaln(j + 1))
        return k * math.log(rate) - float(gammaln(k + 1)) - float(series) \
            - k * math.log(math.pi)

    worst = 0.0
    for seed in range(5):
        r = np.random.default_rng(seed)
        w = float(r.uniform(0.3, 2.8))
        en = float(r.uniform(2.0, 9.0))
        ph = float(r.uniform(0.0, 2 * math.pi))
        sig = generate_synthetic_signal(1, [w], [en], [ph], 7.0, 8, seed=seed + 50)
        got = log_target_marginal(1, [w], sig.y, delta2, rate, k_max)
        N = sig.y.size
        # remove the likelihood constants, attach the k-prior
        ref = quadrature_log_marginal(sig.y, w, delta2) - float(gammaln(N / 2)) \
            + (N / 2) * math.log(math.pi) + log_k_prior_oracle(1)
        worst = max(worst, abs(got - ref))

    _gate(capsys, 6, worst <= 1e-3,
          f"marginal target vs 3-d quadrature on 5 signals: "
          f"max |diff| = {worst:.2e} (need <= 1e-3)",
          time.perf_counter() - t0, 60.0)


# ---------------------------------------------------------------------------
# 7. photoelectron forward model
# ---------------------------------------------------------------------------


def test_expected_counts_match_adaptive_quadrature(capsys):
    t0 = time.perf_counter()
    shape = PulseShape()
    muons = [(52.0, 7.5), (121.5, 3.0), (260.0, 12.0)]
    n_bins = 54  # 54 bins of 25 ns: past 20 decay times
    sig = PECountSignal(np.zeros(n_bins, dtype=np.int64))
    out = expected_bin_counts(muons, sig, shape)
    ref = pulse_bin_quadrature(muons, sig.edges(), shape)
    worst = 0.0
    for i in range(n_bins):
        if ref[i] > 0:
            worst = max(worst, abs(out[i] - ref[i]) / ref[i])
    total = float(out.sum())
    amp_sum = sum(a for _, a in muons)
    total_rel = abs(total - amp_sum) / amp_sum

    _gate(capsys, 7, worst <= 1e-8 and total_rel <= 1e-6,
          f"binned means vs quadrature: worst per-bin rel {worst:.1e} "
          f"(need <= 1e-8); total {total:.6f} vs {amp_sum} rel {total_rel:.1e} "
          f"(need <= 1e-6)",
          time.perf_counter() - t0, 60.0)


# ---------------------------------------------------------------------------
# 8. five-muon experiment at full scale
# ---------------------------------------------------------------------------


def test_muon_experiment_full_scale(capsys):
    t0 = time.perf_counter()
    muons = [(105.0, 50.0), (169.0, 45.0), (267.0, 40.0), (268.0, 40.0),
             (498.0, 50.0)]
    sig = simulate_pe_signal(muons, 30, seed=22)
    cfg = AugerChainConfig(
        iterations=100_000, burn_in=20_000, thinning=5,
        rate=1.0, amp_alpha=2.0, amp_beta=0.05, rng_seed=11,
    )
    ss = rjmcmc_run_auger(sig, cfg)
    pk = ss.empirical_posterior_k()
    mass = float(pk[4:7].sum()) if pk.size > 4 else 0.0

    res = sem_fit(ss, FitConfig(iterations=100, averaging_window=50,
                                init_rule="fixed", fixed_L=6, rng_seed=0))
    strong = sum(c.pi > 0.7 for c in res.model.components)
    arrivals = ", ".join(f"{c.mu[0]:.0f}" for c in res.model.components
                         if c.pi > 0.7)

    _gate(capsys, 8, mass >= 0.7 and strong >= 4,
          f"5-muon run: posterior mass on k in 4..6 = {mass:.3f} (need >= 0.7); "
          f"{strong} components with pi > 0.7 at t = [{arrivals}] (need >= 4)",
          time.perf_counter() - t0, 600.0)


# ---------------------------------------------------------------------------
# 9. replication harness at reduced scale
# ---------------------------------------------------------------------------


def test_replication_harness_model_vs_chain(capsys):
    t0 = time.perf_counter()
    cfg = MonteCarloConfig(
        replicates=20,
        master_seed=2026,
        chain={"iterations": 20_000, "burn_in": 4_000, "thinning": 5},
        fit={"iterations": 100, "averaging_window": 50},
        reconstruction_draws=10_000,
    )
    rows = run_monte_carlo(cfg)
    ok_rows = [r for r in rows if r["status"] == "ok"]
    gaps = np.array([abs(r["recon_bma_db"] - r["recon_model_db"]) for r in ok_rows])
    lo = np.array([abs(r["count_low_chain"] - r["count_low_model"]) for r in ok_rows])
    hi = np.array([abs(r["count_high_chain"] - r["count_high_model"])
                   for r in ok_rows])
    gap_med = float(np.median(gaps))
    frac_lo = float(np.mean(lo <= 0.15))
    frac_hi = float(np.mean(hi <= 0.15))
    ok = (len(ok_rows) == 20 and gap_med <= 1.0
          and frac_lo >= 0.8 and frac_hi >= 0.8)

    _gate(capsys, 9, ok,
          f"20 replicates: median reconstruction gap {gap_med:.2f} dB "
          f"(need <= 1); interval counts within 0.15 in "
          f"{frac_lo:.0%}/{frac_hi:.0%} of runs (need >= 80%)",
          time.perf_counter() - t0, 1800.0)


# ---------------------------------------------------------------------------
# 10. determinism of every stochastic command
# ---------------------------------------------------------------------------


def test_stochastic_commands_are_bit_reproducible(capsys, tmp_path):
    t0 = time.perf_counter()
    checked = []

    def twice(name, argv_fn, outputs):
        for run in ("x", "y"):
            d = tmp_path / f"{name}_{run}"
            d.mkdir()
            assert cli.main(argv_fn(d)) == 0
        for rel in outputs:
            a = (tmp_path / f"{name}_x" / rel).read_bytes()
            b = (tmp_path / f"{name}_y" / rel).read_bytes()
            checked.append((f"{name}/{rel}", a == b))

    twice(
        "sin",
        lambda d: ["simulate-sin", "--seed", "9", "--out", str(d / "s.samples"),
                   "--signal-out", str(d / "sig.json"), "--iterations", "2000",
                   "--burn-in", "400", "--rw-step", "0.05"],
        ["s.samples", "sig.json"],
    )
    twice(
        "auger",
        lambda d: ["simulate-auger", "--seed", "9", "--muon", "150:60",
                   "--muon", "400:50", "--out", str(d / "a.samples"),
                   "--signal-out", str(d / "a.csv"), "--iterations", "2000",
                   "--burn-in", "400"],
        ["a.samples", "a.csv"],
    )

    base = tmp_path / "sin_x"
    twice(
        "fit",
        lambda d: ["fit", "--samples", str(base / "s.samples"), "--seed", "5",
                   "--out", str(d / "m.json"), "--trace-out", str(d / "t.csv"),
                   "--iterations", "14", "--window", "7"],
        ["m.json", "t.csv"],
    )
    twice(
        "fit6",
        lambda d: ["fit", "--samples", str(base / "s.samples"), "--seed", "5",
                   "--out", str(d / "m.json"), "--trace-out", str(d / "t.csv"),
                   "--iterations", "14", "--window", "7", "--inner-steps", "6"],
        ["m.json", "t.csv"],
    )
    model = tmp_path / "fit_x" / "m.json"
    twice(
        "report",
        lambda d: ["report", "--model", str(model),
                   "--samples", str(base / "s.samples"), "--outdir", str(d / "r"),
                   "--interval", "0.5:0.8", "--signal", str(base / "sig.json"),
                   "--seed", "6", "--draws", "600"],
        ["r/report.json", "r/pk.csv", "r/intensity.csv", "r/histogram.csv",
         "r/reconstruction.csv"],
    )
    twice(
        "montecarlo",
        lambda d: ["montecarlo", "--seed", "77", "--out", str(d / "mc.csv"),
                   "--replicates", "2", "--iterations", "2000", "--burn-in",
                   "400", "--draws", "300"],
        ["mc.csv"],
    )

    bad = [name for name, same in checked if not same]
    _gate(capsys, 10, not bad,
          f"{len(checked)} outputs from 5 commands byte-identical across "
          f"repeat runs" + (f"; mismatches: {bad}" if bad else ""),
          time.perf_counter() - t0, 300.0)
