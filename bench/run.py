"""transdim benchmark: the full pipeline on three gate-derived workloads.

    python3 bench/run.py --workload sin-gate4 --seed 1 --seconds 33 --trace 0
    python3 bench/run.py --smoke          # all workloads at tiny size, no results
    python3 bench/run.py --crosscheck     # stage times at the ROADMAP table's sizes

Run from the root of a transdim checkout.  The launcher starts each worker
process (``worker.py``) with ``src`` on the import path and BLAS/OpenMP
threads pinned to ``THREADS``; load is one closed-loop client, one pass at a
time.  ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer metrics from a separate traced run.  The timed
end-to-end metrics are scaled to the host's usual speed by a fixed reference
timed after every pass (``REFERENCE_S``).  The last line of standard output
is the result object; the line before it is the run record (fingerprint,
environment, every metric), which is also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sin-gate4", "muon-gate8", "replication")

# BLAS and OpenMP threads of every worker; at most nproc (2 on the machine
# the bounds were set on).
THREADS = 1
# An untraced run splits its measured time evenly over this many worker
# processes, one after another.  setup_s is the median of their start-ups,
# which are thus spread over the whole run rather than its first seconds:
# the host's speed drifts in phases of tens of seconds or more.
WORKERS = 5
WORKER_TIMEOUT_S = 150.0
# Median seconds of one call of worker.reference_work on the host the bounds
# were set on (2 cores of an Intel Xeon).  The timed end-to-end metrics are
# scaled by this over the run's own median, i.e. given in seconds of that
# host at its usual speed: its speed drifted by up to 1.6x over minutes, and
# the fixed reference work drifts with it.
REFERENCE_S = 0.060
CROSSCHECK_TIMEOUT_S = 400.0

# ROADMAP re-anchor table: seconds per stage at 20k chain iterations.
ROADMAP_TABLE = {
    "sinusoid chain, 20k iterations": 5.1,
    "sinusoid sem_fit, 16k samples, 6 inner steps": 35.0,
    "muon chain, 20k iterations": 5.6,
    "muon sem_fit, 16k samples, L=6": 15.2,
}

# Gate 9's tolerance on |chain count - model count| in an interval.
INTERVAL_TOLERANCE = 0.15

# Which end-to-end metric each layer metric should move, where the layer does
# the most work, and where it does little or none.  The percentages are the
# layers' traced ``share`` of a pass, from --trace 1 runs with seeds 1 and 2
# on 2 cores of an Intel Xeon host.
MOVES = {
    "sinusoid.chain_s/iter_us": ("pipeline_s", "replication (55-57%)",
                                 "sin-gate4 (35-38%), muon-gate8 (none)"),
    "sinusoid.lml_us.*": ("pipeline_s", "replication", "muon-gate8"),
    "sinusoid.accept.*, sinusoid.singular": ("none (fingerprint); pk_tv if moved", "replication", "none"),
    "muons.chain_s/iter_us": ("pipeline_s", "muon-gate8 (66-69%)", "sin-gate4, replication (none)"),
    "muons.ebc_us.*, muons.loglik_us": ("pipeline_s", "muon-gate8", "sin-gate4, replication"),
    "muons.accept.*": ("none (fingerprint)", "muon-gate8", "none"),
    "fit.sem_fit_s/iter_ms": ("pipeline_s", "sin-gate4 (56-60%)",
                              "replication (26-28%), muon-gate8 (28-31%)"),
    "fit.estep_ms, fit.mstep_ms": ("pipeline_s, peak_rss_mb", "sin-gate4", "replication"),
    "fit.samples/k_groups/accept_rate/final_L/pruned/criterion_per_sample":
        ("pk_tv, interval_count_gap", "all", "none"),
    "model.draw_us": ("pipeline_s", "replication", "muon-gate8"),
    "diagnostics.recon_model_s/recon_bma_s/pk_us": ("pipeline_s", "replication (17-18%)",
                                                    "muon-gate8 (under 1%)"),
    "storage.write_s/read_s/bytes": ("pipeline_s, setup_s", "muon-gate8 (1.4%)",
                                     "sin-gate4, replication (none)"),
    "montecarlo.replicate_s/.max, montecarlo.failed": ("pipeline_s, failed_frac", "replication", "sin-gate4, muon-gate8"),
    "*.share, trace.overhead_frac": ("explains pipeline_s", "traced run", "none"),
}


def high_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest of p50..p99.9 with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            q = statistics.quantiles(values, n=1000, method="inclusive")
            return f"p{p:g}", q[round(p * 10) - 1]
    return None


def quality_metrics(quality: list[dict]) -> dict:
    """How well the fitted summary agrees with the chain, over all passes
    that passed the output check (1 = perfect agreement)."""
    if not quality:
        return {"pk_agreement": math.nan, "recon_agreement": math.nan,
                "interval_within_frac": math.nan}
    gaps = [abs(a - b) for q in quality for a, b in q["counts"]]
    return {
        "pk_agreement": 1.0 - statistics.median(q["pk_tv"] for q in quality),
        # smaller over larger reconstruction error energy, chain vs model;
        # the mean is steadier than the median here
        "recon_agreement": statistics.mean(
            10.0 ** (-q["recon_gap_db"] / 10.0) for q in quality),
        "interval_within_frac": sum(g <= INTERVAL_TOLERANCE for g in gaps) / len(gaps),
    }


def raw_quality(quality: list[dict]) -> dict:
    """The per-pass gaps themselves; too seed-dependent to bound."""
    if not quality:
        return {}
    return {key: statistics.median(q[key] for q in quality)
            for key in ("pk_tv", "recon_gap_db", "interval_count_gap")}


def worker(args: list[str], env: dict, t0: float | None = None,
           timeout: float = WORKER_TIMEOUT_S) -> dict:
    """Run one worker to completion and parse its last output line."""
    workdir = OUT / f"work-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workdir", str(workdir), *args]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    doc = json.loads(lines[-1])
    if t0 is not None and "first_pass_at" in doc:
        doc["setup_s"] = doc["first_pass_at"] - t0
    return doc


def pinned_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def spec(section: str) -> dict:
    """The metrics BENCHMARK.json lists under ``section``, by name."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in doc[section]}


def with_units(values: dict, section: str) -> dict:
    """Attach each metric's unit; the names must be exactly the listed ones."""
    units = {name: m["unit"] for name, m in spec(section).items()}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {section}: "
                           f"{sorted(set(values) ^ set(units))}")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def untraced(args, env, common: list[str]) -> dict:
    """The run's passes, spread over ``WORKERS`` workers, as one document.

    Each worker gets an equal share of the measured time still left, so that
    one worker's overrun by part of a pass shortens the next one's share.
    """
    docs, first, used = [], 0, 0.0
    for j in range(WORKERS):
        share = max(0.0, args.seconds - used) / (WORKERS - j)
        t0 = time.monotonic()
        doc = worker(["--mode", "run", *common, "--seconds", repr(share),
                      "--trace", "0", "--first-pass", str(first)], env, t0)
        first += len(doc["pass_s"])
        used += sum(doc["pass_s"])
        docs.append(doc)
    return {
        **docs[0],
        "setup_s_all": [d["setup_s"] for d in docs],
        "pass_s": [t for d in docs for t in d["pass_s"]],
        "reference_s": [t for d in docs for t in d["reference_s"]],
        "quality": [q for d in docs for q in d["quality"]],
        "failures": [f for d in docs for f in d["failures"]],
        "peak_rss_mb": max(d["peak_rss_mb"] for d in docs),
    }


def run(args, env) -> int:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        doc = worker(["--mode", "run", *common, "--seconds", str(args.seconds),
                      "--trace", "1"], env)
    else:
        doc = untraced(args, env, common)

    failures = doc["failures"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "threads": THREADS, "load": "closed loop, one client",
        "environment": doc["environment"], "sizes": doc["sizes"],
        "failures": failures, "moves": MOVES,
    }
    if args.trace:
        attempted = doc["passes"]
        shown = with_units(doc["metrics"], "per_layer")
        record["spans"] = len(doc["spans"])
    else:
        passes = doc["pass_s"]
        attempted = len(passes)
        wall = {"pipeline_s": statistics.median(passes),
                "setup_s": statistics.median(doc["setup_s_all"])}
        host_speed = REFERENCE_S / statistics.median(doc["reference_s"])
        values = {name: v * host_speed for name, v in wall.items()}
        values["peak_rss_mb"] = doc["peak_rss_mb"]
        values.update(quality_metrics(doc["quality"]))
        shown = with_units(values, "end_to_end")
        record.update({
            "wall": wall,
            "host_speed": host_speed,
            "reference_s": doc["reference_s"],
            "pipeline_s": {"median": values["pipeline_s"], "n": attempted,
                           "wall_median": wall["pipeline_s"],
                           "wall_high": high_percentile(passes), "wall_all": passes},
            "setup_s_all": doc["setup_s_all"],
            "failed_frac": len(failures) / attempted,
            "quality_raw": raw_quality(doc["quality"]),
            "fingerprint": doc["fingerprint"],
        })
    record["metrics"] = shown

    for name, m in shown.items():
        print(f"{name:30s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'failed_frac':30s} {record['failed_frac']:.6g} frac "
              f"({len(failures)} of {attempted} passes)")
        hp = record["pipeline_s"]["wall_high"]
        print(f"{'pipeline_s samples':30s} {attempted}; wall median {wall['pipeline_s']:.6g} s; "
              "high percentile: "
              + (f"{hp[0]} = {hp[1]:.6g} s" if hp else "none (fewer than 20 passes)"))
        print(f"{'setup_s wall':30s} {wall['setup_s']:.6g} s")
        print(f"{'host speed':30s} {host_speed:.6g} (reference {REFERENCE_S} s over "
              "the run's median)")
        for name, v in record["quality_raw"].items():
            print(f"{name:30s} {v:.6g} (median over passes, not gated)")
        fp = doc["fingerprint"]
        print(f"{'fingerprint digest':30s} {fp['digest'] if fp else '-'} (pass 0)")
    for f in failures:
        print(f"FAILED pass {f['pass']}: {', '.join(f['failed'])}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(doc["spans"]) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": shown}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, default="sin-gate4")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=33.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at tiny size; check wiring, record nothing")
    p.add_argument("--crosscheck", action="store_true",
                   help="time the stages at the sizes of the ROADMAP re-anchor table")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "transdim" / "__init__.py").is_file():
        print(f"error: no transdim sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    env = pinned_env()
    try:
        if args.smoke:
            report = worker(["--mode", "smoke", "--seed", str(args.seed)], env)["smoke"]
            for name, r in report.items():
                print(f"{name:12s} {'ok' if r['ok'] else 'FAILED: ' + ', '.join(r['failed'])}"
                      f" ({r['spans']} spans)")
            return 0 if all(r["ok"] for r in report.values()) else 1
        if args.crosscheck:
            return crosscheck(env)
        return run(args, env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def crosscheck(env) -> int:
    """Compare stage times with the ROADMAP re-anchor table (2 cores,
    Python 3.11.7, numpy 2.4.6, scipy 1.17.1)."""
    doc = worker(["--mode", "crosscheck"], env, timeout=CROSSCHECK_TIMEOUT_S)
    bound = spec("end_to_end")["pipeline_s"]["bound"]
    for stage, seconds in doc["crosscheck"].items():
        ref = ROADMAP_TABLE[stage]
        ratio = seconds / ref
        verdict = "reproduces" if abs(ratio - 1.0) <= bound else "does not reproduce"
        print(f"{stage:46s} {seconds:7.2f} s  table {ref:5.1f} s  ratio {ratio:.2f}  "
              f"{verdict} within {bound:.0%}")
    print(json.dumps({"environment": doc["environment"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
