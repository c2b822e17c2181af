"""Planted defects, replayed: each row plants one defect in a copy of
``src/`` and names the tests that must then fail.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py          # every row
    python tests/mutants.py ID ...   # the rows named

A row is killed when every test it names fails (or errors) with its defect
planted.  The run exits 1 if a row's old text is not found exactly once in
its file (the code moved on: update the row with it), if a row's tests do
not all fail, or if pytest cannot run them; else 0.  Standard library only,
and not collected by pytest (the file name does not start with ``test_``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    id: str
    file: str  # under src/transdim
    old: str  # found exactly once in the file
    new: str
    tests: tuple  # pytest node ids, relative to the repository root


MUTANTS = (
    # the muon chain's default start: one muon carrying the whole count,
    # which above a_max lies outside the amplitude prior
    Mutant("muon-start-above-a-max", "muons.py",
           "min(total, config.a_max)", "float(total)",
           ("tests/test_muons.py::test_default_start_lies_inside_the_amplitude_prior",)),
    # the engine's starting-state box check, shared by both samplers
    Mutant("engine-start-box-unchecked", "rjmcmc.py",
           "if not np.all(chain.space.contains(chain.state[0][:, :chain.space.dim])):",
           "if False:",
           ("tests/test_rjmcmc.py::test_the_engine_refuses_a_start_outside_the_box[sinusoid-0-4.0]",
            "tests/test_rjmcmc.py::test_the_engine_refuses_a_start_outside_the_box[muons-1-10000.0]")),
    # a model file with a huge finite lam: p(k) and the clutter draws would
    # not fit in memory, and report crashed with a traceback
    Mutant("model-lam-unbounded", "model.py",
           "if not 0.0 <= self.lam <= LAM_MAX:", "if not 0.0 <= self.lam < math.inf:",
           ("tests/test_cli.py::test_report_huge_lam_is_data_error[summary-1e12]",
            "tests/test_cli.py::test_report_huge_lam_is_data_error[summary-1e300]",
            "tests/test_cli.py::test_report_huge_lam_is_data_error[reconstruction-1e12]",
            "tests/test_cli.py::test_report_huge_lam_is_data_error[reconstruction-1e300]")),
    # a delta2 held fixed by the config but refreshed all the same
    Mutant("sin-fixed-delta2-refreshed", "sinusoid.py",
           "if cfg.delta2 is None:", "if True:",
           ("tests/test_cli.py::test_fixed_hyperparameter_options_are_the_config_fields",
            "tests/test_golden_chains.py::test_samplers_reproduce_recorded_chains[sin-fixed-hyper]")),
    # the truncated Poisson normaliser without its last term, j = k_max
    Mutant("normaliser-drops-last-term", "sinusoid.py",
           "for j in range(top + 1, k_max + 1):", "for j in range(top + 1, k_max):",
           ("tests/test_sinusoid.py::test_normaliser_matches_the_exact_rational_sum",)),
    # the design gathered from the rows as a strided view, not a C-ordered copy
    Mutant("data-part-design-view", "sinusoid.py",
           ".transpose(2, 0, 1).copy().reshape(N, 2 * k)", ".transpose(2, 0, 1).reshape(N, 2 * k)",
           tuple("tests/test_sinusoid.py::"
                 f"test_data_part_on_rows_makes_the_design_matrix_calls_bit_for_bit[{case}]"
                 for case in ("1-64", "1-1000"))),
    # the E-step's log-sum-exp over the first 8 labels only
    Mutant("logsumexp-first-8-labels", "fit.py",
           "np.log(np.exp(w - top).sum(axis=0)) + top", "np.log(np.exp(w[:8] - top).sum(axis=0)) + top",
           tuple(f"tests/test_fit.py::test_batched_estep_matches_per_group_reference_at_ten_labels[{case}]"
                 for case in ("0.5-1", "0.5-3", "0.0-1", "0.0-3"))),
    # an M-step that leaves a coordinate at the variance floor
    Mutant("mstep-keeps-the-floor", "fit.py",
           "sigma2 = _lift_variances(sigma2, sigma2 == SIGMA2_FLOOR, pts, L)", "pass",
           ("tests/test_fit.py::test_mstep_lifts_a_floored_variance_to_the_all_points_floor",)),
    # a muon update sweep that draws one normal column too many
    Mutant("muon-sweep-extra-normals", "muons.py",
           "self.rng.standard_normal((2, len(start)))", "self.rng.standard_normal((2, len(start) + 1))",
           ("tests/test_rjmcmc.py::test_an_update_at_k_zero_draws_only_the_move[muons]",)),
    # the birth without the 1/(k + 1) of the uniform death pick
    Mutant("engine-birth-without-k-factor", "rjmcmc.py",
           "math.log(chain.rate) - math.log(k + 1) + log_db", "math.log(chain.rate) + log_db",
           ("tests/test_rjmcmc.py::test_muon_sampler_keeps_the_prior_under_successive_conditional_draws",)),
)


def _failed_node_ids(output: str) -> set:
    """The node ids pytest's short summary (``-rfE``) lists as failed or errored."""
    ids = set()
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                ids.add(line[len(tag):].split(" - ")[0].strip())
    return ids


def run(mutant: Mutant, scratch: Path) -> str | None:
    """Plant ``mutant`` in a fresh copy of src/ and run its tests; None when
    it is killed, else what went wrong."""
    src = scratch / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "transdim" / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return f"old text found {text.count(mutant.old)} times in {mutant.file}, expected once"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    path_entries = [str(src), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_entries)),
           "PYTHONDONTWRITEBYTECODE": "1"}
    probe = subprocess.run([sys.executable, "-c", "import transdim; print(transdim.__file__)"],
                           env=env, cwd=ROOT, capture_output=True, text=True)
    if not probe.stdout.startswith(str(src)):
        return f"transdim imports from {probe.stdout.strip() or probe.stderr.strip()}, not the copy"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                           *mutant.tests], env=env, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        return f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
    survived = [t for t in mutant.tests if t not in _failed_node_ids(proc.stdout)]
    return f"these tests passed: {survived}" if survived else None


def main(argv: list[str]) -> int:
    rows = [m for m in MUTANTS if not argv or m.id in argv]
    unknown = set(argv) - {m.id for m in MUTANTS}
    if unknown:
        print(f"unknown mutant ids: {sorted(unknown)}", file=sys.stderr)
        return 1
    bad = 0
    with tempfile.TemporaryDirectory(prefix="transdim-mutants-") as tmp:
        for mutant in rows:
            t = time.perf_counter()
            problem = run(mutant, Path(tmp))
            bad += problem is not None
            verdict = "killed" if problem is None else f"NOT KILLED: {problem}"
            print(f"{mutant.id}: {verdict} ({time.perf_counter() - t:.1f} s)", flush=True)
    print(f"{len(rows) - bad} of {len(rows)} planted defects killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
