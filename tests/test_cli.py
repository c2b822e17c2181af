"""Command-line entry points and the replication harness.

Everything runs in-process through cli.main(argv) so exit codes and file
outputs can be asserted without subprocesses, apart from the runs that
check that a command ends, which run in a subprocess under a timeout.
Chains here are short; the point is wiring, not inference quality.
"""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import transdim
from transdim import cli, diagnostics, montecarlo
from transdim.fit import FitConfig, sem_fit
from transdim.model import ApproxModel, GaussianComponent, ModelError, ParamSpace, SampleSet
from transdim.muons import AugerChainConfig, rjmcmc_run_auger, simulate_pe_signal
from transdim.sinusoid import SinChainConfig, generate_synthetic_signal, rjmcmc_run
from transdim.storage import read_model, read_samples, spawn_seeds, write_model, write_samples

SIN_FAST = [
    "--iterations", "3000", "--burn-in", "600", "--thinning", "2",
    "--rw-step", "0.05",
]


@pytest.fixture(scope="module")
def sin_run(tmp_path_factory):
    """One short simulate-sin run shared by the downstream command tests."""
    root = tmp_path_factory.mktemp("sinrun")
    samples = root / "draws.samples"
    signal = root / "signal.json"
    rc = cli.main(
        ["simulate-sin", "--seed", "3", "--out", str(samples),
         "--signal-out", str(signal)] + SIN_FAST
    )
    assert rc == 0
    model = root / "model.json"
    rc = cli.main(
        ["fit", "--samples", str(samples), "--seed", "4", "--out", str(model),
         "--iterations", "20", "--window", "10"]
    )
    assert rc == 0
    return root


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_no_arguments_is_usage_error():
    assert cli.main([]) == 1


def test_unknown_subcommand_is_usage_error():
    assert cli.main(["frobnicate"]) == 1


def test_missing_required_seed_is_usage_error(tmp_path):
    assert cli.main(["simulate-sin", "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize(
    "command", ["simulate-sin", "simulate-auger", "fit", "report", "montecarlo", "oracle"]
)
def test_negative_seed_is_data_error(sin_run, tmp_path, capsys, command):
    out = str(tmp_path / "out")
    rest = {
        "simulate-sin": ["--out", out] + SIN_FAST,
        "simulate-auger": ["--out", out, "--muon", "105:50", "--iterations", "300",
                           "--burn-in", "100"],
        "fit": ["--samples", str(sin_run / "draws.samples"), "--out", out],
        "report": ["--model", str(sin_run / "model.json"),
                   "--samples", str(sin_run / "draws.samples"), "--outdir", out,
                   "--signal", str(sin_run / "signal.json"), "--draws", "100"],
        "montecarlo": ["--out", out, "--replicates", "1", "--iterations", "300",
                       "--burn-in", "100"],
        "oracle": [],
    }[command]
    assert cli.main([command, "--seed", "-1"] + rest) == 2
    assert "--seed must be a nonnegative integer" in capsys.readouterr().err


def _montecarlo_config(rng_seed):
    return montecarlo.MonteCarloConfig(master_seed=rng_seed, replicates=1)


@pytest.mark.parametrize("build, seed", [
    (FitConfig, -1), (SinChainConfig, -1), (AugerChainConfig, -1), (_montecarlo_config, -1),
    (SinChainConfig, 1.5), (FitConfig, "3"), (FitConfig, None),
], ids=["fit-negative", "sin-negative", "auger-negative", "montecarlo-negative",
        "sin-float", "fit-string", "fit-none"])
def test_library_configs_reject_seeds_numpy_refuses(build, seed):
    with pytest.raises(ModelError, match="seed"):
        build(rng_seed=seed)


@pytest.mark.parametrize("delta2", ["NaN", "Infinity", "-1", "-0.5", "0"])
def test_report_signal_with_bad_mean_delta2_is_data_error(sin_run, tmp_path, capsys, delta2):
    # a samples file read back can carry any number as its mean delta2
    lines = (sin_run / "draws.samples").read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["provenance"]["extras"]["mean_delta2"] = float(delta2)
    samples = tmp_path / "bad.samples"
    samples.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    rc = cli.main(["report", "--model", str(sin_run / "model.json"), "--samples", str(samples),
                   "--outdir", str(tmp_path / "out"), "--signal", str(sin_run / "signal.json"),
                   "--draws", "100", "--seed", "1"])
    assert rc == 2
    assert "delta2" in capsys.readouterr().err


def test_bad_samples_file_is_data_error(tmp_path):
    bad = tmp_path / "bad.samples"
    bad.write_text("definitely not a header\n")
    rc = cli.main(["fit", "--samples", str(bad), "--seed", "1",
                   "--out", str(tmp_path / "m.json")])
    assert rc == 2


def test_missing_input_file_is_data_error(tmp_path):
    rc = cli.main(["fit", "--samples", str(tmp_path / "nope"), "--seed", "1",
                   "--out", str(tmp_path / "m.json")])
    assert rc == 2


@pytest.mark.parametrize("kind", ["binary", "directory"])
def test_unreadable_samples_file_is_data_error(tmp_path, kind):
    path = tmp_path / "in.samples"
    if kind == "binary":
        path.write_bytes(b"\xff\xfe\x00 not utf-8\n")
    else:
        path.mkdir()
    rc = cli.main(["fit", "--samples", str(path), "--seed", "1",
                   "--out", str(tmp_path / "m.json")])
    assert rc == 2


def test_bad_muon_spec_is_data_error(tmp_path):
    rc = cli.main(["simulate-auger", "--seed", "1", "--muon", "oops",
                   "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize("muon", ["nan:50", "inf:50", "100:nan", "100:inf"])
def test_non_finite_muon_is_data_error(tmp_path, capsys, muon):
    # a non-finite arrival silently dropped the muon; a non-finite amplitude
    # ended in a numpy traceback
    out = tmp_path / "x"
    rc = cli.main(["simulate-auger", "--seed", "1", "--muon", muon, "--out", str(out)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("geometry", ["--t0=nan", "--t0=-inf", "--t-delta=inf"])
def test_non_finite_trace_geometry_is_data_error(tmp_path, capsys, geometry):
    # the bin means came out non-finite and the Poisson draw ended in a
    # numpy traceback
    out = tmp_path / "x"
    rc = cli.main(["simulate-auger", "--seed", "1", "--muon", "100:50", geometry,
                   "--out", str(out)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("simulate-auger", ["--muon", "100:50", "--t-step", "1e20"]),
    ("simulate-sin", ["--rw-step", "1e20"]),
])
def test_random_walk_step_far_beyond_the_window_ends(tmp_path, command, flags):
    # reflecting a step of 1e20 back into the window never ended
    out = tmp_path / "x"
    env = dict(os.environ, PYTHONPATH=str(Path(transdim.__file__).parents[1]))
    argv = [sys.executable, "-m", "transdim.cli", command, "--seed", "1", "--out", str(out),
            "--iterations", "300", "--burn-in", "100", *flags]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert out.exists()


def test_auger_amplitude_step_overflowing_to_inf_is_rejected(tmp_path):
    # exp(log_a_step * z) overflowed in math.exp and exited 3
    out = tmp_path / "x"
    rc = cli.main(["simulate-auger", "--seed", "1", "--muon", "100:50", "--iterations", "300",
                   "--burn-in", "100", "--log-a-step", "1000", "--out", str(out)])
    assert rc == 0
    amps = read_samples(out).points[:, 1]
    assert np.all((amps > 0.0) & (amps <= AugerChainConfig().a_max))


def test_auger_without_muons_or_file_is_data_error(tmp_path):
    rc = cli.main(["simulate-auger", "--seed", "1", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_auger_infinite_amplitude_rate_is_data_error(tmp_path):
    # a zero gamma scale would make the truncated amplitude draw loop forever
    rc = cli.main(["simulate-auger", "--seed", "1", "--muon", "100:60", "--amp-beta", "inf",
                   "--out", str(tmp_path / "x")])
    assert rc == 2
    assert not (tmp_path / "x").exists()


def test_auger_amplitude_prior_without_mass_below_a_max_is_data_error(tmp_path):
    # Gamma(1000, rate 0.1) has no mass in (0, 500] at float precision; the
    # truncated amplitude draw used to loop forever
    rc = cli.main(["simulate-auger", "--seed", "1", "--muon", "100:60", "--amp-alpha", "1000",
                   "--iterations", "300", "--burn-in", "10", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert not (tmp_path / "x").exists()


def test_auger_amplitude_prior_with_zero_median_is_data_error(tmp_path):
    # Gamma(1e-12) truncated to (0, 500] has a median that rounds to 0: every
    # amplitude draw of a birth rounded to 0 and the chain never ended
    rc = cli.main(["simulate-auger", "--seed", "1", "--muon", "100:60", "--amp-alpha", "1e-12",
                   "--iterations", "300", "--burn-in", "10", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# simulate / fit / report wiring
# ---------------------------------------------------------------------------


def test_simulate_sin_outputs_are_loadable(sin_run):
    ss = read_samples(sin_run / "draws.samples")
    assert len(ss) == (3000 - 600 + 1) // 2
    assert ss.space.dim == 1
    assert ss.provenance["sampler"]
    doc = json.loads((sin_run / "signal.json").read_text())
    assert len(doc["y"]) == 64
    assert len(doc["clean"]) == 64


def test_simulate_sin_is_seed_deterministic(tmp_path):
    out1 = tmp_path / "a.samples"
    out2 = tmp_path / "b.samples"
    argv = ["simulate-sin", "--seed", "17", "--iterations", "1500",
            "--burn-in", "300", "--rw-step", "0.05"]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_fit_output_model_loads(sin_run):
    model = read_model(sin_run / "model.json")
    assert model.L >= 1
    assert model.space.dim == 1


def test_fit_trace_and_allocations_outputs(sin_run, tmp_path):
    trace = tmp_path / "trace.csv"
    alloc = tmp_path / "alloc.txt"
    rc = cli.main(
        ["fit", "--samples", str(sin_run / "draws.samples"), "--seed", "4",
         "--out", str(tmp_path / "m.json"), "--trace-out", str(trace),
         "--allocations-out", str(alloc), "--iterations", "14", "--window", "7"]
    )
    assert rc == 0
    with open(trace) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "criterion", "components", "accept_rate", "outliers"]
    assert len(rows) == 15
    for row in rows[1:]:
        assert 0.0 <= float(row[3]) <= 1.0
        assert int(row[4]) >= 0
    n_alloc = sum(1 for _ in open(alloc))
    assert n_alloc == len(read_samples(sin_run / "draws.samples"))


def test_fit_fixed_l_rule(sin_run, tmp_path):
    rc = cli.main(
        ["fit", "--samples", str(sin_run / "draws.samples"), "--seed", "2",
         "--out", str(tmp_path / "m.json"), "--iterations", "10", "--window", "5",
         "--init-rule", "fixed", "--fixed-l", "5", "--prune-threshold", "0"]
    )
    assert rc == 0
    assert read_model(tmp_path / "m.json").L == 5


@pytest.mark.parametrize(
    "flags", [["--init-rule", "fixed", "--fixed-l", "-1"], ["--threshold", "5"]]
)
def test_fit_bad_settings_are_data_errors(sin_run, tmp_path, flags):
    rc = cli.main(
        ["fit", "--samples", str(sin_run / "draws.samples"), "--seed", "2",
         "--out", str(tmp_path / "m.json"), "--iterations", "4", "--window", "2"] + flags
    )
    assert rc == 2
    assert not (tmp_path / "m.json").exists()


def test_report_outputs(sin_run, tmp_path):
    outdir = tmp_path / "rep"
    rc = cli.main(
        ["report", "--model", str(sin_run / "model.json"),
         "--samples", str(sin_run / "draws.samples"),
         "--outdir", str(outdir), "--interval", "0.6:0.7",
         "--signal", str(sin_run / "signal.json"), "--seed", "5",
         "--draws", "1500"]
    )
    assert rc == 0
    report = json.loads((outdir / "report.json").read_text())
    assert report["format"] == "transdim-report"
    assert abs(sum(report["p_k"]) - 1.0) < 1e-9
    assert report["intervals"][0]["bounds"] == [[0.6, 0.7]]
    assert report["reconstruction_db"] is not None

    with open(outdir / "pk.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "probability"]
    assert abs(sum(float(r[1]) for r in rows[1:]) - 1.0) < 1e-9

    with open(outdir / "histogram.csv") as fh:
        hist = list(csv.reader(fh))
    assert hist[0] == ["left", "right", "height"]
    assert len(hist) == 51

    assert (outdir / "intensity.csv").exists()
    assert (outdir / "reconstruction.csv").exists()


# SHA-256 prefixes of the files that the report below writes; a change that
# alters the report on purpose records them again and says so
REPORT_DIGESTS = {
    "report.json": "2f7e87cac60a9e71",
    "pk.csv": "c68158ccff0b9a5b",
    "histogram.csv": "a49b2002a036517e",
    "intensity.csv": "bf5faaaaf8af03a0",
    "residuals.csv": "3324192a4a51d802",
}


def test_report_files_match_recorded_digests(sin_run, tmp_path):
    samples, model, alloc = sin_run / "draws.samples", tmp_path / "m.json", tmp_path / "alloc.txt"
    rc = cli.main(
        ["fit", "--samples", str(samples), "--seed", "4", "--out", str(model),
         "--iterations", "20", "--window", "10", "--allocations-out", str(alloc)]
    )
    assert rc == 0
    outdir = tmp_path / "rep"
    rc = cli.main(
        ["report", "--model", str(model), "--samples", str(samples), "--allocations", str(alloc),
         "--interval", "0.6:0.7", "--outdir", str(outdir)]
    )
    assert rc == 0
    got = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()[:16]
           for name in REPORT_DIGESTS}
    assert got == REPORT_DIGESTS


@pytest.mark.parametrize("text", ["7 0\n-3\n", "1 1\n2\n"])
def test_report_invalid_allocation_labels_are_data_errors(tmp_path, text):
    # labels outside 1..L+1, or a Gaussian label repeated, for an L = 1 model
    space = ParamSpace(np.array([[0.0, 1.0]]))
    write_samples(SampleSet.ingest(space, [np.array([[0.2], [0.8]]), np.array([[0.5]])]),
                  tmp_path / "s.samples")
    write_model(ApproxModel(space, [GaussianComponent([0.5], [0.01], 0.5)], 0.5), tmp_path / "m.json")
    (tmp_path / "alloc.txt").write_text(text)
    rc = cli.main(["report", "--model", str(tmp_path / "m.json"), "--samples", str(tmp_path / "s.samples"),
                   "--allocations", str(tmp_path / "alloc.txt"), "--outdir", str(tmp_path / "r")])
    assert rc == 2


@pytest.mark.parametrize("key, value", [
    ("mu", [math.nan]), ("sigma2", [math.inf]), ("lam", math.nan), ("lam", math.inf),
])
def test_report_non_finite_model_is_data_error(tmp_path, capsys, key, value):
    space = ParamSpace(np.array([[0.0, 1.0]]))
    write_samples(SampleSet.ingest(space, [np.array([[0.5]])]), tmp_path / "s.samples")
    write_model(ApproxModel(space, [GaussianComponent([0.5], [0.01], 0.5)], 0.5), tmp_path / "m.json")
    doc = json.loads((tmp_path / "m.json").read_text())
    (doc if key == "lam" else doc["components"][0])[key] = value
    (tmp_path / "m.json").write_text(json.dumps(doc))
    rc = cli.main(["report", "--model", str(tmp_path / "m.json"), "--samples", str(tmp_path / "s.samples"),
                   "--outdir", str(tmp_path / "r")])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "r" / "report.json").exists()


def test_report_checks_allocation_labels_before_reconstruction(sin_run, tmp_path, monkeypatch):
    samples = read_samples(sin_run / "draws.samples")
    bad = read_model(sin_run / "model.json").L + 2
    (tmp_path / "alloc.txt").write_text("".join(" ".join([str(bad)] * k) + "\n" for k in samples.k.tolist()))
    calls = []
    monkeypatch.setattr(diagnostics, "reconstruct_from_model", lambda *args: calls.append(args))
    rc = cli.main(
        ["report", "--model", str(sin_run / "model.json"), "--samples", str(sin_run / "draws.samples"),
         "--allocations", str(tmp_path / "alloc.txt"), "--outdir", str(tmp_path / "r"),
         "--signal", str(sin_run / "signal.json"), "--seed", "1", "--draws", "100000"]
    )
    assert rc == 2
    assert calls == []


def test_report_reconstruction_without_seed_is_data_error(sin_run, tmp_path):
    rc = cli.main(
        ["report", "--model", str(sin_run / "model.json"),
         "--samples", str(sin_run / "draws.samples"),
         "--outdir", str(tmp_path / "r"), "--signal", str(sin_run / "signal.json")]
    )
    assert rc == 2


@pytest.mark.parametrize("doc", [{"clean": [0.0, 1.0]}, [1, 2], {"y": "abc"}, {"y": [[1.0]]}])
def test_report_signal_without_numeric_y_is_data_error(sin_run, tmp_path, doc):
    signal = tmp_path / "signal.json"
    signal.write_text(json.dumps(doc))
    rc = cli.main(
        ["report", "--model", str(sin_run / "model.json"),
         "--samples", str(sin_run / "draws.samples"),
         "--outdir", str(tmp_path / "r"), "--signal", str(signal), "--seed", "1"]
    )
    assert rc == 2


def test_report_bad_interval_is_data_error(sin_run, tmp_path):
    rc = cli.main(
        ["report", "--model", str(sin_run / "model.json"),
         "--samples", str(sin_run / "draws.samples"),
         "--outdir", str(tmp_path / "r"), "--interval", "whoops"]
    )
    assert rc == 2


@pytest.mark.parametrize("interval", ["nan:1", "0.5:nan"])
def test_report_nan_interval_is_data_error(sin_run, tmp_path, capsys, interval):
    # NaN passed every ordering and box check and reached report.json
    rc = cli.main(
        ["report", "--model", str(sin_run / "model.json"),
         "--samples", str(sin_run / "draws.samples"),
         "--outdir", str(tmp_path / "r"), "--interval", interval]
    )
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "r" / "report.json").exists()


@pytest.mark.parametrize("flags", [["--hist-bins", "0"], ["--grid-points", "-1"], ["--grid-points", "0"]])
def test_report_counts_below_one_are_data_errors(sin_run, tmp_path, capsys, flags):
    rc = cli.main(
        ["report", "--model", str(sin_run / "model.json"),
         "--samples", str(sin_run / "draws.samples"),
         "--outdir", str(tmp_path / "r")] + flags
    )
    assert rc == 2
    assert f"error: {flags[0]} must be at least 1" in capsys.readouterr().err


def test_report_dimension_mismatch_is_data_error(sin_run, tmp_path):
    aug = tmp_path / "aug.samples"
    rc = cli.main(
        ["simulate-auger", "--seed", "7", "--muon", "150:60", "--out", str(aug),
         "--iterations", "1200", "--burn-in", "200"]
    )
    assert rc == 0
    rc = cli.main(
        ["report", "--model", str(sin_run / "model.json"), "--samples", str(aug),
         "--outdir", str(tmp_path / "r")]
    )
    assert rc == 2


def test_simulate_auger_signal_round_trips_through_cli(tmp_path):
    sig_csv = tmp_path / "trace.csv"
    out1 = tmp_path / "a.samples"
    rc = cli.main(
        ["simulate-auger", "--seed", "5", "--muon", "200:70", "--bins", "25",
         "--out", str(out1), "--signal-out", str(sig_csv),
         "--iterations", "1200", "--burn-in", "200"]
    )
    assert rc == 0
    # feeding the emitted trace back in must reproduce the chain bitwise
    out2 = tmp_path / "b.samples"
    rc = cli.main(
        ["simulate-auger", "--seed", "5", "--signal-in", str(sig_csv),
         "--out", str(out2), "--iterations", "1200", "--burn-in", "200"]
    )
    assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    ss = read_samples(out1)
    assert ss.space.dim == 2


def _library_simulate_sin(seed, out):
    sig_seed, chain_seed = spawn_seeds(seed, 2)
    sp = montecarlo._PAPER_SIGNAL
    sig = generate_synthetic_signal(
        sp["k"], sp["omega"], sp["energies"], sp["phases"], sp["snr_db"], sp["n"], seed=sig_seed
    )
    write_samples(rjmcmc_run(sig, SinChainConfig(iterations=1500, burn_in=300, rng_seed=chain_seed)), out)


def _library_simulate_auger(seed, out):
    sig_seed, chain_seed = spawn_seeds(seed, 2)
    sig = simulate_pe_signal([(150.0, 60.0)], 30, seed=sig_seed)
    write_samples(rjmcmc_run_auger(sig, AugerChainConfig(iterations=1200, burn_in=200, rng_seed=chain_seed)), out)


def _library_fit(seed, out, samples):
    result = sem_fit(read_samples(samples), FitConfig(iterations=10, averaging_window=5, rng_seed=seed))
    write_model(result.model, out)


@pytest.mark.parametrize("command", ["simulate-sin", "simulate-auger", "fit"])
def test_cli_defaults_are_the_config_class_defaults(sin_run, tmp_path, command):
    """Given only lengths, each command writes what the library call with
    default configs and spawn_seeds seeds writes."""
    cli_out, lib_out = tmp_path / "cli.out", tmp_path / "lib.out"
    samples = sin_run / "draws.samples"
    argv = {
        "simulate-sin": ["--iterations", "1500", "--burn-in", "300"],
        "simulate-auger": ["--muon", "150:60", "--iterations", "1200", "--burn-in", "200"],
        "fit": ["--samples", str(samples), "--iterations", "10", "--window", "5"],
    }[command]
    assert cli.main([command, "--seed", "8", "--out", str(cli_out)] + argv) == 0
    if command == "simulate-sin":
        _library_simulate_sin(8, lib_out)
    elif command == "simulate-auger":
        _library_simulate_auger(8, lib_out)
    else:
        _library_fit(8, lib_out, samples)
    assert cli_out.read_bytes() == lib_out.read_bytes()


def test_oracle_subcommand_passes():
    assert cli.main(["oracle"]) == 0
    assert cli.main(["oracle", "--check", "gates"]) == 0


# ---------------------------------------------------------------------------
# replication harness
# ---------------------------------------------------------------------------

MC_FAST = dict(
    replicates=2,
    master_seed=123,
    chain={"iterations": 2500, "burn_in": 500, "thinning": 2, "rw_step": 0.05},
    fit={"iterations": 20, "averaging_window": 10},
    reconstruction_draws=400,
)


def test_harness_rows_have_all_columns():
    rows = montecarlo.run_monte_carlo(montecarlo.MonteCarloConfig(**MC_FAST))
    assert len(rows) == 2
    for r, row in enumerate(rows):
        assert row["replicate"] == r
        assert row["status"] == "ok"
        assert set(montecarlo.MC_COLUMNS) <= set(row)
        assert 0.0 <= row["p3_chain"] <= 1.0
        assert 0.0 <= row["p3_model"] <= 1.0
        assert row["recon_bma_db"] < 0.0


def test_harness_csv_is_bit_identical_across_runs(tmp_path):
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    montecarlo.write_mc_csv(
        montecarlo.run_monte_carlo(montecarlo.MonteCarloConfig(**MC_FAST)), p1
    )
    montecarlo.write_mc_csv(
        montecarlo.run_monte_carlo(montecarlo.MonteCarloConfig(**MC_FAST)), p2
    )
    assert p1.read_bytes() == p2.read_bytes()
    with open(p1) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == montecarlo.MC_COLUMNS
    assert len(rows) == 3


def test_harness_isolates_replicate_failures(monkeypatch, tmp_path):
    real = montecarlo.run_replicate

    def flaky(config, replicate, rep_seed):
        if replicate == 0:
            raise np.linalg.LinAlgError("synthetic failure")
        return real(config, replicate, rep_seed)

    monkeypatch.setattr(montecarlo, "run_replicate", flaky)
    rows = montecarlo.run_monte_carlo(montecarlo.MonteCarloConfig(**MC_FAST))
    assert rows[0]["status"] == "failed: LinAlgError"
    assert rows[1]["status"] == "ok"
    out = tmp_path / "mixed.csv"
    montecarlo.write_mc_csv(rows, out)
    with open(out) as fh:
        parsed = list(csv.DictReader(fh))
    assert parsed[0]["status"] == "failed: LinAlgError"
    assert parsed[0]["p2_chain"] == ""


def test_harness_seeds_differ_across_replicates():
    cfg = montecarlo.MonteCarloConfig(**MC_FAST)
    rows = montecarlo.run_monte_carlo(cfg)
    # different per-replicate seeds must lead to different chains
    assert rows[0]["p3_chain"] != rows[1]["p3_chain"]


def test_montecarlo_cli_writes_table(tmp_path):
    out = tmp_path / "mc.csv"
    rc = cli.main(
        ["montecarlo", "--seed", "123", "--out", str(out), "--replicates", "2",
         "--iterations", "2000", "--burn-in", "400", "--draws", "300"]
    )
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(r["status"] == "ok" for r in rows)


def test_montecarlo_config_rejects_unknown_keys():
    with pytest.raises(ModelError, match="temperature"):
        montecarlo.MonteCarloConfig(chain={"temperature": 1})
    with pytest.raises(ModelError, match="learning_rate"):
        montecarlo.MonteCarloConfig(fit={"learning_rate": 0.1})
    with pytest.raises(ModelError, match="unknown signal keys"):
        montecarlo.MonteCarloConfig(signal={"muons": []})


@pytest.mark.parametrize("field", ["replicates", "reconstruction_draws"])
def test_montecarlo_config_rejects_counts_below_one(field):
    with pytest.raises(ModelError, match=field):
        montecarlo.MonteCarloConfig(**{field: 0})


@pytest.mark.parametrize(
    "config, flags",
    [
        ({"chain": {"temperature": 1}}, []),
        ({"replicates": 0}, []),
        ({"reconstruction_draws": 0}, []),
        ({}, ["--replicates", "0"]),
        ({}, ["--draws", "0"]),
        ({"chain": {"beta_rate": -1}}, []),
        ({"chain": {"init_omega": [4.0]}}, []),
        ({"fit": {"iterations": 2.5, "averaging_window": 1}}, []),
        ({"signal": {"n": 1}}, []),
        ({"signal": {"k": 2}}, []),
        ({"reconstruction_draws": True}, []),
        ({"replicates": True}, []),
        ({"chain": {"update_prob": 0.5}}, []),
        ({"signal": {"snr_db": math.nan}}, []),
        ({"signal": {"snr_db": -math.inf}}, []),
        ({"signal": {"omega": [0.63, 0.68, math.nan]}}, []),
        ({"signal": {"energies": [20.0, math.inf, 20.0]}}, []),
        ({"signal": {"phases": [0.0, math.nan, 0.0]}}, []),
    ],
)
def test_montecarlo_cli_bad_settings_are_data_errors(tmp_path, config, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x.csv"
    short = ["--iterations", "300", "--burn-in", "100"]  # keeps a regression quick
    rc = cli.main(["montecarlo", "--seed", "1", "--out", str(out), "--config", str(cfg)] + short + flags)
    assert rc == 2
    assert not out.exists()


def test_montecarlo_cli_rejects_unknown_config_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chains": {}}))
    rc = cli.main(["montecarlo", "--seed", "1", "--out", str(tmp_path / "x.csv"),
                   "--config", str(cfg), "--replicates", "1"])
    assert rc == 2
