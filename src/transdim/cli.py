"""Command-line interface: simulate, fit, report, replicate, verify.

Exit codes: 0 success, 1 usage error, 2 data error (bad files or
inconsistent inputs), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, montecarlo, storage
from .fit import FitConfig, sem_fit
from .model import ModelError, model_intensity
from .muons import AugerChainConfig, PECountSignal, PulseShape, rjmcmc_run_auger, simulate_pe_signal
from .sinusoid import DELTA2_START, SinChainConfig, design_matrix, generate_synthetic_signal, rjmcmc_run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage problems; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_fmt = storage._fmt  # reals at 17 significant digits read back exactly


def _given(args, cls) -> dict:
    """The options the user gave that set fields of the config class ``cls``.

    Such options have no argparse default, so every field left out keeps the
    default declared on ``cls``.
    """
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if hasattr(args, f.name)}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate_sin(args) -> int:
    paper = montecarlo._PAPER_SIGNAL
    omega = args.omega or paper["omega"]
    k = len(omega)
    if args.omega:
        energy = args.energy or [20.0] * k
        phase = args.phase or [0.0] * k
    else:
        energy = args.energy or paper["energies"]
        phase = args.phase or paper["phases"]
    sig_seed, chain_seed = storage.spawn_seeds(args.seed, 2)
    sig = generate_synthetic_signal(
        k, omega, energy, phase, paper["snr_db"], paper["n"], seed=sig_seed
    )
    cfg = SinChainConfig(**_given(args, SinChainConfig), rng_seed=chain_seed)
    samples = rjmcmc_run(sig, cfg)
    storage.write_samples(samples, args.out)
    if args.signal_out:
        clean = design_matrix(sig.true_omega, sig.N) @ sig.true_amplitudes
        storage.write_json(
            {
                "format": "transdim-signal",
                "version": 1,
                "y": sig.y.tolist(),
                "clean": clean.tolist(),
                "snr_db": sig.snr_db,
                "true_omega": list(sig.true_omega),
            },
            args.signal_out,
        )
    print(f"wrote {len(samples)} samples to {args.out}")
    return EXIT_OK


def _parse_muons(values) -> list:
    muons = []
    for value in values or []:
        try:
            t, a = value.split(":")
            muons.append((float(t), float(a)))
        except ValueError:
            raise storage.StorageError(f"bad --muon value {value!r}; expected T:A") from None
    return muons


def _cmd_simulate_auger(args) -> int:
    shape = PulseShape(**_given(args, PulseShape))
    sig_seed, chain_seed = storage.spawn_seeds(args.seed, 2)
    if args.signal_in:
        signal = storage.read_pe_signal(args.signal_in)
    else:
        muons = _parse_muons(args.muon)
        if not muons:
            raise storage.StorageError("give at least one --muon T:A or --signal-in")
        signal = simulate_pe_signal(
            muons, args.bins, shape, seed=sig_seed, **_given(args, PECountSignal)
        )
    cfg = AugerChainConfig(**_given(args, AugerChainConfig), pulse=shape, rng_seed=chain_seed)
    samples = rjmcmc_run_auger(signal, cfg)
    storage.write_samples(samples, args.out)
    if args.signal_out:
        storage.write_pe_signal(signal, args.signal_out)
    print(f"wrote {len(samples)} samples to {args.out}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    samples = storage.read_samples(args.samples)
    result = sem_fit(samples, FitConfig(**_given(args, FitConfig), rng_seed=args.seed))
    storage.write_model(result.model, args.out)
    if args.trace_out:
        rows = zip(result.trace.criteria, result.trace.counts, result.trace.accept_rates)
        storage.write_csv(
            args.trace_out, ["iteration", "criterion", "components", "accept_rate", "outliers"],
            ([i, _fmt(c), len(n) - 1, _fmt(a), int(n[-1])] for i, (c, n, a) in enumerate(rows)))
    if args.allocations_out:
        with open(args.allocations_out, "w", encoding="utf-8") as fh:
            for z in result.allocations:
                fh.write(" ".join(str(int(v)) for v in z.labels) + "\n")
    mus = result.model.mus()
    for l, comp in enumerate(result.model.components):
        print(
            f"component {l + 1}: mu={np.array2string(mus[l], precision=5)} "
            f"pi={comp.pi:.4f}"
        )
    print(f"lambda={result.model.lam:.5f}  L={result.model.L}")
    for note in result.notes:
        print(f"note: {note}")
    return EXIT_OK


def _parse_interval(text: str, d: int):
    try:
        pairs = [tuple(float(v) for v in part.split(":")) for part in text.split(",")]
        if any(len(p) != 2 for p in pairs):
            raise ValueError
    except ValueError:
        raise storage.StorageError(f"bad --interval {text!r}; expected A:B[,A:B...]") from None
    if len(pairs) != d:
        raise storage.StorageError(f"interval {text!r} has {len(pairs)} ranges for d={d}")
    return [list(p) for p in pairs]


def _load_allocations(path, samples, L):
    """One AllocationVector per sample, its labels checked against the
    samples' k and an L-component model."""
    from .model import AllocationVector, _point_labels

    allocs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            try:
                allocs.append(AllocationVector([int(t) for t in tokens]))
            except ValueError:
                raise storage.StorageError(f"allocations line {lineno}: malformed") from None
    _point_labels(samples, allocs, L)
    return allocs


def _cmd_report(args) -> int:
    for flag, value in (("--hist-bins", args.hist_bins), ("--grid-points", args.grid_points)):
        if value < 1:
            raise storage.StorageError(f"{flag} must be at least 1, got {value}")
    model = storage.read_model(args.model)
    samples = storage.read_samples(args.samples)
    if model.space.dim != samples.space.dim:
        raise storage.StorageError(
            f"model dimension {model.space.dim} does not match samples dimension {samples.space.dim}"
        )
    intervals = [_parse_interval(s, model.space.dim) for s in args.interval or []]
    allocations = _load_allocations(args.allocations, samples, model.L) if args.allocations else None

    recon_db = None
    recon_columns = None
    if args.signal:
        if args.seed is None:
            raise storage.StorageError("reconstruction draws need --seed")
        doc = storage.parse_json_object(Path(args.signal).read_text(encoding="utf-8"), args.signal)
        try:
            y = np.array(doc["y"], dtype=float)
            reference = np.array(doc.get("clean", doc["y"]), dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise storage.StorageError(f"{args.signal}: needs a numeric 'y' list ({exc})") from None
        if y.ndim != 1 or y.size < 2 or reference.shape != y.shape:
            raise storage.StorageError(f"{args.signal}: 'y' and 'clean' must be equal-length lists")
        try:
            extras = samples.provenance.get("extras") or {}
            delta2 = float(extras.get("mean_delta2", DELTA2_START))
        except (AttributeError, TypeError, ValueError):
            raise storage.StorageError(f"{args.samples}: extras.mean_delta2 is not a number") from None
        bma = diagnostics.reconstruct_bma(samples, y, delta2)
        from_model = diagnostics.reconstruct_from_model(
            model, y, delta2, args.draws, np.random.default_rng(args.seed)
        )
        recon_db = diagnostics.reconstruction_error_db(from_model, reference)
        recon_columns = (y, bma, from_model)

    report = diagnostics.summarize(
        model, samples, allocations=allocations, intervals=intervals,
        reconstruction_db=recon_db,
    )
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    storage.write_report(report, out / "report.json")
    storage.write_csv(out / "pk.csv", ["k", "probability"], ([k, _fmt(p)] for k, p in enumerate(report["p_k"])))
    heights, edges = diagnostics.bma_histogram_intensity(samples, bins=args.hist_bins, dim=args.dim)
    storage.write_csv(
        out / "histogram.csv", ["left", "right", "height"],
        ([_fmt(edges[b]), _fmt(edges[b + 1]), _fmt(heights[b])] for b in range(heights.size)))
    if model.space.dim == 1:
        lo, hi = model.space.bounds[0]
        grid = np.linspace(lo, hi, args.grid_points)
        curve = model_intensity(grid[:, None], model)
        storage.write_csv(out / "intensity.csv", ["theta", "intensity"],
                          ([_fmt(x), _fmt(v)] for x, v in zip(grid, curve)))
    if "residuals" in report:
        storage.write_csv(out / "residuals.csv", [f"coord{j}" for j in range(samples.space.dim)],
                          ([_fmt(v) for v in row] for row in report["residuals"]))
    if recon_columns is not None:
        storage.write_csv(out / "reconstruction.csv", ["y", "bma", "model"],
                          ([_fmt(v) for v in vals] for vals in zip(*recon_columns)))
    print(f"report written to {args.outdir}")
    return EXIT_OK


def _cmd_montecarlo(args) -> int:
    settings = {}
    if args.config:
        settings = storage.parse_json_object(Path(args.config).read_text(encoding="utf-8"), args.config)
        unknown = set(settings) - {"signal", "chain", "fit", "reconstruction_draws", "replicates"}
        if unknown:
            raise storage.StorageError(f"unknown montecarlo config keys: {sorted(unknown)}")
    cfg = montecarlo.MonteCarloConfig(
        master_seed=args.seed, **{**settings, **_given(args, montecarlo.MonteCarloConfig)}
    )
    chain = _given(args, SinChainConfig)
    if chain:
        cfg = dataclasses.replace(cfg, chain={**cfg.chain, **chain})
    rows = montecarlo.run_monte_carlo(cfg)
    montecarlo.write_mc_csv(rows, args.out)
    ok = sum(1 for r in rows if r.get("status") == "ok")
    print(f"{ok}/{len(rows)} replicates succeeded; table in {args.out}")
    return EXIT_OK


_ORACLE_CHECKS = ("gates", "sin-marginal", "pulse-bin")


def _cmd_oracle(args) -> int:
    """Re-run the cheap cross-checks that back the test suite."""
    from . import oracle
    from .diagnostics import approx_posterior_k
    from .model import ApproxModel, GaussianComponent, ParamSpace
    from .muons import expected_bin_counts
    from .sinusoid import log_marginal_likelihood

    rng = np.random.default_rng(args.seed if args.seed is not None else 0)

    def gates():
        pis = rng.uniform(0.05, 0.95, size=8)
        space = ParamSpace(np.array([[0.0, 1.0]]))
        comps = [
            GaussianComponent(np.array([m]), np.array([0.01]), p)
            for m, p in zip(rng.uniform(0.1, 0.9, size=8), pis)
        ]
        p = approx_posterior_k(ApproxModel(space, comps, 0.0))
        err = float(np.abs(p[:9] - oracle.gate_count_law(pis)).max())
        return err < 1e-12, f"max abs deviation from enumeration {err:.3e}"

    def sin_marginal():
        sig = generate_synthetic_signal(1, [0.9], [4.0], [0.3], 7.0, 8, seed=5)
        got = log_marginal_likelihood([0.9], sig.y, 8.0)
        ref = oracle.quadrature_log_marginal(sig.y, 0.9, 8.0)
        err = abs(got - ref)
        return err < 1e-3, f"closed form {got:.6f} quadrature {ref:.6f} diff {err:.2e}"

    def pulse_bin():
        sig = PECountSignal(np.zeros(20, dtype=np.int64))
        muon = [(100.0, 3.2)]
        out = expected_bin_counts(muon, sig)[6]
        ref = oracle.pulse_bin_quadrature(muon, sig.edges()[6:8])[0]
        err = abs(out - ref) / ref
        return err < 1e-8, f"closed form {out:.12f} quadrature {ref:.12f} rel diff {err:.2e}"

    failures = 0
    for name, check in zip(_ORACLE_CHECKS, (gates, sin_marginal, pulse_bin)):
        if args.check in (None, name):
            ok, text = check()
            failures += not ok
            print(f"{name}: {text} ({'ok' if ok else 'FAIL'})")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _config_option(p, flag, field, **kwargs):
    """An option that sets the config field ``field``; its default is the field's."""
    p.add_argument(flag, dest=field, default=argparse.SUPPRESS, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="transdim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate-sin", help="synthesize a sinusoid signal and sample it")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--signal-out")
    p.add_argument("--omega", type=float, nargs="+")
    p.add_argument("--energy", type=float, nargs="+")
    p.add_argument("--phase", type=float, nargs="+")
    _config_option(p, "--iterations", "iterations", type=int)
    _config_option(p, "--burn-in", "burn_in", type=int)
    _config_option(p, "--thinning", "thinning", type=int)
    _config_option(p, "--k-max", "k_max", type=int)
    _config_option(p, "--rw-step", "rw_step", type=float)
    _config_option(p, "--fix-delta2", "delta2", type=float, metavar="X")
    _config_option(p, "--fix-rate", "rate", type=float, metavar="X")
    p.set_defaults(func=_cmd_simulate_sin, parser=p)

    p = sub.add_parser("simulate-auger", help="synthesize a photoelectron trace and sample it")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--signal-out")
    p.add_argument("--signal-in")
    p.add_argument("--muon", action="append", metavar="T:A")
    p.add_argument("--bins", type=int, default=30)
    _config_option(p, "--t0", "t0", type=float)
    _config_option(p, "--t-delta", "t_delta", type=float)
    _config_option(p, "--rise-time", "rise_time", type=float)
    _config_option(p, "--decay", "decay", type=float)
    _config_option(p, "--iterations", "iterations", type=int)
    _config_option(p, "--burn-in", "burn_in", type=int)
    _config_option(p, "--thinning", "thinning", type=int)
    _config_option(p, "--k-max", "k_max", type=int)
    _config_option(p, "--rate", "rate", type=float)
    _config_option(p, "--t-step", "t_step", type=float)
    _config_option(p, "--log-a-step", "log_a_step", type=float)
    _config_option(p, "--amp-alpha", "amp_alpha", type=float)
    _config_option(p, "--amp-beta", "amp_beta", type=float)
    _config_option(p, "--a-max", "a_max", type=float)
    p.set_defaults(func=_cmd_simulate_auger, parser=p)

    p = sub.add_parser("fit", help="fit the gated-Gaussian approximation to samples")
    p.add_argument("--samples", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace-out")
    p.add_argument("--allocations-out")
    _config_option(p, "--iterations", "iterations", type=int)
    _config_option(p, "--window", "averaging_window", type=int)
    _config_option(p, "--inner-steps", "imh_inner_steps", type=int)
    _config_option(p, "--prune-threshold", "prune_threshold", type=int)
    _config_option(p, "--init-rule", "init_rule", choices=("percentile", "threshold", "fixed"))
    _config_option(p, "--fixed-l", "fixed_L", type=int)
    p.set_defaults(func=_cmd_fit, parser=p)

    p = sub.add_parser("report", help="summarize a fitted model against samples")
    p.add_argument("--model", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--allocations")
    p.add_argument("--outdir", required=True)
    p.add_argument("--interval", action="append", metavar="A:B[,A:B]")
    p.add_argument("--signal", help="signal JSON for reconstruction")
    p.add_argument("--draws", type=int, default=10_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--hist-bins", type=int, default=50)
    p.add_argument("--grid-points", type=int, default=512)
    p.add_argument("--dim", type=int, default=0)
    p.set_defaults(func=_cmd_report, parser=p)

    p = sub.add_parser("montecarlo", help="replicated end-to-end comparison study")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    _config_option(p, "--replicates", "replicates", type=int)
    p.add_argument("--config", help="JSON with signal/chain/fit overrides")
    _config_option(p, "--iterations", "iterations", type=int)
    _config_option(p, "--burn-in", "burn_in", type=int)
    _config_option(p, "--draws", "reconstruction_draws", type=int)
    p.set_defaults(func=_cmd_montecarlo, parser=p)

    p = sub.add_parser("oracle", help="run the cross-check oracles")
    p.add_argument("--check", choices=_ORACLE_CHECKS)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_oracle, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # the subcommand's parser reports them, with its own usage
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        if args.seed is not None and args.seed < 0:  # every subcommand has --seed
            raise ModelError(f"--seed must be a nonnegative integer, got {args.seed}")
        return args.func(args)
    except (ModelError, OSError, UnicodeDecodeError) as exc:
        # ModelError covers storage.StorageError: bad files and inconsistent inputs
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
