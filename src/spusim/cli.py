"""Command-line entry point: every experiment as a subcommand.

All quantitative artifacts are CSV written with fixed float formatting, so
a run repeated with the same seed produces byte-identical files; the run
manifest (JSON) additionally records the full configuration, seed, artifact
paths and wall-clock duration.  Matrix files are plain CSV, row-major, no
header.

Exit codes: 0 success, 1 other errors (including a simulated state that
overflows), 2 usage, 3 malformed matrix file, 4 non-positive-definite
input, 5 dimension mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .apps import (Dataset1D, KernelSpec, gpr_posterior, linear_least_squares,
                   sngp_patch_sample, synthetic_two_moons_posterior)
from .calibration import (apply_scaling, characterize_cells, compute_scaling_vector,
                          fit_loading_model, two_cell_fault_scan)
from .compiler import TargetSpec
from .device import SpuEmulator
from .errors import (DimensionMismatchError, MatrixFormatError,
                     NotPositiveDefiniteError, SpuSimError)
from .langevin import _chain_source, correlation_time
from .linalg import (SamplingPlan, invert_matrix, moment_errors, parameter_study,
                     sample_gaussian)
from .noise import NoiseChainConfig
from .perf import (SpuCostParams, crossover, load_digital_baseline,
                   performance_curves)
from .samples import FLOAT_FMT
from .svgplot import line_plot


def _read_csv(path: str) -> np.ndarray:
    """Any input file of a verb (plain CSV, row-major, no header) as a finite 2-d array."""
    try:
        m = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as err:
        raise MatrixFormatError(f"cannot read matrix file {path!r}: {err}") from err
    if not np.all(np.isfinite(m)):
        raise MatrixFormatError(f"{path}: matrix has NaN or infinite entries")
    return m


def load_matrix(path: str) -> np.ndarray:
    """Plain CSV, row-major, no header; validated finite, square and symmetric
    to 1e-9 of its Frobenius norm."""
    m = _read_csv(path)
    if m.shape[0] != m.shape[1]:
        raise MatrixFormatError(f"{path}: matrix must be square, got {m.shape}")
    scale = np.linalg.norm(m) or 1.0
    if np.linalg.norm(m - m.T) > 1e-9 * scale:
        raise MatrixFormatError(f"{path}: matrix is not symmetric within tolerance")
    return 0.5 * (m + m.T)


def write_csv(path: Path, header: str, rows) -> Path:
    np.savetxt(path, np.atleast_2d(np.asarray(rows, dtype=float)),
               delimiter=",", header=header, comments="", fmt=FLOAT_FMT)
    return path


def write_matrix(path: Path, matrix: np.ndarray) -> Path:
    np.savetxt(path, matrix, delimiter=",", fmt=FLOAT_FMT)
    return path


class _Run:
    """Collects artifacts and writes the manifest."""

    def __init__(self, args: argparse.Namespace):
        outdir = args.outdir or os.environ.get("SPUSIM_OUTDIR", "spusim-out")
        self.outdir = Path(outdir)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.args = args
        self.artifacts: dict[str, str] = {}
        self.results: dict = {}
        self.t0 = time.perf_counter()

    def path(self, name: str) -> Path:
        return self.outdir / name

    def add(self, key: str, path: Path) -> Path:
        self.artifacts[key] = str(path)
        return path

    def finish(self) -> None:
        config = {k: (str(v) if isinstance(v, Path) else v)
                  for k, v in vars(self.args).items() if k != "func"}
        manifest = {
            "subcommand": self.args.command,
            "version": __version__,
            "seed": getattr(self.args, "seed", None),
            "config": config,
            "artifacts": self.artifacts,
            "results": self.results,
            "duration_s": time.perf_counter() - self.t0,
        }
        self.path("manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True, default=str))


def _plan_from(args) -> SamplingPlan:
    return SamplingPlan(
        n_samples=args.n,
        sampling_rate=getattr(args, "rate", None),
        noise_level=getattr(args, "noise_level", 1.0),
        decorrelate=not getattr(args, "no_decorrelate", False),
        chains=args.chains,
    )


def cmd_sample(args) -> _Run:
    run = _Run(args)
    if (args.precision is None) == (args.covariance is None):
        raise MatrixFormatError("provide exactly one of --precision / --covariance")
    if args.precision:
        target = TargetSpec(load_matrix(args.precision), "precision")
    else:
        target = TargetSpec(load_matrix(args.covariance), "covariance")
    plan = _plan_from(args)
    batch, comp = sample_gaussian(
        target, plan, seed=args.seed, noise=args.noise_mode,
        quantize=args.quantize, tolerance_sigma=args.tolerance,
        chain_seeds=(args.chain_seed_a, args.chain_seed_b),
        return_compilation=True)
    run.add("samples", batch.to_csv(run.path("samples.csv")))
    params = comp.params(use_quantized=args.quantize)
    if args.export_noise > 0:
        run.add("noise_stream", write_csv(
            run.path("noise_stream.csv"), "bit_index,bit,gated,filtered",
            _lane0_noise(args, params)))
    report = moment_errors(batch, target)
    run.add("moments", write_csv(
        run.path("moments.csv"), "n_samples,cov_err,skew_err,kurt_err",
        list(report.rows())))
    device_json = run.path("compiled_device.json")
    device_json.write_text(params.to_json())
    run.add("compiled_device", device_json)
    run.results.update(comp.summary())
    run.results["final_covariance_error"] = float(report.covariance_error[-1])
    return run


def _lane0_noise(args, params) -> np.ndarray:
    """Rows (bit index, gold bit, gated, filtered) of lane 0 (chain 0, cell 0)
    of the chain source that ``sample --noise-mode lfsr-chain`` drives.

    Per-bit values depend on the bit rate only through the RC-to-bit ratio,
    which ``NoiseChainConfig.matched`` fixes, so component tolerances, which
    move the matched bit rate, do not change them.  Only lane 0 of each
    block's stages is kept, so one block's lanes are held at a time.
    """
    chain = NoiseChainConfig.matched(correlation_time(params), duty_cycle=args.noise_level,
                                     seed_a=args.chain_seed_a, seed_b=args.chain_seed_b)
    source = _chain_source(params, chain, args.seed, args.chains)
    n = args.export_noise
    blocks = [[stage[0].copy() for stage in source.stages(min(8192, n - k))]
              for k in range(0, n, 8192)]
    bits, gated, filtered = (np.concatenate(stage) for stage in zip(*blocks))
    return np.column_stack([np.arange(n), bits, gated, filtered])


def cmd_invert(args) -> _Run:
    run = _Run(args)
    matrix = load_matrix(args.matrix)
    plan = _plan_from(args)
    res = invert_matrix(matrix, plan, seed=args.seed, quantize=args.quantize,
                        tolerance_sigma=args.tolerance)
    run.add("inverse", write_matrix(run.path("inverse.csv"), res.estimate))
    run.add("exact_inverse", write_matrix(run.path("exact_inverse.csv"), res.exact))
    run.add("error_series", write_csv(
        run.path("error_series.csv"), "n_samples,rel_frobenius_error",
        np.column_stack([res.n_series, res.error_series])))
    run.results["final_error"] = res.final_error
    return run


def _parse_grid_spec(spec: str) -> np.ndarray:
    start, stop, count = spec.split(":")
    return np.linspace(float(start), float(stop), int(count))


def _grid_spec(text: str) -> str:
    """argparse type of a start:stop:count grid: finite start, stop and
    span, and a count >= 1.  The text is kept, as the manifest records it."""
    try:
        start, stop, count = text.split(":")
        if np.isfinite(float(stop) - float(start)) and int(count) >= 1:
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected start:stop:count with finite start and stop and count >= 1, got {text!r}")


def _float_list(text: str) -> str:
    """argparse type of a non-empty comma-separated list of numbers; the
    text is kept, as the manifest records it."""
    try:
        [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None
    return text


def cmd_gpr(args) -> _Run:
    run = _Run(args)
    if args.train:
        data = _read_csv(args.train)
        if data.shape[1] != 2:
            raise MatrixFormatError(f"{args.train}: expected two columns x,y")
        train = Dataset1D(data[:, 0], data[:, 1])
    else:
        rng = np.random.default_rng(args.seed)
        x = np.linspace(0.0, 2 * np.pi, args.train_points)
        y = np.sin(x) + rng.standard_normal(args.train_points)
        train = Dataset1D(x, y)
        run.add("train", write_csv(run.path("train.csv"), "x,y",
                                   np.column_stack([x, y])))
    spec = KernelSpec(length_scale=args.length_scale,
                      signal_variance=args.signal_variance,
                      observation_noise=args.noise)
    test_x = _parse_grid_spec(args.test)
    plan = SamplingPlan(n_samples=args.inverter_samples, chains=args.chains)
    post = gpr_posterior(train, test_x, spec, inverter=args.inverter,
                         plan=plan, seed=args.seed)
    run.add("posterior", write_csv(
        run.path("posterior.csv"), "x,mean,stddev",
        np.column_stack([test_x, post.mean, post.stddev])))
    run.results["inverter"] = args.inverter
    return run


def cmd_lsq(args) -> _Run:
    run = _Run(args)
    if args.data:
        data = _read_csv(args.data)
        if data.shape[1] != 2:
            raise MatrixFormatError(f"{args.data}: expected two columns x,y")
        x, y = data[:, 0], data[:, 1]
        design = np.column_stack([x ** k for k in range(args.degree + 1)])
    elif args.design and args.y:
        design = _read_csv(args.design)
        y = _read_csv(args.y).ravel()
    else:
        raise MatrixFormatError("provide --data or both --design and --y")
    plan = SamplingPlan(n_samples=args.inverter_samples, chains=args.chains)
    beta = linear_least_squares(design, y, inverter=args.inverter,
                                plan=plan, seed=args.seed)
    run.add("coefficients", write_csv(run.path("coefficients.csv"), "beta",
                                      beta[:, None]))
    run.results["coefficients"] = [float(b) for b in beta]
    return run


def cmd_sngp_sample(args) -> _Run:
    run = _Run(args)
    if args.demo:
        grid, mean, cov, train_x, train_y = synthetic_two_moons_posterior(
            grid_size=args.grid_size, seed=args.seed)
        run.add("grid", write_csv(run.path("grid.csv"), "x0,x1", grid))
        run.add("mean", write_csv(run.path("mean.csv"), "mean", mean[:, None]))
        run.add("cov", write_matrix(run.path("cov.csv"), cov))
        run.add("train", write_csv(run.path("train.csv"), "x0,x1,label",
                                   np.column_stack([train_x, train_y])))
    else:
        if not (args.mean and args.cov):
            raise MatrixFormatError("provide --mean and --cov, or --demo")
        mean = _read_csv(args.mean).ravel()
        cov = load_matrix(args.cov)
    plan = SamplingPlan(n_samples=max(args.draws, 1000), chains=args.chains)
    draws = sngp_patch_sample(mean, cov, n_draws=args.draws,
                              patch_size=args.patch_size, sampler=args.sampler,
                              plan=plan, seed=args.seed)
    header = ",".join(f"g{i}" for i in range(draws.shape[1]))
    run.add("draws", write_csv(run.path("draws.csv"), header, draws))
    run.results["patches"] = -(-len(mean) // args.patch_size)
    return run


def cmd_calibrate(args) -> _Run:
    run = _Run(args)
    device = SpuEmulator(n_cells=args.cells, coupling_resistance=args.loading)
    baseline = device.sample(bank_config=0, coupling="none", n_samples=args.n,
                             seed=args.seed, chains=args.chains)
    raw_var = baseline.values.var(axis=0, ddof=1)
    scaling = compute_scaling_vector(baseline)
    second = device.sample(bank_config=0, coupling="none", n_samples=args.n,
                           seed=args.seed + 1, chains=args.chains)
    corrected = apply_scaling(second, scaling)
    diag = corrected.covariance().diagonal()
    fit = fit_loading_model(raw_var) if args.cells == 8 else None
    run.add("scaling", write_csv(
        run.path("scaling.csv"), "cell,scale",
        np.column_stack([np.arange(args.cells), scaling.values])))
    report = {
        "raw_variances": raw_var.tolist(),
        "corrected_diagonal": diag.tolist(),
        "max_diagonal_deviation": float(np.max(np.abs(diag / diag.mean() - 1.0))),
        "loading_fit": None if fit is None else {
            "a": fit.a, "b": fit.b, "residual": fit.residual,
            "degenerate": fit.degenerate, "flagged": fit.flagged},
    }
    path = run.path("calibration.json")
    path.write_text(json.dumps(report, indent=2, sort_keys=True))
    run.add("calibration", path)
    run.results["max_diagonal_deviation"] = report["max_diagonal_deviation"]
    return run


def _selected_cells(cell, n_cells: int):
    if cell is None:
        return range(n_cells)
    if not 0 <= cell < n_cells:
        raise ValueError(f"--cell {cell} is out of range for {n_cells} cells")
    return [cell]


def cmd_spectroscopy(args) -> _Run:
    run = _Run(args)
    if args.device:
        from .circuit import CircuitParams
        device = CircuitParams.from_json(Path(args.device).read_text())
        n_cells = device.dimension
    else:
        device = SpuEmulator(n_cells=args.cells, tolerance_sigma=args.tolerance,
                             tolerance_seed=args.seed)
        n_cells = args.cells
    fits = characterize_cells(device, _selected_cells(args.cell, n_cells),
                              bank_config=args.bank, n_samples=args.n, seed=args.seed,
                              sample_rate=args.rate, chains=args.chains)
    report = {}
    for cell, (fit, spectrum) in fits.items():
        run.add(f"spectrum_cell{cell}", write_csv(
            run.path(f"spectrum_cell{cell}.csv"), "f_hz,psd_v2_per_hz",
            np.column_stack([spectrum.frequencies, spectrum.density])))
        report[str(cell)] = {
            "inductance_h": fit.estimate.inductance,
            "resistance_ohm": fit.estimate.resistance,
            "noise_psd_a2_per_hz": fit.estimate.noise_psd,
            "capacitance_f": fit.estimate.capacitance,
            "cost": fit.cost,
            "cost_spectrum": fit.cost_spectrum,
            "cost_variance": fit.cost_variance,
            "converged": fit.converged,
        }
    path = run.path("fit.json")
    path.write_text(json.dumps(report, indent=2, sort_keys=True))
    run.add("fit", path)
    return run


def cmd_faultscan(args) -> _Run:
    run = _Run(args)
    device = SpuEmulator(n_cells=args.cells,
                         dead_couplings=set(args.kill_coupling or ()),
                         dead_cells=frozenset(args.kill_cell or ()),
                         capacitance_scale=dict(args.scale_cap or ()))
    report = two_cell_fault_scan(device, bank_config=args.bank,
                                 n_samples=args.n, seed=args.seed, chains=args.chains)
    path = run.path("faultscan.json")
    path.write_text(json.dumps(report.summary(), indent=2, sort_keys=True))
    run.add("faultscan", path)
    run.results["flag_count"] = len(report.flags)
    run.results["runs_stepped"] = report.runs_stepped
    return run


def cmd_perf(args) -> _Run:
    run = _Run(args)
    digital = load_digital_baseline(args.digital_baseline, n_samples=args.n)
    spu = SpuCostParams()
    dims = np.unique(np.geomspace(args.d_min, args.d_max, args.points).astype(int))
    table = performance_curves(dims, n_samples=args.n, spu=spu, digital=digital)
    run.add("curves", write_csv(
        run.path("perf_curves.csv"),
        "d,spu_time_s,digital_time_s,spu_energy_j,digital_energy_j", table))
    d_star = crossover(spu=spu, digital=digital, n_samples=args.n)
    run.results["crossover_dimension"] = d_star
    svg = line_plot(run.path("perf.svg"),
                    [(table[:, 0], table[:, 1], "device time"),
                     (table[:, 0], table[:, 2], "digital time")],
                    title="time to solution", xlabel="dimension",
                    ylabel="seconds", log_x=True, log_y=True)
    run.add("plot", svg)
    print(f"crossover dimension: {d_star}")
    return run


def cmd_study(args) -> _Run:
    run = _Run(args)
    if args.precision:
        target = TargetSpec(load_matrix(args.precision), "precision")
    else:
        target = TargetSpec(np.eye(args.identity), "precision")
    grid = [float(v) for v in args.grid.split(",")]
    plan = SamplingPlan(n_samples=args.n, chains=args.chains,
                        decorrelate=not args.no_decorrelate)
    study = parameter_study(args.axis, grid, target, plan, seed=args.seed,
                            noise=args.noise_mode, quantize=args.quantize)
    run.add("study", write_csv(  # a None entry is written as nan
        run.path("study.csv"),
        f"{args.axis},n_samples,cov_err,cov_err_per_element,skew_err,kurt_err,window_s",
        study.table()))
    values = sorted({r.value for r in study.rows})
    series = []
    for v in values:
        pts = [(r.n_samples, r.covariance_error) for r in study.rows if r.value == v]
        pts.sort()
        series.append(([p[0] for p in pts], [p[1] for p in pts],
                       f"{args.axis}={v:g}"))
    run.add("plot", line_plot(run.path("study.svg"), series,
                              title=f"{args.axis} study", xlabel="samples",
                              ylabel="covariance error", log_x=True, log_y=True))
    return run


def _cell_value(kind: type, form: str):
    """argparse type that parses ``form`` ("I,J" or "I:FACTOR") to (int, kind)."""
    def parse(text: str):
        try:
            cell, value = text.split(form[1])
            return int(cell), kind(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None
    return parse


def _non_negative_int(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spusim",
        description="Emulated stochastic processing unit: sampling, inversion, "
                    "calibration, applications, and the scaling cost model. "
                    "All quantities are SI (henries, ohms, farads, volts, Hz).")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # no abbreviations: a removed flag must not resolve to another one (gpr --n to --noise)
    sub_kwargs = {"formatter_class": argparse.ArgumentDefaultsHelpFormatter,
                  "allow_abbrev": False}

    def common(p, n_default=10_000, chains=32, seed=True):
        """The shared flags a verb reads: no --n, --chains or --seed where
        ``n_default``, ``chains`` or ``seed`` is None or false."""
        p.add_argument("--outdir", default=None,
                       help="output directory (default env SPUSIM_OUTDIR or ./spusim-out)")
        if seed:
            p.add_argument("--seed", type=_non_negative_int, default=0, help="master RNG seed")
        if chains is not None:
            p.add_argument("--chains", type=int, default=chains,
                           help="independent chains, merged in chain-index order")
        if n_default is not None:
            p.add_argument("--n", type=int, default=n_default, help="sample count")

    p = sub.add_parser("sample", **sub_kwargs, help="draw equilibrium Gaussian samples")
    common(p, 100_000)
    p.add_argument("--precision", help="precision-matrix CSV (units: target)")
    p.add_argument("--covariance", help="covariance-matrix CSV (charge readout)")
    p.add_argument("--rate", type=float, default=None,
                   help="sampling rate in Hz (default: decorrelated spacing)")
    p.add_argument("--noise-level", type=float, default=1.0,
                   help="injected-noise scale in (0, 1]: kappa0 or PDM duty")
    p.add_argument("--noise-mode", choices=["ideal", "lfsr-chain"], default="ideal")
    p.add_argument("--quantize", action="store_true",
                   help="restrict to switched bank/coupling values")
    p.add_argument("--tolerance", type=float, default=0.0,
                   help="relative sigma of component-tolerance emulation")
    p.add_argument("--no-decorrelate", action="store_true",
                   help="keep every recorded sample (correlated regime)")
    p.add_argument("--chain-seed-a", type=lambda s: int(s, 0), default=0xACE1,
                   help="first LFSR seed of the noise chain (nonzero 16-bit)")
    p.add_argument("--chain-seed-b", type=lambda s: int(s, 0), default=0x1D2F,
                   help="second LFSR seed of the noise chain")
    p.add_argument("--export-noise", type=_non_negative_int, default=0, metavar="N_BITS",
                   help="also write N_BITS of the noise-chain pipeline "
                        "(bit, gated, filtered) to noise_stream.csv")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("invert", **sub_kwargs, help="invert a PSD matrix by sampling")
    common(p, 100_000)
    p.add_argument("--matrix", required=True, help="symmetric PSD matrix CSV")
    p.add_argument("--samples", dest="n", type=int,
                   help="alias for --n (sample budget)")
    p.add_argument("--quantize", action="store_true")
    p.add_argument("--tolerance", type=float, default=0.0)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("gpr", **sub_kwargs, help="Gaussian process regression")
    common(p, n_default=None)
    p.add_argument("--train", help="training CSV with columns x,y")
    p.add_argument("--train-points", type=_positive_int, default=8,
                   help="points for the generated sin demo set (no --train)")
    p.add_argument("--test", type=_grid_spec, default="0:6.283185307179586:50",
                   help="test grid start:stop:count")
    p.add_argument("--length-scale", type=float, default=1.0)
    p.add_argument("--signal-variance", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=1.0,
                   help="observation noise standard deviation")
    p.add_argument("--inverter", choices=["digital", "thermodynamic"],
                   default="thermodynamic")
    p.add_argument("--inverter-samples", type=int, default=100_000)
    p.set_defaults(func=cmd_gpr)

    p = sub.add_parser("lsq", **sub_kwargs, help="linear least squares via the normal equations")
    common(p, n_default=None)
    p.add_argument("--data", help="CSV with columns x,y")
    p.add_argument("--degree", type=_non_negative_int, default=1,
                   help="polynomial degree for --data designs")
    p.add_argument("--design", help="design-matrix CSV")
    p.add_argument("--y", help="response CSV")
    p.add_argument("--inverter", choices=["digital", "thermodynamic"],
                   default="thermodynamic")
    p.add_argument("--inverter-samples", type=int, default=100_000)
    p.set_defaults(func=cmd_lsq)

    p = sub.add_parser("sngp-sample", **sub_kwargs, help="patch-wise posterior sampling")
    common(p, n_default=None)
    p.add_argument("--mean", help="mean vector CSV")
    p.add_argument("--cov", help="covariance matrix CSV")
    p.add_argument("--draws", type=_positive_int, default=2000)
    p.add_argument("--patch-size", type=int, default=8)
    p.add_argument("--sampler", choices=["digital", "emulated-spu"],
                   default="emulated-spu")
    p.add_argument("--demo", action="store_true",
                   help="generate the bundled two-moons fixture")
    p.add_argument("--grid-size", type=_positive_int, default=64)
    p.set_defaults(func=cmd_sngp_sample)

    p = sub.add_parser("calibrate", **sub_kwargs, help="scaling-vector calibration run")
    common(p, 200_000)
    p.add_argument("--cells", type=int, default=8)
    p.add_argument("--loading", type=float, default=400.0,
                   help="coupling-circuit resistance driving the non-uniformity")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("spectroscopy", **sub_kwargs, help="noise-driven parameter fitting")
    common(p, 400_000)
    p.add_argument("--cells", type=int, default=8)
    p.add_argument("--cell", type=int, default=None,
                   help="single cell to characterize (default: all)")
    p.add_argument("--bank", type=int, default=3)
    p.add_argument("--rate", type=float, default=12e6)
    p.add_argument("--tolerance", type=float, default=0.0,
                   help="hidden component scatter of the emulated device")
    p.add_argument("--device", help="device-description JSON to characterize")
    p.set_defaults(func=cmd_spectroscopy)

    p = sub.add_parser("faultscan", **sub_kwargs, help="pairwise drive/probe fault scan")
    common(p, 16_384, chains=8)
    p.add_argument("--cells", type=int, default=8)
    p.add_argument("--bank", type=int, default=3)
    p.add_argument("--kill-coupling", action="append", type=_cell_value(int, "I,J"), metavar="I,J",
                   help="inject a dead coupling (repeatable)")
    p.add_argument("--kill-cell", action="append", type=int, metavar="I",
                   help="inject a dead noise source (repeatable)")
    p.add_argument("--scale-cap", action="append", type=_cell_value(float, "I:FACTOR"),
                   metavar="I:FACTOR",
                   help="inject a shifted in-cell capacitance (repeatable)")
    p.set_defaults(func=cmd_faultscan)

    p = sub.add_parser("perf", **sub_kwargs, help="runtime/energy scaling model")
    common(p, chains=None, seed=False)  # a deterministic model: no chains, no stream
    p.add_argument("--digital-baseline", default=None,
                   help="measured (d,time,energy) CSV; bundled table by default")
    p.add_argument("--d-min", type=_positive_int, default=100)
    p.add_argument("--d-max", type=_positive_int, default=100_000)
    p.add_argument("--points", type=_positive_int, default=25)
    p.set_defaults(func=cmd_perf)

    p = sub.add_parser("study", **sub_kwargs, help="noise-level or sampling-rate study")
    common(p, 4000)
    p.add_argument("--axis", choices=["noise_level", "sampling_rate"], required=True)
    p.add_argument("--grid", type=_float_list, required=True,
                   help="comma-separated axis values")
    p.add_argument("--precision", help="target precision-matrix CSV")
    p.add_argument("--identity", type=_positive_int, default=8,
                   help="identity-target dimension when no matrix is given")
    p.add_argument("--noise-mode", choices=["ideal", "lfsr-chain"], default="ideal")
    p.add_argument("--quantize", action="store_true")
    p.add_argument("--no-decorrelate", action="store_true")
    p.set_defaults(func=cmd_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "perf" and args.d_max < args.d_min:
        parser.error(f"argument --d-max: must be >= --d-min {args.d_min}, got {args.d_max}")
    try:
        run = args.func(args)
        run.finish()
    except MatrixFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except NotPositiveDefiniteError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except DimensionMismatchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 5
    except (SpuSimError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"wrote {len(run.artifacts)} artifact(s) to {run.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
