"""Device characterization: noise-driven spectroscopy, fault scanning, and
post-processing calibration.

Spectroscopy drives a cell with wideband noise and fits the analytic
response of the damped resonator to the measured power spectrum and sample
variance.  One caveat is fundamental: the voltage record of a single cell
determines only three parameter combinations (resonance frequency,
linewidth, and variance); the family (L/c, R/c, c^2 kappa0, c C) produces
an identical voltage process for every c > 0.  The fit therefore anchors
the noise PSD weakly to its configured drive level, which pins that scale
direction; the three identifiable combinations are genuinely estimated
from the data.

The scaling-vector calibration corrects the parallel-loading non-uniformity
in post-processing: take identity-configuration baseline samples, scale
each cell by the inverse square root of its baseline variance, then apply
the same factors to subsequent experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, signal

from .circuit import loading_variance_model
from .device import SpuEmulator
from .errors import DeadCellError
from .samples import SampleBatch


@dataclass(frozen=True)
class PowerSpectrum:
    """One-sided power spectral density estimate (V^2/Hz)."""

    frequencies: np.ndarray
    density: np.ndarray
    resolution_bandwidth: float
    sample_rate: float

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        d = np.asarray(self.density, dtype=float)
        if np.any(np.diff(f) <= 0):
            raise ValueError("frequencies must be strictly increasing")
        if np.any(d < 0):
            raise ValueError("spectral density must be non-negative")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "density", d)

    def integral(self) -> float:
        """Total power: integral of the density over frequency."""
        return float(np.trapezoid(self.density, self.frequencies))

    def peak_frequency(self, f_min: float = 0.0) -> float:
        mask = self.frequencies >= f_min
        idx = np.argmax(self.density[mask])
        return float(self.frequencies[mask][idx])


def estimate_spectrum(batch: SampleBatch, segment_length: int = 4096,
                      overlap: float = 0.5, cell: int = 0) -> PowerSpectrum:
    """Averaged-periodogram (Welch, Hann window) estimate for one cell.

    Chains are treated as independent records and averaged.  The integral
    of the returned density matches the time-domain variance (Parseval).
    """
    series = batch.per_chain()[:, :, cell]
    if series.shape[1] < segment_length:
        raise ValueError(
            f"batch too short: {series.shape[1]} samples per chain, "
            f"segment_length {segment_length}"
        )
    fs = batch.sample_rate
    noverlap = int(segment_length * overlap)
    freqs, psd = signal.welch(series, fs=fs, window="hann",
                              nperseg=segment_length, noverlap=noverlap, axis=1)
    return PowerSpectrum(
        frequencies=freqs[1:],
        density=psd.mean(axis=0)[1:],
        resolution_bandwidth=1.5 * fs / segment_length,  # Hann ENBW
        sample_rate=fs,
    )


def analytic_cell_spectrum(freqs: np.ndarray, inductance: float, resistance: float,
                           noise_psd: float, capacitance: float,
                           sample_rate: float | None = None,
                           n_alias: int = 6) -> np.ndarray:
    """One-sided voltage PSD of a single noise-driven cell (V^2/Hz).

    The continuum response is S(w) = (2 kappa0 / C^2) / ((1/RC)^2 +
    (w - 1/(w L C))^2); sampling folds images at multiples of the sampling
    rate back into the band, so ``n_alias`` folded terms are added when the
    rate is known.  Integrating the unaliased density over all frequencies
    gives the stationary variance R kappa0 / C.
    """
    freqs = np.asarray(freqs, dtype=float)

    def two_sided(w):
        w = np.where(np.abs(w) < 1e-12, 1e-12, w)
        band = (1.0 / (resistance * capacitance)) ** 2
        detune = w - 1.0 / (w * inductance * capacitance)
        return (2.0 * noise_psd / capacitance ** 2) / (band + detune ** 2)

    total = two_sided(2 * np.pi * freqs)
    if sample_rate is not None and n_alias > 0:
        for k in range(1, n_alias + 1):
            total = total + two_sided(2 * np.pi * (k * sample_rate - freqs))
            total = total + two_sided(2 * np.pi * (k * sample_rate + freqs))
    return 2.0 * total


@dataclass(frozen=True)
class CellEstimate:
    inductance: float
    resistance: float
    noise_psd: float
    capacitance: float

    def __post_init__(self):
        if min(self.inductance, self.resistance, self.noise_psd, self.capacitance) <= 0:
            raise ValueError("all estimates must be positive")

    def as_array(self) -> np.ndarray:
        return np.array([self.inductance, self.resistance,
                         self.noise_psd, self.capacitance])

    def variance(self) -> float:
        return self.resistance * self.noise_psd / self.capacitance


@dataclass(frozen=True)
class CellFitResult:
    """Best-fit cell parameters with the cost decomposition."""

    estimate: CellEstimate
    cost: float
    cost_spectrum: float
    cost_variance: float
    cost_anchor: float
    converged: bool
    n_evaluations: int


def default_cell_model(theta: np.ndarray, freqs: np.ndarray,
                       sample_rate: float) -> tuple[np.ndarray, float]:
    """Analytic aliased spectrum + variance for parameters (L, R, kappa0, C)."""
    l, r, k, c = theta
    return (analytic_cell_spectrum(freqs, l, r, k, c, sample_rate=sample_rate),
            r * k / c)


def fit_circuit_params(spectrum: PowerSpectrum, variance: float,
                       init: CellEstimate, bounds_factor: tuple[float, float] = (0.1, 10.0),
                       model=None, restarts: int = 5, seed: int = 0,
                       band: tuple[float, float] = (0.05, 0.95),
                       anchor_weight: float = 1.0,
                       max_iterations: int = 2000) -> CellFitResult:
    """Fit (L, R, kappa0, C) of one cell to its spectrum and variance.

    Derivative-free simplex search in log-parameter space with random
    restarts inside ``bounds_factor`` times the initial guess.  The cost is
    the log-spectrum squared distance over ``band`` (a fraction of the
    Nyquist range) plus the squared relative variance error, each
    normalized to order one at the initial guess, plus the weak noise-PSD
    anchor described in the module docstring.  If no restart converges the
    best point found is returned with ``converged=False``.
    """
    if model is None:
        model = default_cell_model
    f = spectrum.frequencies
    nyq = spectrum.sample_rate / 2.0
    mask = (f >= band[0] * nyq) & (f <= band[1] * nyq)
    fb = f[mask]
    log_meas = np.log(spectrum.density[mask])
    theta0 = np.log(init.as_array())
    lo = theta0 + math.log(bounds_factor[0])
    hi = theta0 + math.log(bounds_factor[1])

    def terms(log_theta):
        psd, var = model(np.exp(log_theta), fb, spectrum.sample_rate)
        spec_term = float(np.mean((np.log(psd) - log_meas) ** 2))
        var_term = float((var / variance - 1.0) ** 2)
        anchor_term = float((log_theta[2] - theta0[2]) ** 2)
        return spec_term, var_term, anchor_term

    s0, v0, _ = terms(theta0)
    w_spec = 1.0 / max(s0, 1e-3)
    w_var = 1.0 / max(v0, 1e-3)

    def cost(log_theta):
        if np.any(log_theta < lo - 1e-9) or np.any(log_theta > hi + 1e-9):
            return 1e12
        s, v, a = terms(log_theta)
        return w_spec * s + w_var * v + anchor_weight * a

    rng = np.random.default_rng(seed)
    best = None
    converged = False
    n_eval = 0
    for r in range(max(1, restarts)):
        x0 = theta0 if r == 0 else rng.uniform(
            np.maximum(lo, theta0 - math.log(2)), np.minimum(hi, theta0 + math.log(2)))
        res = optimize.minimize(cost, x0, method="Nelder-Mead",
                                options={"maxiter": max_iterations,
                                         "xatol": 1e-8, "fatol": 1e-12})
        n_eval += res.nfev
        if best is None or res.fun < best.fun:
            best = res
        converged = converged or bool(res.success)
    theta = np.clip(best.x, lo, hi)
    s, v, a = terms(theta)
    est = CellEstimate(*np.exp(theta))
    return CellFitResult(estimate=est, cost=float(best.fun),
                         cost_spectrum=w_spec * s, cost_variance=w_var * v,
                         cost_anchor=anchor_weight * a,
                         converged=converged, n_evaluations=n_eval)


def characterize_cell(device: SpuEmulator, cell: int, bank_config: int = 3,
                      n_samples: int = 1_000_000, seed: int = 0,
                      sample_rate: float = 12e6, chains: int = 64,
                      **fit_kwargs) -> tuple[CellFitResult, PowerSpectrum]:
    """Noise-driven spectroscopy of one cell on an emulated device."""
    if not 0 <= cell < device.n_cells:
        raise ValueError(f"cell {cell} is out of range for {device.n_cells} cells")
    mask = np.zeros(device.n_cells)
    mask[cell] = 1.0
    batch = device.sample(bank_config=bank_config, coupling="none",
                          n_samples=n_samples, sample_rate=sample_rate,
                          seed=seed, chains=chains, noise_mask=mask)
    spectrum = estimate_spectrum(batch, cell=cell)
    variance = float(batch.values[:, cell].var(ddof=1))
    nominal = device.nominal_params(bank_config=bank_config)
    init = CellEstimate(
        inductance=nominal.cells[cell].inductance,
        resistance=nominal.cells[cell].resistance,
        noise_psd=nominal.cells[cell].noise_psd,
        capacitance=nominal.cells[cell].capacitance,
    )
    fit = fit_circuit_params(spectrum, variance, init, seed=seed, **fit_kwargs)
    return fit, spectrum


@dataclass(frozen=True)
class FaultRecord:
    drive: int
    probe: int
    coupling: int
    expected_peak: bool
    peak_found: bool
    peak_frequency: float | None
    expected_frequency: float
    peak_db: float
    flag: str | None  # None, "absent", "frequency-shifted", "unexpected"


@dataclass
class FaultScanReport:
    records: list[FaultRecord] = field(default_factory=list)

    @property
    def flags(self) -> list[FaultRecord]:
        return [r for r in self.records if r.flag is not None]

    def summary(self) -> dict:
        return {
            "runs": len(self.records),
            "flags": [
                {"drive": r.drive, "probe": r.probe, "coupling": r.coupling,
                 "flag": r.flag, "peak_frequency": r.peak_frequency,
                 "expected_frequency": r.expected_frequency}
                for r in self.flags
            ],
        }


def two_cell_fault_scan(device: SpuEmulator, bank_config: int = 3,
                        drive_level: float = 1.0, n_samples: int = 16384,
                        sample_rate: float = 12e6, seed: int = 0,
                        segment_length: int = 2048, prominence_db: float = 6.0,
                        freq_tolerance: float = 0.15,
                        signal_floor: float = 1e-4) -> FaultScanReport:
    """Pairwise drive/probe spectroscopy over all couplings.

    One cell is driven with noise while another is measured; every
    unordered pair is tested at couplings -1, 0 and +1 (self-drives once,
    couplings off).  A healthy pair shows a probe-spectrum peak near the
    designed resonance when coupled and silence at coupling 0; deviations
    are flagged as absent, frequency-shifted or unexpected.
    """
    d = device.n_cells
    if d < 2:
        raise ValueError(f"the pairwise fault scan needs at least two cells, got {d}")
    report = FaultScanReport()
    run_seed = seed
    for drive in range(d):
        for probe in range(drive, d):
            coupling_states = (0,) if drive == probe else (1, -1, 0)
            for state in coupling_states:
                matrix = np.zeros((d, d), dtype=np.int8)
                if drive != probe:
                    matrix[drive, probe] = state
                    matrix[probe, drive] = state
                mask = np.zeros(d)
                mask[drive] = drive_level
                batch = device.sample(bank_config=bank_config, coupling=matrix,
                                      n_samples=n_samples, sample_rate=sample_rate,
                                      seed=run_seed, chains=8, noise_mask=mask)
                run_seed += 1
                nominal = device.nominal_params(bank_config=bank_config,
                                                coupling=matrix)
                f_exp = 1.0 / (2 * np.pi * math.sqrt(
                    nominal.cells[probe].inductance * nominal.maxwell[probe, probe]))
                drive_var = float(batch.values[:, drive].var(ddof=1))
                probe_var = float(batch.values[:, probe].var(ddof=1))
                has_signal = probe_var > signal_floor * max(drive_var, 1e-300)
                peak_db = -np.inf
                f_peak = None
                if has_signal:
                    spec = estimate_spectrum(batch, segment_length=segment_length,
                                             cell=probe)
                    med = float(np.median(spec.density))
                    f_peak = spec.peak_frequency()
                    top = float(spec.density.max())
                    peak_db = 10.0 * math.log10(top / med) if med > 0 else np.inf
                found = has_signal and peak_db >= prominence_db
                expected = (drive == probe) or state != 0
                flag = None
                if expected and not found:
                    flag = "absent"
                elif expected and found and abs(f_peak - f_exp) > freq_tolerance * f_exp:
                    flag = "frequency-shifted"
                elif not expected and found:
                    flag = "unexpected"
                report.records.append(FaultRecord(
                    drive=drive, probe=probe, coupling=state,
                    expected_peak=expected, peak_found=found,
                    peak_frequency=f_peak, expected_frequency=f_exp,
                    peak_db=float(peak_db), flag=flag))
    return report


@dataclass(frozen=True)
class ScalingVector:
    """Per-cell post-processing multipliers (inverse root baseline variances)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if np.any(v <= 0):
            raise ValueError("scaling values must be strictly positive")
        object.__setattr__(self, "values", v)


def compute_scaling_vector(identity_batch: SampleBatch) -> ScalingVector:
    """s_i = 1 / sqrt(baseline variance of cell i) from an identity-config run."""
    var = identity_batch.values.var(axis=0, ddof=1)
    bad = np.nonzero(~np.isfinite(var) | (var <= 1e-12 * max(var.max(), 1e-300)))[0]
    if bad.size:
        raise DeadCellError(f"cell(s) {bad.tolist()} show no variance in the baseline")
    return ScalingVector(1.0 / np.sqrt(var))


def apply_scaling(batch: SampleBatch, scaling: ScalingVector) -> SampleBatch:
    """Column-wise rescale; the corrected covariance is diag(s) Sigma diag(s)."""
    return batch.scaled(scaling.values)


@dataclass(frozen=True)
class LoadingFit:
    """Two-parameter parallel-loading fit to the eight per-cell variances."""

    a: float
    b: float
    residual: float
    fitted: np.ndarray
    degenerate: bool  # b >> a: the model reduces to a constant
    flagged: bool     # poor fit (non-monotone or noisy data)


def fit_loading_model(variances: np.ndarray, residual_flag: float = 0.05) -> LoadingFit:
    """Least-squares fit of Sigma_ii = a b / (b + (7 - i) a) to 8 variances."""
    var = np.asarray(variances, dtype=float)
    if var.shape != (8,):
        raise ValueError("the loading model is defined for exactly 8 cells")
    if np.any(var <= 0):
        raise ValueError("variances must be positive")
    a0 = var[7]
    denom = a0 - var[0]
    b0 = 7.0 * a0 * var[0] / denom if denom > 1e-12 * a0 else 1e6 * a0
    idx = np.arange(8)

    def residuals(log_ab):
        a, b = np.exp(log_ab)
        model = a * b / (b + (7 - idx) * a)
        return model / var - 1.0

    res = optimize.least_squares(residuals, np.log([a0, max(b0, 1e-12)]),
                                 method="lm", xtol=1e-14, ftol=1e-14)
    a, b = np.exp(res.x)
    fitted = np.array([loading_variance_model(a, b, i) for i in range(8)])
    residual = float(np.sqrt(np.mean((fitted / var - 1.0) ** 2)))
    return LoadingFit(a=float(a), b=float(b), residual=residual, fitted=fitted,
                      degenerate=bool(b > 1e4 * a),
                      flagged=bool(residual > residual_flag))
