"""Device characterization: noise-driven spectroscopy, fault scanning, and
post-processing calibration.

Spectroscopy drives a cell with wideband noise and fits the exact spectrum
of the sampled damped resonator to the measured power spectrum and sample
variance.  One caveat is fundamental: the voltage record of a single cell
determines only three parameter combinations (resonance frequency,
linewidth, and variance); the family (L/c, R/c, c^2 kappa0, c C) produces
an identical voltage process for every c > 0.  The fit therefore estimates
exactly those three combinations from the data and pins the noise PSD to
its configured drive level, which fixes the scale direction.

The scaling-vector calibration corrects the parallel-loading non-uniformity
in post-processing: take identity-configuration baseline samples, scale
each cell by the inverse square root of its baseline variance, then apply
the same factors to subsequent experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import CircuitParams, loading_variance_model
from .device import SpuEmulator
from .errors import DeadCellError
from .langevin import integrate_circuits
from .samples import SampleBatch


@dataclass(frozen=True)
class PowerSpectrum:
    """One-sided power spectral density estimate (V^2/Hz)."""

    frequencies: np.ndarray
    density: np.ndarray
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
    The estimate is ``_welch``'s, the zero-frequency bin dropped.
    """
    series = batch.per_chain()[:, :, cell]
    if series.shape[1] < segment_length:
        raise ValueError(
            f"batch too short: {series.shape[1]} samples per chain, "
            f"segment_length {segment_length}"
        )
    fs = batch.sample_rate
    freqs, psd = _welch(series, fs, segment_length, int(segment_length * overlap))
    return PowerSpectrum(
        frequencies=freqs[1:],
        density=psd.mean(axis=0)[1:],
        sample_rate=fs,
    )


def _welch(series: np.ndarray, fs: float, nperseg: int,
           noverlap: int) -> tuple[np.ndarray, np.ndarray]:
    """Welch's (1967) one-sided PSD of every row of ``series``: (freqs, psd).

    Segments of ``nperseg`` samples start every ``nperseg - noverlap``
    samples; each loses its mean, is weighted by the periodic Hann window
    and transformed; the squared magnitudes are scaled to a density
    (1 / (fs sum w^2)), doubled off the zero and Nyquist bins and averaged
    over the segments.  These are the settings of
    ``scipy.signal.welch(window="hann")``.
    """
    segments = np.lib.stride_tricks.sliding_window_view(
        series, nperseg, axis=-1)[..., ::nperseg - noverlap, :]
    segments = segments - segments.mean(axis=-1, keepdims=True)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nperseg) / nperseg)
    segments *= window
    spec = np.fft.rfft(segments, axis=-1)
    psd = spec.real ** 2 + spec.imag ** 2
    psd *= 1.0 / (fs * np.sum(window ** 2))
    psd[..., 1:None if nperseg % 2 else -1] *= 2.0
    return np.fft.rfftfreq(nperseg, 1.0 / fs), psd.mean(axis=-2)


def _expm2(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of a real 2 x 2 matrix in closed form.

    With s = tr(M)/2 and q^2 = -det(M - sI), exp(M) = e^s [cosh q I +
    (sinh q / q)(M - sI)]; q is imaginary (cos, sin) for complex
    eigenvalues, an underdamped cell.  Near q = 0 sinh q / q takes its
    series.  Large real q, where e^s cosh q would overflow while e^(s+-q)
    stays finite, takes the two exponentials directly, the eigenvalue
    nearer zero as det M over the other, free of cancellation.
    """
    s = 0.5 * (m[0, 0] + m[1, 1])
    r = m - s * np.eye(2)
    q2 = r[0, 0] ** 2 + r[0, 1] * r[1, 0]
    q = math.sqrt(abs(q2))
    if q2 > 0 and q > 1.0:
        # eigenvalues s +- q; the one nearer zero from det M over the other
        far = s - q if s < 0 else s + q
        near = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) / far
        hi, lo = (math.exp(near), math.exp(far)) if s < 0 else (math.exp(far), math.exp(near))
        return 0.5 * (hi + lo) * np.eye(2) + (0.5 * (hi - lo) / q) * r
    if q < 1e-4:
        even, odd = 1.0 + q2 / 2.0, 1.0 + q2 / 6.0
    elif q2 > 0:
        even, odd = math.cosh(q), math.sinh(q) / q
    else:
        even, odd = math.cos(q), math.sin(q) / q
    return math.exp(s) * (even * np.eye(2) + odd * r)


def analytic_cell_spectrum(freqs: np.ndarray, inductance: float, resistance: float,
                           noise_psd: float, capacitance: float,
                           sample_rate: float) -> np.ndarray:
    """One-sided voltage PSD of a single noise-driven cell sampled at ``sample_rate``.

    The cell's (flux, charge) state sampled every 1/fs is exactly a VAR(1)
    process x' = A x + w with A = expm(F/fs), stationary covariance
    S = diag(L R kappa0, C R kappa0) and innovation covariance
    Q = S - A S A^T.  Its voltage v = h^T x, h = (0, 1/C), has the PSD
    (2/fs) h^T H Q H^* h with H = (I - A e^{-i theta})^-1, theta = 2 pi f/fs:
    the continuum spectrum with every alias folded in, and integrating it
    over (0, fs/2) gives the stationary variance R kappa0 / C.
    """
    a = _expm2(np.array([[0.0, 1.0 / capacitance],
                         [-1.0 / inductance, -1.0 / (resistance * capacitance)]])
               / sample_rate)
    s = resistance * noise_psd * np.diag([inductance, capacitance])
    q = s - a @ s @ a.T
    z = np.exp(-2j * np.pi * np.asarray(freqs, dtype=float) / sample_rate)
    # C h^T adj(I - A z), and det(I - A z)
    u1, u2 = a[1, 0] * z, 1.0 - a[0, 0] * z
    det = 1.0 - np.trace(a) * z + np.linalg.det(a) * z * z
    quad = (q[0, 0] * np.abs(u1) ** 2 + q[1, 1] * np.abs(u2) ** 2
            + 2.0 * q[0, 1] * (u1 * u2.conj()).real)
    return (2.0 / sample_rate) * quad / (capacitance ** 2 * np.abs(det) ** 2)


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
    converged: bool
    n_evaluations: int


# fitted part of the spectrum, as fractions of the Nyquist frequency
FIT_BAND = (0.05, 0.95)


def _least_squares(fun, x0, xtol: float = 1e-8,
                   ftol: float = 1e-8) -> tuple[np.ndarray, np.ndarray, bool]:
    """Minimize |fun(x)|^2 by Levenberg-Marquardt; returns (x, fun(x), success).

    Moré's (1978) scaled form: the Jacobian J is taken by forward
    differences, steps h_j = sqrt(eps) |x_j| as in MINPACK; each step
    solves (J^T J + lam D^2) p = -J^T f, where D holds the largest column
    norms of J seen so far and lam starts at 1e-3.  A step is taken when
    it achieves at least 1e-4 of the reduction the linear model predicts,
    and lam then follows Nielsen's rule; a rejected step doubles its
    growth.  Success is MINPACK's: every column of J is within 1e-8
    (cosine) of orthogonal to f, both the achieved and the predicted
    relative reductions of the cost are at most ``ftol``, or a step is at
    most ``xtol`` relative to D x.  The evaluation budget is 100 (n + 1).
    """
    x = np.array(x0, dtype=float)
    n = x.size
    f = fun(x)
    cost = float(f @ f)
    budget, nfev = 100 * (n + 1), 1
    scale, lam, grow = None, 1e-3, 2.0
    h0 = math.sqrt(np.finfo(float).eps)
    while nfev < budget:
        jac = np.empty((f.size, n))
        for j in range(n):
            step = x.copy()
            step[j] += h0 * abs(x[j]) or h0
            jac[:, j] = (fun(step) - f) / (step[j] - x[j])
        nfev += n
        grad = jac.T @ f
        norms = np.linalg.norm(jac, axis=0)
        live = norms > 0
        if cost == 0.0 or np.all(np.abs(grad[live]) <= 1e-8 * norms[live] * math.sqrt(cost)):
            return x, f, True
        scale = norms if scale is None else np.maximum(scale, norms)
        scale = np.where(scale > 0, scale, 1.0)
        normal = jac.T @ jac
        while nfev < budget:
            p = np.linalg.solve(normal + lam * np.diag(scale ** 2), -grad)
            trial = x + p
            f_trial = fun(trial)
            nfev += 1
            cost_trial = float(f_trial @ f_trial)
            jp, dp = jac @ p, scale * p
            predicted = float(jp @ jp + 2.0 * lam * (dp @ dp))
            actual = cost - cost_trial
            small_step = math.sqrt(dp @ dp) <= xtol * float(np.linalg.norm(scale * x))
            if predicted > 0 and actual >= 1e-4 * predicted:
                converged = (small_step or (actual <= ftol * cost
                                            and predicted <= ftol * cost))
                ratio = actual / predicted
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                grow = 2.0
                x, f, cost = trial, f_trial, cost_trial
                if converged:
                    return x, f, True
                break
            if small_step:
                return x, f, True
            lam *= grow
            grow *= 2.0
    return x, f, False


def fit_circuit_params(spectrum: PowerSpectrum, variance: float,
                       init: CellEstimate) -> CellFitResult:
    """Fit one cell's resonance frequency, linewidth and variance.

    Levenberg-Marquardt over the logs of (f0, linewidth, variance), started
    at ``init``, with the noise PSD pinned to ``init.noise_psd`` (see the
    module docstring).  The residuals are the log-spectrum misfit over
    ``FIT_BAND`` divided by sqrt(N), so that its squared sum is the mean
    squared misfit, and log(model variance / ``variance``).  The fitted
    combinations map back to R = sqrt(var / (kappa0 2 pi lw)),
    C = R kappa0 / var and L = 1 / ((2 pi f0)^2 C).
    """
    f = spectrum.frequencies
    nyq = spectrum.sample_rate / 2.0
    mask = (f >= FIT_BAND[0] * nyq) & (f <= FIT_BAND[1] * nyq)
    fb = f[mask]
    log_meas = np.log(spectrum.density[mask])
    root_n = math.sqrt(fb.size)
    kappa = init.noise_psd
    n_eval = 0

    def estimate(log_x) -> CellEstimate:
        f0, lw, var = np.exp(log_x)
        r = math.sqrt(var / (kappa * 2 * math.pi * lw))
        c = r * kappa / var
        return CellEstimate(1.0 / ((2 * math.pi * f0) ** 2 * c), r, kappa, c)

    def residuals(log_x):
        nonlocal n_eval
        n_eval += 1
        psd = analytic_cell_spectrum(fb, *estimate(log_x).as_array(),
                                     spectrum.sample_rate)
        return np.append((np.log(psd) - log_meas) / root_n,
                         log_x[2] - math.log(variance))

    l, r, c = init.inductance, init.resistance, init.capacitance
    x0 = np.log([1.0 / (2 * math.pi * math.sqrt(l * c)),
                 1.0 / (2 * math.pi * r * c), init.variance()])
    x, fun, success = _least_squares(residuals, x0)
    spec_term = float(np.sum(fun[:-1] ** 2))
    var_term = float(fun[-1] ** 2)
    return CellFitResult(estimate=estimate(x), cost=spec_term + var_term,
                         cost_spectrum=spec_term, cost_variance=var_term,
                         converged=success, n_evaluations=n_eval)


def fit_cell(batch: SampleBatch, params: CircuitParams,
             cell: int) -> tuple[CellFitResult, PowerSpectrum]:
    """Fit ``cell`` of a noise-driven ``batch``, starting from its values in ``params``.

    Raises DeadCellError before any fit when the cell's configured drive is
    not positive or its measured variance is zero or not finite.
    """
    nominal = params.cells[cell]
    if not nominal.noise_psd > 0:
        raise DeadCellError(f"cell {cell} has no noise drive "
                            f"(noise_psd {nominal.noise_psd}) to fit against")
    variance = float(batch.values[:, cell].var(ddof=1))
    if not (math.isfinite(variance) and variance > 0):
        raise DeadCellError(f"cell {cell} shows no usable signal "
                            f"(measured variance {variance})")
    spectrum = estimate_spectrum(batch, cell=cell)
    init = CellEstimate(nominal.inductance, nominal.resistance,
                        nominal.noise_psd, nominal.capacitance)
    return fit_circuit_params(spectrum, variance, init), spectrum


def characterize_cell(device: SpuEmulator, cell: int, bank_config: int = 3,
                      n_samples: int = 1_000_000, seed: int = 0,
                      sample_rate: float = 12e6,
                      chains: int = 64) -> tuple[CellFitResult, PowerSpectrum]:
    """Noise-driven spectroscopy of one cell on an emulated device.

    Only ``cell`` is driven and the board is uncoupled, so the integration
    steps that cell alone; its step size follows that cell.
    """
    if not 0 <= cell < device.n_cells:
        raise ValueError(f"cell {cell} is out of range for {device.n_cells} cells")
    mask = np.zeros(device.n_cells)
    mask[cell] = 1.0
    batch = device.sample(bank_config=bank_config, coupling="none",
                          n_samples=n_samples, sample_rate=sample_rate,
                          seed=seed, chains=chains, noise_mask=mask)
    return fit_cell(batch, device.nominal_params(bank_config=bank_config), cell)


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
                        signal_floor: float = 1e-4, chains: int = 8) -> FaultScanReport:
    """Pairwise drive/probe spectroscopy over all couplings.

    One cell is driven with noise while another is measured; every
    unordered pair is tested at couplings -1, 0 and +1 (self-drives once,
    couplings off).  A healthy pair shows a probe-spectrum peak near the
    designed resonance when coupled and silence at coupling 0; deviations
    are flagged as absent, frequency-shifted or unexpected.

    Each run is the device's ``sample`` run with ``chains`` chains and seed
    ``seed`` plus its index.  It steps only the cells that can move: the
    driven cell and, when the pair is coupled, the probe; the step size
    follows them.  The other cells, and an uncoupled probe, read exact
    zeros.  All runs go to one ``integrate_circuits`` call, which steps
    runs of equal shape as one stack; the records come back in scan order.
    """
    d = device.n_cells
    if d < 2:
        raise ValueError(f"the pairwise fault scan needs at least two cells, got {d}")
    tests = []
    for drive in range(d):
        for probe in range(drive, d):
            for state in (0,) if drive == probe else (1, -1, 0):
                matrix = np.zeros((d, d), dtype=np.int8)
                if drive != probe:
                    matrix[drive, probe] = state
                    matrix[probe, drive] = state
                mask = np.zeros(d)
                mask[drive] = drive_level
                tests.append((drive, probe, state, matrix, mask))
    # a generator: each run's whole-board params are dropped once it is prepared
    runs = (device.sample_run(bank_config=bank_config, coupling=matrix, n_samples=n_samples,
                              sample_rate=sample_rate, seed=seed + i, chains=chains,
                              noise_mask=mask)
            for i, (_, _, _, matrix, mask) in enumerate(tests))
    records = [None] * len(tests)
    for i, batch in integrate_circuits(runs):
        drive, probe, state, matrix, _ = tests[i]
        nominal = device.nominal_params(bank_config=bank_config, coupling=matrix)
        f_exp = 1.0 / (2 * np.pi * math.sqrt(
            nominal.cells[probe].inductance * nominal.maxwell[probe, probe]))
        drive_var = float(batch.values[:, drive].var(ddof=1))
        probe_var = float(batch.values[:, probe].var(ddof=1))
        has_signal = probe_var > signal_floor * max(drive_var, 1e-300)
        peak_db = -np.inf
        f_peak = None
        if has_signal:
            spec = estimate_spectrum(batch, segment_length=segment_length, cell=probe)
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
        records[i] = FaultRecord(drive=drive, probe=probe, coupling=state,
                                 expected_peak=expected, peak_found=found,
                                 peak_frequency=f_peak, expected_frequency=f_exp,
                                 peak_db=float(peak_db), flag=flag)
        del batch  # free these samples before the next run's readout
    return FaultScanReport(records)


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

    log_ab, _, _ = _least_squares(residuals, np.log([a0, max(b0, 1e-12)]),
                                  xtol=1e-14, ftol=1e-14)
    a, b = np.exp(log_ab)
    fitted = np.array([loading_variance_model(a, b, i) for i in range(8)])
    residual = float(np.sqrt(np.mean((fitted / var - 1.0) ** 2)))
    return LoadingFit(a=float(a), b=float(b), residual=residual, fitted=fitted,
                      degenerate=bool(b > 1e4 * a),
                      flagged=bool(residual > residual_flag))
