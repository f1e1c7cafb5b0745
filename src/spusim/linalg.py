"""Equilibrium-sampling algorithms: Gaussian sampling and matrix inversion.

Sampling a target Gaussian means compiling it onto the device and reading
equilibrium samples of the appropriate observable; inverting a symmetric
positive-definite matrix means encoding it as the precision matrix and
measuring the sample covariance of the equilibrium voltages.  The digital
reference backend uses exact factorization-based sampling and serves as the
oracle in every cross-check.

The decorrelation default keeps samples spaced ``SPACING_TAUS`` (five)
correlation times apart, a spacing that ``SamplingPlan.trajectory_config``
states as the run's record rate; ``decorrelate=False`` records at the raw
sampling rate instead, which reproduces the correlated-sampling regime of
the rate studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .circuit import CircuitParams
from .compiler import TargetSpec, compile_covariance, compile_precision
from .errors import NotPositiveDefiniteError
from .langevin import (TrajectoryConfig, _check_noise, _refuse_chain_rate, _refuse_off_grid,
                       _voltage_records, correlation_time, integrate_circuit)
from .noise import NoiseChainConfig
from .samples import SampleBatch, prefix_covariances

SPACING_TAUS = 5.0  # decorrelated records lie this many correlation times apart (5 tau rule)


@dataclass(frozen=True)
class SamplingPlan:
    """How many samples to draw and how fast.

    ``noise_level`` scales the injected noise (kappa0 for the ideal source,
    PDM duty for the chain); the readout normalization assumes the linear
    kappa(level) law, so chain non-idealities show up as sample error,
    which is exactly what the noise-level study measures.  When
    ``sampling_rate`` is None and ``decorrelate`` is set, samples are
    spaced ``SPACING_TAUS`` correlation times apart; every run burns in
    for ``langevin.BURN_IN_TAUS`` of them.
    """

    n_samples: int = 10_000
    sampling_rate: float | None = None
    noise_level: float = 1.0
    decorrelate: bool = True
    chains: int = 32

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        rate = self.sampling_rate
        if rate is not None and not (math.isfinite(rate) and rate > 0):
            raise ValueError(f"sampling_rate must be positive and finite, got {rate}")
        if not 0.0 < self.noise_level <= 1e6:
            raise ValueError(f"noise_level must be in (0, 1e6], got {self.noise_level}")
        if self.chains < 1:
            raise ValueError("chains must be >= 1")

    def trajectory_config(self, params: CircuitParams, seed: int,
                          chain: NoiseChainConfig | None = None) -> TrajectoryConfig:
        """The run plan of ``params``, on the chain ``chain`` if given: the one
        place where the ``SPACING_TAUS`` spacing becomes a record rate.  A
        chain refuses a requested rate off its bit grid before it is thinned."""
        tau = correlation_time(params)
        rate = self.sampling_rate
        if rate is None:
            # the decorrelation spacing, or the raw-rate default of ten samples per tau
            rate = 1.0 / (SPACING_TAUS * tau) if self.decorrelate else 10.0 / tau
        elif self.decorrelate:
            if chain is not None:
                _refuse_chain_rate(rate, chain.bit_rate)
            # thin the requested rate down to the decorrelation spacing
            rate = rate / max(1, math.ceil(SPACING_TAUS * tau * rate))
        return TrajectoryConfig(n_samples=self.n_samples, sample_rate=rate, seed=seed,
                                chains=self.chains)


def _as_target(target, kind: str = "precision") -> TargetSpec:
    if isinstance(target, TargetSpec):
        return target
    return TargetSpec(np.asarray(target, dtype=float), kind)


def _scaled_noise(params: CircuitParams, level: float) -> CircuitParams:
    if level == 1.0:
        return params
    return replace(params, cells=tuple(replace(c, noise_psd=c.noise_psd * level)
                                       for c in params.cells))


def _digital_samples(spec: TargetSpec, n_samples: int, seed: int) -> np.ndarray:
    """Exact draws of the target by its Cholesky factor: the digital reference."""
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(spec.covariance())
    return rng.standard_normal((n_samples, spec.dimension)) @ chol.T


def _compiled_run(spec: TargetSpec, plan: SamplingPlan, seed: int,
                  noise: str | NoiseChainConfig = "ideal", quantize: bool = False,
                  tolerance_sigma: float = 0.0, chain_seeds: tuple[int, int] | None = None):
    """The circuit run that samples ``spec`` on the emulated device:
    ``(compilation, params, config, noise, factor)``, where ``factor`` turns
    the run's readout into target samples.  A bad noise setting or
    tolerance is refused before the target is compiled."""
    _check_noise(noise)
    if not 0.0 <= tolerance_sigma < math.inf:  # NaN fails both comparisons
        raise ValueError(f"tolerance_sigma must be non-negative and finite, got {tolerance_sigma}")
    if spec.kind == "precision":
        comp = compile_precision(spec.matrix, kT=spec.kT, quantize=quantize)
    else:
        comp = compile_covariance(spec.matrix, beta=1.0 / spec.kT, quantize=quantize)
    params = comp.params(use_quantized=quantize)
    if tolerance_sigma > 0.0:
        params = params.with_tolerance(tolerance_sigma, seed=seed + 90001)
    if isinstance(noise, str) and noise == "ideal":
        # the ideal source takes the level as a kappa0 scale; the plan below reads
        # only R and C, which the scale keeps, so one instance decomposes C
        params = _scaled_noise(params, plan.noise_level)
    else:
        # the chain takes the level as its PDM duty; kappa0 stays nominal
        if isinstance(noise, str):
            noise = NoiseChainConfig.matched(correlation_time(params))
        noise = replace(noise, duty_cycle=plan.noise_level)
        if chain_seeds is not None:
            noise = replace(noise, seed_a=chain_seeds[0], seed_b=chain_seeds[1])
    chain = noise if isinstance(noise, NoiseChainConfig) else None
    cfg = plan.trajectory_config(params, seed, chain)
    # undo quantization rescale and noise-level scaling in one factor
    level_scale = 1.0 / math.sqrt(plan.noise_level)
    return comp, params, cfg, noise, comp.readout_scale * level_scale


def sample_gaussian(target, plan: SamplingPlan | None = None,
                    backend: str = "emulated-spu", seed: int = 0,
                    noise: str | NoiseChainConfig = "ideal",
                    quantize: bool = False, tolerance_sigma: float = 0.0,
                    chain_seeds: tuple[int, int] | None = None,
                    return_compilation: bool = False):
    """Draw zero-mean samples whose population distribution is the target.

    ``target`` is a TargetSpec or a raw symmetric PSD matrix (treated as a
    precision matrix).  Backends: "emulated-spu" compiles the target onto
    the device and integrates; "digital" is the exact factorization-based
    reference.  Mean shifts are the caller's business (translate the
    returned samples).  ``tolerance_sigma`` perturbs L, R, C components to
    emulate hardware tolerances; ``quantize`` restricts capacitances to the
    switched banks.  On the noise chain, which records once a whole number
    of its bits, the run refuses a plan rate more than rounding off those
    rates (ValueError naming the nearest two).
    """
    plan = plan or SamplingPlan()
    spec = _as_target(target)
    if backend == "digital":
        batch = SampleBatch(_digital_samples(spec, plan.n_samples, seed), sample_rate=1.0,
                            chains=1, meta={"backend": "digital", "seed": seed})
        return (batch, None) if return_compilation else batch
    if backend != "emulated-spu":
        raise ValueError(f"unknown backend {backend!r}")

    comp, params, cfg, noise, factor = _compiled_run(spec, plan, seed, noise, quantize,
                                                     tolerance_sigma, chain_seeds)
    batch = integrate_circuit(params, cfg, noise=noise, record=comp.readout)
    if factor != 1.0:
        batch = batch.scaled(np.full(spec.dimension, factor))
    batch.meta.update(backend="emulated-spu", readout=comp.readout,
                      quantized=quantize, noise_level=plan.noise_level)
    return (batch, comp) if return_compilation else batch


def checkpoint_counts(n_total: int, n_checkpoints: int = 20, start: int = 30) -> np.ndarray:
    """Logarithmically spaced sample counts ending at ``n_total``."""
    if n_total < 4:
        raise ValueError("need at least 4 samples")
    start = min(max(4, start), n_total)
    counts = np.geomspace(start, n_total, n_checkpoints).astype(int)
    counts[-1] = n_total
    return _sorted_unique(counts)


def _sorted_unique(counts: np.ndarray) -> np.ndarray:
    """The distinct positive ``counts``, ascending: ``np.unique``, which
    would load numpy.ma."""
    counts = np.sort(counts)
    return counts[np.diff(counts, prepend=0) > 0]


@dataclass(frozen=True)
class InversionResult:
    """Sampled inverse with its convergence record against the dense oracle."""

    estimate: np.ndarray
    exact: np.ndarray
    n_series: np.ndarray
    error_series: np.ndarray

    @property
    def final_error(self) -> float:
        return float(self.error_series[-1])


def relative_frobenius_error(estimate: np.ndarray, reference: np.ndarray) -> float:
    """|| estimate - reference ||_F / || reference ||_F.

    Raises ValueError, and no RuntimeWarning, when the ratio is not finite,
    as when a norm overflows for entries near the float range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        err = float(np.linalg.norm(estimate - reference) / np.linalg.norm(reference))
    if not math.isfinite(err):
        raise ValueError(f"relative Frobenius error is {err}: a norm overflowed "
                         f"or the estimate is not finite")
    return err


def _inversion_records(spec: TargetSpec, plan: SamplingPlan, backend: str, seed: int,
                       **sample_kwargs):
    """Rows whose covariance, read out, estimates the inverse of ``spec``:
    ``(blocks, total, basis, readout)``, the rows in time-major blocks
    (``samples.prefix_covariances``) and ``total`` their count.

    On the device the blocks are the run's chunks of kept charge halves in
    its block basis, streamed as it steps, and ``readout`` the per-mode
    factors (a vector) or the matrix that, with the readout scale folded
    in, maps them to target samples (``langevin._voltage_records``).  The
    digital rows are target samples, one block of one chain: no basis and
    no readout.  The compilation is released on return.
    """
    if backend == "digital":
        rows = _digital_samples(spec, plan.n_samples, seed)
        return [rows[:, None]], len(rows), None, None
    if backend != "emulated-spu":
        raise ValueError(f"unknown backend {backend!r}")
    _, params, cfg, noise, factor = _compiled_run(spec, plan, seed, **sample_kwargs)
    chunks, basis, readout = _voltage_records(params, cfg, noise)
    return chunks, cfg.chains * cfg.samples_per_chain, basis, factor * readout


def _read_out(cov: np.ndarray, readout: np.ndarray | None) -> np.ndarray:
    """Covariance of r * h (``readout`` a vector r) or R h (a matrix R),
    given the covariance of h; of h itself for None."""
    if readout is None:
        return cov
    if readout.ndim == 1:
        return readout[:, None] * cov * readout
    return readout @ cov @ readout.T


def invert_matrix(a, plan: SamplingPlan | None = None, seed: int = 0,
                  backend: str = "emulated-spu", **sample_kwargs) -> InversionResult:
    """Invert a symmetric positive-definite matrix by equilibrium sampling.

    Encodes ``a`` as the precision matrix, samples the circuit at thermal
    equilibrium, and returns the voltage covariance as the inverse
    estimate, together with the relative Frobenius error against the exact
    dense inverse at 20 logarithmically spaced sample counts
    (``checkpoint_counts``).  As on the
    device, the covariance is accumulated while the run steps: each chunk
    of the run's kept charge records goes into the prefix covariances as it
    is made, so neither the records nor the voltages are ever held whole,
    and the covariance is read out d x d per checkpoint.  A modal run
    (every compiled target without tolerances) is measured in its mode
    basis Q, where the readout is a per-mode scale and the Frobenius norm
    is unchanged, ||Q S Q^T - A^-1|| = ||S - Q^T A^-1 Q||; one rotation
    gives the estimate.  A checkpoint whose error is not finite is raised
    once the run has finished, so a state that leaves the floats later is
    named first (``NonFiniteStateError``).  ``sample_kwargs`` are those of
    ``sample_gaussian``.
    """
    plan = plan or SamplingPlan()
    spec = _as_target(np.asarray(a, dtype=float), "precision")  # validates symmetry
    try:
        blocks, total, basis, readout = _inversion_records(spec, plan, backend, seed,
                                                           **sample_kwargs)
    except NotPositiveDefiniteError as err:
        raise NotPositiveDefiniteError(
            f"cannot invert: {err}", min_eigenvalue=err.min_eigenvalue) from err
    exact = np.linalg.inv(spec.matrix)
    target = exact if basis is None else basis.T @ exact @ basis
    counts = checkpoint_counts(total)
    errors = np.empty(len(counts))
    failed = None  # the first checkpoint error that is not finite
    with np.errstate(over="ignore", invalid="ignore"):  # the run steps in this loop
        for i, (n, cov) in enumerate(prefix_covariances(blocks, counts)):
            cov = _read_out(cov, readout)
            try:
                errors[i] = relative_frobenius_error(cov, target)
            except ValueError as err:
                failed = failed or err
    if failed is not None:
        raise failed
    if basis is not None:
        cov = basis @ cov @ basis.T
    return InversionResult(estimate=0.5 * (cov + cov.T), exact=exact, n_series=counts,
                           error_series=errors)


@dataclass(frozen=True)
class MomentReport:
    """Covariance/skewness/kurtosis error versus sample count.

    The covariance entry is the relative Frobenius error against the target
    covariance.  Skewness and kurtosis errors are the Euclidean norms of
    the per-dimension marginal standardized-moment deviations from their
    Gaussian values (zero skew, zero excess kurtosis): marginal, not
    tensor, moments.
    """

    n_samples: np.ndarray
    covariance_error: np.ndarray
    skewness_error: np.ndarray
    kurtosis_error: np.ndarray

    def rows(self):
        return zip(self.n_samples, self.covariance_error,
                   self.skewness_error, self.kurtosis_error)


def moment_errors(batch: SampleBatch, target, n_checkpoints: int = 20) -> MomentReport:
    """Moment-error series of a batch against its target distribution."""
    if batch.n_samples < 4:
        raise ValueError("kurtosis is undefined below 4 samples")
    spec = _as_target(target)
    sigma = spec.covariance()
    sigma_norm = np.linalg.norm(sigma)
    counts = checkpoint_counts(batch.n_samples, n_checkpoints, start=10)
    cov_err = np.empty(len(counts))
    skew_err = np.empty(len(counts))
    kurt_err = np.empty(len(counts))
    ordered = batch.time_major()
    for i, (n, cov) in enumerate(prefix_covariances([ordered[:, None]], counts)):
        cov_err[i] = np.linalg.norm(cov - sigma) / sigma_norm
        xc = ordered[:n] - ordered[:n].mean(axis=0)
        std = xc.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        z = xc / std
        g1 = (z ** 3).mean(axis=0)
        g2 = (z ** 4).mean(axis=0) - 3.0
        skew_err[i] = np.linalg.norm(g1)
        kurt_err[i] = np.linalg.norm(g2)
    return MomentReport(counts, cov_err, skew_err, kurt_err)


@dataclass
class StudyRow:
    axis: str
    value: float
    n_samples: int
    covariance_error: float
    covariance_error_per_element: float
    skewness_error: float | None = None
    kurtosis_error: float | None = None
    elapsed_window: float | None = None


@dataclass
class StudyResult:
    axis: str
    rows: list[StudyRow] = field(default_factory=list)

    def table(self) -> list[tuple]:
        return [(r.value, r.n_samples, r.covariance_error,
                 r.covariance_error_per_element, r.skewness_error,
                 r.kurtosis_error, r.elapsed_window) for r in self.rows]


def parameter_study(axis: str, grid, target, plan: SamplingPlan | None = None,
                    seed: int = 0, noise: str | NoiseChainConfig = "ideal",
                    quantize: bool = False) -> StudyResult:
    """Error surfaces over noise level or sampling rate, versus sample count.

    Each grid value's errors are read at 12 logarithmically spaced sample
    counts (``checkpoint_counts``).
    For the rate axis one master trajectory is recorded at the fastest
    requested rate and digitally down-sampled to the slower ones, mirroring
    how the hardware study post-processes a fixed 12 MHz record; a slower
    rate off the fastest over a whole stride is refused before any run.  Rows
    carry both error normalizations and, for the rate axis, the elapsed
    sampling window so fixed-time comparisons can be read off directly.
    """
    if axis not in ("noise_level", "sampling_rate"):
        raise ValueError(f"unknown study axis {axis!r}")
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be non-empty")
    plan = plan or SamplingPlan()
    spec = _as_target(target)
    sigma = spec.covariance()
    result = StudyResult(axis=axis)

    if axis == "noise_level":
        for level in grid:
            level_plan = replace(plan, noise_level=float(level))
            batch = sample_gaussian(spec, level_plan, seed=seed, noise=noise,
                                    quantize=quantize)
            report = moment_errors(batch, spec, 12)
            for n, ce, se, ke in report.rows():
                result.rows.append(StudyRow(
                    axis="noise_level", value=float(level), n_samples=int(n),
                    covariance_error=float(ce),
                    covariance_error_per_element=float(ce) / spec.dimension,
                    skewness_error=float(se), kurtosis_error=float(ke)))
        return result

    rates = sorted(float(r) for r in grid)
    if not all(math.isfinite(r) and r > 0 for r in rates):
        raise ValueError(f"sampling rates must be positive and finite, got {grid}")
    fastest = rates[-1]
    for r in rates:  # each rate is the fastest one thinned by a whole stride
        _refuse_off_grid(r, fastest, "the study's fastest rate", "record")
    strides = [round(fastest / r) for r in rates]
    # record enough fast samples that the slowest rate still reaches n_samples
    master_plan = replace(plan, sampling_rate=fastest, decorrelate=False,
                          n_samples=plan.n_samples * max(strides))
    master = sample_gaussian(spec, master_plan, seed=seed, noise=noise,
                             quantize=quantize)
    for rate, stride in zip(rates, strides):
        batch = master.thinned(stride) if stride > 1 else master
        counts = checkpoint_counts(batch.n_samples, 12, start=10)
        if plan.n_samples <= batch.n_samples:
            counts = _sorted_unique(np.append(counts, plan.n_samples))
        for n, cov in prefix_covariances([batch.per_chain().swapaxes(0, 1)], counts):
            err = relative_frobenius_error(cov, sigma)
            result.rows.append(StudyRow(
                axis="sampling_rate", value=rate, n_samples=int(n),
                covariance_error=err,
                covariance_error_per_element=err / spec.dimension,
                elapsed_window=n / batch.chains / batch.sample_rate))
    return result
