"""Runtime and energy scaling model: emulated device versus cubic digital baseline.

The device-side model sums three stages: computing and loading the d^2
capacitor-array elements (quadratic in dimension), reading out samples
through per-cell ADC channels (linear in sample count, dimension-free
because channels scale with d), and running the physical dynamics for five
time constants per decorrelated sample.  The digital baseline is never
hard-coded: it is fitted to a measured (d, time, energy) table supplied as
input, with a bundled qualitative reference table
(``data/digital_baseline.csv``) for out-of-the-box runs.

Every constant is an explicit, overridable assumption; the stage
decomposition weights in particular are modeling choices, not
measurements.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class SpuCostParams:
    """Device-side cost assumptions.

    ``time_constant`` is the physical RC scale (1 us default),
    ``adc_rate`` the per-channel sampling rate (10 MS/s), and
    ``power_per_cell`` the ADC-dominated draw (5 uW).  The per-element
    compile and load times set the quadratic stage; ``sample_spacing_tau``
    is the decorrelation spacing in time constants.
    """

    time_constant: float = 1e-6
    adc_rate: float = 1e7
    power_per_cell: float = 5e-6
    compile_time_per_element: float = 1e-6
    load_time_per_element: float = 1e-6
    sample_spacing_tau: float = 5.0

    def __post_init__(self):
        values = (self.time_constant, self.adc_rate, self.power_per_cell,
                  self.compile_time_per_element, self.load_time_per_element,
                  self.sample_spacing_tau)
        if any(v <= 0 for v in values):
            raise ValueError("all cost parameters must be positive")


@dataclass(frozen=True)
class DigitalCostParams:
    """Digital baseline coefficients fitted from a measured table."""

    cubic_coefficient: float          # seconds per d^3
    quadratic_per_sample: float       # seconds per (sample * d^2)
    power: float                      # watts

    def __post_init__(self):
        if self.cubic_coefficient < 0 or self.quadratic_per_sample < 0 or self.power < 0:
            raise ValueError("digital cost coefficients must be non-negative")


def spu_time(d: int, n_samples: int, params: SpuCostParams | None = None) -> float:
    """Modeled wall-clock seconds for n_samples draws at dimension d."""
    if d < 1 or n_samples < 1:
        raise ValueError("d and n_samples must be >= 1")
    p = params or SpuCostParams()
    compile_stage = p.compile_time_per_element * d * d
    load_readout = p.load_time_per_element * d * d + n_samples / p.adc_rate
    dynamics = n_samples * p.sample_spacing_tau * p.time_constant
    return compile_stage + load_readout + dynamics


def spu_energy(d: int, n_samples: int, params: SpuCostParams | None = None) -> float:
    """Modeled joules: per-cell power times total time, summed over cells."""
    p = params or SpuCostParams()
    return d * p.power_per_cell * spu_time(d, n_samples, p)


def digital_time(d: int, n_samples: int, params: DigitalCostParams) -> float:
    """Fitted baseline: cubic factorization plus per-sample quadratic work."""
    if d < 1 or n_samples < 1:
        raise ValueError("d and n_samples must be >= 1")
    return params.cubic_coefficient * d ** 3 + params.quadratic_per_sample * n_samples * d * d


def digital_energy(d: int, n_samples: int, params: DigitalCostParams) -> float:
    return params.power * digital_time(d, n_samples, params)


def fit_digital_baseline(table: np.ndarray, n_samples: int = 10_000) -> DigitalCostParams:
    """Fit DigitalCostParams to measured rows (d, time_s[, energy_j]).

    Least squares on the features (d^3, n d^2); the power is the mean
    energy/time ratio when an energy column is present, otherwise 0.
    """
    table = np.atleast_2d(np.asarray(table, dtype=float))
    if table.shape[0] < 2 or table.shape[1] < 2:
        raise ValueError("baseline table needs >= 2 rows of (d, time[, energy])")
    d = table[:, 0]
    t = table[:, 1]
    features = np.column_stack([d ** 3, n_samples * d ** 2])
    coeffs, *_ = np.linalg.lstsq(features, t, rcond=None)
    coeffs = np.clip(coeffs, 0.0, None)
    power = float(np.mean(table[:, 2] / t)) if table.shape[1] >= 3 else 0.0
    return DigitalCostParams(cubic_coefficient=float(coeffs[0]),
                             quadratic_per_sample=float(coeffs[1]), power=power)


def load_digital_baseline(path: str | Path | None = None,
                          n_samples: int = 10_000) -> DigitalCostParams:
    """Load and fit a baseline CSV (d,time_s,energy_j); bundled table by default.

    The bundled table is a qualitative GPU-like stand-in, not a measurement
    (the measured constants are not published): time 6.7e-10 d^3 +
    1e-14 n d^2 seconds (n = 10,000) at 300 W, at 25 dimensions spaced
    geometrically from 100 to 100,000.  Its fitted curve is near-cubic over
    that range, and the time crossover against the default device model
    lands near d = 3000.
    """
    if path is None:
        ref = importlib.resources.files("spusim.data").joinpath("digital_baseline.csv")
        text = ref.read_text()
    else:
        text = Path(path).read_text()
    rows = [line for line in text.strip().splitlines()
            if line and not line.lstrip().startswith(("#", "d,"))]
    table = np.array([[float(v) for v in line.split(",")] for line in rows])
    return fit_digital_baseline(table, n_samples=n_samples)


def crossover(digital: DigitalCostParams, spu: SpuCostParams | None = None,
              n_samples: int = 10_000) -> int | None:
    """Smallest dimension where the device beats the fitted ``digital``
    baseline (``load_digital_baseline``) in time.

    The time difference digital - spu is eventually monotone (cubic minus
    quadratic); a geometric scan brackets the first sign change and
    bisection pins it.  Returns None when no crossover exists up to
    d = 1,000,000.
    """
    spu = spu or SpuCostParams()

    def advantage(d: int) -> float:
        return digital_time(d, n_samples, digital) - spu_time(d, n_samples, spu)

    if advantage(1) > 0:
        return 1
    hi = 2
    while hi <= 1_000_000 and advantage(hi) <= 0:
        hi *= 2
    if hi > 1_000_000:
        return None
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if advantage(mid) > 0:
            hi = mid
        else:
            lo = mid
    return hi


def loglog_slope(dims, values) -> float:
    """Least-squares slope of log(values) against log(dims)."""
    dims = np.asarray(dims, dtype=float)
    values = np.asarray(values, dtype=float)
    return float(np.polyfit(np.log(dims), np.log(values), 1)[0])


def performance_curves(dims, digital: DigitalCostParams, n_samples: int = 10_000,
                       spu: SpuCostParams | None = None) -> np.ndarray:
    """Table (d, spu_time, digital_time, spu_energy, digital_energy) against
    the fitted ``digital`` baseline (``load_digital_baseline``)."""
    spu = spu or SpuCostParams()
    rows = []
    for d in np.asarray(dims, dtype=int):
        rows.append((d, spu_time(d, n_samples, spu), digital_time(d, n_samples, digital),
                     spu_energy(d, n_samples, spu), digital_energy(d, n_samples, digital)))
    return np.array(rows)
