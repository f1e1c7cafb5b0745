"""Compilation of user matrices into circuit parameters.

A precision-matrix target P is realized by choosing the Maxwell capacitance
matrix C = kT * P, so the equilibrium voltage vector is distributed as
N(0, kT C^-1) = N(0, P^-1).  A covariance-matrix target S is realized in
charge space: C = beta * S makes the charge vector (the integrated-current
observable) distributed as N(0, S).

To avoid silent unit bugs, the effective temperature is always consistent
with the circuit: kT = R * kappa0.  Compiled circuits are in normalized
simulation units, R = L = 1, so kappa0 = kT; kT defaults to 1.

Quantization maps an ideal Maxwell matrix onto the discrete hardware:
in-cell capacitances snap to the four bank values and couplings to
{-x, 0, +x}, after a global rescale chosen on a logarithmic grid to
minimize the relative Frobenius residual.  The residual is the hardware's
intrinsic representation error and is what makes sampled-inverse error
curves plateau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .circuit import (BANK_CAPACITANCES_F, COUPLING_CAPACITANCE_F, CircuitParams,
                      CouplingConfig, UnitCell, maxwell_from_capacitances,
                      min_eigenvalue)
from .errors import MatrixFormatError, NotPositiveDefiniteError, QuantizationError

TargetKind = Literal["precision", "covariance"]


def _validate_symmetric(matrix: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise MatrixFormatError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise MatrixFormatError(f"{name} has NaN or infinite entries")
    scale = np.linalg.norm(m)
    if scale == 0 or np.linalg.norm(m - m.T) > 1e-12 * scale:
        raise MatrixFormatError(f"{name} must be symmetric")
    return 0.5 * (m + m.T)


def _validate_pd(matrix: np.ndarray, name: str) -> None:
    """Positive definite, and resolvably so.

    An eigensolver resolves eigenvalues only to about d * eps * lambda_max, so
    a smaller minimum is indistinguishable from zero: such a target is
    numerically singular and its inverse is not determined by the matrix.
    """
    eigs = np.linalg.eigvalsh(matrix)
    lam, lam_max = float(eigs[0]), float(eigs[-1])
    if lam <= 0:
        raise NotPositiveDefiniteError(
            f"{name} is not positive definite (min eigenvalue {lam:.6g}); "
            "preprocess_non_psd can produce a PSD proxy",
            min_eigenvalue=lam,
        )
    resolution = matrix.shape[0] * np.finfo(float).eps * lam_max
    if lam <= resolution:
        raise NotPositiveDefiniteError(
            f"{name} is numerically singular: min eigenvalue {lam:.6g} is within "
            f"the eigensolver's resolution d * eps * max eigenvalue = {resolution:.6g}",
            min_eigenvalue=lam,
        )


@dataclass(frozen=True)
class TargetSpec:
    """A user matrix to compile: a precision or covariance target."""

    matrix: np.ndarray
    kind: TargetKind = "precision"
    kT: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "matrix", _validate_symmetric(self.matrix, "target matrix"))
        if self.kind not in ("precision", "covariance"):
            raise ValueError(f"unknown target kind {self.kind!r}")
        if not self.kT > 0:  # NaN fails the comparison
            raise ValueError("kT must be positive")

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def covariance(self) -> np.ndarray:
        """Covariance of the target Gaussian (dense inverse for precision kind)."""
        if self.kind == "covariance":
            return self.matrix.copy()
        return np.linalg.inv(self.matrix)


@dataclass(frozen=True)
class CompilationResult:
    """Outcome of mapping a target matrix onto circuit parameters.

    ``ideal_params`` realizes the ideal (continuous-capacitance) Maxwell
    matrix; ``quantized`` is the bank/coupling realization when requested.
    ``readout`` names the observable carrying the target distribution and
    ``readout_scale`` the factor that converts recorded samples into target
    units (it folds in the quantization rescale).
    """

    target: TargetSpec
    ideal_maxwell: np.ndarray
    ideal_params: CircuitParams
    quantized: CircuitParams | None
    residual: float
    scale_factor: float
    readout: str
    readout_scale: float

    def params(self, use_quantized: bool = False) -> CircuitParams:
        if use_quantized:
            if self.quantized is None:
                raise ValueError("compilation was run without quantization")
            return self.quantized
        return self.ideal_params

    def summary(self) -> dict:
        return {
            "kind": self.target.kind,
            "dimension": self.target.dimension,
            "residual": self.residual,
            "scale_factor": self.scale_factor,
            "readout": self.readout,
            "readout_scale": self.readout_scale,
            "quantized": self.quantized is not None,
        }


def _compile(matrix: np.ndarray, kind: TargetKind, scale: float, kappa0: float,
             quantize: bool) -> CompilationResult:
    """The circuit of ``kind`` target ``matrix`` (validated here): Maxwell
    matrix C = scale * matrix, every cell R = L = 1 with noise PSD
    ``kappa0``, so kT = kappa0."""
    m = _validate_symmetric(matrix, f"{kind} matrix")
    _validate_pd(m, f"{kind} matrix")
    target = TargetSpec(m, kind, kappa0)  # refuses a kT that is not positive
    ideal = scale * m
    ideal_params = CircuitParams.from_maxwell(ideal, noise_psd=kappa0)
    quantized, residual, factor, readout_scale = None, 0.0, 1.0, 1.0
    if quantize:
        quantized, residual, factor = quantize_to_banks(ideal, kappa0=kappa0)
        # hardware C ~= factor * scale * matrix  =>  a precision target's
        # cov(V) ~= P^-1 / factor, a covariance target's cov(q) ~= factor * S
        readout_scale = (float(np.sqrt(factor)) if kind == "precision"
                         else float(1.0 / np.sqrt(factor)))
    return CompilationResult(
        target=target,
        ideal_maxwell=ideal, ideal_params=ideal_params, quantized=quantized,
        residual=residual, scale_factor=factor,
        readout="voltage" if kind == "precision" else "charge", readout_scale=readout_scale,
    )


def compile_precision(precision: np.ndarray, kT: float = 1.0,
                      quantize: bool = False) -> CompilationResult:
    """Map a precision matrix P to circuit parameters with C = kT * P.

    Every cell has R = L = 1, so kappa0 = kT.  The compiled circuit's
    equilibrium voltage covariance is P^-1 in target units (readout_scale
    converts samples when a quantization rescale was applied).
    """
    kT = float(kT)
    return _compile(precision, "precision", kT, kT, quantize)


def compile_covariance(covariance: np.ndarray, beta: float = 1.0,
                       quantize: bool = False) -> CompilationResult:
    """Map a covariance matrix S to circuit parameters with C = beta * S.

    Every cell has R = L = 1, so kappa0 = 1 / beta.  The target
    distribution lives on the charge vector, i.e. the integrated-current
    observable (readout "charge"), not on the voltages.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    return _compile(covariance, "covariance", beta, 1.0 / beta, quantize)


def snap_to_grid(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Nearest grid value per entry; ties round half away from zero."""
    values = np.asarray(values, dtype=float)
    grid = np.asarray(grid, dtype=float)
    dist = np.abs(values[..., None] - grid)
    # prefer the larger-magnitude candidate on exact ties
    order = np.argsort(-np.abs(grid), kind="stable")
    dist_ordered = dist[..., order]
    choice = order[np.argmin(dist_ordered, axis=-1)]
    return grid[choice]


def quantize_to_banks(ideal_maxwell: np.ndarray,
                      kappa0: float = 1.0) -> tuple[CircuitParams, float, float]:
    """Quantize an ideal Maxwell matrix onto the switched hardware values.

    Searches a log-spaced grid of 64 global scale factors spanning
    [1/100, 100] around the natural magnitude match, snapping in-cell
    capacitances (row sums) to the bank values ``BANK_CAPACITANCES_F`` and
    couplings to {-x, 0, +x}, x = ``COUPLING_CAPACITANCE_F``.  Every cell
    has R = L = 1 and noise PSD ``kappa0``.  Returns the realizable
    parameters, the relative Frobenius residual at the chosen scale, and
    the scale factor.  Raises when every candidate is indefinite.
    """
    ideal = _validate_symmetric(ideal_maxwell, "ideal Maxwell matrix")
    bank = np.asarray(BANK_CAPACITANCES_F, dtype=float)
    in_cell_ideal = ideal.sum(axis=1)
    center_ref = np.mean(np.abs(in_cell_ideal))
    if center_ref <= 0:
        center_ref = np.mean(np.abs(np.diag(ideal)))
    center = np.mean(bank) / center_ref
    scales = center * np.logspace(-2.0, 2.0, 64)
    # the identity scale is always a candidate so on-grid inputs quantize exactly
    scales = np.concatenate([[1.0], scales])

    best = None
    for s in scales:
        scaled = s * ideal
        cell_caps = snap_to_grid(scaled.sum(axis=1), bank)
        coupling = -scaled.copy()
        np.fill_diagonal(coupling, 0.0)
        snapped = snap_to_grid(coupling, np.array([-COUPLING_CAPACITANCE_F, 0.0,
                                                   COUPLING_CAPACITANCE_F]))
        snapped = np.triu(snapped, 1) + np.triu(snapped, 1).T
        m_q = maxwell_from_capacitances(cell_caps, snapped)
        if min_eigenvalue(m_q) <= 0:
            continue
        residual = float(np.linalg.norm(m_q - scaled) / np.linalg.norm(scaled))
        if best is None or residual < best[0]:
            best = (residual, s, cell_caps, snapped)
    if best is None:
        raise QuantizationError(
            "no positive-definite bank/coupling realization found; "
            "rescale the target or relax the coupling pattern"
        )
    residual, s, cell_caps, snapped = best
    bank_index = {v: i for i, v in enumerate(bank)}
    cells = tuple(
        UnitCell(inductance=1.0, resistance=1.0, noise_psd=kappa0,
                 capacitance=c, bank_config=bank_index[c])
        for c in cell_caps
    )
    states = np.sign(snapped).astype(np.int8)
    params = CircuitParams.build(cells, CouplingConfig(states))
    return params, residual, float(s)


def preprocess_non_psd(matrix: np.ndarray):
    """Shift a symmetric matrix to a PSD proxy: A + max(0, 0.1 - lmin(A)) * I.

    Returns ``(proxy, shift)``.  Comfortably PSD inputs pass through
    unchanged with shift 0.0; a positive shift means downstream inversion
    yields (A + shift*I)^-1, not A^-1 -- recovering the true inverse is out
    of scope here.
    """
    a = _validate_symmetric(matrix, "matrix")
    shift = max(0.0, 0.1 - min_eigenvalue(a))
    out = a + shift * np.eye(a.shape[0]) if shift > 0 else a.copy()
    return out, shift
