"""Electrical structure of the emulated stochastic processing unit.

A device is a set of unit cells (LC resonators with damping resistance and
an injected current-noise source) joined by switchable bipolar capacitive
couplings.  The target of every compilation is the Maxwell capacitance
matrix: diagonal entries are the in-cell capacitance plus the sum of the
attached coupling capacitances, off-diagonal entries are the negated
coupling capacitances.

Two parameter regimes coexist.  The quantized regime restricts in-cell
capacitances to the four bank values and couplings to {-x, 0, +x}; the
continuous regime allows arbitrary positive capacitances and is used for
the ideal stage of compilation.  ``CircuitParams.quantized`` records which
regime an instance is in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, MatrixFormatError, NotPositiveDefiniteError

# Nominal component values of the emulated board (farads).
BANK_CAPACITANCES_F = (1.0e-9, 3.2e-9, 4.3e-9, 6.5e-9)
COUPLING_CAPACITANCE_F = 0.47e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float) if a.dtype != np.int8 else a
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class UnitCell:
    """One LC resonator with damping resistance and a current-noise source.

    ``noise_psd`` is the two-sided power spectral density of the injected
    current noise in A^2/Hz.  ``capacitance`` may be given directly
    (continuous regime) or derived from ``bank_config`` (quantized regime).
    """

    inductance: float
    resistance: float
    noise_psd: float
    capacitance: float | None = None
    bank_config: int | None = None

    def __post_init__(self):
        for name, value in (("inductance", self.inductance), ("resistance", self.resistance)):
            if not 0.0 < value < np.inf:  # NaN fails both comparisons
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0.0 <= self.noise_psd < np.inf:
            raise ValueError(f"noise_psd must be non-negative and finite, got {self.noise_psd}")
        if self.bank_config is not None:
            if self.bank_config not in (0, 1, 2, 3):
                raise ValueError(f"bank_config must be in 0..3, got {self.bank_config}")
            bank_value = BANK_CAPACITANCES_F[self.bank_config]
            if self.capacitance is None:
                object.__setattr__(self, "capacitance", bank_value)
            elif not np.isclose(self.capacitance, bank_value, rtol=1e-9, atol=0.0):
                raise ValueError(
                    f"capacitance {self.capacitance} disagrees with bank value {bank_value}"
                )
        if self.capacitance is None:
            raise ValueError("either capacitance or bank_config is required")
        if not np.isfinite(self.capacitance):
            raise ValueError("capacitance must be finite")
        # continuous-regime cells may carry a non-positive in-cell value (an
        # unphysical decomposition of a valid Maxwell matrix); bank-backed
        # cells are always positive by construction

    def to_dict(self) -> dict:
        return {
            "inductance": self.inductance,
            "resistance": self.resistance,
            "noise_psd": self.noise_psd,
            "capacitance": self.capacitance,
            "bank_config": self.bank_config,
        }


@dataclass(frozen=True)
class CouplingConfig:
    """Symmetric zero-diagonal matrix of coupling states in {-1, 0, +1}."""

    states: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.states)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise MatrixFormatError(f"coupling states must be square, got shape {s.shape}")
        if not np.issubdtype(s.dtype, np.integer):
            if not np.all(s == np.round(s)):
                raise MatrixFormatError("coupling states must be integers")
        s = s.astype(np.int8)
        if not np.all(np.isin(s, (-1, 0, 1))):
            raise MatrixFormatError("coupling states must be in {-1, 0, +1}")
        if np.any(s != s.T):
            raise MatrixFormatError("coupling states must be symmetric")
        if np.any(np.diag(s) != 0):
            raise MatrixFormatError("coupling states must have zero diagonal")
        object.__setattr__(self, "states", _readonly(s))

    @property
    def dimension(self) -> int:
        return self.states.shape[0]

    @classmethod
    def none(cls, d: int) -> "CouplingConfig":
        return cls(np.zeros((d, d), dtype=np.int8))

    def capacitances(self, correction: float = 1.0) -> np.ndarray:
        """Coupling capacitance matrix in farads: each state times
        ``COUPLING_CAPACITANCE_F``.

        ``correction`` rescales the effective coupling uniformly; the
        default 1.0 takes the nominal value at face value.
        """
        return self.states.astype(float) * COUPLING_CAPACITANCE_F * correction


def maxwell_from_capacitances(in_cell: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """Assemble the Maxwell capacitance matrix from component capacitances.

    ``in_cell`` holds the per-cell capacitances C_ii, ``coupling`` the
    symmetric zero-diagonal matrix of coupling capacitances C_ij (negative
    entries encode inverted-polarity couplings).
    """
    in_cell = np.asarray(in_cell, dtype=float)
    coupling = np.asarray(coupling, dtype=float)
    d = in_cell.shape[0]
    if coupling.shape != (d, d):
        raise DimensionMismatchError(
            f"coupling shape {coupling.shape} does not match {d} cells"
        )
    if not np.allclose(coupling, coupling.T):
        raise MatrixFormatError("coupling capacitances must be symmetric")
    if np.any(np.diag(coupling) != 0.0):
        raise MatrixFormatError("coupling capacitances must have zero diagonal")
    m = -coupling.copy()
    np.fill_diagonal(m, in_cell + coupling.sum(axis=1))
    return m


def build_maxwell(cells: Sequence[UnitCell], coupling: CouplingConfig) -> np.ndarray:
    """Maxwell capacitance matrix of a quantized cell/coupling configuration,
    the couplings at their nominal capacitance."""
    if coupling.dimension != len(cells):
        raise DimensionMismatchError(
            f"{len(cells)} cells but coupling is {coupling.dimension}-dimensional"
        )
    in_cell = np.array([c.capacitance for c in cells])
    return maxwell_from_capacitances(in_cell, coupling.capacitances())


def min_eigenvalue(matrix: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(matrix)[0])


def assert_positive_definite(matrix: np.ndarray, name: str = "matrix") -> None:
    """Eigenvalue test; raises with the offending minimum eigenvalue."""
    lam = min_eigenvalue(matrix)
    if lam <= 0:
        raise NotPositiveDefiniteError(
            f"{name} is not positive definite (min eigenvalue {lam:.6g})",
            min_eigenvalue=lam,
        )


@dataclass(frozen=True)
class CircuitParams:
    """Full electrical state of an emulated device.

    ``maxwell`` is always exactly the matrix assembled from the cell and
    coupling capacitances; use the factory methods rather than the raw
    constructor so the invariant holds.
    """

    cells: tuple[UnitCell, ...]
    coupling_capacitances: np.ndarray
    maxwell: np.ndarray
    quantized: bool
    coupling_states: np.ndarray | None = None
    coupling_correction: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "coupling_capacitances", _readonly(np.asarray(self.coupling_capacitances, dtype=float)))
        object.__setattr__(self, "maxwell", _readonly(np.asarray(self.maxwell, dtype=float)))

    @classmethod
    def build(cls, cells: Sequence[UnitCell], coupling: CouplingConfig | np.ndarray,
              coupling_correction: float = 1.0) -> "CircuitParams":
        cells = tuple(cells)
        if isinstance(coupling, CouplingConfig):
            caps = coupling.capacitances(correction=coupling_correction)
            states = coupling.states
            quantized = all(c.bank_config is not None for c in cells)
        else:
            caps = np.asarray(coupling, dtype=float)
            states = None
            quantized = False
        in_cell = np.array([c.capacitance for c in cells])
        maxwell = maxwell_from_capacitances(in_cell, caps)
        return cls(cells=cells, coupling_capacitances=caps, maxwell=maxwell,
                   quantized=quantized, coupling_states=states,
                   coupling_correction=coupling_correction)

    @classmethod
    def from_maxwell(cls, maxwell: np.ndarray, resistance: float | np.ndarray = 1.0,
                     inductance: float | np.ndarray = 1.0,
                     noise_psd: float | np.ndarray = 1.0) -> "CircuitParams":
        """Continuous-regime parameters realizing a given Maxwell matrix.

        In-cell capacitances are recovered as row sums, couplings as the
        negated off-diagonal entries.  Row sums may come out non-positive
        for strongly coupled targets; that decomposition is unphysical but
        the dynamics depend only on the Maxwell matrix itself, so the ideal
        compilation stage accepts it (quantization will not).
        """
        maxwell = np.asarray(maxwell, dtype=float)
        if maxwell.ndim != 2 or maxwell.shape[0] != maxwell.shape[1]:
            raise MatrixFormatError(f"Maxwell matrix must be square, got {maxwell.shape}")
        if not np.allclose(maxwell, maxwell.T, rtol=1e-10, atol=0):
            raise MatrixFormatError("Maxwell matrix must be symmetric")
        d = maxwell.shape[0]
        r = np.broadcast_to(np.asarray(resistance, dtype=float), (d,))
        l = np.broadcast_to(np.asarray(inductance, dtype=float), (d,))
        k = np.broadcast_to(np.asarray(noise_psd, dtype=float), (d,))
        in_cell = maxwell.sum(axis=1)
        coupling = -maxwell.copy()
        np.fill_diagonal(coupling, 0.0)
        cells = tuple(
            UnitCell(inductance=l[i], resistance=r[i], noise_psd=k[i], capacitance=in_cell[i])
            for i in range(d)
        )
        return cls.build(cells, coupling)

    @property
    def dimension(self) -> int:
        return len(self.cells)

    @cached_property
    def maxwell_eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the Maxwell matrix, computed once per instance.

        The positive-definiteness check, the correlation time and the step
        size all read them, so a run decomposes the matrix once.
        """
        return _readonly(np.linalg.eigvalsh(self.maxwell))

    @cached_property
    def maxwell_inverse(self) -> np.ndarray:
        """C^-1, computed once per instance: the step size, the step and the
        stationary references of a run share it."""
        return _readonly(np.linalg.inv(self.maxwell))

    @property
    def l_vector(self) -> np.ndarray:
        return np.array([c.inductance for c in self.cells])

    @property
    def r_vector(self) -> np.ndarray:
        return np.array([c.resistance for c in self.cells])

    @property
    def kappa_vector(self) -> np.ndarray:
        return np.array([c.noise_psd for c in self.cells])

    def with_tolerance(self, rel_sigma: float, seed: int) -> "CircuitParams":
        """Multiplicative component-tolerance perturbation of all L, R, C values.

        Factors are N(1, rel_sigma) draws clipped to [0.05, inf); the Maxwell
        matrix is rebuilt from the perturbed components.  Noise PSDs are not
        perturbed.
        """
        if not 0.0 <= rel_sigma < np.inf:  # NaN fails both comparisons
            raise ValueError(f"rel_sigma must be non-negative and finite, got {rel_sigma}")
        rng = np.random.default_rng(seed)
        d = self.dimension

        def factors(n):
            return np.clip(rng.normal(1.0, rel_sigma, n), 0.05, None)

        fl, fr, fc = factors(d), factors(d), factors(d)
        cells = tuple(
            UnitCell(
                inductance=c.inductance * fl[i],
                resistance=c.resistance * fr[i],
                noise_psd=c.noise_psd,
                capacitance=c.capacitance * fc[i],
            )
            for i, c in enumerate(self.cells)
        )
        fcpl = factors(d * d).reshape(d, d)
        fcpl = np.triu(fcpl, 1)
        fcpl = fcpl + fcpl.T
        caps = self.coupling_capacitances * fcpl
        return CircuitParams.build(cells, caps)

    def to_dict(self) -> dict:
        out = {
            "cells": [c.to_dict() for c in self.cells],
            "quantized": self.quantized,
            "coupling_correction": self.coupling_correction,
        }
        if self.coupling_states is not None:
            out["coupling_states"] = self.coupling_states.astype(int).tolist()
        else:
            out["coupling_capacitances"] = self.coupling_capacitances.tolist()
        return out

    def to_json(self) -> str:
        """``to_dict`` as JSON, keys sorted, indented by 2."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "CircuitParams":
        cells = [UnitCell(**c) for c in data["cells"]]
        if "coupling_states" in data:
            coupling = CouplingConfig(np.array(data["coupling_states"], dtype=np.int8))
        else:
            coupling = np.array(data["coupling_capacitances"], dtype=float)
        return cls.build(cells, coupling, data.get("coupling_correction", 1.0))

    @classmethod
    def from_json(cls, text: str) -> "CircuitParams":
        return cls.from_dict(json.loads(text))


def effective_loading(cell_index: int, cell_resistance: float,
                      coupling_resistance: float, n_total: int) -> float:
    """Effective resistance seen by a cell under parallel loading.

    Each of the ``n_total - 1 - cell_index`` coupling branches attached on
    the loading side contributes a parallel path of ``coupling_resistance``,
    so R'_i = 1 / (1/R + (n_total - 1 - i)/R_c).  The last cell sees exactly
    its own resistance.
    """
    if not 0 <= cell_index < n_total:
        raise IndexError(f"cell_index {cell_index} out of range for {n_total} cells")
    if cell_resistance <= 0 or coupling_resistance <= 0:
        raise ValueError("resistances must be strictly positive")
    n_branches = n_total - 1 - cell_index
    return 1.0 / (1.0 / cell_resistance + n_branches / coupling_resistance)


def loading_variance_model(a: float, b: float, cell_index: int) -> float:
    """Predicted per-cell sample variance under parallel loading.

    Two-parameter family Sigma_ii = a*b / (b + (7 - i)*a); ``a`` is the
    variance of the unloaded last cell, ``b`` controls how strongly the
    loading suppresses lower-numbered cells.
    """
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be strictly positive")
    if not 0 <= cell_index <= 7:
        raise IndexError(f"cell_index {cell_index} out of range 0..7")
    return a * b / (b + (7 - cell_index) * a)
