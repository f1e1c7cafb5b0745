"""Device-level facade: a configurable emulated board with hidden faults.

Calibration and fault-scan workflows talk to an ``SpuEmulator`` the way a
bench script talks to the physical hardware: set bank configurations and
couplings, enable noise on chosen cells, pull voltage samples.  Hardware
imperfections (parallel loading, component tolerances, dead couplings,
dead cells, shifted capacitances) are injected here and kept hidden from
the procedures under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuit import (BANK_CAPACITANCES_F, CircuitParams, CouplingConfig, UnitCell,
                      effective_loading)
from .langevin import TrajectoryConfig, integrate_circuit
from .samples import SampleBatch

# nominal per-cell design values of the emulated board
NOMINAL_INDUCTANCE_H = 1.3e-6
NOMINAL_RESISTANCE_OHM = 50.0
NOMINAL_NOISE_PSD = 1.0e-13  # A^2/Hz at full drive
DEFAULT_SAMPLE_RATE_HZ = 12e6


def _normalize_coupling(coupling, d: int) -> CouplingConfig:
    if isinstance(coupling, CouplingConfig):
        return coupling
    if isinstance(coupling, str):
        if coupling == "none":
            return CouplingConfig.none(d)
        if coupling == "all-positive":
            return CouplingConfig.all_positive(d)
        raise ValueError(f"unknown coupling preset {coupling!r}")
    return CouplingConfig(np.asarray(coupling))


@dataclass
class SpuEmulator:
    """An emulated board with optional hidden imperfections.

    ``coupling_resistance`` switches on the parallel-loading non-uniformity
    (lower-numbered cells see more loading).  ``dead_couplings`` behave as
    state 0 regardless of configuration; ``dead_cells`` have a broken noise
    source; ``capacitance_scale`` multiplies a cell's true in-cell
    capacitance (the configured nominal value stays what the user asked
    for).  ``tolerance_sigma`` adds seeded component scatter.
    """

    n_cells: int = 8
    inductance: float | np.ndarray = NOMINAL_INDUCTANCE_H
    resistance: float | np.ndarray = NOMINAL_RESISTANCE_OHM
    noise_psd: float | np.ndarray = NOMINAL_NOISE_PSD
    coupling_resistance: float | None = None
    tolerance_sigma: float = 0.0
    tolerance_seed: int = 0
    dead_couplings: frozenset = field(default_factory=frozenset)
    dead_cells: frozenset = field(default_factory=frozenset)
    capacitance_scale: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_cells < 1:
            raise ValueError(f"a board needs at least one cell, got n_cells={self.n_cells}")
        if not 0.0 <= self.tolerance_sigma < np.inf:  # NaN fails both comparisons
            raise ValueError("tolerance_sigma must be non-negative and finite, "
                             f"got {self.tolerance_sigma}")
        loading = self.coupling_resistance
        if loading is not None and not 0.0 < loading < np.inf:
            raise ValueError("coupling_resistance must be None or positive and finite, "
                             f"got {loading}")
        self.dead_couplings = frozenset(
            (min(i, j), max(i, j)) for i, j in self.dead_couplings)
        self.dead_cells = frozenset(self.dead_cells)
        for i, j in sorted(self.dead_couplings):
            if i == j:
                raise ValueError(f"dead coupling {i},{j} must join two different cells")
        cells = {c for pair in self.dead_couplings for c in pair}
        for cell in sorted(cells | self.dead_cells | set(self.capacitance_scale)):
            if not 0 <= cell < self.n_cells:
                raise ValueError(f"cell index {cell} is out of range for {self.n_cells} cells")
        for cell, factor in sorted(self.capacitance_scale.items()):
            if not 0.0 < factor < np.inf:
                raise ValueError(f"capacitance_scale of cell {cell} must be positive and "
                                 f"finite, got {factor}")

    def _vec(self, value) -> np.ndarray:
        return np.broadcast_to(np.asarray(value, dtype=float), (self.n_cells,)).copy()

    def nominal_params(self, bank_config=0, coupling="none",
                       noise_mask=None) -> CircuitParams:
        """Parameters as the user believes them to be (no imperfections)."""
        banks = np.broadcast_to(np.asarray(bank_config), (self.n_cells,))
        kappa = self._vec(self.noise_psd)
        if noise_mask is not None:
            kappa = kappa * np.asarray(noise_mask, dtype=float)
        l_vec = self._vec(self.inductance)
        r_vec = self._vec(self.resistance)
        cells = [UnitCell(l_vec[i], r_vec[i], kappa[i], bank_config=int(banks[i]))
                 for i in range(self.n_cells)]
        return CircuitParams.build(cells, _normalize_coupling(coupling, self.n_cells))

    def true_params(self, bank_config=0, coupling="none",
                    noise_mask=None) -> CircuitParams:
        """Parameters with every hidden imperfection applied."""
        banks = np.broadcast_to(np.asarray(bank_config), (self.n_cells,))
        kappa = self._vec(self.noise_psd)
        if noise_mask is not None:
            kappa = kappa * np.asarray(noise_mask, dtype=float)
        for cell in self.dead_cells:
            kappa[cell] = 0.0
        l_vec = self._vec(self.inductance)
        r_vec = self._vec(self.resistance)
        if self.coupling_resistance is not None:
            r_vec = np.array([
                effective_loading(i, r_vec[i], self.coupling_resistance, self.n_cells)
                for i in range(self.n_cells)
            ])
        caps = np.array([BANK_CAPACITANCES_F[int(b)] for b in banks])
        for cell, factor in self.capacitance_scale.items():
            caps[cell] *= factor
        cfg = _normalize_coupling(coupling, self.n_cells)
        states = cfg.states.copy()
        for i, j in self.dead_couplings:
            states[i, j] = 0
            states[j, i] = 0
        cells = [UnitCell(l_vec[i], r_vec[i], kappa[i], capacitance=caps[i])
                 for i in range(self.n_cells)]
        params = CircuitParams.build(cells, CouplingConfig(states))
        if self.tolerance_sigma > 0:
            params = params.with_tolerance(self.tolerance_sigma, self.tolerance_seed)
        return params

    def sample_run(self, bank_config=0, coupling="none", n_samples: int = 10_000,
                   sample_rate: float = DEFAULT_SAMPLE_RATE_HZ, seed: int = 0,
                   chains: int = 16, noise_mask=None) -> tuple[CircuitParams, TrajectoryConfig]:
        """The (true params, run plan) that ``sample`` integrates; a run of
        ``integrate_circuits``."""
        params = self.true_params(bank_config, coupling, noise_mask)
        cfg = TrajectoryConfig(n_samples=n_samples, sample_rate=sample_rate,
                               seed=seed, chains=chains)
        return params, cfg

    def sample(self, bank_config=0, coupling="none", n_samples: int = 10_000,
               sample_rate: float = DEFAULT_SAMPLE_RATE_HZ, seed: int = 0,
               chains: int = 16, noise_mask=None, noise="ideal") -> SampleBatch:
        """Pull voltage samples from the (imperfect) device."""
        params, cfg = self.sample_run(bank_config, coupling, n_samples, sample_rate, seed,
                                      chains, noise_mask)
        return integrate_circuit(params, cfg, noise=noise, record="voltage")
