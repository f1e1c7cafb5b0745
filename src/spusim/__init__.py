"""spusim: desk-scale emulation of a stochastic processing unit.

The package integrates the stochastic dynamics of coupled RLC unit cells,
compiles user matrices into circuit parameters, and implements equilibrium
Gaussian sampling, sampling-based matrix inversion, device calibration,
downstream applications (Gaussian process regression, least squares,
patch-wise posterior sampling) and a runtime/energy scaling model.
"""

from .apps import (Dataset1D, GprPosterior, KernelSpec, gpr_posterior,
                   kernel_matrix, linear_least_squares, make_two_moons,
                   sngp_patch_sample, synthetic_two_moons_posterior)
from .calibration import (CellEstimate, CellFitResult, FaultScanReport, LoadingFit,
                          PowerSpectrum, ScalingVector, analytic_cell_spectrum,
                          apply_scaling, characterize_cell, characterize_cells,
                          compute_scaling_vector,
                          estimate_spectrum, fit_circuit_params, fit_loading_model,
                          two_cell_fault_scan)
from .circuit import (BANK_CAPACITANCES_F, COUPLING_CAPACITANCE_F, CircuitParams,
                      CouplingConfig, UnitCell, build_maxwell, effective_loading,
                      loading_variance_model, maxwell_from_capacitances)
from .compiler import (CompilationResult, TargetSpec, compile_covariance,
                       compile_precision, preprocess_non_psd, quantize_to_banks)
from .device import SpuEmulator
from .errors import (DeadCellError, DimensionMismatchError, MatrixFormatError,
                     NotPositiveDefiniteError, QuantizationError, SpuSimError)
from .langevin import (TrajectoryConfig, correlation_time, integrate_circuit,
                       integrate_circuits, stationary_state_covariance,
                       stationary_voltage_covariance, suggest_dt)
from .linalg import (InversionResult, MomentReport, SamplingPlan, invert_matrix,
                     moment_errors, parameter_study, relative_frobenius_error,
                     sample_gaussian)
from .noise import (LfsrState, NoiseChainConfig, gold_bits, lfsr_bits, lfsr_step,
                    pdm_gate, rc_filter)
from .perf import (DigitalCostParams, SpuCostParams, crossover, digital_energy,
                   digital_time, fit_digital_baseline, load_digital_baseline,
                   performance_curves, spu_energy, spu_time)
from .samples import OnlineCovariance, SampleBatch

__version__ = "0.1.0"
