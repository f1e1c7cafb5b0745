"""Every boundary check refuses its input with its documented type and message.

One row a check: the library's refusals by exception type and message, the
command line's by exit code and the message on stderr.
"""

import re

import numpy as np
import pytest

from spusim import apps, calibration, circuit, compiler, langevin, linalg, noise, perf, samples
from spusim.cli import main
from spusim.device import SpuEmulator
from spusim.errors import (DimensionMismatchError, MatrixFormatError,
                           NotPositiveDefiniteError, QuantizationError)
from spusim.svgplot import line_plot

EYE2 = np.eye(2)


def anti_coupled(d, row_sum=1e-3):
    """A symmetric target whose off-diagonal entries are all 1 and whose row
    sums are ``row_sum``: at every candidate scale each coupling snaps to
    the inverted state, and d >= 14 such couplings outweigh the largest bank."""
    return np.ones((d, d)) - (d - row_sum) * np.eye(d)


def noisy_posterior():
    """A GPR posterior whose train-train inverse comes from 200 samples."""
    x = np.linspace(0.0, 3.0, 6)
    return apps.gpr_posterior(apps.Dataset1D(x, np.sin(x)), x, apps.KernelSpec(1.0, 1.0, 0.05),
                              inverter="thermodynamic",
                              plan=linalg.SamplingPlan(n_samples=200, chains=2))


def chain_source():
    return noise.ChainNoiseSource(noise.NoiseChainConfig(bit_rate=1.0), seed=0, dimension=1,
                                  kappa0=1.0)


LIBRARY = {
    "apps.kernel_matrix": (
        lambda tmp: apps.kernel_matrix([0.0, 1.0], [0.0, 2.0], apps.KernelSpec(),
                                       include_observation_noise=True),
        ValueError, "observation noise only applies to the train-train block"),
    "apps.gpr_posterior-inverter": (
        lambda tmp: apps.gpr_posterior(apps.Dataset1D([0.0, 1.0], [0.0, 1.0]), [0.5],
                                       apps.KernelSpec(), inverter="bogus"),
        ValueError, "unknown inverter 'bogus'"),
    "apps.gpr_posterior-indefinite": (
        lambda tmp: noisy_posterior(),
        NotPositiveDefiniteError, "posterior covariance is indefinite beyond tolerance"),
    "apps.linear_least_squares": (
        lambda tmp: apps.linear_least_squares(np.ones((3, 2)), np.ones(2)),
        DimensionMismatchError, "design and response lengths differ"),
    "apps.sngp_patch_sample": (
        lambda tmp: apps.sngp_patch_sample(np.zeros(3), EYE2, n_draws=4),
        DimensionMismatchError, "mean and covariance sizes differ"),
    "apps.synthetic_two_moons_posterior": (
        lambda tmp: apps.synthetic_two_moons_posterior(grid_size=10),
        ValueError, "grid_size must be a perfect square"),
    "calibration.CellEstimate": (
        lambda tmp: calibration.CellEstimate(1e-6, 50.0, 0.0, 1e-9),
        ValueError, "all estimates must be positive"),
    "calibration.CellEstimate-nan": (
        lambda tmp: calibration.CellEstimate(np.nan, 50.0, 1e-13, 1e-9),
        ValueError, "all estimates must be positive"),
    "calibration.ScalingVector": (
        lambda tmp: calibration.ScalingVector(np.array([1.0, -1.0])),
        ValueError, "scaling values must be strictly positive"),
    "calibration.fit_loading_model-cells": (
        lambda tmp: calibration.fit_loading_model(np.ones(7)),
        ValueError, "the loading model is defined for exactly 8 cells"),
    "calibration.fit_loading_model-variances": (
        lambda tmp: calibration.fit_loading_model(np.r_[np.ones(7), 0.0]),
        ValueError, "variances must be positive"),
    "circuit.UnitCell-bank": (
        lambda tmp: circuit.UnitCell(1e-6, 50.0, 0.0, capacitance=2e-9, bank_config=0),
        ValueError, "capacitance 2e-09 disagrees with bank value 1e-09"),
    "circuit.UnitCell-inductance-nan": (
        lambda tmp: circuit.UnitCell(np.nan, 50.0, 0.0, capacitance=1e-9),
        ValueError, "inductance must be positive and finite, got nan"),
    "circuit.UnitCell-resistance-nan": (
        lambda tmp: circuit.UnitCell(1e-6, np.nan, 0.0, capacitance=1e-9),
        ValueError, "resistance must be positive and finite, got nan"),
    "circuit.UnitCell-resistance-inf": (
        lambda tmp: circuit.UnitCell(1e-6, np.inf, 0.0, capacitance=1e-9),
        ValueError, "resistance must be positive and finite, got inf"),
    "circuit.UnitCell-noise_psd-nan": (
        lambda tmp: circuit.UnitCell(1e-6, 50.0, np.nan, capacitance=1e-9),
        ValueError, "noise_psd must be non-negative and finite, got nan"),
    "circuit.UnitCell-finite": (
        lambda tmp: circuit.UnitCell(1e-6, 50.0, 0.0, capacitance=np.inf),
        ValueError, "capacitance must be finite"),
    "circuit.CouplingConfig-square": (
        lambda tmp: circuit.CouplingConfig(np.zeros((2, 3))),
        MatrixFormatError, "coupling states must be square, got shape (2, 3)"),
    "circuit.CouplingConfig-integers": (
        lambda tmp: circuit.CouplingConfig(np.array([[0.0, 0.5], [0.5, 0.0]])),
        MatrixFormatError, "coupling states must be integers"),
    "circuit.maxwell_from_capacitances-shape": (
        lambda tmp: circuit.maxwell_from_capacitances(np.ones(2), np.zeros((3, 3))),
        DimensionMismatchError, "coupling shape (3, 3) does not match 2 cells"),
    "circuit.maxwell_from_capacitances-symmetric": (
        lambda tmp: circuit.maxwell_from_capacitances(np.ones(2), np.triu(np.ones((2, 2)), 1)),
        MatrixFormatError, "coupling capacitances must be symmetric"),
    "circuit.maxwell_from_capacitances-diagonal": (
        lambda tmp: circuit.maxwell_from_capacitances(np.ones(2), EYE2),
        MatrixFormatError, "coupling capacitances must have zero diagonal"),
    "circuit.CircuitParams.from_maxwell-square": (
        lambda tmp: circuit.CircuitParams.from_maxwell(np.ones(3)),
        MatrixFormatError, "Maxwell matrix must be square, got (3,)"),
    "circuit.CircuitParams.from_maxwell-symmetric": (
        lambda tmp: circuit.CircuitParams.from_maxwell(np.array([[2.0, 1.0], [0.0, 2.0]])),
        MatrixFormatError, "Maxwell matrix must be symmetric"),
    "circuit.effective_loading": (
        lambda tmp: circuit.effective_loading(0, 50.0, 0.0, 8),
        ValueError, "resistances must be strictly positive"),
    "circuit.loading_variance_model-parameters": (
        lambda tmp: circuit.loading_variance_model(0.0, 1.0, 0),
        ValueError, "a and b must be strictly positive"),
    "circuit.loading_variance_model-cell": (
        lambda tmp: circuit.loading_variance_model(1.0, 1.0, 8),
        IndexError, "cell_index 8 out of range 0..7"),
    "compiler.compile_precision-square": (
        lambda tmp: compiler.compile_precision(np.ones((2, 3))),
        MatrixFormatError, "precision matrix must be square, got shape (2, 3)"),
    "compiler.TargetSpec-kind": (
        lambda tmp: compiler.TargetSpec(EYE2, kind="bogus"),
        ValueError, "unknown target kind 'bogus'"),
    "compiler.TargetSpec-kT": (
        lambda tmp: compiler.TargetSpec(EYE2, kT=0.0),
        ValueError, "kT must be positive"),
    "compiler.CompilationResult.params": (
        lambda tmp: compiler.compile_precision(EYE2).params(use_quantized=True),
        ValueError, "compilation was run without quantization"),
    "compiler.compile_precision-kT": (
        lambda tmp: compiler.compile_precision(EYE2, kT=np.nan),
        ValueError, "kT must be positive"),
    "compiler.compile_covariance-beta": (
        lambda tmp: compiler.compile_covariance(EYE2, beta=0.0),
        ValueError, "beta must be positive"),
    "compiler.compile_covariance-beta-nan": (
        lambda tmp: compiler.compile_covariance(EYE2, beta=np.nan),
        ValueError, "beta must be positive"),
    "compiler.quantize_to_banks": (
        lambda tmp: compiler.quantize_to_banks(anti_coupled(14)),
        QuantizationError, "no positive-definite bank/coupling realization found; "
                           "rescale the target or relax the coupling pattern"),
    "device.SpuEmulator.true_params-preset": (
        lambda tmp: SpuEmulator(n_cells=2).true_params(coupling="all-positive"),
        ValueError, "unknown coupling preset 'all-positive'"),
    "langevin.stationary_voltage_covariance": (
        lambda tmp: langevin.stationary_voltage_covariance(
            circuit.CircuitParams.from_maxwell(EYE2), method="bogus"),
        ValueError, "unknown method 'bogus'"),
    "langevin.TrajectoryConfig-rate-missing": (
        lambda tmp: langevin.TrajectoryConfig(n_samples=8),
        TypeError, "missing 1 required positional argument: 'sample_rate'"),
    "langevin.TrajectoryConfig-rate": (
        lambda tmp: langevin.TrajectoryConfig(n_samples=8, sample_rate=None),
        ValueError, "sample_rate must be positive and finite, got None"),
    "langevin.integrate_circuit-chain-rate": (
        lambda tmp: langevin.integrate_circuit(circuit.CircuitParams.from_maxwell(EYE2),
                                               langevin.TrajectoryConfig(n_samples=8,
                                                                         sample_rate=300.0),
                                               noise="lfsr-chain"),
        ValueError, "sample rate 300 Hz is not the chain's bit rate 400 Hz over a whole "
                    "number of bits: the nearest such rates are 400 Hz and 200 Hz"),
    "langevin.integrate_circuit-record": (
        lambda tmp: langevin.integrate_circuit(circuit.CircuitParams.from_maxwell(EYE2),
                                               langevin.TrajectoryConfig(n_samples=8, sample_rate=1.0),
                                               record="current"),
        ValueError, "unknown record kind 'current'"),
    "linalg.sample_gaussian-backend": (
        lambda tmp: linalg.sample_gaussian(EYE2, backend="bogus"),
        ValueError, "unknown backend 'bogus'"),
    "linalg.checkpoint_counts": (
        lambda tmp: linalg.checkpoint_counts(3),
        ValueError, "need at least 4 samples"),
    "linalg.invert_matrix-backend": (
        lambda tmp: linalg.invert_matrix(EYE2, backend="bogus"),
        ValueError, "unknown backend 'bogus'"),
    "linalg.parameter_study-axis": (
        lambda tmp: linalg.parameter_study("bogus", [1.0], EYE2),
        ValueError, "unknown study axis 'bogus'"),
    "noise.LfsrState": (
        lambda tmp: noise.LfsrState(1.5),
        TypeError, "register must be an integer"),
    "noise.pdm_enable": (
        lambda tmp: noise.pdm_enable(8, 1.5),
        ValueError, "duty_cycle must be in [0, 1]"),
    "noise.rc_filter": (
        lambda tmp: noise.rc_filter(np.ones(4), 0.0, 1.0),
        ValueError, "time_constant and dt must be strictly positive"),
    "noise.NoiseChainConfig-duty": (
        lambda tmp: noise.NoiseChainConfig(duty_cycle=1.5),
        ValueError, "duty_cycle must be in [0, 1]"),
    "noise.NoiseChainConfig-rate": (
        lambda tmp: noise.NoiseChainConfig(bit_rate=0.0),
        ValueError, "bit_rate and rc_time_constant must be positive"),
    "noise.NoiseChainConfig.matched": (
        lambda tmp: noise.NoiseChainConfig.matched(0.0),
        ValueError, "tau_corr must be positive"),
    "noise.ChainNoiseSource.stages": (
        lambda tmp: chain_source().stages(0),
        ValueError, f"n_bits must be in [1, {noise.LFSR_PERIOD}], got 0"),
    "perf.SpuCostParams": (
        lambda tmp: perf.SpuCostParams(adc_rate=0.0),
        ValueError, "all cost parameters must be positive"),
    "perf.DigitalCostParams": (
        lambda tmp: perf.DigitalCostParams(-1.0, 0.0, 0.0),
        ValueError, "digital cost coefficients must be non-negative"),
    "perf.digital_time": (
        lambda tmp: perf.digital_time(0, 10, perf.DigitalCostParams(1.0, 0.0, 0.0)),
        ValueError, "d and n_samples must be >= 1"),
    "perf.fit_digital_baseline": (
        lambda tmp: perf.fit_digital_baseline(np.array([[100.0, 1.0]])),
        ValueError, "baseline table needs >= 2 rows of (d, time[, energy])"),
    "samples.SampleBatch-rate": (
        lambda tmp: samples.SampleBatch(np.zeros((4, 2)), sample_rate=0.0),
        ValueError, "sample_rate must be positive"),
    "samples.SampleBatch.scaled": (
        lambda tmp: samples.SampleBatch(np.zeros((4, 2)), 1.0).scaled(np.ones(3)),
        DimensionMismatchError, "expected 2 factors, got shape (3,)"),
    "samples.SampleBatch.thinned": (
        lambda tmp: samples.SampleBatch(np.zeros((4, 2)), 1.0).thinned(0),
        ValueError, "stride must be >= 1"),
    "samples.OnlineCovariance.covariance": (
        lambda tmp: samples.OnlineCovariance(2).add(np.ones((1, 2))).covariance(),
        ValueError, "need at least two samples for a covariance"),
    "svgplot.line_plot": (
        lambda tmp: line_plot(tmp / "empty.svg", [([], [], "empty")]),
        ValueError, "nothing to plot"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY))
def test_library_refusal(tmp_path, case):
    call, error, message = LIBRARY[case]
    with pytest.raises(error, match=re.escape(message)) as raised:
        call(tmp_path)
    assert type(raised.value) is error


def write_csv(tmp, rows):
    path = tmp / "input.csv"
    np.savetxt(path, rows, delimiter=",")
    return str(path)


# exit 3 is a malformed input file or a missing one
COMMAND_LINE = {
    "cli.load_matrix": (lambda tmp: ["invert", "--matrix", str(tmp / "missing.csv")],
                        3, "cannot read matrix file"),
    "cli.cmd_gpr-columns": (lambda tmp: ["gpr", "--train", write_csv(tmp, np.ones((4, 3)))],
                            3, "input.csv: expected two columns x,y"),
    "cli.cmd_lsq-columns": (lambda tmp: ["lsq", "--data", write_csv(tmp, np.ones((4, 3)))],
                            3, "input.csv: expected two columns x,y"),
    "cli.cmd_lsq-inputs": (lambda tmp: ["lsq"], 3, "provide --data or both --design and --y"),
    "cli.cmd_sngp_sample-inputs": (lambda tmp: ["sngp-sample"],
                                   3, "provide --mean and --cov, or --demo"),
}


@pytest.mark.parametrize("case", sorted(COMMAND_LINE))
def test_command_line_refusal(tmp_path, capsys, case):
    argv, code, message = COMMAND_LINE[case]
    assert main(argv(tmp_path) + ["--outdir", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
