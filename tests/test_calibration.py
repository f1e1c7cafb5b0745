"""Tests for spectroscopy, fault scanning, and scaling-vector calibration."""

import numpy as np
import pytest

from conftest import CHARACTERIZED_CELLS

from spusim.calibration import (CellEstimate, LoadingFit, PowerSpectrum,
                                analytic_cell_spectrum, apply_scaling,
                                characterize_cell, compute_scaling_vector,
                                estimate_spectrum, fit_circuit_params,
                                fit_loading_model, two_cell_fault_scan)
from spusim.circuit import CircuitParams, CouplingConfig, UnitCell, loading_variance_model
from spusim.device import SpuEmulator
from spusim.errors import DeadCellError
from spusim.langevin import TrajectoryConfig, integrate_circuit
from spusim.samples import SampleBatch


class TestEstimateSpectrum:
    def test_sinusoid_peak_location(self):
        fs, f0 = 1000.0, 123.0
        t = np.arange(65536) / fs
        batch = SampleBatch(np.sin(2 * np.pi * f0 * t)[:, None], sample_rate=fs)
        spec = estimate_spectrum(batch)
        assert spec.peak_frequency() == pytest.approx(f0, abs=fs / 4096)

    def test_white_noise_flat_density(self):
        rng = np.random.default_rng(0)
        fs, sigma2 = 2000.0, 3.0
        batch = SampleBatch(rng.normal(0, np.sqrt(sigma2), (400_000, 1)),
                            sample_rate=fs, chains=4)
        spec = estimate_spectrum(batch)
        # one-sided density of white noise: 2 sigma^2 / fs
        np.testing.assert_allclose(spec.density.mean(), 2 * sigma2 / fs, rtol=0.02)

    def test_parseval(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((131072, 1))
        batch = SampleBatch(x, sample_rate=5000.0, chains=2)
        spec = estimate_spectrum(batch)
        assert spec.integral() == pytest.approx(float(x.var()), rel=0.05)

    def test_simulated_cell_resonance(self):
        l, r, k, c = CHARACTERIZED_CELLS[7]
        params = CircuitParams.build([UnitCell(l, r, k, capacitance=c)],
                                     CouplingConfig.none(1))
        batch = integrate_circuit(params, TrajectoryConfig(
            n_samples=200_000, sample_rate=12e6, seed=2, chains=16))
        spec = estimate_spectrum(batch)
        f0 = 1.0 / (2 * np.pi * np.sqrt(l * c))
        assert f0 == pytest.approx(1.45e6, rel=0.01)
        assert spec.peak_frequency() == pytest.approx(f0, rel=0.05)

    def test_too_short_batch(self):
        batch = SampleBatch(np.zeros((100, 1)), sample_rate=1.0)
        with pytest.raises(ValueError):
            estimate_spectrum(batch, segment_length=4096)


class TestAnalyticSpectrum:
    def test_integral_is_stationary_variance(self):
        l, r, k, c = CHARACTERIZED_CELLS[0]
        f = np.linspace(1.0, 200e6, 2_000_000)
        psd = analytic_cell_spectrum(f, l, r, k, c)  # unaliased
        var = np.trapezoid(psd, f)
        assert var == pytest.approx(r * k / c, rel=0.01)

    def test_matches_welch_of_simulation(self):
        l, r, k, c = CHARACTERIZED_CELLS[7]
        params = CircuitParams.build([UnitCell(l, r, k, capacitance=c)],
                                     CouplingConfig.none(1))
        batch = integrate_circuit(params, TrajectoryConfig(
            n_samples=500_000, sample_rate=12e6, seed=3, chains=32))
        spec = estimate_spectrum(batch)
        model = analytic_cell_spectrum(spec.frequencies, l, r, k, c,
                                       sample_rate=12e6)
        band = (spec.frequencies > 0.3e6) & (spec.frequencies < 5.5e6)
        log_resid = np.log(spec.density[band] / model[band])
        assert abs(log_resid.mean()) < 0.05


class TestFitCircuitParams:
    def test_plant_and_recover_synthetic(self):
        device = SpuEmulator(n_cells=1, inductance=1.5e-6, resistance=60.0,
                             noise_psd=1e-13)
        fit, _ = characterize_cell(device, cell=0, bank_config=3,
                                   n_samples=400_000, seed=4, restarts=2)
        est = fit.estimate
        assert est.inductance == pytest.approx(1.5e-6, rel=0.10)
        assert est.resistance == pytest.approx(60.0, rel=0.10)
        assert est.capacitance == pytest.approx(6.5e-9, rel=0.10)
        assert est.noise_psd == pytest.approx(1e-13, rel=0.10)

    def test_characterized_cell0_plant(self):
        l, r, k, c = CHARACTERIZED_CELLS[0]
        params = CircuitParams.build([UnitCell(l, r, k, capacitance=c)],
                                     CouplingConfig.none(1))
        batch = integrate_circuit(params, TrajectoryConfig(
            n_samples=1_000_000, sample_rate=12e6, seed=5, chains=64))
        spec = estimate_spectrum(batch)
        var = float(batch.values.var(ddof=1))
        rng = np.random.default_rng(6)
        init = CellEstimate(l * rng.uniform(0.85, 1.18), r * rng.uniform(0.85, 1.18),
                            k, c * rng.uniform(0.85, 1.18))
        fit = fit_circuit_params(spec, var, init, restarts=3, seed=6)
        recovered = fit.estimate.as_array()
        np.testing.assert_allclose(recovered, [l, r, k, c], rtol=0.10)

    def test_true_parameters_beat_distant_perturbations(self):
        l, r, k, c = CHARACTERIZED_CELLS[4]
        params = CircuitParams.build([UnitCell(l, r, k, capacitance=c)],
                                     CouplingConfig.none(1))
        batch = integrate_circuit(params, TrajectoryConfig(
            n_samples=400_000, sample_rate=12e6, seed=7, chains=32))
        spec = estimate_spectrum(batch)
        var = float(batch.values.var(ddof=1))
        init = CellEstimate(l, r, k, c)
        fit = fit_circuit_params(spec, var, init, restarts=1, seed=7)
        cost_true = fit.cost

        # reuse the fit's cost surface through a second call with zero
        # iterations is awkward; instead recompute the terms directly
        from spusim.calibration import default_cell_model
        nyq = spec.sample_rate / 2
        mask = (spec.frequencies >= 0.05 * nyq) & (spec.frequencies <= 0.95 * nyq)
        fb, log_meas = spec.frequencies[mask], np.log(spec.density[mask])

        def crude_cost(theta):
            psd, vm = default_cell_model(theta, fb, spec.sample_rate)
            return (np.mean((np.log(psd) - log_meas) ** 2)
                    + (vm / var - 1.0) ** 2)

        base = crude_cost(np.array([l, r, k, c]))
        rng = np.random.default_rng(8)
        worse = 0
        for _ in range(100):
            # perturb the identifiable combinations at least 20% away
            factors = np.exp(rng.uniform(np.log(1.2), np.log(1.8), 4))
            signs = rng.choice([-1.0, 1.0], 4)
            theta = np.array([l, r, k, c]) * factors ** signs
            if crude_cost(theta) >= base:
                worse += 1
        assert worse >= 90  # flat-direction perturbations can tie, never win big
        assert cost_true < 10.0


class TestFaultScan:
    def test_healthy_device_no_flags(self):
        device = SpuEmulator(n_cells=4)
        report = two_cell_fault_scan(device, seed=0)
        assert report.flags == []
        assert len(report.records) == 4 + 6 * 3

    def test_dead_coupling_flagged(self):
        device = SpuEmulator(n_cells=4, dead_couplings={(1, 2)})
        report = two_cell_fault_scan(device, seed=1)
        flagged = {(r.drive, r.probe, r.coupling, r.flag) for r in report.flags}
        assert (1, 2, 1, "absent") in flagged
        assert (1, 2, -1, "absent") in flagged
        others = {(r.drive, r.probe) for r in report.flags}
        assert others == {(1, 2)}

    def test_capacitance_shift_flagged(self):
        device = SpuEmulator(n_cells=3, capacitance_scale={1: 1.5})
        report = two_cell_fault_scan(device, seed=2)
        self_drive = [r for r in report.flags if r.drive == r.probe == 1]
        assert self_drive and self_drive[0].flag == "frequency-shifted"

    def test_dead_cell_flagged(self):
        device = SpuEmulator(n_cells=3, dead_cells={0})
        report = two_cell_fault_scan(device, seed=3)
        assert any(r.drive == r.probe == 0 and r.flag == "absent"
                   for r in report.flags)

    def test_no_false_positives_across_seeds(self):
        device = SpuEmulator(n_cells=3)
        for seed in range(10):
            assert two_cell_fault_scan(device, seed=seed).flags == []


class TestScalingVector:
    def test_uniform_baseline_gives_ones(self):
        rng = np.random.default_rng(9)
        batch = SampleBatch(rng.standard_normal((200_000, 3)), sample_rate=1.0)
        s = compute_scaling_vector(batch)
        np.testing.assert_allclose(s.values, 1.0, rtol=0.02)

    def test_known_variances(self):
        rng = np.random.default_rng(10)
        rows = rng.standard_normal((400_000, 2)) * np.array([2.0, 1.0])
        s = compute_scaling_vector(SampleBatch(rows, 1.0))
        np.testing.assert_allclose(s.values, [0.5, 1.0], rtol=0.02)

    def test_dead_cell_detected(self):
        rows = np.zeros((1000, 2))
        rows[:, 0] = np.random.default_rng(11).standard_normal(1000)
        with pytest.raises(DeadCellError):
            compute_scaling_vector(SampleBatch(rows, 1.0))

    def test_apply_scaling_transforms(self):
        rng = np.random.default_rng(12)
        batch = SampleBatch(rng.standard_normal((5000, 2)) @ np.diag([3.0, 0.5]),
                            sample_rate=1.0)
        from spusim.calibration import ScalingVector
        s = ScalingVector(np.array([2.0, 4.0]))
        cov0 = batch.covariance()
        cov1 = apply_scaling(batch, s).covariance()
        np.testing.assert_allclose(cov1, np.outer([2, 4], [2, 4]) * cov0, rtol=1e-12)

    def test_loading_correction_end_to_end(self):
        device = SpuEmulator(coupling_resistance=400.0)
        baseline = device.sample(bank_config=0, coupling="none",
                                 n_samples=200_000, seed=13, chains=32)
        raw_var = baseline.values.var(axis=0, ddof=1)
        assert raw_var[0] < raw_var[7]  # loading suppresses low-numbered cells
        scaling = compute_scaling_vector(baseline)
        second = device.sample(bank_config=0, coupling="none",
                               n_samples=200_000, seed=14, chains=32)
        corrected = apply_scaling(second, scaling)
        diag = corrected.covariance().diagonal()
        assert np.max(np.abs(diag / diag.mean() - 1.0)) < 0.03

    def test_idempotence(self):
        device = SpuEmulator(coupling_resistance=400.0)
        baseline = device.sample(bank_config=0, n_samples=200_000, seed=15, chains=32)
        s1 = compute_scaling_vector(baseline)
        second = compute_scaling_vector(apply_scaling(baseline, s1))
        np.testing.assert_allclose(second.values, 1.0, atol=0.01)


class TestLoadingModelFit:
    def test_exact_recovery(self):
        truth = np.array([loading_variance_model(1.0, 5.0, i) for i in range(8)])
        fit = fit_loading_model(truth)
        assert fit.a == pytest.approx(1.0, rel=1e-4)
        assert fit.b == pytest.approx(5.0, rel=1e-4)
        assert fit.residual < 1e-6
        assert not fit.flagged

    def test_constant_variances_degenerate(self):
        fit = fit_loading_model(np.full(8, 2.0))
        assert fit.degenerate
        np.testing.assert_allclose(fit.fitted, 2.0, rtol=0.01)

    def test_monotone_data_monotone_fit(self):
        rng = np.random.default_rng(16)
        data = np.array([loading_variance_model(2.0, 3.0, i) for i in range(8)])
        data *= np.exp(rng.normal(0, 0.02, 8))
        fit = fit_loading_model(data)
        assert np.all(np.diff(fit.fitted) > 0)

    def test_non_monotone_data_flagged(self):
        data = np.array([1.0, 2.0, 0.5, 2.2, 0.8, 2.5, 0.7, 3.0])
        fit = fit_loading_model(data)
        assert fit.flagged
        assert fit.residual > 0.05

    def test_fits_device_variances(self):
        device = SpuEmulator(coupling_resistance=300.0)
        batch = device.sample(bank_config=0, n_samples=300_000, seed=17, chains=32)
        fit = fit_loading_model(batch.values.var(axis=0, ddof=1))
        assert not fit.flagged


class TestPowerSpectrumType:
    def test_validation(self):
        with pytest.raises(ValueError):
            PowerSpectrum(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 1.0, 10.0)
        with pytest.raises(ValueError):
            PowerSpectrum(np.array([1.0, 2.0]), np.array([1.0, -1.0]), 1.0, 10.0)


class TestBoardBoundaries:
    @pytest.mark.parametrize("n_cells", [0, -1])
    def test_board_needs_a_cell(self, n_cells):
        with pytest.raises(ValueError, match="at least one cell"):
            SpuEmulator(n_cells=n_cells)

    def test_fault_scan_needs_two_cells(self):
        with pytest.raises(ValueError, match="at least two cells"):
            two_cell_fault_scan(SpuEmulator(n_cells=1))

    @pytest.mark.parametrize("cell", [-1, 3, 9])
    def test_characterize_cell_index_checked(self, cell):
        with pytest.raises(ValueError, match=f"cell {cell} is out of range for 3 cells"):
            characterize_cell(SpuEmulator(n_cells=3), cell, n_samples=1000)
