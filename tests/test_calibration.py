"""Tests for spectroscopy, fault scanning, and scaling-vector calibration."""

import math

import numpy as np
import pytest

from conftest import CHARACTERIZED_CELLS

import spusim.calibration as calibration

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


def alias_sum_oracle(freqs, l, r, k, c, sample_rate, n_alias=4000):
    """One-sided PSD as the continuum spectrum summed over 2 n_alias + 1 images."""
    w = 2 * np.pi * (freqs[None, :]
                     + np.arange(-n_alias, n_alias + 1)[:, None] * sample_rate)
    two_sided = (2 * k / c ** 2) / ((1 / (r * c)) ** 2 + (w - 1 / (w * l * c)) ** 2)
    return 2 * two_sided.sum(axis=0)


class TestAnalyticSpectrum:
    @pytest.mark.parametrize("cell", [0, 7])
    def test_matches_long_alias_sum(self, cell):
        l, r, k, c = CHARACTERIZED_CELLS[cell]
        fs = 12e6
        f = np.linspace(0.05, 0.95, 200) * fs / 2
        exact = analytic_cell_spectrum(f, l, r, k, c, fs)
        np.testing.assert_allclose(exact, alias_sum_oracle(f, l, r, k, c, fs),
                                   rtol=2e-4)

    def test_integral_is_stationary_variance(self):
        l, r, k, c = CHARACTERIZED_CELLS[0]
        fs = 12e6
        f = np.linspace(0.0, fs / 2, 200_001)
        var = np.trapezoid(analytic_cell_spectrum(f, l, r, k, c, fs), f)
        assert var == pytest.approx(r * k / c, rel=1e-3)

    def test_matches_welch_of_simulation(self):
        l, r, k, c = CHARACTERIZED_CELLS[7]
        params = CircuitParams.build([UnitCell(l, r, k, capacitance=c)],
                                     CouplingConfig.none(1))
        batch = integrate_circuit(params, TrajectoryConfig(
            n_samples=500_000, sample_rate=12e6, seed=3, chains=32))
        spec = estimate_spectrum(batch)
        model = analytic_cell_spectrum(spec.frequencies, l, r, k, c, 12e6)
        band = (spec.frequencies > 0.3e6) & (spec.frequencies < 5.5e6)
        log_resid = np.log(spec.density[band] / model[band])
        assert abs(log_resid.mean()) < 0.05


class TestFitCircuitParams:
    def test_plant_and_recover_synthetic(self):
        device = SpuEmulator(n_cells=1, inductance=1.5e-6, resistance=60.0,
                             noise_psd=1e-13)
        fit, _ = characterize_cell(device, cell=0, bank_config=3,
                                   n_samples=400_000, seed=4)
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
        fit = fit_circuit_params(spec, var, init)
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
        fit = fit_circuit_params(spec, var, init)
        cost_true = fit.cost

        nyq = spec.sample_rate / 2
        mask = (spec.frequencies >= 0.05 * nyq) & (spec.frequencies <= 0.95 * nyq)
        fb, log_meas = spec.frequencies[mask], np.log(spec.density[mask])

        def crude_cost(theta):
            psd = analytic_cell_spectrum(fb, *theta, spec.sample_rate)
            vm = theta[1] * theta[2] / theta[3]
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

    # SHA-256 of every record of a seeded 4-cell scan, as written by the
    # blocked record scan (numpy 2.4, OpenBLAS, x86-64); against the per-record
    # loop, 6 of its 44 peak numbers moved, by at most 2.7e-16 relative, and
    # no flag moved
    RECORDS_DIGEST = "258cffd76e77ce95f2df99bec813098d82edcc98b698166b8848adce0452a45c"

    def test_records_are_unchanged(self):
        import hashlib
        report = two_cell_fault_scan(SpuEmulator(n_cells=4, dead_couplings={(1, 3)}), seed=3)
        rows = [(r.drive, r.probe, r.coupling, r.peak_found, r.peak_frequency, r.peak_db,
                 r.flag) for r in report.records]
        assert len(rows) == 22
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.RECORDS_DIGEST


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


class TestNumpyOracles:
    """The numpy Welch, 2 x 2 exponential and Levenberg-Marquardt against scipy."""

    @pytest.fixture(scope="class")
    def cell_batch(self):
        l, r, k, c = CHARACTERIZED_CELLS[0]
        params = CircuitParams.build([UnitCell(l, r, k, capacitance=c)],
                                     CouplingConfig.none(1))
        return integrate_circuit(params, TrajectoryConfig(
            n_samples=160_000, sample_rate=12e6, seed=5, chains=16))

    # the settings of characterize_cell/spectroscopy and of two_cell_fault_scan
    @pytest.mark.parametrize("segment_length", [4096, 2048])
    def test_welch_matches_scipy(self, cell_batch, segment_length):
        from scipy import signal
        spec = estimate_spectrum(cell_batch, segment_length=segment_length)
        freqs, psd = signal.welch(cell_batch.per_chain()[:, :, 0], fs=cell_batch.sample_rate,
                                  window="hann", nperseg=segment_length,
                                  noverlap=segment_length // 2, axis=1)
        np.testing.assert_array_equal(spec.frequencies, freqs[1:])
        want = psd.mean(axis=0)[1:]
        np.testing.assert_allclose(spec.density, want, rtol=0, atol=1e-12 * want.max())

    @pytest.mark.parametrize("odd", [1001, 999])
    def test_welch_odd_segments(self, odd):
        from scipy import signal
        x = np.random.default_rng(odd).standard_normal((3, 5000))
        freqs, psd = calibration._welch(x, 2.0, odd, odd // 3)
        f_ref, psd_ref = signal.welch(x, fs=2.0, window="hann", nperseg=odd,
                                      noverlap=odd // 3, axis=1)
        np.testing.assert_array_equal(freqs, f_ref)
        np.testing.assert_allclose(psd, psd_ref, rtol=0, atol=1e-12 * psd_ref.max())

    @pytest.mark.parametrize("nperseg,noverlap", [(4096, 2048), (999, 333)])
    def test_welch_equals_its_two_temporary_form(self, nperseg, noverlap):
        # the form before the segment copy was dropped and |X|^2 formed in place
        x = np.random.default_rng(nperseg).standard_normal((3, 20_000)) * 1e-3
        segments = np.lib.stride_tricks.sliding_window_view(
            x, nperseg, axis=-1)[..., ::nperseg - noverlap, :]
        segments = segments - segments.mean(axis=-1, keepdims=True)
        window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nperseg) / nperseg)
        segments *= window
        spec = np.fft.rfft(segments, axis=-1)
        psd = spec.real ** 2 + spec.imag ** 2
        psd *= 1.0 / (2.0 * np.sum(window ** 2))
        psd[..., 1:None if nperseg % 2 else -1] *= 2.0
        freqs, got = calibration._welch(x, 2.0, nperseg, noverlap)
        np.testing.assert_array_equal(freqs, np.fft.rfftfreq(nperseg, 0.5))
        np.testing.assert_array_equal(got, psd.mean(axis=-2))

    @staticmethod
    def cell_step(damping):
        """F / fs of a cell whose R is ``damping`` times critical, sqrt(L/C)/2."""
        l, c = 1.3e-6, 6.4e-9
        r = damping * 0.5 * math.sqrt(l / c)
        return np.array([[0.0, 1.0 / c], [-1.0 / l, -1.0 / (r * c)]]) / 12e6

    # underdamped, critical and near it, overdamped
    @pytest.mark.parametrize("damping", [30.0, 0.5, 1.0, 1.0 + 1e-12, 1.0 - 1e-7,
                                         1.0 + 1e-3, 0.01])
    def test_expm2_matches_scipy(self, damping):
        from scipy.linalg import expm
        m = self.cell_step(damping)
        want = expm(m)
        np.testing.assert_allclose(calibration._expm2(m), want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("damping", [1e-5, 1e-7])
    def test_expm2_stiff_overdamped(self, damping):
        # scipy's Pade expm itself errs by 1e-12 and 2e-10 here; the closed
        # form takes the slow eigenvalue without cancellation
        mpmath = pytest.importorskip("mpmath")
        m = self.cell_step(damping)
        with mpmath.workdps(50):
            want = np.array(mpmath.expm(mpmath.matrix(m.tolist())).tolist(), dtype=float)
        np.testing.assert_allclose(calibration._expm2(m), want, rtol=0,
                                   atol=1e-15 * np.abs(want).max())

    @staticmethod
    def captured(monkeypatch, fit):
        """Run ``fit`` with the numpy solver, capturing its problem and answer."""
        calls = []
        solve = calibration._least_squares

        def spy(fun, x0, **kwargs):
            out = solve(fun, x0, **kwargs)
            calls.append((fun, np.array(x0), kwargs, out))
            return out

        monkeypatch.setattr(calibration, "_least_squares", spy)
        result = fit()
        (call,) = calls
        return result, call

    def test_lm_matches_scipy_on_spectrum_fit(self, monkeypatch, cell_batch):
        from scipy.optimize import least_squares
        l, r, k, c = CHARACTERIZED_CELLS[0]
        spec = estimate_spectrum(cell_batch)
        var = float(cell_batch.values.var(ddof=1))
        init = CellEstimate(1.1 * l, 0.9 * r, k, 1.12 * c)
        fit, (fun, x0, kwargs, (x, _, success)) = self.captured(
            monkeypatch, lambda: fit_circuit_params(spec, var, init))
        ref = least_squares(fun, x0, method="lm", **kwargs)
        assert success and ref.success and fit.converged
        # x is log(f0, linewidth, variance)
        np.testing.assert_allclose(np.exp(x), np.exp(ref.x), rtol=1e-8)

    @pytest.mark.parametrize("case", ["exact", "monotone", "constant", "non-monotone"])
    def test_lm_matches_scipy_on_loading_fit(self, monkeypatch, case):
        from scipy.optimize import least_squares
        if case == "exact":
            data = np.array([loading_variance_model(1.0, 5.0, i) for i in range(8)])
        elif case == "monotone":
            data = np.array([loading_variance_model(2.0, 3.0, i) for i in range(8)])
            data *= np.exp(np.random.default_rng(16).normal(0, 0.02, 8))
        elif case == "constant":
            data = np.full(8, 2.0)
        else:
            data = np.array([1.0, 2.0, 0.5, 2.2, 0.8, 2.5, 0.7, 3.0])
        fit, (fun, x0, kwargs, (x, f, success)) = self.captured(
            monkeypatch, lambda: fit_loading_model(data))
        ref = least_squares(fun, x0, method="lm", **kwargs)
        assert success and ref.success
        a, b = np.exp(ref.x)
        want = np.array([loading_variance_model(a, b, i) for i in range(8)])
        if case == "constant":
            # b runs off to a flat direction (b >> a); the fitted curve is the optimum
            assert fit.degenerate and b > 1e4 * a
            np.testing.assert_allclose(fit.fitted, want, rtol=1e-8)
        elif case == "non-monotone":
            # a large-residual valley: forward differences fix its floor only
            # to about 5e-7 (scipy's answer is 4e-7 from the exact-derivative
            # optimum), while both costs agree to rounding
            np.testing.assert_allclose(np.exp(x), np.exp(ref.x), rtol=1e-6)
            assert f @ f == pytest.approx(ref.fun @ ref.fun, rel=1e-12)
        else:
            np.testing.assert_allclose(np.exp(x), np.exp(ref.x), rtol=1e-8)


class TestPowerSpectrumType:
    def test_validation(self):
        with pytest.raises(ValueError):
            PowerSpectrum(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 10.0)
        with pytest.raises(ValueError):
            PowerSpectrum(np.array([1.0, 2.0]), np.array([1.0, -1.0]), 10.0)


class TestBoardBoundaries:
    @pytest.mark.parametrize("n_cells", [0, -1])
    def test_board_needs_a_cell(self, n_cells):
        with pytest.raises(ValueError, match="at least one cell"):
            SpuEmulator(n_cells=n_cells)

    @pytest.mark.parametrize("loading", [float("nan"), float("inf"), 0.0, -400.0])
    def test_coupling_resistance_checked(self, loading):
        with pytest.raises(ValueError, match=f"coupling_resistance must be None or positive "
                                             f"and finite, got {loading}"):
            SpuEmulator(coupling_resistance=loading)

    def test_fault_scan_needs_two_cells(self):
        with pytest.raises(ValueError, match="at least two cells"):
            two_cell_fault_scan(SpuEmulator(n_cells=1))

    @pytest.mark.parametrize("cell", [-1, 3, 9])
    def test_characterize_cell_index_checked(self, cell):
        with pytest.raises(ValueError, match=f"cell {cell} is out of range for 3 cells"):
            characterize_cell(SpuEmulator(n_cells=3), cell, n_samples=1000)

    def test_dead_cell_fails_before_the_fit(self):
        device = SpuEmulator(n_cells=2, dead_cells={0})
        with pytest.raises(DeadCellError, match="cell 0 shows no usable signal"):
            characterize_cell(device, 0, n_samples=20_000, chains=4)

    def test_undriven_cell_fails_before_the_fit(self):
        device = SpuEmulator(n_cells=2, noise_psd=np.array([1e-13, 0.0]))
        with pytest.raises(DeadCellError, match="cell 1 has no noise drive"):
            characterize_cell(device, 1, n_samples=20_000, chains=4)
