"""Tests for equilibrium-sampling linear algebra and error metrics."""

import warnings

import numpy as np
import pytest
from scipy import stats

from spusim.compiler import TargetSpec
from spusim.errors import NotPositiveDefiniteError
from spusim.linalg import (InversionResult, SamplingPlan, checkpoint_counts,
                           invert_matrix, moment_errors, parameter_study,
                           relative_frobenius_error, sample_gaussian)


def rel_f(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def average_relative_error_per_element(estimate, reference):
    """Relative Frobenius error divided by the side length d: the per-element
    reading of the published error surfaces that study rows carry."""
    return relative_frobenius_error(estimate, reference) / reference.shape[0]


def random_psd(d, seed, lo=0.5, hi=2.0):
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    m = q @ np.diag(rng.uniform(lo, hi, d)) @ q.T
    return 0.5 * (m + m.T)


class TestSampleGaussian:
    def test_identity_covariance_d8(self):
        plan = SamplingPlan(n_samples=60_000, chains=60)
        batch = sample_gaussian(np.eye(8), plan, seed=0)
        assert rel_f(batch.covariance(), np.eye(8)) < 0.05

    def test_marginals_match_analytic(self):
        # per-cell marginal histograms against the analytic marginal law
        p = random_psd(8, 1)
        sigma = np.linalg.inv(p)
        plan = SamplingPlan(n_samples=40_000, chains=40)
        batch = sample_gaussian(p, plan, seed=1)
        for i in range(8):
            z = batch.values[:, i] / np.sqrt(sigma[i, i])
            # KS against standard normal on a decorrelated subset
            p_value = stats.kstest(z[::5], "norm").pvalue
            assert p_value > 0.01

    def test_two_backends_agree(self):
        p = random_psd(4, 2)
        plan = SamplingPlan(n_samples=50_000, chains=50)
        emu = sample_gaussian(p, plan, seed=3).covariance()
        dig = sample_gaussian(p, plan, backend="digital", seed=3).covariance()
        sigma = np.linalg.inv(p)
        assert rel_f(emu, sigma) < 0.05
        assert rel_f(dig, sigma) < 0.05
        assert rel_f(emu, dig) < 0.07

    def test_covariance_kind_uses_charge_readout(self):
        sigma = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        plan = SamplingPlan(n_samples=40_000, chains=40)
        batch = sample_gaussian(TargetSpec(sigma, "covariance"), plan, seed=4)
        assert batch.meta["readout"] == "charge"
        assert rel_f(batch.covariance(), sigma) < 0.05

    def test_noise_level_normalizes_out_for_ideal_source(self):
        p = random_psd(3, 5)
        sigma = np.linalg.inv(p)
        errs = []
        for level in (0.1, 1.0):
            plan = SamplingPlan(n_samples=30_000, chains=30, noise_level=level)
            batch = sample_gaussian(p, plan, seed=6)
            errs.append(rel_f(batch.covariance(), sigma))
        # identical seeds and exact rescaling: the error is level-independent
        assert errs[0] == pytest.approx(errs[1], rel=1e-9)

    def test_noise_level_adds_no_eigendecomposition(self, monkeypatch):
        # scaling kappa0 keeps C, so a scaled run decomposes it no more often
        eigvalsh = np.linalg.eigvalsh
        counts = []
        for level in (1.0, 0.5):
            calls = []
            monkeypatch.setattr(np.linalg, "eigvalsh",
                                lambda a, *args, **kw: calls.append(1) or eigvalsh(a, *args, **kw))
            sample_gaussian(random_psd(6, 9), SamplingPlan(n_samples=40, chains=2,
                                                           noise_level=level), seed=10)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_determinism(self):
        p = random_psd(3, 7)
        plan = SamplingPlan(n_samples=2000, chains=4)
        a = sample_gaussian(p, plan, seed=8)
        b = sample_gaussian(p, plan, seed=8)
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("entry", [sample_gaussian, invert_matrix])
    def test_unknown_noise_refused_before_any_run(self, monkeypatch, entry):
        import spusim.langevin as langevin
        chunks, stepped = langevin._record_chunks, []
        monkeypatch.setattr(langevin, "_record_chunks",
                            lambda runs: stepped.append(runs) or chunks(runs))
        plan = SamplingPlan(n_samples=64, chains=2)
        with pytest.raises(ValueError, match="noise must be 'ideal', 'lfsr-chain' "
                                             "or a NoiseChainConfig"):
            entry(np.eye(2), plan, noise="bogus")
        assert stepped == []
        entry(np.eye(2), plan, noise="ideal")  # the spy sees a run that steps
        assert len(stepped) == 1

    @pytest.mark.parametrize("noise", ["ideal", "lfsr-chain"])
    def test_one_step_rule_per_run(self, monkeypatch, noise):
        # the run plans its step and checks a chain rate once, in langevin:
        # the chain's step is suggest_dt's over whole substeps of a bit
        import spusim.langevin as langevin
        calls, suggest_dt = [], langevin.suggest_dt
        monkeypatch.setattr(langevin, "suggest_dt",
                            lambda params: calls.append(1) or suggest_dt(params))
        sample_gaussian(random_psd(8, 3), SamplingPlan(n_samples=64, chains=2), seed=3,
                        noise=noise)
        assert len(calls) == 1


class TestInvertMatrix:
    def test_identity(self):
        plan = SamplingPlan(n_samples=10_000, chains=32)
        res = invert_matrix(np.eye(4), plan, seed=0)
        assert res.final_error < 0.05
        np.testing.assert_allclose(res.exact, np.eye(4))

    def test_two_by_two_analytic(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        plan = SamplingPlan(n_samples=40_000, chains=40)
        res = invert_matrix(a, plan, seed=1)
        np.testing.assert_allclose(res.estimate,
                                   np.array([[2, -1], [-1, 2]]) / 3.0, atol=0.02)

    @pytest.mark.parametrize("d,seed", [(4, 2), (8, 3)])
    def test_error_decreases_and_plateaus_only_with_imperfections(self, d, seed):
        a = random_psd(d, seed)
        plan = SamplingPlan(n_samples=60_000, chains=60)
        clean = invert_matrix(a, plan, seed=seed)
        # decreasing in expectation: compare widely separated checkpoints
        assert clean.error_series[-1] < clean.error_series[0]
        ratio = clean.error_series[0] / clean.error_series[-1]
        expected = np.sqrt(clean.n_series[-1] / clean.n_series[0])
        assert ratio > expected / 4.0
        # with quantization + tolerances the error floors well above clean
        rough = invert_matrix(a, plan, seed=seed, quantize=True, tolerance_sigma=0.05)
        assert rough.final_error > 2.0 * clean.final_error

    def test_scale_covariance(self):
        a = random_psd(4, 4)
        plan = SamplingPlan(n_samples=50_000, chains=50)
        res_scaled = invert_matrix(3.0 * a, plan, seed=5)
        assert rel_f(res_scaled.estimate, np.linalg.inv(a) / 3.0) < 0.05

    def test_estimates_exactly_symmetric(self):
        a = random_psd(5, 6)
        res = invert_matrix(a, SamplingPlan(n_samples=5000, chains=10), seed=6)
        np.testing.assert_array_equal(res.estimate, res.estimate.T)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            invert_matrix(np.diag([1.0, -1.0]), SamplingPlan(n_samples=100))

    def test_numerically_singular_rejected_before_sampling(self, monkeypatch):
        import spusim.linalg

        def no_integration(*args, **kwargs):
            raise AssertionError("integrated a numerically singular target")

        monkeypatch.setattr(spusim.linalg, "_voltage_records", no_integration)
        with pytest.raises(NotPositiveDefiniteError, match="cannot invert.*singular"):
            invert_matrix(np.diag([1e-300, 1.0]), SamplingPlan(n_samples=100))

    def test_one_maxwell_eigendecomposition_per_run(self, monkeypatch):
        # the PD check, the correlation time and the step size share one
        # spectrum of the compiled Maxwell matrix
        from spusim.compiler import compile_precision
        from spusim.langevin import integrate_circuit
        params = compile_precision(random_psd(6, 8)).ideal_params
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(m, *args, **kwargs):
            calls.append(np.array_equal(m, params.maxwell))
            return eigvalsh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        cfg = SamplingPlan(n_samples=600, chains=6).trajectory_config(params, seed=3)
        integrate_circuit(params, cfg)
        assert sum(calls) == 1

    def test_one_maxwell_inverse_per_run(self, monkeypatch):
        # the step size, the step and the stationary reference share one C^-1
        from spusim.compiler import compile_precision
        from spusim.langevin import (integrate_circuit, stationary_voltage_covariance,
                                     suggest_dt)
        params = compile_precision(random_psd(6, 8)).ideal_params
        calls = []
        inv = np.linalg.inv

        def counted(m, *args, **kwargs):
            calls.append(np.array_equal(m, params.maxwell))
            return inv(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "inv", counted)
        cfg = SamplingPlan(n_samples=600, chains=6).trajectory_config(params, seed=3)
        integrate_circuit(params, cfg)
        suggest_dt(params)
        stationary_voltage_covariance(params)
        assert sum(calls) == 1

    RECORD_BYTES = 20_000 * 64 * 8  # the kept charge records of the run below

    def test_peak_memory_is_under_1_4_times_the_records(self):
        # traced peak over the records' bytes (n d 8) at d=64, 32 chains,
        # n=20,000: 3.03 when the records held both halves and the prefixes a
        # full time-major copy, 1.61 with half records, an in-place readout
        # and prefixes gathered between checkpoints, 1.51 with those rows
        # centered in place, 1.33 with the covariance read out from the
        # charge records, each gathered slab released before the next and
        # comoments merged in place, 0.36 with the records streamed into the
        # prefix covariances
        import tracemalloc

        a = random_psd(64, 64)
        tracemalloc.start()
        try:
            invert_matrix(a, SamplingPlan(n_samples=20_000, chains=32), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.4 * self.RECORD_BYTES

    def test_slabs_bound_the_prefix_gathers(self, monkeypatch):
        # the same run with 256 KiB slabs, so every late checkpoint interval
        # spans several: 1.063 times the records' bytes, 0.097 with the
        # records streamed
        import tracemalloc

        import spusim.samples

        monkeypatch.setattr(spusim.samples, "_SLAB_BYTES", 256 << 10)
        a = random_psd(64, 64)
        tracemalloc.start()
        try:
            invert_matrix(a, SamplingPlan(n_samples=20_000, chains=32), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * self.RECORD_BYTES

    def test_streamed_records_bound_the_peak(self, monkeypatch):
        # the records go into the prefix covariances chunk by chunk, so with
        # 256 KiB slabs the traced peak does not grow with n: 0.993 MB at
        # n=20,000 and 0.990 MB at n=80,000, 0.024 times the larger run's
        # records (10.89 and 41.61 MB when a run's records were kept whole)
        import tracemalloc

        import spusim.samples

        monkeypatch.setattr(spusim.samples, "_SLAB_BYTES", 256 << 10)
        a = random_psd(64, 64)
        peaks = []
        for n in (20_000, 80_000):
            tracemalloc.start()
            try:
                invert_matrix(a, SamplingPlan(n_samples=n, chains=32), seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0] and peaks[0] < 1.1 * peaks[1]
        assert peaks[1] < 0.2 * 4 * self.RECORD_BYTES

    def test_reproducible_error_series(self):
        a = random_psd(3, 7)
        plan = SamplingPlan(n_samples=3000, chains=6)
        r1 = invert_matrix(a, plan, seed=9)
        r2 = invert_matrix(a, plan, seed=9)
        np.testing.assert_array_equal(r1.error_series, r2.error_series)


class TestModalEstimatorOracle:
    """``invert_matrix`` reads the covariance of the kept charge records out
    d x d; the reference reads every record out to a voltage first
    (``sample_gaussian``), then takes prefix covariances."""

    @staticmethod
    def voltage_reference(a, plan, seed, **kwargs):
        from spusim.samples import prefix_covariances

        batch = sample_gaussian(a, plan, seed=seed, **kwargs)
        exact = np.linalg.inv(a)
        counts = checkpoint_counts(batch.n_samples)
        errors, cov = [], None
        for _, cov in prefix_covariances([batch.per_chain().swapaxes(0, 1)], counts):
            errors.append(relative_frobenius_error(cov, exact))
        return np.array(errors), cov

    @pytest.mark.parametrize("kwargs,modal", [({}, True), ({"tolerance_sigma": 0.05}, False),
                                              ({"quantize": True}, True)])
    def test_agrees_with_the_voltage_readout(self, monkeypatch, kwargs, modal):
        import spusim.linalg as la

        bases = []
        records = la._voltage_records

        def recorded(*args, **kw):
            out = records(*args, **kw)
            bases.append(out[1])
            return out

        monkeypatch.setattr(la, "_voltage_records", recorded)
        a = random_psd(12, 30)
        plan = SamplingPlan(n_samples=3000, chains=6)
        result = invert_matrix(a, plan, seed=31, **kwargs)
        assert (bases[0] is not None) == modal  # the run stepped the expected layout
        errors, cov = self.voltage_reference(a, plan, 31, **kwargs)
        np.testing.assert_allclose(result.error_series, errors, rtol=1e-12, atol=0)
        np.testing.assert_allclose(result.estimate, cov, rtol=0,
                                   atol=1e-12 * np.abs(cov).max())

    def test_digital_backend_keeps_its_bytes(self):
        # the digital rows are samples: the estimator's readout is the identity
        a = random_psd(5, 32)
        plan = SamplingPlan(n_samples=4000)
        result = invert_matrix(a, plan, seed=33, backend="digital")
        errors, cov = self.voltage_reference(a, plan, 33, backend="digital")
        np.testing.assert_array_equal(result.error_series, errors)
        np.testing.assert_array_equal(result.estimate, cov)

    def test_no_voltage_array_is_formed(self, monkeypatch):
        import spusim.langevin

        def no_readout(*args, **kwargs):
            raise AssertionError("read the records out to voltages")

        monkeypatch.setattr(spusim.langevin._CircuitRun, "values", no_readout)
        result = invert_matrix(random_psd(4, 34), SamplingPlan(n_samples=800, chains=4),
                               seed=35)
        assert result.final_error < 0.5


class TestMomentErrors:
    def test_errors_decay_at_root_n(self):
        p = np.eye(3)
        plan = SamplingPlan(n_samples=100_000)
        batch = sample_gaussian(p, plan, backend="digital", seed=0)
        report = moment_errors(batch, p)
        # log-log slope of the covariance error near -1/2
        slope = np.polyfit(np.log(report.n_samples),
                           np.log(report.covariance_error), 1)[0]
        assert -0.75 < slope < -0.3
        assert report.covariance_error[-1] < 0.02
        assert report.skewness_error[-1] < 0.02
        assert report.kurtosis_error[-1] < 0.05

    def test_identical_rows_give_unit_covariance_error(self):
        from spusim.samples import SampleBatch
        batch = SampleBatch(np.ones((50, 2)), sample_rate=1.0)
        report = moment_errors(batch, np.eye(2))
        assert report.covariance_error[-1] == pytest.approx(1.0)

    def test_skewed_batch_scores_worse(self):
        rng = np.random.default_rng(1)
        from spusim.samples import SampleBatch
        gauss = rng.standard_normal((20_000, 2))
        skewed = np.exp(gauss) - np.exp(0.5)  # lognormal, strongly skewed
        r_gauss = moment_errors(SampleBatch(gauss, 1.0), np.eye(2))
        r_skew = moment_errors(SampleBatch(skewed, 1.0), np.eye(2))
        assert r_skew.skewness_error[-1] > 5 * r_gauss.skewness_error[-1]

    def test_too_few_samples(self):
        from spusim.samples import SampleBatch
        with pytest.raises(ValueError):
            moment_errors(SampleBatch(np.zeros((3, 2)), 1.0), np.eye(2))


class TestErrorMetrics:
    def test_zero_error(self):
        s = random_psd(4, 8)
        assert average_relative_error_per_element(s, s) == 0.0

    def test_doubled_estimate(self):
        s = random_psd(4, 9)
        assert average_relative_error_per_element(2 * s, s) == pytest.approx(0.25)
        assert relative_frobenius_error(2 * s, s) == pytest.approx(1.0)

    def test_consistent_with_moment_report(self):
        from spusim.samples import SampleBatch
        rng = np.random.default_rng(10)
        rows = rng.standard_normal((5000, 3))
        batch = SampleBatch(rows, 1.0)
        report = moment_errors(batch, np.eye(3))
        cov = batch.covariance()
        assert average_relative_error_per_element(cov, np.eye(3)) == pytest.approx(
            report.covariance_error[-1] / 3.0, rel=1e-9)

    def test_overflowing_norm_raises_without_warning(self):
        estimate = np.diag([1e300, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                relative_frobenius_error(estimate, np.diag([1e-300, 1.0]))

    def test_checkpoint_counts_end_at_total(self):
        counts = checkpoint_counts(12345, 10)
        assert counts[-1] == 12345
        assert np.all(np.diff(counts) > 0)


class TestParameterStudy:
    def test_rate_study_orderings(self):
        p = random_psd(8, 11)
        tau_scale = np.max(np.linalg.eigvalsh(p))  # tau_corr in normalized units
        fast = 10.0 / tau_scale     # ten samples per correlation time
        slow = 1.0 / (5 * tau_scale)  # decorrelated spacing
        plan = SamplingPlan(n_samples=3000, chains=24, decorrelate=False)
        study = parameter_study("sampling_rate", [slow, fast], p, plan, seed=12)
        rows = study.rows
        at_n = {r.value: r.covariance_error for r in rows
                if r.n_samples == plan.n_samples}
        # fixed sample count: decorrelated (slow) sampling wins
        assert at_n[slow] < at_n[fast]
        # fixed wall-clock window: the fast rate wins (more samples beat
        # the correlation penalty)
        window = plan.n_samples / plan.chains / fast * 5
        best_err = {}
        for r in rows:
            if r.elapsed_window is not None and r.elapsed_window <= window * 1.01:
                best_err[r.value] = min(r.covariance_error,
                                        best_err.get(r.value, np.inf))
        assert best_err[fast] < best_err[slow]

    def test_chain_intermediate_levels_beat_extremes(self):
        # hardware-faithful chain: pulse starvation hurts the low extreme,
        # driver compression the high one; an intermediate duty wins
        from spusim.noise import NoiseChainConfig
        target = np.eye(1)
        chain = NoiseChainConfig.matched(1.0, saturation=2.5)
        plan = SamplingPlan(n_samples=25_000, chains=64)
        study = parameter_study("noise_level", [0.02, 0.2, 1.0], target, plan,
                                seed=21, noise=chain)
        final = {}
        for r in study.rows:
            final[r.value] = r.covariance_error
        assert final[0.2] < final[0.02]
        assert final[0.2] < final[1.0]

    def test_noise_level_flat_for_ideal_source(self):
        p = random_psd(2, 13)
        plan = SamplingPlan(n_samples=4000, chains=8)
        study = parameter_study("noise_level", [0.25, 1.0], p, plan, seed=13)
        final = {}
        for r in study.rows:
            final.setdefault(r.value, r.covariance_error)
            final[r.value] = r.covariance_error  # keep the largest-n row
        errs = list(final.values())
        assert errs[0] == pytest.approx(errs[1], rel=1e-9)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            parameter_study("noise_level", [], np.eye(2))

    @pytest.mark.parametrize("grid,refused,near", [([2.0, 3.0], "2", "3 Hz and 1.5 Hz"),
                                                   ([3.0, 1.0, 1.4], "1.4", "1.5 Hz and 1 Hz")])
    def test_off_grid_sampling_rate_rejected_before_sampling(self, monkeypatch, grid, refused,
                                                             near):
        # a slower rate must be the fastest over a whole stride, or its rows
        # would be labelled with a rate their records do not keep
        import spusim.linalg as la

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking the rates")

        monkeypatch.setattr(la, "sample_gaussian", no_sampling)
        with pytest.raises(ValueError, match=f"^sample rate {refused} Hz is not the study's "
                                             f"fastest rate 3 Hz over a whole number of "
                                             f"records: the nearest such rates are {near}$"):
            parameter_study("sampling_rate", grid, np.eye(2))

    @pytest.mark.parametrize("rate", [0.0, -1e6, float("nan"), float("inf")])
    def test_bad_sampling_rate_rejected_before_sampling(self, monkeypatch, rate):
        import spusim.linalg as la

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking the rates")

        monkeypatch.setattr(la, "sample_gaussian", no_sampling)
        with pytest.raises(ValueError, match="positive and finite"):
            parameter_study("sampling_rate", [1e6, rate], np.eye(2))
