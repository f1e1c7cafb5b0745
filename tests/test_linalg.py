"""Tests for equilibrium-sampling linear algebra and error metrics."""

import warnings

import numpy as np
import pytest
from scipy import stats

from spusim.compiler import TargetSpec
from spusim.errors import NotPositiveDefiniteError
from spusim.linalg import (InversionResult, SamplingPlan,
                           average_relative_error_per_element, checkpoint_counts,
                           invert_matrix, moment_errors, parameter_study,
                           relative_frobenius_error, sample_gaussian)


def rel_f(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


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

    def test_determinism(self):
        p = random_psd(3, 7)
        plan = SamplingPlan(n_samples=2000, chains=4)
        a = sample_gaussian(p, plan, seed=8)
        b = sample_gaussian(p, plan, seed=8)
        np.testing.assert_array_equal(a.values, b.values)


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

        monkeypatch.setattr(spusim.linalg, "integrate_circuit", no_integration)
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

    def test_peak_memory_is_under_twice_the_batch(self):
        # traced peak over the batch's bytes at d=64, 32 chains, n=20,000:
        # 3.03 when the records held both halves and the prefixes a full
        # time-major copy, 1.61 with half records, an in-place readout and
        # prefixes gathered between checkpoints
        import tracemalloc

        a = random_psd(64, 64)
        tracemalloc.start()
        try:
            result = invert_matrix(a, SamplingPlan(n_samples=20_000, chains=32), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * result.batch.values.nbytes

    def test_reproducible_error_series(self):
        a = random_psd(3, 7)
        plan = SamplingPlan(n_samples=3000, chains=6)
        r1 = invert_matrix(a, plan, seed=9)
        r2 = invert_matrix(a, plan, seed=9)
        np.testing.assert_array_equal(r1.error_series, r2.error_series)


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

    @pytest.mark.parametrize("rate", [0.0, -1e6, float("nan"), float("inf")])
    def test_bad_sampling_rate_rejected_before_sampling(self, monkeypatch, rate):
        import spusim.linalg as la

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking the rates")

        monkeypatch.setattr(la, "sample_gaussian", no_sampling)
        with pytest.raises(ValueError, match="positive and finite"):
            parameter_study("sampling_rate", [1e6, rate], np.eye(2))
