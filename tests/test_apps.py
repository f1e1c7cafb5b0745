"""Tests for GPR, least squares, and patch-wise posterior sampling."""

import re

import numpy as np
import pytest

from spusim.apps import (Dataset1D, GprPosterior, KernelSpec, gpr_posterior,
                         kernel_matrix, linear_least_squares, make_two_moons,
                         sngp_patch_sample, synthetic_two_moons_posterior)
from spusim.errors import DimensionMismatchError, NotPositiveDefiniteError
from spusim.linalg import SamplingPlan


def rel_f(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestKernel:
    def test_diagonal_with_noise(self):
        spec = KernelSpec(length_scale=1.0, signal_variance=2.0, observation_noise=0.5)
        x = np.array([0.0, 1.0, 2.0])
        k = kernel_matrix(x, x, spec, include_observation_noise=True)
        np.testing.assert_allclose(np.diag(k), 2.0 + 0.25)

    def test_distant_points_decorrelate(self):
        spec = KernelSpec(length_scale=0.5)
        k = kernel_matrix([0.0], [50.0], spec)
        assert k[0, 0] < 1e-12

    def test_symmetric_on_same_inputs(self):
        x = np.linspace(0, 3, 7)
        k = kernel_matrix(x, x, KernelSpec())
        np.testing.assert_allclose(k, k.T)

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(length_scale=-1.0)
        with pytest.raises(ValueError):
            KernelSpec(observation_noise=-0.5)

    @pytest.mark.parametrize("value,field", [
        *((value, field) for value in (float("nan"), float("inf"))
          for field in ("length_scale", "signal_variance", "observation_noise")),
        (1e-300, "length_scale"),  # 2 l^2 underflows to 0
        (1e300, "length_scale"),  # 2 l^2 overflows
        (1e200, "observation_noise"),  # noise^2 overflows
    ])
    def test_non_finite_field_refused(self, field, value):
        message = f"{field} must be .*finite, got {re.escape(str(value))}"
        with pytest.raises(ValueError, match=message):
            KernelSpec(**{field: value})


class TestGpr:
    def test_noiseless_interpolation(self):
        train = Dataset1D([1.5], [0.7])
        spec = KernelSpec(observation_noise=0.0)
        post = gpr_posterior(train, [1.5], spec)
        assert post.mean[0] == pytest.approx(0.7, abs=1e-10)
        assert post.covariance[0, 0] == pytest.approx(0.0, abs=1e-10)

    def test_far_test_point_reverts_to_prior(self):
        train = Dataset1D([0.0, 1.0], [1.0, -1.0])
        spec = KernelSpec(signal_variance=1.7, observation_noise=0.1)
        post = gpr_posterior(train, [40.0], spec)
        assert post.mean[0] == pytest.approx(0.0, abs=1e-8)
        assert post.covariance[0, 0] == pytest.approx(1.7, rel=1e-6)

    def test_conditioning_identity(self):
        # reconstructing the joint from the posterior recovers the prior block
        rng = np.random.default_rng(0)
        train = Dataset1D(np.linspace(0, 7, 8), rng.standard_normal(8))
        spec = KernelSpec(observation_noise=1.0)
        tx = np.linspace(-1, 8, 11)
        post = gpr_posterior(train, tx, spec)
        k11 = kernel_matrix(train.x, train.x, spec, include_observation_noise=True)
        k21 = kernel_matrix(tx, train.x, spec)
        k22 = kernel_matrix(tx, tx, spec)
        np.testing.assert_allclose(post.covariance + k21 @ np.linalg.inv(k11) @ k21.T,
                                   k22, atol=1e-10)

    def test_thermodynamic_matches_digital(self):
        rng = np.random.default_rng(1)
        x = np.linspace(0, 2 * np.pi, 8)
        y = np.sin(x) + rng.standard_normal(8)
        train = Dataset1D(x, y)
        spec = KernelSpec(length_scale=1.0, signal_variance=1.0, observation_noise=1.0)
        tx = np.linspace(0, 2 * np.pi, 25)
        digital = gpr_posterior(train, tx, spec)
        plan = SamplingPlan(n_samples=100_000, chains=64)
        thermo = gpr_posterior(train, tx, spec, inverter="thermodynamic",
                               plan=plan, seed=2)
        assert np.max(np.abs(thermo.mean - digital.mean)) < 0.1
        assert rel_f(thermo.covariance, digital.covariance) < 0.1

    @pytest.mark.parametrize("inverter", ["digital", "thermodynamic"])
    def test_empty_train_set_refused(self, inverter):
        # used to raise IndexError (digital) or fail in the compiler (thermodynamic)
        with pytest.raises(ValueError, match="training set is empty"):
            gpr_posterior(Dataset1D([], []), [0.0, 1.0], KernelSpec(), inverter=inverter)

    def test_thermodynamic_size_limit(self):
        train = Dataset1D(np.arange(9.0), np.zeros(9))
        with pytest.raises(ValueError):
            gpr_posterior(train, [0.0], KernelSpec(), inverter="thermodynamic")

    def test_thermodynamic_error_scales_root_n(self):
        rng = np.random.default_rng(7)
        x = np.linspace(0, 2 * np.pi, 8)
        train = Dataset1D(x, np.sin(x) + rng.standard_normal(8))
        spec = KernelSpec(observation_noise=1.0)
        tx = np.linspace(0, 2 * np.pi, 20)
        digital = gpr_posterior(train, tx, spec)
        devs = []
        for n in (2000, 50_000):
            plan = SamplingPlan(n_samples=n, chains=40)
            thermo = gpr_posterior(train, tx, spec, inverter="thermodynamic",
                                   plan=plan, seed=8)
            devs.append(np.linalg.norm(thermo.mean - digital.mean))
        expected = np.sqrt(50_000 / 2000)
        assert devs[0] / devs[1] == pytest.approx(expected, rel=0.6)

    def test_band(self):
        post = GprPosterior(np.array([1.0]), np.array([[4.0]]))
        lo, hi = post.band(2.0)
        assert (lo[0], hi[0]) == (-3.0, 5.0)


class TestLeastSquares:
    def test_exact_line_digital(self):
        x = np.linspace(0, 5, 30)
        design = np.column_stack([np.ones_like(x), x])
        y = 1.0 + 2.0 * x
        beta = linear_least_squares(design, y)
        np.testing.assert_allclose(beta, [1.0, 2.0], atol=1e-10)

    def test_thermodynamic_close_to_digital(self):
        x = np.linspace(0, 5, 30)
        design = np.column_stack([np.ones_like(x), x])
        y = 1.0 + 2.0 * x
        plan = SamplingPlan(n_samples=100_000, chains=64)
        beta = linear_least_squares(design, y, inverter="thermodynamic",
                                    plan=plan, seed=3)
        np.testing.assert_allclose(beta, [1.0, 2.0], rtol=0.05)

    def test_intercept_only_is_mean(self):
        y = np.array([1.0, 2.0, 6.0])
        beta = linear_least_squares(np.ones((3, 1)), y)
        assert beta[0] == pytest.approx(y.mean())

    def test_rank_deficient_rejected(self):
        x = np.linspace(0, 5, 10)
        design = np.column_stack([x, 2 * x])
        with pytest.raises(ValueError):
            linear_least_squares(design, x)

    def test_digital_matches_lstsq_oracle(self):
        rng = np.random.default_rng(4)
        design = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        beta = linear_least_squares(design, y)
        oracle = np.linalg.lstsq(design, y, rcond=None)[0]
        np.testing.assert_allclose(beta, oracle, rtol=1e-10)


class TestSngpPatchSample:
    def test_diagonal_covariance_exact(self):
        rng = np.random.default_rng(5)
        var = rng.uniform(0.5, 2.0, 16)
        mean = rng.standard_normal(16)
        draws = sngp_patch_sample(mean, np.diag(var), n_draws=60_000, seed=6)
        np.testing.assert_allclose(draws.mean(axis=0), mean, atol=0.05)
        np.testing.assert_allclose(draws.var(axis=0), var, rtol=0.06)

    def test_block_diagonal_exact(self):
        from conftest import random_psd_matrix
        blocks = [random_psd_matrix(8, s) for s in (7, 8)]
        cov = np.zeros((16, 16))
        cov[:8, :8], cov[8:, 8:] = blocks
        mean = np.zeros(16)
        draws = sngp_patch_sample(mean, cov, n_draws=60_000, seed=9)
        est = np.cov(draws.T, ddof=1)
        assert rel_f(est, cov) < 0.05

    def test_dense_covariance_matches_blockdiag_truncation(self):
        from conftest import random_psd_matrix
        cov = random_psd_matrix(16, 10, lo=0.5, hi=2.0)
        truncated = np.zeros_like(cov)
        truncated[:8, :8] = cov[:8, :8]
        truncated[8:, 8:] = cov[8:, 8:]
        draws = sngp_patch_sample(np.zeros(16), cov, n_draws=60_000, seed=11)
        est = np.cov(draws.T, ddof=1)
        assert rel_f(est, truncated) < 0.05
        # and it deliberately does NOT reproduce the dense cross blocks
        assert np.abs(est[:8, 8:]).max() < 0.2

    def test_remainder_patch_padded(self):
        cov = np.eye(11)
        draws = sngp_patch_sample(np.zeros(11), cov, n_draws=4000, seed=12)
        assert draws.shape == (4000, 11)

    def test_emulated_sampler_path(self):
        from conftest import random_psd_matrix
        cov = random_psd_matrix(8, 13)
        plan = SamplingPlan(n_samples=40_000, chains=40)
        draws = sngp_patch_sample(np.zeros(8), cov, n_draws=40_000,
                                  sampler="emulated-spu", plan=plan, seed=14)
        est = np.cov(draws.T, ddof=1)
        assert rel_f(est, cov) < 0.06

    def test_short_plan_is_extended_keeping_its_settings(self):
        # a plan with fewer samples than draws is run for n_draws, all else kept
        cov = np.diag([1.0, 2.0, 0.5])
        short = SamplingPlan(n_samples=10, chains=4, noise_level=0.5)
        full = SamplingPlan(n_samples=400, chains=4, noise_level=0.5)
        got = sngp_patch_sample(np.zeros(3), cov, n_draws=400, sampler="emulated-spu",
                                plan=short, seed=15)
        want = sngp_patch_sample(np.zeros(3), cov, n_draws=400, sampler="emulated-spu",
                                 plan=full, seed=15)
        np.testing.assert_array_equal(got, want)

    def test_non_psd_block_names_patch(self):
        cov = np.eye(16)
        cov[9, 9] = -1.0
        with pytest.raises(NotPositiveDefiniteError, match="patch starting at 8"):
            sngp_patch_sample(np.zeros(16), cov, n_draws=10, seed=15)


class TestTwoMoonsFixture:
    def test_shapes_and_labels(self):
        x, y = make_two_moons(100, seed=0)
        assert x.shape == (100, 2)
        assert set(np.unique(y)) == {0.0, 1.0}

    def test_posterior_fixture_uncertainty_grows_off_data(self):
        grid, mean, cov, train_x, _ = synthetic_two_moons_posterior(
            grid_size=64, seed=1)
        assert cov.shape == (64, 64)
        assert np.linalg.eigvalsh(cov)[0] > 0
        var = np.diag(cov)
        dists = np.min(np.linalg.norm(grid[:, None, :] - train_x[None, :, :], axis=2),
                       axis=1)
        near = var[dists < np.quantile(dists, 0.2)].mean()
        far = var[dists > np.quantile(dists, 0.8)].mean()
        assert far > 2.0 * near


class TestDataset:
    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Dataset1D([1.0, 2.0], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Dataset1D([1.0, np.nan], [0.0, 0.0])
