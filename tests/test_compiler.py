"""Tests for target-matrix compilation and bank quantization."""

import numpy as np
import pytest

from spusim.circuit import BANK_CAPACITANCES_F, COUPLING_CAPACITANCE_F
from spusim.compiler import (TargetSpec, compile_covariance, compile_precision,
                             preprocess_non_psd, quantize_to_banks, snap_to_grid)
from spusim.errors import MatrixFormatError, NotPositiveDefiniteError
from spusim.langevin import integrate_circuit, stationary_voltage_covariance
from spusim.linalg import SamplingPlan

NF = 1e-9


def rel_frobenius(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def random_psd(d, seed, lo=0.5, hi=2.0):
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    m = q @ np.diag(rng.uniform(lo, hi, d)) @ q.T
    return 0.5 * (m + m.T)


class TestCompilePrecision:
    def test_identity_maps_to_identity(self):
        res = compile_precision(np.eye(4))
        np.testing.assert_allclose(res.ideal_maxwell, np.eye(4))
        np.testing.assert_allclose(res.ideal_params.coupling_capacitances, 0.0)
        assert res.readout == "voltage"
        assert res.readout_scale == 1.0

    def test_non_psd_rejected_with_eigenvalue(self):
        p = np.diag([1.0, -0.5])
        with pytest.raises(NotPositiveDefiniteError) as err:
            compile_precision(p)
        assert err.value.min_eigenvalue == pytest.approx(-0.5)

    @pytest.mark.parametrize("compile_target", [compile_precision, compile_covariance])
    def test_numerically_singular_rejected(self, compile_target):
        # 1e-300 is below the eigensolver's resolution 2 * eps * 1 of zero
        with pytest.raises(NotPositiveDefiniteError, match="numerically singular") as err:
            compile_target(np.diag([1e-300, 1.0]))
        assert err.value.min_eigenvalue == 1e-300

    def test_ill_conditioned_but_resolvable_accepted(self):
        res = compile_precision(np.diag([1e-12, 1.0]))
        assert res.ideal_maxwell[0, 0] == 1e-12

    def test_non_symmetric_rejected(self):
        with pytest.raises(MatrixFormatError):
            compile_precision(np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_two_by_two_analytic_stationary(self):
        p = np.array([[2.0, 1.0], [1.0, 2.0]])
        res = compile_precision(p)
        sigma = stationary_voltage_covariance(res.ideal_params)
        np.testing.assert_allclose(sigma, np.array([[2, -1], [-1, 2]]) / 3.0, rtol=1e-10)

    def test_stationary_is_inverse_for_any_kt(self):
        p = random_psd(5, 0)
        for kt in (0.5, 1.0, 3.0):
            res = compile_precision(p, kT=kt)
            sigma = stationary_voltage_covariance(res.ideal_params)
            np.testing.assert_allclose(sigma, np.linalg.inv(p), rtol=1e-9)

    def test_rescaling_invariance(self):
        p = random_psd(4, 1)
        a = compile_precision(2.5 * p, kT=1.0)
        b = compile_precision(p, kT=2.5)
        np.testing.assert_allclose(a.ideal_maxwell, b.ideal_maxwell, rtol=1e-12)


class TestCompileCovariance:
    def test_identity(self):
        res = compile_covariance(np.eye(3), beta=1.0)
        np.testing.assert_allclose(res.ideal_maxwell, np.eye(3))
        assert res.readout == "charge"

    def test_diagonal_covariance_uncoupled_cells(self):
        variances = np.array([1.0, 2.5, 0.5])
        res = compile_covariance(np.diag(variances), beta=2.0)
        np.testing.assert_allclose([c.capacitance for c in res.ideal_params.cells],
                                   2.0 * variances)
        np.testing.assert_allclose(res.ideal_params.coupling_capacitances, 0.0)

    def test_simulated_charge_covariance_matches_target(self):
        sigma = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        res = compile_covariance(sigma, beta=1.0)
        batch = integrate_circuit(res.ideal_params,
                                  SamplingPlan(n_samples=60_000, chains=60).trajectory_config(
                                      res.ideal_params, seed=2),
                                  record="charge")
        assert rel_frobenius(batch.covariance(), sigma) < 0.05


class TestQuantize:
    def test_snap_nearest_with_away_from_zero_ties(self):
        grid = np.array([-0.47, 0.0, 0.47]) * NF
        vals = np.array([0.30, -0.30, 0.1, 0.235, -0.235]) * NF
        snapped = snap_to_grid(vals, grid)
        np.testing.assert_allclose(
            snapped, np.array([0.47, -0.47, 0.0, 0.47, -0.47]) * NF)

    def test_on_grid_input_residual_zero(self):
        in_cell = np.array([BANK_CAPACITANCES_F[3], BANK_CAPACITANCES_F[2],
                            BANK_CAPACITANCES_F[3]])
        x = COUPLING_CAPACITANCE_F
        coupling = np.array([[0.0, x, 0.0],
                             [x, 0.0, -x],
                             [0.0, -x, 0.0]])
        from spusim.circuit import maxwell_from_capacitances
        ideal = maxwell_from_capacitances(in_cell, coupling)
        params, residual, scale = quantize_to_banks(ideal)
        assert residual == 0.0
        assert scale == 1.0
        np.testing.assert_allclose(params.maxwell, ideal, rtol=1e-12)
        assert params.quantized

    def test_bank_values_only(self):
        ideal = random_psd(8, 3)
        params, residual, scale = quantize_to_banks(ideal)
        for cell in params.cells:
            assert cell.capacitance in BANK_CAPACITANCES_F
        off = params.coupling_capacitances[~np.eye(8, dtype=bool)]
        allowed = {-COUPLING_CAPACITANCE_F, 0.0, COUPLING_CAPACITANCE_F}
        assert set(np.round(off, 15)).issubset({round(v, 15) for v in allowed})
        np.testing.assert_allclose(params.maxwell, params.maxwell.T)
        assert residual >= 0.0

    def test_scale_search_beats_unit_scale(self):
        # an off-scale target must quantize better after the global rescale
        from spusim.circuit import maxwell_from_capacitances
        ideal = 37.0 * random_psd(8, 4)
        _, residual_searched, scale = quantize_to_banks(ideal)
        # residual the snapping alone would leave at scale exactly 1
        cell_caps = snap_to_grid(ideal.sum(axis=1), np.array(BANK_CAPACITANCES_F))
        coupling = -ideal.copy()
        np.fill_diagonal(coupling, 0.0)
        snapped = snap_to_grid(coupling, np.array([-0.47e-9, 0.0, 0.47e-9]))
        snapped = np.triu(snapped, 1) + np.triu(snapped, 1).T
        m_unit = maxwell_from_capacitances(cell_caps, snapped)
        residual_unit = np.linalg.norm(m_unit - ideal) / np.linalg.norm(ideal)
        assert residual_searched < residual_unit
        assert scale != 1.0


class TestPreprocessNonPsd:
    def test_comfortably_psd_unchanged(self):
        a = np.diag([1.0, 2.0])
        out, shift = preprocess_non_psd(a)
        np.testing.assert_array_equal(out, a)
        assert shift == 0.0

    def test_indefinite_shifted_by_margin_plus_deficit(self):
        a = np.diag([1.0, -1.0])
        out, shift = preprocess_non_psd(a)
        np.testing.assert_allclose(out, np.diag([2.1, 0.1]), rtol=1e-12)
        assert shift == pytest.approx(1.1)

    @pytest.mark.parametrize("seed", range(6))
    def test_output_floor_at_margin(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 5))
        a = 0.5 * (a + a.T)
        out, shift = preprocess_non_psd(a)
        assert np.linalg.eigvalsh(out)[0] >= 0.1 - 1e-12
        np.testing.assert_allclose(out, 0.5 * (a + a.T) + shift * np.eye(5), rtol=0, atol=0)


class TestTargetSpec:
    def test_kinds_and_covariance(self):
        p = random_psd(3, 7)
        assert np.allclose(TargetSpec(p, "precision").covariance(), np.linalg.inv(p))
        assert np.allclose(TargetSpec(p, "covariance").covariance(), p)

    def test_symmetry_tolerance(self):
        p = np.eye(2)
        p[0, 1] = 1e-16  # within tolerance
        TargetSpec(p)
        p[0, 1] = 1e-3
        with pytest.raises(MatrixFormatError):
            TargetSpec(p)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_rejected_at_the_boundary(self, entry):
        from spusim.linalg import invert_matrix
        with pytest.raises(MatrixFormatError, match="NaN or infinite"):
            TargetSpec(np.array([[1.0, entry], [entry, 1.0]]))
        with pytest.raises(MatrixFormatError, match="NaN or infinite"):
            invert_matrix([[1.0, entry], [entry, 1.0]])
