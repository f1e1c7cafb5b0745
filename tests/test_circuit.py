"""Tests for the electrical-structure module."""

import json

import numpy as np
import pytest

from spusim.circuit import (BANK_CAPACITANCES_F, CircuitParams, CouplingConfig,
                            UnitCell, assert_positive_definite, build_maxwell,
                            effective_loading, loading_variance_model,
                            maxwell_from_capacitances, min_eigenvalue)
from spusim.device import SpuEmulator
from spusim.errors import (DimensionMismatchError, MatrixFormatError,
                           NotPositiveDefiniteError)

NF = 1e-9


def cell(c=1.0 * NF, r=50.0, l=1.0e-6, k=1e-13, bank=None):
    return UnitCell(inductance=l, resistance=r, noise_psd=k, capacitance=c,
                    bank_config=bank)


class TestMaxwell:
    def test_two_cell_positive_coupling(self):
        cells = [cell(1.0 * NF), cell(1.0 * NF)]
        cfg = CouplingConfig(np.array([[0, 1], [1, 0]]))
        m = build_maxwell(cells, cfg)
        expected = np.array([[1.47, -0.47], [-0.47, 1.47]]) * NF
        np.testing.assert_allclose(m, expected, rtol=1e-12)

    def test_no_coupling_is_diagonal(self):
        caps = [1.0 * NF, 3.2 * NF, 4.3 * NF]
        cells = [cell(c) for c in caps]
        m = build_maxwell(cells, CouplingConfig.none(3))
        np.testing.assert_allclose(m, np.diag(caps))

    def test_eight_cell_bank3_all_positive(self):
        # diagonal 6.5 + 7 * 0.47 = 9.79 nF, off-diagonals -0.47 nF
        cells = [UnitCell(1e-6, 50.0, 1e-13, bank_config=3) for _ in range(8)]
        m = build_maxwell(cells, CouplingConfig.all_positive(8))
        np.testing.assert_allclose(np.diag(m), np.full(8, 9.79 * NF), rtol=1e-12)
        off = m[~np.eye(8, dtype=bool)]
        np.testing.assert_allclose(off, np.full(56, -0.47 * NF), rtol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetry_and_row_sums(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.integers(2, 9)
        caps = rng.uniform(1.0, 7.0, d) * NF
        states = rng.integers(-1, 2, (d, d))
        states = np.triu(states, 1)
        states = states + states.T
        m = maxwell_from_capacitances(caps, states * 0.47 * NF)
        np.testing.assert_allclose(m, m.T)
        # row sums recover the in-cell capacitances exactly
        np.testing.assert_allclose(m.sum(axis=1), caps, rtol=1e-12)

    def test_positive_definiteness_checked_not_assumed(self):
        cells = [cell(1.0 * NF) for _ in range(4)]
        m = build_maxwell(cells, CouplingConfig.all_positive(4))
        assert_positive_definite(m)
        # all-negative couplings at this cap/coupling ratio push an eigenvalue
        # negative; the check must catch it rather than assume positivity
        neg = CouplingConfig(-CouplingConfig.all_positive(4).states)
        m_neg = build_maxwell(cells, neg)
        if min_eigenvalue(m_neg) <= 0:
            with pytest.raises(NotPositiveDefiniteError) as err:
                assert_positive_definite(m_neg)
            assert err.value.min_eigenvalue <= 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            build_maxwell([cell(), cell()], CouplingConfig.none(3))

    def test_coupling_validation(self):
        with pytest.raises(MatrixFormatError):
            CouplingConfig(np.array([[0, 1], [-1, 0]]))  # not symmetric
        with pytest.raises(MatrixFormatError):
            CouplingConfig(np.array([[1, 0], [0, 0]]))  # nonzero diagonal
        with pytest.raises(MatrixFormatError):
            CouplingConfig(np.array([[0, 2], [2, 0]]))  # out of range


class TestUnitCell:
    def test_bank_lookup(self):
        for i, value in enumerate(BANK_CAPACITANCES_F):
            assert UnitCell(1e-6, 50.0, 0.0, bank_config=i).capacitance == value

    def test_invalid(self):
        with pytest.raises(ValueError):
            UnitCell(-1e-6, 50.0, 0.0, capacitance=1 * NF)
        with pytest.raises(ValueError):
            UnitCell(1e-6, 50.0, -1.0, capacitance=1 * NF)
        with pytest.raises(ValueError):
            UnitCell(1e-6, 50.0, 0.0, bank_config=4)
        with pytest.raises(ValueError):
            UnitCell(1e-6, 50.0, 0.0)  # no capacitance at all


class TestEffectiveLoading:
    def test_last_cell_sees_own_resistance(self):
        assert effective_loading(7, 123.0, 1000.0, 8) == pytest.approx(123.0)

    def test_hand_value(self):
        # 1 / (1/100 + 7/1000) = 58.8235...
        assert effective_loading(0, 100.0, 1000.0, 8) == pytest.approx(58.82352941, rel=1e-8)

    def test_infinite_coupling_resistance_limit(self):
        for i in range(8):
            assert effective_loading(i, 100.0, 1e18, 8) == pytest.approx(100.0)

    def test_monotone_in_index(self):
        vals = [effective_loading(i, 100.0, 500.0, 8) for i in range(8)]
        assert np.all(np.diff(vals) >= 0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            effective_loading(8, 100.0, 500.0, 8)


class TestLoadingVarianceModel:
    def test_last_cell_is_a(self):
        assert loading_variance_model(2.5, 7.0, 7) == pytest.approx(2.5)

    def test_equal_parameters(self):
        for i in range(8):
            assert loading_variance_model(1.0, 1.0, i) == pytest.approx(1.0 / (8 - i))

    def test_hand_value(self):
        assert loading_variance_model(1.0, 10.0, 3) == pytest.approx(10.0 / 14.0)

    def test_monotone_in_index(self):
        vals = [loading_variance_model(1.3, 4.2, i) for i in range(8)]
        assert np.all(np.diff(vals) > 0)


class TestCircuitParams:
    def test_maxwell_invariant(self):
        cells = [cell(c * NF) for c in (1.0, 3.2, 4.3)]
        cfg = CouplingConfig(np.array([[0, 1, -1], [1, 0, 0], [-1, 0, 0]]))
        params = CircuitParams.build(cells, cfg)
        np.testing.assert_array_equal(params.maxwell, build_maxwell(cells, cfg))

    def test_from_maxwell_round_trip(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        m = a @ a.T + 5 * np.eye(5)
        params = CircuitParams.from_maxwell(m, resistance=2.0, inductance=0.5)
        np.testing.assert_allclose(params.maxwell, m, rtol=1e-12)
        np.testing.assert_allclose(params.in_cell_capacitances, m.sum(axis=1), rtol=1e-12)

    def test_tolerance_perturbation_seeded(self):
        params = CircuitParams.build([cell(), cell()],
                                     CouplingConfig(np.array([[0, 1], [1, 0]])))
        a = params.with_tolerance(0.05, seed=11)
        b = params.with_tolerance(0.05, seed=11)
        c = params.with_tolerance(0.05, seed=12)
        np.testing.assert_array_equal(a.maxwell, b.maxwell)
        assert not np.array_equal(a.maxwell, c.maxwell)
        # perturbations stay at the few-percent scale
        ratio = a.in_cell_capacitances / params.in_cell_capacitances
        assert np.all(np.abs(ratio - 1) < 0.3)
        np.testing.assert_allclose(a.maxwell, a.maxwell.T)

    @pytest.mark.parametrize("sigma", [-0.05, float("nan"), float("inf")])
    def test_bad_tolerance_refused(self, sigma):
        params = CircuitParams.build([cell()], CouplingConfig.none(1))
        with pytest.raises(ValueError, match=f"rel_sigma must be non-negative and finite, "
                                             f"got {sigma}"):
            params.with_tolerance(sigma, seed=11)

    def test_parallel_loading_applied(self):
        # the board applies the loading to every cell's resistance
        loaded = SpuEmulator(resistance=100.0, coupling_resistance=1000.0).true_params()
        expected = [effective_loading(i, 100.0, 1000.0, 8) for i in range(8)]
        np.testing.assert_allclose(loaded.r_vector, expected)

    def test_json_round_trip_quantized(self):
        cells = [UnitCell(1.1e-6, 60.0, 2e-13, bank_config=2) for _ in range(3)]
        cfg = CouplingConfig(np.array([[0, 1, 0], [1, 0, -1], [0, -1, 0]]))
        params = CircuitParams.build(cells, cfg)
        restored = CircuitParams.from_json(params.to_json())
        np.testing.assert_allclose(restored.maxwell, params.maxwell, rtol=1e-15)
        assert restored.quantized
        assert json.loads(params.to_json())["cells"][0]["bank_config"] == 2

    def test_json_round_trip_continuous(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4))
        params = CircuitParams.from_maxwell(a @ a.T + 4 * np.eye(4))
        restored = CircuitParams.from_json(params.to_json())
        np.testing.assert_allclose(restored.maxwell, params.maxwell, rtol=1e-15)
        assert not restored.quantized
