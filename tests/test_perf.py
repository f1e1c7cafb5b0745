"""Tests for the runtime/energy scaling model."""

import importlib.resources

import numpy as np
import pytest

from spusim.perf import (DigitalCostParams, SpuCostParams, crossover,
                         digital_energy, digital_time, fit_digital_baseline,
                         load_digital_baseline, loglog_slope, performance_curves,
                         spu_energy, spu_time)


class TestSpuTime:
    def test_quadratic_slope_at_scale(self):
        # log(t(1e4)/t(1e3)) / log(10) = 2 within 0.1 at fixed sample count
        slope = np.log(spu_time(10_000, 10_000) / spu_time(1_000, 10_000)) / np.log(10)
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_degenerate_dimension(self):
        p = SpuCostParams()
        t = spu_time(1, 10_000, p)
        assert t > 0
        fixed = p.compile_time_per_element + p.load_time_per_element
        dynamics = 10_000 * p.sample_spacing_tau * p.time_constant
        readout = 10_000 / p.adc_rate
        assert t == pytest.approx(fixed + dynamics + readout)

    def test_sample_terms_linear(self):
        p = SpuCostParams()
        d = 50
        base = spu_time(d, 10_000, p)
        double = spu_time(d, 20_000, p)
        fixed = (p.compile_time_per_element + p.load_time_per_element) * d * d
        assert double - fixed == pytest.approx(2 * (base - fixed), rel=1e-12)

    def test_monotone(self):
        assert spu_time(2000, 10_000) > spu_time(1000, 10_000)
        assert spu_time(1000, 20_000) > spu_time(1000, 10_000)


class TestSpuEnergy:
    def test_proportional_to_d_times_time(self):
        p = SpuCostParams()
        assert spu_energy(64, 5000, p) == pytest.approx(
            64 * p.power_per_cell * spu_time(64, 5000, p))

    def test_energy_slope_is_time_slope_plus_one(self):
        dims = np.unique(np.geomspace(1e3, 1e5, 12).astype(int))
        ts = [spu_time(d, 10_000) for d in dims]
        es = [spu_energy(d, 10_000) for d in dims]
        assert loglog_slope(dims, es) == pytest.approx(loglog_slope(dims, ts) + 1.0,
                                                       abs=1e-9)

    def test_regression_anchor(self):
        # pinned from the model at the defaults: d=8, 1e4 samples
        value = spu_energy(8, 10_000, SpuCostParams())
        assert value == pytest.approx(8 * 5e-6 * (2e-6 * 64 + 1e-3 + 0.05), rel=1e-9)


class TestDigitalBaseline:
    def test_fit_recovers_planted_coefficients(self):
        dims = np.array([200, 500, 1000, 3000, 10_000], dtype=float)
        c3, c2, n = 5e-10, 2e-14, 10_000
        t = c3 * dims ** 3 + c2 * n * dims ** 2
        table = np.column_stack([dims, t, 250.0 * t])
        fitted = fit_digital_baseline(table, n_samples=n)
        assert fitted.cubic_coefficient == pytest.approx(c3, rel=1e-6)
        assert fitted.quadratic_per_sample == pytest.approx(c2, rel=1e-4)
        assert fitted.power == pytest.approx(250.0)

    def test_bundled_table_loads(self):
        params = load_digital_baseline()
        assert params.cubic_coefficient > 0
        assert params.power == pytest.approx(300.0)

    def test_cubic_slope(self):
        params = load_digital_baseline()
        dims = np.unique(np.geomspace(1e3, 1e5, 12).astype(int))
        ts = [digital_time(d, 10_000, params) for d in dims]
        assert loglog_slope(dims, ts) == pytest.approx(3.0, abs=0.1)


class TestCrossover:
    def test_reference_crossover_brackets_three_thousand(self):
        d_star = crossover(load_digital_baseline())
        assert d_star is not None
        assert 1000 <= d_star <= 10_000

    def test_no_crossover_when_digital_always_faster(self):
        digital = DigitalCostParams(cubic_coefficient=1e-18,
                                    quadratic_per_sample=0.0, power=300.0)
        assert crossover(digital=digital) is None

    def test_crossover_at_one_when_spu_dominates(self):
        spu = SpuCostParams(compile_time_per_element=1e-15,
                            load_time_per_element=1e-15,
                            time_constant=1e-12, adc_rate=1e15)
        digital = DigitalCostParams(cubic_coefficient=1.0,
                                    quadratic_per_sample=0.0, power=1.0)
        assert crossover(spu=spu, digital=digital) == 1

    def test_energy_advantage_at_all_tested_dimensions(self):
        # any cubic digital baseline drawing >= 10 W loses on energy from d = 100 up
        digital = DigitalCostParams(cubic_coefficient=6.7e-10,
                                    quadratic_per_sample=1e-14, power=10.0)
        for d in np.unique(np.geomspace(100, 1e5, 15).astype(int)):
            assert spu_energy(d, 10_000) < digital_energy(d, 10_000, digital)


class TestCurves:
    def test_table_shape_and_monotonicity(self):
        dims = [100, 1000, 10_000]
        table = performance_curves(dims, load_digital_baseline())
        assert table.shape == (3, 5)
        assert np.all(np.diff(table[:, 1]) > 0)
        assert np.all(np.diff(table[:, 2]) > 0)

    def test_reference_table_round_trips_through_fit(self):
        # the bundled table is the cubic-plus-quadratic model the fit recovers
        text = importlib.resources.files("spusim.data").joinpath("digital_baseline.csv")
        table = np.loadtxt(text.read_text().splitlines(), delimiter=",", skiprows=1)
        assert table.shape == (25, 3)
        params = load_digital_baseline()
        t_fit = [digital_time(int(d), 10_000, params) for d in table[:, 0]]
        np.testing.assert_allclose(t_fit, table[:, 1], rtol=1e-6)
