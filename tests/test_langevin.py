"""Tests for the Langevin integrators and analytic references."""

import dataclasses
import hashlib
import logging

import numpy as np
import pytest

import spusim.langevin as langevin
from spusim.circuit import CircuitParams, CouplingConfig, UnitCell
from spusim.compiler import TargetSpec, compile_covariance, compile_precision
from spusim.device import SpuEmulator
from spusim.errors import NonFiniteStateError, NotPositiveDefiniteError, SpuSimError
from spusim.langevin import (GenericLangevinSpec, QuadraticPotential, SdeState,
                             TrajectoryConfig, _factor, _LinearSystem, _run_linear,
                             autocorrelation, correlation_time,
                             discrete_stationary_covariance, hamiltonian,
                             hamiltonian_iv, integrate_circuit, integrate_odl,
                             integrate_udl, inverse_transform, stationary_reference,
                             stationary_state_covariance,
                             stationary_voltage_covariance, suggest_dt,
                             transform_coords)
from spusim.linalg import SamplingPlan, sample_gaussian

NF = 1e-9
CELL7 = dict(inductance=1.77e-6, resistance=76.7, noise_psd=0.206e-12,
             capacitance=6.77 * NF)


def rel_frobenius(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def stepped(spec):
    """The same problem behind a plain callable, so ``integrate_udl`` steps it explicitly."""
    return dataclasses.replace(spec, grad_potential=spec.grad_potential.__call__)


def random_psd_params(d, seed, lo=0.5, hi=2.0):
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    m = q @ np.diag(rng.uniform(lo, hi, d)) @ q.T
    return CircuitParams.from_maxwell(0.5 * (m + m.T))


class TestCoordinates:
    def test_round_trip(self):
        params = random_psd_params(5, 0)
        rng = np.random.default_rng(1)
        i0, v0 = rng.standard_normal((2, 5))
        phi, q = transform_coords(i0, v0, params)
        i1, v1 = inverse_transform(phi, q, params)
        np.testing.assert_allclose(i1, i0, rtol=1e-12)
        np.testing.assert_allclose(v1, v0, rtol=1e-12)

    def test_zero_current_zero_flux(self):
        params = random_psd_params(3, 2)
        phi, _ = transform_coords(np.zeros(3), np.ones(3), params)
        np.testing.assert_array_equal(phi, 0.0)

    def test_two_cell_charge_example(self):
        cells = [UnitCell(1e-6, 50.0, 0.0, capacitance=1.0 * NF) for _ in range(2)]
        params = CircuitParams.build(cells, CouplingConfig(np.array([[0, 1], [1, 0]])))
        _, q = transform_coords(np.zeros(2), np.array([1.0, 0.0]), params)
        np.testing.assert_allclose(q, np.array([1.47, -0.47]) * NF, rtol=1e-12)


class TestHamiltonian:
    def test_zero_state(self):
        params = random_psd_params(4, 3)
        assert hamiltonian(np.zeros(4), np.zeros(4), params) == 0.0

    def test_coordinate_forms_agree(self):
        params = random_psd_params(6, 4)
        rng = np.random.default_rng(5)
        i0, v0 = rng.standard_normal((2, 6))
        phi, q = transform_coords(i0, v0, params)
        assert hamiltonian(phi, q, params) == pytest.approx(
            hamiltonian_iv(i0, v0, params), rel=1e-12)

    def test_single_cell_half_cv_squared(self):
        params = CircuitParams.build(
            [UnitCell(1e-6, 50.0, 0.0, capacitance=1.0 * NF)], CouplingConfig.none(1))
        e = hamiltonian_iv(np.zeros(1), np.ones(1), params)
        assert e == pytest.approx(0.5e-9, rel=1e-12)


class TestCorrelationTime:
    def test_table_cell_value(self):
        params = CircuitParams.build([UnitCell(**CELL7)], CouplingConfig.none(1))
        assert correlation_time(params) == pytest.approx(5.19e-7, rel=0.01)

    def test_diagonal_maxwell(self):
        caps = np.array([1.0, 3.2, 6.5]) * NF
        params = CircuitParams.from_maxwell(np.diag(caps), resistance=100.0,
                                            inductance=1e-6, noise_psd=1e-13)
        assert correlation_time(params) == pytest.approx(100.0 * 6.5 * NF, rel=1e-12)

    def test_empirical_decay_near_estimate(self):
        # moderately damped cell: normalized L=1, C=1, R=0.6 puts the
        # voltage-autocorrelation 1/e crossing near tau_corr
        params = CircuitParams.from_maxwell(np.eye(1), resistance=0.6,
                                            inductance=1.0, noise_psd=1.0)
        tau = correlation_time(params)
        cfg = TrajectoryConfig(n_samples=400_000, sample_rate=40.0 / tau,
                               seed=6, chains=1)
        batch = integrate_circuit(params, cfg)
        series = batch.values[:, 0]
        rho = autocorrelation(series, 200)
        lag_dt = 1.0 / batch.sample_rate
        below = np.nonzero(rho < np.exp(-1))[0]
        t_cross = below[0] * lag_dt
        assert 0.7 * tau < t_cross < 1.3 * tau


class TestStationaryReferences:
    def test_gibbs_flux_identity(self):
        params = CircuitParams.from_maxwell(np.eye(3), resistance=1.0,
                                            inductance=1.0, noise_psd=1.0)
        ref = stationary_reference(params)
        np.testing.assert_allclose(ref.cov_flux, np.eye(3))
        np.testing.assert_allclose(ref.cov_charge, np.eye(3))
        assert ref.beta == pytest.approx(1.0)

    def test_table_cell_voltage_variance(self):
        params = CircuitParams.build([UnitCell(**CELL7)], CouplingConfig.none(1))
        sigma = stationary_voltage_covariance(params)
        assert sigma[0, 0] == pytest.approx(2.33e-3, rel=0.01)

    def test_lyapunov_matches_gibbs(self):
        params = random_psd_params(5, 7)
        d = params.dimension
        full = stationary_state_covariance(params)
        ref = stationary_reference(params)
        np.testing.assert_allclose(full[:d, :d], ref.cov_flux, rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(full[d:, d:], ref.cov_charge, rtol=1e-8, atol=1e-12)
        # flux and charge are independent at equilibrium
        np.testing.assert_allclose(full[:d, d:], 0.0, atol=1e-10)

    def test_nonuniform_requires_lyapunov(self):
        cells = [UnitCell(1.0, 1.0, 1.0, capacitance=1.0),
                 UnitCell(1.0, 2.0, 1.0, capacitance=1.0)]
        params = CircuitParams.build(cells, CouplingConfig.none(2))
        with pytest.raises(ValueError):
            stationary_reference(params)
        sigma_v = stationary_voltage_covariance(params)  # lyapunov path
        np.testing.assert_allclose(np.diag(sigma_v), [1.0, 2.0], rtol=1e-8)

    def test_nonuniform_physical_units_require_lyapunov(self):
        # R * kappa0 near 5e-12 V^2/Hz: a unit-scale absolute tolerance would call it uniform
        cells = [UnitCell(1.3e-6, 50.0, k, bank_config=3) for k in (1e-13, 2e-13)]
        params = CircuitParams.build(cells, CouplingConfig.none(2))
        with pytest.raises(ValueError, match="differs between cells"):
            stationary_reference(params)
        sigma_v = stationary_voltage_covariance(params)
        np.testing.assert_allclose(np.diag(sigma_v), 50.0 * np.array([1e-13, 2e-13]) / 6.5e-9,
                                   rtol=1e-8)


class TestCircuitIntegration:
    def test_indefinite_maxwell_refused(self):
        # physically constructible (positive in-cell caps, strong negative-
        # polarity couplings) yet indefinite: integration must refuse to run
        m = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        bad = CircuitParams.from_maxwell(m)
        with pytest.raises(NotPositiveDefiniteError):
            integrate_circuit(bad, TrajectoryConfig(n_samples=10))

    def test_single_cell_stationary_variance(self):
        params = CircuitParams.build([UnitCell(**CELL7)], CouplingConfig.none(1))
        cfg = TrajectoryConfig(n_samples=100_000, seed=9, chains=50)
        batch = integrate_circuit(params, cfg)
        var = batch.values.var(ddof=1)
        assert var == pytest.approx(2.33e-3, rel=0.05)

    def test_zero_noise_decays_and_dissipates(self):
        params = CircuitParams.build([UnitCell(**CELL7)], CouplingConfig.none(1))
        state0 = SdeState.from_iv(np.zeros(1), np.ones(1), params)
        cfg = TrajectoryConfig(n_samples=200, zero_noise=True, seed=0,
                               record_stride=120, burn_in=0.0)
        vb = integrate_circuit(params, cfg, record="voltage", initial_state=state0)
        ib = integrate_circuit(params, cfg, record="current", initial_state=state0)
        assert abs(vb.values[-1, 0]) < 1e-4
        energies = hamiltonian_iv(ib.values, vb.values, params)
        assert np.all(np.diff(energies) <= 0.0)

    def test_two_coupled_cells_correlation_sign(self):
        for sign in (+1, -1):
            maxwell = np.array([[1.4, -0.4 * sign], [-0.4 * sign, 1.4]])
            params = CircuitParams.from_maxwell(maxwell)
            cov_ref = stationary_voltage_covariance(params)
            batch = integrate_circuit(params, TrajectoryConfig(n_samples=40_000,
                                                               seed=10, chains=20))
            cov = batch.covariance()
            assert np.sign(cov[0, 1]) == np.sign(cov_ref[0, 1])
            # positive coupling capacitance gives negative off-diagonal in C,
            # hence positive voltage correlation
            assert np.sign(cov[0, 1]) == sign

    @pytest.mark.parametrize("field", ["dt", "burn_in"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_step_or_burn_in_refused(self, field, value):
        # nan burn-in used to mean no burn-in, nan dt to fail deep in the
        # step-count arithmetic; both are refused naming the value
        with pytest.raises(ValueError, match=f"{field} must be .*finite, got {value}"):
            TrajectoryConfig(**{field: value})

    @pytest.mark.parametrize("d,seed", [(2, 11), (4, 12), (8, 13)])
    def test_gibbs_convergence(self, d, seed):
        params = random_psd_params(d, seed)
        target = stationary_voltage_covariance(params)
        batch = integrate_circuit(params, TrajectoryConfig(n_samples=60_000,
                                                           seed=seed, chains=60))
        assert rel_frobenius(batch.covariance(), target) < 0.05

    def test_discrete_law_matches_fast_path(self):
        # the compounded-stride sampler must reproduce the stepped chain's
        # stationary covariance (discrete Lyapunov), not just the continuum one
        params = random_psd_params(3, 14)
        dt = suggest_dt(params) * 8  # coarse on purpose: visible discretization bias
        cfg = TrajectoryConfig(dt=dt, n_samples=150_000, seed=15, chains=100)
        batch = integrate_circuit(params, cfg)
        d = params.dimension
        sig = discrete_stationary_covariance(params, dt)
        cinv = np.linalg.inv(params.maxwell)
        sig_v = cinv @ sig[d:, d:] @ cinv
        assert rel_frobenius(batch.covariance(), sig_v) < 0.02

    def test_determinism(self):
        params = random_psd_params(4, 16)
        cfg = TrajectoryConfig(n_samples=500, seed=77, chains=4)
        a = integrate_circuit(params, cfg)
        b = integrate_circuit(params, cfg)
        np.testing.assert_array_equal(a.values, b.values)

    def test_flux_charge_independent_at_equilibrium(self):
        # same seed gives the same trajectory, so the two records are views
        # of one run; the simulated flux/charge cross-covariance vanishes
        params = random_psd_params(3, 30)
        cfg = TrajectoryConfig(n_samples=60_000, seed=31, chains=60)
        v = integrate_circuit(params, cfg, record="voltage").values
        i = integrate_circuit(params, cfg, record="current").values
        phi = i * params.l_vector
        q = v @ params.maxwell.T
        cross = (phi - phi.mean(0)).T @ (q - q.mean(0)) / (len(phi) - 1)
        scale = np.sqrt(np.outer(phi.var(axis=0), q.var(axis=0)))
        assert np.max(np.abs(cross / scale)) < 0.05

    def test_explicit_and_fast_paths_share_law(self):
        # chain-noise runs use the explicit stepper; cross-check its
        # covariance against the exact-law fast path at matched settings
        params = CircuitParams.from_maxwell(np.array([[1.0, -0.2], [-0.2, 1.3]]),
                                            resistance=1.0, inductance=1.0,
                                            noise_psd=1.0)
        from spusim.noise import NoiseChainConfig
        tau = correlation_time(params)
        chain_cfg = NoiseChainConfig(bit_rate=400.0 / tau, rc_time_constant=tau / 50.0)
        cfg = TrajectoryConfig(n_samples=40_000, seed=17, chains=40)
        fast = integrate_circuit(params, cfg)
        slow = integrate_circuit(params, cfg, noise=chain_cfg)
        assert rel_frobenius(slow.covariance(), fast.covariance()) < 0.08


class TestUdlOdl:
    def test_udl_circuit_bit_identity(self):
        # circuit integration in flux/charge coordinates is the UDL system
        # with mass C, damping 1/R, quadratic potential L^-1; with R = 1 and
        # kappa0 = 1 the mapped parameters are bitwise equal, so trajectories
        # must be too
        params = random_psd_params(3, 18)
        dt = suggest_dt(params)
        cfg = TrajectoryConfig(dt=dt, n_samples=200, record_stride=40,
                               burn_in=0.0, seed=19, chains=2)
        v_batch = integrate_circuit(params, cfg, record="voltage")
        spec = GenericLangevinSpec(
            mass=params.maxwell, damping=1.0, beta=1.0,
            grad_potential=QuadraticPotential(np.diag(1.0 / params.l_vector)))
        xs, ps = integrate_udl(spec, np.zeros(3), np.zeros(3), cfg)
        minv = np.linalg.inv(params.maxwell)
        v_from_udl = (ps @ minv.T).reshape(-1, 3)
        np.testing.assert_array_equal(v_batch.values, v_from_udl)

    def test_loop_and_fast_paths_agree_in_law(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        spec = GenericLangevinSpec(mass=1.0, damping=1.0, beta=1.0,
                                   grad_potential=QuadraticPotential(a))
        cfg = TrajectoryConfig(dt=0.02, n_samples=40_000, record_stride=60,
                               burn_in=15.0, seed=20, chains=40)
        xf, _ = integrate_udl(spec, np.zeros(2), np.zeros(2), cfg)
        xl, _ = integrate_udl(stepped(spec), np.zeros(2), np.zeros(2), cfg)
        target = np.linalg.inv(a)
        covf = np.cov(xf.reshape(-1, 2).T)
        covl = np.cov(xl.reshape(-1, 2).T)
        assert rel_frobenius(covf, target) < 0.05
        assert rel_frobenius(covl, target) < 0.05

    def test_udl_identity_gibbs(self):
        spec = GenericLangevinSpec(mass=1.0, damping=5.0, beta=1.0,
                                   grad_potential=QuadraticPotential(np.eye(2)))
        cfg = TrajectoryConfig(dt=0.01, n_samples=100_000, record_stride=100,
                               burn_in=20.0, seed=21, chains=100)
        xs, _ = integrate_udl(spec, np.zeros(2), np.zeros(2), cfg)
        cov = np.cov(xs.reshape(-1, 2).T)
        assert rel_frobenius(cov, np.eye(2)) < 0.05

    def test_udl_1d_equipartition(self):
        beta = 2.5
        spec = GenericLangevinSpec(mass=1.0, damping=1.0, beta=beta,
                                   grad_potential=QuadraticPotential(np.eye(1)))
        cfg = TrajectoryConfig(dt=0.02, n_samples=80_000, record_stride=60,
                               burn_in=20.0, seed=22, chains=80)
        xs, _ = integrate_udl(spec, np.zeros(1), np.zeros(1), cfg)
        assert xs.reshape(-1).var() == pytest.approx(1.0 / beta, rel=0.05)

    def test_energy_drift_zero_noise(self):
        # undamped, noiseless harmonic oscillator: the semi-implicit step
        # keeps energy bounded; drift over one period at dt = T/1000 < 1%
        spec = GenericLangevinSpec(mass=1.0, damping=1e-12, beta=1.0,
                                   grad_potential=QuadraticPotential(np.eye(1)))
        period = 2 * np.pi
        n = 1000
        cfg = TrajectoryConfig(dt=period / n, n_samples=n, record_stride=1,
                               burn_in=0.0, seed=0, zero_noise=True)
        xs, ps = integrate_udl(stepped(spec), np.array([1.0]), np.array([0.0]), cfg)
        energy = 0.5 * ps[:, 0] ** 2 + 0.5 * xs[:, 0] ** 2
        assert abs(energy[-1] - 0.5) / 0.5 < 0.01
        assert np.max(np.abs(energy - 0.5)) / 0.5 < 0.01

    def test_odl_quadratic_gibbs(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        spec = GenericLangevinSpec(mass=1.0, damping=1.0, beta=1.0,
                                   grad_potential=QuadraticPotential(a))
        cfg = TrajectoryConfig(dt=0.01, n_samples=100_000, record_stride=80,
                               burn_in=10.0, seed=23, chains=100)
        xs = integrate_odl(spec, np.zeros(2), cfg)
        # stationary covariance A^-1 at beta = 1, by the analytic 2x2 inverse
        target = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        np.testing.assert_allclose(np.linalg.inv(a), target, rtol=1e-12)
        cov = np.cov(xs.reshape(-1, 2).T)
        assert rel_frobenius(cov, target) < 0.05

    def test_odl_free_diffusion(self):
        spec = GenericLangevinSpec(mass=1.0, damping=2.0, beta=0.5,
                                   grad_potential=lambda x: np.zeros_like(x))
        # one record per chain after t = 400 * 0.01 = 4 time units
        cfg = TrajectoryConfig(dt=0.01, n_samples=4000, record_stride=400,
                               burn_in=0.0, seed=24, chains=4000)
        xs = integrate_odl(spec, np.zeros(1), cfg)
        # Var[x(t)] = 2 t / (gamma beta) = 2 * 4 / (2 * 0.5) = 8
        assert xs[:, -1, 0].var() == pytest.approx(8.0, rel=0.1)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_overflow_diagnostic_names_step(self):
        spec = GenericLangevinSpec(mass=1.0, damping=1e-9, beta=1e9,
                                   grad_potential=QuadraticPotential(np.eye(1)))
        cfg = TrajectoryConfig(dt=5.0, n_samples=2000, record_stride=1,
                               burn_in=0.0, seed=0, zero_noise=True)
        with pytest.raises(RuntimeError, match="step"):
            integrate_udl(stepped(spec), np.array([1.0]), np.array([0.0]), cfg)

    @pytest.mark.parametrize("run", ["udl", "udl-stepped", "odl"])
    def test_non_finite_state_has_its_own_error(self, run):
        spec = GenericLangevinSpec(mass=1.0, damping=1e-3, beta=1.0,
                                   grad_potential=QuadraticPotential(np.eye(1)))
        cfg = TrajectoryConfig(dt=5.0, n_samples=2000, record_stride=1, burn_in=0.0)
        x0 = np.array([1.0])
        with pytest.raises(NonFiniteStateError, match="non-finite state") as err:
            if run == "odl":
                integrate_odl(spec, x0, cfg)
            else:
                integrate_udl(spec if run == "udl" else stepped(spec), x0, x0, cfg)
        assert isinstance(err.value, SpuSimError) and isinstance(err.value, RuntimeError)


class TestStepSizeLog:
    def test_coarse_step_is_logged(self, caplog):
        params = random_psd_params(2, 60)
        cfg = TrajectoryConfig(dt=correlation_time(params) / 40.0, n_samples=20,
                               record_stride=5, burn_in=0.0)
        with caplog.at_level(logging.WARNING, logger="spusim"):
            integrate_circuit(params, cfg)
        [record] = caplog.records
        assert record.name == "spusim" and record.levelno == logging.WARNING
        assert "exceeds tau_corr/50" in record.getMessage()

    def test_suggested_step_is_not_logged(self, caplog):
        params = random_psd_params(2, 60)
        with caplog.at_level(logging.DEBUG, logger="spusim"):
            integrate_circuit(params, TrajectoryConfig(n_samples=20))
        assert caplog.records == []


class TestBurnInRule:
    def test_exponential_autocorrelation_below_one_percent_after_5tau(self):
        # in the exponential-decay regime (overdamped dynamics) the waiting
        # rule is exact: rho(5 tau) = e^-5 < 1%
        spec = GenericLangevinSpec(mass=1.0, damping=1.0, beta=1.0,
                                   grad_potential=QuadraticPotential(np.eye(1)))
        dt, stride = 0.025, 10  # records every 0.25 time units, tau = 1
        cfg = TrajectoryConfig(dt=dt, n_samples=800_000, record_stride=stride,
                               burn_in=10.0, seed=26, chains=16)
        xs = integrate_odl(spec, np.zeros(1), cfg)
        lag_5tau = int(round(5.0 / (dt * stride)))
        rhos = [autocorrelation(chain[:, 0], lag_5tau + 2)[lag_5tau] for chain in xs]
        assert abs(np.mean(rhos)) < 0.015  # e^-5 = 0.0067 plus estimator noise

    def test_covariance_equilibrated_after_5tau_from_zero_start(self):
        # equilibration is decorrelation from the initial state: starting
        # from zeros, the covariance deficit after 5 tau_corr is below 1%
        # for the underdamped hardware cell
        params = CircuitParams.build([UnitCell(**CELL7)], CouplingConfig.none(1))
        tau = correlation_time(params)
        target = stationary_voltage_covariance(params)[0, 0]
        cfg = TrajectoryConfig(n_samples=400_000, burn_in=5 * tau,
                               record_stride=1, seed=26, chains=2000)
        batch = integrate_circuit(params, cfg)
        # first recorded sample of each chain sits right after burn-in
        first = batch.per_chain()[:, 0, 0]
        assert first.var(ddof=1) == pytest.approx(target, rel=0.02)


def _stepped_reference(sys_, z, source, per_chain, stride, burn_steps, zero_noise):
    """Per-step oracle for the block engine: one transition per integrator step."""
    total = burn_steps + per_chain * stride
    eta = (np.zeros((total, z.shape[0], sys_.dimension)) if zero_noise
           else source.increments(total))
    recs = []
    for step in range(total):
        z = z @ sys_.m_step.T + sys_.c_step + eta[step] @ sys_.n_inject.T
        if step >= burn_steps and (step + 1 - burn_steps) % stride == 0:
            recs.append(z)
    return np.stack(recs, axis=1)


def _per_record_reference(sys_, z, rng, per_chain, stride, burn_steps, zero_noise):
    """Ideal-source oracle: one exact Gaussian draw for the burn-in, then one per record."""
    def block(z, n):
        m, c, s = sys_.compound(n)
        z = z @ m.T + c
        return z if zero_noise else z + rng.standard_normal(z.shape) @ _factor(s).T

    if burn_steps:
        z = block(z, burn_steps)
    recs = []
    for _ in range(per_chain):
        z = block(z, stride)
        recs.append(z)
    return np.stack(recs, axis=1)


def _modal_per_record_reference(sys_, z, rng, per_chain, stride, burn_steps, zero_noise):
    """``_per_record_reference`` for a stack of per-mode blocks; records as stored."""
    def block(z, n):
        m, c, s = sys_.compound(n)
        z = z @ langevin._t(m) + c[..., None, :]
        return z if zero_noise else z + rng.standard_normal(z.shape) @ langevin._t(_factor(s))

    if burn_steps:
        z = block(z, burn_steps)
    recs = []
    for _ in range(per_chain):
        z = block(z, stride)
        recs.append(sys_.stored(z))
    return np.stack(recs, axis=1)


class TestBlockEngine:
    """``_run_linear`` compounds whole blocks; it must match the references."""

    DT = 0.05

    def system(self, d=3, seed=40, offset=None, gamma=1.0, amps=1.3):
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        m_inv = q @ np.diag(rng.uniform(0.5, 2.0, d)) @ q.T
        return _LinearSystem(m_inv=0.5 * (m_inv + m_inv.T),
                             a_mat=np.diag(rng.uniform(0.5, 2.0, d)),
                             gamma_vec=np.full(d, gamma), amps=np.full(d, amps),
                             dt=self.DT, offset=offset)

    def source(self, chains, d=3, sub=1, **chain_kw):
        from spusim.noise import ChainNoiseSource, NoiseChainConfig
        bit_period = sub * self.DT
        chain = NoiseChainConfig(bit_rate=1.0 / bit_period,
                                 rc_time_constant=8.0 * bit_period, **chain_kw)
        return ChainNoiseSource(chain, seed=41, dimension=d, kappa0=0.7, dt=self.DT,
                                chains=chains)

    def compare(self, sys_, chains, per_chain, stride, burn_steps, zero_noise=False, **src_kw):
        z0 = np.random.default_rng(42).standard_normal((chains, 2 * sys_.dimension))
        args = (per_chain, stride, burn_steps, zero_noise)
        got = _run_linear(sys_, z0.copy(), self.source(chains, **src_kw), *args)
        want = _stepped_reference(sys_, z0.copy(), self.source(chains, **src_kw), *args)
        assert got.shape == want.shape == (chains, per_chain, 2 * sys_.dimension)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_stride_above_block_and_not_a_multiple(self, monkeypatch):
        import spusim.langevin as lg
        monkeypatch.setattr(lg, "_MAX_BLOCK_STEPS", 64)
        self.compare(self.system(), chains=3, per_chain=5, stride=150, burn_steps=100)

    def test_default_block_with_long_stride(self):
        self.compare(self.system(), chains=2, per_chain=2, stride=4500, burn_steps=300)

    def test_no_burn_in_stride_one(self):
        self.compare(self.system(), chains=2, per_chain=300, stride=1, burn_steps=0)

    def test_substeps_per_bit(self):
        self.compare(self.system(), chains=2, per_chain=7, stride=37, burn_steps=50, sub=3)

    def test_duty_cycle_and_saturation(self):
        self.compare(self.system(), chains=2, per_chain=6, stride=90, burn_steps=40,
                     duty_cycle=0.3, saturation=1.2)

    def test_zero_noise(self):
        self.compare(self.system(), chains=2, per_chain=8, stride=25, burn_steps=30,
                     zero_noise=True)

    def test_drift_offset(self):
        sys_ = self.system(offset=np.array([0.5, -1.0, 2.0]))
        assert np.any(sys_.c_step != 0)
        self.compare(sys_, chains=3, per_chain=6, stride=70, burn_steps=20)

    def test_many_chains(self):
        self.compare(self.system(d=2), chains=9, per_chain=4, stride=200, burn_steps=150, d=2)

    @pytest.mark.parametrize("burn_steps,zero_noise,offset", [
        (0, False, None),  # no burn-in draw at all
        (250, False, None),  # burn-in longer than the stride
        (40, True, None),
        (250, False, np.array([0.5, -1.0, 2.0])),  # non-zero c_step
        (70, True, np.array([0.5, -1.0, 2.0])),
    ])
    def test_ideal_source_matches_per_record_draws(self, burn_steps, zero_noise, offset):
        sys_ = self.system(offset=offset)
        z0 = np.random.default_rng(42).standard_normal((3, 6))
        args = (9, 70, burn_steps, zero_noise)
        got = _run_linear(sys_, z0.copy(), np.random.default_rng(43), *args)
        want = _per_record_reference(sys_, z0.copy(), np.random.default_rng(43), *args)
        if zero_noise:  # stepped record by record, as the reference is
            assert np.array_equal(got, want)
        else:
            _assert_close(got, want)  # the blocked scan rounds apart from the loop

    @pytest.mark.parametrize("ideal", [True, False])
    def test_equal_burn_in_and_stride_compound_once(self, monkeypatch, ideal):
        calls = []
        compound = _LinearSystem.compound

        def counted(sys_, n):
            calls.append(n)
            return compound(sys_, n)

        monkeypatch.setattr(_LinearSystem, "compound", counted)
        source = np.random.default_rng(44) if ideal else self.source(2)
        _run_linear(self.system(), np.zeros((2, 6)), source, per_chain=5, stride=120,
                    burn_steps=120, zero_noise=False)
        assert calls == [120]

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_non_finite_state_names_the_record(self):
        sys_ = self.system(gamma=-100.0)  # anti-damped: grows ~6x per step
        with pytest.raises(RuntimeError, match=r"non-finite state at step \d+ \(record \d+\)"):
            _run_linear(sys_, np.ones((2, 6)), self.source(2), per_chain=20, stride=100,
                        burn_steps=0, zero_noise=False)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_ideal_source_non_finite_state_names_the_record(self):
        sys_ = self.system(gamma=-100.0)
        with pytest.raises(RuntimeError, match=r"non-finite state at step \d+ \(record \d+\)"):
            _run_linear(sys_, np.ones((2, 6)), np.random.default_rng(45), per_chain=60,
                        stride=10, burn_steps=0, zero_noise=False)

    def test_max_steps_guard(self):
        params = random_psd_params(2, 43)
        cfg = TrajectoryConfig(n_samples=10, seed=44, max_steps=1000)
        with pytest.raises(ValueError, match="max_steps"):
            integrate_circuit(params, cfg, noise="lfsr-chain")


def _dense_twin(monkeypatch, **system_kw):
    """The same step with the modal split refused, i.e. one dense 2d x 2d block."""
    with monkeypatch.context() as m:
        m.setattr(langevin, "_normal_modes", lambda *args: None)
        return _LinearSystem(**system_kw)


def _cell_vector(sys_, c):
    """Per-mode (d, 2) vectors of a modal system as one cell-basis 2d vector."""
    return np.concatenate([sys_.basis @ c[:, 0], sys_.basis @ c[:, 1]])


def _assert_close(got, want, rtol=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class _CountingGenerator(np.random.Generator):
    """``default_rng(seed)`` that notes the records of each ``standard_normal(out=)`` draw."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.counts = []

    def standard_normal(self, *args, **kwargs):
        self.counts.append(kwargs["out"].shape[0])
        return super().standard_normal(*args, **kwargs)


class TestModalEngine:
    """Decoupled systems step as d independent 2 x 2 blocks; the dense block is the reference."""

    DT = 0.05

    def modal_kw(self, d=4, seed=50, offset=None, gamma=0.8):
        # scalar potential, damping and noise with a general mass inverse:
        # every operator is a polynomial in m_inv, as for a compiled target
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        m_inv = q @ np.diag(rng.uniform(0.5, 2.0, d)) @ q.T
        return dict(m_inv=0.5 * (m_inv + m_inv.T), a_mat=np.eye(d) * 1.7,
                    gamma_vec=np.full(d, gamma), amps=np.full(d, 1.3), dt=self.DT,
                    offset=offset)

    def chain(self, chains, d):
        from spusim.noise import ChainNoiseSource, NoiseChainConfig
        cfg = NoiseChainConfig(bit_rate=1.0 / self.DT, rc_time_constant=8.0 * self.DT)
        return ChainNoiseSource(cfg, seed=51, dimension=d, kappa0=0.7, dt=self.DT,
                                chains=chains)

    @pytest.mark.parametrize("n", [1, 2, 777, 4000])
    def test_compound_rotated_back_matches_dense(self, monkeypatch, n):
        kw = self.modal_kw(d=16, offset=np.linspace(-1.0, 2.0, 16))
        modal = _LinearSystem(**kw)
        dense = _dense_twin(monkeypatch, **kw)
        assert modal.basis is not None and dense.basis is None
        m_m, c_m, s_m = modal.compound(n)
        m_d, c_d, s_d = dense.compound(n)
        assert m_m.shape == (16, 2, 2) and m_d.shape == (32, 32)
        _assert_close(modal.expand(m_m), m_d)
        _assert_close(_cell_vector(modal, c_m), c_d)
        _assert_close(modal.expand(s_m), s_d)

    @pytest.mark.parametrize("stride,burn_steps,zero_noise,offset", [
        (70, 20, False, None),
        (150, 100, False, None),  # stride above the block width set below
        (1, 0, False, None),
        (45, 30, True, np.array([0.5, -1.0, 2.0, 0.3])),  # drift only, from a random start
        (45, 30, False, np.array([0.5, -1.0, 2.0, 0.3])),
    ])
    def test_chain_records_match_dense_layout(self, monkeypatch, stride, burn_steps,
                                              zero_noise, offset):
        monkeypatch.setattr(langevin, "_MAX_BLOCK_STEPS", 64)
        kw = self.modal_kw(offset=offset)
        modal = _LinearSystem(**kw)
        dense = _dense_twin(monkeypatch, **kw)
        z0 = np.random.default_rng(52).standard_normal((3, 8))
        args = (6, stride, burn_steps, zero_noise)
        got = _run_linear(modal, modal.to_blocks(z0), self.chain(3, 4), *args)
        want = _run_linear(dense, z0.copy(), self.chain(3, 4), *args)
        assert got.shape == (3, 6, 2, 4) and want.shape == (3, 6, 8)
        for half in (0, 1):
            _assert_close(modal.cells(got, half), dense.cells(want, half))

    @pytest.mark.parametrize("burn_steps", [0, 90])
    def test_modal_ideal_source_matches_per_record_draws(self, burn_steps):
        # chunked draws read the stream as separate per-record draws would
        sys_ = _LinearSystem(**self.modal_kw(offset=np.ones(4)))
        z0 = sys_.to_blocks(np.random.default_rng(53).standard_normal((3, 8)))
        per_chain, stride = 70, 40  # more records than one chunk, and a partial chunk

        def block(z, n, rng):
            m, c, s = sys_.compound(n)
            z = z @ langevin._t(m) + c[..., None, :]
            return z + rng.standard_normal(z.shape) @ langevin._t(_factor(s))

        rng = np.random.default_rng(54)
        z = block(z0, burn_steps, rng) if burn_steps else z0
        want = []
        for _ in range(per_chain):
            z = block(z, stride, rng)
            want.append(sys_.stored(z))
        got = _run_linear(sys_, z0.copy(), np.random.default_rng(54), per_chain, stride,
                          burn_steps, False)
        _assert_close(got, np.stack(want, axis=1))

    @pytest.mark.parametrize("modal", [False, True])
    @pytest.mark.parametrize("chains", [1, 3])
    @pytest.mark.parametrize("burn_steps,zero_noise,drift", [
        (0, False, False),
        (90, False, True),  # a burn-in draw, then records with a drift offset
        (90, True, True),  # drift only: no draws
        (40, True, False),  # neither drift nor noise
        (90, False, False),  # a burn-in draw without a drift
        (0, False, True),  # a drift without a burn-in
    ])
    def test_chunk_boundaries_match_per_record_draws(self, monkeypatch, modal, chains,
                                                     burn_steps, zero_noise, drift):
        if modal:
            sys_ = _LinearSystem(**self.modal_kw(
                offset=np.array([0.5, -1.0, 2.0, 0.3]) if drift else None))
            reference = _modal_per_record_reference
        else:
            sys_ = TestBlockEngine().system(offset=np.array([0.5, -1.0, 2.0]) if drift else None)
            reference = _per_record_reference
        assert (sys_.basis is not None) == modal
        z0 = sys_.to_blocks(
            np.random.default_rng(57).standard_normal((chains, 2 * sys_.dimension)))
        monkeypatch.setattr(langevin, "_CHUNK_BYTES", 4 * z0.nbytes)  # 4 records a chunk
        rng = _CountingGenerator(58)
        args = (11, 40, burn_steps, zero_noise)
        got = _run_linear(sys_, z0.copy(), rng, *args)
        want = reference(sys_, z0.copy(), np.random.default_rng(58), *args)
        if zero_noise:  # stepped record by record, as the reference is
            assert np.array_equal(got, want)
        else:
            _assert_close(got, want)
        # 11 records in chunks of 4, 4 and a partial 3, after the burn-in's draw
        assert rng.counts == ([] if zero_noise else [1] * (burn_steps > 0) + [4, 4, 3])

    @pytest.mark.parametrize("modal", [False, True])
    @pytest.mark.parametrize("chains", [1, 3])
    @pytest.mark.parametrize("burn_steps,drift", [(0, False), (90, True)])
    def test_single_record_chunks_match_per_record_draws(self, monkeypatch, modal, chains,
                                                         burn_steps, drift):
        # T = 1, as a stack whose state fills a chunk steps: G is the single step [M^T; W]
        offset = np.linspace(-1.0, 2.0, 4 if modal else 3) if drift else None
        if modal:
            sys_ = _LinearSystem(**self.modal_kw(offset=offset))
            reference = _modal_per_record_reference
        else:
            sys_ = TestBlockEngine().system(offset=offset)
            reference = _per_record_reference
        z0 = sys_.to_blocks(
            np.random.default_rng(60).standard_normal((chains, 2 * sys_.dimension)))
        monkeypatch.setattr(langevin, "_CHUNK_BYTES", z0.nbytes)
        rng = _CountingGenerator(61)
        args = (7, 40, burn_steps, False)
        got = _run_linear(sys_, z0.copy(), rng, *args)
        _assert_close(got, reference(sys_, z0.copy(), np.random.default_rng(61), *args))
        assert rng.counts == [1] * (7 + (burn_steps > 0))

    def test_layout_follows_the_block_structure(self):
        dt = 1e-9
        # a compiled target decouples, in either readout
        target = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])
        for comp in (compile_precision(target), compile_covariance(target)):
            assert _LinearSystem.from_circuit(comp.ideal_params, 0.01).basis is not None
        # an uncoupled board with scattered R, L, C and one driven cell: a permutation
        board = SpuEmulator(n_cells=6, tolerance_sigma=0.05, tolerance_seed=3)
        sys_ = _LinearSystem.from_circuit(board.true_params(3, "none", np.eye(6)[2]), dt)
        assert sys_.basis is not None
        assert np.array_equal(np.abs(sys_.basis), np.abs(sys_.basis).round())
        # a coupled board with per-cell inductance scatter stays dense
        rng = np.random.default_rng(55)
        cells = [UnitCell(1e-6 * (1.0 + 0.1 * rng.standard_normal()), 50.0, 1e-13,
                          bank_config=2) for _ in range(5)]
        coupled = CircuitParams.build(cells, CouplingConfig.all_positive(5))
        assert _LinearSystem.from_circuit(coupled, dt).basis is None
        # a driven pair of the fault scan: the noise mask couples the pair's modes
        pair = np.zeros((4, 4), dtype=np.int8)
        pair[0, 2] = pair[2, 0] = 1
        scan = SpuEmulator(n_cells=4).true_params(3, pair, np.eye(4)[0])
        assert _LinearSystem.from_circuit(scan, dt).basis is None
        # a matrix mass that does not commute with the potential stays dense
        assert TestBlockEngine().system().basis is None

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("modal,stride", [(False, 10), (True, 9)])
    def test_non_finite_mid_chunk_names_its_record(self, monkeypatch, modal, stride):
        if modal:
            sys_ = _LinearSystem(**self.modal_kw(d=3, gamma=-20.0))
        else:
            sys_ = TestBlockEngine().system(gamma=-20.0)
        assert (sys_.basis is not None) == modal
        z = z0 = sys_.to_blocks(np.ones((2, 6)))
        m, c, _ = sys_.compound(stride)
        first_bad = 0
        while np.all(np.isfinite(z)):  # the zero-noise chain, record by record
            z = z @ langevin._t(m) + c[..., None, :]
            first_bad += 1
        first_bad -= 1
        monkeypatch.setattr(langevin, "_CHUNK_BYTES", 32 * z0.nbytes)  # 32 records a chunk
        assert first_bad % 32 != 0  # inside a chunk
        with pytest.raises(RuntimeError) as err:
            _run_linear(sys_, z0, np.random.default_rng(56), first_bad + 40, stride,
                        0, True)
        step = (first_bad + 1) * stride
        assert str(err.value) == f"non-finite state at step {step} (record {first_bad})"

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("modal", [False, True])
    def test_overflowing_scan_names_the_record_of_the_loop(self, modal):
        # an anti-damped step at a tiny scale: within a chunk the step's powers
        # overflow long before the states they multiply, so the blocked product
        # goes non-finite records early and the chunk must be stepped again
        if modal:
            sys_ = _LinearSystem(**{**self.modal_kw(d=3, gamma=-100.0),
                                    "amps": np.full(3, 1e-300)})
            reference = _modal_per_record_reference
        else:
            sys_ = TestBlockEngine().system(gamma=-100.0, amps=1e-300)
            reference = _per_record_reference
        assert (sys_.basis is not None) == modal
        z0 = sys_.to_blocks(np.full((2, 6), 1e-300))
        per_chain, stride = 60, 26
        run = langevin._LinearRun(sys_, z0, np.random.default_rng(62), per_chain, stride, 0,
                                  False)
        plan = run.plans()[1][0]
        g, _ = langevin._scan(langevin._t(plan[0]), None, plan[2], run.chunk)
        assert not np.isfinite(g).all()
        want = reference(sys_, z0.copy(), np.random.default_rng(62), per_chain, stride, 0,
                         False)
        bad = ~np.isfinite(want.reshape(2, per_chain, -1)).all(axis=(0, 2))
        first_bad = int(np.argmax(bad))
        assert bad.any() and first_bad % run.chunk != 0  # inside a chunk
        with pytest.raises(NonFiniteStateError) as err:
            _run_linear(sys_, z0.copy(), np.random.default_rng(62), per_chain, stride, 0, False)
        step = (first_bad + 1) * stride
        assert str(err.value) == f"non-finite state at step {step} (record {first_bad})"


def _board(kappa, pairs=()):
    """Bank-3 cells with drives ``kappa``, joined (state +1) at ``pairs``."""
    states = np.zeros((len(kappa), len(kappa)), dtype=np.int8)
    for i, j in pairs:
        states[i, j] = states[j, i] = 1
    cells = [UnitCell(1.3e-6, 50.0, k, bank_config=3) for k in kappa]
    return CircuitParams.build(cells, CouplingConfig(states))


def _full_board(monkeypatch, *args, **kwargs):
    """``integrate_circuit`` with every cell stepped: the reference of the reduced run."""
    with monkeypatch.context() as m:
        m.setattr(langevin, "_moving_cells", lambda *a: None)
        return integrate_circuit(*args, **kwargs)


class TestMovingCells:
    """Only driven, displaced and coupled cells are stepped; the rest read exact zeros."""

    @pytest.mark.parametrize("record", ["voltage", "charge", "current"])
    def test_zero_noise_matches_full_board(self, monkeypatch, record):
        # cell 0 starts displaced and drags its partner 1; cell 3 is driven
        # (silent under zero noise); cell 2 is neither and stays at rest
        params = _board([0.0, 0.0, 0.0, 1e-13], pairs=[(0, 1)])
        start = np.zeros(8)
        start[0], start[4] = 2e-9, -1e-10  # flux and charge of cell 0
        cfg = TrajectoryConfig(dt=1e-9, record_stride=50, burn_in=0.0, n_samples=80,
                               chains=2, zero_noise=True)
        got = integrate_circuit(params, cfg, record=record, initial_state=start)
        want = _full_board(monkeypatch, params, cfg, record=record, initial_state=start)
        assert got.meta["cells_stepped"] == 3 and want.meta["cells_stepped"] == 4
        assert np.all(got.values[:, 2] == 0.0)
        assert np.all(got.values[:, [0, 1]] != 0.0)
        _assert_close(got.values, want.values)
        assert got.sample_rate == want.sample_rate

    def test_undriven_cells_rest_and_coupled_cells_move(self):
        # the drive on cell 0 reaches cell 3 through cell 2; cells 1 and 4 rest
        params = _board([1e-13, 0.0, 0.0, 0.0, 0.0], pairs=[(0, 2), (2, 3)])
        cfg = TrajectoryConfig(n_samples=2000, chains=4, sample_rate=12e6, seed=8)
        batch = integrate_circuit(params, cfg)
        assert batch.meta["cells_stepped"] == 3
        assert np.all(batch.values[:, [1, 4]] == 0.0)
        assert np.all(batch.values[:, [0, 2, 3]].var(axis=0) > 0.0)
        # the step size follows the stepped cells, not the board
        alone = integrate_circuit(langevin._sub_circuit(params, np.array([0, 2, 3])), cfg)
        assert batch.meta["dt"] == alone.meta["dt"]
        assert np.array_equal(batch.values[:, [0, 2, 3]], alone.values)

    def test_stationary_start(self):
        params = _board([1e-13, 0.0, 0.0, 0.0], pairs=[(0, 1)])
        cfg = TrajectoryConfig(n_samples=4000, chains=8, burn_in=0.0, seed=9)
        batch = integrate_circuit(params, cfg, initial_state="stationary")
        assert batch.meta["cells_stepped"] == 2
        assert np.all(batch.values[:, [2, 3]] == 0.0)
        want = stationary_voltage_covariance(params)[:2, :2]
        got = np.cov(batch.values[:, :2], rowvar=False)
        assert rel_frobenius(got, want) < 0.1

    # SHA-256 of the samples of boards on which every cell moves, as written
    # before the moving-cell reduction (numpy 2.4, OpenBLAS, x86-64).  The
    # lfsr-chain digest is that of the blocked RC filter, which moved these
    # samples by at most 8.9e-16 (values up to 2.5) from the sequential one.
    # The ideal and calibrate digests are those of the blocked record scan,
    # which moved each sample by at most 1.5e-13 of itself (1.3e-16 of the
    # largest) from the per-record loop.
    TARGET = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])
    DIGESTS = {
        "ideal": "81639e207bf39fc00dbf421769541cec146e9232c9e15334a5d2ffd25bd465d1",
        "lfsr-chain": "4204edc963f22788d37f2d6556683f5ed7ec5aedcd2532158615fc0824026628",
        "calibrate": "9e8c3099d42ecc014b2ea9c8e76ae44a512c91594333315d8498e1a4505755d7",
    }

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_fully_moving_runs_are_unchanged(self, case):
        if case == "ideal":
            batch = sample_gaussian(self.TARGET, SamplingPlan(n_samples=600, chains=3), seed=5)
        elif case == "lfsr-chain":
            batch = sample_gaussian(self.TARGET, SamplingPlan(n_samples=60, chains=2), seed=6,
                                    noise="lfsr-chain")
        else:  # the all-driven board of the calibrate verb
            batch = SpuEmulator(n_cells=4, coupling_resistance=400.0).sample(
                n_samples=600, seed=7, chains=3)
        assert batch.meta["cells_stepped"] == batch.dimension
        digest = hashlib.sha256(np.ascontiguousarray(batch.values).tobytes()).hexdigest()
        assert digest == self.DIGESTS[case]

    def test_cells_stepped_counts(self, monkeypatch):
        import spusim.calibration as calibration
        from spusim.calibration import characterize_cell, two_cell_fault_scan
        scanned = {}
        batches = calibration.integrate_circuits

        def scan_spy(runs):
            for i, batch in batches(runs):
                scanned[i] = batch.meta["cells_stepped"]
                yield i, batch

        monkeypatch.setattr(calibration, "integrate_circuits", scan_spy)
        characterize_cell(SpuEmulator(n_cells=4), 2, n_samples=20_000, chains=4)
        assert scanned == {0: 1}
        scanned.clear()
        two_cell_fault_scan(SpuEmulator(n_cells=3), n_samples=16_384)
        # per drive: the self-drive, then couplings +1, -1 and 0 to each later probe
        assert [scanned[i] for i in range(len(scanned))] == [1, 2, 2, 1, 2, 2, 1, 1, 2, 2, 1, 1]
        batch = sample_gaussian(self.TARGET, SamplingPlan(n_samples=300, chains=3), seed=1)
        assert batch.meta["cells_stepped"] == 3


class TestReadoutDigests:
    """SHA-256 of the samples of each readout and of a dense board, as written
    by the blocked record scan (numpy 2.4, OpenBLAS, x86-64), which moved each
    sample by at most 1.4e-13 of itself (2.6e-16 of the largest) from the
    per-record loop that kept both halves of every state."""

    TARGET = TestMovingCells.TARGET
    DIGESTS = {
        "charge": "1e547cc4c474ec7a9845b8ffbe5ac74ab6123da971e998782dc1f5eab6ce0282",
        "current": "252f18417817f03acedffa2a970708357d0487c9f9070ff2c06908bf711f72f4",
        "dense": "bf00dca99969b0aa09894a9b13510491ce593ffbda62968ff00174ad0efb6fe0",
    }

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_samples_are_unchanged(self, case):
        if case == "charge":  # a covariance target reads the charge
            batch = sample_gaussian(TargetSpec(self.TARGET, "covariance"),
                                    SamplingPlan(n_samples=600, chains=3), seed=5)
            assert batch.meta["record"] == "charge"
        elif case == "current":
            batch = integrate_circuit(compile_precision(self.TARGET).ideal_params,
                                      TrajectoryConfig(n_samples=600, chains=3, seed=11),
                                      record="current")
        else:  # coupled cells with inductance scatter: one dense block
            rng = np.random.default_rng(55)
            cells = [UnitCell(1e-6 * (1.0 + 0.1 * rng.standard_normal()), 50.0, 1e-13,
                              bank_config=2) for _ in range(5)]
            params = CircuitParams.build(cells, CouplingConfig.all_positive(5))
            assert _LinearSystem.from_circuit(params, 1e-9).basis is None
            batch = integrate_circuit(params, TrajectoryConfig(n_samples=600, chains=3,
                                                               seed=12))
            assert batch.meta["cells_stepped"] == 5
        digest = hashlib.sha256(np.ascontiguousarray(batch.values).tobytes()).hexdigest()
        assert digest == self.DIGESTS[case]


class TestBatchedRuns:
    """``integrate_circuits`` stacks compatible runs, at most one board's cells
    a stack; each batch must equal its solo run's stepped cells."""

    BOARD = SpuEmulator(n_cells=4, tolerance_sigma=0.05, tolerance_seed=3)
    TARGET = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])

    def pair(self, i, j, state):
        states = np.zeros((4, 4), dtype=np.int8)
        states[i, j] = states[j, i] = state
        return states

    def runs(self):
        board = self.BOARD
        cell = np.eye(4)
        start = np.zeros(8)
        start[3], start[7] = 2e-9, -1e-10  # cell 3 displaced: it moves with cell 0
        compiled = compile_precision(self.TARGET).ideal_params
        return [
            board.sample_run(3, "none", 4000, seed=1, chains=8, noise_mask=cell[0]),
            board.sample_run(3, self.pair(0, 1, 1), 4000, seed=2, chains=8,
                             noise_mask=cell[0]),
            board.sample_run(2, "none", 4000, 6e6, seed=3, chains=8, noise_mask=cell[2]),
            (*board.sample_run(3, "none", 4000, seed=4, chains=8, noise_mask=cell[0]),
             start),  # two uncoupled cells: a stack of two modes
            board.sample_run(3, self.pair(2, 3, -1), 4000, seed=5, chains=8,
                             noise_mask=cell[3]),
            board.sample_run(3, "none", 500, seed=6, chains=1, noise_mask=cell[1]),
            board.sample_run(1, "none", 500, seed=7, chains=1, noise_mask=cell[3]),
            (compiled, TrajectoryConfig(n_samples=4000, chains=8, seed=8)),
            (compiled, TrajectoryConfig(n_samples=4000, chains=8, seed=9, burn_in=0.0)),
            (compiled, TrajectoryConfig(n_samples=4000, chains=8, seed=10), None,
             "lfsr-chain"),
            (board.true_params(3, "none", cell[1]),
             TrajectoryConfig(n_samples=4000, chains=8, dt=1e-9, record_stride=20,
                              zero_noise=True), start),
        ]

    def spy_stacks(self, monkeypatch):
        sizes = []
        run_stack = langevin._run_stack

        def spy(runs):
            sizes.append(len(runs))
            return run_stack(runs)

        monkeypatch.setattr(langevin, "_run_stack", spy)
        return sizes

    def assert_solo_equal(self, runs, batched):
        """Each batch holds exactly its solo run's stepped cells, bit for bit,
        and the solo run's other cells read exactly 0.0."""
        assert sorted(batched) == list(range(len(runs)))
        for i, run in enumerate(runs):
            params, cfg, start, noise = run + (None, "ideal")[len(run) - 2:]
            solo = integrate_circuit(params, cfg, noise=noise, initial_state=start)
            meta = dict(batched[i].meta)
            cells = meta.pop("cells")
            assert cells == sorted(cells) and len(cells) == solo.meta["cells_stepped"]
            assert batched[i].values.shape == (solo.n_samples, len(cells))
            assert np.array_equal(batched[i].values, solo.values[:, cells])
            assert np.all(np.delete(solo.values, cells, axis=1) == 0.0)
            assert meta == solo.meta
            assert batched[i].chains == solo.chains
            assert batched[i].sample_rate == solo.sample_rate
            assert batched[i].start_time == solo.start_time

    def test_batched_runs_equal_solo_runs(self, monkeypatch):
        runs = self.runs()
        sizes = self.spy_stacks(monkeypatch)
        batched = dict(langevin.integrate_circuits(runs))
        # stacks: the 1-cell and 2-mode runs with a burn-in, the four cells of
        # the 4-cell board; the compiled run with a burn-in, whose 3-cell board
        # has no room beside them; the two pairs; the two one-chain cells.  The
        # other three runs step alone
        assert sorted(sizes) == [1, 1, 1, 1, 2, 2, 3]
        self.assert_solo_equal(runs, batched)

    def test_runs_beyond_one_board_split_the_stack(self, monkeypatch):
        board, cell = self.BOARD, np.eye(4)
        ones = [board.sample_run(3, "none", 4000, seed=s, chains=8, noise_mask=cell[s % 4])
                for s in range(6)]
        pairs = [board.sample_run(3, self.pair(0, 1 + s, 1), 4000, seed=10 + s, chains=8,
                                  noise_mask=cell[0]) for s in range(3)]
        compiled = compile_precision(self.TARGET).ideal_params
        runs = ones + pairs + [(compiled, TrajectoryConfig(n_samples=4000, chains=8, seed=8))]
        sizes = self.spy_stacks(monkeypatch)
        batched = dict(langevin.integrate_circuits(runs))
        # 1-cell runs: four fill the board, two more start a stack that has no
        # room for the 3-cell target (whose board holds three); pairs: two, one
        assert sizes == [4, 2, 1, 2, 1]
        self.assert_solo_equal(runs, batched)

    def test_runs_of_different_block_counts_equal_solo_runs(self, monkeypatch):
        # one, two and three driven cells of an uncoupled board: stacks of 1, 2
        # and 3 modes share the blocked scan's chunk, which follows the board
        board, cell = SpuEmulator(n_cells=8, tolerance_sigma=0.05, tolerance_seed=4), np.eye(8)
        masks = [cell[0], cell[1] + cell[2], cell[3] + cell[4] + cell[5]]
        runs = [board.sample_run(3, "none", 4000, seed=20 + i, chains=8, noise_mask=mask)
                for i, mask in enumerate(masks)]
        linear = [langevin._CircuitRun(*run).linear for run in runs]
        assert [run.z.shape[0] for run in linear] == [1, 2, 3]
        assert {run.chunk for run in linear} == {32}
        sizes = self.spy_stacks(monkeypatch)
        batched = dict(langevin.integrate_circuits(runs))
        assert sizes == [3]
        self.assert_solo_equal(runs, batched)

    def test_board_scans_step_as_few_stacks(self, monkeypatch):
        from spusim.calibration import characterize_cells, two_cell_fault_scan
        sizes = self.spy_stacks(monkeypatch)
        two_cell_fault_scan(SpuEmulator(n_cells=8), n_samples=4096, chains=2)
        # 36 one-cell runs (self-drives, uncoupled pairs), eight a stack, and
        # 56 coupled pairs, four a stack: 19 stacks
        assert sorted(sizes) == [4] * 15 + [8] * 4
        sizes.clear()
        board = SpuEmulator(n_cells=8, tolerance_sigma=0.05, tolerance_seed=1)
        fits = characterize_cells(board, range(8), n_samples=20_000, chains=4)
        assert sorted(fits) == list(range(8))
        assert sizes == [8]

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_non_finite_run_in_a_stack_is_named_as_alone(self, monkeypatch):
        board = SpuEmulator(n_cells=3)  # room for the stack's three cells
        good = board.sample_run(3, "none", 800, chains=4, seed=3, noise_mask=np.eye(3)[0])
        # a step past the semi-implicit scheme's stability limit: the state grows
        bad = (good[0], dataclasses.replace(good[1], dt=2.5e-7, sample_rate=None,
                                            record_stride=3))
        with pytest.raises(NonFiniteStateError) as alone:
            integrate_circuit(*bad)
        sizes = self.spy_stacks(monkeypatch)
        with pytest.raises(NonFiniteStateError) as stacked:
            dict(langevin.integrate_circuits([good, bad, good]))
        assert sizes == [3]
        assert str(stacked.value) == str(alone.value)
        assert "(record 131)" in str(alone.value)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("record", ["current", "voltage"])
    def test_non_finite_one_half_run_is_named_as_both_halves(self, monkeypatch, record):
        board = SpuEmulator(n_cells=3)  # room for the stack's three cells
        good = board.sample_run(3, "none", 800, chains=4, seed=3, noise_mask=np.eye(3)[0])
        bad = (good[0], dataclasses.replace(good[1], dt=2.5e-7, sample_rate=None,
                                            record_stride=3))
        run = langevin._CircuitRun(*bad, record=record).linear
        assert run.half == (0 if record == "current" else 1)
        with pytest.raises(NonFiniteStateError) as both:  # records keep x and p
            _run_linear(run.sys_, run.z, np.random.default_rng(bad[1].seed), run.per_chain,
                        run.stride, run.burn_steps, False)
        sizes = self.spy_stacks(monkeypatch)
        with pytest.raises(NonFiniteStateError) as stacked:
            dict(langevin.integrate_circuits([good, bad, good], record=record))
        assert sizes == [3]
        assert str(stacked.value) == str(both.value)

    def test_flushed_plan_gives_equal_records(self):
        # over 68,000 steps the compounded transition decays into subnormals
        sys_ = _LinearSystem(**TestModalEngine().modal_kw())
        m = np.abs(sys_.compound(68_000)[0])
        assert np.any((m > 0) & (m < np.finfo(float).tiny))
        z0 = sys_.to_blocks(np.random.default_rng(59).standard_normal((3, 8)))
        run = langevin._LinearRun(sys_, z0, np.random.default_rng(60), 5, 68_000, 0, False)
        cached = np.abs(run.plans()[1][0][0])
        assert not np.any((cached > 0) & (cached < np.finfo(float).tiny))
        args = (5, 68_000, 0, False)
        got = _run_linear(sys_, z0.copy(), np.random.default_rng(60), *args)
        want = _modal_per_record_reference(sys_, z0.copy(), np.random.default_rng(60), *args)
        assert np.array_equal(got, want)
