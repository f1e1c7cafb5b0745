"""Tests for the circuit's Langevin integrator and analytic references."""

import copy
import dataclasses
import hashlib

import numpy as np
import pytest

import spusim.langevin as langevin
from spusim.circuit import CircuitParams, CouplingConfig, UnitCell
from spusim.compiler import TargetSpec, compile_covariance, compile_precision
from spusim.device import SpuEmulator
from spusim.errors import NonFiniteStateError, NotPositiveDefiniteError, SpuSimError
from spusim.langevin import (TrajectoryConfig, _factor, _LinearSystem, correlation_time,
                             integrate_circuit, stationary_state_covariance,
                             stationary_voltage_covariance, suggest_dt)
from spusim.linalg import SPACING_TAUS, SamplingPlan, sample_gaussian
from spusim.noise import ChainNoiseSource, NoiseChainConfig

NF = 1e-9
CELL7 = dict(inductance=1.77e-6, resistance=76.7, noise_psd=0.206e-12,
             capacitance=6.77 * NF)


def rel_frobenius(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def random_psd_params(d, seed, lo=0.5, hi=2.0):
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    m = q @ np.diag(rng.uniform(lo, hi, d)) @ q.T
    return CircuitParams.from_maxwell(0.5 * (m + m.T))


def spaced(params, **cfg):
    """The plan of a run of ``params`` whose records lie ``SPACING_TAUS``
    correlation times apart, as a decorrelated ``SamplingPlan`` without a
    rate spaces them."""
    return TrajectoryConfig(sample_rate=1.0 / (SPACING_TAUS * correlation_time(params)), **cfg)


def on_chain_grid(params, cfg):
    """``cfg`` at the rate nearest its own that the matched chain of the
    run's stepped cells records at: its step rate over a whole stride.  The
    step is read from the run's own preparation at the 5 tau spacing, a
    whole number of the matched chain's bits."""
    moving = langevin._moving_cells(params)
    stepped = params if moving is None else langevin._sub_circuit(params, moving)
    dt = langevin._prepared_system(stepped, spaced(stepped, n_samples=1).sample_rate,
                                   "lfsr-chain")[0]
    stride = round(1.0 / (cfg.sample_rate * dt))
    return dataclasses.replace(cfg, sample_rate=1.0 / (stride * dt))


def autocorrelation(series, max_lag):
    """Normalized autocorrelation of a 1-d series for lags 0..max_lag (FFT-based)."""
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    n = len(x)
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f))[: max_lag + 1] / n
    return acov / acov[0]


def to_blocks(sys_, z):
    """Cell-basis states (chains, 2d) in the layout the blocks act on: as
    they are for a dense system, (d, chains, 2) per mode."""
    if sys_.basis is None:
        return z  # the basis is I: no product, which could flip the sign of a zero
    d = sys_.dimension
    pair = np.stack([z[:, :d] @ sys_.basis, z[:, d:] @ sys_.basis])
    return np.ascontiguousarray(pair.transpose(2, 1, 0))


def stored(sys_, z):
    """A block-layout state as the records keep it, chains first: (chains,
    2d) dense, (chains, 2, d) per mode, so each half is a run of d values."""
    return np.moveaxis(z, (-2, -1), (0, 1))


def cells(sys_, recs, half):
    """x (``half`` 0) or p (1) of records that keep both halves, in the
    cell basis: records shaped (chains, n) + stored."""
    values = recs.reshape(recs.shape[:2] + (2, sys_.dimension))[:, :, half]
    return values if sys_.basis is None else values @ sys_.basis.T


def expand(sys_, stack):
    """A (d, 2, 2) stack of per-mode operators as the 2d x 2d matrix in the cell basis."""
    if sys_.basis is None:
        return stack
    q = sys_.basis
    return np.block([[(q * stack[:, i, j]) @ q.T for j in (0, 1)] for i in (0, 1)])


def discrete_stationary_covariance(params, dt):
    """Exact stationary (flux, charge) covariance of the discretized chain,
    which separates integrator bias from Monte Carlo error."""
    from scipy.linalg import solve_discrete_lyapunov

    sys_ = _LinearSystem.from_circuit(params, dt)
    return solve_discrete_lyapunov(expand(sys_, sys_.m_step), expand(sys_, sys_.s_step))


def _engine_run(sys_, z, source, per_chain, stride, burn_steps, half):
    """One run of the block engine keeping ``half`` of each block, from ``z``
    in the block layout (``to_blocks``): records (chains, per_chain, K, b/2)."""
    run = langevin._LinearRun(sys_, langevin._stack(z), source, per_chain, stride, burn_steps,
                              half=half, board=sys_.dimension)
    return langevin._run_stack([run])


def _run_linear(sys_, z, source, per_chain, stride, burn_steps):
    """Both halves of every record of one run of the block engine.  The
    engine keeps one half a run, so the run is stepped once per half from
    equal copies of ``source``; ``source`` itself steps the first.  Records
    are shaped (chains, per_chain) + the stored layout of one chain
    (``stored``)."""
    sources = source, copy.deepcopy(source)
    recs = np.stack([_engine_run(sys_, z, src, per_chain, stride, burn_steps, half)
                     for half, src in enumerate(sources)], axis=2)
    return recs.reshape(recs.shape[:2] + stored(sys_, z).shape[1:])


def _udl_system(a_mat, damping, beta, dt):
    """The step of an underdamped Langevin system of unit mass, potential
    x^T A x / 2, scalar damping and inverse temperature ``beta`` (inf for
    an undriven one), whose Gibbs law is N(0, (beta A)^-1) in x."""
    d = len(a_mat)
    return _LinearSystem(m_inv=np.eye(d), a_mat=np.asarray(a_mat, dtype=float),
                         gamma_vec=np.full(d, damping),
                         amps=np.full(d, np.sqrt(2.0 * damping / beta)), dt=dt)


def _udl_run(sys_, x0, p0, chains, per_chain, stride, burn_steps, seed):
    """Positions and momenta, each (chains, per_chain, d), of a seeded
    ideal-source run of ``sys_`` from (x0, p0) on every chain."""
    z0 = np.tile(np.concatenate([x0, p0]).astype(float), (chains, 1))
    recs = _run_linear(sys_, to_blocks(sys_, z0), np.random.default_rng(seed), per_chain,
                       stride, burn_steps)
    return cells(sys_, recs, 0), cells(sys_, recs, 1)


class TestCoordinates:
    def test_zero_current_zero_flux(self):
        # a run starts at rest, so an undriven board keeps zero flux (current)
        # and zero charge (voltage) in every record
        params = CircuitParams.from_maxwell(random_psd_params(3, 2).maxwell, noise_psd=0.0)
        cfg = spaced(params, n_samples=40, chains=2, seed=3)
        batch = integrate_circuit(params, cfg)
        assert batch.meta["cells_stepped"] == 3
        np.testing.assert_array_equal(batch.values, 0.0)
        run = langevin._CircuitRun(params, cfg).linear
        recs = _run_linear(run.sys_, run.z, run.source, run.per_chain, run.stride,
                           run.burn_steps)
        np.testing.assert_array_equal(recs, 0.0)

    def test_two_cell_charge_example(self):
        cells = [UnitCell(1e-6, 50.0, 0.0, capacitance=1.0 * NF) for _ in range(2)]
        params = CircuitParams.build(cells, CouplingConfig(np.array([[0, 1], [1, 0]])))
        q = params.maxwell @ np.array([1.0, 0.0])  # q = C V
        np.testing.assert_allclose(q, np.array([1.47, -0.47]) * NF, rtol=1e-12)


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
        # R kappa0 = 1 is beta = 1: flux ~ N(0, L), charge and voltage ~ N(0, I)
        params = CircuitParams.from_maxwell(np.eye(3), resistance=1.0,
                                            inductance=1.0, noise_psd=1.0)
        full = stationary_state_covariance(params)
        np.testing.assert_allclose(full, np.eye(6), atol=1e-12)
        np.testing.assert_allclose(stationary_voltage_covariance(params, method="gibbs"),
                                   np.eye(3))

    def test_table_cell_voltage_variance(self):
        params = CircuitParams.build([UnitCell(**CELL7)], CouplingConfig.none(1))
        sigma = stationary_voltage_covariance(params)
        assert sigma[0, 0] == pytest.approx(2.33e-3, rel=0.01)

    def test_lyapunov_matches_gibbs(self):
        params = random_psd_params(5, 7)
        d = params.dimension
        full = stationary_state_covariance(params)
        # Gibbs: flux ~ N(0, theta L), charge ~ N(0, theta C), theta = R kappa0 = 1/beta
        theta = params.r_vector[0] * params.kappa_vector[0]
        np.testing.assert_allclose(full[:d, :d], theta * np.diag(params.l_vector),
                                   rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(full[d:, d:], theta * params.maxwell, rtol=1e-8, atol=1e-12)
        # flux and charge are independent at equilibrium
        np.testing.assert_allclose(full[:d, d:], 0.0, atol=1e-10)
        np.testing.assert_allclose(stationary_voltage_covariance(params, method="gibbs"),
                                   stationary_voltage_covariance(params, method="lyapunov"),
                                   rtol=1e-8, atol=1e-12)

    def test_nonuniform_requires_lyapunov(self):
        cells = [UnitCell(1.0, 1.0, 1.0, capacitance=1.0),
                 UnitCell(1.0, 2.0, 1.0, capacitance=1.0)]
        params = CircuitParams.build(cells, CouplingConfig.none(2))
        with pytest.raises(ValueError):
            stationary_voltage_covariance(params, method="gibbs")
        sigma_v = stationary_voltage_covariance(params)  # lyapunov path
        np.testing.assert_allclose(np.diag(sigma_v), [1.0, 2.0], rtol=1e-8)

    def test_nonuniform_physical_units_require_lyapunov(self):
        # R * kappa0 near 5e-12 V^2/Hz: a unit-scale absolute tolerance would call it uniform
        cells = [UnitCell(1.3e-6, 50.0, k, bank_config=3) for k in (1e-13, 2e-13)]
        params = CircuitParams.build(cells, CouplingConfig.none(2))
        with pytest.raises(ValueError, match=r"Gibbs formula needs uniform R \* kappa0"):
            stationary_voltage_covariance(params, method="gibbs")
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
            integrate_circuit(bad, TrajectoryConfig(n_samples=10, sample_rate=1.0))

    def test_single_cell_stationary_variance(self):
        params = CircuitParams.build([UnitCell(**CELL7)], CouplingConfig.none(1))
        cfg = spaced(params, n_samples=100_000, seed=9, chains=50)
        batch = integrate_circuit(params, cfg)
        var = batch.values.var(ddof=1)
        assert var == pytest.approx(2.33e-3, rel=0.05)

    def test_zero_noise_decays_and_dissipates(self):
        # the undriven cell's step (mass C, damping 1/R, potential L^-1, no
        # noise), started at V = 1 with no current
        params = CircuitParams.build([UnitCell(**{**CELL7, "noise_psd": 0.0})],
                                     CouplingConfig.none(1))
        sys_ = _LinearSystem.from_circuit(params, suggest_dt(params))
        z0 = np.concatenate([np.zeros(1), params.maxwell @ np.ones(1)])[None]
        recs = _run_linear(sys_, to_blocks(sys_, z0), np.random.default_rng(0), per_chain=200,
                           stride=120, burn_steps=0)
        flux, charge = cells(sys_, recs, 0)[0], cells(sys_, recs, 1)[0]
        assert abs((charge[-1] @ params.maxwell_inverse)[0]) < 1e-4
        # the circuit energy phi^2 / 2L + q^T C^-1 q / 2 never rises
        energies = (0.5 * (flux ** 2 / params.l_vector).sum(axis=-1)
                    + 0.5 * (charge * (charge @ params.maxwell_inverse)).sum(axis=-1))
        assert np.all(np.diff(energies) <= 0.0)

    def test_two_coupled_cells_correlation_sign(self):
        for sign in (+1, -1):
            maxwell = np.array([[1.4, -0.4 * sign], [-0.4 * sign, 1.4]])
            params = CircuitParams.from_maxwell(maxwell)
            cov_ref = stationary_voltage_covariance(params)
            batch = integrate_circuit(params, spaced(params, n_samples=40_000, seed=10,
                                                     chains=20))
            cov = batch.covariance()
            assert np.sign(cov[0, 1]) == np.sign(cov_ref[0, 1])
            # positive coupling capacitance gives negative off-diagonal in C,
            # hence positive voltage correlation
            assert np.sign(cov[0, 1]) == sign

    @pytest.mark.parametrize("d,seed", [(2, 11), (4, 12), (8, 13)])
    def test_gibbs_convergence(self, d, seed):
        params = random_psd_params(d, seed)
        target = stationary_voltage_covariance(params)
        batch = integrate_circuit(params, spaced(params, n_samples=60_000, seed=seed,
                                                 chains=60))
        assert rel_frobenius(batch.covariance(), target) < 0.05

    def test_discrete_law_matches_fast_path(self, monkeypatch):
        # the compounded-stride sampler must reproduce the stepped chain's
        # stationary covariance (discrete Lyapunov), not just the continuum one
        params = random_psd_params(3, 14)
        dt = suggest_dt(params) * 8  # coarse on purpose: visible discretization bias
        monkeypatch.setattr(langevin, "suggest_dt", lambda params: dt)
        cfg = spaced(params, n_samples=150_000, seed=15, chains=100)
        batch = integrate_circuit(params, cfg)
        d = params.dimension
        # the rate fits the step to a whole stride, so the law is that of the run's own dt
        assert batch.meta["dt"] == pytest.approx(dt, rel=1e-2)
        sig = discrete_stationary_covariance(params, batch.meta["dt"])
        cinv = np.linalg.inv(params.maxwell)
        sig_v = cinv @ sig[d:, d:] @ cinv
        assert rel_frobenius(batch.covariance(), sig_v) < 0.02

    def test_determinism(self):
        params = random_psd_params(4, 16)
        cfg = spaced(params, n_samples=500, seed=77, chains=4)
        a = integrate_circuit(params, cfg)
        b = integrate_circuit(params, cfg)
        np.testing.assert_array_equal(a.values, b.values)

    def test_flux_charge_independent_at_equilibrium(self):
        # both halves of one circuit run's records: the simulated
        # flux/charge cross-covariance vanishes
        params = random_psd_params(3, 30)
        cfg = spaced(params, n_samples=60_000, seed=31, chains=60)
        run = langevin._CircuitRun(params, cfg).linear
        recs = _run_linear(run.sys_, run.z, run.source, run.per_chain, run.stride,
                           run.burn_steps)
        phi, q = (cells(run.sys_, recs, half).reshape(-1, 3) for half in (0, 1))
        cross = (phi - phi.mean(0)).T @ (q - q.mean(0)) / (len(phi) - 1)
        scale = np.sqrt(np.outer(phi.var(axis=0), q.var(axis=0)))
        assert np.max(np.abs(cross / scale)) < 0.05

    def test_explicit_and_fast_paths_share_law(self):
        # chain-noise runs inject the chain's own increments through the
        # stacked kernels; cross-check their covariance against the ideal
        # source's exact law at matched settings
        params = CircuitParams.from_maxwell(np.array([[1.0, -0.2], [-0.2, 1.3]]),
                                            resistance=1.0, inductance=1.0,
                                            noise_psd=1.0)
        from spusim.noise import NoiseChainConfig
        tau = correlation_time(params)
        chain_cfg = NoiseChainConfig(bit_rate=400.0 / tau, rc_time_constant=tau / 50.0)
        cfg = spaced(params, n_samples=40_000, seed=17, chains=40)
        fast = integrate_circuit(params, cfg)
        slow = integrate_circuit(params, cfg, noise=chain_cfg)
        assert rel_frobenius(slow.covariance(), fast.covariance()) < 0.08


class TestUdlOdl:
    """The block engine steps underdamped Langevin (UDL) systems: a circuit
    is one with mass C, damping 1/R and potential L^-1.  These hold the
    engine to the Gibbs law and the semi-implicit step's energy behaviour
    on systems of unit mass."""

    def test_coupled_potential_gibbs(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        sys_ = _udl_system(a, damping=1.0, beta=1.0, dt=0.02)
        xs, _ = _udl_run(sys_, np.zeros(2), np.zeros(2), chains=40, per_chain=1000,
                         stride=60, burn_steps=750, seed=20)
        cov = np.cov(xs.reshape(-1, 2).T)
        assert rel_frobenius(cov, np.linalg.inv(a)) < 0.05

    def test_udl_identity_gibbs(self):
        sys_ = _udl_system(np.eye(2), damping=5.0, beta=1.0, dt=0.01)
        xs, _ = _udl_run(sys_, np.zeros(2), np.zeros(2), chains=100, per_chain=1000,
                         stride=100, burn_steps=2000, seed=21)
        cov = np.cov(xs.reshape(-1, 2).T)
        assert rel_frobenius(cov, np.eye(2)) < 0.05

    def test_udl_1d_equipartition(self):
        beta = 2.5
        sys_ = _udl_system(np.eye(1), damping=1.0, beta=beta, dt=0.02)
        xs, _ = _udl_run(sys_, np.zeros(1), np.zeros(1), chains=80, per_chain=1000,
                         stride=60, burn_steps=1000, seed=22)
        assert xs.reshape(-1).var() == pytest.approx(1.0 / beta, rel=0.05)

    def test_energy_drift_zero_noise(self):
        # undamped, noiseless (beta = inf) harmonic oscillator: the semi-implicit
        # step keeps energy bounded; drift over one period at dt = T/1000 < 1%
        n = 1000
        sys_ = _udl_system(np.eye(1), damping=1e-12, beta=np.inf, dt=2 * np.pi / n)
        xs, ps = _udl_run(sys_, np.ones(1), np.zeros(1), chains=1, per_chain=n, stride=1,
                          burn_steps=0, seed=0)
        energy = 0.5 * ps[0, :, 0] ** 2 + 0.5 * xs[0, :, 0] ** 2
        assert abs(energy[-1] - 0.5) / 0.5 < 0.01
        assert np.max(np.abs(energy - 0.5)) / 0.5 < 0.01

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_overflow_diagnostic_names_step(self):
        # dt far past the semi-implicit step's stability limit, undamped
        sys_ = _udl_system(np.eye(1), damping=1e-9, beta=np.inf, dt=5.0)
        with pytest.raises(RuntimeError, match="step"):
            _udl_run(sys_, np.ones(1), np.zeros(1), chains=1, per_chain=2000, stride=1,
                     burn_steps=0, seed=0)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("run", ["udl", "circuit"])
    def test_non_finite_state_has_its_own_error(self, monkeypatch, run):
        with pytest.raises(NonFiniteStateError, match="non-finite state") as err:
            if run == "udl":
                sys_ = _udl_system(np.eye(1), damping=1e-3, beta=1.0, dt=5.0)
                _udl_run(sys_, np.ones(1), np.ones(1), chains=1, per_chain=2000, stride=1,
                         burn_steps=0, seed=0)
            else:  # a board stepped past the stability limit
                integrate_circuit(*_unstable_runs(monkeypatch)[1])
        assert isinstance(err.value, SpuSimError) and isinstance(err.value, RuntimeError)


class TestBurnInRule:
    def test_exponential_autocorrelation_below_one_percent_after_5tau(self):
        # in the exponential-decay regime (overdamped dynamics) the waiting
        # rule is exact: rho(5 tau) = e^-5 < 1%.  The records are an exact
        # unit-tau Ornstein-Uhlenbeck sequence, an AR(1) with a = e^-spacing,
        # started from its stationary law
        from scipy.signal import lfilter

        spacing, per_chain = 0.25, 50_000  # records every 0.25 tau, 16 chains
        a = np.exp(-spacing)
        rng = np.random.default_rng(26)
        start = rng.standard_normal((16, 1))
        xs = lfilter([np.sqrt(1.0 - a * a)], [1.0, -a],
                     rng.standard_normal((16, per_chain)), axis=1, zi=a * start)[0]
        lag_5tau = int(round(5.0 / spacing))
        rhos = [autocorrelation(chain, lag_5tau + 2)[lag_5tau] for chain in xs]
        assert abs(np.mean(rhos)) < 0.015  # e^-5 = 0.0067 plus estimator noise

    def test_covariance_equilibrated_after_5tau_from_zero_start(self):
        # equilibration is decorrelation from the initial state: starting
        # from zeros, the covariance deficit after the 5 tau_corr burn-in is
        # below 1% for the underdamped hardware cell; a rate of one record a
        # step keeps the first record right after it
        params = CircuitParams.build([UnitCell(**CELL7)], CouplingConfig.none(1))
        target = stationary_voltage_covariance(params)[0, 0]
        cfg = TrajectoryConfig(n_samples=400_000, sample_rate=1.0 / suggest_dt(params),
                               seed=26, chains=2000)
        batch = integrate_circuit(params, cfg)
        # first recorded sample of each chain sits right after burn-in
        first = batch.per_chain()[:, 0, 0]
        assert first.var(ddof=1) == pytest.approx(target, rel=0.02)


def _stepped_reference(sys_, z, source, per_chain, stride, burn_steps, sub=1):
    """Per-step oracle for the block engine: one transition per integrator
    step, ``sub`` steps a bit, each of which injects 1/``sub`` of the bit's
    increment."""
    total = burn_steps + per_chain * stride  # bits
    eta = source.increments(total) / sub
    recs = []
    for bit in range(total):
        for _ in range(sub):
            z = z @ sys_.m_step.T + eta[bit] @ sys_.n_inject.T
        if bit >= burn_steps and (bit + 1 - burn_steps) % stride == 0:
            recs.append(z)
    return np.stack(recs, axis=1)


def _per_record_reference(sys_, z, rng, per_chain, stride, burn_steps):
    """Ideal-source oracle: one exact Gaussian draw for the burn-in, then one per record."""
    def block(z, n):
        m, s = sys_.compound(n)
        return z @ m.T + rng.standard_normal(z.shape) @ _factor(s).T

    if burn_steps:
        z = block(z, burn_steps)
    recs = []
    for _ in range(per_chain):
        z = block(z, stride)
        recs.append(z)
    return np.stack(recs, axis=1)


def _modal_per_record_reference(sys_, z, rng, per_chain, stride, burn_steps):
    """``_per_record_reference`` for a stack of per-mode blocks; records as stored."""
    def block(z, n):
        m, s = sys_.compound(n)
        return z @ langevin._t(m) + rng.standard_normal(z.shape) @ langevin._t(_factor(s))

    if burn_steps:
        z = block(z, burn_steps)
    recs = []
    for _ in range(per_chain):
        z = block(z, stride)
        recs.append(stored(sys_, z))
    return np.stack(recs, axis=1)


class TestBlockEngine:
    """``_run_linear`` compounds whole blocks; it must match the references."""

    DT = 0.05

    def system(self, d=3, seed=40, gamma=1.0, amps=1.3):
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        m_inv = q @ np.diag(rng.uniform(0.5, 2.0, d)) @ q.T
        return _LinearSystem(m_inv=0.5 * (m_inv + m_inv.T),
                             a_mat=np.diag(rng.uniform(0.5, 2.0, d)),
                             gamma_vec=np.full(d, gamma), amps=np.full(d, amps),
                             dt=self.DT)

    def modal_kw(self, d, seed=46):
        """A system that splits into modes: scalar potential, damping and noise."""
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        m_inv = q @ np.diag(rng.uniform(0.5, 2.0, d)) @ q.T
        return dict(m_inv=0.5 * (m_inv + m_inv.T), a_mat=np.eye(d) * 1.7,
                    gamma_vec=np.full(d, 1.0), amps=np.full(d, 1.3), dt=self.DT)

    def source(self, chains, d=3, sub=1, kappa0=0.7, rc_bits=8.0, **chain_kw):
        """A chain of ``sub`` steps of DT a bit."""
        from spusim.noise import ChainNoiseSource, NoiseChainConfig
        bit_period = sub * self.DT
        chain = NoiseChainConfig(bit_rate=1.0 / bit_period,
                                 rc_time_constant=rc_bits * bit_period, **chain_kw)
        return ChainNoiseSource(chain, seed=41, dimension=d, kappa0=kappa0, chains=chains)

    @staticmethod
    def held(sys_, sub):
        """``sys_`` as the engine steps it on a chain of ``sub`` of its steps a bit."""
        if sub > 1:
            sys_ = copy.deepcopy(sys_)
            sys_.hold(sub)
        return sys_

    def compare(self, sys_, chains, per_chain, stride, burn_steps, reference=None, sub=1,
                **src_kw):
        """``_run_linear`` on ``sys_`` against the stepped chain on ``reference``
        (``sys_`` itself by default, which is then dense), in the cell basis.
        The chain's bit spans ``sub`` steps of ``sys_``: the engine steps
        ``sys_`` held over them (``held``), the reference each of them."""
        z0 = np.random.default_rng(42).standard_normal((chains, 2 * sys_.dimension))
        args = (per_chain, stride, burn_steps)
        engine = self.held(sys_, sub)
        got = _run_linear(engine, to_blocks(engine, z0.copy()),
                          self.source(chains, sub=sub, **src_kw), *args)
        got = np.concatenate([cells(engine, got, 0), cells(engine, got, 1)], axis=-1)
        want = _stepped_reference(sys_ if reference is None else reference, z0.copy(),
                                  self.source(chains, sub=sub, **src_kw), *args, sub=sub)
        assert got.shape == want.shape == (chains, per_chain, 2 * sys_.dimension)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("d,chains,per_chain,stride,burn_steps,src_kw", [
        (3, 3, 5, 150, 100, {}),  # several blocks a span: the filter state crosses them
        (3, 2, 3, 2000, 2000, {"rc_bits": 0.5}),  # pole 1/3: its width-th power underflows
        (8, 8, 3, 2000, 2000, {}),  # stride = width = 2000, as a d = 8 sampling run
        (3, 2, 6, 90, 40, {"duty_cycle": 0.3}),  # gated-off bits enter the kernels raw
        (3, 2, 6, 90, 40, {"duty_cycle": 0.3, "saturation": 1.2}),  # filtered, identity fold
        (3, 2, 7, 37, 50, {"sub": 3}),  # raw bits, each held over three steps of the system
    ], ids=["blocks", "underflow", "d8", "duty", "saturated", "substeps"])
    def test_modal_layout_folds_the_filter(self, monkeypatch, d, chains, per_chain, stride,
                                           burn_steps, src_kw):
        # every chain goes through the one injection loop; the stepped dense
        # twin, driven by the filtered increments, is the reference
        if stride < 1000:
            monkeypatch.setattr(langevin, "_MAX_BLOCK_STEPS", 64)
        kw = self.modal_kw(d)
        sys_ = _LinearSystem(**kw)
        assert sys_.basis is not None
        self.compare(sys_, chains, per_chain, stride, burn_steps,
                     reference=_dense_twin(monkeypatch, **kw), d=d, **src_kw)

    @pytest.mark.parametrize("src_kw,filtered", [({}, False), ({"duty_cycle": 0.3}, False),
                                                 ({"saturation": 1.2}, True),
                                                 ({"sub": 3}, False)],
                             ids=["linear", "duty", "saturated", "substeps"])
    def test_linear_chain_hands_its_raw_bits_to_the_engine(self, monkeypatch, src_kw,
                                                           filtered):
        # a linear chain, a bit held over several steps too, is never
        # filtered by the source
        import spusim.noise as noise
        x, prefilter = self.source(2, **src_kw).drive(10)
        assert x.shape == (10, 2, 3)
        assert prefilter == ((0.0, 1.0) if filtered
                             else pytest.approx((8.0 / 9.0, 1.0 / 9.0), rel=1e-15))
        calls, one_pole = [], noise._one_pole
        monkeypatch.setattr(noise, "_one_pole",
                            lambda *a, **k: calls.append(1) or one_pole(*a, **k))
        _run_linear(self.held(self.system(), src_kw.get("sub", 1)), np.zeros((2, 6)),
                    self.source(2, **src_kw), per_chain=3, stride=40, burn_steps=20)
        assert bool(calls) == filtered

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
        # an undriven chain (kappa0 = 0) injects zeros: the decay from a random start
        self.compare(self.system(), chains=2, per_chain=8, stride=25, burn_steps=30,
                     kappa0=0.0)

    def test_many_chains(self):
        self.compare(self.system(d=2), chains=9, per_chain=4, stride=200, burn_steps=150, d=2)

    @pytest.mark.parametrize("burn_steps,undriven", [
        (0, False),  # no burn-in draw at all
        (250, False),  # burn-in longer than the stride
        (40, True),  # no noise (amplitude 0): the decay from a random start
    ])
    def test_ideal_source_matches_per_record_draws(self, burn_steps, undriven):
        sys_ = self.system(amps=0.0 if undriven else 1.3)
        z0 = np.random.default_rng(42).standard_normal((3, 6))
        args = (9, 70, burn_steps)
        got = _run_linear(sys_, z0.copy(), np.random.default_rng(43), *args)
        want = _per_record_reference(sys_, z0.copy(), np.random.default_rng(43), *args)
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
        _engine_run(self.system(), np.zeros((2, 6)), source, per_chain=5, stride=120,
                    burn_steps=120, half=1)
        assert calls == [120]

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_non_finite_state_names_the_record(self):
        sys_ = self.system(gamma=-100.0)  # anti-damped: grows ~6x per step
        with pytest.raises(RuntimeError, match=r"non-finite state at step \d+ \(record \d+\)"):
            _run_linear(sys_, np.ones((2, 6)), self.source(2), per_chain=20, stride=100,
                        burn_steps=0)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_ideal_source_non_finite_state_names_the_record(self):
        sys_ = self.system(gamma=-100.0)
        with pytest.raises(RuntimeError, match=r"non-finite state at step \d+ \(record \d+\)"):
            _run_linear(sys_, np.ones((2, 6)), np.random.default_rng(45), per_chain=60,
                        stride=10, burn_steps=0)

    def test_max_steps_guard(self, monkeypatch):
        # one chain of 200,000 records 5 tau apart, at 400 bits a tau
        params = random_psd_params(2, 43)
        stacks = []
        monkeypatch.setattr(langevin, "_run_stack", stacks.append)
        cfg = spaced(params, n_samples=200_000, seed=44, chains=1)
        with pytest.raises(ValueError, match=r"of 200,000 records a chain needs 400,\d{3},\d{3} "
                                             r"integrator steps a chain, over the limit of "
                                             r"100,000,000; more chains make each chain shorter"):
            dict(langevin.integrate_circuits([(params, cfg, "lfsr-chain")]))
        assert stacks == []  # refused before any step


class TestChainOrbit:
    """Each lane of the chain repeats its 16-bit m-sequence every 65,535 bits,
    so after the burn-in a chain stepped once a bit follows a periodic orbit."""

    @pytest.mark.parametrize("stride,periodic", [(65_535, True), (65_536, False)])
    def test_records_one_period_apart_are_equal(self, stride, periodic):
        from spusim.noise import LFSR_PERIOD, NoiseChainConfig
        params = CircuitParams.from_maxwell(np.eye(1), resistance=1.0, inductance=1.0,
                                            noise_psd=1.0)
        chain = NoiseChainConfig.matched(correlation_time(params))
        # a stride above the largest injection block: each record takes several
        assert stride >= LFSR_PERIOD > langevin._MAX_BLOCK_STEPS
        # the chain steps once a bit, so this rate is a stride of ``stride`` steps
        cfg = TrajectoryConfig(sample_rate=chain.bit_rate / stride, n_samples=4, seed=3)
        batch = integrate_circuit(params, cfg, noise=chain)
        assert (batch.meta["dt"], batch.meta["record_stride"]) == (1.0 / chain.bit_rate, stride)
        values = batch.values[:, 0]
        spread = np.max(np.abs(values - values[0])) / np.max(np.abs(values))
        assert (spread <= 1e-12) == periodic


class TestChainLaw:
    """The chain's stationary law, predicted exactly.  The circuit step is
    augmented with each lane's one-pole RC state and driven by i.i.d. +-1
    bits, and the discrete Lyapunov equation of that augmented step gives
    the cell variance the chain holds.  It runs below the target R kappa0/C
    by an amount set by tau_RC / tau: colored noise drives the resonator
    (Gardiner, "Handbook of Stochastic Methods").  The oracle reports the
    deficit; it does not correct the law."""

    @staticmethod
    def predicted_ratio(params, chain, dt):
        # one cell, R = L = C = kappa0 = 1: state [flux, charge, e], where
        # e_(j-1) is the filter state a step's input u_j joins
        from scipy.linalg import solve_discrete_lyapunov
        m = np.array([[1.0 - dt * dt, dt * (1.0 - dt)], [-dt, 1.0 - dt]])
        n = np.array([dt, 1.0])
        bit_period = 1.0 / chain.bit_rate
        alpha = bit_period / (bit_period + chain.rc_time_constant)
        pole = 1.0 - alpha
        step = np.zeros((3, 3))
        step[:2, :2], step[:2, 2], step[2, 2] = m, pole * n, pole
        kick = np.append(alpha * n, alpha) * np.sqrt(2.0 * chain.bit_rate) * dt
        sigma = solve_discrete_lyapunov(step, np.outer(kick, kick))
        return sigma[1, 1] / stationary_voltage_covariance(params)[0, 0]

    @pytest.mark.parametrize("rc_bits,predicted", [(8.0, 0.9800), (0.5, 0.9994)])
    def test_cell_variance_matches_the_augmented_lyapunov_law(self, rc_bits, predicted):
        params = CircuitParams.from_maxwell(np.eye(1), resistance=1.0, inductance=1.0,
                                            noise_psd=1.0)
        chain = NoiseChainConfig.matched(correlation_time(params), rc_bits=rc_bits)
        cfg = spaced(params, n_samples=64_000, chains=64, seed=3001)
        batch = integrate_circuit(params, cfg, noise=chain)
        assert batch.meta["dt"] == pytest.approx(1.0 / chain.bit_rate, rel=1e-12)
        ratio = self.predicted_ratio(params, chain, batch.meta["dt"])
        assert ratio == pytest.approx(predicted, abs=1e-4)
        target = stationary_voltage_covariance(params)[0, 0]
        per_chain = batch.per_chain()[:, :, 0].var(axis=1) / target
        spread = per_chain.std(ddof=1) / np.sqrt(len(per_chain))
        assert abs(per_chain.mean() - ratio) <= 4.0 * spread
        if rc_bits == 8.0:  # the deficit is real: far outside the spread of 1
            assert 1.0 - per_chain.mean() > 8.0 * spread


class TestSubsteppedChain:
    """A chain whose bit takes several EM substeps steps once a bit, through
    the program path: the substeps are compounded into the bit's step."""

    TARGET = np.diag([0.3, 2.0])  # tau / 400 is 10/3 of suggest_dt: three substeps a bit

    def test_sample_run_steps_raw_bits_once_a_bit(self, monkeypatch):
        import spusim.noise as noise
        held, bits, filtered = [], [], []
        hold, drive, one_pole = _LinearSystem.hold, ChainNoiseSource.drive, noise._one_pole
        monkeypatch.setattr(_LinearSystem, "hold",
                            lambda sys_, n: held.append(n) or hold(sys_, n))
        monkeypatch.setattr(ChainNoiseSource, "drive",
                            lambda src, n: bits.append(n) or drive(src, n))
        monkeypatch.setattr(noise, "_one_pole",
                            lambda *a, **k: filtered.append(1) or one_pole(*a, **k))
        # an RC corner of half a bit: at the default 8 bits the fast cell,
        # 60 bits a correlation time, runs 12% cold by the chain's
        # colored-noise law (``TestChainLaw``), far outside the band
        params = compile_precision(self.TARGET).ideal_params
        chain = NoiseChainConfig.matched(correlation_time(params), rc_bits=0.5)
        batch = sample_gaussian(self.TARGET, SamplingPlan(n_samples=16_000, chains=16),
                                seed=7, noise=chain)
        assert held == [3]
        assert filtered == []  # the chain hands over its raw bits
        meta = batch.meta
        burn, stride = round(meta["burn_in"] / meta["dt"]), meta["record_stride"]
        assert (burn, stride) == (2000, 2000)  # 5 tau at 400 bits a tau
        assert sum(bits) == burn + batch.samples_per_chain * stride  # bits a chain
        sigma = np.linalg.inv(self.TARGET)
        fro2 = np.sum(sigma * sigma)
        wishart = np.sqrt((np.trace(sigma) ** 2 + fro2) / (batch.n_samples - 1) / fro2)
        error = rel_frobenius(np.cov(batch.values, rowvar=False), sigma)
        assert 0.5 <= error / wishart <= 2.0

    def test_rate_above_the_bit_rate_refused(self):
        # three substeps a bit no longer make a record grid three times finer
        params = compile_precision(self.TARGET).ideal_params
        bit_rate = NoiseChainConfig.matched(correlation_time(params)).bit_rate
        cfg = TrajectoryConfig(n_samples=8, sample_rate=3.0 * bit_rate)
        with pytest.raises(ValueError, match="above the chain's bit rate .* at most once a bit"):
            integrate_circuit(params, cfg, noise="lfsr-chain")
        assert integrate_circuit(params, dataclasses.replace(cfg, sample_rate=bit_rate),
                                 noise="lfsr-chain").meta["record_stride"] == 1


def _dense_twin(monkeypatch, **system_kw):
    """The same step with the modal split refused, i.e. one dense 2d x 2d block."""
    with monkeypatch.context() as m:
        m.setattr(langevin, "_normal_modes", lambda *args: None)
        return _LinearSystem(**system_kw)


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

    def modal_kw(self, d=4, seed=50, gamma=0.8):
        # scalar potential, damping and noise with a general mass inverse:
        # every operator is a polynomial in m_inv, as for a compiled target
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        m_inv = q @ np.diag(rng.uniform(0.5, 2.0, d)) @ q.T
        return dict(m_inv=0.5 * (m_inv + m_inv.T), a_mat=np.eye(d) * 1.7,
                    gamma_vec=np.full(d, gamma), amps=np.full(d, 1.3), dt=self.DT)

    def chain(self, chains, d, kappa0=0.7):
        from spusim.noise import ChainNoiseSource, NoiseChainConfig
        cfg = NoiseChainConfig(bit_rate=1.0 / self.DT, rc_time_constant=8.0 * self.DT)
        return ChainNoiseSource(cfg, seed=51, dimension=d, kappa0=kappa0, chains=chains)

    @pytest.mark.parametrize("n", [1, 2, 777, 4000])
    def test_compound_rotated_back_matches_dense(self, monkeypatch, n):
        kw = self.modal_kw(d=16)
        modal = _LinearSystem(**kw)
        dense = _dense_twin(monkeypatch, **kw)
        assert modal.basis is not None and dense.basis is None
        m_m, s_m = modal.compound(n)
        m_d, s_d = dense.compound(n)
        assert m_m.shape == (16, 2, 2) and m_d.shape == (32, 32)
        _assert_close(expand(modal, m_m), m_d)
        _assert_close(expand(modal, s_m), s_d)

    @pytest.mark.parametrize("stride,burn_steps,undriven", [
        (70, 20, False),
        (150, 100, False),  # stride above the block width set below
        (1, 0, False),
        (45, 30, True),  # an undriven chain (kappa0 = 0): the decay from a random start
    ])
    def test_chain_records_match_dense_layout(self, monkeypatch, stride, burn_steps,
                                              undriven):
        monkeypatch.setattr(langevin, "_MAX_BLOCK_STEPS", 64)
        kw = self.modal_kw()
        modal = _LinearSystem(**kw)
        dense = _dense_twin(monkeypatch, **kw)
        z0 = np.random.default_rng(52).standard_normal((3, 8))
        args = (6, stride, burn_steps)
        kappa0 = 0.0 if undriven else 0.7
        got = _run_linear(modal, to_blocks(modal, z0), self.chain(3, 4, kappa0), *args)
        want = _run_linear(dense, z0.copy(), self.chain(3, 4, kappa0), *args)
        assert got.shape == (3, 6, 2, 4) and want.shape == (3, 6, 8)
        for half in (0, 1):
            _assert_close(cells(modal, got, half), cells(dense, want, half))

    @pytest.mark.parametrize("burn_steps", [0, 90])
    def test_modal_ideal_source_matches_per_record_draws(self, burn_steps):
        # chunked draws read the stream as separate per-record draws would
        sys_ = _LinearSystem(**self.modal_kw())
        z0 = to_blocks(sys_, np.random.default_rng(53).standard_normal((3, 8)))
        per_chain, stride = 70, 40  # more records than one chunk, and a partial chunk

        def block(z, n, rng):
            m, s = sys_.compound(n)
            z = z @ langevin._t(m)
            return z + rng.standard_normal(z.shape) @ langevin._t(_factor(s))

        rng = np.random.default_rng(54)
        z = block(z0, burn_steps, rng) if burn_steps else z0
        want = []
        for _ in range(per_chain):
            z = block(z, stride, rng)
            want.append(stored(sys_, z))
        got = _run_linear(sys_, z0.copy(), np.random.default_rng(54), per_chain, stride,
                          burn_steps)
        _assert_close(got, np.stack(want, axis=1))

    @pytest.mark.parametrize("modal", [False, True])
    @pytest.mark.parametrize("chains", [1, 3])
    @pytest.mark.parametrize("burn_steps,undriven", [
        (0, False),
        (40, True),  # no noise (amplitude 0): the decay from a random start
        (90, False),  # a burn-in draw
    ])
    def test_chunk_boundaries_match_per_record_draws(self, monkeypatch, modal, chains,
                                                     burn_steps, undriven):
        amps = 0.0 if undriven else 1.3
        if modal:
            sys_ = _LinearSystem(**{**self.modal_kw(), "amps": np.full(4, amps)})
            reference = _modal_per_record_reference
        else:
            sys_ = TestBlockEngine().system(amps=amps)
            reference = _per_record_reference
        assert (sys_.basis is not None) == modal
        z0 = to_blocks(
            sys_, np.random.default_rng(57).standard_normal((chains, 2 * sys_.dimension)))
        monkeypatch.setattr(langevin, "_CHUNK_BYTES", 4 * z0.nbytes)  # 4 records a chunk
        rng = _CountingGenerator(58)
        args = (11, 40, burn_steps)
        got = _run_linear(sys_, z0.copy(), rng, *args)
        _assert_close(got, reference(sys_, z0.copy(), np.random.default_rng(58), *args))
        # 11 records in chunks of 4, 4 and a partial 3, after the burn-in's draw
        assert rng.counts == [1] * (burn_steps > 0) + [4, 4, 3]

    @pytest.mark.parametrize("modal", [False, True])
    @pytest.mark.parametrize("chains", [1, 3])
    @pytest.mark.parametrize("burn_steps", [0, 90])
    def test_single_record_chunks_match_per_record_draws(self, monkeypatch, modal, chains,
                                                         burn_steps):
        # T = 1, as a stack whose state fills a chunk steps: G is the single step [M^T; W]
        if modal:
            sys_ = _LinearSystem(**self.modal_kw())
            reference = _modal_per_record_reference
        else:
            sys_ = TestBlockEngine().system()
            reference = _per_record_reference
        z0 = to_blocks(
            sys_, np.random.default_rng(60).standard_normal((chains, 2 * sys_.dimension)))
        monkeypatch.setattr(langevin, "_CHUNK_BYTES", z0.nbytes)
        rng = _CountingGenerator(61)
        args = (7, 40, burn_steps)
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
        coupled = CircuitParams.build(cells, CouplingConfig(1 - np.eye(5, dtype=np.int8)))
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
        # an undriven (noise amplitude 0), anti-damped step
        if modal:
            sys_ = _LinearSystem(**{**self.modal_kw(d=3, gamma=-20.0), "amps": np.zeros(3)})
        else:
            sys_ = TestBlockEngine().system(gamma=-20.0, amps=0.0)
        assert (sys_.basis is not None) == modal
        z = z0 = to_blocks(sys_, np.ones((2, 6)))
        m, _ = sys_.compound(stride)
        first_bad = 0
        while np.all(np.isfinite(z)):  # the noiseless chain, record by record
            z = z @ langevin._t(m)
            first_bad += 1
        first_bad -= 1
        monkeypatch.setattr(langevin, "_CHUNK_BYTES", 32 * z0.nbytes)  # at most 32 a chunk
        rng, per_chain = np.random.default_rng(56), first_bad + 40
        chunk = langevin._LinearRun(sys_, langevin._stack(z0), rng, per_chain, stride, 0,
                                    half=1, board=sys_.dimension).chunk
        assert chunk > 1 and first_bad % chunk != 0  # inside a chunk
        with pytest.raises(RuntimeError) as err:
            _run_linear(sys_, z0, rng, per_chain, stride, 0)
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
        z0 = to_blocks(sys_, np.full((2, 6), 1e-300))
        per_chain, stride = 60, 26
        run = langevin._LinearRun(sys_, langevin._stack(z0), np.random.default_rng(62),
                                  per_chain, stride, 0, half=1, board=sys_.dimension)
        m_n, w = run.plans()[1]
        g = langevin._scan(langevin._t(m_n), w, run.chunk)
        assert not np.isfinite(g).all()
        want = reference(sys_, z0.copy(), np.random.default_rng(62), per_chain, stride, 0)
        bad = ~np.isfinite(want.reshape(2, per_chain, -1)).all(axis=(0, 2))
        first_bad = int(np.argmax(bad))
        assert bad.any() and first_bad % run.chunk != 0  # inside a chunk
        with pytest.raises(NonFiniteStateError) as err:
            _run_linear(sys_, z0.copy(), np.random.default_rng(62), per_chain, stride, 0)
        step = (first_bad + 1) * stride
        assert str(err.value) == f"non-finite state at step {step} (record {first_bad})"


def _unstable_runs(monkeypatch):
    """Two runs of cell 0 of a 3-cell board, which has room for a stack of
    three: ``good`` at 12 MHz, and ``bad`` on a step past the semi-implicit
    scheme's stability limit, 2.5e-7 s with a stride of 3, whose state grows.
    The step is forced by patching ``suggest_dt``, which leaves ``good``
    stable: its rate fits the step down to 1/12 MHz."""
    monkeypatch.setattr(langevin, "suggest_dt", lambda params: 2.5e-7)
    good = SpuEmulator(n_cells=3).sample_run(3, "none", 800, chains=4, seed=3,
                                             noise_mask=np.eye(3)[0])
    return good, (good[0], dataclasses.replace(good[1], sample_rate=1.0 / (3 * 2.5e-7)))


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


class _PaddedChain:
    """The chain noise of a board's first ``cells`` cells alone, zero on the
    rest: the board then takes the increments its stepped cells take."""

    cells = 2

    def __init__(self, config, seed, dimension, kappa0, chains):
        self.source = ChainNoiseSource(config, seed, self.cells, kappa0[:self.cells], chains)
        self.shape = (chains, dimension)
        self.step_gain = np.zeros(dimension)
        self.step_gain[:self.cells] = self.source.step_gain

    def drive(self, n_steps):
        x, prefilter = self.source.drive(n_steps)
        padded = np.zeros((n_steps,) + self.shape)
        padded[..., :self.cells] = x
        return padded, prefilter


class TestMovingCells:
    """Only driven and coupled cells are stepped; the rest read exact zeros."""

    @pytest.mark.parametrize("record", ["voltage", "charge"])
    def test_zero_noise_matches_full_board(self, monkeypatch, record):
        # cell 0 is driven and drags its partner 1; cells 2 and 3 are neither
        # and get no noise, so they stay at rest.  The whole board, driven by
        # the same chain increments on cells 0 and 1, is the reference
        params = _board([1e-13, 0.0, 0.0, 0.0], pairs=[(0, 1)])
        chain = NoiseChainConfig.matched(correlation_time(params))
        cfg = TrajectoryConfig(sample_rate=chain.bit_rate / 50, n_samples=80, chains=2, seed=4)
        got = integrate_circuit(params, cfg, noise=chain, record=record)
        monkeypatch.setattr(langevin, "ChainNoiseSource", _PaddedChain)
        want = _full_board(monkeypatch, params, cfg, noise=chain, record=record)
        assert got.meta["cells_stepped"] == 2 and want.meta["cells_stepped"] == 4
        assert np.all(got.values[:, [2, 3]] == 0.0)
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

    # SHA-256 of the samples of boards on which every cell moves, as written
    # before the moving-cell reduction (numpy 2.4, OpenBLAS, x86-64).  The
    # digests are those of the blocked record scan, which moved each sample
    # from the per-record loop by at most 1.5e-13 of itself (1.3e-16 of the
    # largest) on the ideal source, and by at most 5.6e-14 of itself (8.8e-16
    # of the largest) on the lfsr chain.  The lfsr-chain digest is that of
    # the chain's RC filter and gain folded into the injection kernels,
    # which moved each sample by at most 8.3e-14 of itself (2.0e-15 of the
    # largest).  Both compiled-target digests are those of the one-product
    # modal readout, Q (lam h), which moved each sample from the two products
    # by Q^T and C^-T by at most 9.4e-16 of the largest (3.2e-13 of itself)
    # on the ideal source and 9.7e-16 (1.1e-14) on the lfsr chain.
    TARGET = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])
    DIGESTS = {
        "ideal": "293da8dfdd8116fd2f8789fc032a934b0a24dff71ad75b82640b579fdbc0ddaf",
        "lfsr-chain": "b356828ccdd661a585a43d6cdb313e54db59317413ad4a2f17da11d3f2c8b599",
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
        from spusim.calibration import characterize_cells, two_cell_fault_scan
        scanned = {}
        batches = calibration.integrate_circuits

        def scan_spy(runs):
            for i, batch in batches(runs):
                scanned[i] = batch.meta["cells_stepped"]
                yield i, batch

        monkeypatch.setattr(calibration, "integrate_circuits", scan_spy)
        characterize_cells(SpuEmulator(n_cells=4), [2], n_samples=20_000, chains=4)
        assert scanned == {0: 1}
        scanned.clear()
        two_cell_fault_scan(SpuEmulator(n_cells=3), n_samples=16_384)
        # per drive: the self-drive, then couplings +1 and -1 to each later
        # probe; an uncoupled probe cannot leave rest, so its run is not stepped
        assert [scanned[i] for i in range(len(scanned))] == [1, 2, 2, 2, 2, 1, 2, 2, 1]
        batch = sample_gaussian(self.TARGET, SamplingPlan(n_samples=300, chains=3), seed=1)
        assert batch.meta["cells_stepped"] == 3


class TestReadoutDigests:
    """SHA-256 of the samples of each readout and of a dense board, as written
    by the blocked record scan (numpy 2.4, OpenBLAS, x86-64), which moved each
    sample by at most 1.4e-13 of itself (2.6e-16 of the largest) from the
    per-record loop that kept both halves of every state.  The dense board
    records 5 correlation times apart by its rate (``spaced``), a stride of
    2722 steps of 6.10764e-10 s; the digest of that plan is the one the
    earlier two-product readout wrote too."""

    TARGET = TestMovingCells.TARGET
    DIGESTS = {
        "charge": "1e547cc4c474ec7a9845b8ffbe5ac74ab6123da971e998782dc1f5eab6ce0282",
        "dense": "e2b72c06ca72d83f034aafd63fa4cfc879aa72af18f7158c513e50c2a0533248",
    }

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_samples_are_unchanged(self, case):
        if case == "charge":  # a covariance target reads the charge
            batch = sample_gaussian(TargetSpec(self.TARGET, "covariance"),
                                    SamplingPlan(n_samples=600, chains=3), seed=5)
            assert batch.meta["record"] == "charge"
        else:  # coupled cells with inductance scatter: one dense block
            rng = np.random.default_rng(55)
            cells = [UnitCell(1e-6 * (1.0 + 0.1 * rng.standard_normal()), 50.0, 1e-13,
                              bank_config=2) for _ in range(5)]
            params = CircuitParams.build(cells, CouplingConfig(1 - np.eye(5, dtype=np.int8)))
            assert _LinearSystem.from_circuit(params, 1e-9).basis is None
            batch = integrate_circuit(params, spaced(params, n_samples=600, chains=3, seed=12))
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
        compiled = compile_precision(self.TARGET).ideal_params
        return [
            board.sample_run(3, "none", 4000, seed=1, chains=8, noise_mask=cell[0]),
            board.sample_run(3, self.pair(0, 1, 1), 4000, seed=2, chains=8,
                             noise_mask=cell[0]),
            board.sample_run(2, "none", 4000, 6e6, seed=3, chains=8, noise_mask=cell[2]),
            board.sample_run(3, "none", 4000, seed=4, chains=8,
                             noise_mask=cell[0] + cell[3]),  # two uncoupled cells: two modes
            board.sample_run(3, self.pair(2, 3, -1), 4000, seed=5, chains=8,
                             noise_mask=cell[3]),
            board.sample_run(3, "none", 500, seed=6, chains=1, noise_mask=cell[1]),
            board.sample_run(1, "none", 500, seed=7, chains=1, noise_mask=cell[3]),
            (compiled, spaced(compiled, n_samples=4000, chains=8, seed=8)),
            (compiled, spaced(compiled, n_samples=4000, chains=8, seed=10), "lfsr-chain"),
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
            params, cfg, noise = run + ("ideal",)[len(run) - 2:]
            solo = integrate_circuit(params, cfg, noise=noise)
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
        # stacks: the 1-cell and 2-mode runs, the four cells of the 4-cell
        # board; the two pairs; the two one-chain cells.  The compiled runs,
        # on the ideal source and on the chain, step alone: each fills its
        # 3-cell board
        assert sorted(sizes) == [1, 1, 2, 2, 3]
        self.assert_solo_equal(runs, batched)

    def test_chain_runs_stack_with_ideal_runs(self, monkeypatch):
        # one blocked scan for both sources: runs on the noise chain share a
        # stack with ideal-source runs of the same shape
        board, cell = self.BOARD, np.eye(4)
        runs = [board.sample_run(3, "none", 2000, seed=30 + i, chains=8, noise_mask=cell[i])
                for i in range(4)]
        # the chain runs record on its grid, at the rate nearest 12 MHz
        runs = [(params, on_chain_grid(params, cfg), "lfsr-chain") if i % 2 else (params, cfg)
                for i, (params, cfg) in enumerate(runs)]
        sizes = self.spy_stacks(monkeypatch)
        batched = dict(langevin.integrate_circuits(runs))
        assert sizes == [4]
        self.assert_solo_equal(runs, batched)

    def test_runs_beyond_one_board_split_the_stack(self, monkeypatch):
        board, cell = self.BOARD, np.eye(4)
        ones = [board.sample_run(3, "none", 4000, seed=s, chains=8, noise_mask=cell[s % 4])
                for s in range(6)]
        pairs = [board.sample_run(3, self.pair(0, 1 + s, 1), 4000, seed=10 + s, chains=8,
                                  noise_mask=cell[0]) for s in range(3)]
        compiled = compile_precision(self.TARGET).ideal_params
        runs = ones + pairs + [(compiled, spaced(compiled, n_samples=4000, chains=8, seed=8))]
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
        # 8 self-drives, one stack, and 56 coupled pairs, four a stack: 15
        # stacks; the 28 uncoupled pairs' probes cannot move and are not stepped
        assert sorted(sizes) == [4] * 14 + [8]
        sizes.clear()
        board = SpuEmulator(n_cells=8, tolerance_sigma=0.05, tolerance_seed=1)
        fits = characterize_cells(board, range(8), n_samples=20_000, chains=4)
        assert sorted(fits) == list(range(8))
        assert sizes == [8]

    def spy_systems(self, monkeypatch):
        """The stepped circuits of every ``_LinearSystem`` prepared from then on."""
        made = []
        from_circuit = _LinearSystem.from_circuit.__func__

        def spy(cls, params, dt):
            made.append(params)
            return from_circuit(cls, params, dt)

        monkeypatch.setattr(_LinearSystem, "from_circuit", classmethod(spy))
        return made

    def test_equal_stepped_circuits_share_one_system(self, monkeypatch):
        from spusim.calibration import two_cell_fault_scan
        made = self.spy_systems(monkeypatch)
        report = two_cell_fault_scan(SpuEmulator(n_cells=4, dead_couplings={(1, 2)}),
                                     n_samples=4096, chains=2)
        # 22 runs of three stepped circuits: the driven cell alone (self-drives,
        # uncoupled pairs and the dead pair's couplings), and the driven cell
        # with its probe at +1 and at -1
        assert len(report.records) == 22
        assert sorted(params.dimension for params in made) == [1, 2, 2]
        assert sorted(params.maxwell[0, 1] for params in made[1:]) == [-0.47e-9, 0.47e-9]

    def test_shared_systems_keep_every_plan_input(self, monkeypatch):
        # one stepped circuit five ways: two runs that differ in their seed
        # alone share a system; another sample rate or the chain do not, and a
        # run of another record count shares it in a stack of its own
        params, cfg = self.BOARD.sample_run(3, "none", 4000, seed=40, chains=8,
                                            noise_mask=np.eye(4)[2])
        runs = [(params, cfg), (params, dataclasses.replace(cfg, seed=41)),
                (params, dataclasses.replace(cfg, seed=42, sample_rate=6e6)),
                (params, dataclasses.replace(cfg, seed=43, n_samples=2000)),
                (params, on_chain_grid(params, dataclasses.replace(cfg, seed=44)), "lfsr-chain")]
        made = self.spy_systems(monkeypatch)
        sizes = self.spy_stacks(monkeypatch)
        batched = dict(langevin.integrate_circuits(runs))
        assert len(made) == 3
        assert sorted(sizes) == [1, 4]
        plans = {(batched[i].meta["dt"], batched[i].meta["record_stride"]) for i in range(5)}
        assert len(plans) == 3
        self.assert_solo_equal(runs, batched)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_non_finite_run_in_a_stack_is_named_as_alone(self, monkeypatch):
        good, bad = _unstable_runs(monkeypatch)
        with pytest.raises(NonFiniteStateError) as alone:
            integrate_circuit(*bad)
        sizes = self.spy_stacks(monkeypatch)
        with pytest.raises(NonFiniteStateError) as stacked:
            dict(langevin.integrate_circuits([good, bad, good]))
        assert sizes == [3]
        assert str(stacked.value) == str(alone.value)
        assert "(record 131)" in str(alone.value)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("record", ["voltage", "charge"])
    def test_non_finite_one_half_run_is_named_as_both_halves(self, monkeypatch, record):
        good, bad = _unstable_runs(monkeypatch)
        run = langevin._CircuitRun(*bad, record=record).linear
        assert run.half == 1
        with pytest.raises(NonFiniteStateError) as both:  # records keep x and p
            _run_linear(run.sys_, run.z, np.random.default_rng(bad[1].seed), run.per_chain,
                        run.stride, run.burn_steps)
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
        z0 = to_blocks(sys_, np.random.default_rng(59).standard_normal((3, 8)))
        run = langevin._LinearRun(sys_, z0, np.random.default_rng(60), 5, 68_000, 0, half=1,
                                  board=sys_.dimension)
        cached = np.abs(run.plans()[1][0])
        assert not np.any((cached > 0) & (cached < np.finfo(float).tiny))
        args = (5, 68_000, 0)
        got = _run_linear(sys_, z0.copy(), np.random.default_rng(60), *args)
        want = _modal_per_record_reference(sys_, z0.copy(), np.random.default_rng(60), *args)
        assert np.array_equal(got, want)
