"""Stochastic dynamics of the emulated device.

The circuit state is carried in flux/charge coordinates (``phi = L I``,
``q = C V``), in which the coupled-cell dynamics is an underdamped Langevin
system with mass matrix C, damping 1/R and quadratic potential
``U(phi) = phi^T L^-1 phi / 2``.  The voltage readout is an exact linear
transform of that state, ``V = C^-1 q``.

Discretization is a semi-implicit Euler-Maruyama step: the momentum (charge)
update uses the current position, the position (flux) update uses the fresh
momentum.  This is the standard stable variant for underdamped systems; its
stationary covariance converges to the continuous one linearly in dt and,
with the default step-size rule, the residual bias stays well below one
percent.

Both noise sources, ideal Gaussian and the LFSR chain (whose gating,
filtering and saturation act before injection), are exogenous to the linear
circuit, and the noise has zero mean, so the step has no constant term and
n steps compose exactly: z <- M^n z + w_n.  One block engine advances every
linear run that way, drawing w_n from the exact law of the compounded step
(binary doubling) or injecting the chain's input through stacked kernels.
The chain's RC filter is linear, time-invariant and the same on every
lane, so a linear chain stepped once a bit hands the engine its raw gated
bits, and the filter and the current gain are folded into the kernels:
the circuit step augmented with the filter state (the colored-noise view
of an OU process, Gardiner, "Handbook of Stochastic Methods"), its
kernels summed back over the filter's lags, with the filter state carried
from block to block.  A saturated chain hands its filtered values, and
the fold is the identity, M^(n-1-j) N.  A chain run steps once a bit: s
EM substeps under one held bit compound to M^s and sum_(i<s) M^i N / s
(``_LinearSystem.hold``).  This reproduces the substepped chain at the
record times exactly, to rounding.
So a record is one step of either source, and a chunk of T
records is one product per block, the chunked form of a linear-recurrence
scan (Blelloch 1990; Martin & Cundy 2018): the start state and the chunk's
noise, side by side, times a block-triangular matrix of the step's powers
with the noise factor folded in; the noise is raw standard-normal draws
with the ideal source, the injected increments with the chain (factor I).
T follows from the run's shape alone; a large stack steps with T = 1.
Buffers are reused for the whole run, so the record loop allocates no array
per record.  A circuit run reads out voltage or charge, so it keeps only
the charge half p of each state.  One generator
of finiteness-checked chunks (``_record_chunks``) makes those halves, and
two consumers read it.  A batch run copies them once a chunk into records
shaped (chains, n, K, b/2), and a whole-board run reads them out in place.
The inversion never holds its records: each chunk goes, time-major, into
the prefix covariances as it is made, and their covariance is read out
instead (``_voltage_records``), as the device accumulates its running
covariance while it samples.

The step is held as a stack of independent blocks.  With scalar R, L and
kappa0 (every compiled target) every operator of the step is a polynomial
in C^-1, and on an uncoupled board every operator is diagonal; either way
one orthogonal change of basis splits the 2d-dimensional chain into d
normal modes, each an independent 2 x 2 chain with the same law and the
same integrator bias.  The engine then steps the stack of d blocks and
rotates states in and records out once; when no basis splits the step it
steps a stack of one dense 2d x 2d block.  The split is measured on the
operators.  A circuit run starts at rest, as the device is switched on, and
steps only the cells that can move: the driven cells and those coupled to
them.  Every other cell stays exactly at rest.

Because every run is a stack of equal blocks, many small runs step as one:
``integrate_circuits`` concatenates the blocks of runs of the same shape,
on either source, into one stack, so a chunk of records of the whole stack
costs one product per block, while each run keeps its own step, stride,
burn-in and seeded stream and its records equal those of the run alone.  A
stack steps no more cells than the board its runs came from, so its
records take no more memory than one run's whole-board batch.  The runs of
one call also share the set-up of equal stepped circuits: runs whose
stepped cells have equal Maxwell, L, R and kappa0 arrays, at one sample
rate on one noise setting, share one step, stride, burn-in, step system
and its blocked-scan blocks, looked up for that call alone.  Each run's
batch holds its stepped cells only, and its ``meta["cells"]`` names them;
``integrate_circuit``, the one-run case, pads the batch back to the board.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import numpy.random  # noqa: F401  every run draws from it: load it with the package

from .circuit import CircuitParams, assert_positive_definite
from .errors import NonFiniteStateError
from .noise import ChainNoiseSource, NoiseChainConfig
from .samples import SampleBatch


def correlation_time(params: CircuitParams) -> float:
    """Correlation-time estimate R * lambda_max(C).

    Uses the largest cell resistance when they differ.  The estimate is the
    envelope scale in the moderately damped regime; strongly underdamped
    cells decorrelate on ~2 R C and strongly overdamped ones on ~L/R, so
    empirical decay times can deviate by a factor of about two.
    """
    lam_max = float(params.maxwell_eigenvalues[-1])
    return float(np.max(params.r_vector)) * lam_max


def _drift_and_noise(params: CircuitParams):
    d = params.dimension
    cinv = params.maxwell_inverse
    a_mat = np.diag(1.0 / params.l_vector)
    gamma_vec = 1.0 / params.r_vector
    f = np.block([[np.zeros((d, d)), cinv],
                  [-a_mat, -gamma_vec[:, None] * cinv]])
    gg = np.zeros((2 * d, 2 * d))
    gg[d:, d:] = np.diag(2.0 * params.kappa_vector)
    return f, gg


def stationary_state_covariance(params: CircuitParams) -> np.ndarray:
    """Exact stationary covariance of (flux, charge), via the Lyapunov equation.

    Valid for arbitrary per-cell R, L, kappa0 (including the non-uniform
    parallel-loading regime where the Gibbs formula does not apply).
    """
    from scipy.linalg import solve_continuous_lyapunov  # reference path only

    f, gg = _drift_and_noise(params)
    return solve_continuous_lyapunov(f, -gg)


def stationary_voltage_covariance(params: CircuitParams, method: str = "auto") -> np.ndarray:
    """Equilibrium voltage covariance; R kappa0 C^-1 when a temperature exists."""
    if method not in ("auto", "gibbs", "lyapunov"):
        raise ValueError(f"unknown method {method!r}")
    rk = params.r_vector * params.kappa_vector
    uniform = np.allclose(rk, rk[0], rtol=1e-9, atol=0.0) and rk[0] > 0
    if method == "gibbs" or (method == "auto" and uniform):
        if not uniform:
            raise ValueError("Gibbs formula needs uniform R * kappa0")
        return rk[0] * params.maxwell_inverse
    d = params.dimension
    sigma = stationary_state_covariance(params)
    cinv = params.maxwell_inverse
    return cinv @ sigma[d:, d:] @ cinv


BURN_IN_TAUS = 5.0  # a run burns in for this many correlation times (the 5 tau rule)
_MAX_CHAIN_STEPS = 100_000_000  # most steps (bits) of one chain of a chain-noise run


@dataclass(frozen=True)
class TrajectoryConfig:
    """Run plan for an integrator.

    ``n_samples`` is the total number of recorded states, rounded up to a
    multiple of ``chains`` (independent seeded chains, merged chain-major).
    Every run burns in for ``BURN_IN_TAUS`` correlation times from rest,
    then records ``sample_rate`` times a second (Hz); a plan that spaces
    its records by correlation times states that spacing as a rate
    (``linalg.SamplingPlan``).  The run picks its own step and stride
    (``_resolve_steps``), and the records fall at burn-in + k * stride * dt
    for k = 1..n; a chain-noise run steps once a bit.
    """

    n_samples: int
    sample_rate: float
    seed: int = 0
    chains: int = 1

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.chains < 1:
            raise ValueError("chains must be >= 1")
        rate = self.sample_rate
        if rate is None or not 0.0 < rate < math.inf:  # NaN fails both comparisons
            raise ValueError(f"sample_rate must be positive and finite, got {rate}")

    @property
    def samples_per_chain(self) -> int:
        return -(-self.n_samples // self.chains)


def suggest_dt(params: CircuitParams) -> float:
    """Step size keeping both damping and oscillation discretization errors small.

    Three constraints: 200 steps per global correlation time, 200 steps per
    fastest mode's damping time R * lambda_min(C), and a phase advance of at
    most 0.01 radians per step at the largest natural frequency.  The last
    two dominate for ill-conditioned matrices, where a flat tau_corr rule
    would leave percent-level stationary bias.
    """
    eigs = params.maxwell_eigenvalues
    r_min = float(np.min(params.r_vector))
    tau_corr = correlation_time(params)
    tau_fast = r_min * float(eigs[0])
    linv = 1.0 / params.l_vector
    s = np.sqrt(linv)[:, None] * params.maxwell_inverse * np.sqrt(linv)[None, :]
    w_max = math.sqrt(float(np.linalg.eigvalsh(s)[-1]))
    return min(tau_corr / 200.0, tau_fast / 200.0, 0.01 / w_max)


_DECOUPLED_RTOL = 1e-12  # largest off-diagonal entry a rotated operator may keep, relative


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack (of a plain matrix too)."""
    return a.swapaxes(-1, -2)


def _stack(a: np.ndarray) -> np.ndarray:
    """``a`` as a stack of matrices: a per-mode (d, ...) stack as it is, a
    dense operator or state as a stack of one block."""
    return a.reshape((-1,) + a.shape[-2:])


def _rotated_diagonal(q: np.ndarray, op: np.ndarray) -> np.ndarray | None:
    """Diagonal of Q^T op Q, or None when its off-diagonal part is not negligible."""
    diag = np.diag(op)
    if np.array_equal(op, np.diag(np.full_like(diag, diag[0]))):
        return diag.copy()  # a multiple of the identity is diagonal in every basis
    rotated = q.T @ op @ q
    diag = np.diag(rotated).copy()
    off = np.max(np.abs(rotated - np.diag(diag)))
    return diag if off <= _DECOUPLED_RTOL * np.max(np.abs(rotated)) else None


def _normal_modes(m_inv, a_mat, gamma_vec, amps):
    """Basis Q and per-mode diagonals of a step that splits into d modes, or None.

    The candidate is the eigenbasis of ``m_inv + a_mat``.  It is kept only if
    it diagonalizes the mass inverse, the potential, the damping and the
    noise covariance; every block of M, S and N is a product of those four,
    so the rotated step is then block-diagonal over the (x, p) pair of each
    mode.
    """
    q = np.linalg.eigh(m_inv + a_mat)[1]
    diagonals = []
    for op in (m_inv, a_mat, np.diag(gamma_vec), np.diag(amps ** 2)):
        diag = _rotated_diagonal(q, op)
        if diag is None:
            return None
        diagonals.append(diag)
    return q, diagonals


class _LinearSystem:
    """One semi-implicit EM step of a circuit, as a linear-Gaussian map.

    The circuit is an underdamped Langevin system: mass C (``m_inv`` is
    C^-1), potential L^-1 (``a_mat``), damping 1/R (``gamma_vec``) and
    noise amplitudes sqrt(2 kappa0) (``amps``), as ``from_circuit`` reads
    them.  State layout z = [x, p], flux then charge.  The step is held in
    a basis Q as a stack of K independent b x b blocks, and the block
    engine sees every circuit in one layout: states (K, chains, b),
    operators (K, b, b), records (chains, n, K, b/2), the half of each
    block that the run's readout reads.  When one orthogonal Q
    diagonalizes the mass inverse, the potential, the damping and the
    noise covariance (every compiled target, every uncoupled board), the
    2d-dimensional chain splits into d normal modes: ``basis`` is Q and the
    stack holds one 2 x 2 block per mode over (Q^T x, Q^T p)_i.  Otherwise
    ``basis`` is None (Q = I, never multiplied, so no sign of a zero flips)
    and the stack is one dense 2d x 2d block.  The split is measured, never
    configured: the candidate basis is kept only if the rotated operators
    are diagonal to ``_DECOUPLED_RTOL``.  ``scale`` is what the charge half
    is multiplied by to read out a voltage (``readout``): the diagonal lam
    of Q^T m_inv Q per mode, m_inv itself for a dense block.

    ``m_step`` is the transition, ``s_step`` the injected noise covariance
    of the ideal source, and ``n_inject`` maps per-step momentum noise of an
    external source, in the basis, into the state: shapes (d, 2, 2),
    (d, 2, 2), (d, 2, 1) per mode.  The noise has zero mean, so the step
    has no constant term.  A dense block keeps its plain operator shapes
    (2d, 2d), (2d, 2d), (2d, d); ``_stack`` views them as a stack of one
    for free.
    """

    def __init__(self, m_inv, a_mat, gamma_vec, amps, dt):
        d = m_inv.shape[0]
        self.blocks = {}  # blocked-scan blocks by (steps, ideal source): _LinearRun.plans
        self.dimension = d
        modes = _normal_modes(m_inv, a_mat, gamma_vec, amps)
        if modes is not None:
            self.basis, (lam, alpha, gamma, amps_sq) = modes
            self.scale = lam  # Q^T m_inv Q = diag(lam)
            # the dense step below, mode by mode
            dt_lam, damp = dt * lam, 1.0 - dt * (gamma * lam)
            self.m_step = np.stack([np.stack([1.0 - dt_lam * (dt * alpha), dt_lam * damp], -1),
                                    np.stack([-dt * alpha, damp], -1)], -2)
            self.n_inject = np.stack([dt_lam, np.ones(d)], -1)[..., None]
            self.s_step = (amps_sq * dt)[:, None, None] * (self.n_inject @ _t(self.n_inject))
            return
        self.basis, self.scale = None, m_inv
        eye = np.eye(d)
        gm = gamma_vec[:, None] * m_inv
        dt_minv = dt * m_inv
        self.m_step = np.block([
            [eye - dt_minv @ (dt * a_mat), dt_minv @ (eye - dt * gm)],
            [-dt * a_mat, eye - dt * gm],
        ])
        self.n_inject = np.vstack([dt_minv, eye])
        q_p = np.diag(amps ** 2 * dt)
        self.s_step = self.n_inject @ q_p @ self.n_inject.T

    @classmethod
    def from_circuit(cls, params: CircuitParams, dt: float) -> "_LinearSystem":
        return cls(
            m_inv=params.maxwell_inverse,
            a_mat=np.diag(1.0 / params.l_vector),
            gamma_vec=1.0 / params.r_vector,
            amps=np.sqrt(2.0 * params.kappa_vector),
            dt=dt,
        )

    def hold(self, substeps: int) -> None:
        """Make this, in place, the step of ``substeps`` steps under one held
        input, of which each takes 1/s: M <- M^s, S <- S_s and N <- the
        kernels of an s-step block (``_kernel_stack``) summed, over s."""
        k, b, r = _stack(self.n_inject).shape
        lags = _kernel_stack(self, substeps, 0.0, 1.0).reshape(k, b, substeps, r)
        self.n_inject = (lags.sum(axis=2) / substeps).reshape(self.n_inject.shape)
        self.m_step, self.s_step = self.compound(substeps)

    def readout(self, record: str):
        """The map from kept charge halves h, in the block basis, to
        ``record``: ``(basis, scale)``, the quantity being basis (scale h),
        with ``self.scale`` for a voltage, V = C^-1 q, and None for a charge."""
        return self.basis, (self.scale if record == "voltage" else None)

    def compound(self, n_steps: int):
        """(M, S) of ``n_steps`` >= 1 composed steps, block by block, by binary doubling."""
        mk = sk = None
        mc, sc = self.m_step, self.s_step
        n = n_steps
        while n:
            if n & 1:
                if mk is None:
                    mk, sk = mc, sc
                else:
                    mk, sk = mc @ mk, mc @ sk @ _t(mc) + sc
            n >>= 1
            if n:
                mc, sc = mc @ mc, mc @ sc @ _t(mc) + sc
        return mk, sk

    def noise_buffer(self, steps: int, chains: int) -> np.ndarray:
        """Room for ``steps`` steps of laid-out input: (K, chains, steps, r)
        for K blocks that each take r inputs a step (1, d dense; d, 1 per
        mode), so n steps of a block, reshaped to (K, chains, n*r) and
        transposed, are the right operand of the kernel product without a
        copy."""
        k, _, r = _stack(self.n_inject).shape
        return np.empty((k, chains, steps, r))

    def lay_noise(self, x: np.ndarray, gain: np.ndarray, out: np.ndarray) -> None:
        """Write per-cell input shaped (steps, chains, d), in any memory
        order, times the per-cell ``gain``, into a ``noise_buffer`` slice,
        rotated into the basis: one product by Q^T diag(gain) per chain."""
        if self.basis is None:
            np.multiply(x.swapaxes(0, 1), gain, out=out[0])
        else:
            np.matmul(self.basis.T * gain, x.transpose(1, 2, 0),
                      out=out[..., 0].swapaxes(0, 1))


def _factor(cov: np.ndarray) -> np.ndarray:
    """Square roots of symmetric PSD matrices, one per block (Cholesky, eigh fallback)."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        return v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


def _refuse_off_grid(rate: float, top: float, name: str, unit: str) -> None:
    """Refuse a sample rate more than rounding (relative 1e-9) from ``top``,
    ``name``, over every whole number of ``unit``s, naming the nearest two."""
    k = top / rate
    if abs(rate - top / round(k)) > 1e-9 * rate:
        raise ValueError(
            f"sample rate {rate:g} Hz is not {name} {top:g} Hz over a whole number of "
            f"{unit}s: the nearest such rates are {top / math.floor(k):g} Hz and "
            f"{top / math.ceil(k):g} Hz")


def _refuse_chain_rate(sample_rate: float, bit_rate: float) -> None:
    """Refuse a sample rate that a chain of ``bit_rate`` bits a second
    cannot record at: one above the bit rate, as a chain records at most
    once a bit, or one off its grid of whole bits."""
    if sample_rate > bit_rate and not math.isclose(sample_rate, bit_rate):
        raise ValueError(
            f"sample rate {sample_rate:g} Hz is above the chain's bit rate "
            f"{bit_rate:g} Hz: a chain-noise run records at most once a bit")
    _refuse_off_grid(sample_rate, bit_rate, "the chain's bit rate", "bit")


def _resolve_steps(params: CircuitParams, sample_rate: float,
                   chain: NoiseChainConfig | None):
    """(dt, stride, burn-in steps) of a run recording at ``sample_rate`` on
    the ideal source (``chain`` None) or on the noise chain ``chain``, with
    a burn-in of ``BURN_IN_TAUS`` correlation times.  The ideal source fits
    dt to the whole stride of ``suggest_dt`` steps nearest the rate; the
    chain steps once a bit and refuses a rate off its grid of whole
    strides (``_refuse_chain_rate``)."""
    if chain is None:
        stride = max(1, round(1.0 / (sample_rate * suggest_dt(params))))
        dt = 1.0 / (sample_rate * stride)
    else:
        _refuse_chain_rate(sample_rate, chain.bit_rate)
        dt = 1.0 / chain.bit_rate
        stride = round(1.0 / (sample_rate * dt))
    return dt, stride, int(round(BURN_IN_TAUS * correlation_time(params) / dt))


def _moving_cells(params: CircuitParams) -> np.ndarray | None:
    """Indices of the cells that can leave rest, or None when all or none can.

    A run starts at rest, so a cell moves when it is driven (kappa0 > 0) or
    shares a nonzero Maxwell entry with a moving cell: the driven cells,
    closed over the couplings.  L and R act per cell, so the capacitive
    couplings are the only path between cells.  Every other cell stays
    exactly at rest.
    """
    moving = params.kappa_vector > 0
    coupled = params.maxwell != 0
    frontier = moving
    while frontier.any():
        frontier = coupled[frontier].any(axis=0) & ~moving
        moving = moving | frontier
    return None if moving.all() or not moving.any() else np.flatnonzero(moving)


def _sub_circuit(params: CircuitParams, cells: np.ndarray) -> CircuitParams:
    """The circuit of ``cells`` alone, its matrices sliced exactly."""
    ix = np.ix_(cells, cells)
    states = None if params.coupling_states is None else params.coupling_states[ix]
    return replace(params, cells=tuple(params.cells[i] for i in cells),
                   coupling_capacitances=params.coupling_capacitances[ix],
                   maxwell=params.maxwell[ix], coupling_states=states)


def _check_noise(noise) -> None:
    """Refuse a noise setting other than "ideal", "lfsr-chain" or a
    ``NoiseChainConfig``."""
    if not (noise in ("ideal", "lfsr-chain") if isinstance(noise, str)
            else isinstance(noise, NoiseChainConfig)):
        raise ValueError("noise must be 'ideal', 'lfsr-chain' or a NoiseChainConfig")


def _prepared_system(params: CircuitParams, sample_rate: float,
                     noise: str | NoiseChainConfig):
    """``(dt, stride, burn-in steps, chain, system)`` of a stepped circuit:
    what a run's preparation takes from the circuit's Maxwell, L, R and
    kappa0 arrays, its sample rate and its noise setting alone, so runs
    that agree on them share it.  ``chain`` is the run's
    ``NoiseChainConfig``, None on the ideal source.  A chain's step is one
    bit of the whole number of EM substeps nearest it over ``suggest_dt``
    (``_LinearSystem.hold``)."""
    chain = (None if noise == "ideal"
             else NoiseChainConfig.matched(correlation_time(params)) if noise == "lfsr-chain"
             else noise)
    dt, stride, burn_steps = _resolve_steps(params, sample_rate, chain)
    substeps = 1 if chain is None else max(1, round(dt / suggest_dt(params)))
    sys_ = _LinearSystem.from_circuit(params, dt / substeps)
    if substeps > 1:
        sys_.hold(substeps)
    return dt, stride, burn_steps, chain, sys_


def _chain_source(params: CircuitParams, chain: NoiseChainConfig, seed: int,
                  chains: int) -> ChainNoiseSource:
    """The chain source that ``chains`` chains of a run of ``params``
    seeded ``seed`` drive: one lane per (chain, cell), seeded ``seed + 1``."""
    return ChainNoiseSource(chain, seed=seed + 1, dimension=params.dimension,
                            kappa0=params.kappa_vector, chains=chains)


class _CircuitRun:
    """One circuit run, prepared for the block engine: the stepped cells'
    ``_LinearRun``, started at rest, and the readout that turns its records
    into their batch by its system's one readout map
    (``_LinearSystem.readout``).  The stepped cells are the moving ones
    (``_moving_cells``): the driven cells and those coupled to them.

    ``systems`` is the lookup of one ``integrate_circuits`` call: runs whose
    stepped circuits and plan inputs are equal (``_prepared_system``) share
    one step size, stride, burn-in and ``_LinearSystem``, and with it its
    blocked-scan blocks.  Each run keeps its own seeded source, start state
    and batch."""

    def __init__(self, params: CircuitParams, cfg: TrajectoryConfig,
                 noise: str | NoiseChainConfig = "ideal", record: str = "voltage",
                 systems: dict | None = None):
        if params.maxwell_eigenvalues[0] <= 0:
            assert_positive_definite(params.maxwell, "Maxwell capacitance matrix")
        if record not in ("voltage", "charge"):
            raise ValueError(f"unknown record kind {record!r}")
        _check_noise(noise)
        d = params.dimension
        chains = cfg.chains
        per_chain = cfg.samples_per_chain
        moving = _moving_cells(params)
        if moving is not None:
            params = _sub_circuit(params, moving)

        # Keyed on the cells, which fix L, R and kappa0 (but for the sign of a
        # zero kappa0, which the step takes squared), with the Maxwell matrix
        # compared bit for bit in place: array copies in the key kept about
        # 2 MB more of a d = 512 set-up resident.
        key = (params.cells, cfg.sample_rate, noise)
        entries = ({} if systems is None else systems).setdefault(key, [])
        bits = params.maxwell.view(np.int64)
        for maxwell, prepared in entries:
            if np.array_equal(maxwell, bits):
                break
        else:
            prepared = _prepared_system(params, cfg.sample_rate, noise)
            entries.append((bits, prepared))
        dt, stride, burn_steps, chain, sys_ = prepared
        if chain is None:
            source = np.random.default_rng(cfg.seed)
        else:
            steps = burn_steps + per_chain * stride
            if steps > _MAX_CHAIN_STEPS:
                raise ValueError(
                    f"a chain-noise run of {per_chain:,} records a chain needs {steps:,} "
                    f"integrator steps a chain, over the limit of {_MAX_CHAIN_STEPS:,}; "
                    "more chains make each chain shorter")
            source = _chain_source(params, chain, cfg.seed, chains)
        self.sys_ = sys_
        k, b, _ = _stack(sys_.m_step).shape
        rest = np.zeros((k, chains, b))  # every run starts at rest
        self.linear = _LinearRun(sys_, rest, source, per_chain, stride, burn_steps,
                                 half=1, board=d)
        self.sample_rate, self.start_time = 1.0 / (stride * dt), burn_steps * dt
        self.meta = {
            "dt": dt, "record_stride": stride, "burn_in": self.start_time, "seed": cfg.seed,
            "record": record, "noise": "ideal" if chain is None else "lfsr-chain",
            "cells_stepped": params.dimension,
            "cells": list(range(d)) if moving is None else moving.tolist(),
        }

    def values(self, half: np.ndarray) -> np.ndarray:
        """The stepped cells' samples from kept halves (..., d stepped) in
        the block basis, by the system's readout map: one product, by Q
        after a per-mode scale, or by a dense C^-1."""
        basis, scale = self.sys_.readout(self.meta["record"])
        if basis is None:
            return half if scale is None else half @ scale.T
        return (half if scale is None else half * scale) @ basis.T

    def readout(self, recs: np.ndarray) -> SampleBatch:
        """The batch of the stepped cells from this run's records, shaped
        (chains, n, K, b/2): the run's own records or its slice of a stack's.

        The records are read out in place, a chain at a time, so the batch
        is a view of them and holds no second copy.
        """
        chains, per_chain = recs.shape[:2]
        halves = recs.reshape(chains, per_chain, -1)
        for chain in halves:
            chain[...] = self.values(chain)
        return SampleBatch(halves.reshape(chains * per_chain, -1), sample_rate=self.sample_rate,
                           start_time=self.start_time, chains=chains, meta=dict(self.meta))


def _voltage_records(params: CircuitParams, cfg: TrajectoryConfig,
                     noise: str | NoiseChainConfig = "ideal"):
    """The records of a whole-board voltage run, streamed as the engine
    makes them, and the map that reads them out: ``(chunks, basis, readout)``.

    ``chunks`` steps the run as it is read and yields each chunk's records
    time-major, shaped (count, chains, K, b/2): record k of every chain
    before record k+1, each row a record's charge half in the block basis.
    Each is a view that the next chunk overwrites, so a consumer copies
    what it keeps (``samples.prefix_covariances``), and the run's records
    are never held whole.  ``chunks`` raises ``NonFiniteStateError`` for a
    state that leaves the floats, and is advanced, as ``_record_chunks``
    is, with overflow ignored.  The run is prepared here, so a bad plan is
    refused before any step.

    ``basis`` and ``readout`` are the voltage readout map that
    ``_CircuitRun.values`` reads too (``_LinearSystem.readout``): Q and
    lam (C^-1 = Q diag(lam) Q^T) for a modal run, None and C^-1 for a
    dense one.  So the voltage covariance follows from that of the halves,
    d x d, and no (n, d) voltage array is formed.  Every cell of a
    compiled target is driven, so its run steps the whole board.
    """
    run = _CircuitRun(params, cfg, noise=noise)
    chunks = (kept.transpose(0, 2, 1, 3) for kept in _record_chunks([run.linear]))
    return (chunks,) + run.sys_.readout("voltage")


def integrate_circuits(runs, record: str = "voltage"):
    """Integrate many circuits, stepping compatible runs as one stack of blocks.

    Each run is ``(params, cfg)`` or ``(params, cfg, noise)``, with the
    arguments of ``integrate_circuit``; every run starts at rest and
    records ``record``.  Yields ``(index, SampleBatch)`` per run as each
    stack finishes, in stack order.  Each batch holds the run's stepped cells only, shaped
    (n, cells_stepped), and its ``meta["cells"]`` names their board cells,
    in order; the board's other cells rest at exactly 0.0.  Its columns,
    ``meta`` otherwise, sample rate and start time equal those that
    ``integrate_circuit`` returns for that run alone.  Every run burns in
    for ``BURN_IN_TAUS`` correlation times, at least 667 of its steps.  Runs
    on either noise source that share the block size, the chain and record
    counts and the chunk step together (``_stacks``): each
    chunk of records then costs one product per block of the stack.  Runs
    whose stepped circuits and plan inputs are equal share their
    preparation (``_prepared_system``): it is made once a call for each
    distinct stepped circuit, sample rate and noise setting.
    """
    systems = {}  # one prepared system per distinct stepped circuit of this call
    prepared = [_CircuitRun(*run, record=record, systems=systems) for run in runs]
    del systems
    for stack in _stacks([run.linear for run in prepared]):
        recs = _run_stack([prepared[i].linear for i in stack])
        spans = np.cumsum([0] + [prepared[i].linear.z.shape[0] for i in stack])
        parts = [recs[:, :, lo:hi] for lo, hi in zip(spans, spans[1:])]
        del recs  # each batch is a view of them: they live until the last one is dropped
        for i in stack:
            yield i, prepared[i].readout(parts.pop(0))


def integrate_circuit(params: CircuitParams, cfg: TrajectoryConfig,
                      noise: str | NoiseChainConfig = "ideal",
                      record: str = "voltage") -> SampleBatch:
    """Integrate the coupled-cell SDE from rest and record equilibrium samples.

    ``record`` selects the readout: "voltage" (the standard observable) or
    "charge" (the integrated-current observable used for covariance-mode
    sampling), the two that a compiled target is read out in.  ``noise``
    is "ideal" for the exact Gaussian source or a ``NoiseChainConfig`` for
    the hardware-faithful chain (the string "lfsr-chain" selects that chain
    with default settings).
    Deterministic under ``cfg.seed``.

    Only the cells that can move are stepped: the driven cells and every
    cell coupled to them through the Maxwell matrix.  The others stay
    exactly at rest and read 0.0.  The
    step size, record stride, burn-in and the matched chain follow the
    stepped cells alone; ``meta["cells_stepped"]`` counts them.  When every
    cell moves (every compiled target) or none does, the whole board is
    stepped.  This is the one-run case of ``integrate_circuits``, its batch
    padded back to the board.
    """
    batch = next(integrate_circuits([(params, cfg, noise)], record=record))[1]
    cells = batch.meta.pop("cells")
    if len(cells) < params.dimension:
        values = np.zeros((batch.n_samples, params.dimension))
        values[:, cells] = batch.values
        batch.values = values
    return batch


_MAX_BLOCK_STEPS = 4096  # most steps of one block of chain-noise injection
_KERNEL_BYTES = 16 << 20  # memory budget of the kernel stack
_MIN_DRAW_STEPS = 1024  # chain noise is drawn a block at a time, but at least this many steps
# the records T of a chunk are a power of two, bounded for a stack that steps
# its runs' whole board: its states (2 board chains values) by _CHUNK_BYTES,
# and the noise rows of the blocked scan's matrix (2 board b T^2 values) by
# _SCAN_BYTES
_CHUNK_BYTES = 64 << 10
_SCAN_BYTES = 256 << 10
_TINY = np.finfo(float).tiny


def _flushed(a: np.ndarray) -> np.ndarray:
    """``a`` with its subnormal entries set to zero; products with them are slow."""
    return a * (np.abs(a) >= _TINY)


def _kernel_stack(sys_: _LinearSystem, steps: int, pole: float, gain: float) -> np.ndarray:
    """Injection kernels of a ``steps``-step block, side by side for column
    input, with a one-pole prefilter (``pole``, ``gain``) folded in.

    A block's input u_j enters through the filter e_j = pole e_(j-1) +
    gain u_j, and e_j through M^(steps-1-j) N.  In every block of the
    (K, b, steps*r) stack, columns j*r..(j+1)*r hold the folded kernel
    W_j = gain M^(steps-1-j) N + pole W_(j+1), the response of the block's
    end to u_j, where r is the input width of a step (d dense, 1 per mode),
    so a block's input laid out as (K, steps*r, chains) injects with one
    product; the filter state before the block adds (pole/gain) W_0 e_(-1).
    The fold runs back from the last column, so the last n*r columns are
    the kernels of an n-step block.  The identity prefilter (0, 1) leaves
    the kernels M^(steps-1-j) N.

    The kernel F_i of lag i = steps-1-j obeys F_i = pole F_(i-1) +
    gain M^i N, so [F_i; M^(i+1) N] is the step A = [[pole I, gain I],
    [0, M]] of the circuit augmented with the filter, taken i + 1 times
    from [0; N].  The first L ~ sqrt(steps) lags are stepped one by one,
    and each later run of L lags is A^L times the run before it.
    """
    n_inject, m = _stack(sys_.n_inject), _stack(sys_.m_step)
    k, b, r = n_inject.shape
    aug = np.zeros((k, 2 * b, 2 * b))
    aug[:, :b, :b] = pole * np.eye(b)
    aug[:, :b, b:] = gain * np.eye(b)
    aug[:, b:, b:] = m
    run = math.isqrt(steps)
    lags = np.empty((k, 2 * b, run, r))
    lag, jump = np.concatenate([np.zeros_like(n_inject), n_inject], axis=1), aug
    for i in range(run):
        lag = aug @ lag
        lags[:, :, i] = lag
        if i:
            jump = aug @ jump
    jump, lags = _flushed(jump), lags.reshape(k, 2 * b, run * r)
    stack = np.empty((k, b, steps, r))
    for end in range(steps, 0, -run):  # the run of lags from steps - end, reversed
        count = min(run, end)
        stack[:, :, end - count:end] = lags[:, :b, :count * r].reshape(k, b, count, r)[:, :, ::-1]
        lags = jump @ lags
    return stack.reshape(k, b, steps * r)


class _LinearRun:
    """One run of the block engine: the start state as a (K, chains, b)
    stack of blocks, the noise source and the record plan.  ``half`` is the
    half of each block that the records keep: 0 for x, 1 for p.  ``board``
    counts the cells of the board the run came from.  ``chunk`` is the
    number of records a chunk steps.  It follows from the run's chains,
    block size, board and record count alone, because the blocked scan's
    rounding depends on it, so a run rounds alike in every stack, and being
    a power of two it is shared by the runs of boards of similar size.
    ``width`` is the most steps that one block of chain-noise injection
    takes."""

    def __init__(self, sys_: _LinearSystem, z: np.ndarray, source, per_chain: int,
                 stride: int, burn_steps: int, half: int, board: int):
        self.sys_, self.z, self.source = sys_, z, source
        self.per_chain, self.stride, self.burn_steps = per_chain, stride, burn_steps
        self.half, self.board = half, board
        self.ideal = isinstance(source, np.random.Generator)
        self.width = max(1, min(_MAX_BLOCK_STEPS, max(stride, burn_steps),
                                _KERNEL_BYTES // sys_.n_inject.nbytes))
        chains, b = self.z.shape[1:]
        bound = max(1, min(_CHUNK_BYTES // (16 * self.board * chains),
                           math.isqrt(_SCAN_BYTES // (16 * self.board * b))))
        self.chunk = min(per_chain, 1 << (bound.bit_length() - 1))

    @property
    def key(self):
        """Runs with equal keys can step as one stack."""
        return self.z.shape[1:], self.per_chain, self.half, self.chunk

    def plans(self):
        """Blocked-scan blocks of the burn-in (None without one) and of one
        stride: each (M^n, W), stacked, takes n steps at once,
        z <- z (M^n)^T + xi W.  With the ideal source xi is a standard
        normal draw and W = chol(S_n)^T; with chain noise xi is the
        increment that the chain injects over the n steps (``noise``) and
        W = I.  M^n and an ideal W are flushed of subnormals.  They are
        kept in ``sys_.blocks``, so every run of one system shares them."""
        sys_, ideal = self.sys_, self.ideal

        def block(n):
            if (n, ideal) not in sys_.blocks:
                m_n, s_n = sys_.compound(n)
                m_n = _flushed(_stack(m_n))
                w = (_t(_flushed(_stack(_factor(s_n)))) if ideal
                     else np.broadcast_to(np.eye(m_n.shape[-1]), m_n.shape))
                sys_.blocks[n, ideal] = m_n, w
            return sys_.blocks[n, ideal]

        return block(self.burn_steps) if self.burn_steps else None, block(self.stride)

    def noise(self):
        """A function (slots, burn) that writes the noise xi of the next
        records, one a slot, into operand slots shaped (K, count, b, chains):
        the burn-in's (``burn``, one slot) or the strides'.  The ideal source
        draws them with one ``standard_normal`` call, which reads its stream
        as per-record draws would.  Chain noise writes the increment v that
        the chain injects over each span, built from v = 0 block by block,
        v <- M^n v + W_n u_n + C_n e, at most ``width`` steps a block.  u_n
        is the block's input, rotated and scaled (``chain_reader``), W_n the
        last n*r columns of the folded kernel stack (``_kernel_stack``), and
        e the input's filter state, (K, chains, r), carried across blocks,
        records and spans: C_n = (pole/gain) W_0 of the n-step block, and
        after it e <- pole^n e + sum_j gain pole^(n-1-j) u_j.  Powers of the
        pole are flushed of subnormals."""
        if self.ideal:
            draws = np.empty(self.chunk * self.z.size)

            def draw(slots, burn):
                xi = draws[:slots.shape[1] * self.z.size].reshape((-1,) + self.z.shape)
                self.source.standard_normal(out=xi)
                slots[...] = xi.transpose(1, 0, 3, 2)

            return draw
        sys_, width, chains = self.sys_, self.width, self.z.shape[1]
        read, (pole, gain) = self.chain_reader()
        kernels = _kernel_stack(sys_, width, pole, gain)
        k, _, r = _stack(sys_.n_inject).shape
        state = np.zeros((k, chains, r))  # the filter state e
        cache = {}

        def block(n, first):
            """(M^n, or None for a span's first block, W_n, C_n, pole^n,
            the weights gain pole^(n-1-j), n)."""
            if (n, first) not in cache:
                m_n = None if first else _flushed(_stack(sys_.compound(n)[0]))
                w_n = kernels[..., (width - n) * r:]
                lags = pole ** np.arange(n - 1, -1, -1.0)
                cache[n, first] = (m_n, w_n, (pole / gain) * w_n[..., :r],
                                   float(_flushed(pole ** n)), _flushed(gain * lags), n)
            return cache[n, first]

        def blocks(steps):
            return [block(min(width, steps - start), not start)
                    for start in range(0, steps, width)]

        spans = blocks(self.burn_steps), blocks(self.stride)

        def inject(slots, burn):
            nonlocal state
            for v in slots.swapaxes(0, 1):  # record by record, each (K, b, chains)
                for m_n, w_n, carry, decay, weights, n in spans[0 if burn else 1]:
                    u = read(n)
                    kick = w_n @ _t(u.reshape(k, chains, n * r)) + carry @ _t(state)
                    v[...] = kick if m_n is None else m_n @ v + kick
                    state = decay * state + weights @ u

        return inject

    def chain_reader(self):
        """The chain's input as the kernel product's right operand, and its
        prefilter: ``(read, (pole, gain))``.  ``read`` is a function n ->
        the next n steps of the input, rotated into the basis and scaled by
        the chain's gain in one product (``_LinearSystem.lay_noise``),
        (K, chains, n, r).  Draws of max(width, ``_MIN_DRAW_STEPS``) steps go
        into one reused buffer; the first is drawn here, as it brings the
        prefilter (``ChainNoiseSource.drive``)."""
        sys_, source, chains = self.sys_, self.source, self.z.shape[1]
        remaining = self.burn_steps + self.per_chain * self.stride  # steps not yet drawn
        draw_steps = max(self.width, _MIN_DRAW_STEPS)
        # drawn input, steps pos..end unused; room for a block's leftover and a draw
        buf = sys_.noise_buffer(self.width + draw_steps, chains)
        pos = end = 0

        def draw(left):
            nonlocal remaining, pos, end
            steps = min(remaining, draw_steps)
            x, prefilter = source.drive(steps)
            sys_.lay_noise(x, source.step_gain, buf[:, :, left:left + steps])
            pos, end = 0, left + steps
            remaining -= steps
            return prefilter

        def read(n):
            nonlocal pos
            if pos + n > end:
                left = end - pos
                buf[:, :, :left] = buf[:, :, pos:end].copy()
                draw(left)
            pos += n
            return buf[:, :, pos - n:pos]

        return read, draw(0)


def _stacks(runs: list[_LinearRun]) -> list[list[int]]:
    """Indices of ``runs`` grouped into stacks: runs of one key, in order,
    while a stack steps no more cells than the board of any run in it.  A
    stack's records then take no more memory than the whole-board batch of
    any of its runs."""
    groups = {}
    for i, run in enumerate(runs):
        groups.setdefault(run.key, []).append(i)
    stacks = []
    for members in groups.values():
        stack, cells, board = [], 0, math.inf
        for i in members:
            run = runs[i]
            cells, board = cells + run.sys_.dimension, min(board, run.board)
            if stack and cells > board:
                stacks.append(stack)
                stack, cells, board = [], run.sys_.dimension, run.board
            stack.append(i)
        stacks.append(stack)
    return stacks


def _scan(mt: np.ndarray, w: np.ndarray, count: int) -> np.ndarray:
    """G, shaped (K, (count+1) b, count b), of ``count`` records of the step
    z <- z mt + xi w of every block of a (K, b, b) stack:
    [z_0, xi_0 ... xi_(count-1)] G = [z_1 ... z_count].  Block (0, k) of G
    is mt^(k+1) and block (j+1, k) is w mt^(k-j) for j <= k, zero above, so
    raw draws enter the product; its leading (2b, b) corner [mt; w] is the
    single step.  G is flushed of subnormals."""
    k, b, _ = mt.shape
    powers = np.empty((k, count + 1, b, b))
    powers[:, 0], powers[:, 1] = np.eye(b), mt
    for i in range(1, count):
        np.matmul(powers[:, i], mt, out=powers[:, i + 1])
    lagged = _flushed(w[:, None] @ powers[:, :count])  # w mt^l for lags l = 0 .. count-1
    powers = _flushed(powers)
    g = np.zeros((k, count + 1, b, count, b))
    g[:, 0] = powers[:, 1:].swapaxes(1, 2)
    for j in range(count):
        g[:, j + 1, :, j:] = lagged[:, :count - j].swapaxes(1, 2)
    return g.reshape(k, (count + 1) * b, count * b)


def _scanned_chunks(runs: list[_LinearRun], spans, start: np.ndarray, burn_block,
                    stride_block):
    """Chunks of records of a stack of runs, T records one product per
    block, [z_0, xi_0 ... xi_(T-1)] G (``_scan``); the burn-in (none when
    ``burn_block`` is None) is the T = 1 case.  Yields (k0, states, finite): the full states of records
    k0 .. k0 + count - 1 shaped (count, K, chains, 2, b/2), and whether all
    of them are finite.

    The product runs transposed, G^T times a reused (K, T+1, b, chains)
    operand, each chain a column, so chains are the unit-stride axis of
    every copy in and out.  Each run writes the noise of a chunk's records
    into their slots (``_LinearRun.noise``).  A large power of an unstable
    step can overflow where the states it multiplies do not, so a block
    whose chunk is not finite is stepped again record by record by G's
    corner: its records and its first non-finite one are those of a
    record-by-record loop.
    """
    first = runs[0]
    chunk, (k_total, chains, b) = first.chunk, start.shape
    operand = np.empty((k_total, chunk + 1, b, chains))
    columns = operand.reshape(k_total, (chunk + 1) * b, chains)
    out = np.empty((k_total, chunk, b, chains))
    operand[:, 0] = _t(start)
    fills = [run.noise() for run in runs]

    def step(gt, count):
        """Steps ``count`` records into ``out`` by G^T; whether they are all finite."""
        width = count * b
        product = out[:, :count].reshape(k_total, width, chains)
        np.matmul(gt[:, :width, :width + b], columns[:, :width + b], out=product)
        finite = np.isfinite(product).all()
        if count > 1 and not finite:
            bad = ~np.isfinite(product).all(axis=(1, 2))
            for k in range(count):
                z = gt[:, :b, :2 * b] @ columns[:, k * b:(k + 2) * b]
                product[bad, k * b:(k + 1) * b] = z[bad]
                operand[:, k + 1] = z  # xi_k is spent: its slot holds z_(k+1)
            finite = np.isfinite(product).all()
        operand[:, 0] = out[:, count - 1]  # the next records step on from the last
        return finite

    def draw(count, burn=False):
        for fill, lo, hi in zip(fills, spans, spans[1:]):
            fill(operand[lo:hi, 1:count + 1], burn)

    if burn_block is not None:
        draw(1, burn=True)
        step(_t(_scan(*burn_block, 1)), 1)
    states = out.reshape(k_total, chunk, 2, b // 2, chains).transpose(1, 0, 4, 2, 3)
    stride_scan = _t(_scan(*stride_block, chunk))
    for k0 in range(0, first.per_chain, chunk):
        count = min(chunk, first.per_chain - k0)
        draw(count)
        finite = step(stride_scan, count)
        yield k0, states[:count], finite


def _record_chunks(runs: list[_LinearRun]):
    """Advance a stack of linear runs in exact blocks; record after every stride.

    The runs share their block size b, chain and record counts, kept half
    and chunk (``_stacks``); they all burn in, or the stack is one run
    without a burn-in.  Their states step together as one (K, chains, b)
    stack of blocks; each run keeps its own step, stride, burn-in and noise
    source.  Yields each chunk's records, in order: the runs' ``half`` of
    each block, a view shaped (count, K, chains, b/2) that the next chunk
    overwrites.

    The noise is exogenous to the linear system and the step has no
    constant term, so n steps compose exactly: z <- z (M^n)^T + xi W,
    every block at once, and a burn-in or a stride is one step.  With the
    ideal source (a numpy ``Generator``) xi is a standard normal draw
    shaped like z and W = chol(S_n)^T; with chain noise xi is the
    increment the chain injects over the n steps and W = I.  A chunk of
    ``chunk`` records is one product per block, the noise entering raw
    (``_scanned_chunks``).  Each chunk's full states are checked once for a
    non-finite value, as they are made; a bad chunk names the first bad
    record of a run as that run alone would, and is not yielded.  A
    non-finite state overflows on the way, so consumers advance this under
    ``np.errstate(over="ignore", invalid="ignore")``.
    """
    first = runs[0]
    spans = np.cumsum([0] + [run.z.shape[0] for run in runs])
    start = np.concatenate([run.z for run in runs])

    def stacked(blocks):
        """Every run's block (M^n, W) as one block of the stack, None for none."""
        if blocks[0] is None:  # a run without a burn-in steps alone
            return None
        m_n, w = zip(*blocks)
        # a transposed view: a contiguous (M^n)^T rounds differently
        return _t(np.concatenate(m_n)), w[0] if len(w) == 1 else np.concatenate(w)

    burn_blocks, stride_blocks = zip(*(run.plans() for run in runs))
    chunks = _scanned_chunks(runs, spans, start, stacked(burn_blocks), stacked(stride_blocks))
    del burn_blocks, stride_blocks  # the stack holds its own copies of every M^n
    for k0, done, finite in chunks:
        if not finite:
            finite = np.isfinite(done).all(axis=(2, 3, 4))  # (count, K)
            k = int(np.argmin(finite.all(axis=1)))
            run = runs[np.searchsorted(spans, np.argmin(finite[k]), "right") - 1]
            raise NonFiniteStateError(
                f"non-finite state at step {run.burn_steps + (k0 + k + 1) * run.stride} "
                f"(record {k0 + k})")
        yield done[:, :, :, first.half]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite state is raised by the chunks
def _run_stack(runs: list[_LinearRun]) -> np.ndarray:
    """The records of a stack of linear runs (``_record_chunks``), stored
    shaped (chains, per_chain, K, b/2)."""
    chains, b = runs[0].z.shape[1:]
    k_total = sum(run.z.shape[0] for run in runs)
    recs = np.empty((chains, runs[0].per_chain, k_total, b // 2))
    records = recs.transpose(1, 2, 0, 3)
    k0 = 0
    for kept in _record_chunks(runs):
        records[k0:k0 + len(kept)] = kept
        k0 += len(kept)
    return recs
