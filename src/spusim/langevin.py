"""Stochastic dynamics of the emulated device and generic Langevin systems.

The circuit state is carried in flux/charge coordinates (``phi = L I``,
``q = C V``), in which the coupled-cell dynamics is an underdamped Langevin
system with mass matrix C, damping 1/R and quadratic potential
``U(phi) = phi^T L^-1 phi / 2``.  Voltage and current views are exact linear
transforms of that state.

Discretization is a semi-implicit Euler-Maruyama step: the momentum (charge)
update uses the current position, the position (flux) update uses the fresh
momentum.  This is the standard stable variant for underdamped systems; its
stationary covariance converges to the continuous one linearly in dt and,
with the default step-size rule, the residual bias stays well below one
percent.

Both noise sources, ideal Gaussian and the LFSR chain (whose gating,
filtering and saturation act before injection), are exogenous to the linear
circuit, so n steps compose exactly: z <- M^n z + c_n + w_n.  One block
engine advances every linear run that way, drawing w_n from the exact law of
the compounded step (binary doubling) or injecting the chain's increments
through stacked kernels M^(n-1-j) N.  This reproduces the stepped chain at
the record times exactly.  With the ideal source a record is one step, and
a chunk of T records is one product per block, the chunked form of a
linear-recurrence scan (Blelloch 1990; Martin & Cundy 2018): the start
state and the chunk's raw standard-normal draws, side by side, times a
block-triangular matrix of the step's powers with the noise factor folded
in.  T follows from the run's shape alone; a large stack steps with T = 1.
Chain-noise and zero-noise runs step record by record.  Buffers are reused
for the whole run, so the record loop allocates no array per record.  A
circuit run keeps only the half of each state that its readout reads (p for
voltage and charge, x for current), copied once a chunk into records shaped
(chains, n, K, b/2), and a whole-board run reads them out in place.  Generic
potentials are stepped explicitly.

The step is held as a stack of independent blocks.  With scalar R, L and
kappa0 (every compiled target) every operator of the step is a polynomial
in C^-1, and on an uncoupled board every operator is diagonal; either way
one orthogonal change of basis splits the 2d-dimensional chain into d
normal modes, each an independent 2 x 2 chain with the same law and the
same integrator bias.  The engine then steps the stack of d blocks and
rotates states in and records out once; when no basis splits the step it
steps a stack of one dense 2d x 2d block.  The split is measured on the
operators.  A circuit run steps only the cells that can move; undriven
cells at rest that no coupling joins to a moving cell stay exactly at rest.

Because every run is a stack of equal blocks, many small runs step as one:
``integrate_circuits`` concatenates the blocks of ideal-source runs of the
same shape into one stack, so a chunk of records of the whole stack costs
one product per block, while each run keeps its own step, stride, burn-in
and seeded stream and its records equal those of the run alone.  A stack
steps no more cells than the board its runs came from, so its records take
no more memory than one run's whole-board batch.  Each run's batch holds its stepped cells only, and
its ``meta["cells"]`` names them; ``integrate_circuit``, the one-run case,
pads the batch back to the board.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import numpy.random  # noqa: F401  every run draws from it: load it with the package

from .circuit import CircuitParams, assert_positive_definite
from .errors import DimensionMismatchError, NonFiniteStateError
from .noise import ChainNoiseSource, NoiseChainConfig
from .samples import SampleBatch


@dataclass(frozen=True)
class SdeState:
    """Flux/charge state of the device at one instant of simulated time."""

    flux: np.ndarray
    charge: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "flux", np.asarray(self.flux, dtype=float))
        object.__setattr__(self, "charge", np.asarray(self.charge, dtype=float))
        if self.flux.shape != self.charge.shape:
            raise DimensionMismatchError("flux and charge must share a shape")

    def current(self, params: CircuitParams) -> np.ndarray:
        return self.flux / params.l_vector

    def voltage(self, params: CircuitParams) -> np.ndarray:
        return np.linalg.solve(params.maxwell, self.charge)

    @classmethod
    def from_iv(cls, current, voltage, params: CircuitParams, time: float = 0.0) -> "SdeState":
        phi, q = transform_coords(current, voltage, params)
        return cls(phi, q, time)

    @classmethod
    def zero(cls, dimension: int) -> "SdeState":
        return cls(np.zeros(dimension), np.zeros(dimension))


def transform_coords(current, voltage, params: CircuitParams):
    """(I, V) -> (phi, q): phi = L I per cell, q = C V through the Maxwell matrix."""
    current = np.asarray(current, dtype=float)
    voltage = np.asarray(voltage, dtype=float)
    if current.shape[-1] != params.dimension or voltage.shape[-1] != params.dimension:
        raise DimensionMismatchError("state dimension does not match params")
    phi = current * params.l_vector
    q = voltage @ params.maxwell.T
    return phi, q


def inverse_transform(flux, charge, params: CircuitParams):
    """(phi, q) -> (I, V); exact inverse of ``transform_coords``."""
    flux = np.asarray(flux, dtype=float)
    charge = np.asarray(charge, dtype=float)
    current = flux / params.l_vector
    voltage = np.linalg.solve(params.maxwell, np.atleast_2d(charge).T).T.reshape(charge.shape)
    return current, voltage


def hamiltonian(flux, charge, params: CircuitParams) -> float | np.ndarray:
    """Circuit energy in flux/charge coordinates (joules)."""
    flux = np.asarray(flux, dtype=float)
    charge = np.asarray(charge, dtype=float)
    cinv_q = np.linalg.solve(params.maxwell, np.atleast_2d(charge).T).T.reshape(charge.shape)
    e = 0.5 * (flux ** 2 / params.l_vector).sum(axis=-1) + 0.5 * (charge * cinv_q).sum(axis=-1)
    return float(e) if np.ndim(e) == 0 else e


def hamiltonian_iv(current, voltage, params: CircuitParams) -> float | np.ndarray:
    """Same energy expressed in current/voltage coordinates."""
    current = np.asarray(current, dtype=float)
    voltage = np.asarray(voltage, dtype=float)
    cv = voltage @ params.maxwell.T
    e = 0.5 * (voltage * cv).sum(axis=-1) + 0.5 * (params.l_vector * current ** 2).sum(axis=-1)
    return float(e) if np.ndim(e) == 0 else e


def correlation_time(params: CircuitParams) -> float:
    """Correlation-time estimate R * lambda_max(C).

    Uses the largest cell resistance when they differ.  The estimate is the
    envelope scale in the moderately damped regime; strongly underdamped
    cells decorrelate on ~2 R C and strongly overdamped ones on ~L/R, so
    empirical decay times can deviate by a factor of about two.
    """
    lam_max = float(params.maxwell_eigenvalues[-1])
    return float(np.max(params.r_vector)) * lam_max


@dataclass(frozen=True)
class StationaryReference:
    """Analytic equilibrium covariances for a uniform-temperature device."""

    beta: float
    cov_flux: np.ndarray
    cov_charge: np.ndarray
    cov_voltage: np.ndarray
    cov_current: np.ndarray


def stationary_reference(params: CircuitParams) -> StationaryReference:
    """Gibbs covariances: flux ~ N(0, L/beta), charge ~ N(0, C/beta), independent.

    The effective inverse temperature is beta = 1/(R kappa0) and must be
    uniform across cells; for non-uniform devices use
    ``stationary_state_covariance`` (exact Lyapunov solution) instead.
    """
    rk = params.r_vector * params.kappa_vector
    if np.any(rk <= 0):
        raise ValueError("all cells need positive R * kappa0 for a Gibbs reference")
    if not np.allclose(rk, rk[0], rtol=1e-9, atol=0.0):
        raise ValueError(
            "R * kappa0 differs between cells (no single temperature); "
            "use stationary_state_covariance for the exact reference"
        )
    theta = float(rk[0])  # = 1/beta
    cinv = np.linalg.inv(params.maxwell)
    return StationaryReference(
        beta=1.0 / theta,
        cov_flux=theta * np.diag(params.l_vector),
        cov_charge=theta * params.maxwell.copy(),
        cov_voltage=theta * cinv,
        cov_current=theta * np.diag(1.0 / params.l_vector),
    )


def _drift_and_noise(params: CircuitParams):
    d = params.dimension
    cinv = np.linalg.inv(params.maxwell)
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
        return rk[0] * np.linalg.inv(params.maxwell)
    d = params.dimension
    sigma = stationary_state_covariance(params)
    cinv = np.linalg.inv(params.maxwell)
    return cinv @ sigma[d:, d:] @ cinv


def discrete_stationary_covariance(params: CircuitParams, dt: float) -> np.ndarray:
    """Exact stationary (flux, charge) covariance of the discretized chain.

    Useful to separate integrator bias from Monte Carlo error in tests.
    """
    from scipy.linalg import solve_discrete_lyapunov  # reference path only

    sys_ = _LinearSystem.from_circuit(params, dt)
    return solve_discrete_lyapunov(sys_.expand(sys_.m_step), sys_.expand(sys_.s_step))


@dataclass(frozen=True)
class GenericLangevinSpec:
    """Underdamped/overdamped Langevin problem definition.

    ``mass`` may be a positive scalar or a positive-definite matrix,
    ``damping`` and ``beta`` are positive scalars, and ``grad_potential``
    maps states of shape (..., d) to gradients of the same shape.
    """

    mass: float | np.ndarray
    damping: float
    beta: float
    grad_potential: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if np.ndim(self.mass) == 2:
            assert_positive_definite(np.asarray(self.mass, dtype=float), "mass matrix")
        elif not np.ndim(self.mass) == 0 or self.mass <= 0:
            raise ValueError("mass must be a positive scalar or a PD matrix")
        if self.damping <= 0 or self.beta <= 0:
            raise ValueError("damping and beta must be strictly positive")

    def mass_inverse(self, dimension: int) -> np.ndarray:
        if np.ndim(self.mass) == 2:
            return np.linalg.inv(np.asarray(self.mass, dtype=float))
        return np.eye(dimension) / float(self.mass)


@dataclass(frozen=True)
class QuadraticPotential:
    """U(x) = x^T A x / 2 - b^T x, so grad U = A x - b; Gibbs covariance (beta A)^-1."""

    matrix: np.ndarray
    offset: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        if self.offset is not None:
            object.__setattr__(self, "offset", np.asarray(self.offset, dtype=float))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        g = x @ self.matrix.T
        if self.offset is not None:
            g = g - self.offset
        return g


@dataclass(frozen=True)
class TrajectoryConfig:
    """Run plan for an integrator.

    ``n_samples`` is the total number of recorded states, rounded up to a
    multiple of ``chains`` (independent seeded chains, merged chain-major).
    Record spacing comes from ``sample_rate`` (Hz) or ``record_stride``
    (steps); when neither is given, records are spaced by
    ``decorrelate_multiple`` correlation times.  ``burn_in`` is simulated
    time discarded before the first record (default
    ``burn_in_multiple * tau_corr``).  Records fall at
    burn_in + k * stride * dt for k = 1..n.
    """

    dt: float | None = None
    n_samples: int = 1000
    burn_in: float | None = None
    burn_in_multiple: float = 5.0
    record_stride: int | None = None
    sample_rate: float | None = None
    seed: int = 0
    chains: int = 1
    zero_noise: bool = False
    decorrelate_multiple: float = 5.0
    max_steps: int = 100_000_000  # guard for runaway chain-noise runs

    def __post_init__(self):
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.burn_in is not None and not (math.isfinite(self.burn_in) and self.burn_in >= 0):
            raise ValueError(f"burn_in must be non-negative and finite, got {self.burn_in}")
        if self.record_stride is not None and self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.chains < 1:
            raise ValueError("chains must be >= 1")
        rate = self.sample_rate
        if rate is not None and not (math.isfinite(rate) and rate > 0):
            raise ValueError(f"sample_rate must be positive and finite, got {rate}")

    @property
    def samples_per_chain(self) -> int:
        return -(-self.n_samples // self.chains)


def suggest_dt(params: CircuitParams, steps_per_tau: float = 200.0,
               steps_per_fast_tau: float = 200.0, max_phase_step: float = 0.01) -> float:
    """Step size keeping both damping and oscillation discretization errors small.

    Three constraints: resolve the global correlation time, resolve the
    fastest mode's damping time R * lambda_min(C), and keep the largest
    natural frequency's phase advance per step below ``max_phase_step``
    radians.  The last two dominate for ill-conditioned matrices, where a
    flat tau_corr rule would leave percent-level stationary bias.
    """
    eigs = params.maxwell_eigenvalues
    r_min = float(np.min(params.r_vector))
    tau_corr = correlation_time(params)
    tau_fast = r_min * float(eigs[0])
    linv = 1.0 / params.l_vector
    s = np.sqrt(linv)[:, None] * np.linalg.inv(params.maxwell) * np.sqrt(linv)[None, :]
    w_max = math.sqrt(float(np.linalg.eigvalsh(s)[-1]))
    return min(tau_corr / steps_per_tau, tau_fast / steps_per_fast_tau,
               max_phase_step / w_max)


_DECOUPLED_RTOL = 1e-12  # largest off-diagonal entry a rotated operator may keep, relative


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack (of a plain matrix too)."""
    return a.swapaxes(-1, -2)


def _stack(a: np.ndarray, tail: int = 2) -> np.ndarray:
    """``a`` as a stack of its last ``tail`` axes: a per-mode (d, ...) stack
    as it is, a dense operator, vector or state as a stack of one block."""
    return a.reshape((-1,) + a.shape[a.ndim - tail:])


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Every matrix of a stack times its own vector."""
    return (m @ v[..., None])[..., 0]


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
    """One semi-implicit EM step of a linear Langevin system, as affine-Gaussian map.

    State layout z = [x, p] (flux then charge for circuits).  The step is
    held in a basis Q as a stack of K independent b x b blocks, and the
    block engine sees every system in one layout: states (K, chains, b),
    operators (K, b, b), records (chains, n, 2, K, b/2), each block's x
    half then its p half, or (chains, n, K, b/2) for a circuit run, which
    keeps only the half its readout reads.  When one orthogonal Q
    diagonalizes the mass inverse, the potential, the damping and the
    noise covariance (every compiled target, every uncoupled board), the
    2d-dimensional chain splits into d normal modes: ``basis`` is Q and the
    stack holds one 2 x 2 block per mode over (Q^T x, Q^T p)_i.  Otherwise
    ``basis`` is None (Q = I, never multiplied, so no sign of a zero flips)
    and the stack is one dense 2d x 2d block.  The split is measured, never
    configured: the candidate basis is kept only if the rotated operators
    are diagonal to ``_DECOUPLED_RTOL``.

    ``m_step`` is the transition, ``c_step`` the drift offset, ``s_step`` the
    injected noise covariance of the ideal source, and ``n_inject`` maps
    per-step momentum noise of an external source, in the basis, into the
    state: shapes (d, 2, 2), (d, 2), (d, 2, 2), (d, 2, 1) per mode.  A dense
    block keeps its plain shapes (2d, 2d), (2d,), (2d, 2d), (2d, d), and
    states (chains, 2d), as matrix references use them; ``_stack`` views
    them as a stack of one for free.
    """

    def __init__(self, m_inv, a_mat, gamma_vec, amps, dt, offset=None):
        d = m_inv.shape[0]
        self.dt = dt
        self.dimension = d
        self.m_inv = m_inv
        modes = _normal_modes(m_inv, a_mat, gamma_vec, amps)
        if modes is not None:
            self.basis, (lam, alpha, gamma, amps_sq) = modes
            # the dense step below, mode by mode
            dt_lam, damp = dt * lam, 1.0 - dt * (gamma * lam)
            self.m_step = np.stack([np.stack([1.0 - dt_lam * (dt * alpha), dt_lam * damp], -1),
                                    np.stack([-dt * alpha, damp], -1)], -2)
            b = np.zeros(d) if offset is None else self.basis.T @ offset
            self.c_step = np.stack([dt_lam * (dt * b), dt * b], -1)
            self.n_inject = np.stack([dt_lam, np.ones(d)], -1)[..., None]
            self.s_step = (amps_sq * dt)[:, None, None] * (self.n_inject @ _t(self.n_inject))
            return
        self.basis = None
        eye = np.eye(d)
        gm = gamma_vec[:, None] * m_inv
        dt_minv = dt * m_inv
        self.m_step = np.block([
            [eye - dt_minv @ (dt * a_mat), dt_minv @ (eye - dt * gm)],
            [-dt * a_mat, eye - dt * gm],
        ])
        if offset is not None:
            self.c_step = np.concatenate([dt_minv @ (dt * offset), dt * offset])
        else:
            self.c_step = np.zeros(2 * d)
        self.n_inject = np.vstack([dt_minv, eye])
        q_p = np.diag(amps ** 2 * dt)
        self.s_step = self.n_inject @ q_p @ self.n_inject.T

    @classmethod
    def from_circuit(cls, params: CircuitParams, dt: float) -> "_LinearSystem":
        return cls(
            m_inv=np.linalg.inv(params.maxwell),
            a_mat=np.diag(1.0 / params.l_vector),
            gamma_vec=1.0 / params.r_vector,
            amps=np.sqrt(2.0 * params.kappa_vector),
            dt=dt,
        )

    def compound(self, n_steps: int):
        """(M, c, S) of ``n_steps`` composed steps, block by block, by binary doubling."""
        if n_steps < 1:
            eye = np.broadcast_to(np.eye(self.m_step.shape[-1]), self.m_step.shape).copy()
            return eye, np.zeros_like(self.c_step), np.zeros_like(self.s_step)
        mk = ck = sk = None
        mc, cc, sc = self.m_step, self.c_step, self.s_step
        n = n_steps
        while n:
            if n & 1:
                if mk is None:
                    mk, ck, sk = mc, cc, sc
                else:
                    mk, ck, sk = mc @ mk, _apply(mc, ck) + cc, mc @ sk @ _t(mc) + sc
            n >>= 1
            if n:
                mc, cc, sc = mc @ mc, _apply(mc, cc) + cc, mc @ sc @ _t(mc) + sc
        return mk, ck, sk

    def to_blocks(self, z: np.ndarray) -> np.ndarray:
        """Cell-basis states (chains, 2d) in the layout the blocks act on."""
        if self.basis is None:
            return z  # the basis is I: no product, which could flip the sign of a zero
        d = self.dimension
        pair = np.stack([z[:, :d] @ self.basis, z[:, d:] @ self.basis])
        return np.ascontiguousarray(pair.transpose(2, 1, 0))

    def stored(self, z: np.ndarray) -> np.ndarray:
        """A block-layout state as records keep it, chains first: (chains, 2d)
        dense, (chains, 2, d) per mode, so each half is a run of d values."""
        return np.moveaxis(z, (-2, -1), (0, 1))

    def cells(self, recs: np.ndarray, half: int) -> np.ndarray:
        """x (``half`` 0) or p (1) of records that keep both halves, in the
        cell basis: records shaped (chains, n) + stored."""
        values = recs.reshape(recs.shape[:2] + (2, self.dimension))[:, :, half]
        return values if self.basis is None else values @ self.basis.T

    def noise_buffer(self, steps: int, chains: int) -> np.ndarray:
        """Room for ``steps`` steps of laid-out increments: (K, steps, chains, r)
        for K blocks that each take r increments a step (1, d dense; d, 1 per mode)."""
        k, _, r = _stack(self.n_inject).shape
        return np.empty((k, steps, chains, r))

    def lay_noise(self, eta: np.ndarray, out: np.ndarray) -> None:
        """Write step-major per-cell increments (steps, chains, d) into a
        ``noise_buffer`` slice, rotated into the basis by one GEMM."""
        if self.basis is None:
            out[0] = eta
        else:
            np.matmul(self.basis.T, eta.reshape(-1, self.dimension).T,
                      out=out.reshape(self.dimension, -1))

    @staticmethod
    def noise_operand(block: np.ndarray) -> np.ndarray:
        """n steps of laid-out increments as the left operand of the kernel
        product: (K, chains, n*r), each chain's increments step by step."""
        k, n, chains, r = block.shape
        return block.transpose(0, 2, 1, 3).reshape(k, chains, n * r)

    def expand(self, stack: np.ndarray) -> np.ndarray:
        """A (d, 2, 2) stack of per-mode operators as the 2d x 2d matrix in the cell basis."""
        if self.basis is None:
            return stack
        q = self.basis
        return np.block([[(q * stack[:, i, j]) @ q.T for j in (0, 1)] for i in (0, 1)])


def _factor(cov: np.ndarray) -> np.ndarray:
    """Square roots of symmetric PSD matrices, one per block (Cholesky, eigh fallback)."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        return v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


def _resolve_steps(params: CircuitParams, cfg: TrajectoryConfig,
                   dt: float | None = None, lock_dt: bool = False):
    if dt is None:
        dt = cfg.dt if cfg.dt is not None else suggest_dt(params)
    tau = correlation_time(params)
    if dt > tau / 50.0:
        import logging  # rarely needed; importing it costs a CLI start-up about 4 ms

        logging.getLogger("spusim").warning(
            "dt = %.3g exceeds tau_corr/50 = %.3g; discretization bias may be significant",
            dt, tau / 50.0)
    if cfg.sample_rate is not None:
        stride = max(1, round(1.0 / (cfg.sample_rate * dt)))
        if not lock_dt:
            dt = 1.0 / (cfg.sample_rate * stride)
    elif cfg.record_stride is not None:
        stride = cfg.record_stride
    else:
        stride = max(1, math.ceil(cfg.decorrelate_multiple * tau / dt))
    burn = cfg.burn_in if cfg.burn_in is not None else cfg.burn_in_multiple * tau
    burn_steps = int(round(burn / dt)) if burn > 0 else 0
    return dt, stride, burn_steps


def _initial_state(params: CircuitParams, initial, chains: int, rng) -> np.ndarray:
    d = params.dimension
    if initial is None:
        return np.zeros((chains, 2 * d))
    if isinstance(initial, str) and initial == "stationary":
        cov = stationary_state_covariance(params)
        return rng.standard_normal((chains, 2 * d)) @ _factor(cov).T
    if isinstance(initial, SdeState):
        z = np.concatenate([initial.flux, initial.charge])
        return np.broadcast_to(z, (chains, 2 * d)).copy()
    z = np.asarray(initial, dtype=float)
    if z.shape == (2 * d,):
        return np.broadcast_to(z, (chains, 2 * d)).copy()
    if z.shape == (chains, 2 * d):
        return z.copy()
    raise DimensionMismatchError(f"cannot interpret initial state of shape {z.shape}")


def _moving_cells(params: CircuitParams, z: np.ndarray | None) -> np.ndarray | None:
    """Indices of the cells that can leave rest, or None when all or none can.

    A cell moves when it is driven (kappa0 > 0), starts away from rest in
    any chain of the start state ``z`` (None: at rest), or shares a nonzero
    Maxwell entry with a moving cell; L and R act per cell, so the
    capacitive couplings are the only path between cells.  Every other
    cell stays exactly at rest.
    """
    moving = params.kappa_vector > 0
    if z is not None:
        moving = moving | (z != 0).any(axis=0).reshape(2, -1).any(axis=0)
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


class _CircuitRun:
    """One circuit run, prepared for the block engine: the stepped cells'
    ``_LinearRun`` and the readout that turns its records into their batch."""

    def __init__(self, params: CircuitParams, cfg: TrajectoryConfig, initial_state=None,
                 noise: str | NoiseChainConfig = "ideal", record: str = "voltage"):
        if params.maxwell_eigenvalues[0] <= 0:
            assert_positive_definite(params.maxwell, "Maxwell capacitance matrix")
        if record not in ("voltage", "charge", "current"):
            raise ValueError(f"unknown record kind {record!r}")
        d = params.dimension
        chains = cfg.chains
        per_chain = cfg.samples_per_chain
        rng = np.random.default_rng(cfg.seed)
        # the zero and the stationary start rest wherever no drive reaches, so only
        # a given state can move a cell; the others are built for the stepped cells
        given = not (initial_state is None or isinstance(initial_state, str))
        z = _initial_state(params, initial_state, chains, rng) if given else None
        moving = _moving_cells(params, z)
        if moving is not None:
            params = _sub_circuit(params, moving)
            if given:
                z = z[:, np.concatenate([moving, d + moving])]

        if isinstance(noise, str) and noise == "ideal":
            dt, stride, burn_steps = _resolve_steps(params, cfg)
            source = rng
        else:
            if isinstance(noise, str) and noise == "lfsr-chain":
                noise = NoiseChainConfig.matched(correlation_time(params))
            if not isinstance(noise, NoiseChainConfig):
                raise ValueError("noise must be 'ideal', 'lfsr-chain' or a NoiseChainConfig")
            # pin dt to an integer fraction of the bit period before deriving strides
            dt0 = cfg.dt if cfg.dt is not None else suggest_dt(params)
            bit_period = 1.0 / noise.bit_rate
            sub = max(1, round(bit_period / dt0))
            dt, stride, burn_steps = _resolve_steps(params, cfg, dt=bit_period / sub,
                                                    lock_dt=True)
            total_steps = burn_steps + per_chain * stride
            if total_steps > cfg.max_steps:
                raise ValueError(
                    f"chain-noise run needs {total_steps:.3g} integrator steps "
                    f"(> max_steps {cfg.max_steps:.3g}); the chain bit rate is likely "
                    "mismatched to the circuit timescale -- see "
                    "NoiseChainConfig.matched, or raise TrajectoryConfig.max_steps"
                )
            source = ChainNoiseSource(noise, seed=cfg.seed + 1, dimension=params.dimension,
                                      kappa0=params.kappa_vector, dt=dt, chains=chains)
        self.sys_ = sys_ = _LinearSystem.from_circuit(params, dt)
        if not given:
            z = _initial_state(params, initial_state, chains, rng)
        self.linear = _LinearRun(sys_, sys_.to_blocks(z), source, per_chain, stride,
                                 burn_steps, cfg.zero_noise, half=0 if record == "current" else 1,
                                 board=d)
        self.l_vector = params.l_vector
        self.sample_rate, self.start_time = 1.0 / (stride * dt), burn_steps * dt
        self.meta = {
            "dt": dt, "record_stride": stride, "burn_in": self.start_time, "seed": cfg.seed,
            "record": record, "noise": "ideal" if noise == "ideal" else "lfsr-chain",
            "cells_stepped": params.dimension,
            "cells": list(range(d)) if moving is None else moving.tolist(),
        }

    def values(self, half: np.ndarray) -> np.ndarray:
        """The stepped cells' samples from kept halves (..., d stepped) in the block basis."""
        sys_, record = self.sys_, self.meta["record"]
        values = half if sys_.basis is None else half @ sys_.basis.T
        if record == "current":
            return values / self.l_vector
        if record == "voltage":
            return values @ sys_.m_inv.T  # two products, as the UDL readout rounds
        return values

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


def integrate_circuits(runs, record: str = "voltage"):
    """Integrate many circuits, stepping compatible runs as one stack of blocks.

    Each run is ``(params, cfg)``, ``(params, cfg, initial_state)`` or
    ``(params, cfg, initial_state, noise)``, with the arguments of
    ``integrate_circuit``; every run records ``record``.  Yields
    ``(index, SampleBatch)`` per run as each stack finishes, in stack
    order.  Each batch holds the run's stepped cells only, shaped
    (n, cells_stepped), and its ``meta["cells"]`` names their board cells,
    in order; the board's other cells rest at exactly 0.0.  Its columns,
    ``meta`` otherwise, sample rate and start time equal those that
    ``integrate_circuit`` returns for that run alone.  Runs on the ideal
    source with noise on that share the block size, the chain and record
    counts, whether a burn-in exists, whether a drift exists and the
    chunk step together (``_stacks``): each chunk of records then costs one
    product per block of the stack.
    Every other run steps alone.
    """
    prepared = [_CircuitRun(*run, record=record) for run in runs]
    for stack in _stacks([run.linear for run in prepared]):
        recs = _run_stack([prepared[i].linear for i in stack])
        spans = np.cumsum([0] + [prepared[i].linear.z.shape[0] for i in stack])
        parts = [recs[:, :, lo:hi] for lo, hi in zip(spans, spans[1:])]
        del recs  # each batch is a view of them: they live until the last one is dropped
        for i in stack:
            yield i, prepared[i].readout(parts.pop(0))


def integrate_circuit(params: CircuitParams, cfg: TrajectoryConfig,
                      noise: str | NoiseChainConfig = "ideal",
                      record: str = "voltage",
                      initial_state=None) -> SampleBatch:
    """Integrate the coupled-cell SDE and record equilibrium samples.

    ``record`` selects the readout: "voltage" (the standard observable),
    "charge" (the integrated-current observable used for covariance-mode
    sampling) or "current".  ``noise`` is "ideal" for the exact Gaussian
    source or a ``NoiseChainConfig`` for the hardware-faithful chain (the
    string "lfsr-chain" selects that chain with default settings).
    Deterministic under ``cfg.seed``.

    Only the cells that can move are stepped: the driven cells, the cells
    that start away from rest, and every cell coupled to them through the
    Maxwell matrix.  The others stay exactly at rest and read 0.0.  The
    step size, record stride, burn-in and the matched chain follow the
    stepped cells alone; ``meta["cells_stepped"]`` counts them.  When every
    cell moves (every compiled target) or none does, the whole board is
    stepped.  This is the one-run case of ``integrate_circuits``, its batch
    padded back to the board.
    """
    batch = next(integrate_circuits([(params, cfg, initial_state, noise)], record=record))[1]
    cells = batch.meta.pop("cells")
    if len(cells) < params.dimension:
        values = np.zeros((batch.n_samples, params.dimension))
        values[:, cells] = batch.values
        batch.values = values
    return batch


_MAX_BLOCK_STEPS = 4096
_KERNEL_BYTES = 16 << 20  # memory budget of the kernel stack
_MIN_DRAW_STEPS = 1024  # chain noise is drawn a block at a time, but at least this many steps
# the records T of a scanned chunk are a power of two, bounded for a stack that
# steps its runs' whole board: its states (2 board chains values) by _CHUNK_BYTES,
# and the draws' rows of the blocked scan's matrix (2 board b T^2 values) by
# _SCAN_BYTES; a looped chunk's states fill _CHUNK_BYTES
_CHUNK_BYTES = 64 << 10
_SCAN_BYTES = 256 << 10
_TINY = np.finfo(float).tiny


def _flushed(a: np.ndarray) -> np.ndarray:
    """``a`` with its subnormal entries set to zero; products with them are slow."""
    return a * (np.abs(a) >= _TINY)


def _kernel_stack(sys_: _LinearSystem, steps: int) -> np.ndarray:
    """Injection kernels of a ``steps``-step block, stacked for row-vector noise.

    In every block of the (K, steps*r, b) stack, rows j*r..(j+1)*r hold
    (M^(steps-1-j) N)^T, where r is the noise width of a step (d dense, 1
    per mode), so a block's noise laid out as (K, chains, steps*r) injects
    with one product.  The last n*r rows are the kernels of an n-step block.
    """
    kernel = _t(_stack(sys_.n_inject))
    mt = _t(_stack(sys_.m_step))
    stack = np.empty((kernel.shape[0], steps) + kernel.shape[1:])
    for j in range(steps - 1, -1, -1):
        stack[:, j] = kernel
        kernel = kernel @ mt
    return stack.reshape(kernel.shape[0], steps * kernel.shape[1], kernel.shape[2])


class _LinearRun:
    """One run of the block engine: the start state as a (K, chains, b)
    stack of blocks, the noise source and the record plan.  ``half`` is the
    half of each block that the records keep: 0 for x, 1 for p, None for
    both.  ``board`` counts the cells of the board the run came from (by
    default the cells it steps).  ``chunk`` is the number of records a
    chunk steps.  For a scanned run it follows from the run's chains,
    block size, board and record count alone, because the blocked scan's
    rounding depends on it, so a run rounds alike in every stack, and
    being a power of two it is shared by the runs of boards of similar
    size.  A looped run steps alone, its chunk's states filling
    ``_CHUNK_BYTES``."""

    def __init__(self, sys_: _LinearSystem, z: np.ndarray, source, per_chain: int,
                 stride: int, burn_steps: int, zero_noise: bool, half: int | None = None,
                 board: int | None = None):
        self.sys_, self.z, self.source = sys_, _stack(z), source
        self.per_chain, self.stride, self.burn_steps = per_chain, stride, burn_steps
        self.zero_noise, self.half = zero_noise, half
        self.board = sys_.dimension if board is None else board
        self.ideal = isinstance(source, np.random.Generator)
        self.scanned = self.ideal and not zero_noise  # stepped by the blocked scan
        width = max(stride, burn_steps)
        if not self.ideal:
            width = max(1, min(_MAX_BLOCK_STEPS, width, _KERNEL_BYTES // sys_.n_inject.nbytes))
        self.width = width
        chains, b = self.z.shape[1:]
        if self.scanned:
            bound = max(1, min(_CHUNK_BYTES // (16 * self.board * chains),
                               math.isqrt(_SCAN_BYTES // (16 * self.board * b))))
            self.chunk = min(per_chain, 1 << (bound.bit_length() - 1))
        else:
            self.chunk = max(1, min(per_chain, _CHUNK_BYTES // self.z.nbytes))

    @property
    def key(self):
        """Runs with equal keys can step as one stack; None for a run that steps alone."""
        if not self.scanned:
            return None
        return (self.z.shape[1:], self.per_chain, self.burn_steps > 0, self.sys_.c_step.any(),
                self.half, self.chunk)

    def plans(self):
        """Block plans of the burn-in and of one stride: lists of blocks
        (M^n, c_n or None when zero, W_n or None without noise, n), each
        stacked, of at most ``width`` steps; M^n and an ideal W_n are flushed
        of subnormals.  c_n is None exactly when the step has no drift."""
        sys_, width, ideal = self.sys_, self.width, self.ideal
        kernels = None if ideal or self.zero_noise else _kernel_stack(sys_, width)
        r = _stack(sys_.n_inject).shape[-1]
        drift = sys_.c_step.any()
        cache = {}

        def blocks(steps):
            plan = []
            for start in range(0, steps, width):
                n = min(width, steps - start)
                if n not in cache:
                    m_n, c_n, s_n = sys_.compound(n)
                    c_n = _stack(c_n, 1)[:, None, :] if drift else None
                    w_n = (None if self.zero_noise else _t(_flushed(_stack(_factor(s_n))))
                           if ideal else kernels[:, (width - n) * r:, :])
                    cache[n] = _flushed(_stack(m_n)), c_n, w_n, n
                plan.append(cache[n])
            return plan

        return blocks(self.burn_steps), blocks(self.stride)

    def chain_reader(self):
        """A function n -> the next n steps of the chain's increments as the
        kernel product's left operand; draws go into one reused buffer."""
        sys_, chains = self.sys_, self.z.shape[1]
        remaining = self.burn_steps + self.per_chain * self.stride  # steps not yet drawn
        draw_steps = max(self.width, _MIN_DRAW_STEPS)
        # drawn noise, steps pos..end unused; room for a block's leftover and a draw
        eta = sys_.noise_buffer(self.width + draw_steps, chains)
        pos = end = 0

        def read(n):
            nonlocal remaining, pos, end
            if pos + n > end:
                left = end - pos
                eta[:, :left] = eta[:, pos:end].copy()
                draw = min(remaining, draw_steps)
                sys_.lay_noise(self.source.increments(draw), eta[:, left:left + draw])
                pos, end = 0, left + draw
                remaining -= draw
            pos += n
            return sys_.noise_operand(eta[:, pos - n:pos])

        return read


def _stacks(runs: list[_LinearRun]) -> list[list[int]]:
    """Indices of ``runs`` grouped into stacks: runs of one key, in order,
    while a stack steps no more cells than the board of any run in it; a
    run without a key alone.  A stack's records then take no more memory
    than the whole-board batch of any of its runs."""
    groups = {}
    for i, run in enumerate(runs):
        groups.setdefault((i,) if run.key is None else run.key, []).append(i)
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


def _scan(mt: np.ndarray, c: np.ndarray | None, w: np.ndarray, count: int):
    """G, shaped (K, (count+1) b, count b), and the drift's bias, (K, 1,
    count b) or None, of ``count`` records of the step z <- z mt + c + xi w
    of every block of a (K, b, b) stack: [z_0, xi_0 ... xi_(count-1)] G +
    bias = [z_1 ... z_count].  Block (0, k) of G is mt^(k+1) and block
    (j+1, k) is w mt^(k-j) for j <= k, zero above, so raw draws enter the
    product; its leading (2b, b) corner [mt; w] is the single step.  G is
    flushed of subnormals."""
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
    bias = None if c is None else c[:, None] @ np.cumsum(powers[:, :count], axis=1)
    return (g.reshape(k, (count + 1) * b, count * b),
            None if bias is None else bias.reshape(k, 1, count * b))


def _scanned_chunks(runs: list[_LinearRun], spans, start: np.ndarray, burn_plan, stride_plan):
    """Chunks of records of a stack of ideal-source runs, T records one
    product per block, [z_0, xi_0 ... xi_(T-1)] G (``_scan``); the burn-in
    is the T = 1 case.  Yields (k0, states, finite): the full states of
    records k0 .. k0 + count - 1 shaped (count, K, chains, 2, b/2), and
    whether all of them are finite.

    The product runs transposed, G^T times a reused (K, T+1, b, chains)
    operand, each chain a column, so chains are the unit-stride axis of
    every copy in and out.  Each run draws a chunk's xi with one
    ``standard_normal`` call, which reads its stream as per-record draws
    would, and the draws are copied into their slots.  A large power of an
    unstable step can overflow where the states it multiplies do not, so a
    block whose chunk is not finite is stepped again record by record by
    G's corner: its records and its first non-finite one are the loop's.
    """
    first = runs[0]
    chunk, (k_total, chains, b) = first.chunk, start.shape
    operand = np.empty((k_total, chunk + 1, b, chains))
    columns = operand.reshape(k_total, (chunk + 1) * b, chains)
    out = np.empty((k_total, chunk, b, chains))
    draws = np.empty(chunk * start.size)
    operand[:, 0] = _t(start)

    def step(scan, count):
        """Steps ``count`` records into ``out``; whether they are all finite."""
        (gt, bias), width = scan, count * b
        product = out[:, :count].reshape(k_total, width, chains)
        np.matmul(gt[:, :width, :width + b], columns[:, :width + b], out=product)
        if bias is not None:
            product += bias[:, :width]
        finite = np.isfinite(product).all()
        if count > 1 and not finite:
            bad = ~np.isfinite(product).all(axis=(1, 2))
            for k in range(count):
                z = gt[:, :b, :2 * b] @ columns[:, k * b:(k + 2) * b]
                if bias is not None:
                    z += bias[:, :b]
                product[bad, k * b:(k + 1) * b] = z[bad]
                operand[:, k + 1] = z  # xi_k is spent: its slot holds z_(k+1)
            finite = np.isfinite(product).all()
        operand[:, 0] = out[:, count - 1]  # the next records step on from the last
        return finite

    def draw(count):
        for run, lo, hi in zip(runs, spans, spans[1:]):
            xi = draws[:count * run.z.size].reshape((count,) + run.z.shape)
            run.source.standard_normal(out=xi)
            operand[lo:hi, 1:count + 1] = xi.transpose(1, 0, 3, 2)

    def scan(plan, count):
        ((mt, c, w, _),) = plan
        g, bias = _scan(mt, c, w, count)
        return _t(g), None if bias is None else _t(bias)

    if burn_plan:
        draw(1)
        step(scan(burn_plan, 1), 1)
    states = out.reshape(k_total, chunk, 2, b // 2, chains).transpose(1, 0, 4, 2, 3)
    stride_scan = scan(stride_plan, chunk)
    for k0 in range(0, first.per_chain, chunk):
        count = min(chunk, first.per_chain - k0)
        draw(count)
        finite = step(stride_scan, count)
        yield k0, states[:count], finite


def _looped_chunks(run: _LinearRun, start: np.ndarray, burn_plan, stride_plan):
    """Chunks of records of one run stepped record by record: chain noise
    or none.  Each record steps through the blocks of its plan,
    z <- z (M^n)^T + c_n + xi W_n, with xi the block's chain increments
    laid out as (K, chains, n*r) (``_LinearSystem.noise_operand``) and W_n
    the last n*r rows of the kernel stack.  The states of a chunk live in
    a reused buffer of ``chunk + 1`` slots: record k steps from slot k into
    slot k+1, through one spare state when a stride takes several blocks.
    Yields (k0, states, finite) as ``_scanned_chunks`` does.
    """
    chunk, noisy, (k_total, chains, b) = run.chunk, not run.zero_noise, start.shape
    if noisy:
        read = run.chain_reader()
        injected = np.empty_like(start)
    states = np.empty((chunk + 1,) + start.shape)
    states[0] = start
    slots, spare = list(states), np.empty_like(start)
    halves = states.reshape(chunk + 1, k_total, chains, 2, b // 2)
    segments = [(burn_plan, None, 1)] if burn_plan else []
    segments += [(stride_plan, k0, min(chunk, run.per_chain - k0))
                 for k0 in range(0, run.per_chain, chunk)]
    for plan, k0, count in segments:
        for k in range(count):
            # the burn-in steps from the start into slot 0, record k into slot k+1
            z, last = (start, slots[0]) if k0 is None else (slots[k], slots[k + 1])
            nxt = last if len(plan) % 2 else spare  # the plan's last block lands in last
            for mt, c_n, w_n, n in plan:
                np.matmul(z, mt, out=nxt)
                if c_n is not None:
                    nxt += c_n
                if noisy:
                    nxt += np.matmul(read(n), w_n, out=injected)
                z, nxt = nxt, spare if nxt is last else last
        if k0 is not None:
            done = halves[1:count + 1]
            yield k0, done, np.isfinite(done).all()
            states[0] = states[count]  # the next chunk steps on from the last record


@np.errstate(over="ignore", invalid="ignore")  # a non-finite state is raised below
def _run_stack(runs: list[_LinearRun]) -> np.ndarray:
    """Advance a stack of linear runs in exact blocks; record after every stride.

    The runs share their block size b, chain and record counts, kept half,
    chunk and noise source type, and a stack of several runs holds
    ideal-source runs only (``_stacks``).  Their states step together as
    one (K, chains, b) stack of blocks; each run keeps its own step,
    stride, burn-in and noise.  The records keep the runs' ``half`` of each
    block: shaped (chains, per_chain, K, b/2) for one half, (chains,
    per_chain, 2, K, b/2) for both, each block's x half then its p half.  A
    run's slice of the block axis, reshaped, is its stored layout
    (``_LinearSystem.stored``), or that layout's kept half.

    The noise is exogenous to the linear system, so n steps compose
    exactly: z <- z (M^n)^T + c_n + xi W_n, every block at once.  With the
    ideal source (a numpy ``Generator``) xi is a standard normal draw
    shaped like z and W_n = chol(S_n)^T, so a burn-in or a stride is one
    step, and a chunk of ``chunk`` records is one product per block, the
    draws entering raw (``_scanned_chunks``).  Chain noise and zero-noise
    runs step record by record (``_looped_chunks``).  Each chunk's full
    states are checked once for a non-finite value, as they are made; a
    bad chunk names the first bad record of a run as that run alone
    would, before the kept half is copied into the records.
    """
    first = runs[0]
    per_chain = first.per_chain
    spans = np.cumsum([0] + [run.z.shape[0] for run in runs])
    start = np.concatenate([run.z for run in runs])
    k_total, chains, b = start.shape

    def stacked(plans):
        """Block j of every run's plan as one block of the stack."""
        steps = []
        for blocks in zip(*plans):
            m_n, c_n, w_n, n = zip(*blocks)
            # a transposed view: a contiguous (M^n)^T rounds differently
            steps.append((_t(np.concatenate(m_n)),
                          None if c_n[0] is None else np.concatenate(c_n),
                          None if w_n[0] is None else w_n[0] if len(w_n) == 1
                          else np.concatenate(w_n), n[0]))
        return steps

    plans = [run.plans() for run in runs]
    burn_plan = stacked([p[0] for p in plans])
    stride_plan = stacked([p[1] for p in plans])
    del plans  # the stack holds its own copies of every M^n
    if first.scanned:
        chunks = _scanned_chunks(runs, spans, start, burn_plan, stride_plan)
    else:
        chunks = _looped_chunks(first, start, burn_plan, stride_plan)
    if first.half is None:
        recs = np.empty((chains, per_chain, 2, k_total, b // 2))
        records = recs.transpose(1, 3, 0, 2, 4)
    else:
        recs = np.empty((chains, per_chain, k_total, b // 2))
        records = recs.transpose(1, 2, 0, 3)
    for k0, done, finite in chunks:
        if not finite:
            finite = np.isfinite(done).all(axis=(2, 3, 4))  # (count, K)
            k = int(np.argmin(finite.all(axis=1)))
            run = runs[np.searchsorted(spans, np.argmin(finite[k]), "right") - 1]
            raise NonFiniteStateError(
                f"non-finite state at step {run.burn_steps + (k0 + k + 1) * run.stride} "
                f"(record {k0 + k})")
        records[k0:k0 + len(done)] = done if first.half is None else done[:, :, :, first.half]
    return recs


def _run_linear(sys_: _LinearSystem, z: np.ndarray, source, per_chain: int,
                stride: int, burn_steps: int, zero_noise: bool) -> np.ndarray:
    """One linear run of the block engine (``_run_stack``), ``z`` in the
    system's block layout (``_LinearSystem.to_blocks``); the records are
    shaped (chains, per_chain) + the stored layout of one chain
    (``_LinearSystem.stored``)."""
    recs = _run_stack([_LinearRun(sys_, z, source, per_chain, stride, burn_steps, zero_noise)])
    return recs.reshape(recs.shape[:2] + sys_.stored(z).shape[1:])


@np.errstate(over="ignore", invalid="ignore")  # a non-finite state is raised below
def integrate_udl(spec: GenericLangevinSpec, x0, p0, cfg: TrajectoryConfig):
    """Semi-implicit Euler-Maruyama for the underdamped Langevin equations.

    Returns recorded positions and momenta, shaped (n, d) for a single
    chain and (chains, n, d) otherwise.  A ``QuadraticPotential`` makes the
    system linear, so it runs on the exact block engine of
    ``integrate_circuit``; any other gradient callable is stepped
    explicitly, one integrator step at a time.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    p0 = np.atleast_2d(np.asarray(p0, dtype=float))
    d = x0.shape[-1]
    chains = cfg.chains
    if x0.shape[0] == 1:
        x0 = np.broadcast_to(x0, (chains, d)).copy()
        p0 = np.broadcast_to(p0, (chains, d)).copy()
    if cfg.dt is None:
        raise ValueError("TrajectoryConfig.dt is required for generic Langevin runs")
    dt = cfg.dt
    stride = cfg.record_stride or 1
    burn_steps = int(round((cfg.burn_in or 0.0) / dt))
    per_chain = cfg.samples_per_chain
    rng = np.random.default_rng(cfg.seed)
    m_inv = spec.mass_inverse(d)
    if isinstance(spec.grad_potential, QuadraticPotential):
        sys_ = _LinearSystem(
            m_inv=m_inv,
            a_mat=spec.grad_potential.matrix,
            gamma_vec=np.full(d, float(spec.damping)),
            amps=np.full(d, math.sqrt(2.0 * spec.damping / spec.beta)),
            dt=dt,
            offset=spec.grad_potential.offset,
        )
        z = sys_.to_blocks(np.concatenate([x0, p0], axis=1))
        recs = _run_linear(sys_, z, rng, per_chain, stride, burn_steps, cfg.zero_noise)
        xs, ps = sys_.cells(recs, 0), sys_.cells(recs, 1)
    else:
        grad = spec.grad_potential
        gm = spec.damping * m_inv
        xs = np.empty((chains, per_chain, d))
        ps = np.empty((chains, per_chain, d))
        x, p = x0.copy(), p0.copy()
        total = burn_steps + per_chain * stride
        noise_amp = 0.0 if cfg.zero_noise else math.sqrt(2.0 * spec.damping * dt / spec.beta)
        k = 0
        for step in range(1, total + 1):
            p = p - dt * grad(x) - dt * (p @ gm.T)
            if noise_amp:
                p += noise_amp * rng.standard_normal((chains, d))
            x = x + dt * (p @ m_inv.T)
            if step > burn_steps and (step - burn_steps) % stride == 0:
                if not np.all(np.isfinite(x)) or not np.all(np.isfinite(p)):
                    raise NonFiniteStateError(f"non-finite state at step {step} (record {k})")
                xs[:, k], ps[:, k] = x, p
                k += 1
    if chains == 1:
        return xs[0], ps[0]
    return xs, ps


@np.errstate(over="ignore", invalid="ignore")  # a non-finite state is raised below
def integrate_odl(spec: GenericLangevinSpec, x0, cfg: TrajectoryConfig):
    """Euler-Maruyama for the overdamped Langevin equation.

    dx = -grad U / gamma dt + N[0, 2 dt / (gamma beta)]; mass is ignored.
    Returns recorded positions, (n, d) or (chains, n, d).
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    d = x0.shape[-1]
    chains = cfg.chains
    if x0.shape[0] == 1:
        x0 = np.broadcast_to(x0, (chains, d)).copy()
    if cfg.dt is None:
        raise ValueError("TrajectoryConfig.dt is required for generic Langevin runs")
    dt = cfg.dt
    stride = cfg.record_stride or 1
    burn_steps = int(round((cfg.burn_in or 0.0) / dt))
    per_chain = cfg.samples_per_chain
    rng = np.random.default_rng(cfg.seed)
    grad = spec.grad_potential
    noise_amp = 0.0 if cfg.zero_noise else math.sqrt(2.0 * dt / (spec.damping * spec.beta))
    xs = np.empty((chains, per_chain, d))
    x = x0.copy()
    total = burn_steps + per_chain * stride
    k = 0
    for step in range(1, total + 1):
        x = x - (dt / spec.damping) * grad(x)
        if noise_amp:
            x += noise_amp * rng.standard_normal((chains, d))
        if step > burn_steps and (step - burn_steps) % stride == 0:
            if not np.all(np.isfinite(x)):
                raise NonFiniteStateError(f"non-finite state at step {step} (record {k})")
            xs[:, k] = x
            k += 1
    return xs[0] if chains == 1 else xs


def autocorrelation(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Normalized autocorrelation of a 1-d series for lags 0..max_lag (FFT-based)."""
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    n = len(x)
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f))[: max_lag + 1] / n
    return acov / acov[0]
