"""Pseudo-random noise chain of the emulated device.

The hardware-faithful chain is: two 16-bit maximal-length LFSRs combined by
XOR (a gold-code stream), duty-cycled by pulse-density modulation to set the
effective noise variance, and smoothed by a first-order RC low-pass so the
marginal distribution approaches a Gaussian.  Algorithm-level experiments
default to exact Gaussian noise, which the integrator in ``langevin`` draws
itself; the chain is the opt-in mode for studying noise-source
non-idealities.

The LFSR is a Fibonacci (external-XOR) register with feedback taps at bit
positions 16, 15, 13 and 4, i.e. the primitive polynomial
x^16 + x^15 + x^13 + x^4 + 1.  From any nonzero seed the state sequence
walks one cycle of length 2^16 - 1, so arbitrary streams can be read out of
a single precomputed period at the seed's phase offset; this is exact, not
an approximation.  ``ChainNoiseSource`` keeps that period twice over, so
each lane's next bits from each register are one contiguous slice starting
at the lane's phase: no per-bit modulo index is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import signal

LFSR_BITS = 16
LFSR_PERIOD = (1 << LFSR_BITS) - 1
TAPS = (16, 15, 13, 4)
_TAP_SHIFTS = tuple(t - 1 for t in TAPS)  # bit indices 15, 14, 12, 3


@dataclass(frozen=True)
class LfsrState:
    """Register contents of one 16-bit LFSR; zero is the invalid absorbing state."""

    register: int

    def __post_init__(self):
        if not isinstance(self.register, (int, np.integer)):
            raise TypeError("register must be an integer")
        if not 0 < self.register <= LFSR_PERIOD:
            raise ValueError(f"register must be a nonzero 16-bit value, got {self.register}")


def lfsr_step(state: LfsrState) -> tuple[LfsrState, int]:
    """Advance one step; emits the outgoing MSB and shifts the feedback bit in."""
    r = state.register
    fb = ((r >> _TAP_SHIFTS[0]) ^ (r >> _TAP_SHIFTS[1])
          ^ (r >> _TAP_SHIFTS[2]) ^ (r >> _TAP_SHIFTS[3])) & 1
    out = (r >> (LFSR_BITS - 1)) & 1
    return LfsrState(((r << 1) | fb) & LFSR_PERIOD), out


def gold_bit(state_a: LfsrState, state_b: LfsrState) -> tuple[tuple[LfsrState, LfsrState], int]:
    """XOR of the two stepped LFSR outputs (one gold-code bit)."""
    state_a, bit_a = lfsr_step(state_a)
    state_b, bit_b = lfsr_step(state_b)
    return (state_a, state_b), bit_a ^ bit_b


@lru_cache(maxsize=1)
def _cycle() -> tuple[np.ndarray, np.ndarray]:
    """One full output period starting from state 1, and the state -> phase map.

    The output bits obey s[n] = XOR of s[n - t] over the taps t and, since
    squaring a polynomial over GF(2) squares its argument, the same
    recurrence with every lag scaled by m = 2^j.  Each pass fills a chunk as
    long as the smallest scaled lag 4m from bits already known; m doubles
    once 32m bits are known, so the period takes about fifty numpy passes.
    The register at step k holds bits s[k..k+15], MSB first, so the phase
    map reads every 16-bit window of the sequence at once.
    """
    total = LFSR_PERIOD + LFSR_BITS  # one period plus the wrapped register
    s = np.zeros(total, dtype=np.uint8)
    s[LFSR_BITS - 1] = 1  # register value 1: only its lowest bit set
    filled, m = LFSR_BITS, 1
    while filled < total:
        if filled >= 2 * LFSR_BITS * m:
            m *= 2
        stop = min(filled + min(TAPS) * m, total)
        chunk = np.zeros(stop - filled, dtype=np.uint8)
        for tap in TAPS:
            chunk ^= s[filled - tap * m:stop - tap * m]
        s[filled:stop] = chunk
        filled = stop
    assert np.array_equal(s[LFSR_PERIOD:], s[:LFSR_BITS]), \
        "LFSR cycle did not close after one full period"
    states = np.zeros(LFSR_PERIOD, dtype=np.int64)
    for i in range(LFSR_BITS):  # shift in window position i of every step at once
        states = (states << 1) | s[i:i + LFSR_PERIOD]
    phase = np.zeros(LFSR_PERIOD + 1, dtype=np.int64)
    phase[states] = np.arange(LFSR_PERIOD)
    bits = s[:LFSR_PERIOD].copy()
    bits.setflags(write=False)
    phase.setflags(write=False)
    return bits, phase


@lru_cache(maxsize=1)
def _doubled_cycle() -> np.ndarray:
    """The output period twice over, so a window of up to one period that
    starts anywhere in the first copy is a contiguous slice."""
    bits = np.tile(_cycle()[0], 2)
    bits.setflags(write=False)
    return bits


def lfsr_bits(seed: int, n: int) -> np.ndarray:
    """First ``n`` output bits from ``seed``, read out of the precomputed cycle."""
    LfsrState(seed)
    bits, phase = _cycle()
    idx = (phase[seed] + np.arange(n, dtype=np.int64)) % LFSR_PERIOD
    return bits[idx]


def gold_bits(seed_a: int, seed_b: int, n: int) -> np.ndarray:
    """Gold-code stream: XOR of two LFSR streams with distinct seeds."""
    return lfsr_bits(seed_a, n) ^ lfsr_bits(seed_b, n)


def lfsr_period(seed: int, limit: int = 1 << 18) -> int:
    """Cycle length from ``seed`` by direct iteration (brute-force check)."""
    state = LfsrState(seed)
    s, _ = lfsr_step(state)
    n = 1
    while s.register != seed:
        s, _ = lfsr_step(s)
        n += 1
        if n > limit:
            raise RuntimeError(f"no cycle within {limit} steps from seed {seed}")
    return n


def pdm_enable(n: int, duty_cycle: float, offset: int = 0) -> np.ndarray:
    """First-order sigma-delta (error-feedback) enable pattern of density ``duty_cycle``.

    Closed form of the accumulator recursion: enable[k] = floor((k+1)*duty)
    - floor(k*duty), which distributes the on-pulses as evenly as possible.
    """
    if not 0.0 <= duty_cycle <= 1.0:
        raise ValueError("duty_cycle must be in [0, 1]")
    k = np.arange(offset, offset + n, dtype=np.int64)
    return (np.floor((k + 1) * duty_cycle) - np.floor(k * duty_cycle)).astype(np.int8)


def pdm_gate(stream: np.ndarray, duty_cycle: float, offset: int = 0) -> np.ndarray:
    """AND of a bit stream with the PDM enable pattern.

    Works for {0,1} or zero-mean +-1 encodings; in the latter case the
    output RMS scales with sqrt(duty_cycle).
    """
    stream = np.asarray(stream)
    return stream * pdm_enable(stream.shape[-1], duty_cycle, offset=offset)


def rc_filter(stream: np.ndarray, time_constant: float, dt: float,
              initial: float | np.ndarray = 0.0) -> np.ndarray:
    """First-order IIR low-pass y[n] = y[n-1] + dt/(dt+tau) * (x[n] - y[n-1]).

    DC gain is exactly 1.  Filtering runs along the last axis; ``initial``
    is the y[-1] state (broadcast across leading axes).
    """
    if time_constant <= 0 or dt <= 0:
        raise ValueError("time_constant and dt must be strictly positive")
    x = np.asarray(stream, dtype=float)
    alpha = dt / (dt + time_constant)
    zi_shape = x.shape[:-1] + (1,)
    zi = np.broadcast_to(np.asarray(initial, dtype=float)[..., None]
                         if np.ndim(initial) else np.full(zi_shape, float(initial)), zi_shape)
    zi = zi * (1.0 - alpha)
    y, _ = signal.lfilter([alpha], [1.0, -(1.0 - alpha)], x, axis=-1, zi=zi)
    return y


@dataclass(frozen=True)
class NoiseChainConfig:
    """Settings of the hardware-faithful pseudo-random noise chain.

    ``duty_cycle`` is the PDM density and acts as the noise level: the
    injected variance scales linearly with it.  ``saturation`` optionally
    models driver compression as a soft (tanh) clip at the given level in
    units of the full-duty stream RMS; None disables it.  The defaults give
    a chain whose filtered spectrum is flat over the resonator band.
    """

    seed_a: int = 0xACE1
    seed_b: int = 0x1D2F
    duty_cycle: float = 1.0
    bit_rate: float = 96e6
    rc_time_constant: float = 8.0 / 96e6
    saturation: float | None = None

    def __post_init__(self):
        LfsrState(self.seed_a)
        LfsrState(self.seed_b)
        if self.seed_a == self.seed_b:
            raise ValueError("seed_a and seed_b must differ (decorrelation)")
        if not 0.0 <= self.duty_cycle <= 1.0:
            raise ValueError("duty_cycle must be in [0, 1]")
        if self.bit_rate <= 0 or self.rc_time_constant <= 0:
            raise ValueError("bit_rate and rc_time_constant must be positive")

    @classmethod
    def matched(cls, tau_corr: float, bits_per_tau: float = 400.0,
                rc_bits: float = 8.0, **kwargs) -> "NoiseChainConfig":
        """Chain settings scaled to a circuit's correlation time.

        The absolute defaults describe the physical board; for circuits in
        normalized units, this keeps the bit rate a fixed multiple of the
        correlation rate and the RC corner above the resonator band, so the
        chain is neither absurdly oversampled nor colored in-band.
        """
        if tau_corr <= 0:
            raise ValueError("tau_corr must be positive")
        bit_rate = bits_per_tau / tau_corr
        return cls(bit_rate=bit_rate, rc_time_constant=rc_bits / bit_rate, **kwargs)


class ChainNoiseSource:
    """Current-noise increments produced by the emulated LFSR chain.

    Every (chain, cell) lane runs its own gold-code pair.  Each lane's two
    LFSRs start at the phases of ``seed_a`` and ``seed_b`` in the underlying
    maximal-length cycle, each advanced by an offset drawn from the master
    seed.  The bit stream is PDM-gated, RC-filtered, optionally
    soft-saturated, and scaled so its in-band current PSD matches
    duty_cycle * kappa0 at full duty calibration.  Bits are piecewise
    constant over ``substeps_per_bit`` integrator steps.  ``increments``
    gives the per-step charge increments the integrator injects; ``stages``
    exposes the per-bit values of every stage.
    """

    def __init__(self, config: NoiseChainConfig, seed: int, dimension: int,
                 kappa0, dt: float, chains: int = 1):
        self.config = config
        self.dimension = dimension
        self.chains = chains
        self.dt = dt
        kappa0 = np.broadcast_to(np.asarray(kappa0, dtype=float), (dimension,))
        bit_period = 1.0 / config.bit_rate
        sub = max(1, round(bit_period / dt))
        if not np.isclose(sub * dt, bit_period, rtol=1e-6):
            raise ValueError(
                f"dt ({dt:.3e}) must divide the bit period ({bit_period:.3e}); "
                f"round it to bit_period / {sub}"
            )
        self.substeps_per_bit = sub
        # In-band two-sided current PSD of the gated +-1 stream is duty / bit_rate;
        # this gain makes it equal 2 * duty * kappa0 (temperature scales with duty).
        self._gain = np.sqrt(2.0 * kappa0 * config.bit_rate)
        rng = np.random.default_rng(seed)
        lanes = chains * dimension
        _, phase = _cycle()
        self._phase_a = (phase[config.seed_a]
                         + rng.integers(0, LFSR_PERIOD, size=lanes)) % LFSR_PERIOD
        self._phase_b = (phase[config.seed_b]
                         + rng.integers(0, LFSR_PERIOD, size=lanes)) % LFSR_PERIOD
        clash = self._phase_a == self._phase_b
        self._phase_b[clash] = (self._phase_b[clash] + 1 + np.arange(clash.sum())) % LFSR_PERIOD
        self._bit_index = 0
        self._rc_state = np.zeros(lanes)
        self._leftover: np.ndarray | None = None

    def stages(self, n_bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance every lane by ``n_bits`` bits; each stage as a (lanes, n_bits) array.

        Returns the gold-code bits (0/1), the PDM-gated +-1 stream and the
        RC-filtered (and, if configured, saturated) value per bit, before
        the current gain.  At most one LFSR period can be read per call.
        """
        if not 0 < n_bits <= LFSR_PERIOD:
            raise ValueError(f"n_bits must be in [1, {LFSR_PERIOD}], got {n_bits}")
        windows = np.lib.stride_tricks.sliding_window_view(_doubled_cycle(), n_bits)
        start = self._bit_index % LFSR_PERIOD
        stream = (windows[(self._phase_a + start) % LFSR_PERIOD]
                  ^ windows[(self._phase_b + start) % LFSR_PERIOD])
        gated = stream.astype(np.float64)
        gated *= 2.0
        gated -= 1.0
        cfg = self.config
        gated *= pdm_enable(n_bits, cfg.duty_cycle, offset=self._bit_index)
        filtered = rc_filter(gated, cfg.rc_time_constant, 1.0 / cfg.bit_rate,
                             initial=self._rc_state)
        self._rc_state = filtered[:, -1].copy()
        self._bit_index += n_bits
        if cfg.saturation is not None:
            # fixed hardware headroom, expressed in full-duty RMS units
            v = cfg.saturation * _filtered_rms(cfg)
            filtered = v * np.tanh(filtered / v)
        return stream, gated, filtered

    def increments(self, n_steps: int) -> np.ndarray:
        """Charge increments current * dt of shape (n_steps, chains, dimension)."""
        out = np.empty((n_steps, self.chains * self.dimension))
        filled = 0
        if self._leftover is not None and self._leftover.shape[1] > 0:
            take = min(n_steps, self._leftover.shape[1])
            out[:take] = self._leftover[:, :take].T
            self._leftover = self._leftover[:, take:] if take < self._leftover.shape[1] else None
            filled = take
        while filled < n_steps:
            n_bits = max(1, min(8192, -(-(n_steps - filled) // self.substeps_per_bit)))
            block = self.stages(n_bits)[2]
            vals = (block if self.substeps_per_bit == 1
                    else np.repeat(block, self.substeps_per_bit, axis=1))
            take = min(n_steps - filled, vals.shape[1])
            out[filled:filled + take] = vals[:, :take].T
            if take < vals.shape[1]:
                self._leftover = vals[:, take:]
            filled += take
        out = out.reshape(n_steps, self.chains, self.dimension)
        out *= self._gain * self.dt
        return out


def _filtered_rms(cfg: NoiseChainConfig) -> float:
    """RMS of the RC-filtered full-duty +-1 stream (white-input IIR identity)."""
    alpha = (1.0 / cfg.bit_rate) / (1.0 / cfg.bit_rate + cfg.rc_time_constant)
    return float(np.sqrt(alpha / (2.0 - alpha)))
