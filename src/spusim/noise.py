"""Pseudo-random noise chain of the emulated device.

The hardware-faithful chain is: two 16-bit maximal-length LFSRs combined by
XOR (called the gold-code stream here), duty-cycled by pulse-density
modulation to set the effective noise variance, and smoothed by a
first-order RC low-pass so the marginal distribution approaches a
Gaussian.  Algorithm-level experiments default to exact Gaussian noise,
which the integrator in ``langevin`` draws itself; the chain is the opt-in
mode for studying noise-source non-idealities.  The chain runs on its bit
clock alone: ``ChainNoiseSource`` makes one value a bit per lane, and how
many integrator substeps a bit spans is decided in ``langevin``.

The LFSR is a Fibonacci (external-XOR) register with feedback taps at bit
positions 16, 15, 13 and 4, i.e. the primitive polynomial
x^16 + x^15 + x^13 + x^4 + 1.  From any nonzero seed the state sequence
walks one cycle of length 2^16 - 1, so arbitrary streams can be read out of
a single precomputed period at the seed's phase offset; this is exact, not
an approximation.

Both registers share that one polynomial, so by the shift-and-add property
of m-sequences (Golomb, "Shift Register Sequences", 1967) the XOR of their
streams is the same m-sequence at a third phase, the phase of the XORed
registers.  The two-register stream is therefore not a true Gold code,
which needs a preferred pair of distinct polynomials (Gold, 1967).
``ChainNoiseSource`` reads each lane's stream directly at that one phase,
from a +-1 copy of the period kept twice over: a call's bits for every lane
are one gather, with no per-bit modulo index and no XOR.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
def _signed_windows() -> np.ndarray:
    """Every window of the output period as +-1 (bit 1 -> +1, bit 0 -> -1).

    Entry [i, j] is the signed bit at phase (i + j) mod the period, for i
    and j below it: one int8 copy of the period twice over, viewed with
    unit strides on both axes.  The rows at the lanes' phases, columns
    [:n], are the next n bits of every lane, lane-major, in one gather.
    """
    signed = np.tile(_cycle()[0].astype(np.int8) * 2 - 1, 2)
    return np.lib.stride_tricks.as_strided(signed, shape=(LFSR_PERIOD, LFSR_PERIOD),
                                           strides=(1, 1), writeable=False)


def _registers(phases: np.ndarray) -> np.ndarray:
    """Register contents at each of ``phases``: its next 16 output bits, MSB first."""
    bits = _cycle()[0]
    registers = np.zeros(len(phases), dtype=np.int64)
    for i in range(LFSR_BITS):
        registers = (registers << 1) | bits[(phases + i) % LFSR_PERIOD]
    return registers


def lfsr_bits(seed: int, n: int) -> np.ndarray:
    """First ``n`` output bits from ``seed``, read out of the precomputed cycle."""
    LfsrState(seed)
    bits, phase = _cycle()
    idx = (phase[seed] + np.arange(n, dtype=np.int64)) % LFSR_PERIOD
    return bits[idx]


def gold_bits(seed_a: int, seed_b: int, n: int) -> np.ndarray:
    """Gold-code stream: XOR of two LFSR streams with distinct seeds.

    It equals ``lfsr_bits(seed_a ^ seed_b, n)``, one stream of the same
    register (see the module docstring).
    """
    return lfsr_bits(seed_a, n) ^ lfsr_bits(seed_b, n)


def pdm_enable(n: int, duty_cycle: float, offset: int = 0) -> np.ndarray:
    """First-order sigma-delta (error-feedback) enable pattern of density ``duty_cycle``.

    Closed form of the accumulator recursion: enable[k] = floor((k+1)*duty)
    - floor(k*duty), which distributes the on-pulses as evenly as possible.
    """
    if not 0.0 <= duty_cycle <= 1.0:
        raise ValueError("duty_cycle must be in [0, 1]")
    k = np.arange(offset, offset + n, dtype=np.int64)
    return (np.floor((k + 1) * duty_cycle) - np.floor(k * duty_cycle)).astype(np.int8)


def pdm_gate(stream: np.ndarray, duty_cycle: float) -> np.ndarray:
    """AND of a bit stream with the PDM enable pattern from its first bit.

    Works for {0,1} or zero-mean +-1 encodings; in the latter case the
    output RMS scales with sqrt(duty_cycle).
    """
    stream = np.asarray(stream)
    return stream * pdm_enable(stream.shape[-1], duty_cycle)


def rc_filter(stream: np.ndarray, time_constant: float, dt: float,
              initial: float | np.ndarray = 0.0) -> np.ndarray:
    """First-order IIR low-pass y[n] = y[n-1] + dt/(dt+tau) * (x[n] - y[n-1]).

    DC gain is exactly 1.  Filtering runs along the last axis; ``initial``
    is the y[-1] state (broadcast across leading axes).  The recursion is
    evaluated in blocks (see ``_one_pole``), so it matches the sequential
    recursion to rounding, not bit for bit.
    """
    if time_constant <= 0 or dt <= 0:
        raise ValueError("time_constant and dt must be strictly positive")
    x = np.moveaxis(np.asarray(stream, dtype=float), -1, 0)
    alpha = dt / (dt + time_constant)
    lanes = x.shape[:1] + ((-1,) if x.ndim > 1 else ())  # a 1-D stream stays 1-D
    state = np.broadcast_to(np.asarray(initial, dtype=float), x.shape[1:]).reshape(lanes[1:])
    y = _one_pole(x.reshape(lanes), 1.0 - alpha, alpha, state)
    return np.moveaxis(y.reshape(x.shape), 0, -1)


_FILTER_BLOCK = 25  # steps per block of the one-pole filter


@lru_cache(maxsize=16)
def _pole_block(pole: float, gain: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The response of a ``size``-step block: T[i, j] = gain pole^(i-j) for
    i >= j (else 0) to its inputs and p[i] = pole^(i+1) to the state before
    it.  Powers below the smallest normal float are zeroed, since
    subnormal operands slow every product they enter."""
    k = np.arange(size)
    lag = k[:, None] - k[None, :]
    t = np.where(lag >= 0, gain * pole ** np.maximum(lag, 0), 0.0)
    p = pole ** (k + 1.0)
    tiny = np.finfo(float).tiny
    t[t < tiny] = 0.0
    p[p < tiny] = 0.0
    t.setflags(write=False)
    p.setflags(write=False)
    return t, p


def _one_pole(x: np.ndarray, pole: float, gain: float, state: np.ndarray,
              overwrite: bool = False) -> np.ndarray:
    """y[n] = pole y[n-1] + gain x[n] down axis 0 of a time-major (steps,
    lanes) array, or of a 1-D stream, with y[-1] = ``state`` (lanes,) or ().

    Blocks of B = ``_FILTER_BLOCK`` steps: a block's output is T (x_k +
    e_0 (pole/gain) s_k), where s_k is the state before it, so every block
    is one product with the B x B matrix of ``_pole_block``.  The states
    obey the same recursion over blocks, s_(k+1) = pole^B s_k + u_k with u_k
    the block's response from rest (row B-1 of T x_k), and are found by
    this function one level down.  The blocks of a 1-D stream are the rows
    of one (blocks, B) array, so each level is one product with T^T rather
    than a product per block.  A final partial block takes the leading
    corner of T.  With ``overwrite`` the states are added into ``x`` itself
    instead of a copy of it.
    """
    steps = x.shape[0]
    b = _FILTER_BLOCK
    nb = steps // b
    t, p = _pole_block(pole, gain, b)
    y = np.empty(x.shape)
    if nb:
        blocks = x[:nb * b].reshape((nb, b) + x.shape[1:])
        starts = np.empty((nb,) + x.shape[1:])
        starts[0] = state
        if nb > 1:
            ends = blocks[:-1] @ t[-1] if x.ndim == 1 else np.matmul(t[-1], blocks[:-1])
            starts[1:] = _one_pole(ends, pole ** b, 1.0, state, overwrite=True)
        if not overwrite:
            blocks = blocks.copy()
        blocks[:, 0] += (pole / gain) * starts
        if x.ndim == 1:
            np.matmul(blocks, t.T, out=y[:nb * b].reshape(blocks.shape))
        else:
            np.matmul(t, blocks, out=y[:nb * b].reshape(blocks.shape))
        state = y[nb * b - 1]
    tail = steps - nb * b
    if tail:
        y[nb * b:] = t[:tail, :tail] @ x[nb * b:] + np.multiply.outer(p[:tail], state)
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
    def matched(cls, tau_corr: float, rc_bits: float = 8.0,
                **kwargs) -> "NoiseChainConfig":
        """Chain settings scaled to a circuit's correlation time.

        The absolute defaults describe the physical board; for circuits in
        normalized units, this keeps the bit rate at 400 bits a correlation
        time and the RC corner, ``rc_bits`` bits long, above the resonator
        band, so the chain is neither absurdly oversampled nor colored
        in-band.
        """
        if tau_corr <= 0:
            raise ValueError("tau_corr must be positive")
        bit_rate = 400.0 / tau_corr
        return cls(bit_rate=bit_rate, rc_time_constant=rc_bits / bit_rate, **kwargs)


class ChainNoiseSource:
    """Current-noise increments produced by the emulated LFSR chain.

    Every (chain, cell) lane runs its own gold-code pair.  Each lane's two
    LFSRs start at the phases of ``seed_a`` and ``seed_b`` in the underlying
    maximal-length cycle, each advanced by an offset drawn from the master
    seed.  Both registers run one polynomial, so the XOR of their streams is
    the same m-sequence at a third phase (the shift-and-add property), that
    of the XORed registers; each lane reads its bits at that one phase.  The
    bit stream is PDM-gated, RC-filtered, optionally soft-saturated, and
    scaled by ``step_gain`` so its in-band current PSD matches duty_cycle *
    kappa0 at full duty calibration.  The source knows bits only, and
    ``increments`` gives the charge increments of each bit, step-major;
    ``stages`` exposes the per-bit values of every stage, lane-major.  All
    lanes are filtered together, time-major (bits on axis 0), by the
    blocked one-pole filter of ``rc_filter``, so increments need no
    transpose.

    ``drive`` is what the block engine, which steps once a bit, reads
    instead: the input before the gain and, where it is linear, before the
    filter.  The RC filter is linear, time-invariant and the same on every
    lane, so the engine folds it into its injection kernels, together with
    the gain; a linear chain then never runs the filter here.
    """

    def __init__(self, config: NoiseChainConfig, seed: int, dimension: int,
                 kappa0, chains: int = 1):
        self.config = config
        self.dimension = dimension
        self.chains = chains
        kappa0 = np.broadcast_to(np.asarray(kappa0, dtype=float), (dimension,))
        # In-band two-sided current PSD of the gated +-1 stream is duty / bit_rate;
        # this gain makes it equal 2 * duty * kappa0 (temperature scales with duty).
        bit_period = 1.0 / config.bit_rate
        self.step_gain = np.sqrt(2.0 * kappa0 * config.bit_rate) * bit_period  # charge a bit
        rng = np.random.default_rng(seed)
        lanes = chains * dimension
        _, phase = _cycle()
        self._phase_a = (phase[config.seed_a]
                         + rng.integers(0, LFSR_PERIOD, size=lanes)) % LFSR_PERIOD
        self._phase_b = (phase[config.seed_b]
                         + rng.integers(0, LFSR_PERIOD, size=lanes)) % LFSR_PERIOD
        clash = self._phase_a == self._phase_b
        self._phase_b[clash] = (self._phase_b[clash] + 1 + np.arange(clash.sum())) % LFSR_PERIOD
        # distinct phases hold distinct registers, so their XOR is a nonzero state
        self._phase = phase[_registers(self._phase_a) ^ _registers(self._phase_b)]
        self._bit_index = 0
        self._rc_state: np.ndarray | None = np.zeros(lanes)  # None once ``drive`` holds it
        self._work: np.ndarray | None = None  # gated bits, reused when not returned

    def stages(self, n_bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance every lane by ``n_bits`` bits; each stage as a (lanes, n_bits) array.

        Returns the gold-code bits (0/1), the PDM-gated +-1 stream and the
        RC-filtered (and, if configured, saturated) value per bit, before
        the current gain.  The gated stage is built lane-major; the
        filtered stage is computed time-major, bits on axis 0, and returned
        transposed (a view).  At most one LFSR period can be read per call.
        """
        signed, gated, filtered = self._advance(n_bits, keep_gated=True)
        return (signed > 0).astype(np.uint8), gated, filtered.T

    def _gate(self, n_bits: int, keep: bool) -> tuple[np.ndarray, np.ndarray]:
        """The next ``n_bits`` bits of every lane, lane-major (lanes, n_bits):
        the gold-code bits as +-1 (int8) and the gated stage.  A lane's bits
        are one row of the windows, so the gather copies a run per lane.
        Unless ``keep``, the gated stage is built in a buffer kept across
        calls, which the next call overwrites.
        """
        if not 0 < n_bits <= LFSR_PERIOD:
            raise ValueError(f"n_bits must be in [1, {LFSR_PERIOD}], got {n_bits}")
        start = self._bit_index % LFSR_PERIOD
        signed = _signed_windows()[(self._phase + start) % LFSR_PERIOD, :n_bits]
        if keep:
            gated = np.empty(signed.shape)
        else:
            if self._work is None or self._work.shape[1] < n_bits:
                self._work = np.empty(signed.shape)
            gated = self._work[:, :n_bits]
        np.copyto(gated, signed)
        if self.config.duty_cycle < 1.0:  # a gated-off -1 bit becomes -0.0
            gated *= pdm_enable(n_bits, self.config.duty_cycle, offset=self._bit_index)
        self._bit_index += n_bits
        return signed, gated

    def _advance(self, n_bits: int, keep_gated: bool):
        """``_gate``'s two stages of the next ``n_bits`` bits, then the
        filtered stage, time-major (n_bits, lanes).  Unless ``keep_gated``,
        the gated stage is a reused buffer and None is returned for it.
        """
        if self._rc_state is None:
            raise RuntimeError("the RC filter state was handed to the engine by drive()")
        signed, gated = self._gate(n_bits, keep_gated)
        cfg = self.config
        alpha = _rc_alpha(cfg)
        # time-major, as one C-ordered copy the filter consumes in place
        filtered = _one_pole(np.ascontiguousarray(gated.T), 1.0 - alpha, alpha,
                             self._rc_state, overwrite=True)
        self._rc_state = filtered[-1].copy()
        if cfg.saturation is not None:
            # fixed hardware headroom, expressed in full-duty RMS units
            v = cfg.saturation * _filtered_rms(cfg)
            filtered /= v
            np.tanh(filtered, out=filtered)
            filtered *= v
        return signed, gated if keep_gated else None, filtered

    def increments(self, n_bits: int) -> np.ndarray:
        """Charge increments, current times the bit period, of shape (n_bits,
        chains, dimension): the per-bit reference of what ``drive`` feeds
        the engine.  The bits are filtered at most 8192 a call."""
        if n_bits < 0:
            raise ValueError(f"n_bits must be non-negative, got {n_bits}")
        out = np.empty((n_bits, self.chains, self.dimension))
        lanes = out.reshape(n_bits, self.chains * self.dimension)
        for k in range(0, n_bits, 8192):
            lanes[k:k + 8192] = self._advance(min(8192, n_bits - k), keep_gated=False)[2]
        out *= self.step_gain
        return out

    def drive(self, n_bits: int) -> tuple[np.ndarray, tuple[float, float]]:
        """The block engine's input for the next ``n_bits`` bits, shaped
        (n_bits, chains, dimension) in either memory order, and its
        prefilter (pole, gain).

        The increments are ``step_gain`` times the input filtered by
        y[n] = pole y[n-1] + gain x[n], from y[-1] = 0.  A linear chain
        hands its gated +-1 bits with the chain's RC filter (1 - alpha,
        alpha), so the engine runs the filter, and from then on holds its
        state: ``stages`` and ``increments`` refuse to follow, and the
        filter must be at rest on the first call.  A saturated chain hands
        its filtered and saturated values with the identity prefilter
        (0, 1).  The gated bits are a buffer that the next call overwrites.
        At most one LFSR period of bits is read per call.
        """
        if not 0 < n_bits <= LFSR_PERIOD:
            raise ValueError(f"n_bits must be in [1, {LFSR_PERIOD}], got {n_bits}")
        if self.config.saturation is not None:
            filtered = self._advance(n_bits, keep_gated=False)[2]
            return filtered.reshape(n_bits, self.chains, self.dimension), (0.0, 1.0)
        if self._rc_state is not None and self._rc_state.any():
            raise RuntimeError("drive() starts the engine's RC filter at rest, "
                               "but this source's filter has moved")
        self._rc_state = None
        alpha = _rc_alpha(self.config)
        gated = self._gate(n_bits, keep=False)[1]
        lanes = gated.reshape(self.chains, self.dimension, n_bits)
        return lanes.transpose(2, 0, 1), (1.0 - alpha, alpha)


def _rc_alpha(cfg: NoiseChainConfig) -> float:
    """Per-bit gain dt / (dt + tau) of the chain's RC filter, dt one bit period."""
    return (1.0 / cfg.bit_rate) / (1.0 / cfg.bit_rate + cfg.rc_time_constant)


def _filtered_rms(cfg: NoiseChainConfig) -> float:
    """RMS of the RC-filtered full-duty +-1 stream (white-input IIR identity)."""
    alpha = _rc_alpha(cfg)
    return float(np.sqrt(alpha / (2.0 - alpha)))
