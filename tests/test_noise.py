"""Tests for the pseudo-random noise chain."""

import numpy as np
import pytest
from scipy import stats

from spusim.noise import (LFSR_BITS, LFSR_PERIOD, ChainNoiseSource, LfsrState,
                          NoiseChainConfig, _cycle, gold_bits, lfsr_bits, lfsr_step,
                          pdm_enable, pdm_gate, rc_filter)

# output of the first 64 steps from seed 0x0001, pinned at first implementation
GOLDEN_SEED1_64 = "0000000000000001000100010001101000011010010110110100100010111100"


def gold_bit(state_a, state_b):
    """XOR of the two stepped LFSR outputs (one gold-code bit), by single steps."""
    state_a, bit_a = lfsr_step(state_a)
    state_b, bit_b = lfsr_step(state_b)
    return (state_a, state_b), bit_a ^ bit_b


def lfsr_period(seed, limit=1 << 18):
    """Cycle length from ``seed`` by direct iteration (brute-force check)."""
    s, _ = lfsr_step(LfsrState(seed))
    n = 1
    while s.register != seed:
        s, _ = lfsr_step(s)
        n += 1
        if n > limit:
            raise RuntimeError(f"no cycle within {limit} steps from seed {seed}")
    return n


def registers_by_phase():
    """The register at each phase of the cycle: the inverse of the phase map."""
    _, phase = _cycle()
    register = np.empty(LFSR_PERIOD, dtype=np.int64)
    register[phase[1:]] = np.arange(1, LFSR_PERIOD + 1)
    return register


class TestLfsr:
    def test_zero_register_rejected(self):
        with pytest.raises(ValueError):
            LfsrState(0)
        with pytest.raises(ValueError):
            LfsrState(1 << 16)

    def test_full_period_from_seed_one(self):
        assert lfsr_period(1) == LFSR_PERIOD

    def test_one_bit_balance_over_period(self):
        bits = lfsr_bits(1, LFSR_PERIOD)
        assert int(bits.sum()) == 32768
        assert int((1 - bits).sum()) == 32767

    def test_golden_vector(self):
        bits = lfsr_bits(0x0001, 64)
        assert "".join(map(str, bits.tolist())) == GOLDEN_SEED1_64

    def test_step_matches_cycle_readout(self):
        state = LfsrState(0xBEEF)
        stepped = []
        for _ in range(200):
            state, bit = lfsr_step(state)
            stepped.append(bit)
        np.testing.assert_array_equal(stepped, lfsr_bits(0xBEEF, 200))

    def test_cycle_matches_the_stepped_register(self):
        # the register stepped one bit at a time is the oracle for the
        # vectorized recurrence: same output bits, same state -> phase map
        bits = np.empty(LFSR_PERIOD, dtype=np.uint8)
        phase = np.zeros(LFSR_PERIOD + 1, dtype=np.int64)
        r = 1
        for k in range(LFSR_PERIOD):
            phase[r] = k
            fb = ((r >> 15) ^ (r >> 14) ^ (r >> 12) ^ (r >> 3)) & 1
            bits[k] = (r >> (LFSR_BITS - 1)) & 1
            r = ((r << 1) | fb) & LFSR_PERIOD
        assert r == 1
        got_bits, got_phase = _cycle()
        assert np.array_equal(got_bits, bits)
        assert np.array_equal(got_phase, phase)
        assert got_bits.dtype == bits.dtype and got_phase.dtype == phase.dtype

    @pytest.mark.parametrize("seed", [0x0001, 0x8000, 0x5A5A, 0xFFFF])
    def test_period_via_cycle_phase(self, seed):
        # all nonzero states lie on one cycle, so each seed recurs after the
        # full period and no earlier phase collision exists
        first = lfsr_bits(seed, LFSR_PERIOD)
        again = lfsr_bits(seed, 2 * LFSR_PERIOD)[LFSR_PERIOD:]
        np.testing.assert_array_equal(first, again)


class TestGold:
    def test_equal_seeds_would_cancel(self):
        # x XOR x = 0; the single-step API allows it, the config forbids it
        states = (LfsrState(0x1234), LfsrState(0x1234))
        (_, _), bit = gold_bit(*states)
        assert bit == 0
        with pytest.raises(ValueError):
            NoiseChainConfig(seed_a=0x1234, seed_b=0x1234)

    # the default chain seeds and those of the CLI tests
    SEED_PAIRS = [(0xACE1, 0x1D2F), (0x0042, 0x7FFF)]

    def test_xor_of_two_registers_is_one_register(self):
        # shift-and-add: both registers run one polynomial, so the XOR of
        # their streams is the stream of the XORed registers, over a full
        # period and past the wrap; seed pairs above and random phase pairs
        phases = np.random.default_rng(17).choice(LFSR_PERIOD, size=(2, 12), replace=False)
        pairs = self.SEED_PAIRS + list(zip(*registers_by_phase()[phases].tolist()))
        n = LFSR_PERIOD + 1000
        for a, b in pairs:
            np.testing.assert_array_equal(lfsr_bits(a ^ b, n), gold_bits(a, b, n))

    @pytest.mark.parametrize("seed_a,seed_b", SEED_PAIRS)
    def test_source_reads_each_lane_at_its_one_phase(self, seed_a, seed_b):
        cfg = NoiseChainConfig(seed_a=seed_a, seed_b=seed_b, bit_rate=1.0, rc_time_constant=8.0)
        src = ChainNoiseSource(cfg, seed=21, dimension=3, kappa0=1.0, chains=2)
        register = registers_by_phase()
        _, phase = _cycle()
        reg_a, reg_b = register[src._phase_a], register[src._phase_b]
        np.testing.assert_array_equal(src._phase, phase[reg_a ^ reg_b])
        # the source's own bits, a full period and then past the wrap
        bits = np.concatenate([src.stages(LFSR_PERIOD)[0], src.stages(1000)[0]], axis=1)
        for lane in range(6):
            want = gold_bits(int(reg_a[lane]), int(reg_b[lane]), LFSR_PERIOD + 1000)
            np.testing.assert_array_equal(bits[lane], want)

    def test_distinct_seed_balance(self):
        bits = gold_bits(0xACE1, 0x1D2F, LFSR_PERIOD)
        density = bits.mean()
        assert abs(density - 0.5) < 0.01

    def test_cross_correlation_small(self):
        n = 100_000
        a = gold_bits(0xACE1, 0x1D2F, n).astype(float) * 2 - 1
        b = gold_bits(0x0042, 0x7FFF, n).astype(float) * 2 - 1
        corr = np.dot(a - a.mean(), b - b.mean()) / (n * a.std() * b.std())
        assert abs(corr) < 0.05

    def test_sum_of_two_uniform_streams_is_triangular(self):
        # the analog sum (before the 1-bit XOR reduction) of two independent
        # uniform bit blocks has a triangular density
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2, 300_000)
        b = rng.integers(0, 2, 300_000)
        s = a + b
        freqs = np.bincount(s, minlength=3) / len(s)
        np.testing.assert_allclose(freqs, [0.25, 0.5, 0.25], atol=0.01)


class TestPdm:
    def test_duty_one_is_identity(self):
        stream = gold_bits(0xACE1, 0x1D2F, 1000)
        np.testing.assert_array_equal(pdm_gate(stream, 1.0), stream)

    def test_duty_zero_is_silence(self):
        stream = np.ones(1000, dtype=np.int8)
        assert pdm_gate(stream, 0.0).sum() == 0

    def test_long_run_density(self):
        enable = pdm_enable(1_000_000, 0.25)
        assert abs(enable.mean() - 0.25) < 0.0025

    def test_rms_scales_with_sqrt_duty(self):
        stream = gold_bits(0xACE1, 0x1D2F, 200_000).astype(float) * 2 - 1
        for duty in (0.1, 0.5, 0.9):
            gated = pdm_gate(stream, duty)
            assert np.sqrt(np.mean(gated ** 2)) == pytest.approx(np.sqrt(duty), rel=0.02)


class TestRcFilter:
    def test_dc_gain_one(self):
        y = rc_filter(np.full(5000, 3.7), time_constant=10.0, dt=1.0)
        assert y[-1] == pytest.approx(3.7, rel=1e-6)

    def test_step_response_time_constant(self):
        dt, tau = 0.001, 1.0
        y = rc_filter(np.ones(2000), tau, dt)
        # value after tau seconds of a unit step is 1 - 1/e
        assert y[int(tau / dt) - 1] == pytest.approx(1 - np.exp(-1), abs=0.002)

    def test_linear_time_invariant(self):
        rng = np.random.default_rng(1)
        x1, x2 = rng.standard_normal((2, 4000))
        lhs = rc_filter(2.0 * x1 - 0.5 * x2, 5.0, 0.1)
        rhs = 2.0 * rc_filter(x1, 5.0, 0.1) - 0.5 * rc_filter(x2, 5.0, 0.1)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_filtered_bits_near_gaussian(self):
        # tau * bit_rate >= 100 averages enough bits for normality at the 1% level
        bits = gold_bits(0xACE1, 0x1D2F, 1_000_000).astype(float) * 2 - 1
        y = rc_filter(bits, time_constant=150.0, dt=1.0)
        decimated = y[2000::600]  # roughly independent draws
        assert stats.normaltest(decimated).pvalue > 0.01


class TestRcFilterOracle:
    """The blocked one-pole filter against scipy's sequential ``lfilter``."""

    @staticmethod
    def lfilter(x, tau, dt, initial):
        from scipy import signal
        alpha = dt / (dt + tau)
        zi = (np.asarray(initial, dtype=float) * (1.0 - alpha))[..., None]
        return signal.lfilter([alpha], [1.0, alpha - 1.0], x, axis=-1, zi=zi)[0]

    @pytest.mark.parametrize("blocks,extra", [(0, 1), (0, 7), (1, 0), (2, 0), (80, 0),
                                              (80, 13), (2621, 10)])
    @pytest.mark.parametrize("tau", [8.0, 150.0])
    def test_matches_lfilter_with_initial_state(self, blocks, extra, tau):
        from spusim.noise import _FILTER_BLOCK
        n = blocks * _FILTER_BLOCK + extra
        rng = np.random.default_rng(n)
        x = rng.standard_normal((3, n))
        initial = 5.0 * rng.standard_normal(3)
        want = self.lfilter(x, tau, 1.0, initial)
        got = rc_filter(x, tau, 1.0, initial=initial)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    def test_one_dimensional_stream_and_scalar_initial(self):
        x = np.random.default_rng(3).standard_normal(4099)
        want = self.lfilter(x, 4.0, 0.5, 0.75)
        np.testing.assert_allclose(rc_filter(x, 4.0, 0.5, initial=0.75), want,
                                   rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("n", [1, 24, 25, 26, 50, 649, 650, 16_276])
    def test_one_dimensional_stream_matches_the_sequential_recursion(self, n):
        # a 1-D stream takes one (blocks x 25) product a level; 16,276 steps
        # run three levels down with a partial block at each
        x = np.random.default_rng(n).standard_normal(n)
        alpha = 0.5 / (0.5 + 4.0)
        want, y = np.empty(n), -1.25
        for i, value in enumerate(x):
            y = y + alpha * (value - y)
            want[i] = y
        got = rc_filter(x, 4.0, 0.5, initial=-1.25)
        assert got.shape == (n,)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


class TestChainSource:
    def test_increment_psd_calibration(self):
        # two-sided in-band current PSD must match 2 * duty * kappa0, so the
        # one-sided Welch estimate should read 4 * duty * kappa0
        kappa0, duty = 2.5, 0.4
        cfg = NoiseChainConfig(duty_cycle=duty, bit_rate=1.0, rc_time_constant=4.0)
        src = ChainNoiseSource(cfg, seed=3, dimension=1, kappa0=kappa0, chains=8)
        inc = src.increments(400_000)[:, :, 0].T  # (chains, n), current * bit period 1
        from scipy import signal
        f, psd = signal.welch(inc, fs=1.0, nperseg=8192, axis=1)
        band = (f > 0.001) & (f < 0.01)  # well below the RC corner at 1/(2 pi 4)
        measured = psd[:, band].mean()
        assert measured == pytest.approx(4 * duty * kappa0, rel=0.15)

    def test_deterministic(self):
        cfg = NoiseChainConfig(duty_cycle=0.5)
        kw = dict(seed=9, dimension=2, kappa0=1e-13, chains=2)
        a = ChainNoiseSource(cfg, **kw).increments(5000)
        b = ChainNoiseSource(cfg, **kw).increments(5000)
        np.testing.assert_array_equal(a, b)

    def test_empty_and_negative_counts(self):
        cfg = NoiseChainConfig(duty_cycle=0.6, bit_rate=1.0, rc_time_constant=8.0)
        kw = dict(seed=5, dimension=3, kappa0=0.5, chains=2)
        src = ChainNoiseSource(cfg, **kw)
        assert src.increments(0).shape == (0, 2, 3)
        with pytest.raises(ValueError, match="n_bits.*-3"):
            src.increments(-3)
        # an empty or refused draw leaves the stream where it was
        got = [src.increments(5), src.increments(0), src.increments(7)]
        want = ChainNoiseSource(cfg, **kw)
        np.testing.assert_array_equal(np.concatenate(got),
                                      np.concatenate([want.increments(5), want.increments(7)]))

    def test_saturation_compresses_variance(self):
        kw = dict(seed=2, dimension=1, kappa0=1.0, chains=4)
        free = ChainNoiseSource(NoiseChainConfig(bit_rate=1.0, rc_time_constant=8.0), **kw)
        sat = ChainNoiseSource(NoiseChainConfig(bit_rate=1.0, rc_time_constant=8.0,
                                                saturation=1.0), **kw)
        v_free = free.increments(100_000).var()
        v_sat = sat.increments(100_000).var()
        assert v_sat < 0.8 * v_free

    def test_stages_are_lane_major_and_feed_increments(self):
        # stages keeps its (lanes, n_bits) layout; increments are the same
        # filtered values step-major, times the current gain and the bit period (1 here)
        cfg = NoiseChainConfig(duty_cycle=0.7, bit_rate=1.0, rc_time_constant=8.0)
        kw = dict(seed=4, dimension=3, kappa0=0.5, chains=2)
        bits, gated, filtered = ChainNoiseSource(cfg, **kw).stages(300)
        assert bits.shape == gated.shape == filtered.shape == (6, 300)
        assert set(np.unique(bits)) == {0, 1}
        np.testing.assert_array_equal(np.abs(gated[gated != 0]), 1.0)
        increments = ChainNoiseSource(cfg, **kw).increments(300)
        assert increments.shape == (300, 2, 3)
        np.testing.assert_array_equal(increments.reshape(300, 6), filtered.T)

    def test_increments_match_per_lane_reference(self):
        # equal to the chain assembled lane by lane from lfsr_bits, over
        # uneven call sizes and past the
        # 2^16 - 1 cycle wrap; to rounding only, since the blocked RC filter's
        # rounding depends on where the calls split the stream (a wrong bit,
        # phase, gate or gain moves a value by about 0.1, not 1e-16)
        from spusim.noise import _cycle, _filtered_rms
        cfg = NoiseChainConfig(duty_cycle=0.6, bit_rate=1.0, rc_time_constant=8.0,
                               saturation=1.5)
        chains, d = 2, 2
        kappa0 = np.array([0.7, 1.9])
        src = ChainNoiseSource(cfg, seed=12, dimension=d, kappa0=kappa0, chains=chains)
        sizes = [1, 5, 24_575, 2, 100_000, 85_417]
        got = np.concatenate([src.increments(n) for n in sizes])
        n_bits = sum(sizes)
        assert n_bits > LFSR_PERIOD
        _, phase = _cycle()
        register = np.empty(LFSR_PERIOD, dtype=np.int64)
        register[phase[1:]] = np.arange(1, LFSR_PERIOD + 1)
        v = cfg.saturation * _filtered_rms(cfg)
        want = np.empty((n_bits, chains * d))
        for lane in range(chains * d):
            bits = (lfsr_bits(int(register[src._phase_a[lane]]), n_bits)
                    ^ lfsr_bits(int(register[src._phase_b[lane]]), n_bits))
            gated = (bits.astype(float) * 2.0 - 1.0) * pdm_enable(n_bits, cfg.duty_cycle)
            filtered = rc_filter(gated, cfg.rc_time_constant, 1.0 / cfg.bit_rate)
            want[:, lane] = v * np.tanh(filtered / v)
        want = want.reshape(n_bits, chains, d)
        want *= np.sqrt(2.0 * kappa0 * cfg.bit_rate) / cfg.bit_rate
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


class TestDrive:
    """``drive`` hands the engine its input and prefilter; filtered by the
    prefilter and scaled by ``step_gain``, it is ``increments``."""

    KW = dict(seed=8, dimension=3, kappa0=np.array([0.5, 1.1, 0.2]), chains=2)

    @pytest.mark.parametrize("duty", [1.0, 0.6])
    def test_linear_chain_hands_raw_gated_bits(self, duty):
        cfg = NoiseChainConfig(duty_cycle=duty, bit_rate=1.0, rc_time_constant=8.0)
        src = ChainNoiseSource(cfg, **self.KW)
        sizes = [1, 700, 4096, 65_535, 3]  # past the 2^16 - 1 cycle wrap
        parts = [src.drive(n) for n in sizes]
        assert all(pre == parts[0][1] for _, pre in parts)
        (pole, gain), x = parts[0][1], np.concatenate([x for x, _ in parts])
        assert (pole, gain) == pytest.approx((8.0 / 9.0, 1.0 / 9.0), rel=1e-15)
        assert set(np.unique(x)) == ({-1.0, 1.0} if duty == 1.0 else {-1.0, 0.0, 1.0})
        filtered = rc_filter(x.reshape(len(x), -1).T, 8.0, 1.0).T.reshape(x.shape)
        want = ChainNoiseSource(cfg, **self.KW).increments(len(x))
        np.testing.assert_allclose(filtered * src.step_gain, want, rtol=0,
                                   atol=1e-13 * np.abs(want).max())

    def test_saturated_chain_hands_its_increments_before_the_gain(self):
        cfg = NoiseChainConfig(duty_cycle=0.6, bit_rate=1.0, rc_time_constant=8.0,
                               saturation=1.5)
        src = ChainNoiseSource(cfg, **self.KW)
        sizes = (5, 1000, 17)  # the blocked filter rounds by where calls split
        x = np.concatenate([src.drive(n)[0] for n in sizes])
        assert src.drive(1)[1] == (0.0, 1.0)
        twin = ChainNoiseSource(cfg, **self.KW)
        want = np.concatenate([twin.increments(n) for n in sizes])
        np.testing.assert_array_equal(x * src.step_gain, want)

    def test_the_engine_holds_the_filter_state(self):
        cfg = NoiseChainConfig(bit_rate=1.0, rc_time_constant=8.0)
        src = ChainNoiseSource(cfg, **self.KW)
        src.drive(10)
        for read in (src.increments, src.stages):
            with pytest.raises(RuntimeError, match="handed to the engine"):
                read(5)
        moved = ChainNoiseSource(cfg, **self.KW)
        moved.increments(3)
        with pytest.raises(RuntimeError, match="at rest"):
            moved.drive(10)
        with pytest.raises(ValueError, match="n_bits"):
            ChainNoiseSource(cfg, **self.KW).drive(0)


class TestChainDigests:
    """SHA-256 of chain-source outputs, as written by the source that read each
    register's bits separately and XORed them (numpy 2.4, x86-64)."""

    @staticmethod
    def digest(*arrays):
        import hashlib
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    SIZES = [1, 5, 24_575, 2, 100_000, 85_417]
    INCREMENTS = {
        "gated": "80cfcc88391295d7be9f143a28031ae9858d7e7367e46f3f17084d9adf856515",
        "one-lane": "a2a3eeac8823facb4778d7cab10a7f863c07aa9a03c47c5935cffbcd6c1aa270",
    }

    @staticmethod
    def held_over_substeps(src, kappa0, sizes, sub):
        """The stream of a source that held each bit over ``sub`` integrator
        steps and was read ``sizes`` steps a call: the filtered values of
        ``drive``, bits filtered in that source's calls of at most 8192,
        each held over ``sub`` steps, times the current and the step."""
        calls, left = [], 0
        for n in sizes:
            have = min(left, n)
            left -= have
            while have < n:
                bits = max(1, min(8192, -(-(n - have) // sub)))
                calls.append(bits)
                take = min(n - have, bits * sub)
                left, have = bits * sub - take, have + take
        held = np.repeat(np.concatenate([src.drive(n)[0] for n in calls]), sub, axis=0)
        return held[:sum(sizes)] * (np.sqrt(2.0 * kappa0 * src.config.bit_rate) * (1.0 / sub))

    @pytest.mark.parametrize("case", sorted(INCREMENTS))
    def test_increments_over_uneven_calls(self, case):
        if case == "gated":  # duty < 1, saturation, each bit held over three steps
            cfg = NoiseChainConfig(duty_cycle=0.6, bit_rate=1.0, rc_time_constant=8.0,
                                   saturation=1.5)
            kappa0 = np.array([0.7, 1.9])
            src = ChainNoiseSource(cfg, seed=12, dimension=2, kappa0=kappa0, chains=2)
            parts = [self.held_over_substeps(src, kappa0, self.SIZES, 3)]
        else:  # full duty, one bit a step
            cfg = NoiseChainConfig(bit_rate=1.0, rc_time_constant=8.0)
            src = ChainNoiseSource(cfg, seed=13, dimension=1, kappa0=0.4)
            parts = [src.increments(n) for n in self.SIZES]
        assert all(p.shape[1:] == (src.chains, src.dimension) for p in parts)
        assert self.digest(*parts) == self.INCREMENTS[case]

    STAGES = {
        300: "81da0dcb779487968a90b0507f9eae763ec8efd8b36782a9141b7dbab1c4832f",
        8192: "6f06f34d82f64747d7e0cf77322d5e2fcf6e7acd13a93b74f768252171ad9aaa",
        65_535: "7065b2c08858f8047e330520614f5a41868382cfe251c988bb3036c771f181d6",
    }

    def test_stages_in_successive_calls(self):
        cfg = NoiseChainConfig(duty_cycle=0.6, bit_rate=1.0, rc_time_constant=8.0)
        src = ChainNoiseSource(cfg, seed=14, dimension=3, kappa0=0.5, chains=2)
        for n_bits, want in self.STAGES.items():
            bits, gated, filtered = src.stages(n_bits)
            assert bits.dtype == np.uint8 and bits.shape == (6, n_bits)
            assert np.signbit(gated[gated == 0]).any()  # gated-off -1 bits stay -0.0
            assert self.digest(bits, gated, filtered) == want
