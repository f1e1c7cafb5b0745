"""Tests for the pseudo-random noise chain."""

import numpy as np
import pytest
from scipy import stats

from spusim.noise import (LFSR_BITS, LFSR_PERIOD, ChainNoiseSource, LfsrState,
                          NoiseChainConfig, _cycle, gold_bit, gold_bits, lfsr_bits,
                          lfsr_period, lfsr_step, pdm_enable, pdm_gate, rc_filter)

# output of the first 64 steps from seed 0x0001, pinned at first implementation
GOLDEN_SEED1_64 = "0000000000000001000100010001101000011010010110110100100010111100"


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


class TestChainSource:
    def test_increment_psd_calibration(self):
        # two-sided in-band current PSD must match 2 * duty * kappa0, so the
        # one-sided Welch estimate should read 4 * duty * kappa0
        kappa0, duty = 2.5, 0.4
        cfg = NoiseChainConfig(duty_cycle=duty, bit_rate=1.0, rc_time_constant=4.0)
        src = ChainNoiseSource(cfg, seed=3, dimension=1, kappa0=kappa0, dt=1.0, chains=8)
        inc = src.increments(400_000)[:, :, 0].T  # (chains, n), current * dt with dt=1
        from scipy import signal
        f, psd = signal.welch(inc, fs=1.0, nperseg=8192, axis=1)
        band = (f > 0.001) & (f < 0.01)  # well below the RC corner at 1/(2 pi 4)
        measured = psd[:, band].mean()
        assert measured == pytest.approx(4 * duty * kappa0, rel=0.15)

    def test_deterministic(self):
        cfg = NoiseChainConfig(duty_cycle=0.5)
        kw = dict(seed=9, dimension=2, kappa0=1e-13, dt=1.0 / 96e6, chains=2)
        a = ChainNoiseSource(cfg, **kw).increments(5000)
        b = ChainNoiseSource(cfg, **kw).increments(5000)
        np.testing.assert_array_equal(a, b)

    def test_saturation_compresses_variance(self):
        kw = dict(seed=2, dimension=1, kappa0=1.0, dt=1.0, chains=4)
        free = ChainNoiseSource(NoiseChainConfig(bit_rate=1.0, rc_time_constant=8.0), **kw)
        sat = ChainNoiseSource(NoiseChainConfig(bit_rate=1.0, rc_time_constant=8.0,
                                                saturation=1.0), **kw)
        v_free = free.increments(100_000).var()
        v_sat = sat.increments(100_000).var()
        assert v_sat < 0.8 * v_free

    def test_increments_match_per_lane_reference(self):
        # byte-identical to the chain assembled lane by lane from lfsr_bits,
        # over uneven call sizes (which split bits across calls) and past the
        # 2^16 - 1 cycle wrap
        from spusim.noise import _cycle, _filtered_rms
        cfg = NoiseChainConfig(duty_cycle=0.6, bit_rate=1.0, rc_time_constant=8.0,
                               saturation=1.5)
        sub, chains, d, dt = 3, 2, 2, 1.0 / 3
        kappa0 = np.array([0.7, 1.9])
        src = ChainNoiseSource(cfg, seed=12, dimension=d, kappa0=kappa0, dt=dt, chains=chains)
        sizes = [1, 5, 24_575, 2, 100_000, 85_417]
        got = np.concatenate([src.increments(n) for n in sizes])
        n_steps = sum(sizes)
        n_bits = -(-n_steps // sub)
        assert n_bits > LFSR_PERIOD
        _, phase = _cycle()
        register = np.empty(LFSR_PERIOD, dtype=np.int64)
        register[phase[1:]] = np.arange(1, LFSR_PERIOD + 1)
        v = cfg.saturation * _filtered_rms(cfg)
        want = np.empty((n_steps, chains * d))
        for lane in range(chains * d):
            bits = (lfsr_bits(int(register[src._phase_a[lane]]), n_bits)
                    ^ lfsr_bits(int(register[src._phase_b[lane]]), n_bits))
            gated = (bits.astype(float) * 2.0 - 1.0) * pdm_enable(n_bits, cfg.duty_cycle)
            filtered = rc_filter(gated, cfg.rc_time_constant, 1.0 / cfg.bit_rate)
            want[:, lane] = np.repeat(v * np.tanh(filtered / v), sub)[:n_steps]
        want = want.reshape(n_steps, chains, d)
        want *= np.sqrt(2.0 * kappa0 * cfg.bit_rate) * dt
        assert np.array_equal(got, want)
