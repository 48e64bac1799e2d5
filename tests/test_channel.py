"""Channel statistics, convolution arithmetic, framing, and calibration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisaclab.channel import (
    ChannelConfig,
    apply_channel,
    draw_channel,
    expected_channel_energy,
    frame_received,
    noise_variance_from_snr,
)
from nisaclab.dataset import example_rng
from nisaclab.modem import ppm_modulate


class TestConfig:
    @pytest.mark.parametrize("name", [
        "num_clutter", "weibull_shape", "weibull_scale", "target_power",
        "target_delay", "max_clutter_delay", "tap_count",
    ])
    def test_statistics_are_not_settable(self, name):
        with pytest.raises(TypeError):
            ChannelConfig(**{name: 1})


class TestWeibullScale:
    @pytest.mark.parametrize("shape", [2.0])
    def test_analytic_unit_second_moment(self, shape):
        # the clutter magnitude is Weibull(shape) at scale 1: E[mag^2] = Gamma(1 + 2/shape)
        assert shape == ChannelConfig.weibull_shape
        assert math.gamma(1.0 + 2.0 / shape) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("shape", [2.0])
    def test_monte_carlo_second_moment(self, shape):
        # the unit-scale draw draw_channel makes for each clutter magnitude
        assert shape == ChannelConfig.weibull_shape
        mags = np.random.default_rng(0).weibull(shape, size=100_000)
        assert (mags**2).mean() == pytest.approx(1.0, rel=0.02)

    def test_rayleigh_case_has_unit_scale(self):
        """The taps rebuild from the documented draws: a unit-power target at
        delay 0, then five unit-scale Weibull(2) clutter magnitudes, their
        phases and their delays in 0..4."""
        rng = np.random.default_rng(4)
        target = complex(*rng.normal(scale=math.sqrt(0.5), size=2))
        mags = rng.weibull(2.0, size=5)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=5)
        delays = rng.integers(0, 5, size=5)
        expected = np.zeros(5, dtype=np.complex128)
        expected[0] += target
        np.add.at(expected, delays, mags * np.exp(1j * phases))
        assert np.array_equal(draw_channel(ChannelConfig(), 1, np.random.default_rng(4)), expected)


class TestEnergyAndNoise:
    def test_default_energy(self):
        assert expected_channel_energy(ChannelConfig()) == pytest.approx(5.5, rel=1e-12)

    def test_clutter_adds_its_second_moment(self):
        # beyond half the target power, each clutter tap adds its Weibull second moment
        cfg = ChannelConfig()
        clutter = expected_channel_energy(cfg) - 0.5 * cfg.target_power
        per_tap = math.gamma(1.0 + 2.0 / cfg.weibull_shape)
        assert clutter == pytest.approx(cfg.num_clutter * per_tap, rel=1e-12)

    @pytest.mark.parametrize("v, energy", [(0, 5.0), (1, 6.0)])
    def test_mean_tap_energy_matches_calibration(self, v, energy):
        # five unit-second-moment clutter taps, plus the unit-power target when
        # present; the fair-coin average is expected_channel_energy
        rng = np.random.default_rng(2)
        mean = np.mean([np.sum(np.abs(draw_channel(ChannelConfig(), v, rng)) ** 2)
                        for _ in range(10_000)])
        assert mean == pytest.approx(energy, rel=0.03)

    def test_noise_variance_at_ten_db(self):
        assert noise_variance_from_snr(ChannelConfig(snr_db=10.0)) == pytest.approx(0.55, rel=1e-12)

    def test_noise_variance_at_zero_db(self):
        assert noise_variance_from_snr(ChannelConfig(snr_db=0.0)) == pytest.approx(5.5, rel=1e-12)

    def test_noise_variance_at_three_db(self):
        assert noise_variance_from_snr(ChannelConfig(snr_db=3.0103)) == pytest.approx(2.75, rel=1e-4)


class TestDrawChannel:
    def test_no_clutter_target_only(self):
        # with the clutter taken out (same stream, v=1 minus v=0), only the
        # target is left: the first two draws, at delay 0
        on = draw_channel(ChannelConfig(), 1, np.random.default_rng(3))
        off = draw_channel(ChannelConfig(), 0, np.random.default_rng(3))
        target = complex(*np.random.default_rng(3).normal(scale=math.sqrt(0.5), size=2))
        expected = np.zeros(5, dtype=np.complex128)
        expected[0] = target
        assert np.allclose(on - off, expected, rtol=0.0, atol=1e-12)

    def test_single_clutter_energy(self):
        # with no target, the mean tap energy per clutter tap is one
        cfg = ChannelConfig()
        rng = np.random.default_rng(2)
        energy = np.mean([
            np.abs(draw_channel(cfg, 0, rng) ** 2).sum() for _ in range(20_000)
        ])
        assert energy / cfg.num_clutter == pytest.approx(1.0, rel=0.05)

    def test_target_absent_contributes_nothing(self):
        on = draw_channel(ChannelConfig(), 1, np.random.default_rng(7))
        off = draw_channel(ChannelConfig(), 0, np.random.default_rng(7))
        # identical stream: the only difference is the target tap at delay 0
        assert np.flatnonzero(on - off).tolist() == [0]

    def test_delays_within_range(self):
        # five taps, and clutter reaches every delay 0..4
        rng = np.random.default_rng(1)
        reached = np.zeros(5, dtype=bool)
        for _ in range(200):
            taps = draw_channel(ChannelConfig(), 0, rng)
            assert taps.shape == (5,)
            reached |= taps != 0
        assert reached.all()

    def test_seed_determinism(self):
        a = draw_channel(ChannelConfig(), 1, np.random.default_rng(9))
        b = draw_channel(ChannelConfig(), 1, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_rejects_bad_indicator(self):
        with pytest.raises(ValueError):
            draw_channel(ChannelConfig(), 2, np.random.default_rng(0))

    def test_block_equals_frame_by_frame_calls(self):
        cfg = ChannelConfig()
        seeds, v = range(40), np.arange(40) % 2
        block = draw_channel(cfg, v, [np.random.default_rng(seed) for seed in seeds])
        assert block.shape == (len(seeds), cfg.tap_count)
        for b, seed in enumerate(seeds):
            alone = draw_channel(cfg, int(v[b]), np.random.default_rng(seed))
            assert block[b].tobytes() == alone.tobytes()

    def test_block_sums_repeated_delays_in_draw_order(self):
        # np.add.at's order, written out: target first, then clutter tap by tap
        cfg = ChannelConfig()
        seeds, v = range(40), np.arange(40) % 2
        block = draw_channel(cfg, v, [np.random.default_rng(seed) for seed in seeds])
        repeats = set()
        for b, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            re, im = rng.normal(scale=math.sqrt(0.5), size=2)
            mags, phases = rng.weibull(2.0, size=5), rng.uniform(0.0, 2.0 * math.pi, size=5)
            delays = rng.integers(0, 5, size=5)
            if len(set(delays.tolist())) < 5:
                repeats.add(int(v[b]))
            expected = [0j] * 5
            expected[0] += int(v[b]) * complex(re, im)
            for k in range(5):
                expected[delays[k]] += mags[k] * np.exp(1j * phases[k])
            assert block[b].tobytes() == np.array(expected).tobytes()
        assert repeats == {0, 1}  # frames with a repeated delay, at both indicators

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**64 - 1), v=st.lists(st.integers(0, 1), min_size=1, max_size=4),
           halves=st.integers(0, 3))
    def test_phases_are_numpys_uniform(self, numpy_taps, seed, v, halves):
        """The phases come from raw words, not from Generator.uniform: each frame's
        taps equal those rebuilt from numpy's own uniform(0, 2pi, size=5) and other
        calls, after an odd or even count of 32-bit draws (a spare half buffered
        or not), and the generator ends where numpy's calls leave it, so the
        delays and the noise after them stay aligned.  A numpy release that
        changes uniform or integers fails this test by name."""
        block = example_rng(seed, np.arange(len(v)))
        ref = example_rng(seed, np.arange(len(v)))
        for g in block + ref:
            g.integers(0, 2, size=halves)
        taps = draw_channel(ChannelConfig(), np.array(v), block)
        for b, (got, want) in enumerate(zip(block, ref)):
            assert taps[b].tobytes() == numpy_taps(want, v[b]).tobytes()
            assert got.bit_generator.state == want.bit_generator.state
            assert got.standard_normal(3).tobytes() == want.standard_normal(3).tobytes()
        # one frame is a block of one
        alone, ref = example_rng(seed, 0), example_rng(seed, 0)
        assert draw_channel(ChannelConfig(), v[0], alone).tobytes() == numpy_taps(ref, v[0]).tobytes()
        assert alone.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("v, generators", [([0, 1, 1], 2), ([0, 2, 1], 3), ([0, -1, 1], 3)],
                             ids=["two-generators-for-three-frames", "v-2", "v--1"])
    def test_block_checks_come_before_any_draw(self, v, generators):
        rngs = [np.random.default_rng(seed) for seed in range(generators)]
        with pytest.raises(ValueError):
            draw_channel(ChannelConfig(), np.array(v), rngs)
        assert [g.bit_generator.state for g in rngs] == [
            np.random.default_rng(seed).bit_generator.state for seed in range(generators)]


class TestApplyChannel:
    def test_identity_channel(self):
        y = apply_channel(np.array([1.0, 0.0, 1.0, 0.0]), [1], 0.0, np.random.default_rng(0))
        assert np.array_equal(y, np.array([1, 0, 1, 0], dtype=np.complex128))

    def test_one_chip_delay(self):
        y = apply_channel(np.array([1.0, 0.0, 0.0, 0.0]), [0, 1], 0.0, np.random.default_rng(0))
        assert np.array_equal(y, np.array([0, 1, 0, 0], dtype=np.complex128))

    def test_hand_convolution_truncates_to_input_length(self):
        y = apply_channel(np.array([1.0, 1.0]), [1, 0.5j], 0.0, np.random.default_rng(0))
        assert np.allclose(y, np.array([1.0, 1.0 + 0.5j]))

    def test_accepts_chip_sequence(self):
        chips = ppm_modulate([0, 1], 1)
        y = apply_channel(chips, [1], 0.0, np.random.default_rng(0))
        assert np.array_equal(y.real, chips)

    def test_linearity_at_zero_noise(self):
        rng = np.random.default_rng(3)
        taps = draw_channel(ChannelConfig(), 1, rng)
        chips = np.random.default_rng(4).standard_normal(24)
        y1 = apply_channel(chips, taps, 0.0, np.random.default_rng(0))
        y3 = apply_channel(3.0 * chips, taps, 0.0, np.random.default_rng(0))
        assert np.allclose(y3, 3.0 * y1)

    def test_pulse_trains_equal_np_convolve_bit_for_bit(self):
        # a sample sums pulses through up to three taps at L_b=1 and two at
        # L_b=2-4, so the sum order shows; highest delay first is np.convolve's
        B, L = 64, 80
        for L_b in range(1, 5):
            rngs = [np.random.default_rng(seed) for seed in range(B)]
            taps = draw_channel(ChannelConfig(), np.arange(B) % 2, rngs)
            chips = ppm_modulate(np.random.default_rng(B).integers(0, 2, size=(B, L)), L_b)
            y = apply_channel(chips, taps, 0.0, rngs)
            for b in range(B):
                expected = np.convolve(chips[b], taps[b])[: 2 * L_b * L]
                assert y[b].tobytes() == expected.tobytes()
        # a single frame; a tap vector longer than its chips; criterion 3's
        # one-tap silent channel on zero chips
        rng = np.random.default_rng(5)
        long_taps = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        for chips, taps in [(ppm_modulate([1, 0, 1, 1], 1), draw_channel(ChannelConfig(), 1, rng)),
                            (ppm_modulate([1, 0, 0], 1), long_taps),
                            (np.zeros(1000), np.zeros(1, dtype=np.complex128))]:
            y = apply_channel(chips, taps, 0.0, rng)
            assert y.tobytes() == np.convolve(chips, taps)[: len(chips)].tobytes()

    def test_block_holds_its_output_and_one_sum_buffer(self, peak_bytes, rss_growth):
        # the windows are views of the chips: no padded copy of the block, and
        # no per-tap temporaries, beyond a zero-led copy of the first T-1 chips;
        # rss_growth also sees copies numpy makes inside a call, as np.matmul
        # makes of a window view for BLAS in a block of one
        B, L, L_b = 64, 80, 4
        rngs = example_rng(0, np.arange(B))
        taps = draw_channel(ChannelConfig(), np.arange(B) % 2, rngs)
        for args in [(ppm_modulate(np.zeros((B, L), dtype=np.uint8), L_b), taps, 0.5, rngs),
                     (ppm_modulate(np.zeros(20_000, dtype=np.uint8), L_b), taps[0], 0.5, rngs[0])]:
            output = args[0].size * 16
            assert peak_bytes(lambda: apply_channel(*args)) <= 2 * output + 16 * 1024
            assert rss_growth(lambda: apply_channel(*args)) <= 2 * output + 64 * 1024

    def test_noise_calibration(self):
        z = apply_channel(np.zeros(100_000), [0], 0.55, np.random.default_rng(5))
        assert np.mean(np.abs(z) ** 2) == pytest.approx(0.55, rel=0.02)

    def test_noise_determinism(self):
        chips = np.ones(16)
        taps = [1, 0.2]
        a = apply_channel(chips, taps, 0.5, np.random.default_rng(11))
        b = apply_channel(chips, taps, 0.5, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            apply_channel(np.ones(4), [1], -0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("tap_rows, generators", [(1, 1), (3, 2)],
                             ids=["one-channel-for-three-frames", "two-generators-for-three-frames"])
    def test_block_needs_a_channel_and_a_generator_per_frame(self, tap_rows, generators):
        rngs = [np.random.default_rng(seed) for seed in range(generators)]
        with pytest.raises(ValueError, match="block of 3 frames needs 3 tap vectors and 3 generators"):
            apply_channel(np.ones((3, 8)), np.ones((tap_rows, 5)), 0.1, rngs)
        # the check comes before any noise draw
        assert [g.standard_normal() for g in rngs] == [
            np.random.default_rng(seed).standard_normal() for seed in range(generators)]


class TestFrameReceived:
    def test_stacking_order(self):
        frame = frame_received(np.array([1 + 2j, 3 + 4j]), 1)
        assert frame.slot_inputs.tolist() == [[1.0, 3.0, 2.0, 4.0]]

    def test_all_zero_samples(self):
        frame = frame_received(np.zeros(8, dtype=np.complex128), 2)
        assert frame.slot_inputs.shape == (2, 8)
        assert not frame.slot_inputs.any()

    def test_real_samples_zero_imag_half(self):
        frame = frame_received(np.array([1.0, 2.0, 3.0, 4.0], dtype=np.complex128), 1)
        assert np.array_equal(frame.slot_inputs[:, 2:], np.zeros((2, 2)))

    def test_rejects_indivisible_length(self):
        with pytest.raises(ValueError):
            frame_received(np.zeros(5, dtype=np.complex128), 1)

    def test_noise_variance_recorded(self):
        assert frame_received(np.zeros(4, dtype=np.complex128), 1, 0.55).noise_variance == 0.55


class TestSlotIsolation:
    def test_no_interference_when_memory_fits_in_half_slot(self):
        """With tap memory 5 and expansion 6, each slot's samples depend only
        on its own bit (zero noise, fixed realization)."""
        L, L_b = 4, 6
        cfg = ChannelConfig()
        taps = draw_channel(cfg, 1, np.random.default_rng(0))
        base = np.random.default_rng(1).integers(0, 2, size=L).astype(np.uint8)
        y_base = apply_channel(ppm_modulate(base, L_b), taps, 0.0, np.random.default_rng(0))
        slots_base = y_base.reshape(L, 2 * L_b)
        for flip in range(L):
            bits = base.copy()
            bits[flip] ^= 1
            y = apply_channel(ppm_modulate(bits, L_b), taps, 0.0, np.random.default_rng(0))
            slots = y.reshape(L, 2 * L_b)
            for l in range(L):
                if l != flip:
                    assert np.array_equal(slots[l], slots_base[l])
