"""Channel statistics, convolution arithmetic, framing, and calibration."""

import math

import numpy as np
import pytest

from nisaclab.channel import (
    ChannelConfig,
    apply_channel,
    clutter_second_moment,
    draw_channel,
    expected_channel_energy,
    frame_received,
    noise_variance_from_snr,
    unit_second_moment_scale,
)
from nisaclab.modem import ppm_modulate


class TestWeibullScale:
    @pytest.mark.parametrize("shape", [0.25, 0.5, 1.0, 2.0])
    def test_analytic_unit_second_moment(self, shape):
        lam = unit_second_moment_scale(shape)
        assert lam**2 * math.gamma(1.0 + 2.0 / shape) == pytest.approx(1.0, rel=1e-12)

    def test_rayleigh_case_has_unit_scale(self):
        assert unit_second_moment_scale(2.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("shape", [1.0, 2.0])
    def test_monte_carlo_second_moment(self, shape):
        rng = np.random.default_rng(0)
        mags = unit_second_moment_scale(shape) * rng.weibull(shape, size=100_000)
        assert (mags**2).mean() == pytest.approx(1.0, rel=0.02)

    def test_config_rejects_shape_outside_range(self):
        with pytest.raises(ValueError):
            ChannelConfig(weibull_shape=3.0)
        with pytest.raises(ValueError):
            ChannelConfig(weibull_shape=0.1)


class TestEnergyAndNoise:
    def test_default_energy(self):
        assert expected_channel_energy(ChannelConfig()) == pytest.approx(5.5, rel=1e-12)

    def test_single_target_tap(self):
        # the target is present in half the frames
        cfg = ChannelConfig(num_clutter=0, target_power=3.0)
        assert expected_channel_energy(cfg) == 0.5 * 3.0

    def test_clutter_adds_its_second_moment(self):
        cfg = ChannelConfig(num_clutter=3)
        assert expected_channel_energy(cfg) == pytest.approx(3.5, rel=1e-12)

    def test_clutter_second_moment_is_unity(self):
        assert clutter_second_moment(ChannelConfig()) == pytest.approx(1.0, rel=1e-12)

    def test_noise_variance_at_ten_db(self):
        assert noise_variance_from_snr(ChannelConfig(snr_db=10.0)) == pytest.approx(0.55, rel=1e-12)

    def test_noise_variance_at_zero_db(self):
        cfg = ChannelConfig(num_clutter=0, snr_db=0.0)
        assert noise_variance_from_snr(cfg) == pytest.approx(0.5, rel=1e-12)

    def test_noise_variance_at_three_db(self):
        cfg = ChannelConfig(num_clutter=1, target_power=2.0, snr_db=3.0103)
        assert noise_variance_from_snr(cfg) == pytest.approx(1.0, rel=1e-4)


class TestDrawChannel:
    def test_no_clutter_no_target_is_silent(self):
        taps = draw_channel(ChannelConfig(num_clutter=0), 0, np.random.default_rng(0))
        assert np.array_equal(taps, np.zeros(5, dtype=np.complex128))

    def test_no_clutter_target_only(self):
        taps = draw_channel(ChannelConfig(num_clutter=0), 1, np.random.default_rng(0))
        assert np.flatnonzero(taps).tolist() == [0]

    def test_target_absent_contributes_nothing(self):
        cfg = ChannelConfig(target_delay=2)
        on = draw_channel(cfg, 1, np.random.default_rng(7))
        off = draw_channel(cfg, 0, np.random.default_rng(7))
        # identical stream: the only difference is the target tap at its delay
        assert np.flatnonzero(on - off).tolist() == [2]

    def test_delays_within_range(self):
        # clutter delays up to 2 in a 7-tap vector: taps 3..6 stay empty
        cfg = ChannelConfig(max_clutter_delay=2, tap_count=7)
        rng = np.random.default_rng(1)
        for _ in range(200):
            taps = draw_channel(cfg, 1, rng)
            assert taps.shape == (7,)
            assert not taps[3:].any()

    def test_seed_determinism(self):
        a = draw_channel(ChannelConfig(), 1, np.random.default_rng(9))
        b = draw_channel(ChannelConfig(), 1, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_rejects_bad_indicator(self):
        with pytest.raises(ValueError):
            draw_channel(ChannelConfig(), 2, np.random.default_rng(0))

    def test_single_clutter_energy(self):
        cfg = ChannelConfig(num_clutter=1)
        rng = np.random.default_rng(2)
        energy = np.mean([
            np.abs(draw_channel(cfg, 0, rng) ** 2).sum() for _ in range(20_000)
        ])
        assert energy == pytest.approx(1.0, rel=0.05)


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
