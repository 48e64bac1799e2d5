"""Pulse placement, demodulation round trips, the SSAC slot split and how SSAC frames are made."""

import math

import numpy as np
import pytest

from nisaclab.channel import ChannelConfig
from nisaclab.dataset import generate_dataset
from nisaclab.modem import ppm_demodulate, ppm_modulate, slot_split


class TestPpmModulate:
    def test_bit_zero_pulses_first_chip(self):
        assert ppm_modulate([0], 1).tolist() == [1.0, 0.0]

    def test_bit_one_pulses_chip_lb_plus_one(self):
        assert ppm_modulate([1], 2).tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_two_slots_compose(self):
        assert ppm_modulate([0, 1], 1).tolist() == [1.0, 0.0, 0.0, 1.0]

    def test_sequence_length(self):
        assert ppm_modulate([0, 1, 1, 0, 1], 4).shape == (2 * 4 * 5,)

    @pytest.mark.parametrize("L_b", [1, 2, 4])
    def test_unit_energy_per_slot(self, L_b):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=17)
        per_slot = ppm_modulate(bits, L_b).reshape(-1, 2 * L_b)
        assert np.array_equal((per_slot**2).sum(axis=1), np.ones(17))
        assert np.array_equal((per_slot != 0).sum(axis=1), np.ones(17))

    def test_rejects_empty_bits(self):
        with pytest.raises(ValueError):
            ppm_modulate([], 1)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            ppm_modulate([0, 2], 1)

    def test_rejects_bad_expansion(self):
        with pytest.raises(ValueError):
            ppm_modulate([0], 0)


class TestPpmDemodulate:
    @pytest.mark.parametrize("L_b", [1, 2, 4])
    def test_round_trip(self, L_b):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=40).astype(np.uint8)
        assert np.array_equal(ppm_demodulate(ppm_modulate(bits, L_b), L_b), bits)

    @pytest.mark.parametrize("L_b", [1, 4])
    def test_block_rows_are_single_frames(self, L_b):
        bits = np.random.default_rng(3).integers(0, 2, size=(5, 12)).astype(np.uint8)
        block = ppm_modulate(bits, L_b)
        assert block.shape == (5, 2 * L_b * 12)
        for row, frame_bits in zip(block, bits):
            assert np.array_equal(row, ppm_modulate(frame_bits, L_b))
        assert np.array_equal(ppm_demodulate(block, L_b), bits)

    def test_argmax_survives_small_noise(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        chips = ppm_modulate(bits, 2)
        noisy = chips + 0.2 * np.random.default_rng(2).standard_normal(chips.size)
        assert np.array_equal(ppm_demodulate(noisy, 2), bits)


class TestSsacDataSlots:
    """slot_split's (n_data, sense_start): SSAC senses from its first non-data slot."""

    def test_half_data_frame(self):
        assert slot_split(0.5, 80) == (40, 40)

    def test_ceil_rounding(self):
        assert slot_split(0.3, 5) == (2, 2)  # ceil(1.5)

    def test_smallest_alpha_keeps_one_data_slot(self):
        assert slot_split(1e-9, 80) == (1, 1)

    def test_alpha_range(self):
        assert slot_split(None, 80) == (80, 0)  # ISAC: every slot both carries and senses
        for alpha, L in (
            (0.0, 80), (1.0, 80), (1.5, 1), (-0.5, 80), (float("nan"), 80),
            (0.995, 80),  # ceil(79.6) = 80 leaves no sensing slot
            (0.5, 1),
        ):
            with pytest.raises(ValueError):
                slot_split(alpha, L)


class TestMakeSsacFrame:
    """SSAC frames as generate_dataset builds them: the ISAC frame's bits on the
    ceil(alpha*L) data slots, then ones.  Both modes draw the same streams."""

    CFG = ChannelConfig(snr_db=10.0)

    def _check_against_isac(self, alpha, L):
        isac = generate_dataset(self.CFG, L=L, L_b=1, n=6, master_seed=4)
        ssac = generate_dataset(self.CFG, L=L, L_b=1, n=6, master_seed=4, alpha=alpha)
        n_data = slot_split(alpha, L)[0]
        assert 1 <= n_data < L
        assert np.array_equal(ssac.bits[:, :n_data], isac.bits[:, :n_data])
        assert (ssac.bits[:, n_data:] == 1).all()
        return isac, ssac

    def test_alpha_one_is_identity(self):
        # the largest alpha keeps every slot but the last as the ISAC frame has
        # it; all slots carrying data is the ISAC frame, and SSAC stops short of it
        isac, ssac = self._check_against_isac(0.75, 4)
        assert (isac.bits[:, 3] == 0).any()
        with pytest.raises(ValueError):
            generate_dataset(self.CFG, L=4, L_b=1, n=2, alpha=1.0)

    def test_alpha_zero_is_all_ones(self):
        # the smallest alpha keeps one data slot and sets every other slot to 1;
        # a frame with no data slot would be all ones, and SSAC stops short of it
        isac, _ = self._check_against_isac(0.01, 4)
        assert (isac.bits[:, 1:] == 0).any()
        with pytest.raises(ValueError):
            generate_dataset(self.CFG, L=3, L_b=1, n=2, alpha=0.0)

    def test_alpha_range(self):
        for alpha in (0.05, 0.3, 0.5, 0.75, 0.95):
            for L in (2, 5, 8):
                if math.ceil(alpha * L) >= L:
                    with pytest.raises(ValueError):
                        generate_dataset(self.CFG, L=L, L_b=1, n=2, alpha=alpha)
                    continue
                self._check_against_isac(alpha, L)
        with pytest.raises(ValueError):
            generate_dataset(self.CFG, L=1, L_b=1, n=1, alpha=1.5)
