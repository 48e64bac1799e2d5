"""Pulse placement, demodulation round trips, the SSAC slot split and how SSAC frames are made."""

import math

import numpy as np
import pytest

from nisaclab.channel import ChannelConfig
from nisaclab.dataset import generate_dataset
from nisaclab.modem import (
    BitFrame,
    ChipSequence,
    ppm_demodulate,
    ppm_modulate,
    ssac_data_slots,
)


class TestPpmModulate:
    def test_bit_zero_pulses_first_chip(self):
        assert ppm_modulate([0], 1).chips.tolist() == [1.0, 0.0]

    def test_bit_one_pulses_chip_lb_plus_one(self):
        assert ppm_modulate([1], 2).chips.tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_two_slots_compose(self):
        assert ppm_modulate([0, 1], 1).chips.tolist() == [1.0, 0.0, 0.0, 1.0]

    def test_sequence_length(self):
        seq = ppm_modulate([0, 1, 1, 0, 1], 4)
        assert seq.chips.size == 2 * 4 * 5
        assert seq.slot_count == 5

    @pytest.mark.parametrize("L_b", [1, 2, 4])
    def test_unit_energy_per_slot(self, L_b):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=17)
        per_slot = ppm_modulate(bits, L_b).chips.reshape(-1, 2 * L_b)
        assert np.array_equal((per_slot**2).sum(axis=1), np.ones(17))
        assert np.array_equal((per_slot != 0).sum(axis=1), np.ones(17))

    def test_accepts_bit_frame(self):
        frame = BitFrame.isac([1, 0])
        assert ppm_modulate(frame, 1).chips.tolist() == [0.0, 1.0, 1.0, 0.0]

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
        assert np.array_equal(ppm_demodulate(ppm_modulate(bits, L_b)), bits)

    @pytest.mark.parametrize("L_b", [1, 4])
    def test_block_rows_are_single_frames(self, L_b):
        bits = np.random.default_rng(3).integers(0, 2, size=(5, 12)).astype(np.uint8)
        block = ppm_modulate(bits, L_b)
        assert block.chips.shape == (5, 2 * L_b * 12) and block.slot_count == 12
        for row, frame_bits in zip(block.chips, bits):
            assert np.array_equal(row, ppm_modulate(frame_bits, L_b).chips)
        assert np.array_equal(ppm_demodulate(block), bits)

    def test_argmax_survives_small_noise(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        seq = ppm_modulate(bits, 2)
        noisy = ChipSequence(
            chips=seq.chips + 0.2 * np.random.default_rng(2).standard_normal(seq.chips.size),
            bandwidth_expansion=2,
        )
        assert np.array_equal(ppm_demodulate(noisy), bits)


class TestBitFrame:
    def test_isac_uses_every_slot(self):
        frame = BitFrame.isac([0, 1, 0])
        assert frame.data_slot_count == 3
        assert len(frame) == 3
        assert frame.data_bits.tolist() == [0, 1, 0]

    def test_sensing_slots_must_be_one(self):
        with pytest.raises(ValueError):
            BitFrame(bits=np.array([1, 0, 0], dtype=np.uint8), data_slot_count=1)

    def test_data_slot_count_bounds(self):
        with pytest.raises(ValueError):
            BitFrame(bits=np.array([1, 1], dtype=np.uint8), data_slot_count=3)


class TestSsacDataSlots:
    def test_half_data_frame(self):
        assert ssac_data_slots(0.5, 80) == 40

    def test_ceil_rounding(self):
        assert ssac_data_slots(0.3, 5) == 2  # ceil(1.5)

    def test_smallest_alpha_keeps_one_data_slot(self):
        assert ssac_data_slots(1e-9, 80) == 1

    def test_alpha_range(self):
        for alpha, L in (
            (0.0, 80), (1.0, 80), (1.5, 1), (-0.5, 80), (float("nan"), 80), (None, 80),
            (0.995, 80),  # ceil(79.6) = 80 leaves no sensing slot
            (0.5, 1),
        ):
            with pytest.raises(ValueError):
                ssac_data_slots(alpha, L)


class TestMakeSsacFrame:
    """SSAC frames as generate_dataset builds them: ceil(alpha*L) data slots, then ones."""

    def test_alpha_one_is_identity(self):
        # all slots carrying data is the ISAC frame, which keeps its bits;
        # SSAC itself stops short of alpha = 1
        frame = BitFrame(bits=np.array([0, 1, 1, 0], dtype=np.uint8), data_slot_count=4)
        assert frame.bits.tolist() == [0, 1, 1, 0]
        assert frame.data_bits.tolist() == BitFrame.isac([0, 1, 1, 0]).data_bits.tolist()
        with pytest.raises(ValueError):
            ssac_data_slots(1.0, 4)

    def test_alpha_zero_is_all_ones(self):
        # a frame with no data slot is all ones; SSAC itself stops short of alpha = 0
        frame = BitFrame(bits=np.array([1, 1, 1], dtype=np.uint8), data_slot_count=0)
        assert frame.data_bits.size == 0
        with pytest.raises(ValueError):
            BitFrame(bits=np.array([1, 0, 1], dtype=np.uint8), data_slot_count=0)
        with pytest.raises(ValueError):
            ssac_data_slots(0.0, 3)

    def test_alpha_range(self):
        cfg = ChannelConfig(snr_db=10.0)
        for alpha in (0.05, 0.3, 0.5, 0.75, 0.95):
            for L in (2, 5, 8):
                if math.ceil(alpha * L) >= L:
                    with pytest.raises(ValueError):
                        generate_dataset(cfg, L=L, L_b=1, n=2, mode="ssac", alpha=alpha)
                    continue
                n_data = ssac_data_slots(alpha, L)
                ds = generate_dataset(cfg, L=L, L_b=1, n=2, mode="ssac", alpha=alpha)
                for bits in ds.bits:
                    frame = BitFrame(bits=bits, data_slot_count=n_data)
                    assert 1 <= frame.data_slot_count < len(frame)
        with pytest.raises(ValueError):
            generate_dataset(cfg, L=1, L_b=1, n=1, mode="ssac", alpha=1.5)
