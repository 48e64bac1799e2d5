"""Pulse-position modulation on the chip grid.

A frame carries L bits, one per slot of 2*L_b chips.  Bit 0 puts the unit
pulse on the first chip of the slot, bit 1 on chip L_b+1.  Everything here
works on the discrete chip-rate model; no continuous waveform is built, so
pulse energy is fixed at 1 per slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _as_bit_array(bits, ndims=(1,)) -> np.ndarray:
    arr = np.asarray(bits.bits if isinstance(bits, BitFrame) else bits)
    if arr.ndim not in ndims or arr.size == 0:
        raise ValueError(f"bit array must be non-empty with {' or '.join(map(str, ndims))} axes")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("bits must be 0 or 1")
    return arr.astype(np.uint8)


@dataclass(frozen=True, eq=False)
class BitFrame:
    """L slot bits plus the number of leading slots that carry information.

    A pure ISAC frame has data_slot_count == L.  An SSAC frame fixes every
    slot past data_slot_count to 1; those slots exist only to keep the radar
    illuminated and carry no data.
    """

    bits: np.ndarray
    data_slot_count: int

    def __post_init__(self):
        arr = _as_bit_array(self.bits)
        if not 0 <= self.data_slot_count <= arr.size:
            raise ValueError(
                f"data_slot_count {self.data_slot_count} outside [0, {arr.size}]"
            )
        if not (arr[self.data_slot_count:] == 1).all():
            raise ValueError("sensing slots of an SSAC frame must all be 1")
        object.__setattr__(self, "bits", arr)

    def __len__(self) -> int:
        return int(self.bits.size)

    @property
    def data_bits(self) -> np.ndarray:
        return self.bits[: self.data_slot_count]

    @classmethod
    def isac(cls, bits) -> "BitFrame":
        """Frame in which every slot carries data."""
        arr = _as_bit_array(bits)
        return cls(bits=arr, data_slot_count=arr.size)


@dataclass(frozen=True, eq=False)
class ChipSequence:
    """Chip-rate transmit sequence: one unit pulse per slot of 2*L_b chips.

    chips is (S,) for one frame or (B, S) for a block of B frames.
    """

    chips: np.ndarray
    bandwidth_expansion: int

    def __post_init__(self):
        object.__setattr__(self, "chips", np.asarray(self.chips, dtype=np.float64))

    @property
    def slot_count(self) -> int:
        return self.chips.shape[-1] // (2 * self.bandwidth_expansion)


def ppm_modulate(bits, L_b: int) -> ChipSequence:
    """Map a bit frame, or a (B, L) block of B frames, onto the chip grid.

    Slot l (0-based) gets its unit pulse at chip 2*l*L_b when the bit is 0
    and at chip 2*l*L_b + L_b when the bit is 1.  A block gives (B, 2*L_b*L)
    chips, row b modulating frame b.
    """
    if L_b < 1:
        raise ValueError(f"bandwidth expansion factor must be >= 1, got {L_b}")
    arr = _as_bit_array(bits, ndims=(1, 2))
    slots = np.zeros(arr.shape + (2 * L_b,))
    slots[..., 0] = arr == 0
    slots[..., L_b] = arr == 1
    return ChipSequence(chips=slots.reshape(arr.shape[:-1] + (-1,)), bandwidth_expansion=L_b)


def ppm_demodulate(chips: ChipSequence) -> np.ndarray:
    """Intra-slot argmax detector; exact inverse of ppm_modulate on a clean sequence."""
    L_b = chips.bandwidth_expansion
    per_slot = chips.chips.reshape(chips.chips.shape[:-1] + (-1, 2 * L_b))
    return (per_slot.argmax(axis=-1) >= L_b).astype(np.uint8)


def ssac_data_slots(alpha: float, L: int) -> int:
    """Data slots of an SSAC frame of L slots: alpha*L rounded up; the rest sense.

    Raises ValueError unless alpha leaves at least one slot of each kind.
    """
    if alpha is None or not 0.0 < alpha < 1.0:
        raise ValueError(f"ssac mode needs alpha in (0, 1), got {alpha}")
    n_data = math.ceil(alpha * L)
    if n_data >= L:
        raise ValueError(f"alpha={alpha} leaves no sensing slot at L={L}")
    return n_data
