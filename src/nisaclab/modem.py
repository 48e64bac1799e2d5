"""Pulse-position modulation on the chip grid.

A frame carries L bits, one per slot of 2*L_b chips.  Bit 0 puts the unit
pulse on the first chip of the slot, bit 1 on chip L_b+1.  Everything here
works on the discrete chip-rate model; no continuous waveform is built, so
pulse energy is fixed at 1 per slot.
"""

from __future__ import annotations

import math

import numpy as np


def ppm_modulate(bits, L_b: int) -> np.ndarray:
    """Map (L,) frame bits, or a (B, L) block of B frames, onto (..., 2*L_b*L) chips.

    Slot l (0-based) gets its unit pulse at chip 2*l*L_b when the bit is 0
    and at chip 2*l*L_b + L_b when the bit is 1; row b of a block modulates
    frame b.
    """
    if L_b < 1:
        raise ValueError(f"bandwidth expansion factor must be >= 1, got {L_b}")
    arr = np.asarray(bits)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise ValueError("bits must be a non-empty (L,) frame or (B, L) block")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("bits must be 0 or 1")
    slots = np.zeros(arr.shape + (2 * L_b,))
    slots[..., 0] = arr == 0
    slots[..., L_b] = arr == 1
    return slots.reshape(arr.shape[:-1] + (-1,))


def ppm_demodulate(chips, L_b: int) -> np.ndarray:
    """Intra-slot argmax detector; exact inverse of ppm_modulate on clean chips."""
    chips = np.asarray(chips)
    per_slot = chips.reshape(chips.shape[:-1] + (-1, 2 * L_b))
    return (per_slot.argmax(axis=-1) >= L_b).astype(np.uint8)


def slot_split(alpha: float | None, L: int) -> tuple[int, int]:
    """(n_data, sense_start) of a frame of L slots: the leading n_data slots
    carry data, the slots from sense_start on sense.  ISAC (alpha=None) uses
    every slot for both, (L, 0); SSAC splits at alpha*L rounded up.

    Raises ValueError unless an SSAC alpha leaves at least one slot of each kind.
    """
    if alpha is None:
        return L, 0
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"ssac mode needs alpha in (0, 1), got {alpha}")
    n_data = math.ceil(alpha * L)
    if n_data >= L:
        raise ValueError(f"alpha={alpha} leaves no sensing slot at L={L}")
    return n_data, n_data
