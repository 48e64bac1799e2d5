"""Stochastic radar/clutter multipath channel on the chip grid.

A realization superposes one optional target tap (complex Gaussian amplitude
at the known target delay) and N_c clutter taps whose amplitudes have uniform
phase and Weibull magnitude, at delays quantized to whole chips.  Received
samples are the causal tap convolution of the chip sequence plus circularly
symmetric complex Gaussian noise, and are framed per slot as stacked
real/imaginary parts for the receiver network.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass
class ChannelConfig:
    """The SNR operating point; the channel statistics are fixed.

    Each frame has one target tap of unit mean-square complex Gaussian
    amplitude at delay 0 and five clutter taps at uniform delays 0..4 in a
    five-tap vector.  A clutter magnitude is Weibull with shape 2 and scale 1,
    so E[magnitude^2] = Gamma(1 + 2/2) = 1 and, with its uniform phase, each
    clutter amplitude is exactly CN(0,1).  Delays are in chips.
    """

    num_clutter: ClassVar[int] = 5
    weibull_shape: ClassVar[float] = 2.0
    target_power: ClassVar[float] = 1.0
    target_delay: ClassVar[int] = 0
    max_clutter_delay: ClassVar[int] = 4
    tap_count: ClassVar[int] = 5
    snr_db: float = 10.0

    def __post_init__(self):
        # wide enough for any operating point; keeps the noise variance finite and nonzero
        if not -100.0 <= self.snr_db <= 100.0:
            raise ValueError(f"snr_db must lie in [-100, 100] dB, got {self.snr_db}")


@dataclass
class ReceivedFrame:
    """Per-slot receiver inputs: [Re(y_slot); Im(y_slot)], length 4*L_b each."""

    slot_inputs: np.ndarray  # shape (L, 4*L_b), or (B, L, 4*L_b) for a block
    noise_variance: float = 0.0


def expected_channel_energy(cfg: ChannelConfig) -> float:
    """Mean squared tap norm, averaged over clutter, target amplitude and the
    target indicator, which generation draws as a fair coin: one per clutter
    tap (unit second moment) plus half the target power.  Used to calibrate
    the noise level for a requested SNR."""
    return cfg.num_clutter + 0.5 * cfg.target_power


def noise_variance_from_snr(cfg: ChannelConfig) -> float:
    """Per-sample complex noise variance that realizes cfg.snr_db (unit pulse energy)."""
    return expected_channel_energy(cfg) / 10.0 ** (cfg.snr_db / 10.0)


def draw_channel(cfg: ChannelConfig, v, rng) -> np.ndarray:
    """Draw one channel realization for target indicator v: its (tap_count,)
    complex tap vector.

    Draw order is fixed (target amplitude, clutter magnitudes, phases, delays)
    so a given rng state always yields the same realization; the target
    amplitude is drawn even when v=0 to keep the stream aligned across
    hypotheses.  The phases are uniform(0, 2pi, size=N_c)'s values, read off raw
    words.  B indicators (B,) and a sequence of B generators give (B, tap_count)
    taps, frame b drawing from rng[b]; one frame is a block of one.
    """
    v = np.asarray(v)
    if v.ndim == 0:
        return draw_channel(cfg, v[None], [rng])[0]
    if len(rng) != len(v) or not set(v.ravel().tolist()) <= {0, 1}:
        raise ValueError(f"need one target indicator of 0 or 1 per generator, got {v} for {len(rng)}")
    B, n = len(v), cfg.num_clutter
    target, mags, words = np.empty((B, 2)), np.empty((B, n)), np.empty((B, n), dtype=np.uint64)
    at = np.full((B, 1 + n), cfg.target_delay)  # each term's tap: the target's, then the clutter delays
    for b, g in enumerate(rng):
        target[b] = g.normal(scale=math.sqrt(cfg.target_power / 2.0), size=2)
        mags[b] = g.weibull(cfg.weibull_shape, size=n)
        words[b] = g.bit_generator.random_raw(n)  # the phases' draw
        at[b, 1:] = g.integers(0, cfg.max_clutter_delay + 1, size=n)
    # uniform(0, 2pi, size=n) is 0.0 + 2pi * ((w >> 11) * 2**-53) of n raw words w; 2pi * 2**-53 is exact
    terms = np.empty((B, 1 + n), dtype=np.complex128)
    np.multiply(v, target.view(np.complex128)[:, 0], out=terms[:, 0])
    np.multiply(mags, np.exp(1j * ((words >> 11) * (2.0 * math.pi / 2**53))), out=terms[:, 1:])
    taps = np.zeros((B, cfg.tap_count), dtype=np.complex128)
    np.add.at(taps, (np.arange(B)[:, None], at), terms)  # term by term, in draw order
    return taps


def apply_channel(
    chips,
    taps,
    noise_var: float,
    rng: np.random.Generator | Sequence[np.random.Generator],
) -> np.ndarray:
    """Causal tap convolution plus complex Gaussian noise.

    y_i = sum_m h[m] * s_{i-m} with s_i = 0 before the sequence starts; the
    output has the same length as the input, so tails past the last chip are
    dropped.  Each sample sums its terms highest delay first, np.convolve's
    order: on pulse-train and all-zero chips, where every product is exact, it
    equals np.convolve's bit for bit, and on other real chips it agrees to
    rounding.  A tap vector needs at least one tap.  Noise variance is split
    equally between real and imaginary parts, drawn from rng as one
    standard_normal((2, S)): real parts, then imaginary.

    chips (S,) goes through the (T,) tap vector taps with noise from the
    generator rng.  A block of chips (B, S) takes a (B, T) stack of tap
    vectors and a sequence of B generators, frame b going through taps[b] with
    noise from rng[b]; one frame is a block of one.
    """
    if noise_var < 0:
        raise ValueError("noise variance must be >= 0")
    s = np.asarray(chips, dtype=np.float64)
    taps = np.asarray(taps, dtype=np.complex128)
    if s.ndim == 1:
        return apply_channel(s[None], taps[None], noise_var, [rng])[0]
    if taps.shape[:-1] != s.shape[:1] or len(rng) != len(s):
        raise ValueError(f"a block of {len(s)} frames needs {len(s)} tap vectors and "
                         f"{len(s)} generators, got taps of shape {taps.shape} and "
                         f"{len(rng)} generators")
    B, S = s.shape
    T = min(taps.shape[1], S)  # a tap past the last chip reaches no sample
    h = np.stack([taps.real, taps.imag], axis=1)[:, :, T - 1::-1]  # (B, 2, T) reversed: the chips are real
    # a sample is one vecdot of the taps and a chip window: numpy's own dot loop (negative-stride taps keep
    # BLAS out), highest delay first; the first T-1 window a zero-led copy of the first T-1 chips
    head = np.zeros((B, 2 * T - 1))
    head[:, T - 1:-1] = s[:, : T - 1]
    y = np.empty((B, 2, S))
    np.vecdot(h[:, :, None], sliding_window_view(head, T, axis=1)[:, None, : T - 1], out=y[:, :, : T - 1])
    np.vecdot(h[:, :, None], sliding_window_view(s, T, axis=1)[:, None], out=y[:, :, T - 1:])
    samples = np.empty(s.shape, dtype=np.complex128)
    noise = samples.view(np.float64).reshape(y.shape)  # drawn into the output's bytes, added, then overwritten
    for g, out in zip(rng, noise):
        g.standard_normal((2, S), out=out)
    y += np.multiply(noise, math.sqrt(noise_var / 2.0), out=noise)
    samples.real, samples.imag = y[:, 0], y[:, 1]
    return samples


def frame_received(samples, L_b: int, noise_variance: float = 0.0) -> ReceivedFrame:
    """Split chip-rate samples into slots of 2*L_b and stack [Re; Im] per slot.

    samples may carry a leading frame axis, (B, S); slot_inputs is then
    (B, L, 4*L_b).
    """
    y = np.asarray(samples, dtype=np.complex128)
    width = 2 * L_b
    if y.shape[-1] % width != 0:
        raise ValueError(f"sample count {y.shape[-1]} is not a multiple of 2*L_b={width}")
    per_slot = y.reshape(y.shape[:-1] + (-1, width))
    slot_inputs = np.concatenate([per_slot.real, per_slot.imag], axis=-1)
    return ReceivedFrame(slot_inputs=slot_inputs, noise_variance=noise_variance)
