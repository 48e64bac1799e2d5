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
    hypotheses.  B indicators (B,) and a sequence of B generators give
    (B, tap_count) taps, frame b drawing from rng[b]; one frame is a block of one.
    """
    v = np.asarray(v)
    if v.ndim == 0:
        return draw_channel(cfg, v[None], [rng])[0]
    if len(rng) != len(v) or not ((v == 0) | (v == 1)).all():
        raise ValueError(f"need one target indicator of 0 or 1 per generator, got {v} for {len(rng)}")
    draws = [(g.normal(scale=math.sqrt(cfg.target_power / 2.0), size=2),
              g.weibull(cfg.weibull_shape, size=cfg.num_clutter),
              g.uniform(0.0, 2.0 * math.pi, size=cfg.num_clutter),
              g.integers(0, cfg.max_clutter_delay + 1, size=cfg.num_clutter)) for g in rng]
    target, mags, phases, delays = (np.array(d) for d in zip(*draws))

    taps = np.zeros((len(v), cfg.tap_count), dtype=np.complex128)
    taps[:, cfg.target_delay] += v * target.view(np.complex128)[:, 0]
    np.add.at(taps, (np.arange(len(v))[:, None], delays), mags * np.exp(1j * phases))
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
    dropped.  Noise variance is split equally between real and imaginary parts,
    drawn from rng as one standard_normal((2, S)): real parts, then imaginary.

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
    S = s.shape[1]
    h = np.stack([taps.real, taps.imag], axis=1)  # (B, 2, T): the chips are real
    # Highest delay first, the order np.convolve sums in: on pulse-train chips
    # the samples then equal np.convolve's bit for bit.
    y = np.zeros((len(s), 2, S))
    for m in reversed(range(min(h.shape[2], S))):
        y[:, :, m:] += h[:, :, m, None] * s[:, None, : S - m]
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
