"""Machine-speed references for scaling wall times.

The shared 2-core host this benchmark was built on changes speed by up to 2x
within seconds, and whole runs drift by 20-40%.  CPU time follows wall time
there, so the program runs slower; it does not wait.  Different kinds of
work slow down differently:

- ``small``: Python-overhead-bound loops over small arrays (B=32 training,
  the B=1 trace, set-up).  In a 60 s trial, generation time per 500 frames
  ranged over 1.9x between 10-sample blocks, while its ratio to a loop like
  this one stayed within about 10%.
- ``draws``: per-frame random draws and short signal operations, the work of
  generation.  In a 100 s trial, medians of generation time over 12 s
  windows spread by 11% raw, 10% scaled by ``small`` and 6% scaled by this.
- ``large``: passes over arrays of megabytes (evaluation at B=4000).  In a
  150 s trial of the score iteration, medians over 15 s windows spread by 12%
  raw, 12% scaled by ``small`` and 4.5% scaled by ``large``.

So every end-to-end time is reported scaled to nominal speed,
``wall * REF_S[kind] / reference``, where ``reference`` is the mean of the
reference times measured right before and right after the timed span (and,
for set-up, between its commands).  The reference loops call nothing in
nisaclab, so a change to the package cannot move them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median reference_time(kind) on the development machine (2-core Xeon, numpy 2.4).
REF_S = {"small": 0.0105, "large": 0.0049, "draws": 0.0095}


def _small() -> float:
    """A step loop on (32, 10) arrays, like the SNN's inner loop at B=32."""
    x = np.zeros((32, 10))
    w = np.full((10, 2), 0.1)
    t0 = time.perf_counter()
    for _ in range(1000):
        x = 0.9 * x + 0.1
        s = np.where(x > 0.5, 1.0, 0.0)
        s @ w
    return time.perf_counter() - t0


def _large() -> float:
    """Fill a fresh (2000, 80, 10) record, like the SNN's forward at large B."""
    t0 = time.perf_counter()
    record = np.empty((2000, 80, 10))
    x = np.zeros((2000, 10))
    for step in range(20):
        x = 0.9 * x + 0.1
        record[:, step] = x
    (record > 0.5).sum()
    return time.perf_counter() - t0


def _draws() -> float:
    """Draw and shape 60 frames' worth of random values, like generation."""
    t0 = time.perf_counter()
    for i in range(60):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=12345, spawn_key=(i,)))
        bits = rng.integers(0, 2, size=80)
        chips = np.zeros(640)
        chips[8 * np.arange(80) + 4 * bits] = 1.0
        taps = np.zeros(8, dtype=np.complex128)
        taps[:5] += rng.weibull(2.0, size=5) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=5))
        y = np.convolve(chips, taps)[:640] + rng.standard_normal(640) + 1j * rng.standard_normal(640)
        per_slot = y.reshape(-1, 8)
        np.concatenate([per_slot.real, per_slot.imag], axis=1).astype(np.float32)
    return time.perf_counter() - t0


_BURSTS = {"small": _small, "large": _large, "draws": _draws}


def reference_time(kind: str) -> float:
    """Median of three bursts of the given kind, in seconds."""
    return statistics.median(_BURSTS[kind]() for _ in range(3))


def scale(wall: float, kind: str, refs) -> float:
    """wall scaled to nominal speed, given reference times taken around it."""
    return wall * REF_S[kind] * len(refs) / sum(refs)
