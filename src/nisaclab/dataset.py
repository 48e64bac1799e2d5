"""Labeled frame generation and the NISD binary dataset format.

Each example is one frame: the target indicator, the slot bits, and the
receiver inputs after modulation, channel, noise and framing.  Example i
draws every random value it uses from its own generator seeded by
(master_seed, i), so any example can be regenerated alone with the
single-frame calls, and example i does not depend on how many examples are
generated.  Only those draws run per example, in that order (the target's and bits' integers(0, 2,
size=L + 1) and the phases' uniform(0, 2pi) come from PCG64's raw words, bit for bit the same);
seeding, tap sums, modulation, convolution, noise sums and slot framing run once per block of
_BLOCK frames, through the same functions with a leading frame axis, by up to one process per usable
CPU (the caller and forked children that pipe their rows back), so no byte depends on the CPU count.
Inputs are held as 32-bit floats, in memory as in the file (they are noisy
measurements; no point storing more), so the save/load round trip is
bit-exact; the engines cast each batch or block to 64-bit as they read it.
Blocks are drawn as NISD records, and a generated or loaded dataset's three arrays are views of
records (a loaded one's read-only, read in one pass); a save writes them in chunks of _SAVE_CHUNK
frames, and stream_dataset (gen) writes each block as it lands, from one reused block.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelConfig,
    apply_channel,
    draw_channel,
    frame_received,
    noise_variance_from_snr,
)
from .errors import InvalidContentError
from .fileio import read_file, staged_path
from .modem import ppm_modulate, slot_split
from .workers import _deal_blocks

DATASET_MAGIC = b"NISD"
DATASET_VERSION = 1
_HEADER = struct.Struct("<4sIIIIdQ")  # magic, version, n, L, L_b, snr_db, master_seed

# Frames modulated, convolved and framed together; small, so the block's
# temporaries stay a few MiB.
_BLOCK = 64

# Frames per records buffer when saving; the buffer stays ~1 MiB at L_b=4.
_SAVE_CHUNK = 256

@dataclass(eq=False)
class Dataset:
    """In-memory dataset; exactly the fields the NISD file persists."""

    inputs: np.ndarray   # (n, L, 4*L_b) float32
    bits: np.ndarray     # (n, L) uint8
    targets: np.ndarray  # (n,) uint8
    L_b: int
    snr_db: float
    master_seed: int

    def __post_init__(self):
        self.L_b, self.master_seed = operator.index(self.L_b), operator.index(self.master_seed)
        inputs, bits, targets = np.asarray(self.inputs), np.asarray(self.bits), np.asarray(self.targets)
        n, L, width = inputs.shape
        # the NISD header counts; this is load_dataset's check of them too
        if n < 1 or L < 1 or self.L_b < 1:
            raise ValueError("a dataset needs n >= 1 examples, L >= 1 slots and L_b >= 1")
        if bits.shape != (n, L) or targets.shape != (n,):
            raise ValueError("inputs, bits and targets disagree on example count or length")
        if width != 4 * self.L_b:
            raise ValueError(f"slot width {width} does not match 4*L_b={4 * self.L_b}")
        # checked before the uint8 cast, which would wrap or truncate other values;
        # a uint8 array, as generated or loaded, is checked without a temporary array
        if not all((a.dtype == np.uint8 and a.max(initial=0) <= 1) or ((a == 0) | (a == 1)).all()
                   for a in (bits, targets)):
            raise ValueError("bits and targets must be 0 or 1")
        self.bits, self.targets = bits.astype(np.uint8, copy=False), targets.astype(np.uint8, copy=False)
        # a float64 sum of float32 values cannot overflow, so it is finite
        # iff every input is, and it needs no full-size temporary; a value
        # past float32's range overflows in the cast, and a signalling NaN (a
        # corrupted file can hold one) or inf - inf sets the invalid flag,
        # each the ValueError below, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            self.inputs = inputs.astype(np.float32, copy=False)
            total = self.inputs.sum(dtype=np.float64)
        if not np.isfinite(total):
            raise ValueError("inputs must be finite")
        ChannelConfig(snr_db=self.snr_db)  # raises ValueError outside its SNR range
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit an unsigned 64-bit integer")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.L_b == other.L_b
            and self.snr_db == other.snr_db
            and self.master_seed == other.master_seed
            and np.array_equal(self.inputs, other.inputs)
            and np.array_equal(self.bits, other.bits)
            and np.array_equal(self.targets, other.targets)
        )

    @property
    def example_count(self) -> int:
        return self.inputs.shape[0]

    @property
    def slot_count(self) -> int:
        return self.inputs.shape[1]


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): hashes 16-19 of its entropy
# mix take the spawn key into the pool (mix multipliers 0xCA01F9DD, 0x4973F715), _HASH_B the state
_HASH_A = np.array([0x43B0D7E5 * 0x931E8875**k & 0xFFFFFFFF for k in range(16, 21)], dtype=np.uint64)
_HASH_B = np.array([0x8B51F9DD * 0x58F38DED**k & 0xFFFFFFFF for k in range(9)], dtype=np.uint64)


def _fold(x):
    x = x & 0xFFFFFFFF  # x a uint64 array of 32-bit words
    return x ^ x >> 16


class _StateWords:
    """Known PCG64 seed words; example_rng registers it as an ISeedSequence (a subclass
    would load numpy.random, which numpy imports lazily, with every nisaclab command)."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def example_rng(master_seed: int, index):
    """Generator for example `index`: the master seed plus the index as spawn key,
    np.random.default_rng(SeedSequence(entropy=master_seed, spawn_key=(index,))).

    One index gives numpy's own generator; a 1-D array of indices gives a list of
    generators, one per index.  The seed's SeedSequence pool is the same for every
    index; a block mixes in its index words with numpy's steps, all at once.
    """
    master_seed, keys = operator.index(master_seed), np.asarray(index)
    if not (0 <= master_seed < 2**64 and keys.dtype.kind in "iu"
            and keys.min(initial=0) >= 0 and keys.max(initial=0) < 2**32):
        raise ValueError("master_seed must lie in [0, 2**64), example indices be integers in [0, 2**32)")
    if keys.ndim == 0:
        return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(int(keys),)))
    keys = keys.astype(np.uint64).reshape(-1, 1)
    pool = np.random.SeedSequence(master_seed).pool.astype(np.uint64)
    pool = _fold(0xCA01F9DD * pool - 0x4973F715 * _fold((keys ^ _HASH_A[:-1]) * _HASH_A[1:]))
    state = _fold((np.tile(pool, 2) ^ _HASH_B[:-1]) * _HASH_B[1:])
    words = state[:, 0::2] | state[:, 1::2] << 32
    np.random.bit_generator.ISeedSequence.register(_StateWords)  # a no-op once registered
    return [np.random.Generator(np.random.PCG64(_StateWords(w))) for w in words]


def _draw_records(cfg: ChannelConfig, L: int, L_b: int, n: int, master_seed: int, alpha, out=None):
    """Check a request for n frames, then draw them block by block as NISD records: into an (n,)
    array it returns, or, given a file out, into one reused block written there (after the header)."""
    if L < 1 or L_b < 1 or n < 1:
        raise ValueError("L, L_b and n must all be positive")
    n_data, _ = slot_split(alpha, L)
    example_rng(master_seed, n - 1)  # the seed and index range checks, before any fork
    noise_var = noise_variance_from_snr(cfg)
    records = np.empty(n if out is None else min(n, _BLOCK), dtype=_payload_dtype(L, L_b))

    # block j's records: its own rows of the (n,) array, or the whole reused block
    block = lambda j: records[j * _BLOCK % len(records):][:min(_BLOCK, n - j * _BLOCK)]

    def fill(j):
        rows = block(j)
        rngs = example_rng(master_seed, np.arange(j * _BLOCK, j * _BLOCK + len(rows)))
        targets, bits = rows["v"], rows["bits"]
        words = np.empty((len(rows), (L + 1) // 2), dtype=np.uint64)
        for i, rng in enumerate(rngs):
            words[i] = rng.bit_generator.random_raw(words.shape[1])
            if L % 2 == 0:  # an odd count ends on a real call: it buffers the spare half, as one call did
                bits[i, -1] = rng.integers(0, 2)
        # integers(0, 2, size=L + 1) of a fresh generator: the top bit of each 32-bit half, low half first
        draw = words.astype("<u8", copy=False).view("<u4") >> 31
        targets[:], bits[:, : draw.shape[1] - 1] = draw[:, 0], draw[:, 1:]
        bits[:, n_data:] = 1
        taps = draw_channel(cfg, targets, rngs)
        samples = apply_channel(ppm_modulate(bits, L_b), taps, noise_var, rngs)
        rows["inputs"] = frame_received(samples, L_b, noise_var).slot_inputs

    if out is not None:
        out.write(_HEADER.pack(DATASET_MAGIC, DATASET_VERSION, n, L, L_b, cfg.snr_db, master_seed))
    # fill calls no BLAS, so it forks with BLAS threads unpinned, even without OpenBLAS's thread control.
    _deal_blocks(fill, -(-n // _BLOCK), lambda j: (block(j),),
                 landed=lambda j: out is None or out.write(block(j)))
    return records


def generate_dataset(
    cfg: ChannelConfig,
    L: int,
    L_b: int,
    n: int,
    master_seed: int = 0,
    alpha: float | None = None,
) -> Dataset:
    """Draw n labeled frames through the configured channel.

    Per example, from example_rng(master_seed, i) and in fixed order: target
    indicator, slot bits, channel realization, receiver noise.  alpha=None
    draws ISAC frames; an alpha draws SSAC frames, whose trailing sensing
    slots are overwritten with 1 after the bit draw, so the two receivers'
    sets consume identical random streams and share channels and noise
    example for example.  Its arrays are views of NISD records, as a loaded dataset's are.
    """
    records = _draw_records(cfg, L, L_b, n, master_seed, alpha)
    return Dataset(inputs=records["inputs"], bits=records["bits"], targets=records["v"],
                   L_b=L_b, snr_db=cfg.snr_db, master_seed=master_seed)


def stream_dataset(path, cfg: ChannelConfig, L: int, L_b: int, n: int, master_seed: int,
                   alpha: float | None) -> None:
    """Write the NISD file of generate_dataset's dataset, byte for byte, holding one block of
    records at a time: each block is written as soon as it is drawn."""
    with staged_path(path) as tmp, open(tmp, "wb") as fh:
        _draw_records(cfg, L, L_b, n, master_seed, alpha, fh)


def _payload_dtype(L: int, L_b: int) -> np.dtype:
    return np.dtype([("v", "u1"), ("bits", "u1", (L,)), ("inputs", "<f4", (L, 4 * L_b))])


def save_dataset(dataset: Dataset, path) -> None:
    """Write the dataset in the little-endian NISD layout, _SAVE_CHUNK records at a time."""
    n = dataset.example_count
    header = _HEADER.pack(
        DATASET_MAGIC, DATASET_VERSION,
        n, dataset.slot_count, dataset.L_b,
        dataset.snr_db, dataset.master_seed,
    )
    chunk = np.empty(min(n, _SAVE_CHUNK), dtype=_payload_dtype(dataset.slot_count, dataset.L_b))
    with staged_path(path) as tmp, open(tmp, "wb") as fh:
        fh.write(header)
        for start in range(0, n, _SAVE_CHUNK):
            stop = min(start + _SAVE_CHUNK, n)
            rows, records = slice(start, stop), chunk[: stop - start]
            records["v"] = dataset.targets[rows]
            records["bits"] = dataset.bits[rows]
            records["inputs"] = dataset.inputs[rows]
            fh.write(records.data)


def load_dataset(path) -> Dataset:
    """Read a dataset written by save_dataset; round trip is bit-exact.

    The file is read once, into one buffer, and the dataset's inputs, bits
    and targets are read-only views of its records.  The read is a plain
    read, not np.fromfile, which must know the file position and so cannot
    read a pipe.
    """
    # the record size is _payload_dtype(L, L_b).itemsize, computed without
    # building the dtype, so a corrupt count fails the size check first
    fields, payload = read_file(path, _HEADER, DATASET_MAGIC, DATASET_VERSION, "dataset",
                                lambda n, L, L_b, *_: n * (1 + L + 16 * L * L_b))
    n, L, L_b, snr_db, master_seed = fields
    try:  # n = 0 passes the size check for any L and L_b, which the dtype may refuse
        records = np.frombuffer(payload, dtype=_payload_dtype(L, L_b))
        return Dataset(
            inputs=records["inputs"],
            bits=records["bits"],
            targets=records["v"],
            L_b=L_b,
            snr_db=snr_db,
            master_seed=master_seed,
        )
    except ValueError as exc:
        raise InvalidContentError(f"dataset file holds an invalid dataset: {exc}") from exc
