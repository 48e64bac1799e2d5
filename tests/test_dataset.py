"""Frame generation determinism and the binary dataset format."""

import hashlib
import os
import threading
import tracemalloc

import numpy as np
import pytest

from nisaclab.channel import (
    ChannelConfig,
    apply_channel,
    draw_channel,
    frame_received,
    noise_variance_from_snr,
)
from nisaclab.dataset import (
    _BLOCK,
    Dataset,
    _payload_dtype,
    example_rng,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from nisaclab.errors import (
    BadMagicError,
    FileFormatError,
    FormatVersionError,
    InvalidContentError,
    TruncatedFileError,
)
from nisaclab.modem import ppm_modulate, ssac_data_slots

CFG = ChannelConfig(snr_db=10.0)


@pytest.fixture(scope="module")
def small():
    return generate_dataset(CFG, L=8, L_b=2, n=10, master_seed=42)


class TestGenerate:
    def test_shapes(self):
        ds = generate_dataset(CFG, L=80, L_b=1, n=100, master_seed=0)
        assert ds.inputs.shape == (100, 80, 4)
        assert ds.bits.shape == (100, 80)
        assert ds.targets.shape == (100,)
        assert ds.example_count == 100
        assert ds.slot_count == 80

    def test_target_prior_is_balanced(self):
        ds = generate_dataset(CFG, L=4, L_b=1, n=10_000, master_seed=1)
        assert abs(ds.targets.mean() - 0.5) <= 0.02

    def test_same_seed_same_dataset(self):
        a = generate_dataset(CFG, L=8, L_b=1, n=20, master_seed=7)
        b = generate_dataset(CFG, L=8, L_b=1, n=20, master_seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_dataset(CFG, L=8, L_b=1, n=20, master_seed=7)
        b = generate_dataset(CFG, L=8, L_b=1, n=20, master_seed=8)
        assert a != b

    def test_examples_are_independent_of_dataset_size(self):
        # example i depends only on (master_seed, i), so prefixes agree
        a = generate_dataset(CFG, L=8, L_b=1, n=6, master_seed=3)
        b = generate_dataset(CFG, L=8, L_b=1, n=12, master_seed=3)
        assert np.array_equal(a.inputs, b.inputs[:6])
        assert np.array_equal(a.bits, b.bits[:6])
        assert np.array_equal(a.targets, b.targets[:6])

    def test_example_rng_determinism(self):
        a = example_rng(5, 3).integers(0, 1000, size=4)
        b = example_rng(5, 3).integers(0, 1000, size=4)
        assert np.array_equal(a, b)
        c = example_rng(5, 4).integers(0, 1000, size=4)
        assert not np.array_equal(a, c)

    def test_inputs_are_float32_exact(self, small):
        assert small.inputs.dtype == np.float32

    def test_rejects_bad_mode(self):
        # alpha=None is ISAC and an alpha is SSAC; there is no mode keyword
        with pytest.raises(TypeError):
            generate_dataset(CFG, L=8, L_b=1, n=2, mode="isac")

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            generate_dataset(CFG, L=0, L_b=1, n=2)
        with pytest.raises(ValueError):
            generate_dataset(CFG, L=8, L_b=1, n=0)


class TestRegeneration:
    """Every example equals its rebuild from the single-frame calls, in the
    draw order generate_dataset documents; n crosses a block edge."""

    @pytest.mark.parametrize("cfg", [CFG], ids=["default"])
    @pytest.mark.parametrize("L_b", [1, 4])
    @pytest.mark.parametrize("alpha", [None, 0.5], ids=["isac-None", "ssac-0.5"])
    def test_examples_rebuild_alone(self, cfg, L_b, alpha):
        L, n, seed = 80, _BLOCK + 1, 11
        ds = generate_dataset(cfg, L, L_b, n, master_seed=seed, alpha=alpha)
        n_data = L if alpha is None else ssac_data_slots(alpha, L)
        noise_var = noise_variance_from_snr(cfg)
        for i in range(n):
            rng = example_rng(seed, i)
            v = int(rng.integers(0, 2))
            bits = rng.integers(0, 2, size=L).astype(np.uint8)
            bits[n_data:] = 1
            taps = draw_channel(cfg, v, rng)
            samples = apply_channel(ppm_modulate(bits, L_b), taps, noise_var, rng)
            inputs = frame_received(samples, L_b, noise_var).slot_inputs.astype(np.float32)
            assert ds.targets[i] == v
            assert np.array_equal(ds.bits[i], bits)
            assert ds.inputs[i].tobytes() == inputs.tobytes()


class TestGoldenBytes:
    """The saved bytes of two small datasets are pinned, so any change to
    the stored draws or values fails here."""

    @pytest.mark.parametrize("kwargs, digest", [
        (dict(L_b=4, master_seed=0),
         "aef08d39fe2f9a46c86d2d1be342b161e06ea1ac30719f593a3f0630c92cbbed"),
        (dict(L_b=1, alpha=0.5, master_seed=3),
         "be69d9485704f0989192ed9a45665995360a34017c66675a43af3bcc2e8b337e"),
    ], ids=["isac-Lb4-seed0", "ssac-Lb1-seed3"])
    def test_saved_bytes(self, kwargs, digest, tmp_path):
        path = tmp_path / "d.nisd"
        save_dataset(generate_dataset(CFG, L=80, n=130, **kwargs), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestSsacMode:
    def test_requires_alpha(self):
        # an alpha that leaves no sensing slot; an SSAC set with no alpha is an ISAC set
        with pytest.raises(ValueError):
            generate_dataset(CFG, L=8, L_b=1, n=2, alpha=1.0)

    def test_sensing_slots_fixed_to_one(self):
        ds = generate_dataset(CFG, L=8, L_b=1, n=30, master_seed=2, alpha=0.5)
        assert (ds.bits[:, 4:] == 1).all()

    def test_shares_streams_with_isac(self):
        # identical seeds draw the same targets and the same data-slot bits
        isac = generate_dataset(CFG, L=8, L_b=1, n=30, master_seed=2)
        ssac = generate_dataset(CFG, L=8, L_b=1, n=30, master_seed=2, alpha=0.5)
        assert np.array_equal(isac.targets, ssac.targets)
        assert np.array_equal(isac.bits[:, :4], ssac.bits[:, :4])

    def test_ceil_data_slot_count(self):
        ds = generate_dataset(CFG, L=5, L_b=1, n=4, master_seed=0, alpha=0.3)
        assert (ds.bits[:, 2:] == 1).all()  # ceil(1.5) = 2 data slots


class TestPersistence:
    def test_round_trip(self, small, tmp_path):
        path = tmp_path / "d.nisd"
        save_dataset(small, path)
        loaded = load_dataset(path)
        assert loaded == small
        assert loaded.L_b == 2
        assert loaded.snr_db == 10.0
        assert loaded.master_seed == 42

    def test_float64_inputs_are_quantized_once(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(
            inputs=rng.standard_normal((5, 3, 8)), bits=rng.integers(0, 2, (5, 3)),
            targets=rng.integers(0, 2, 5), L_b=2, snr_db=3.0, master_seed=9,
        )
        assert ds.inputs.dtype == np.float32
        save_dataset(ds, tmp_path / "d.nisd")
        loaded = load_dataset(tmp_path / "d.nisd")
        assert loaded == ds
        assert loaded.inputs.dtype == np.float32

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_loads_from_a_pipe(self, small, tmp_path):
        path, pipe = tmp_path / "d.nisd", tmp_path / "pipe"
        save_dataset(small, path)
        os.mkfifo(pipe)
        writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()), daemon=True)
        writer.start()
        try:
            loaded = load_dataset(pipe)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert loaded == small

    def test_second_save_is_byte_identical(self, small, tmp_path):
        p1, p2 = tmp_path / "a.nisd", tmp_path / "b.nisd"
        save_dataset(small, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, small, tmp_path):
        path = tmp_path / "d.nisd"
        save_dataset(small, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            load_dataset(path)

    def test_bad_version(self, small, tmp_path):
        path = tmp_path / "d.nisd"
        save_dataset(small, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 77
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatVersionError):
            load_dataset(path)

    def test_truncated_header(self, small, tmp_path):
        path = tmp_path / "d.nisd"
        save_dataset(small, path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(TruncatedFileError):
            load_dataset(path)

    def test_truncated_payload(self, small, tmp_path):
        path = tmp_path / "d.nisd"
        save_dataset(small, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 5])
        with pytest.raises(TruncatedFileError):
            load_dataset(path)

    def test_trailing_bytes(self, small, tmp_path):
        path = tmp_path / "d.nisd"
        save_dataset(small, path)
        path.write_bytes(path.read_bytes() + b"xy")
        with pytest.raises(FileFormatError):
            load_dataset(path)

    @pytest.mark.parametrize("offset, value", [(36, 9), (36 + 1 + 3, 7)], ids=["target", "bit"])
    def test_non_binary_label_byte_rejected(self, small, tmp_path, offset, value):
        # example 0's record: its target byte right after the 36-byte header, then its bits
        path = tmp_path / "d.nisd"
        save_dataset(small, path)
        raw = bytearray(path.read_bytes())
        raw[offset] = value
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidContentError, match="0 or 1"):
            load_dataset(path)

    @pytest.mark.parametrize("snr_db", [np.nan, np.inf, 1000.0], ids=["nan", "inf", "1000"])
    def test_snr_out_of_range_rejected(self, small, tmp_path, snr_db):
        path = tmp_path / "d.nisd"
        save_dataset(small, path)
        raw = bytearray(path.read_bytes())
        raw[20:28] = np.float64(snr_db).tobytes()  # header snr_db field
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidContentError, match="snr_db"):
            load_dataset(path)

    def test_zero_count_header_rejected(self, small, tmp_path):
        path = tmp_path / "d.nisd"
        save_dataset(small, path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = (0).to_bytes(4, "little")  # example count field
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
            load_dataset(path)


class TestMemory:
    """A load holds the file's bytes and little more, and a save a small
    fraction of them: no full-size copy of the records.  numpy reports its
    buffers to tracemalloc."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("memory") / "d.nisd"
        ds = generate_dataset(CFG, L=80, L_b=4, n=2000, master_seed=0)
        save_dataset(ds, path)
        return ds, path

    @staticmethod
    def _peak_bytes(call) -> int:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_load_peak_is_about_the_file(self, saved):
        _, path = saved
        assert self._peak_bytes(lambda: load_dataset(path)) <= 1.3 * path.stat().st_size

    def test_save_peak_is_a_fraction_of_the_file(self, saved, tmp_path):
        ds, path = saved
        copy = tmp_path / "copy.nisd"
        assert self._peak_bytes(lambda: save_dataset(ds, copy)) <= 0.25 * path.stat().st_size
        assert copy.read_bytes() == path.read_bytes()


class TestDatasetValidation:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(
                inputs=np.zeros((2, 4, 4)), bits=np.zeros((3, 4), dtype=np.uint8),
                targets=np.zeros(2, dtype=np.uint8), L_b=1, snr_db=10.0, master_seed=0,
            )

    def test_rejects_non_finite_inputs(self):
        bad = np.zeros((1, 2, 4))
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            Dataset(
                inputs=bad, bits=np.zeros((1, 2), dtype=np.uint8),
                targets=np.zeros(1, dtype=np.uint8), L_b=1, snr_db=10.0, master_seed=0,
            )

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(
                inputs=np.zeros((1, 2, 6)), bits=np.zeros((1, 2), dtype=np.uint8),
                targets=np.zeros(1, dtype=np.uint8), L_b=1, snr_db=10.0, master_seed=0,
            )

    @pytest.mark.parametrize("bits, targets", [
        (np.full((2, 3), 0.7), np.array([0.9, 1.5])),
        (np.full((2, 3), -255.0), np.zeros(2)),
        (np.zeros((2, 3)), np.array([0, 257])),
        (np.zeros((2, 3)), np.array([0.0, np.nan])),
    ], ids=["fractions", "negative-bits", "wrapping-target", "nan-target"])
    def test_rejects_labels_other_than_0_or_1_before_the_cast(self, bits, targets):
        with pytest.raises(ValueError, match="0 or 1"):
            Dataset(np.zeros((2, 3, 4)), bits, targets, L_b=1, snr_db=10.0, master_seed=0)

    def test_exact_float_labels_are_accepted(self):
        ds = Dataset(np.zeros((2, 3, 4)), np.ones((2, 3)), np.array([0.0, 1.0]),
                     L_b=1, snr_db=10.0, master_seed=0)
        assert ds.bits.dtype == ds.targets.dtype == np.uint8
        assert ds.bits.tolist() == [[1, 1, 1]] * 2 and ds.targets.tolist() == [0, 1]

    @pytest.mark.parametrize("field, value", [("L_b", 1.0), ("master_seed", 0.5)])
    def test_counts_must_be_integers(self, field, value):
        kwargs = {"L_b": 1, "snr_db": 10.0, "master_seed": 0, field: value}
        with pytest.raises(TypeError):
            Dataset(np.zeros((1, 2, 4)), np.zeros((1, 2)), np.zeros(1), **kwargs)

    def test_numpy_integer_counts_build_a_saveable_dataset(self, tmp_path):
        ds = Dataset(np.zeros((1, 2, 4)), np.zeros((1, 2)), np.zeros(1),
                     L_b=np.int64(1), snr_db=10.0, master_seed=np.uint64(2**64 - 1))
        assert type(ds.L_b) is int and type(ds.master_seed) is int
        save_dataset(ds, tmp_path / "d.nisd")
        assert load_dataset(tmp_path / "d.nisd") == ds

    @pytest.mark.parametrize("master_seed", [-1, 2**64])
    def test_rejects_seed_outside_64_bits(self, master_seed):
        with pytest.raises(ValueError, match="master_seed"):
            Dataset(np.zeros((1, 2, 4)), np.zeros((1, 2)), np.zeros(1),
                    L_b=1, snr_db=10.0, master_seed=master_seed)

    def test_equality_with_a_non_dataset(self, small):
        assert small.__eq__(1) is NotImplemented
        assert small != 1 and not small == 1

    @pytest.mark.parametrize("L, L_b", [(1, 1), (8, 2), (80, 4), (3, 7)])
    def test_load_record_size_is_the_record_dtype_size(self, L, L_b):
        # load_dataset checks the payload size with this formula before it
        # builds the record dtype from the header's counts
        assert 1 + L + 16 * L * L_b == _payload_dtype(L, L_b).itemsize
