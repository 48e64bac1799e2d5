"""Frame generation determinism and the binary dataset format."""

import copy
import hashlib
import os
import select
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nisaclab.dataset as dataset_module
import nisaclab.workers as workers_module
from nisaclab.channel import (
    ChannelConfig,
    apply_channel,
    draw_channel,
    frame_received,
    noise_variance_from_snr,
)
from nisaclab.cli import main
from nisaclab.dataset import (
    _BLOCK,
    Dataset,
    _payload_dtype,
    example_rng,
    generate_dataset,
    load_dataset,
    save_dataset,
    stream_dataset,
)
from nisaclab.errors import (
    BadMagicError,
    FileFormatError,
    FormatVersionError,
    InvalidContentError,
    TruncatedFileError,
)
from nisaclab.modem import ppm_modulate, slot_split
from nisaclab.workers import _FORK_BLOCKS

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


SEEDS = [0, 1, 12345, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1]
INDICES = [0, 1, 2, 63, 64, 4999, 2**31, 2**32 - 1]


class TestExampleRng:
    """example_rng hashes numpy's SeedSequence words itself, so both of its
    forms are checked against numpy's own generator for each seed width."""

    @pytest.mark.parametrize("master_seed", SEEDS)
    def test_block_and_scalar_forms_equal_numpy(self, master_seed):
        block = example_rng(master_seed, np.array(INDICES))
        assert len(block) == len(INDICES)
        for index, from_block in zip(INDICES, block):
            expected = np.random.default_rng(
                np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)))
            alone = example_rng(master_seed, index)
            assert from_block.bit_generator.state == expected.bit_generator.state
            assert alone.bit_generator.state == expected.bit_generator.state
            draws = expected.integers(0, 2**63, size=4)
            assert np.array_equal(from_block.integers(0, 2**63, size=4), draws)
            assert np.array_equal(alone.integers(0, 2**63, size=4), draws)

    @pytest.mark.parametrize("master_seed", [-1, 2**64])
    def test_rejects_seed_outside_64_bits(self, master_seed):
        with pytest.raises(ValueError, match="master_seed"):
            example_rng(master_seed, 0)
        with pytest.raises(ValueError, match="master_seed"):
            example_rng(master_seed, np.arange(3))

    @pytest.mark.parametrize("index", [-1, 2**32, 2**64, [0, -1], [0, 2**32], [0.0, 1.0]],
                             ids=["-1", "2**32", "2**64", "block-with--1", "block-with-2**32",
                                  "float-block"])
    def test_rejects_index_outside_32_bits(self, index):
        with pytest.raises(ValueError, match="indices"):
            example_rng(7, index)

    def test_generation_checks_the_seed_before_drawing(self, monkeypatch):
        monkeypatch.setattr(dataset_module, "draw_channel",
                            lambda *args: pytest.fail("a channel was drawn"))
        with pytest.raises(ValueError, match="master_seed"):
            generate_dataset(CFG, L=8, L_b=1, n=3, master_seed=2**64)


class TestRegeneration:
    """Every example equals its rebuild from the single-frame calls, in the
    draw order generate_dataset documents; n crosses a block edge."""

    @pytest.mark.parametrize("cfg", [CFG], ids=["default"])
    @pytest.mark.parametrize("L_b", [1, 4])
    @pytest.mark.parametrize("alpha", [None, 0.5], ids=["isac-None", "ssac-0.5"])
    def test_examples_rebuild_alone(self, cfg, L_b, alpha):
        L, n, seed = 80, _BLOCK + 1, 11
        ds = generate_dataset(cfg, L, L_b, n, master_seed=seed, alpha=alpha)
        n_data = slot_split(alpha, L)[0]
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


class TestOneDrawForTargetAndBits:
    """A frame's target and bits are the values of one integers(0, 2,
    size=L + 1) (TestRawWordDraws); it matches the two-call form of the
    single-frame rebuild value for value and leaves the generator in the
    same state."""

    @pytest.mark.parametrize("L", [1, 8, 80])
    def test_one_call_equals_target_then_bits(self, L):
        for master_seed in range(200):
            one = example_rng(master_seed, np.arange(0, 64, 7))
            two = example_rng(master_seed, np.arange(0, 64, 7))
            for a, b in zip(one, two):
                draw = a.integers(0, 2, size=L + 1)
                assert draw[0] == b.integers(0, 2)
                assert np.array_equal(draw[1:], b.integers(0, 2, size=L))
                assert a.bit_generator.state == b.bit_generator.state
                assert np.array_equal(a.standard_normal(3), b.standard_normal(3))


class TestRawWordDraws:
    """The block body reads each frame's target and bits off PCG64's raw words
    and draw_channel its phases: per frame, through generate_dataset, they equal
    numpy's integers(0, 2, size=L + 1) and uniform(0, 2pi, size=5) on a fresh
    example_rng(seed, i), for L odd and even, and the generator reaches the
    channel draw in the state numpy's call leaves, so the delays and the noise
    after them stay aligned.  A numpy release that changes integers or uniform
    fails this test by name, before the golden digests do."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**64 - 1), L=st.integers(1, 24), n=st.integers(1, 3),
           alpha=st.sampled_from([None, 0.5]))
    def test_targets_bits_and_phases_equal_numpys_calls(self, numpy_taps, seed, L, n, alpha):
        if alpha is not None and L < 2:
            L = 2  # SSAC needs a data slot and a sensing slot
        seen = []

        def spy(cfg, v, rngs):  # each frame's generator and taps, as the channel draw sees them
            states = [copy.deepcopy(g) for g in rngs]
            taps = draw_channel(cfg, v, rngs)
            seen.extend(zip(states, taps))
            return taps

        with pytest.MonkeyPatch.context() as m:
            m.setattr(dataset_module, "draw_channel", spy)
            ds = generate_dataset(CFG, L, 1, n, master_seed=seed, alpha=alpha)
        n_data = slot_split(alpha, L)[0]
        assert len(seen) == n
        for i, (got, taps) in enumerate(seen):
            want = example_rng(seed, i)
            draw = want.integers(0, 2, size=L + 1)
            draw[1 + n_data:] = 1
            assert ds.targets[i] == draw[0]
            assert ds.bits[i].tolist() == draw[1:].tolist()
            # the same words taken, and the same spare 32-bit half buffered, or none
            # (a spent half's stale value stays in numpy's state but is never read)
            ours, numpys = got.bit_generator.state, want.bit_generator.state
            assert ours["state"] == numpys["state"]
            assert ours["has_uint32"] == numpys["has_uint32"]
            assert not ours["has_uint32"] or ours["uinteger"] == numpys["uinteger"]
            assert taps.tobytes() == numpy_taps(want, draw[0]).tobytes()
            numpy_taps(got, draw[0])  # the channel's draws, delays last, then the first noise normals
            assert got.standard_normal(4).tobytes() == want.standard_normal(4).tobytes()


class TestForkedGeneration:
    """Blocks drawn by forked children land in the dataset's arrays exactly
    as one process draws them, and no child outlives the call.  Each test
    lets a process draw as few as one block, so small sets fork too."""

    @pytest.fixture(autouse=True)
    def fork_from_one_block(self, monkeypatch):
        monkeypatch.setattr(workers_module, "_FORK_BLOCKS", 1)

    @pytest.mark.parametrize("n", [63, 64, 65, 129, 200])
    @pytest.mark.parametrize("L_b", [1, 2, 4])
    @pytest.mark.parametrize("alpha", [None, 0.5], ids=["isac-None", "ssac-0.5"])
    def test_forked_equals_serial_byte_for_byte(self, affinity, monkeypatch, n, L_b, alpha):
        real_fork, forks = os.fork, []
        affinity(1)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one CPU"))
        serial = generate_dataset(CFG, 80, L_b, n, master_seed=5, alpha=alpha)
        affinity(3)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        forked = generate_dataset(CFG, 80, L_b, n, master_seed=5, alpha=alpha)
        assert len(forks) == min(3, -(-n // _BLOCK)) - 1
        for name in ("inputs", "bits", "targets"):
            assert getattr(forked, name).tobytes() == getattr(serial, name).tobytes()

    def test_serial_without_fork(self, affinity, monkeypatch):
        affinity(2)
        forked = generate_dataset(CFG, 8, 1, 3 * _BLOCK, master_seed=5)
        monkeypatch.delattr(os, "fork")
        assert generate_dataset(CFG, 8, 1, 3 * _BLOCK, master_seed=5) == forked

    @pytest.mark.parametrize("n", [63, 64, 65, 200])
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_streamed_file_equals_the_saved_dataset(self, affinity, tmp_path, n, cpus):
        affinity(cpus)
        save_dataset(generate_dataset(CFG, 8, 2, n, master_seed=5, alpha=0.5), tmp_path / "saved.nisd")
        stream_dataset(tmp_path / "streamed.nisd", CFG, 8, 2, n, 5, 0.5)
        assert (tmp_path / "streamed.nisd").read_bytes() == (tmp_path / "saved.nisd").read_bytes()

    def test_a_block_a_child_did_not_send_is_drawn_here(self, affinity, monkeypatch, tmp_path):
        # the child stops at its first block, so this process draws that block and its later ones
        parent, draw, real_fork, forks = os.getpid(), dataset_module.draw_channel, os.fork, []

        def child_fails(cfg, v, rngs):
            if os.getpid() != parent:
                raise RuntimeError("child fault")
            return draw(cfg, v, rngs)

        affinity(1)
        serial = generate_dataset(CFG, 8, 1, 4 * _BLOCK + 5)
        save_dataset(serial, tmp_path / "serial.nisd")
        affinity(2)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        monkeypatch.setattr(dataset_module, "draw_channel", child_fails)
        assert generate_dataset(CFG, 8, 1, 4 * _BLOCK + 5) == serial
        stream_dataset(tmp_path / "streamed.nisd", CFG, 8, 1, 4 * _BLOCK + 5, 0, None)
        assert (tmp_path / "streamed.nisd").read_bytes() == (tmp_path / "serial.nisd").read_bytes()
        assert len(forks) == 2

    def test_a_fault_of_a_childs_block_raises_here_as_itself(self, affinity, monkeypatch):
        # keyed on the rows of block 1, which a child draws first, not on the process
        real_rng, real_fork, forks = dataset_module.example_rng, os.fork, []

        def block_1_fails(master_seed, index):
            if np.ndim(index) and index[0] == _BLOCK:
                raise ZeroDivisionError("block 1 fault")
            return real_rng(master_seed, index)

        affinity(2)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        monkeypatch.setattr(dataset_module, "example_rng", block_1_fails)
        with pytest.raises(ZeroDivisionError, match="block 1 fault"):
            generate_dataset(CFG, 8, 1, 3 * _BLOCK)
        assert len(forks) == 1

    def test_a_parent_fault_kills_and_reaps_the_children(self, affinity, monkeypatch):
        parent, pids, real_fork = os.getpid(), [], os.fork

        def parent_fails(cfg, v, rngs):
            if os.getpid() == parent:
                raise KeyError("parent fault")
            time.sleep(60)  # only SIGKILL ends the child in time

        def fork():
            pid = real_fork()
            pids.append(pid)
            return pid

        affinity(3)
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(dataset_module, "draw_channel", parent_fails)
        t0 = time.perf_counter()
        with pytest.raises(KeyError, match="parent fault"):
            generate_dataset(CFG, 8, 1, 3 * _BLOCK)
        assert time.perf_counter() - t0 < 30
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ChildProcessError):  # reaped already
                os.waitpid(pid, os.WNOHANG)

    def test_children_exit_when_the_parent_is_killed(self):
        # the parent stalls in its first block and is killed; its child, whose
        # writes then block on a full pipe, must see the pipe break and exit
        script = textwrap.dedent("""
            import os, time
            import nisaclab.dataset as dataset
            import nisaclab.workers as workers
            from nisaclab.channel import ChannelConfig
            parent, fork, draw = os.getpid(), os.fork, dataset.draw_channel
            def reporting_fork():
                pid = fork()
                if pid:
                    print(pid, flush=True)
                return pid
            def stalling_parent(cfg, v, rngs):
                if os.getpid() == parent:
                    time.sleep(60)
                return draw(cfg, v, rngs)
            os.sched_getaffinity = lambda pid: {0, 1}
            os.fork, dataset.draw_channel, workers._FORK_BLOCKS = reporting_fork, stalling_parent, 1
            dataset.generate_dataset(ChannelConfig(), 80, 4, 4 * 64)
        """)
        # every process holding alive_w keeps alive_r from reaching end of file
        alive_r, alive_w = os.pipe()
        env = {**os.environ, "PYTHONPATH": str(Path(dataset_module.__file__).parents[1])}
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE, pass_fds=(alive_w,))
        os.close(alive_w)
        with proc:
            child = int(proc.stdout.readline())
            proc.kill()
        gone = select.select([alive_r], [], [], 30)[0]
        os.close(alive_r)
        if not gone:
            os.kill(child, signal.SIGKILL)
        assert gone, "a child outlived its killed parent"

    def test_small_set_draws_serially(self, affinity, monkeypatch):
        monkeypatch.setattr(workers_module, "_FORK_BLOCKS", _FORK_BLOCKS)  # the module's own rule
        affinity(2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for a 4-block set"))
        serial = generate_dataset(CFG, 8, 1, 4 * _BLOCK, master_seed=5)
        monkeypatch.delattr(os, "fork")
        assert generate_dataset(CFG, 8, 1, 4 * _BLOCK, master_seed=5) == serial

    def test_checks_run_before_any_fork(self, affinity, monkeypatch):
        affinity(2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        for kwargs in (dict(n=2 * _BLOCK, master_seed=2**64), dict(n=2**32 + 1),
                       dict(n=2 * _BLOCK, alpha=1.0), dict(n=2 * _BLOCK, L_b=0)):
            with pytest.raises(ValueError):
                generate_dataset(CFG, **{"L": 8, "L_b": 1, **kwargs})


class TestGoldenBytes:
    """The saved bytes of three small datasets are pinned, so any change to
    the stored draws or values fails here."""

    @pytest.mark.parametrize("kwargs, digest", [
        (dict(L_b=4, master_seed=0),
         "aef08d39fe2f9a46c86d2d1be342b161e06ea1ac30719f593a3f0630c92cbbed"),
        (dict(L_b=1, alpha=0.5, master_seed=3),
         "be69d9485704f0989192ed9a45665995360a34017c66675a43af3bcc2e8b337e"),
        # a seed of two 32-bit words pins the high word, which is 0 below 2**32
        (dict(L_b=2, master_seed=2**40 + 3),
         "d03f6fb30b5b92389617092197a0d59646e66535c3df3ec0e6caf9265db60343"),
    ], ids=["isac-Lb4-seed0", "ssac-Lb1-seed3", "isac-Lb2-seed2**40+3"])
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

    def test_ceil_data_slots(self):
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

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_loads_from_a_pipe(self, small, tmp_path, load_through_pipe):
        path = tmp_path / "d.nisd"
        save_dataset(small, path)
        assert load_through_pipe(load_dataset, path) == small

    def test_second_save_is_byte_identical(self, small, tmp_path):
        p1, p2 = tmp_path / "a.nisd", tmp_path / "b.nisd"
        save_dataset(small, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_a_strided_view_saves_as_its_copy(self, small, tmp_path):
        view = Dataset(small.records[::2], small.snr_db, small.master_seed)
        assert not view.records.flags.c_contiguous
        save_dataset(view, tmp_path / "view.nisd")
        save_dataset(Dataset(view.records.copy(), small.snr_db, small.master_seed), tmp_path / "copy.nisd")
        assert (tmp_path / "view.nisd").read_bytes() == (tmp_path / "copy.nisd").read_bytes()
        assert load_dataset(tmp_path / "view.nisd") == view

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
        saved = path.read_bytes()
        raw = bytearray(saved)
        raw[8:12] = (0).to_bytes(4, "little")  # example count field
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
            load_dataset(path)
        # with a payload that matches the zero count, Dataset refuses the counts
        for field, payload in ((8, 0), (12, 10 * 1), (16, 10 * (1 + 8))):  # n, L, L_b of n=10, L=8
            raw = bytearray(saved[:36 + payload])
            raw[field:field + 4] = (0).to_bytes(4, "little")
            path.write_bytes(bytes(raw))
            with pytest.raises(InvalidContentError, match="n >= 1 examples, L >= 1 slots and L_b >= 1"):
                load_dataset(path)

    def test_zero_count_header_with_unbuildable_record_rejected(self, small, tmp_path):
        # n = 0 promises no payload whatever L is, and L = 2**31 fits no record dtype
        path = tmp_path / "d.nisd"
        save_dataset(small, path)
        raw = bytearray(path.read_bytes()[:36])
        raw[8:16] = (0).to_bytes(4, "little") + (2**31).to_bytes(4, "little")  # n, L
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidContentError, match="invalid dataset"):
            load_dataset(path)


class TestMemory:
    """A load holds the file's bytes and little more, and a save or gen a small
    fraction of them: no full-size copy of the records."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("memory") / "d.nisd"
        ds = generate_dataset(CFG, L=80, L_b=4, n=2000, master_seed=0)
        save_dataset(ds, path)
        return ds, path

    def test_load_peak_is_about_the_file(self, saved, peak_bytes):
        _, path = saved
        assert peak_bytes(lambda: load_dataset(path)) <= 1.3 * path.stat().st_size

    def test_save_peak_is_a_fraction_of_the_file(self, saved, tmp_path, peak_bytes):
        # the records are written as they are held: no buffer that grows with the set
        ds, path = saved
        copy = tmp_path / "copy.nisd"
        assert peak_bytes(lambda: save_dataset(ds, copy)) <= 64 * 1024
        assert copy.read_bytes() == path.read_bytes()

    def test_gen_peak_does_not_grow_with_the_set(self, tmp_path, peak_bytes):
        paths = [tmp_path / "train.nisd", tmp_path / "test.nisd"]

        def gen(blocks):
            n = str(blocks * _BLOCK)
            assert main(["gen", "--n-train", n, "--n-test", n, "--L", "80", "--Lb", "4",
                         "--out-train", str(paths[0]), "--out-test", str(paths[1])]) == 0

        gen(1)  # the first call's one-off allocations are not the command's
        small, large = (peak_bytes(lambda: gen(blocks)) for blocks in (4, 16))
        assert abs(large - small) <= _BLOCK * _payload_dtype(80, 4).itemsize
        assert large <= 0.25 * sum(path.stat().st_size for path in paths)

    @pytest.mark.parametrize("blocks_written", [0, 2])
    def test_a_failing_write_exits_3_and_leaves_nothing(self, affinity, monkeypatch, tmp_path, blocks_written):
        real_open, real_fork, forks = open, os.fork, []

        def full_disk_open(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            writes, real_write = [], fh.write

            def write(data):  # the header, then blocks_written blocks
                if len(writes) > blocks_written:
                    raise OSError(28, "No space left on device")
                writes.append(1)
                return real_write(data)

            fh.write = write
            return fh

        monkeypatch.setattr(workers_module, "_FORK_BLOCKS", 1)
        affinity(2)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        monkeypatch.setattr(dataset_module, "open", full_disk_open, raising=False)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["gen", "--n-train", str(4 * _BLOCK), "--n-test", "3", "--L", "8",
                     "--out-train", str(out / "a.nisd"), "--out-test", str(out / "b.nisd")]) == 3
        assert list(out.iterdir()) == []
        assert forks
        with pytest.raises(ChildProcessError):  # every child is reaped
            os.waitpid(-1, os.WNOHANG)


class TestDatasetValidation:
    @pytest.mark.parametrize("records", [
        np.zeros((2, 1), _payload_dtype(3, 1)),
        np.zeros(2, [("v", "u1"), ("bits", "u1", (4,)), ("inputs", "<f4", (3, 4))]),
        np.zeros(2, [("v", "u1"), ("bits", "u1", (3,)), ("inputs", "<f4", (3, 6))]),
        np.zeros(2, [("v", "u1"), ("bits", "u1", (3,)), ("inputs", "<f8", (3, 4))]),
        np.zeros(2, [("v", "u1"), ("bits", "u1", (3,)), ("inputs", ">f4", (3, 4))]),
        np.zeros(2, np.dtype([("v", "u1"), ("bits", "u1", (2,)), ("inputs", "<f4", (2, 4))], align=True)),
        np.zeros(2, [("target", "u1"), ("bits", "u1", (3,)), ("inputs", "<f4", (3, 4))]),
        np.zeros(2, [("v", "u1"), ("bits", "u1", (3,)), ("x", "<f4", (3, 4))]),
        np.zeros(2, [("v", "u1"), ("bits", "u1", (3,)), ("inputs", "<f4", (12,))]),
        np.zeros(2, np.float32),
        np.zeros((2, 3, 4), np.float32),
        [(0, [0, 0, 0], np.zeros((3, 4)))],
    ], ids=["two-d", "slots", "width", "float64", "big-endian", "aligned", "names", "no-inputs",
            "flat-inputs", "plain-array", "inputs-array", "list"])
    def test_rejects_records_other_than_nisd_records(self, records):
        with pytest.raises(ValueError, match="NISD records"):
            Dataset(records, snr_db=10.0, master_seed=0)

    def test_rejects_non_finite_inputs(self, nisd_dataset):
        inputs = np.zeros((1, 2, 4))
        inputs[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            nisd_dataset(1, 2, inputs=inputs)

    @pytest.mark.parametrize("n, L, L_b", [(0, 2, 1), (3, 0, 1), (1, 2, 0)],
                             ids=["no-examples", "no-slots", "no-chips"])
    def test_rejects_empty_counts_that_the_file_format_refuses(self, nisd_dataset, n, L, L_b):
        with pytest.raises(ValueError, match="n >= 1"):
            nisd_dataset(n, L, L_b)

    @pytest.mark.parametrize("patterns", [[0xFFB670D6], [0x7F800000, 0xFF800000]],
                             ids=["signalling-nan", "inf-and-minus-inf"])
    def test_rejects_invalid_float32_inputs_without_a_warning(self, nisd_dataset, patterns):
        # the patterns set numpy's invalid flag in the finiteness sum, and the
        # tests turn warnings into errors; a byte flip in a NISD file made the
        # signalling NaN, so a warning there escaped load_dataset
        bad = np.zeros((1, 2, 4), dtype=np.float32)
        bad.view(np.uint32)[0, 1, :len(patterns)] = patterns
        with pytest.raises(ValueError, match="finite"):
            nisd_dataset(1, 2, inputs=bad)

    @pytest.mark.parametrize("field", ["bits", "v"])
    def test_rejects_labels_other_than_0_or_1(self, nisd_dataset, field):
        with pytest.raises(ValueError, match="0 or 1"):
            nisd_dataset(2, 3, **{field: 2})

    @pytest.mark.parametrize("field, value", [("master_seed", 0.5)])
    def test_counts_must_be_integers(self, nisd_dataset, field, value):
        with pytest.raises(TypeError):
            nisd_dataset(1, 2, **{field: value})

    def test_numpy_integer_counts_build_a_saveable_dataset(self, nisd_dataset, tmp_path):
        ds = nisd_dataset(1, 2, master_seed=np.uint64(2**64 - 1))
        assert type(ds.L_b) is int and type(ds.master_seed) is int
        save_dataset(ds, tmp_path / "d.nisd")
        assert load_dataset(tmp_path / "d.nisd") == ds

    @pytest.mark.parametrize("master_seed", [-1, 2**64])
    def test_rejects_seed_outside_64_bits(self, nisd_dataset, master_seed):
        with pytest.raises(ValueError, match="master_seed"):
            nisd_dataset(1, 2, master_seed=master_seed)

    def test_equality_compares_values_and_record_dtypes(self, nisd_dataset):
        zeros, minus_zeros = nisd_dataset(2, 3), nisd_dataset(2, 3, inputs=-0.0)
        assert np.signbit(minus_zeros.inputs).all()
        assert zeros == minus_zeros  # -0.0 == 0.0, as the old per-array comparison had it
        assert zeros != nisd_dataset(2, 3, L_b=2)
        assert zeros != nisd_dataset(2, 4) and zeros != nisd_dataset(3, 3)
        assert zeros != nisd_dataset(2, 3, snr_db=3.0) and zeros != nisd_dataset(2, 3, master_seed=1)
        assert zeros != nisd_dataset(2, 3, bits=[1, 0, 0])

    def test_equality_with_a_non_dataset(self, small):
        assert small.__eq__(1) is NotImplemented
        assert small != 1 and not small == 1

    @pytest.mark.parametrize("L, L_b", [(1, 1), (8, 2), (80, 4), (3, 7)])
    def test_load_record_size_is_the_record_dtype_size(self, L, L_b):
        # load_dataset checks the payload size with this formula before it
        # builds the record dtype from the header's counts
        assert 1 + L + 16 * L * L_b == _payload_dtype(L, L_b).itemsize
