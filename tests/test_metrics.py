"""Throughput, majority-rule detection, and whole-system evaluation."""

import ctypes
import dataclasses
import os
import time
import types

import numpy as np
import pytest

import nisaclab.metrics as metrics_module
import nisaclab.workers as workers_module
from nisaclab.channel import ChannelConfig
from nisaclab.dataset import Dataset, generate_dataset
from nisaclab.metrics import evaluate, evaluate_ssac, score_frames
from nisaclab.snn import COMM, SENSE, SnnModel, forward, forward_batch, init_model

CFG = ChannelConfig(snr_db=10.0)


def _silent_model(L_b: int = 1, hidden: int = 3) -> SnnModel:
    """Zero weights never cross threshold, so every readout spike is 0."""
    return SnnModel(
        input_weights=np.zeros((hidden, 4 * L_b)),
        readout_weights=np.zeros((2, hidden)),
    )


class TestNormalizedThroughput:
    """Throughput as evaluate and evaluate_ssac score it: correct data-slot
    bits over all slots, averaged over frames."""

    def test_all_correct_full_frame(self, scored_throughput):
        assert scored_throughput([[0, 1, 0, 1]], [[0, 1, 0, 1]]) == 1.0

    def test_sensing_slots_do_not_count_but_dilute(self, scored_throughput):
        # correct on both data slots, wrong on both sensing slots: 2/4
        assert scored_throughput([[0, 1, 0, 0]], [[0, 1, 1, 1]], alpha=0.5) == 0.5

    def test_partial_credit(self, scored_throughput):
        assert scored_throughput([[0, 1, 0, 0]], [[0, 1, 0, 1]]) == 0.75

    def test_mean_over_examples(self, scored_throughput):
        decisions = [[0, 1, 0, 1], [0, 1, 1, 0]]
        assert scored_throughput(decisions, [[0, 1, 0, 1], [0, 1, 0, 1]]) == 0.75

    def test_perfect_ssac_is_capped_by_data_fraction(self, scored_throughput):
        bits = np.ones((1, 8), dtype=np.uint8)
        bits[0, :3] = [0, 1, 0]
        assert scored_throughput(bits, bits, alpha=0.375) == 3 / 8  # ceil(0.375*8) = 3

    def test_shape_errors(self, isac_data):
        # a dataset holds bits and inputs of one shape, so the mismatch left
        # to reject is a model whose input width does not fit the frames
        with pytest.raises(ValueError):
            evaluate(_silent_model(L_b=2), isac_data)
        with pytest.raises(ValueError):
            evaluate_ssac(_silent_model(), _silent_model(L_b=2), isac_data, alpha=0.5)


def _detect(votes, sense_start=0):
    """score_frames' detection decision per row of (..., slots) sensing votes."""
    votes = np.asarray(votes)
    spikes = np.zeros((*votes.shape, 2))
    spikes[..., SENSE] = votes
    frames = spikes.reshape(-1, *spikes.shape[-2:])
    _, detect = score_frames(frames, np.zeros(frames.shape[:2]), 0, sense_start)
    return detect.reshape(votes.shape[:-1])


class TestMajorityDetection:
    def test_strict_majority_says_one(self):
        votes = np.zeros(80, dtype=np.uint8)
        votes[:41] = 1
        assert _detect(votes) == 1

    def test_all_zero_says_zero(self):
        assert _detect(np.zeros(80, dtype=np.uint8)) == 0

    def test_tie_says_zero(self):
        votes = np.zeros(80, dtype=np.uint8)
        votes[:40] = 1
        assert _detect(votes) == 0
        # the vote counts only the slots from sense_start on: 40 of 70 say 1
        assert _detect(votes[::-1], sense_start=10) == 1

    def test_order_invariant(self):
        rng = np.random.default_rng(0)
        votes = rng.integers(0, 2, size=31)
        assert _detect(votes) == _detect(votes[::-1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            _detect(np.array([]))
        with pytest.raises(ValueError):
            _detect(np.zeros((3, 0)))
        with pytest.raises(ValueError):
            _detect(np.zeros((3, 4)), sense_start=4)

    def test_rows_of_a_batch_vote_alone(self):
        rng = np.random.default_rng(4)
        votes = rng.integers(0, 2, size=(2, 5, 8))
        votes[0, 0] = [1] * 4 + [0] * 4  # a tie
        decisions = _detect(votes)
        assert decisions.shape == (2, 5) and decisions.dtype == bool
        assert decisions.tolist() == [[bool(_detect(v)) for v in row] for row in votes]


class TestDetectionError:
    """Detection error as evaluate scores it: the majority of the (n, slots)
    sensing votes against the targets.  The votes ride in the first input
    column, and a stand-in network echoes that column on its sensing readout,
    so they reach evaluate however it blocks the frames."""

    @pytest.fixture
    def scored_error(self, monkeypatch, nisd_dataset):
        def echo_votes(model, inputs):
            readout = np.zeros(inputs.shape[:2] + (2,))
            readout[:, :, SENSE] = inputs[:, :, 0]
            return None, np.zeros(inputs.shape[:2] + (1,)), None, readout

        monkeypatch.setattr(metrics_module, "forward_batch", echo_votes)

        def error(votes, targets) -> float:
            n, L = votes.shape
            inputs = np.zeros((n, L, 4))
            inputs[:, :, 0] = votes
            data = nisd_dataset(n, L, v=targets, inputs=inputs)
            return evaluate(_silent_model(hidden=1), data).detection_error

        return error

    def test_oracle_votes_have_zero_error(self, scored_error):
        rng = np.random.default_rng(1)
        targets = rng.integers(0, 2, size=200)
        votes = np.repeat(targets[:, None], 9, axis=1)
        assert scored_error(votes, targets) == 0.0

    def test_inverted_votes_have_full_error(self, scored_error):
        rng = np.random.default_rng(2)
        targets = rng.integers(0, 2, size=200)
        votes = np.repeat(1 - targets[:, None], 9, axis=1)
        assert scored_error(votes, targets) == 1.0

    def test_constant_one_votes_are_a_coin_flip(self, scored_error):
        # 10,000 frames: evaluate scores them over several blocks
        rng = np.random.default_rng(3)
        targets = rng.integers(0, 2, size=10_000)
        votes = np.ones((10_000, 7), dtype=np.uint8)
        err = scored_error(votes, targets)
        assert err == (targets == 0).mean()
        assert abs(err - 0.5) <= 0.02


@pytest.fixture(scope="module")
def isac_data():
    return generate_dataset(CFG, L=8, L_b=1, n=50, master_seed=11)


@pytest.fixture(scope="module")
def ssac_data():
    return generate_dataset(CFG, L=8, L_b=1, n=50, master_seed=11, alpha=0.5)


class TestModelEvaluation:
    def test_silent_model_closed_form(self, isac_data):
        # all-zero decisions: credit exactly where the true bit is 0,
        # majority vote 0 everywhere, no spikes at all
        res = evaluate(_silent_model(), isac_data)
        assert res.throughput == (isac_data.bits == 0).mean()
        assert res.detection_error == (isac_data.targets == 1).mean()
        assert res.mean_spike_count_per_slot == 0.0

    def test_detection_error_matches_evaluate(self, isac_data):
        # the batched vote in evaluate agrees with the one-frame majority
        # rule, written out here: present iff more than half the slots vote 1
        model = init_model(4, 1, np.random.default_rng(0))
        wrong = []
        for x, t in zip(isac_data.inputs, isac_data.targets):
            votes = forward(model, x).readout_spikes[:, SENSE]
            wrong.append(int(2 * votes.sum() > len(votes)) != t)
        assert 0.0 < np.mean(wrong) < 1.0
        assert evaluate(model, isac_data).detection_error == np.mean(wrong)

    def test_sense_start_restricts_votes(self, ssac_data, monkeypatch):
        # the sensing network votes 1 on every data slot and 0 on every
        # sensing slot: restricted to the sensing slots the vote says 0, over
        # the whole frame (6 of 8 slots) it would say 1
        alpha, n_data = 0.75, 6
        original = metrics_module.forward_batch

        def votes_on_data_slots(model, inputs):
            oh, bh, orr, br = original(model, inputs)
            br = br.copy()
            br[:, :, SENSE] = 0.0
            br[:, :n_data, SENSE] = 1.0
            return oh, bh, orr, br

        monkeypatch.setattr(metrics_module, "forward_batch", votes_on_data_slots)
        res = evaluate_ssac(_silent_model(), _silent_model(), ssac_data, alpha=alpha)
        says_zero, says_one = (ssac_data.targets == 1).mean(), (ssac_data.targets == 0).mean()
        assert says_zero != says_one
        assert res.detection_error == says_zero

    def test_empty_dataset_rejected(self, isac_data):
        # evaluation no longer re-checks the size: a frozen Dataset cannot be emptied on its way in
        with pytest.raises(dataclasses.FrozenInstanceError):
            isac_data.records = isac_data.records[:0]
        with pytest.raises(ValueError, match="n >= 1"):
            dataclasses.replace(isac_data, records=isac_data.records[:0])
        assert evaluate(_silent_model(), isac_data).throughput >= 0.0
        assert evaluate_ssac(_silent_model(), _silent_model(), isac_data, alpha=0.5).throughput >= 0.0

    def test_ssac_silent_closed_form(self, ssac_data):
        res = evaluate_ssac(_silent_model(), _silent_model(), ssac_data, alpha=0.5)
        want = (ssac_data.bits[:, :4] == 0).sum(axis=1) / 8
        assert res.throughput == want.mean()
        assert res.detection_error == (ssac_data.targets == 1).mean()
        assert res.mean_spike_count_per_slot == 0.0

    def test_ssac_alpha_validation(self, ssac_data):
        for alpha in (0.0, 1.0, -0.5, 2.0, 0.9):  # ceil(0.9*8) = 8 leaves no sensing slot
            with pytest.raises(ValueError):
                evaluate_ssac(_silent_model(), _silent_model(), ssac_data, alpha=alpha)


class TestBlockedEvaluation:
    """Evaluation over blocks of frames gives the same numbers, to the bit, as
    the per-slot formulas applied to one forward pass over every frame."""

    L, ALPHA = 10, 0.3  # L is no power of 2, so (correct / L) rounds

    @pytest.fixture
    def data(self):
        isac = generate_dataset(CFG, L=self.L, L_b=1, n=50, master_seed=5)
        ssac = generate_dataset(CFG, L=self.L, L_b=1, n=50, master_seed=5,
                                alpha=self.ALPHA)
        return isac, ssac

    @pytest.fixture
    def calls(self, monkeypatch, affinity):
        seen = []

        def spy(model, inputs):
            seen.append(np.array(inputs))
            return forward_batch(model, inputs)

        monkeypatch.setattr(metrics_module, "_BLOCK", 7)
        monkeypatch.setattr(metrics_module, "forward_batch", spy)
        # the spy sees only this process's calls, so this process scores every block
        affinity(1)
        return seen

    @staticmethod
    def _models():
        rng = np.random.default_rng(8)
        return [init_model(6, 1, rng) for _ in range(3)]

    def test_isac_equals_one_pass(self, data, calls):
        ds, _ = data
        model = self._models()[0]
        _, bh, _, br = forward_batch(model, ds.inputs)
        want = (
            float((br[:, :, COMM] == ds.bits).mean()),
            float(((br[:, :, SENSE].sum(axis=1) > self.L / 2) != ds.targets.astype(bool)).mean()),
            float((bh.sum(axis=2) + br.sum(axis=2)).mean()),
        )
        res = evaluate(model, ds)
        assert (res.throughput, res.detection_error, res.mean_spike_count_per_slot) == want
        assert want[2] > 0.0 and 0.0 < want[0] < 1.0
        assert all(type(v) is float for v in vars(res).values())
        assert [len(c) for c in calls] == [7] * 7 + [1]
        assert np.array_equal(np.concatenate(calls), ds.inputs)

    def test_ssac_equals_one_pass(self, data, calls):
        _, ds = data
        _, comm, sense = self._models()
        n_data = 3  # ceil(0.3 * 10)
        _, bh_c, _, br_c = forward_batch(comm, ds.inputs)
        _, bh_s, _, br_s = forward_batch(sense, ds.inputs)
        correct = (br_c[:, :n_data, COMM] == ds.bits[:, :n_data]).sum(axis=1)
        votes = br_s[:, n_data:, SENSE].sum(axis=1) > (self.L - n_data) / 2
        spikes = bh_c.sum(axis=2) + br_c.sum(axis=2) + bh_s.sum(axis=2) + br_s.sum(axis=2)
        want = (
            float((correct / self.L).mean()),
            float((votes != ds.targets.astype(bool)).mean()),
            float(spikes.mean()),
        )
        res = evaluate_ssac(comm, sense, ds, alpha=self.ALPHA)
        assert (res.throughput, res.detection_error, res.mean_spike_count_per_slot) == want
        assert want[2] > 0.0 and correct.any()
        assert all(type(v) is float for v in vars(res).values())
        assert all(len(c) <= 7 for c in calls) and len(calls) == 16
        # each block runs through the decode network, then the detection network
        blocks = [ds.inputs[start:start + 7] for start in range(0, 50, 7)]
        assert np.array_equal(np.concatenate(calls), np.concatenate([b for b in blocks for _ in range(2)]))


class TestEvaluationMemory:
    """Evaluation holds one block's records at a time, and a block's records
    stay small: the peak does not grow with the dataset."""

    def test_peak_is_small_and_flat_in_the_frame_count(self, peak_bytes):
        ds = generate_dataset(CFG, L=80, L_b=4, n=4000, master_seed=0)
        first = _head(ds, 1000)
        model = init_model(10, 4, np.random.default_rng(0))
        whole = peak_bytes(lambda: evaluate(model, ds))
        part = peak_bytes(lambda: evaluate(model, first))
        assert whole <= 10 * 2**20
        assert whole <= 1.1 * part


def _head(ds, n):
    return Dataset(ds.records[:n], ds.snr_db, ds.master_seed)


def _bits(result):
    return [v.hex() for v in dataclasses.astuple(result)]


def _no_library(path):
    raise OSError(f"{path}: cannot open shared object file")


@pytest.mark.skipif(workers_module._openblas_threads() is None,
                    reason="forked evaluation needs OpenBLAS's thread control")
class TestForkedEvaluation:
    """Blocks scored by forked children give the EvalResult one process
    gives, bit for bit; BLAS runs one thread per process while forked and
    the old count after; no child outlives the call.  Each test lets a
    process score as few as one block, so small sets fork too."""

    @pytest.fixture(autouse=True)
    def fork_from_one_block(self, monkeypatch):
        monkeypatch.setattr(workers_module, "_FORK_BLOCKS", 1)

    @pytest.fixture(scope="class")
    def sets(self):
        isac = generate_dataset(CFG, L=80, L_b=1, n=1000, master_seed=3)
        ssac = generate_dataset(CFG, L=80, L_b=1, n=1000, master_seed=3, alpha=0.5)
        rng = np.random.default_rng(4)
        return isac, ssac, [init_model(10, 1, rng) for _ in range(3)]

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_forked_equals_serial_bit_for_bit(self, affinity, monkeypatch, sets, blas_threads, n, cpus):
        isac, ssac, (model, comm, sense) = sets
        isac, ssac = _head(isac, n), _head(ssac, n)
        real_fork, forks, seen = os.fork, [], set()

        def spy(model, inputs):
            seen.add(blas_threads())  # in this process only; a child's is checked below
            return forward_batch(model, inputs)

        monkeypatch.setattr(metrics_module, "forward_batch", spy)
        affinity(1)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one CPU"))
        serial = evaluate(model, isac), evaluate_ssac(comm, sense, ssac, alpha=0.5)
        assert seen == {1}  # serial evaluation runs one BLAS thread too
        seen.clear()
        affinity(cpus)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        forked = evaluate(model, isac), evaluate_ssac(comm, sense, ssac, alpha=0.5)
        blocks = -(-n // 256)
        assert len(forks) == 2 * (min(cpus, blocks) - 1)  # one set of children per call
        assert seen == {1}
        assert [_bits(r) for r in forked] == [_bits(r) for r in serial]
        assert blas_threads() == 3

    def test_a_child_runs_one_blas_thread(self, affinity, monkeypatch, sets, blas_threads):
        isac, _, (model, _, _) = sets

        def one_thread_only(model, inputs):
            if blas_threads() != 1:
                raise AssertionError(f"{blas_threads()} BLAS threads in process {os.getpid()}")
            return forward_batch(model, inputs)

        affinity(2)
        monkeypatch.setattr(metrics_module, "forward_batch", one_thread_only)
        assert _bits(evaluate(model, isac)) == _bits(evaluate(model, isac))  # no child raised

    def test_a_block_a_child_did_not_send_is_scored_here(self, affinity, monkeypatch, sets, blas_threads):
        isac, _, (model, _, _) = sets
        parent = os.getpid()
        serial = _bits(evaluate(model, isac))

        def child_fails(model, inputs):
            if os.getpid() != parent:
                raise RuntimeError("child fault")
            return forward_batch(model, inputs)

        affinity(2)
        monkeypatch.setattr(metrics_module, "forward_batch", child_fails)
        assert _bits(evaluate(model, isac)) == serial
        assert blas_threads() == 3

    def test_a_fault_of_a_childs_block_raises_here_as_itself(self, affinity, monkeypatch, sets, blas_threads):
        # keyed on the rows of the last block, which a child scores first, not on the process
        isac, _, (model, _, _) = sets

        def last_block_fails(model, inputs):
            if len(inputs) == len(isac.inputs) % 256:
                raise ZeroDivisionError("last block fault")
            return forward_batch(model, inputs)

        affinity(2)
        monkeypatch.setattr(metrics_module, "forward_batch", last_block_fails)
        with pytest.raises(ZeroDivisionError, match="last block fault"):
            evaluate(model, isac)
        assert blas_threads() == 3

    def test_a_parent_fault_kills_and_reaps_the_children(self, affinity, monkeypatch, sets, blas_threads):
        _, ssac, (_, comm, sense) = sets
        parent, pids, real_fork = os.getpid(), [], os.fork

        def parent_fails(model, inputs):
            if os.getpid() == parent:
                raise KeyError("parent fault")
            time.sleep(60)  # only SIGKILL ends the child in time

        def fork():
            pid = real_fork()
            pids.append(pid)
            return pid

        affinity(3)
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(metrics_module, "forward_batch", parent_fails)
        t0 = time.perf_counter()
        with pytest.raises(KeyError, match="parent fault"):
            evaluate_ssac(comm, sense, ssac, alpha=0.5)
        assert time.perf_counter() - t0 < 30
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ChildProcessError):  # reaped already
                os.waitpid(pid, os.WNOHANG)
        assert blas_threads() == 3

    @pytest.mark.parametrize("cdll", [_no_library, lambda path: types.SimpleNamespace()],
                             ids=["no-library", "no-symbols"])  # the second, a handle without the symbols
    def test_no_thread_control_where_openblas_cannot_be_read(self, affinity, monkeypatch, blas_threads, cdll):
        affinity(2)
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked without BLAS thread control"))
        workers_module._openblas_threads.cache_clear()
        try:
            assert workers_module._openblas_threads() is None
            with workers_module._one_blas_thread():
                assert blas_threads() == 3  # left alone
            rows, pids = np.zeros((8, 3)), []
            fill = lambda j: pids.append(os.getpid()) or rows[j].fill(j)
            workers_module._deal_blocks(fill, len(rows), lambda j: (rows[j],), blas=True)
            assert pids == [os.getpid()] * len(rows)
            assert np.array_equal(rows, np.repeat(np.arange(len(rows)), 3).reshape(-1, 3))
        finally:  # the real getter again, for the tests after this one
            monkeypatch.undo()
            workers_module._openblas_threads.cache_clear()
        assert workers_module._openblas_threads() is not None

    def test_serial_without_openblas_thread_control(self, affinity, monkeypatch, sets):
        isac, ssac, (model, comm, sense) = sets
        affinity(2)
        forked = evaluate(model, isac), evaluate_ssac(comm, sense, ssac, alpha=0.5)
        real_fork, forks = os.fork, []
        monkeypatch.setattr(workers_module, "_openblas_threads", lambda: None)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked without BLAS thread control"))
        serial = evaluate(model, isac), evaluate_ssac(comm, sense, ssac, alpha=0.5)
        assert [_bits(r) for r in serial] == [_bits(r) for r in forked]
        # generation calls no BLAS, so it forks all the same
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        generate_dataset(CFG, L=8, L_b=1, n=128, master_seed=3)
        assert len(forks) == 1
