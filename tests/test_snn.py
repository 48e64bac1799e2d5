"""Neuron recursions, forward traces, and model persistence."""

import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisaclab.channel import frame_received
from nisaclab.errors import (
    BadMagicError,
    FileFormatError,
    FormatVersionError,
    InvalidContentError,
    TruncatedFileError,
)
from nisaclab.snn import (
    _BLOCK,
    COMM,
    SENSE,
    ForwardTrace,
    SnnModel,
    _synapse_filter,
    forward,
    forward_batch,
    init_model,
    load_model,
    save_model,
    sigmoid,
    spike_count,
)


# the five float64 scalars that end a NISM file, in file order
STORED_CONSTANTS = ["hidden_threshold", "readout_threshold", "tau_mem", "tau_syn", "tau_ref"]


def _model(h, width, *, w_in=None, w_out=None) -> SnnModel:
    return SnnModel(
        input_weights=np.zeros((h, width)) if w_in is None else np.asarray(w_in, dtype=float),
        readout_weights=np.zeros((2, h)) if w_out is None else np.asarray(w_out, dtype=float),
    )


@pytest.fixture
def hand_model(neuron_constants):
    """_model under hand-checkable constants: hidden threshold 1.0 and
    tau_mem, tau_syn, tau_ref = 10, 5, 5."""
    neuron_constants(hidden_threshold=1.0, tau_mem=10.0, tau_syn=5.0, tau_ref=5.0)
    return _model


def _random_model(seed, h=4, L_b=1) -> SnnModel:
    return init_model(h, L_b, np.random.default_rng(seed))


def _stepped_spike_layer(r: np.ndarray, a_ref: float, threshold: float):
    """The refractory/spike loop written with a temporary per operation, on
    the time-major membrane input r (L, B, H): the oracle for the in-place
    loop of forward_batch, which must do the same operations in the same
    order."""
    potentials, spikes = r.copy(), np.empty_like(r)
    s = np.zeros(r.shape[1:])
    b = s
    for o, b_next in zip(potentials, spikes):
        s = a_ref * (s + b)
        o -= threshold * s
        np.greater(o, threshold, out=b_next)
        b = b_next
    return potentials, spikes


class TestInitModel:
    def test_shapes_h10(self):
        m = init_model(10, 1, np.random.default_rng(0))
        assert m.input_weights.shape == (10, 4)
        assert m.readout_weights.shape == (2, 10)

    def test_shapes_h6_lb4(self):
        m = init_model(6, 4, np.random.default_rng(0))
        assert m.input_weights.shape == (6, 16)
        assert m.input_width == 16
        assert m.hidden_count == 6

    def test_same_seed_same_model(self):
        a = init_model(5, 2, np.random.default_rng(3))
        b = init_model(5, 2, np.random.default_rng(3))
        assert np.array_equal(a.input_weights, b.input_weights)
        assert np.array_equal(a.readout_weights, b.readout_weights)

    def test_weight_bounds(self):
        m = init_model(50, 4, np.random.default_rng(1))
        assert np.abs(m.input_weights).max() <= 1 / math.sqrt(16)
        assert np.abs(m.readout_weights).max() <= 1 / math.sqrt(50)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            init_model(0, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            init_model(1, 0, np.random.default_rng(0))


class TestForward:
    def test_zero_weight_model_is_silent(self, hand_model):
        m = hand_model(3, 4)
        frame = np.random.default_rng(0).standard_normal((6, 4))
        trace = forward(m, frame)
        assert not trace.hidden_potentials.any()
        assert not trace.hidden_spikes.any()
        assert not trace.readout_potentials.any()
        assert not trace.readout_spikes.any()

    def test_single_step_hand_values(self, hand_model):
        m = hand_model(1, 4, w_in=[[1.0, 0.0, 0.0, 0.0]])
        trace = forward(m, np.array([[2.0, 0.0, 0.0, 0.0]]))
        assert trace.hidden_potentials[0, 0] == 2.0  # q = r = o = drive on the first step
        assert trace.hidden_spikes[0, 0] == 1.0

    def test_refractory_subtracts_decayed_threshold(self, hand_model):
        m = hand_model(1, 4, w_in=[[1.0, 0.0, 0.0, 0.0]])
        frame = np.zeros((2, 4))
        frame[0, 0] = 2.0  # spike at step 0, no drive at step 1
        trace = forward(m, frame)
        assert trace.hidden_spikes[0, 0] == 1.0
        a_syn, a_mem, a_ref = m.decays()
        r2 = a_mem * 2.0 + a_syn * 2.0
        expected = r2 - 1.0 * a_ref  # minus threshold times e^(-1/5)
        assert trace.hidden_potentials[1, 0] == pytest.approx(expected, rel=1e-15)

    def test_refractory_suppression_vs_counterfactual(self, neuron_constants):
        m = _random_model(0, h=3)
        frame = np.random.default_rng(5).standard_normal((12, 4)) * 3
        spiking = forward(m, frame)
        # the same synaptic input with no spike history: o = r at every step
        neuron_constants(hidden_threshold=1e9)
        quiet = forward(m, frame)
        fired = np.cumsum(spiking.hidden_spikes, axis=0) - spiking.hidden_spikes > 0
        assert fired.any() and (~fired).any()
        assert (spiking.hidden_potentials[fired] < quiet.hidden_potentials[fired]).all()
        assert np.array_equal(spiking.hidden_potentials[~fired], quiet.hidden_potentials[~fired])

    def test_potential_at_threshold_does_not_spike(self, hand_model):
        # a neuron spikes only when its potential exceeds its threshold:
        # hidden potential 1.0 at threshold 1.0, readout potential 0 at 0
        m = hand_model(1, 4, w_in=[[1.0, 0.0, 0.0, 0.0]])
        trace = forward(m, np.array([[1.0, 0.0, 0.0, 0.0]]))
        assert trace.hidden_potentials[0, 0] == 1.0 == m.hidden_threshold
        assert trace.hidden_spikes[0, 0] == 0.0
        assert trace.readout_potentials[0].tolist() == [0.0, 0.0]
        assert not trace.readout_spikes.any()

    def test_readout_uses_its_own_threshold(self, hand_model):
        w_in = [[2.0, 0.0, 0.0, 0.0]]
        frame = np.array([[1.0, 0.0, 0.0, 0.0]])
        low = forward(hand_model(1, 4, w_in=w_in, w_out=[[0.5], [0.5]]), frame)
        assert low.readout_potentials[0].tolist() == [0.5, 0.5]
        assert low.readout_spikes[0].tolist() == [1.0, 1.0]  # above the zero readout threshold

    def test_same_step_propagation_to_readout(self, hand_model):
        w_in = np.array([[2.0, 0.0, 0.0, 0.0]])
        w_out = np.array([[1.0], [1.0]])
        m = hand_model(1, 4, w_in=w_in, w_out=w_out)
        frame = np.zeros((1, 4))
        frame[0, 0] = 1.0  # drives the hidden potential to 2 at step 0
        trace = forward(m, frame)
        assert trace.hidden_spikes[0, 0] == 1.0
        assert trace.readout_potentials[0].tolist() == [1.0, 1.0]
        assert trace.readout_spikes[0].tolist() == [1.0, 1.0]

    def test_causality(self):
        m = _random_model(1)
        rng = np.random.default_rng(2)
        frame = rng.standard_normal((12, 4))
        mutated = frame.copy()
        mutated[7:] = rng.standard_normal((5, 4)) * 10
        a, b = forward(m, frame), forward(m, mutated)
        assert np.array_equal(a.hidden_potentials[:7], b.hidden_potentials[:7])
        assert np.array_equal(a.readout_spikes[:7], b.readout_spikes[:7])

    def test_state_resets_between_calls(self):
        m = _random_model(3)
        frame = np.random.default_rng(4).standard_normal((9, 4))
        a, b = forward(m, frame), forward(m, frame)
        for field in (
            "hidden_potentials", "hidden_spikes", "readout_potentials", "readout_spikes",
        ):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_spikes_consistent_with_potentials(self):
        m = _random_model(5)
        frame = np.random.default_rng(6).standard_normal((20, 4)) * 2
        trace = forward(m, frame)
        assert np.array_equal(trace.hidden_spikes, trace.hidden_potentials > m.hidden_threshold)
        assert np.array_equal(trace.readout_spikes, trace.readout_potentials > m.readout_threshold)

    def test_readout_decision_matches_probability_rule(self):
        # hard decision is 1 exactly when the decode probability passes 0.5
        m = _random_model(7)
        frame = np.random.default_rng(8).standard_normal((30, 4)) * 3
        trace = forward(m, frame)
        p = sigmoid(trace.readout_potentials)
        assert np.array_equal(trace.readout_spikes[:, COMM], p[:, COMM] > 0.5)
        assert np.array_equal(trace.readout_spikes[:, SENSE], p[:, SENSE] > 0.5)

    def test_accepts_received_frame(self):
        # the channel's framed slot inputs, (L, 4*L_b), are a frame as they come
        m = _random_model(9, L_b=2)
        rng = np.random.default_rng(10)
        samples = rng.standard_normal(5 * 4) + 1j * rng.standard_normal(5 * 4)
        frame = frame_received(samples, 2)
        a = forward(m, frame.slot_inputs)
        b = forward_batch(m, frame.slot_inputs[None])
        assert len(a) == 5
        assert np.array_equal(a.readout_potentials, b[2][0])

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            forward(_random_model(0), np.zeros((3, 6)))
        with pytest.raises(ValueError, match=r"are not \(B, L, 4\)"):  # one slot, not a frame
            forward(_random_model(0), np.zeros(4))


class TestForwardBatch:
    def test_matches_single_frame_forward(self, reference_forward):
        m = _random_model(11, h=5, L_b=2)
        inputs = np.random.default_rng(12).standard_normal((3, 7, 8)) * 2
        batch = forward_batch(m, inputs)
        for k, (got, want) in enumerate(zip(batch, reference_forward(m, inputs))):
            assert np.allclose(got, want, rtol=0, atol=1e-12)
            if k % 2:  # spikes agree exactly
                assert np.array_equal(got, want)
        assert batch[1].any()  # the frames exercise the refractory path

    @settings(max_examples=40, deadline=None)
    @given(
        B=st.integers(1, 4), L=st.integers(1, 12), H=st.integers(1, 6), L_b=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_shapes_match_reference_and_b1_view(self, reference_forward, B, L, H, L_b, seed):
        rng = np.random.default_rng(seed)
        m = init_model(H, L_b, rng)
        inputs = rng.standard_normal((B, L, 4 * L_b)) * 3
        batch = forward_batch(m, inputs)
        ref = reference_forward(m, inputs)
        for i in range(B):
            trace = forward(m, inputs[i])
            view = (trace.hidden_potentials, trace.hidden_spikes,
                    trace.readout_potentials, trace.readout_spikes)
            for k, (got, want, b1) in enumerate(zip(batch, ref, view)):
                assert np.allclose(got[i], want[i], rtol=0, atol=1e-12)
                assert np.allclose(b1, got[i], rtol=0, atol=1e-12)
                if k % 2:  # spikes agree exactly
                    assert np.array_equal(got[i], want[i])
                    assert np.array_equal(b1, got[i])

    @pytest.mark.parametrize("B, L", [
        (3, _BLOCK - 1), (3, _BLOCK), (3, _BLOCK + 1), (2, 2 * _BLOCK + 7), (1, 1000),
        # last blocks of one and two steps after a carried block
        (1, 2 * _BLOCK + 1), (1, 2 * _BLOCK + 2),
    ])
    def test_block_boundaries_match_reference(self, B, L, neuron_constants, reference_forward):
        # slow time constants, so the state a kernel block hands on still
        # matters tens of steps into the next block
        neuron_constants(tau_mem=20.0, tau_syn=10.0, tau_ref=5.0)
        rng = np.random.default_rng(L)
        m = init_model(5, 1, rng)
        inputs = rng.standard_normal((B, L, 4)) * 0.3
        batch = forward_batch(m, inputs)
        for k, (got, want) in enumerate(zip(batch, reference_forward(m, inputs))):
            assert np.allclose(got, want, rtol=0, atol=1e-12)
            if k % 2:
                assert np.array_equal(got, want)
        if L > _BLOCK:  # both layers spike past the first block
            assert batch[1][:, _BLOCK:].any() and batch[3][:, _BLOCK:].any()

    @settings(max_examples=30, deadline=None)
    @given(
        B=st.sampled_from([1, 7, 32]), L=st.integers(1, 2 * _BLOCK + 3), H=st.integers(1, 12),
        L_b=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
    )
    def test_hidden_layer_bit_equal_to_stepped_oracle(self, B, L, H, L_b, seed):
        rng = np.random.default_rng(seed)
        m = init_model(H, L_b, rng)
        inputs = rng.standard_normal((B, L, 4 * L_b)) * 3
        oh, bh, _, _ = forward_batch(m, inputs)
        a_syn, a_mem, a_ref = m.decays()
        r = _synapse_filter(inputs.transpose(1, 0, 2) @ m.input_weights.T, a_syn, a_mem)
        want_o, want_b = _stepped_spike_layer(r, a_ref, m.hidden_threshold)
        assert np.array_equal(oh.view(np.uint64), want_o.transpose(1, 0, 2).view(np.uint64))
        assert np.array_equal(bh.view(np.uint64), want_b.transpose(1, 0, 2).view(np.uint64))

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            forward_batch(_random_model(0), np.zeros((2, 3, 6)))


def _sigmoid_by_masks(x):
    """Reference logistic: boolean masks, one exp per branch."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_bit_equal_to_masked_formula(self):
        tiny = np.finfo(float).tiny
        extremes = np.array([
            -np.inf, -1.8e308, -746.0, -745.1, -709.8, -40.0, -36.7, -1.0, -tiny, -5e-324, -0.0,
            0.0, 5e-324, tiny, 1e-8, 0.5, 36.7, 40.0, 709.8, 745.1, 746.0, 1.8e308, np.inf,
        ])
        x = np.concatenate([extremes, np.random.default_rng(0).standard_normal(10_000) * 30])
        assert np.array_equal(sigmoid(x).view(np.uint64), _sigmoid_by_masks(x).view(np.uint64))
        assert sigmoid(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]

    def test_nan_stays_nan(self):
        assert np.isnan(sigmoid(np.array([np.nan, -np.nan]))).all()


class TestReadoutHelpers:
    def test_probability_values(self):
        trace = ForwardTrace(
            hidden_potentials=np.zeros((3, 1)), hidden_spikes=np.zeros((3, 1)),
            readout_potentials=np.array([[0.0, 0.0], [math.log(3), 0.0], [50.0, -50.0]]),
            readout_spikes=np.zeros((3, 2)),
        )
        p = sigmoid(trace.readout_potentials)
        assert p[0, COMM] == 0.5
        assert p[1, COMM] == pytest.approx(0.75, rel=1e-12)
        assert p[2, COMM] > 0.999999
        assert p[2, SENSE] < 1e-6

    def test_spike_count_sums_layers(self):
        m = _random_model(15, h=6)
        frame = np.random.default_rng(16).standard_normal((10, 4)) * 2
        trace = forward(m, frame)
        counts = spike_count(trace)
        assert counts.dtype == np.int64
        assert (counts <= 6 + 2).all()
        assert np.array_equal(
            counts, trace.hidden_spikes.sum(1).astype(int) + trace.readout_spikes.sum(1).astype(int)
        )

    def test_zero_model_counts_zero(self, hand_model):
        trace = forward(hand_model(4, 4), np.ones((5, 4)))
        assert spike_count(trace).tolist() == [0] * 5


class TestPersistence:
    def test_round_trip(self, tmp_path):
        m = _random_model(17, h=3, L_b=2)
        path = tmp_path / "model.nism"
        save_model(m, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.input_weights, m.input_weights)
        assert np.array_equal(loaded.readout_weights, m.readout_weights)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_loads_from_a_pipe(self, tmp_path, load_through_pipe):
        m = _random_model(17, h=3, L_b=2)
        path = tmp_path / "model.nism"
        save_model(m, path)
        loaded = load_through_pipe(load_model, path)
        assert np.array_equal(loaded.input_weights, m.input_weights)
        assert np.array_equal(loaded.readout_weights, m.readout_weights)

    def test_second_save_is_byte_identical(self, tmp_path):
        m = _random_model(18)
        p1, p2 = tmp_path / "a.nism", tmp_path / "b.nism"
        save_model(m, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.nism"
        save_model(_random_model(19), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            load_model(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "m.nism"
        save_model(_random_model(20), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatVersionError):
            load_model(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "m.nism"
        save_model(_random_model(21), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 8])
        with pytest.raises(TruncatedFileError):
            load_model(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "m.nism"
        save_model(_random_model(22), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FileFormatError):
            load_model(path)

    @pytest.mark.parametrize("field", STORED_CONSTANTS)
    @pytest.mark.parametrize("value", [0.6, np.nan], ids=["0.6", "nan"])
    def test_stored_constant_must_match(self, tmp_path, field, value):
        path = tmp_path / "m.nism"
        save_model(_random_model(23), path)
        raw = bytearray(path.read_bytes())
        at = len(raw) - 8 * (len(STORED_CONSTANTS) - STORED_CONSTANTS.index(field))
        assert raw[at : at + 8] == np.float64(getattr(SnnModel, field)).tobytes()
        raw[at : at + 8] = np.float64(value).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidContentError, match=f"holds {field} {value}; it must be"):
            load_model(path)


class TestModelValidation:
    def test_rejects_non_finite_weights(self):
        with pytest.raises(ValueError):
            _model(1, 4, w_in=[[np.nan, 0, 0, 0]])

    def test_rejects_mismatched_weight_shapes(self):
        with pytest.raises(ValueError, match="weight shapes"):
            SnnModel(np.zeros((3, 4)), np.zeros((2, 5)))

    def test_shipped_constants_are_valid(self):
        m = SnnModel
        assert np.isfinite([getattr(m, name) for name in STORED_CONSTANTS]).all()
        assert m.tau_mem > m.tau_syn > 0 < m.tau_ref
        assert m.readout_threshold == 0.0

    def test_weights_are_the_only_fields(self):
        m = _random_model(24)
        assert [f.name for f in dataclasses.fields(m)] == ["input_weights", "readout_weights"]
        with pytest.raises(TypeError):
            dataclasses.replace(m, tau_mem=2.0)
        with pytest.raises(TypeError):
            SnnModel(m.input_weights, m.readout_weights, 0.75)

    def test_readout_rows(self):
        assert (COMM, SENSE) == (0, 1)
