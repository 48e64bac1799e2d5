"""Loss arithmetic, gradient correctness against finite differences, SGD."""

import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nisaclab.channel import ChannelConfig
from nisaclab.dataset import generate_dataset
from nisaclab.metrics import evaluate_ssac
from nisaclab.snn import _BLOCK, COMM, SENSE, _synapse_filter, forward_batch, init_model
from nisaclab.training import (
    _LOGIT_CLAMP,
    PROB_EPS,
    TrainConfig,
    _spike_slope,
    backward,
    objective,
    sgd_step,
    train,
)

LN2 = math.log(2.0)


def _losses(p, bits, targets, n_data=None, sense_start=0):
    """objective's (decode, detection) losses for (B, L) probabilities on both
    readouts, (B, L) bits and (B,) targets."""
    p = np.asarray(p, dtype=np.float64)
    potentials = np.repeat(np.log(p / (1.0 - p))[..., None], 2, axis=-1)
    bits = np.asarray(bits, dtype=np.float64)
    n_data = bits.shape[1] if n_data is None else n_data
    lc, ls, _ = objective(potentials, bits, np.asarray(targets, dtype=np.float64), 0.5, n_data, sense_start)
    return lc, ls


class TestCommLoss:
    def test_chance_probability_single_slot(self):
        assert _losses([[0.5]], [[0]], [0])[0] == pytest.approx(LN2, rel=1e-12)

    def test_additivity_over_slots(self):
        assert _losses([[0.5, 0.5]], [[1, 0]], [0])[0] == pytest.approx(2 * LN2, rel=1e-12)

    def test_confident_correct_is_near_zero(self):
        assert _losses([[1.0 - 1e-9]], [[1]], [1])[0] == pytest.approx(0.0, abs=1e-8)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            objective(np.zeros((1, 2, 2)), np.array([[1.0]]), np.array([0.0]), 0.5, 1, 0)

    def test_ssac_frame_counts_data_slots_only(self):
        p = np.array([0.5, 0.5, 0.9, 0.9])  # sensing-slot values must not contribute
        potentials = np.stack([np.log(p / (1 - p))] * 2, axis=-1)[None]
        lc, _, _ = objective(potentials, np.array([[0.0, 1.0, 1.0, 1.0]]), np.array([1.0]), 1.0, 2, 0)
        assert lc == pytest.approx(2 * LN2, rel=1e-12)


class TestSenseLoss:
    def test_chance_over_eighty_slots(self):
        assert _losses([[0.5] * 80], [[0] * 80], [0])[1] == pytest.approx(80 * LN2, rel=1e-12)

    def test_hand_value(self):
        assert _losses([[0.75]], [[0]], [1])[1] == pytest.approx(-math.log(0.75), rel=1e-12)

    def test_confident_correct_is_near_zero(self):
        assert _losses([[1.0 - 1e-9] * 4], [[1] * 4], [1])[1] == pytest.approx(0.0, abs=1e-7)

    def test_label_shape_mismatch(self):
        # one label per frame: a single label is not broadcast over three frames
        with pytest.raises(ValueError):
            objective(np.zeros((3, 4, 2)), np.zeros((3, 4)), np.array([1.0]), 0.5, 4, 0)


class TestIsacLoss:
    """train logs total_loss as beta*comm_loss + (1 - beta)*sense_loss."""

    @staticmethod
    def _epoch(tiny_dataset, beta):
        model = init_model(4, 1, np.random.default_rng(6))
        return train(model, tiny_dataset, TrainConfig(beta=beta, epochs=1, seed=0))[1][0]

    def test_endpoints(self, tiny_dataset):
        only_decode, only_detect = self._epoch(tiny_dataset, 1.0), self._epoch(tiny_dataset, 0.0)
        assert only_decode.total_loss == only_decode.comm_loss
        assert only_detect.total_loss == only_detect.sense_loss

    def test_midpoint(self, tiny_dataset):
        e = self._epoch(tiny_dataset, 0.5)
        assert e.total_loss == (e.comm_loss + e.sense_loss) / 2


class TestObjective:
    @settings(max_examples=30, deadline=None)
    @given(
        B=st.integers(1, 3), L=st.integers(1, 10), beta=st.floats(0.0, 1.0),
        data=st.data(), seed=st.integers(0, 2**32 - 1),
    )
    def test_gradient_matches_central_differences(self, B, L, beta, data, seed):
        n_data = data.draw(st.integers(1, L))
        sense_start = data.draw(st.integers(0, L - 1))
        rng = np.random.default_rng(seed)
        potentials = rng.standard_normal((B, L, 2)) * 3.0
        bits = rng.integers(0, 2, size=(B, L)).astype(np.float64)
        targets = rng.integers(0, 2, size=B).astype(np.float64)

        def loss(o):
            lc, ls, _ = objective(o, bits, targets, beta, n_data, sense_start)
            return beta * lc + (1.0 - beta) * ls

        _, _, got = objective(potentials, bits, targets, beta, n_data, sense_start)
        h = 1e-6
        want = np.zeros_like(potentials)
        for idx in np.ndindex(potentials.shape):
            up, down = potentials.copy(), potentials.copy()
            up[idx] += h
            down[idx] -= h
            want[idx] = (loss(up) - loss(down)) / (2 * h)
        assert np.abs(got - want).max() <= 1e-6 * max(1.0, np.abs(want).max())
        # slots outside each loss's range get no gradient at all
        assert not got[:, n_data:, COMM].any() and not got[:, :sense_start, SENSE].any()

    def test_losses_are_sums_of_per_frame_losses(self):
        rng = np.random.default_rng(12)
        p = rng.uniform(0.01, 0.99, size=(5, 9, 2))
        bits = rng.integers(0, 2, size=(5, 9)).astype(np.float64)
        targets = rng.integers(0, 2, size=5).astype(np.float64)
        o = np.log(p / (1 - p))
        lc, ls, _ = objective(o, bits, targets, 0.5, 6, 4)
        per_frame = [objective(o[i : i + 1], bits[i : i + 1], targets[i : i + 1], 0.5, 6, 4)[:2]
                     for i in range(5)]
        assert (lc, ls) == pytest.approx(tuple(map(sum, zip(*per_frame))), rel=1e-12)
        # and both are the textbook cross entropies
        pc, ps = p[:, :6, COMM], p[:, 4:, SENSE]
        want_c = -(bits[:, :6] * np.log(pc) + (1 - bits[:, :6]) * np.log(1 - pc)).sum()
        want_s = -(targets[:, None] * np.log(ps) + (1 - targets[:, None]) * np.log(1 - ps)).sum()
        assert (lc, ls) == pytest.approx((want_c, want_s), rel=1e-12)

    def test_rejects_labels_that_do_not_fit_the_frame(self):
        # six bits for a four-slot frame, although only four of them are scored
        with pytest.raises(ValueError, match="do not fit"):
            objective(np.zeros((1, 4, 2)), np.zeros((1, 6)), np.array([0.0]), 0.5, 4, 0)


def _objective_per_value(o, label, beta=0.5):
    """objective's losses and derivatives on a batch of one-slot frames, one
    value of the (N,) potentials o per frame on both readouts, all labelled
    label: (lc, ls, d_comm, d_sense), with d taken off its beta weights."""
    o = np.asarray(o, dtype=np.float64)
    lc, ls, d = objective(np.stack([o, o], axis=-1)[:, None], np.full((len(o), 1), label),
                          np.full(len(o), label), beta, 1, 0)
    return lc, ls, d[:, 0, COMM] / beta, d[:, 0, SENSE] / (1.0 - beta)


class TestProbabilityClamp:
    def test_inert_for_moderate_potentials(self, sigmoid_by_masks):
        # potentials up to |o|=30 map to probabilities inside the clamp window,
        # and the derivative against label 0 is the unclamped probability
        o = np.array([-30.0, -10.0, 0.0, 10.0, 30.0])
        _, _, p_comm, p_sense = _objective_per_value(o, 0)
        assert ((PROB_EPS < p_comm) & (p_comm < 1.0 - PROB_EPS)).all()
        assert np.array_equal(p_comm, sigmoid_by_masks(o)) and np.array_equal(p_sense, p_comm)

    def test_keeps_extreme_probabilities_finite(self, sigmoid_by_masks):
        # unclamped, p_comm rounds to exactly 1 against bit 0 and p_sense to exactly 0 against target 1
        potentials = np.array([[[1e3, -1e3]]])
        assert sigmoid_by_masks(potentials).tolist() == [[[1.0, 0.0]]]
        lc, ls, d = objective(potentials, np.array([[0.0]]), np.array([1.0]), 0.5, 1, 0)
        assert math.isfinite(lc) and math.isfinite(ls) and np.isfinite(d).all()
        # the derivative takes the clamped probabilities 1 - PROB_EPS and PROB_EPS, as the losses do
        p_comm, p_sense = d[0, 0, COMM] / 0.5, d[0, 0, SENSE] / 0.5 + 1.0
        assert p_comm == pytest.approx(1.0 - PROB_EPS, abs=1e-16) and p_comm < 1.0
        assert p_sense == pytest.approx(PROB_EPS, rel=1e-2)
        assert (lc, ls) == pytest.approx((-math.log(PROB_EPS),) * 2, rel=1e-12)


class TestLogitExtremes:
    TINY = np.finfo(float).tiny
    INSIDE = [-_LOGIT_CLAMP, -30.0, -1.0, -TINY, -5e-324, -0.0, 0.0, 5e-324, TINY, 1e-8, 0.5, 30.0, _LOGIT_CLAMP]
    BEYOND = [-np.inf, -1.8e308, -1e3, -40.0, -36.7, 36.7, 40.0, 1e3, 1.8e308, np.inf]

    @pytest.mark.parametrize("label", [0, 1])
    def test_bit_equal_to_reference_formulas(self, sigmoid_by_masks, label):
        # for |o| <= _LOGIT_CLAMP the clamp is inert: the summed loss and the
        # derivative are the reference formulas' values, bit for bit
        x = np.concatenate([self.INSIDE, np.random.default_rng(0).standard_normal(10_000) * 30])
        x = x[np.abs(x) <= _LOGIT_CLAMP][:, None]
        lc, ls, d_comm, d_sense = _objective_per_value(x[:, 0], label)
        want_loss = float((np.log1p(np.exp(-np.abs(x))) + (np.maximum(x, 0.0) - label * x)).sum())
        want_d = sigmoid_by_masks(x[:, 0]) - label
        assert lc == want_loss and ls == want_loss
        for d in (d_comm, d_sense):
            assert np.array_equal(d.view(np.uint64), want_d.view(np.uint64))

    @pytest.mark.parametrize("label", [0, 1])
    def test_finite_beyond_the_clamp(self, sigmoid_by_masks, label):
        lc, ls, d_comm, d_sense = _objective_per_value(self.BEYOND, label)
        assert math.isfinite(lc) and math.isfinite(ls)
        # the derivative takes the clamped probability, PROB_EPS (to rounding) from the logistic's
        o = np.array(self.BEYOND)
        clamped = sigmoid_by_masks(np.clip(o, -_LOGIT_CLAMP, _LOGIT_CLAMP)) - label
        for d in (d_comm, d_sense):
            assert np.array_equal(d, clamped)
            assert (np.abs(d - (sigmoid_by_masks(o) - label)) <= PROB_EPS * (1 + 1e-9)).all()

    def test_nan_stays_nan(self):
        lc, ls, d_comm, d_sense = _objective_per_value([np.nan, -np.nan], 1)
        assert math.isnan(lc) and math.isnan(ls)
        assert np.isnan(d_comm).all() and np.isnan(d_sense).all()


def _gradients(reference, model, inputs, bits, targets, beta, n_data=None, sense_start=0):
    """The calls train makes for one batch, objective and backward, on the
    records of the reference network smoothed at the surrogate slope, for
    (B, L, width) inputs, (B, L) bits and (B,) targets."""
    bits = np.asarray(bits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    n_data = bits.shape[1] if n_data is None else n_data
    oh, bh, orr, _ = reference(model, inputs, TrainConfig.surrogate_slope)
    _, _, d_or = objective(orr, bits, targets, beta, n_data, sense_start)
    return backward(model, inputs, oh, bh, d_or)


def _smoothed_loss(reference, model, inputs, bits, targets, beta, n_data, sense_start) -> float:
    bits = np.asarray(bits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    orr = reference(model, inputs, TrainConfig.surrogate_slope)[2]
    lc, ls, _ = objective(orr, bits, targets, beta, n_data, sense_start)
    return beta * lc + (1.0 - beta) * ls


def _fd_gradients(reference, model, inputs, bits, targets, beta, n_data=None, sense_start=0, h=1e-5):
    """Central finite differences of the smoothed reference network's batch
    loss over every weight, as (input-weight gradient, readout-weight
    gradient)."""
    n_data = bits.shape[1] if n_data is None else n_data

    def fd_matrix(attr):
        w = getattr(model, attr)
        grad = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            for sign in (+1.0, -1.0):
                bumped = w.copy()
                bumped[idx] += sign * h
                m = dataclasses.replace(model, **{attr: bumped})
                grad[idx] += sign * _smoothed_loss(reference, m, inputs, bits, targets, beta, n_data, sense_start)
        return grad / (2 * h)

    return fd_matrix("input_weights"), fd_matrix("readout_weights")


class TestGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_backward_matches_finite_differences(self, seed, neuron_constants, reference_forward,
                                                 max_rel_error):
        neuron_constants(tau_mem=10.0, tau_syn=5.0, tau_ref=5.0)
        rng = np.random.default_rng(seed)
        model = init_model(2, 1, rng)
        inputs = rng.standard_normal((4, 4))[None]
        bits = rng.integers(0, 2, size=4)[None]
        targets, beta = [1], 0.5
        got = _gradients(reference_forward, model, inputs, bits, targets, beta)
        want = _fd_gradients(reference_forward, model, inputs, bits, targets, beta)
        for g, w in zip(got, want):
            assert max_rel_error(g, w) <= 1e-4

    # the patched constants hold for every example, so the function-scoped
    # fixture is safe to share
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        H=st.integers(1, 3), L_b=st.integers(1, 2), L=st.integers(1, _BLOCK + 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(H=3, L_b=2, L=_BLOCK + 5, seed=0)
    @example(H=3, L_b=2, L=2 * _BLOCK + 1, seed=0)  # the adjoint crosses two carries
    def test_backward_matches_finite_differences_on_random_shapes(self, neuron_constants, reference_forward,
                                                                  H, L_b, L, seed):
        # L up to 85 crosses a kernel block boundary; these time constants keep
        # the readout potentials clear of the PROB_EPS clamp, where the
        # finite-difference loss goes flat
        neuron_constants(tau_mem=4.0, tau_syn=2.0, tau_ref=2.0)
        rng = np.random.default_rng(seed)
        model = init_model(H, L_b, rng)
        inputs = rng.standard_normal((L, 4 * L_b))[None] * 0.3
        bits = rng.integers(0, 2, size=L)[None]
        targets, beta = [int(rng.integers(0, 2))], 0.5
        got = _gradients(reference_forward, model, inputs, bits, targets, beta)
        want = _fd_gradients(reference_forward, model, inputs, bits, targets, beta)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-6 * max(1.0, np.abs(w).max())

    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("B", [2, 3])
    def test_batch_with_ssac_slot_ranges_matches_finite_differences(self, B, beta, neuron_constants,
                                                                    reference_forward):
        # decode loss on the leading 4 of 9 slots, detection loss from slot 3:
        # the ranges overlap and neither covers the frame
        neuron_constants(tau_mem=4.0, tau_syn=2.0, tau_ref=2.0)
        L, n_data, sense_start = 9, 4, 3
        rng = np.random.default_rng(100 * B + int(10 * beta))
        model = init_model(3, 1, rng)
        inputs = rng.standard_normal((B, L, 4)) * 0.3
        bits = rng.integers(0, 2, size=(B, L))
        targets = np.arange(B) % 2  # both labels in every batch
        got = _gradients(reference_forward, model, inputs, bits, targets, beta, n_data, sense_start)
        want = _fd_gradients(reference_forward, model, inputs, bits, targets, beta, n_data, sense_start)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-6 * max(1.0, np.abs(w).max())

    def test_gradient_of_duplicated_example_doubles(self, reference_forward):
        rng = np.random.default_rng(3)
        model = init_model(3, 1, rng)
        inputs = rng.standard_normal((5, 4))[None]
        bits = rng.integers(0, 2, size=5)[None]
        once = _gradients(reference_forward, model, inputs, bits, [0], 0.5)
        twice = _gradients(reference_forward, model, np.concatenate([inputs] * 2), np.concatenate([bits] * 2),
                           [0, 0], 0.5)
        for g1, g2 in zip(once, twice):
            np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-12, atol=1e-12 * np.abs(g1).max())

    def test_beta_one_ignores_the_sensing_label(self, reference_forward):
        rng = np.random.default_rng(4)
        model = init_model(3, 1, rng)
        inputs = rng.standard_normal((6, 4))[None]
        bits = rng.integers(0, 2, size=6)[None]
        g0 = _gradients(reference_forward, model, inputs, bits, [0], 1.0)
        g1 = _gradients(reference_forward, model, inputs, bits, [1], 1.0)
        assert np.array_equal(g0[0], g1[0])
        assert np.array_equal(g0[1], g1[1])

    def test_beta_zero_ignores_the_bits(self, reference_forward):
        rng = np.random.default_rng(5)
        model = init_model(3, 1, rng)
        inputs = rng.standard_normal((6, 4))[None]
        ga = _gradients(reference_forward, model, inputs, np.zeros((1, 6)), [1], 0.0)
        gb = _gradients(reference_forward, model, inputs, np.ones((1, 6)), [1], 0.0)
        assert np.array_equal(ga[0], gb[0])


def _stepped_backward_batch(model, inputs, hidden_potentials, hidden_spikes, d_readout_potentials, sigmoid):
    """backward with the hidden adjoint stepped as g = (e + c)*ds,
    c' = a_ref*(c - th*g), and the surrogate slope taken from the reference
    sigmoid: the oracle for the linear-recurrence form."""
    B, L, width = inputs.shape
    slope = TrainConfig.surrogate_slope
    H = model.hidden_count
    a_syn, a_mem, a_ref = model.decays()
    th = model.hidden_threshold

    def reversed_time(a):
        return a.transpose(1, 0, 2)[::-1]

    g_rdrive = _synapse_filter(np.ascontiguousarray(reversed_time(d_readout_potentials)), a_syn, a_mem)
    g_drive = (g_rdrive.reshape(L * B, 2) @ model.readout_weights).reshape(L, B, H)
    sg = sigmoid(slope * (reversed_time(hidden_potentials) - th))
    dspike = slope * sg * (1.0 - sg)
    c = np.zeros((B, H))
    for g, ds in zip(g_drive, dspike):
        g += c
        g *= ds
        c = a_ref * (c - th * g)
    _synapse_filter(g_drive, a_syn, a_mem)
    g_w_in = g_drive.reshape(L * B, H).T @ reversed_time(inputs).reshape(L * B, width)
    g_w_out = g_rdrive.reshape(L * B, 2).T @ reversed_time(hidden_spikes).reshape(L * B, H)
    return g_w_in, g_w_out


class TestAdjointRecurrence:
    @settings(max_examples=30, deadline=None)
    @given(
        B=st.sampled_from([1, 5, 32]), L=st.integers(1, 2 * _BLOCK + 3), H=st.integers(1, 12),
        L_b=st.integers(1, 3), smoothed=st.booleans(), seed=st.integers(0, 2**32 - 1),
    )
    @example(B=1, L=_BLOCK + 7, H=10, L_b=1, smoothed=False, seed=0)
    def test_matches_stepped_adjoint(self, reference_forward, sigmoid_by_masks, B, L, H, L_b, smoothed, seed):
        rng = np.random.default_rng(seed)
        model = init_model(H, L_b, rng)
        inputs = rng.standard_normal((B, L, 4 * L_b)) * 2
        if smoothed:
            oh, bh, orr, _ = reference_forward(model, inputs, TrainConfig.surrogate_slope)
        else:
            oh, bh, orr, _ = forward_batch(model, inputs)
        d_or = rng.standard_normal(orr.shape)
        got = backward(model, inputs, oh, bh, d_or)
        want = _stepped_backward_batch(model, inputs, oh, bh, d_or, sigmoid_by_masks)
        # reassociation moves each product by an ulp or so; an entry summed
        # over L*B rows can cancel, so its error is bounded by the array scale
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())

    @pytest.mark.parametrize("slope", [0.3, 1.0, 2.5, 40.0, -2.0])
    def test_spike_slope_within_4_ulp_of_sigmoid_form(self, sigmoid_by_masks, slope):
        # the reference takes sg on the negative half, where 1 - sg does not
        # cancel; the slope is even in x, and a negative slope flips the sign
        potentials = np.concatenate([
            np.random.default_rng(0).uniform(-1e3, 1e3, 20_000),
            np.random.default_rng(1).standard_normal(20_000) * 3,
            [0.0, 1e-300, -1e-300, 700.0, -745.0, 1e3, -1e3],
        ])
        x = slope * potentials
        sg = sigmoid_by_masks(-np.abs(x))
        want = slope * sg * (1.0 - sg)
        got = _spike_slope(potentials, 0.0, slope)
        assert (np.abs(got - want) <= 4 * np.abs(np.spacing(want))).all()

    def test_spike_slope_at_infinities_and_nan(self):
        for slope in (2.0, -2.0):
            got = _spike_slope(np.array([-np.inf, np.inf, np.nan]), 0.75, slope)
            assert got[:2].tolist() == [0.0, 0.0]
            assert np.isnan(got[2])


class TestSgdStep:
    def test_zero_gradient_is_identity(self):
        m = init_model(2, 1, np.random.default_rng(7))
        m2 = sgd_step(m, np.zeros_like(m.input_weights), np.zeros_like(m.readout_weights), 0.1)
        assert np.array_equal(m2.input_weights, m.input_weights)
        assert np.array_equal(m2.readout_weights, m.readout_weights)

    def test_unit_rate_subtracts_gradient(self):
        m = init_model(2, 1, np.random.default_rng(8))
        g_w_in = np.random.default_rng(9).standard_normal(m.input_weights.shape)
        g_w_out = np.random.default_rng(10).standard_normal(m.readout_weights.shape)
        m2 = sgd_step(m, g_w_in, g_w_out, 1.0)
        assert np.array_equal(m2.input_weights, m.input_weights - g_w_in)
        assert np.array_equal(m2.readout_weights, m.readout_weights - g_w_out)

    def test_original_model_is_untouched(self):
        m = init_model(2, 1, np.random.default_rng(11))
        before = m.input_weights.copy()
        sgd_step(m, np.ones_like(m.input_weights), np.ones_like(m.readout_weights), 0.5)
        assert np.array_equal(m.input_weights, before)


class TestTrainConfig:
    def test_rejects_beta_out_of_range(self):
        with pytest.raises(ValueError):
            TrainConfig(beta=1.2)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            TrainConfig(beta=0.5, learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(beta=0.5, epochs=0)

    @pytest.mark.parametrize("name", ["learning_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(beta=0.5, **{name: value})

    # a count that is not an integer fails here, not later in train's range()
    @pytest.mark.parametrize("name, value", [
        ("epochs", 2.5), ("epochs", 2.0), ("batch_size", np.float64(4.0)), ("batch_size", "32"),
    ])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(TypeError):
            TrainConfig(beta=0.5, **{name: value})

    # default_rng would refuse -1 and 2.5 only once training starts, and takes 2**64
    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (2**64, ValueError), (2.5, TypeError)])
    def test_seed_must_fit_an_unsigned_64_bit_integer(self, seed, error):
        with pytest.raises(error, match=None if error is TypeError else f"seed {seed} does not fit"):
            TrainConfig(beta=0.5, seed=seed)

    def test_numpy_integer_seed_becomes_an_int(self):
        cfg = TrainConfig(beta=0.5, seed=np.uint64(2**64 - 1))
        assert type(cfg.seed) is int and cfg.seed == 2**64 - 1

    def test_numpy_integer_counts_become_ints(self):
        cfg = TrainConfig(beta=0.5, epochs=np.int64(2), batch_size=np.uint8(4))
        assert (type(cfg.epochs), type(cfg.batch_size)) == (int, int)
        assert (cfg.epochs, cfg.batch_size) == (2, 4)


@pytest.fixture(scope="module")
def tiny_dataset():
    cfg = ChannelConfig(snr_db=10.0)
    return generate_dataset(cfg, L=8, L_b=1, n=48, master_seed=0)


class TestTrain:
    def test_deterministic_given_seed(self, tiny_dataset):
        def run():
            model = init_model(4, 1, np.random.default_rng(0))
            return train(model, tiny_dataset, TrainConfig(beta=0.5, epochs=3, seed=5))

        (m1, h1), (m2, h2) = run(), run()
        assert np.array_equal(m1.input_weights, m2.input_weights)
        assert np.array_equal(m1.readout_weights, m2.readout_weights)
        assert [e.total_loss for e in h1] == [e.total_loss for e in h2]

    def test_history_shape_and_loss_identity(self, tiny_dataset):
        model = init_model(4, 1, np.random.default_rng(1))
        beta = 0.3
        _, history = train(model, tiny_dataset, TrainConfig(beta=beta, epochs=4, seed=0))
        assert [e.epoch for e in history] == [1, 2, 3, 4]
        for e in history:
            assert e.total_loss == beta * e.comm_loss + (1 - beta) * e.sense_loss
            assert 0.0 <= e.throughput <= 1.0
            assert 0.0 <= e.detection_error <= 1.0

    def test_input_model_not_mutated(self, tiny_dataset):
        model = init_model(4, 1, np.random.default_rng(2))
        before = model.input_weights.copy()
        train(model, tiny_dataset, TrainConfig(beta=0.5, epochs=1, seed=0))
        assert np.array_equal(model.input_weights, before)

    def test_slot_masks_route_the_losses(self, tiny_dataset):
        model = init_model(4, 1, np.random.default_rng(3))
        # alpha=0.5 restricts the decode loss to 4 data slots; detection loss to the rest
        _, hist_c = train(model, tiny_dataset, TrainConfig(beta=1.0, epochs=1, seed=0), alpha=0.5)
        _, hist_full = train(model, tiny_dataset, TrainConfig(beta=1.0, epochs=1, seed=0))
        assert hist_c[0].comm_loss < hist_full[0].comm_loss

    def test_nan_loss_aborts_with_diagnostic(self, tiny_dataset, monkeypatch):
        import nisaclab.training as training_module

        def poisoned(model, inputs):
            oh, bh, orr, br = original(model, inputs)
            return oh, bh, np.full_like(orr, np.nan), br

        original = training_module.forward_batch
        monkeypatch.setattr(training_module, "forward_batch", poisoned)
        model = init_model(4, 1, np.random.default_rng(4))
        with pytest.raises(FloatingPointError, match="epoch 1"):
            train(model, tiny_dataset, TrainConfig(beta=0.5, epochs=1, seed=0))

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.5, 0.9, 1.0, math.nan], ids=[
        "data-negative", "data-zero", "data-past-frame",
        "sense-at-L",  # ceil(0.9*8) = 8 data slots leave none to sense
        "alpha-one", "alpha-nan",
    ])
    def test_slot_ranges_checked_before_any_step(self, tiny_dataset, monkeypatch, alpha):
        import nisaclab.training as training_module

        steps = []
        monkeypatch.setattr(training_module, "sgd_step", lambda *a: steps.append(a))
        model = init_model(4, 1, np.random.default_rng(6))
        with pytest.raises(ValueError, match="alpha"):
            train(model, tiny_dataset, TrainConfig(beta=0.5, epochs=1, seed=0), alpha=alpha)
        assert steps == []

    @pytest.mark.parametrize("beta", [1.0, 0.0], ids=["comm", "sense"])
    def test_ssac_logs_score_the_slots_evaluate_ssac_scores(self, monkeypatch, beta):
        # with frozen weights every batch runs the same network, so the
        # running metrics of an SSAC network are its evaluate_ssac scores
        import nisaclab.training as training_module

        monkeypatch.setattr(training_module, "sgd_step", lambda model, *a: model)
        ds = generate_dataset(ChannelConfig(snr_db=10.0), L=8, L_b=1, n=48, master_seed=0, alpha=0.5)
        model = init_model(4, 1, np.random.default_rng(4))
        _, (logged,) = train(model, ds, TrainConfig(beta=beta, epochs=1, seed=0), alpha=0.5)
        scored = evaluate_ssac(model, model, ds, 0.5)
        assert logged.detection_error == scored.detection_error
        assert logged.throughput == pytest.approx(scored.throughput, rel=1e-12)

    @pytest.mark.parametrize("fails", [False, True], ids=["fits", "error"])
    def test_every_batch_runs_on_one_blas_thread(self, tiny_dataset, monkeypatch, blas_threads, fails):
        # blas_threads starts at 3, so a restore cannot pass by resetting; 48 frames are 2 batches an
        # epoch, and the failing fit raises in its second epoch
        import nisaclab.training as training_module

        seen, real_forward = [], training_module.forward_batch

        def spy(model, inputs):
            seen.append(blas_threads())
            if fails and len(seen) == 3:
                raise FloatingPointError("non-finite loss")
            return real_forward(model, inputs)

        monkeypatch.setattr(training_module, "forward_batch", spy)
        model = init_model(4, 1, np.random.default_rng(7))
        with pytest.raises(FloatingPointError) if fails else contextlib.nullcontext():
            train(model, tiny_dataset, TrainConfig(beta=0.5, epochs=2, seed=0))
        assert seen == [1] * (3 if fails else 4)
        assert blas_threads() == 3

    def test_empty_dataset_rejected(self, tiny_dataset):
        # train no longer re-checks the size: a frozen Dataset cannot be emptied on its way in
        with pytest.raises(dataclasses.FrozenInstanceError):
            tiny_dataset.records = tiny_dataset.records[:0]
        with pytest.raises(ValueError, match="n >= 1"):
            dataclasses.replace(tiny_dataset, records=tiny_dataset.records[:0])
        model = init_model(4, 1, np.random.default_rng(5))
        _, history = train(model, tiny_dataset, TrainConfig(beta=0.5, epochs=1, seed=0))
        assert len(history) == 1


class TestLossDecreases:
    def test_twenty_epochs_on_512_examples(self):
        cfg = ChannelConfig(snr_db=10.0)
        data = generate_dataset(cfg, L=80, L_b=1, n=512, master_seed=0)
        model = init_model(10, 1, np.random.default_rng(0))
        _, history = train(model, data, TrainConfig(beta=0.5, epochs=20, seed=0))
        assert history[-1].total_loss < history[0].total_loss
