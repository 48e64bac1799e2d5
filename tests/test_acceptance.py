"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Datasets and trained models are module-scoped fixtures shared across checks;
each test records a summary line (printed after the run) and asserts its
stated tolerance.  The reduced scale is 4,000 train / 1,000 test examples.

Beside its bounds, each criterion that prints quality numbers checks them
against PINNED, at the precision it prints them, so "the acceptance numbers
are unchanged" is a test result.  Runtimes are not pinned.  Like the golden
pipeline digests, the pins hold for the numpy/BLAS build they were taken
with; a change that moves one on purpose updates it here and says why, with
its largest weight difference.
"""

import dataclasses
import hashlib
import math
import time

import numpy as np
import pytest

from nisaclab.channel import (
    ChannelConfig,
    apply_channel,
    draw_channel,
    expected_channel_energy,
    frame_received,
    noise_variance_from_snr,
)
from nisaclab.cli import main
from nisaclab.dataset import generate_dataset, load_dataset, save_dataset
from nisaclab.metrics import evaluate, evaluate_ssac, score_frames
from nisaclab.modem import ppm_modulate, slot_split
from nisaclab.snn import (
    SENSE,
    forward,
    init_model,
    load_model,
    save_model,
    spike_count,
)
from nisaclab.training import TrainConfig, backward, objective, train

SNR_DB = 10.0
L = 80
N_TRAIN = 4000
N_TEST = 1000
EPOCHS = 50
CFG = ChannelConfig(snr_db=SNR_DB)

PINNED = {
    3: {"tap energy": "5.494", "noise var": "0.5493"},
    5: {"isac throughput": "0.663", "ssac throughput": "0.331"},
    6: {"throughput spread": "0.012", "detection spread": "0.004"},
    7: {"throughput": "[0.516, 0.551, 0.546]", "detection": "[0.489, 0.482, 0.489]"},
    8: {"L_b=4 throughput": "0.663", "L_b=1 throughput": "0.556", "gain": "0.107"},
    9: {"idle": "1.192", "active": "2.680", "ratio": "0.445"},
}


def _assert_pinned(index: int, printed: dict) -> None:
    assert printed == PINNED[index], f"criterion {index} prints {printed}, pinned {PINNED[index]}"


# --- shared heavy artifacts --------------------------------------------------

@pytest.fixture(scope="module")
def timings():
    return {}


def _timed(timings, key, build):
    t0 = time.perf_counter()
    out = build()
    timings[key] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def isac_lb4_data(timings):
    return _timed(timings, "gen_lb4", lambda: (
        generate_dataset(CFG, L, 4, N_TRAIN, master_seed=0),
        generate_dataset(CFG, L, 4, N_TEST, master_seed=1),
    ))


@pytest.fixture(scope="module")
def ssac_lb4_data(timings):
    return _timed(timings, "gen_lb4_ssac", lambda: (
        generate_dataset(CFG, L, 4, N_TRAIN, master_seed=0, alpha=0.5),
        generate_dataset(CFG, L, 4, N_TEST, master_seed=1, alpha=0.5),
    ))


@pytest.fixture(scope="module")
def isac_lb1_data(timings):
    return _timed(timings, "gen_lb1", lambda: (
        generate_dataset(CFG, L, 1, N_TRAIN, master_seed=0),
        generate_dataset(CFG, L, 1, N_TEST, master_seed=1),
    ))


def _fit_isac(dataset, hidden, beta):
    rng = np.random.default_rng(0)
    model = init_model(hidden, dataset.L_b, rng)
    fitted, _ = train(model, dataset, TrainConfig(beta=beta, epochs=EPOCHS, seed=0))
    return fitted


@pytest.fixture(scope="module")
def isac_lb4_model(isac_lb4_data, timings):
    return _timed(timings, "train_lb4", lambda: _fit_isac(isac_lb4_data[0], 10, 0.5))


@pytest.fixture(scope="module")
def ssac_lb4_models(ssac_lb4_data, timings):
    def build():
        tr = ssac_lb4_data[0]
        rng = np.random.default_rng(0)
        comm = init_model(10, tr.L_b, rng)
        sense = init_model(10, tr.L_b, rng)
        comm, _ = train(comm, tr, TrainConfig(beta=1.0, epochs=EPOCHS, seed=0), alpha=0.5)
        sense, _ = train(sense, tr, TrainConfig(beta=0.0, epochs=EPOCHS, seed=0), alpha=0.5)
        return comm, sense

    return _timed(timings, "train_lb4_ssac", build)


@pytest.fixture(scope="module")
def wide_beta_models(isac_lb1_data, timings):
    return _timed(timings, "train_lb1_h10", lambda: {
        beta: _fit_isac(isac_lb1_data[0], 10, beta) for beta in (0.3, 0.5, 0.7)
    })


@pytest.fixture(scope="module")
def narrow_beta_models(isac_lb1_data, timings):
    return _timed(timings, "train_lb1_h6", lambda: {
        beta: _fit_isac(isac_lb1_data[0], 6, beta) for beta in (0.1, 0.5, 0.9)
    })


def _max_rel_error(got: np.ndarray, want: np.ndarray) -> float:
    return float((np.abs(got - want) / np.maximum(np.abs(want), 1e-8)).max())


# --- criteria ----------------------------------------------------------------

def test_gradient_oracle(criterion_line, reference_forward):
    """Reverse-mode gradients of the reference network, smoothed at the
    surrogate slope, match central differences."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    model = init_model(3, 1, rng)
    inputs = rng.standard_normal((5, 4))
    bits = rng.integers(0, 2, size=5)
    target, beta, slope, h = 1, 0.5, TrainConfig.surrogate_slope, 1e-5
    frame_bits, frame_target = bits[None].astype(np.float64), np.array([target], dtype=np.float64)

    def loss_at(m):
        orr = reference_forward(m, inputs[None], slope)[2]
        lc, ls, _ = objective(orr, frame_bits, frame_target, beta, len(bits), 0)
        return beta * lc + (1.0 - beta) * ls

    def fd(attr):
        w = getattr(model, attr)
        grad = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            for sign in (1.0, -1.0):
                bumped = w.copy()
                bumped[idx] += sign * h
                grad[idx] += sign * loss_at(dataclasses.replace(model, **{attr: bumped}))
        return grad / (2 * h)

    # the calls train makes for a batch, here a batch of one frame
    oh, bh, orr, _ = reference_forward(model, inputs[None], slope)
    _, _, d_or = objective(orr, frame_bits, frame_target, beta, len(bits), 0)
    g_w_in, g_w_out = backward(model, inputs[None], oh, bh, d_or)
    rel = max(
        _max_rel_error(g_w_in, fd("input_weights")),
        _max_rel_error(g_w_out, fd("readout_weights")),
    )
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-4 and elapsed < 10.0
    criterion_line(1, ok, f"max relative gradient error {rel:.2e} (tol 1e-4) in {elapsed:.1f}s")
    assert rel <= 1e-4
    assert elapsed < 10.0


def test_slot_isolation(criterion_line):
    """With slots longer than the channel memory, a slot's noise-free samples
    depend only on its own bit: exact over all 16 four-slot frames."""
    L_b, n_slots = 6, 4
    frames_checked = 0
    all_equal = True
    for seed in range(5):
        for v in (0, 1):
            taps = draw_channel(CFG, v, np.random.default_rng(seed))
            frames = []
            for pattern in range(2**n_slots):
                bits = np.array([(pattern >> j) & 1 for j in range(n_slots)], dtype=np.uint8)
                y = apply_channel(ppm_modulate(bits, L_b), taps, 0.0, np.random.default_rng(0))
                frames.append((bits, frame_received(y, L_b).slot_inputs))
            frames_checked += len(frames)
            for slot in range(n_slots):
                for bit in (0, 1):
                    group = [slots[slot] for b, slots in frames if b[slot] == bit]
                    all_equal &= all(np.array_equal(group[0], other) for other in group[1:])
    ok = all_equal
    criterion_line(
        2, ok, f"slot samples exactly equal across {frames_checked} frames (10 realizations)"
    )
    assert all_equal


def test_channel_calibration(criterion_line):
    """Monte Carlo tap energy and injected noise variance match the configured values."""
    t0 = time.perf_counter()
    n = 100_000
    rng = np.random.default_rng(0)
    energy = 0.0
    for _ in range(n):
        v = int(rng.integers(0, 2))
        energy += float((np.abs(draw_channel(CFG, v, rng)) ** 2).sum())
    energy /= n
    want_energy = expected_channel_energy(CFG)

    want_var = noise_variance_from_snr(CFG)
    noise = apply_channel(np.zeros(n), [0], want_var, rng)  # a silent channel
    var = float((np.abs(noise) ** 2).mean())

    elapsed = time.perf_counter() - t0
    energy_ok = abs(energy - want_energy) <= 0.02 * want_energy
    var_ok = abs(var - want_var) <= 0.02 * want_var
    ok = energy_ok and var_ok and elapsed < 30.0
    criterion_line(
        3, ok,
        f"tap energy {energy:.3f} (want {want_energy} +-2%), "
        f"noise var {var:.4f} (want {want_var} +-2%) in {elapsed:.1f}s",
    )
    assert energy_ok
    assert var_ok
    assert elapsed < 30.0
    _assert_pinned(3, {"tap energy": f"{energy:.3f}", "noise var": f"{var:.4f}"})


def _frame_losses(p, bits, target):
    """objective's (decode, detection) losses for one frame whose two readouts
    both fire with the slot probabilities p."""
    o = np.log(np.divide(p, np.subtract(1.0, p)))
    o = np.repeat(o[None, :, None], 2, axis=2)
    bits = np.array([bits], dtype=np.float64)
    return objective(o, bits, np.array([target], dtype=np.float64), 0.5, len(p), 0)[:2]


def _majority(votes) -> int:
    """score_frames' detection decision for one frame's sensing votes."""
    spikes = np.zeros((1, len(votes), 2))
    spikes[0, :, SENSE] = votes
    return int(score_frames(spikes, np.zeros((1, len(votes))), 0, 0)[1][0])


def test_unit_examples(criterion_line, scored_throughput):
    """Hand-computable operation examples: modulation, framing, losses, decisions."""
    tiny = generate_dataset(CFG, L=8, L_b=1, n=16, master_seed=0)
    checks = {
        "pulse placement": (
            np.array_equal(ppm_modulate([0], 1), [1.0, 0.0])
            and np.array_equal(ppm_modulate([1], 2), [0.0, 0.0, 1.0, 0.0])
            and np.array_equal(ppm_modulate([0, 1], 1), [1.0, 0.0, 0.0, 1.0])
        ),
        "framing order": np.array_equal(
            frame_received(np.array([1 + 2j, 3 + 4j]), 1).slot_inputs,
            [[1.0, 3.0, 2.0, 4.0]],
        ),
        "loss values": (
            math.isclose(_frame_losses([0.5], [0], 0)[0], math.log(2), rel_tol=1e-12)
            and math.isclose(_frame_losses([0.5, 0.5], [1, 0], 0)[0], 2 * math.log(2), rel_tol=1e-12)
            and math.isclose(_frame_losses([0.5] * 80, [0] * 80, 0)[1], 80 * math.log(2), rel_tol=1e-12)
            and math.isclose(_frame_losses([0.75], [0], 1)[1], -math.log(0.75), rel_tol=1e-12)
        ),
        "loss identity": all(  # train logs beta*comm + (1 - beta)*sense
            e.total_loss == b * e.comm_loss + (1 - b) * e.sense_loss
            for b in (0.0, 0.3, 0.5, 1.0)
            for e in train(init_model(3, 1, np.random.default_rng(0)), tiny,
                           TrainConfig(beta=b, epochs=2))[1]
        ),
        "majority rule": (
            _majority([1] * 41 + [0] * 39) == 1
            and _majority([0] * 80) == 0
            and _majority([1] * 40 + [0] * 40) == 0
        ),
        "throughput arithmetic": (  # evaluate / evaluate_ssac on hand-built decode spikes
            scored_throughput([[0, 1, 0, 1]], [[0, 1, 0, 1]]) == 1.0
            and scored_throughput([[0, 1, 0, 0]], [[0, 1, 1, 1]], alpha=0.5) == 0.5
            and scored_throughput([[0, 1, 0, 0]], [[0, 1, 0, 1]]) == 0.75
        ),
    }
    failed = [name for name, passed in checks.items() if not passed]
    ok = not failed
    detail = "all exact" if ok else f"failed: {', '.join(failed)}"
    criterion_line(4, ok, f"{', '.join(checks)}: {detail}")
    assert not failed


def test_throughput_beats_time_division(
    criterion_line, isac_lb4_data, ssac_lb4_data, isac_lb4_model, ssac_lb4_models, timings
):
    """Joint training beats the time-division baseline, whose throughput is
    capped by its data fraction."""
    t0 = time.perf_counter()
    isac_res = evaluate(isac_lb4_model, isac_lb4_data[1])
    comm, sense = ssac_lb4_models
    ssac_res = evaluate_ssac(comm, sense, ssac_lb4_data[1], alpha=0.5)
    eval_time = time.perf_counter() - t0
    runtime = (
        timings["gen_lb4"] + timings["gen_lb4_ssac"]
        + timings["train_lb4"] + timings["train_lb4_ssac"] + eval_time
    )
    cap = slot_split(0.5, L)[0] / L
    ok = (
        ssac_res.throughput <= cap
        and isac_res.throughput > ssac_res.throughput
        and isac_res.throughput >= 0.6
        and runtime < 900.0
    )
    criterion_line(
        5, ok,
        f"isac throughput {isac_res.throughput:.3f} (needs >= 0.6) vs "
        f"ssac {ssac_res.throughput:.3f} (cap {cap}), runtime {runtime:.0f}s",
    )
    assert ssac_res.throughput <= cap
    assert isac_res.throughput > ssac_res.throughput
    assert isac_res.throughput >= 0.6
    assert runtime < 900.0
    _assert_pinned(5, {"isac throughput": f"{isac_res.throughput:.3f}",
                       "ssac throughput": f"{ssac_res.throughput:.3f}"})


def test_beta_insensitivity(criterion_line, wide_beta_models, isac_lb1_data):
    """With spare hidden capacity, the loss weight barely moves either metric."""
    betas = (0.3, 0.5, 0.7)
    results = {b: evaluate(wide_beta_models[b], isac_lb1_data[1]) for b in betas}
    thr = [results[b].throughput for b in betas]
    det = [results[b].detection_error for b in betas]
    thr_spread = max(thr) - min(thr)
    det_spread = max(det) - min(det)
    ok = thr_spread <= 0.05 and det_spread <= 0.05
    criterion_line(
        6, ok,
        f"throughput spread {thr_spread:.3f}, detection spread {det_spread:.3f} (tol 0.05)",
    )
    assert thr_spread <= 0.05
    assert det_spread <= 0.05
    _assert_pinned(6, {"throughput spread": f"{thr_spread:.3f}", "detection spread": f"{det_spread:.3f}"})


def test_capacity_tradeoff(criterion_line, narrow_beta_models, isac_lb1_data):
    """With a small hidden layer the loss weight trades decode against detection."""
    betas = (0.1, 0.5, 0.9)
    results = {b: evaluate(narrow_beta_models[b], isac_lb1_data[1]) for b in betas}
    thr = [results[b].throughput for b in betas]
    det = [results[b].detection_error for b in betas]
    margin = 0.02
    thr_ok = all(b >= a - margin for a, b in zip(thr, thr[1:]))
    det_ok = all(b <= a + margin for a, b in zip(det, det[1:]))
    ok = thr_ok and det_ok
    criterion_line(
        7, ok,
        f"throughput {[round(t, 3) for t in thr]} non-decreasing, "
        f"detection {[round(d, 3) for d in det]} non-increasing (margin {margin})",
    )
    assert thr_ok
    assert det_ok
    _assert_pinned(7, {"throughput": str([round(t, 3) for t in thr]),
                       "detection": str([round(d, 3) for d in det])})


def test_bandwidth_benefit(
    criterion_line, isac_lb4_model, isac_lb4_data, wide_beta_models, isac_lb1_data
):
    """Wider slots suppress interference, lifting throughput at the same budget."""
    wide = evaluate(isac_lb4_model, isac_lb4_data[1]).throughput
    narrow = evaluate(wide_beta_models[0.5], isac_lb1_data[1]).throughput
    gain = wide - narrow
    ok = gain >= 0.03
    criterion_line(
        8, ok,
        f"throughput {wide:.3f} at L_b=4 vs {narrow:.3f} at L_b=1, gain {gain:.3f} (needs >= 0.03)",
    )
    assert gain >= 0.03
    _assert_pinned(8, {"L_b=4 throughput": f"{wide:.3f}", "L_b=1 throughput": f"{narrow:.3f}",
                       "gain": f"{gain:.3f}"})


def test_idle_frame_sparsity(criterion_line, wide_beta_models):
    """Between frames the trained network goes quiet: mean spike count per idle
    slot is at most half the active mean, aggregated over trace realizations."""
    model = wide_beta_models[0.5]
    noise_var = noise_variance_from_snr(CFG)
    idle_gap = 20
    idle_sum = active_sum = 0
    idle_n = active_n = 0
    for seed in range(16):
        for target in (0, 1):
            rng = np.random.default_rng(100 + seed)
            first = rng.integers(0, 2, size=L).astype(np.uint8)
            second = rng.integers(0, 2, size=L).astype(np.uint8)
            chips = np.concatenate([
                ppm_modulate(first, 1),
                np.zeros(2 * idle_gap),
                ppm_modulate(second, 1),
            ])
            taps = draw_channel(CFG, target, rng)
            samples = apply_channel(chips, taps, noise_var, rng)
            counts = spike_count(forward(model, frame_received(samples, 1, noise_var).slot_inputs))
            idle_sum += int(counts[L:L + idle_gap].sum())
            active_sum += int(counts[:L].sum() + counts[L + idle_gap:].sum())
            idle_n += idle_gap
            active_n += 2 * L
    idle_mean = idle_sum / idle_n
    active_mean = active_sum / active_n
    ratio = idle_mean / active_mean if active_mean > 0 else float("inf")
    ok = active_mean > 0 and ratio <= 0.5
    criterion_line(
        9, ok,
        f"idle {idle_mean:.3f} vs active {active_mean:.3f} spikes/slot, "
        f"ratio {ratio:.3f} (needs <= 0.5)",
    )
    assert active_mean > 0
    assert ratio <= 0.5
    _assert_pinned(9, {"idle": f"{idle_mean:.3f}", "active": f"{active_mean:.3f}", "ratio": f"{ratio:.3f}"})


def test_persistence_round_trips(criterion_line, tmp_path):
    """Save/load round trips are bit-exact and the pipeline is run-to-run stable."""
    ds = generate_dataset(CFG, L=8, L_b=2, n=12, master_seed=5)
    d1, d2 = tmp_path / "d1.nisd", tmp_path / "d2.nisd"
    save_dataset(ds, d1)
    loaded = load_dataset(d1)
    save_dataset(loaded, d2)
    dataset_ok = loaded == ds and d1.read_bytes() == d2.read_bytes()

    model = init_model(4, 2, np.random.default_rng(3))
    m1, m2 = tmp_path / "m1.nism", tmp_path / "m2.nism"
    save_model(model, m1)
    reloaded = load_model(m1)
    save_model(reloaded, m2)
    model_ok = (
        np.array_equal(reloaded.input_weights, model.input_weights)
        and np.array_equal(reloaded.readout_weights, model.readout_weights)
        and m1.read_bytes() == m2.read_bytes()
    )

    def run_pipeline(root):
        root.mkdir()
        train_ds, test_ds = root / "train.nisd", root / "test.nisd"
        model_path, log, report = root / "model.nism", root / "log.csv", root / "eval.csv"
        assert main([
            "gen", "--n-train", "24", "--n-test", "8", "--L", "8", "--Lb", "1",
            "--out-train", str(train_ds), "--out-test", str(test_ds),
        ]) == 0
        assert main([
            "train", "--data", str(train_ds), "--out", str(model_path),
            "--log", str(log), "--hidden", "3", "--epochs", "2",
        ]) == 0
        assert main([
            "eval", "--data", str(test_ds), "--model", str(model_path),
            "--out", str(report),
        ]) == 0
        return [
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (train_ds, test_ds, model_path, log, report)
        ]

    pipeline_ok = run_pipeline(tmp_path / "run1") == run_pipeline(tmp_path / "run2")

    ok = dataset_ok and model_ok and pipeline_ok
    criterion_line(
        10, ok,
        f"dataset round trip {'ok' if dataset_ok else 'BROKEN'}, "
        f"model round trip {'ok' if model_ok else 'BROKEN'}, "
        f"pipeline checksums {'equal' if pipeline_ok else 'DIFFER'}",
    )
    assert dataset_ok
    assert model_ok
    assert pipeline_ok
