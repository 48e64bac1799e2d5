"""Dual cross-entropy objective and surrogate-gradient training.

The per-slot decode probability is the logistic of the communication readout
potential, the per-slot detection probability likewise for the sensing
readout.  The training loss is a beta-weighted sum of the two cross
entropies.  Gradients are computed by hand-rolled reverse-mode
backpropagation through the unrolled membrane recursions; the only
approximation is the usual surrogate step: the hard threshold's derivative
is replaced by the derivative of sigmoid(slope * x).  Run the same backward
pass on a trace from the fully smoothed twin network (surrogate_forward) and
it is the exact gradient, which is how the finite-difference oracle checks
it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .modem import BitFrame
from .snn import (
    COMM,
    SENSE,
    ForwardTrace,
    SnnModel,
    _frame_inputs,
    _synapse_filter,
    clone_model,
    forward_batch,
    sigmoid,
)

# Clamp keeps the logs finite; inert until |potential| exceeds log(1/eps) ~ 32.
PROB_EPS = 1e-14


@dataclass
class TrainConfig:
    # Rates above ~1e-2 prune hidden activity so aggressively that decode
    # quality and idle-frame sparsity both degrade; 5e-3 trains well at
    # every bandwidth expansion tried.
    beta: float
    learning_rate: float = 0.005
    epochs: int = 50
    batch_size: int = 32
    surrogate_slope: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        for name in ("learning_rate", "epochs", "batch_size", "surrogate_slope"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class LossBreakdown:
    comm_loss: float
    sense_loss: float
    total: float


@dataclass
class EpochStats:
    """One training-log row: mean losses and running train metrics."""

    epoch: int
    losses: LossBreakdown
    throughput: float
    detection_error: float


@dataclass
class ParamGradients:
    """Gradient with the same layout as the trainable parameters."""

    input_weights: np.ndarray
    readout_weights: np.ndarray


def _binary_cross_entropy(p: np.ndarray, labels: np.ndarray) -> np.ndarray:
    p = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    return -(labels * np.log(p) + (1.0 - labels) * np.log1p(-p))


def comm_loss(p_comm, bits, data_slot_count: int | None = None) -> float:
    """Summed decode cross entropy; SSAC frames contribute data slots only."""
    p = np.asarray(p_comm, dtype=np.float64)
    if isinstance(bits, BitFrame):
        labels = bits.bits
        if data_slot_count is None:
            data_slot_count = bits.data_slot_count
    else:
        labels = np.asarray(bits)
    if p.shape != labels.shape:
        raise ValueError(f"probability/bit length mismatch: {p.shape} vs {labels.shape}")
    n = labels.size if data_slot_count is None else data_slot_count
    return float(_binary_cross_entropy(p[:n], labels[:n].astype(np.float64)).sum())


def sense_loss(p_sense, target: int, slot_mask=None) -> float:
    """Summed detection cross entropy with the frame label broadcast over slots.

    slot_mask restricts the sum (SSAC trains its sensing network on the
    sensing slots only); default is every slot.
    """
    p = np.asarray(p_sense, dtype=np.float64)
    if slot_mask is not None:
        p = p[np.asarray(slot_mask, dtype=bool)]
    return float(_binary_cross_entropy(p, np.float64(target)).sum())


def isac_loss(lc: float, ls: float, beta: float) -> float:
    """Weighted sum of the two objectives."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return beta * lc + (1.0 - beta) * ls


def surrogate_forward(model: SnnModel, frame, slope: float) -> ForwardTrace:
    """Smoothed twin of the forward pass: spikes are sigmoid(slope*(o - th)).

    Every operation is differentiable, so the backward pass is exact on its
    traces; used by the gradient-check oracle.
    """
    return ForwardTrace(*(a[0] for a in forward_batch(model, _frame_inputs(model, frame)[None], slope)))


def _spike_slope(potentials: np.ndarray, threshold: float, slope: float) -> np.ndarray:
    """d spike / d potential under the sigmoid surrogate."""
    sg = sigmoid(slope * (potentials - threshold))
    return slope * sg * (1.0 - sg)


def _backward_batch(
    model: SnnModel,
    inputs: np.ndarray,
    hidden_potentials: np.ndarray,
    hidden_spikes: np.ndarray,
    readout_potentials: np.ndarray,
    d_readout_potentials: np.ndarray,
    slope: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse the unrolled recursions; returns batch-summed weight gradients.

    d_readout_potentials holds the direct loss derivative at each readout
    potential; everything else is reconstructed from the recorded potentials
    and spikes (the filter states enter linearly, so their values are never
    needed).  Each layer steps only the adjoint of its refractory/spike
    recursion; the synapse adjoint is K transposed, applied by filtering the
    time-reversed sequence.  Every (L, B, .) array below runs backwards in
    time.
    """
    B, L, width = inputs.shape
    H = model.hidden_count
    a_syn, a_mem, a_ref = model.decays()
    th_h, th_r = model.hidden_threshold, model.readout_threshold

    def reversed_time(a):
        return a.transpose(1, 0, 2)[::-1]

    # Spikes feed the next step's refractory trace via s' = a_ref*(s + b), so
    # the carry c (a_ref times the future s-adjoint) is also d L / d spike.
    d_or = reversed_time(d_readout_potentials)
    dspike_r = _spike_slope(reversed_time(readout_potentials), th_r, slope)
    g_rdrive = np.empty((L, B, 2))
    c = np.zeros((B, 2))
    for l in range(L):
        g = g_rdrive[l] = d_or[l] + c * dspike_r[l]
        c = a_ref * (c - th_r * g)
    _synapse_filter(g_rdrive, a_syn, a_mem)

    # d L / d hidden spike from the readout, turned in place into the
    # potential adjoint and then into the drive adjoint
    g_drive = (g_rdrive.reshape(L * B, 2) @ model.readout_weights).reshape(L, B, H)
    dspike_h = _spike_slope(reversed_time(hidden_potentials), th_h, slope)
    c = np.zeros((B, H))
    for g, ds in zip(g_drive, dspike_h):
        g += c
        g *= ds
        c = a_ref * (c - th_h * g)
    _synapse_filter(g_drive, a_syn, a_mem)

    g_w_in = g_drive.reshape(L * B, H).T @ reversed_time(inputs).reshape(L * B, width)
    g_w_out = g_rdrive.reshape(L * B, 2).T @ reversed_time(hidden_spikes).reshape(L * B, H)
    return g_w_in, g_w_out


def _loss_potential_grad(
    readout_potentials: np.ndarray,
    bits: np.ndarray,
    target: np.ndarray,
    beta: float,
    comm_mask: np.ndarray,
    sense_mask: np.ndarray,
) -> np.ndarray:
    """d L / d readout potential, shape (B, L, 2); cross entropy of a logistic
    gives the familiar (probability - label) form."""
    p = sigmoid(readout_potentials)
    d = np.empty_like(p)
    d[:, :, COMM] = beta * comm_mask * (p[:, :, COMM] - bits)
    d[:, :, SENSE] = (1.0 - beta) * sense_mask * (p[:, :, SENSE] - target[:, None])
    return d


def backward(
    model: SnnModel,
    trace: ForwardTrace,
    frame,
    bits,
    target: int,
    beta: float,
    slope: float = 1.0,
    sense_mask=None,
) -> ParamGradients:
    """Gradient of the weighted loss for one frame, via the trace from
    forward (surrogate gradient) or surrogate_forward (exact)."""
    inputs = _frame_inputs(model, frame)
    L = inputs.shape[0]
    if len(trace) != L:
        raise ValueError(f"trace length {len(trace)} does not match frame length {L}")
    if isinstance(bits, BitFrame):
        comm_mask = np.zeros(L)
        comm_mask[: bits.data_slot_count] = 1.0
        labels = bits.bits.astype(np.float64)
    else:
        comm_mask = np.ones(L)
        labels = np.asarray(bits, dtype=np.float64)
    s_mask = np.ones(L) if sense_mask is None else np.asarray(sense_mask, dtype=np.float64)
    d_or = _loss_potential_grad(
        trace.readout_potentials[None], labels[None],
        np.array([target], dtype=np.float64), beta, comm_mask, s_mask,
    )
    g_w_in, g_w_out = _backward_batch(
        model, inputs[None], trace.hidden_potentials[None], trace.hidden_spikes[None],
        trace.readout_potentials[None], d_or, slope,
    )
    return ParamGradients(input_weights=g_w_in, readout_weights=g_w_out)


def sgd_step(model: SnnModel, gradients: ParamGradients, lr: float) -> SnnModel:
    """One plain gradient-descent update; returns a new model."""
    return replace(
        model,
        input_weights=model.input_weights - lr * gradients.input_weights,
        readout_weights=model.readout_weights - lr * gradients.readout_weights,
    )


def train(
    model: SnnModel,
    dataset,
    cfg: TrainConfig,
    *,
    data_slot_count: int | None = None,
    sense_slot_start: int = 0,
):
    """Minibatch SGD over the dataset; returns (trained model, epoch log).

    data_slot_count restricts the decode loss to the leading data slots and
    sense_slot_start restricts the detection loss to the trailing slots, both
    for the SSAC variants; defaults cover every slot.  Deterministic given
    (cfg.seed, dataset, cfg): the only randomness is the per-epoch shuffle.
    """
    n = dataset.example_count
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    L = dataset.slot_count
    n_data = L if data_slot_count is None else data_slot_count
    comm_mask = np.zeros(L)
    comm_mask[:n_data] = 1.0
    sense_mask = np.zeros(L)
    sense_mask[sense_slot_start:] = 1.0
    n_sense = int(sense_mask.sum())

    inputs_all = dataset.inputs
    bits_all = dataset.bits.astype(np.float64)
    targets_all = dataset.targets.astype(np.float64)

    rng = np.random.default_rng(cfg.seed)
    model = clone_model(model)
    history: list[EpochStats] = []

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        lc_sum = ls_sum = 0.0
        correct_bits = 0
        wrong_detections = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            inputs = inputs_all[idx]
            bits = bits_all[idx]
            targets = targets_all[idx]
            oh, bh, orr, br = forward_batch(model, inputs)

            p = sigmoid(orr)
            lc_batch = float((_binary_cross_entropy(p[:, :, COMM], bits) * comm_mask).sum())
            ls_batch = float((_binary_cross_entropy(p[:, :, SENSE], targets[:, None]) * sense_mask).sum())
            if not (np.isfinite(lc_batch) and np.isfinite(ls_batch)):
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch}, batch starting {start}: "
                    f"comm={lc_batch}, sense={ls_batch}"
                )
            lc_sum += lc_batch
            ls_sum += ls_batch

            d_or = _loss_potential_grad(orr, bits, targets, cfg.beta, comm_mask, sense_mask)
            g_w_in, g_w_out = _backward_batch(
                model, inputs, oh, bh, orr, d_or, cfg.surrogate_slope
            )
            grads = ParamGradients(g_w_in / idx.size, g_w_out / idx.size)
            model = sgd_step(model, grads, cfg.learning_rate)

            correct_bits += int(((br[:, :, COMM] == bits) * comm_mask).sum())
            votes = (br[:, :, SENSE] * sense_mask).sum(axis=1)
            decisions = (votes > n_sense / 2).astype(np.float64)
            wrong_detections += int((decisions != targets).sum())

        lc_mean = lc_sum / n
        ls_mean = ls_sum / n
        history.append(EpochStats(
            epoch=epoch,
            losses=LossBreakdown(lc_mean, ls_mean, isac_loss(lc_mean, ls_mean, cfg.beta)),
            throughput=correct_bits / (n * L),
            detection_error=wrong_detections / n,
        ))
    return model, history
