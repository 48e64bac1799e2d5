"""Dual cross-entropy objective and surrogate-gradient training.

The per-slot decode probability is the logistic of the communication readout
potential, the per-slot detection probability likewise for the sensing
readout.  The training loss is a beta-weighted sum of the two cross
entropies; an SSAC network scores its decode term on the leading data slots
and its detection term on the trailing sensing slots.  objective is the one
definition of that loss and of its derivative at the readout potentials, and
backward turns that derivative into the weight gradients; train calls both
once per batch, and the gradient tests make the same calls.  Gradients are
computed by hand-rolled reverse-mode backpropagation through the unrolled
membrane recursions.  A readout potential is its filtered drive, with no
refractory term, so its adjoint is the loss derivative filtered backwards in
time; only the hidden layer steps an adjoint loop.  The only approximation
is the usual surrogate step: the hidden threshold's derivative is replaced by
the derivative of sigmoid(TrainConfig.surrogate_slope * x).  For the smoothed
network whose spikes are that sigmoid, the same pass is the exact gradient:
the tests check it against finite differences of their own step-by-step copy
of that network.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .metrics import score_frames
from .modem import slot_split
from .snn import COMM, SENSE, SnnModel, _synapse_filter, forward_batch
from .workers import _one_blas_thread

# Clamp keeps the logs finite; inert until |potential| exceeds log(1/eps) ~ 32.
PROB_EPS = 1e-14
_LOGIT_CLAMP = math.log((1.0 - PROB_EPS) / PROB_EPS)


@dataclass
class TrainConfig:
    # Rates above ~1e-2 prune hidden activity so aggressively that decode
    # quality and idle-frame sparsity both degrade; 5e-3 trains well at
    # every bandwidth expansion tried.
    beta: float
    learning_rate: float = 0.005
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0
    surrogate_slope: ClassVar[float] = 1.0

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        self.epochs, self.batch_size, self.seed = map(operator.index, (self.epochs, self.batch_size, self.seed))
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed {self.seed} does not fit an unsigned 64-bit integer")
        for name in ("learning_rate", "epochs", "batch_size"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass
class EpochStats:
    """One training-log row: mean losses and running train metrics."""

    epoch: int
    comm_loss: float
    sense_loss: float
    total_loss: float
    throughput: float
    detection_error: float


def _cross_entropy(o: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Summed cross entropy of sigmoid(o) against labels, and sigmoid(o) - labels,
    from one exp: with e = exp(-|o|), the loss is log(1 + e) + (max(o, 0) -
    labels*o), and sigmoid(o) is 1/(1 + e) for o >= 0, e/(1 + e) below.  Taking
    the logs of p itself loses the digits of 1 - p as p nears 1; the bracket is
    exact for 0/1 labels.  Clamping o to +-logit(1 - PROB_EPS) is clamping p to
    [PROB_EPS, 1 - PROB_EPS], in the loss and in its derivative alike."""
    o = np.clip(o, -_LOGIT_CLAMP, _LOGIT_CLAMP)
    e = np.exp(-np.abs(o))  # never overflows
    loss = float((np.log1p(e) + (np.maximum(o, 0.0) - labels * o)).sum())
    return loss, np.where(o >= 0, 1.0, e) / (1.0 + e) - labels


def _spike_slope(potentials: np.ndarray, threshold: float, slope: float) -> np.ndarray:
    """d spike / d potential under the sigmoid surrogate, slope*sg*(1 - sg),
    as slope*e/(1 + e)**2 with e = exp(-|slope*(potential - threshold)|)."""
    e = np.subtract(potentials, threshold)
    np.abs(e, e)
    e *= -abs(slope)
    np.exp(e, e)
    d = e + 1.0
    d *= d
    e *= slope
    e /= d
    return e


def backward(
    model: SnnModel,
    inputs: np.ndarray,
    hidden_potentials: np.ndarray,
    hidden_spikes: np.ndarray,
    d_readout_potentials: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse the unrolled recursions; returns batch-summed weight gradients.

    d_readout_potentials holds the loss derivative at each readout
    potential; everything else is reconstructed from the recorded hidden
    potentials and spikes (the filter states enter linearly, so their values
    are never needed).  The synapse adjoint is K transposed, applied by
    filtering the time-reversed sequence; only the hidden layer steps the
    adjoint of a refractory/spike recursion.  Every (L, B, .) array below
    runs backwards in time.
    """
    B, L, width = inputs.shape
    H = model.hidden_count
    a_syn, a_mem, a_ref = model.decays()
    th_h = model.hidden_threshold

    def reversed_time(a):
        return a.transpose(1, 0, 2)[::-1]

    # a readout potential is its filtered drive, so the drive adjoint is the
    # potential adjoint filtered backwards (a contiguous copy: the filter
    # works in place through a reshape view)
    g_rdrive = _synapse_filter(np.ascontiguousarray(reversed_time(d_readout_potentials)), a_syn, a_mem)

    # d L / d hidden spike from the readout, turned in place into the
    # potential adjoint and then into the drive adjoint
    g_drive = (g_rdrive.reshape(L * B, 2) @ model.readout_weights).reshape(L, B, H)
    # Spikes feed the next step's refractory trace via s' = a_ref*(s + b), so
    # the carry c (a_ref times the future s-adjoint) is also d L / d spike.
    # With e the incoming adjoint and ds the surrogate slope, g = (e + c)*ds
    # and c' = a_ref*(c - th*g) = A*c + U: a linear recurrence, stepped with
    # two in-place operations that leave c' in U[t].
    dspike_h = _spike_slope(reversed_time(hidden_potentials), th_h, TrainConfig.surrogate_slope)
    U = np.multiply(dspike_h, -a_ref * th_h)
    A = U + a_ref  # a_ref*(1 - th*ds)
    U *= g_drive   # -a_ref*th*ds*e
    c = np.zeros((B, H))
    for A_t, U_t in zip(A, U):
        np.multiply(A_t, c, A_t)
        np.add(U_t, A_t, U_t)
        c = U_t
    g_drive[1:] += U[:-1]  # c before each step; it is 0 before the first
    g_drive *= dspike_h
    _synapse_filter(g_drive, a_syn, a_mem)

    g_w_in = g_drive.reshape(L * B, H).T @ reversed_time(inputs).reshape(L * B, width)
    g_w_out = g_rdrive.reshape(L * B, 2).T @ reversed_time(hidden_spikes).reshape(L * B, H)
    return g_w_in, g_w_out


def objective(
    readout_potentials: np.ndarray,
    bits: np.ndarray,
    targets: np.ndarray,
    beta: float,
    n_data: int,
    sense_start: int,
) -> tuple[float, float, np.ndarray]:
    """Batch-summed decode and detection losses, and d(beta*lc + (1-beta)*ls)
    / d readout potential, shape (B, L, 2).

    The decode loss covers the leading n_data slots against the (B, L) bits,
    the detection loss the slots from sense_start on against the (B,) frame
    labels.  The cross entropy of a logistic gives the familiar
    (probability - label) form of the gradient.
    """
    B, L, _ = readout_potentials.shape
    if bits.shape != (B, L) or targets.shape != (B,):
        raise ValueError(
            f"bits {bits.shape} and targets {targets.shape} do not fit "
            f"readout potentials {readout_potentials.shape}"
        )
    lc, d_comm = _cross_entropy(readout_potentials[:, :n_data, COMM], bits[:, :n_data])
    ls, d_sense = _cross_entropy(readout_potentials[:, sense_start:, SENSE], targets[:, None])
    d = np.zeros_like(readout_potentials, dtype=np.float64)
    d[:, :n_data, COMM] = beta * d_comm
    d[:, sense_start:, SENSE] = (1.0 - beta) * d_sense
    return lc, ls, d


def sgd_step(model: SnnModel, g_w_in: np.ndarray, g_w_out: np.ndarray, lr: float) -> SnnModel:
    """One plain gradient-descent update; returns a new model."""
    return replace(
        model,
        input_weights=model.input_weights - lr * g_w_in,
        readout_weights=model.readout_weights - lr * g_w_out,
    )


def train(model: SnnModel, dataset, cfg: TrainConfig, alpha: float | None = None):
    """Minibatch SGD over the dataset; returns (trained model, epoch log).

    alpha splits each frame as modem.slot_split does: None (ISAC) scores
    both losses on every slot, an SSAC alpha the decode loss on the leading
    data slots and the detection loss on the trailing sensing slots, the
    slots evaluate_ssac scores with the same alpha.  Deterministic given
    (cfg.seed, dataset, cfg): the only randomness is the per-epoch shuffle.
    """
    n = dataset.example_count
    L = dataset.slot_count
    n_data, sense_start = slot_split(alpha, L)

    rng = np.random.default_rng(cfg.seed)
    history: list[EpochStats] = []

    # one BLAS thread: a second gains these small matmuls nothing and stalls them while the other
    # core is busy.  A diverging run overflows in the engine before its loss turns non-finite;
    # the check below reports it as one FloatingPointError
    with np.errstate(over="ignore", invalid="ignore"), _one_blas_thread():
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(n)
            lc_sum = ls_sum = 0.0
            correct_bits = 0
            wrong_detections = 0
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                inputs = dataset.inputs[idx].astype(np.float64)  # one cast for forward and backward
                bits, targets = dataset.bits[idx], dataset.targets[idx]
                oh, bh, orr, br = forward_batch(model, inputs)

                lc_batch, ls_batch, d_or = objective(
                    orr, bits, targets, cfg.beta, n_data, sense_start
                )
                if not (np.isfinite(lc_batch) and np.isfinite(ls_batch)):
                    raise FloatingPointError(
                        f"non-finite loss at epoch {epoch}, batch starting {start}: "
                        f"comm={lc_batch}, sense={ls_batch}"
                    )
                lc_sum += lc_batch
                ls_sum += ls_batch

                g_w_in, g_w_out = backward(model, inputs, oh, bh, d_or)
                model = sgd_step(model, g_w_in / idx.size, g_w_out / idx.size, cfg.learning_rate)

                correct, detect = score_frames(br, bits, n_data, sense_start)
                correct_bits += int(correct.sum())
                wrong_detections += int((detect != targets).sum())

            lc_mean = lc_sum / n
            ls_mean = ls_sum / n
            history.append(EpochStats(
                epoch, lc_mean, ls_mean, cfg.beta * lc_mean + (1.0 - cfg.beta) * ls_mean,
                correct_bits / (n * L), wrong_detections / n,
            ))
    return model, history
