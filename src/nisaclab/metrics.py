"""Evaluation metrics: normalized throughput, majority-rule detection, spikes.

Throughput always divides by the full frame length, so an SSAC system that
reserves slots for sensing is capped by its data fraction even when it
decodes every data slot correctly.  Evaluation runs the network on _BLOCK
frames at a time and keeps only per-frame counts, so its memory does not
grow with the dataset, and each of a block's records is small enough to stay
in a core's L2 cache from the input projection to the scoring.  The blocks are
dealt over every usable CPU (workers._deal_blocks); no result depends on how.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modem import slot_split
from .snn import COMM, SENSE, SnnModel, forward_batch
from .workers import _deal_blocks

# Frames per forward_batch call.  At L=80 and H=10 each (L, _BLOCK, H)
# float64 record is 1.6 MiB: inside a 2 MiB per-core L2, and below the 4 MiB
# at which numpy asks for huge pages.  Results do not depend on the value.
_BLOCK = 256


@dataclass
class EvalResult:
    throughput: float
    detection_error: float
    mean_spike_count_per_slot: float


def score_frames(readout_spikes: np.ndarray, bits: np.ndarray, n_data: int, sense_start: int):
    """The scoring rule shared by evaluation and training's running metrics,
    per frame of (B, L, 2) readout spikes: the correct decode slots among the
    leading n_data, and the majority-rule detection.  The target counts as
    present iff strictly more than half the slots from sense_start on vote 1,
    so a tie says absent."""
    votes = readout_spikes[:, sense_start:, SENSE]
    if votes.shape[1] == 0:
        raise ValueError("majority vote over an empty sequence")
    correct = (readout_spikes[:, :n_data, COMM] == bits[:, :n_data]).sum(axis=1)
    return correct, votes.sum(axis=1) > votes.shape[1] / 2


def _frame_counts(models, dataset, alpha: float | None):
    """score_frames of each model over the dataset, one block at a time, on the slots slot_split(alpha)
    gives: (n, models) correct counts and detections, and each model's total spike count."""
    n = dataset.example_count
    n_data, sense_start = slot_split(alpha, dataset.slot_count)
    blocks = [slice(start, start + _BLOCK) for start in range(0, n, _BLOCK)]
    correct = np.empty((n, len(models)), dtype=np.int64)
    detect = np.empty((n, len(models)), dtype=bool)
    sums = np.empty((len(blocks), len(models)))  # each block's spike count per model

    def fill(j):
        rows = blocks[j]
        inputs = dataset.inputs[rows].astype(np.float64)  # once for every model
        for k, model in enumerate(models):
            _, bh, _, br = forward_batch(model, inputs)
            correct[rows, k], detect[rows, k] = score_frames(br, dataset.bits[rows], n_data, sense_start)
            sums[j, k] = bh.sum() + br.sum()

    _deal_blocks(fill, len(blocks), lambda j: (correct[blocks[j]], detect[blocks[j]], sums[j]), blas=True)
    return correct, detect, np.add.accumulate(sums)[-1]  # summed in block order, one block at a time


def evaluate(model: SnnModel, dataset) -> EvalResult:
    """Full-frame evaluation of a jointly trained model."""
    correct, detect, (spikes,) = _frame_counts((model,), dataset, None)
    slots = dataset.bits.size
    det = (detect[:, 0] != dataset.targets.astype(bool)).mean()
    return EvalResult(float(correct.sum() / slots), float(det), float(spikes / slots))


def evaluate_ssac(comm_model: SnnModel, sense_model: SnnModel, dataset, alpha: float) -> EvalResult:
    """Evaluate the two single-function networks as one system.

    The decode network is scored on the leading data slots (denominator still
    the full frame), the detection network votes over the sensing slots, and
    the spike count sums both networks since both run on every frame.
    """
    correct, detect, (spikes_c, spikes_s) = _frame_counts((comm_model, sense_model), dataset, alpha)
    det = (detect[:, 1] != dataset.targets.astype(bool)).mean()
    spikes = (spikes_c + spikes_s) / dataset.bits.size
    return EvalResult(float((correct[:, 0] / dataset.slot_count).mean()), float(det), float(spikes))
