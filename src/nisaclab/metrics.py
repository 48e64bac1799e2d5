"""Evaluation metrics: normalized throughput, majority-rule detection, spikes.

Throughput always divides by the full frame length, so an SSAC system that
reserves slots for sensing is capped by its data fraction even when it
decodes every data slot correctly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modem import ssac_data_slots
from .snn import COMM, SENSE, SnnModel, forward_batch


@dataclass
class EvalResult:
    throughput: float
    detection_error: float
    mean_spike_count_per_slot: float


def majority_detection(votes):
    """1 iff strictly more than half the slot votes are 1; ties say 0.

    votes is one frame's (slots,) sequence, which gives an int, or (...,
    slots), which gives one bool decision per frame.
    """
    v = np.asarray(votes)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ValueError("majority vote over an empty sequence")
    decisions = v.sum(axis=-1) > v.shape[-1] / 2
    return int(decisions) if v.ndim == 1 else decisions


def detection_error_from_votes(votes: np.ndarray, targets: np.ndarray) -> float:
    """Fraction of examples whose majority vote disagrees with the truth."""
    votes = np.asarray(votes)
    targets = np.asarray(targets)
    if votes.ndim != 2 or votes.shape[0] != targets.shape[0]:
        raise ValueError("votes must be (n, slots) aligned with targets (n,)")
    return float((majority_detection(votes) != targets.astype(bool)).mean())


def evaluate(model: SnnModel, dataset) -> EvalResult:
    """Full-frame evaluation of a jointly trained model."""
    if dataset.example_count == 0:
        raise ValueError("dataset is empty")
    _, bh, _, br = forward_batch(model, dataset.inputs)
    throughput = float((br[:, :, COMM] == dataset.bits).mean())
    det = detection_error_from_votes(br[:, :, SENSE], dataset.targets)
    spikes = bh.sum(axis=2) + br.sum(axis=2)
    return EvalResult(throughput, det, float(spikes.mean()))


def evaluate_ssac(comm_model: SnnModel, sense_model: SnnModel, dataset, alpha: float) -> EvalResult:
    """Evaluate the two single-function networks as one system.

    The decode network is scored on the leading data slots (denominator still
    the full frame), the detection network votes over the sensing slots, and
    the spike count sums both networks since both run on every frame.
    """
    if dataset.example_count == 0:
        raise ValueError("dataset is empty")
    L = dataset.slot_count
    n_data = ssac_data_slots(alpha, L)
    _, bh_c, _, br_c = forward_batch(comm_model, dataset.inputs)
    _, bh_s, _, br_s = forward_batch(sense_model, dataset.inputs)
    correct = (br_c[:, :n_data, COMM] == dataset.bits[:, :n_data]).sum(axis=1)
    throughput = float((correct / L).mean())
    det = detection_error_from_votes(br_s[:, n_data:, SENSE], dataset.targets)
    spikes = bh_c.sum(axis=2) + br_c.sum(axis=2) + bh_s.sum(axis=2) + br_s.sum(axis=2)
    return EvalResult(throughput, det, float(spikes.mean()))
