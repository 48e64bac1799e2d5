"""Desk-scale lab for a spiking joint decode/detect receiver.

Pipeline: pulse-position modulation onto a chip grid (modem), a stochastic
multipath radar/clutter channel (channel), a spike-response network receiver
(snn) trained with surrogate-gradient backpropagation through time
(training), reproducible dataset generation and binary persistence
(dataset), evaluation metrics (metrics), and a CLI harness (cli).
"""

from .channel import (
    ChannelConfig,
    ChannelRealization,
    ReceivedFrame,
    apply_channel,
    draw_channel,
    expected_channel_energy,
    frame_received,
    noise_variance_from_snr,
    unit_second_moment_scale,
)
from .dataset import Dataset, Example, generate_dataset, load_dataset, save_dataset
from .errors import BadMagicError, FileFormatError, FormatVersionError, TruncatedFileError
from .metrics import (
    EvalResult,
    detection_error,
    evaluate,
    evaluate_ssac,
    majority_detection,
    normalized_throughput,
)
from .modem import BitFrame, ChipSequence, make_ssac_frame, ppm_demodulate, ppm_modulate
from .snn import (
    COMM,
    SENSE,
    ForwardTrace,
    SnnModel,
    decode_bits,
    forward,
    forward_batch,
    init_model,
    load_model,
    readout_probabilities,
    save_model,
    sense_votes,
    spike_count,
)
from .training import (
    EpochStats,
    LossBreakdown,
    ParamGradients,
    TrainConfig,
    backward,
    comm_loss,
    isac_loss,
    sense_loss,
    sgd_step,
    surrogate_forward,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BadMagicError",
    "BitFrame",
    "COMM",
    "ChannelConfig",
    "ChannelRealization",
    "ChipSequence",
    "Dataset",
    "EpochStats",
    "EvalResult",
    "Example",
    "FileFormatError",
    "FormatVersionError",
    "ForwardTrace",
    "LossBreakdown",
    "ParamGradients",
    "ReceivedFrame",
    "SENSE",
    "SnnModel",
    "TrainConfig",
    "TruncatedFileError",
    "apply_channel",
    "backward",
    "comm_loss",
    "decode_bits",
    "detection_error",
    "draw_channel",
    "evaluate",
    "evaluate_ssac",
    "expected_channel_energy",
    "forward",
    "forward_batch",
    "frame_received",
    "generate_dataset",
    "init_model",
    "isac_loss",
    "load_dataset",
    "load_model",
    "majority_detection",
    "make_ssac_frame",
    "noise_variance_from_snr",
    "normalized_throughput",
    "ppm_demodulate",
    "ppm_modulate",
    "readout_probabilities",
    "save_dataset",
    "save_model",
    "sense_loss",
    "sense_votes",
    "sgd_step",
    "spike_count",
    "surrogate_forward",
    "train",
    "unit_second_moment_scale",
]
