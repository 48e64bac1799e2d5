"""Desk-scale lab for a spiking joint decode/detect receiver.

Pipeline: pulse-position modulation onto a chip grid (modem), a stochastic
multipath radar/clutter channel (channel), a spike-response network receiver
(snn) trained with surrogate-gradient backpropagation through time
(training), reproducible dataset generation and binary persistence
(dataset), evaluation metrics (metrics), both run on every usable CPU
(workers), and a CLI harness (cli).  The package root re-exports the names
the README's library example uses; the rest is imported from its module.
"""

from .channel import ChannelConfig
from .dataset import generate_dataset
from .metrics import evaluate
from .snn import init_model
from .training import TrainConfig, train

__version__ = "0.1.0"

__all__ = ["ChannelConfig", "TrainConfig", "evaluate", "generate_dataset", "init_model", "train"]
