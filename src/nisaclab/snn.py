"""Discrete-time spike-response network for the joint decode/detect receiver.

Topology is fixed: analog slot inputs drive one hidden spiking layer, which
drives two readout neurons (row 0 decodes the slot bit, row 1 votes on target
presence).  Each neuron runs the same per-step recursions:

    q <- exp(-1/tau_syn) * q + drive          fast synaptic trace
    r <- exp(-1/tau_mem) * r + q              slow trace; membrane input
    s <- exp(-1/tau_ref) * (s + prev_spike)   refractory trace
    o  = r - threshold * s                    membrane potential
    spike = 1 if o > threshold else 0

The cascaded q/r pair gives a double-exponential synaptic response with a
unit same-step term, so a pulse can influence the decision in its own slot;
the refractory trace reproduces reset-by-subtraction with an exponentially
fading penalty of threshold * exp(-k/tau_ref) k steps after a spike.  Analog
inputs enter the hidden synapses exactly as spikes would.

One batched engine, forward_batch, runs these recursions for every forward
pass; forward and training.surrogate_forward are its B=1 views.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .channel import ReceivedFrame
from .errors import BadMagicError, FileFormatError, FormatVersionError, TruncatedFileError

COMM, SENSE = 0, 1  # readout rows

# Membrane/synapse/refractory constants are in units of slots.  Short time
# constants keep the decode responsive at small bandwidth expansion, and the
# sub-unit hidden threshold keeps several hidden units participating per pulse
# while staying above the receiver noise floor at 10 dB SNR.
DEFAULT_HIDDEN_THRESHOLD = 0.75
DEFAULT_READOUT_THRESHOLD = 0.0
DEFAULT_TAU_MEM = 1.0
DEFAULT_TAU_SYN = 0.5
DEFAULT_TAU_REF = 0.5

MODEL_MAGIC = b"NISM"
MODEL_VERSION = 1


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def heaviside(x: np.ndarray) -> np.ndarray:
    """Hard threshold: 1 where x > 0, else 0."""
    return np.where(x > 0, 1.0, 0.0)


@dataclass
class SnnModel:
    """All trainable weights plus fixed thresholds and time constants.

    Time constants are in units of SNN steps (= slots) and must satisfy
    tau_mem > tau_syn > 0 so the synaptic kernel is well-formed.
    """

    input_weights: np.ndarray   # (H, input_width)
    readout_weights: np.ndarray  # (2, H)
    hidden_threshold: float = DEFAULT_HIDDEN_THRESHOLD
    readout_threshold: float = DEFAULT_READOUT_THRESHOLD
    tau_mem: float = DEFAULT_TAU_MEM
    tau_syn: float = DEFAULT_TAU_SYN
    tau_ref: float = DEFAULT_TAU_REF

    def __post_init__(self):
        self.input_weights = np.asarray(self.input_weights, dtype=np.float64)
        self.readout_weights = np.asarray(self.readout_weights, dtype=np.float64)
        if self.input_weights.ndim != 2 or self.readout_weights.shape != (2, self.input_weights.shape[0]):
            raise ValueError("weight shapes must be (H, input_width) and (2, H)")
        if not (np.isfinite(self.input_weights).all() and np.isfinite(self.readout_weights).all()):
            raise ValueError("weights must be finite")
        if not self.tau_mem > self.tau_syn > 0:
            raise ValueError(f"need tau_mem > tau_syn > 0, got {self.tau_mem}, {self.tau_syn}")
        if self.tau_ref <= 0:
            raise ValueError("tau_ref must be positive")

    @property
    def hidden_count(self) -> int:
        return self.input_weights.shape[0]

    @property
    def input_width(self) -> int:
        return self.input_weights.shape[1]

    def decays(self) -> tuple[float, float, float]:
        """(a_syn, a_mem, a_ref) per-step decay factors."""
        return (
            float(np.exp(-1.0 / self.tau_syn)),
            float(np.exp(-1.0 / self.tau_mem)),
            float(np.exp(-1.0 / self.tau_ref)),
        )


@dataclass
class ForwardTrace:
    """Per-step potentials and spikes of one frame's forward pass."""

    hidden_potentials: np.ndarray   # (L, H)
    hidden_spikes: np.ndarray       # (L, H)
    readout_potentials: np.ndarray  # (L, 2)
    readout_spikes: np.ndarray      # (L, 2)

    def __len__(self) -> int:
        return self.hidden_potentials.shape[0]


def init_model(
    hidden_count: int,
    L_b: int,
    rng: np.random.Generator,
    *,
    hidden_threshold: float = DEFAULT_HIDDEN_THRESHOLD,
    readout_threshold: float = DEFAULT_READOUT_THRESHOLD,
    tau_mem: float = DEFAULT_TAU_MEM,
    tau_syn: float = DEFAULT_TAU_SYN,
    tau_ref: float = DEFAULT_TAU_REF,
) -> SnnModel:
    """Fresh model with weights uniform on +-1/sqrt(fan_in)."""
    if hidden_count < 1:
        raise ValueError("need at least one hidden neuron")
    if L_b < 1:
        raise ValueError("bandwidth expansion factor must be >= 1")
    width = 4 * L_b
    in_bound = 1.0 / np.sqrt(width)
    out_bound = 1.0 / np.sqrt(hidden_count)
    return SnnModel(
        input_weights=rng.uniform(-in_bound, in_bound, size=(hidden_count, width)),
        readout_weights=rng.uniform(-out_bound, out_bound, size=(2, hidden_count)),
        hidden_threshold=hidden_threshold,
        readout_threshold=readout_threshold,
        tau_mem=tau_mem,
        tau_syn=tau_syn,
        tau_ref=tau_ref,
    )


def _frame_inputs(model: SnnModel, frame) -> np.ndarray:
    inputs = frame.slot_inputs if isinstance(frame, ReceivedFrame) else np.asarray(frame, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != model.input_width:
        raise ValueError(
            f"frame width {inputs.shape[-1] if inputs.ndim else '?'} does not match "
            f"model input width {model.input_width}"
        )
    return inputs


def forward(model: SnnModel, frame) -> ForwardTrace:
    """Run one frame through the network: forward_batch on a batch of one.

    Hidden spikes reach the readout in the same step they are emitted, so the
    slot-l decisions depend on inputs up to and including slot l only.
    """
    return ForwardTrace(*(a[0] for a in forward_batch(model, _frame_inputs(model, frame)[None])))


def forward_batch(model: SnnModel, inputs: np.ndarray, slope: float | None = None):
    """Vectorized forward over a batch of frames, recording only what training
    and evaluation need.

    inputs has shape (B, L, input_width).  slope=None runs the hard-threshold
    network; a float runs the smoothed twin with spikes sigmoid(slope*(o-th)).
    Returns (hidden_potentials, hidden_spikes, readout_potentials,
    readout_spikes) with shapes (B, L, H) / (B, L, 2).
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    B, L, width = inputs.shape
    if width != model.input_width:
        raise ValueError(f"input width {width} does not match model input width {model.input_width}")
    H = model.hidden_count
    a_syn, a_mem, a_ref = model.decays()
    th_h, th_r = model.hidden_threshold, model.readout_threshold
    spike_fn = heaviside if slope is None else (lambda x: sigmoid(slope * x))
    drive = inputs @ model.input_weights.T  # (B, L, H)
    w_out_t = model.readout_weights.T

    qh = np.zeros((B, H)); rh = np.zeros((B, H)); sh = np.zeros((B, H)); bh = np.zeros((B, H))
    qr = np.zeros((B, 2)); rr = np.zeros((B, 2)); sr = np.zeros((B, 2)); br = np.zeros((B, 2))
    oh_rec = np.empty((B, L, H)); bh_rec = np.empty((B, L, H))
    or_rec = np.empty((B, L, 2)); br_rec = np.empty((B, L, 2))

    for l in range(L):
        qh = a_syn * qh + drive[:, l]
        rh = a_mem * rh + qh
        sh = a_ref * (sh + bh)
        oh = rh - th_h * sh
        bh = spike_fn(oh - th_h)
        qr = a_syn * qr + bh @ w_out_t
        rr = a_mem * rr + qr
        sr = a_ref * (sr + br)
        orr = rr - th_r * sr
        br = spike_fn(orr - th_r)
        oh_rec[:, l] = oh; bh_rec[:, l] = bh
        or_rec[:, l] = orr; br_rec[:, l] = br

    return oh_rec, bh_rec, or_rec, br_rec


def readout_probabilities(trace: ForwardTrace) -> tuple[np.ndarray, np.ndarray]:
    """Per-slot decode/sense probabilities: logistic of the readout potentials."""
    p = sigmoid(trace.readout_potentials)
    return p[:, COMM], p[:, SENSE]


def spike_count(trace: ForwardTrace) -> np.ndarray:
    """Total spikes (hidden + readout) emitted at each step."""
    return (trace.hidden_spikes.sum(axis=1) + trace.readout_spikes.sum(axis=1)).astype(np.int64)


def decode_bits(trace: ForwardTrace) -> np.ndarray:
    """Per-slot bit decisions: the communication readout's spikes."""
    return trace.readout_spikes[:, COMM].astype(np.uint8)


def sense_votes(trace: ForwardTrace) -> np.ndarray:
    """Per-slot target votes: the sensing readout's spikes."""
    return trace.readout_spikes[:, SENSE].astype(np.uint8)


def save_model(model: SnnModel, path) -> None:
    """Write the model in the little-endian NISM binary layout."""
    header = struct.pack(
        "<4sIII", MODEL_MAGIC, MODEL_VERSION, model.hidden_count, model.input_width
    )
    tail = struct.pack(
        "<5d", model.hidden_threshold, model.readout_threshold,
        model.tau_mem, model.tau_syn, model.tau_ref,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(model.input_weights.astype("<f8").tobytes())
        fh.write(model.readout_weights.astype("<f8").tobytes())
        fh.write(tail)


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise TruncatedFileError(f"model file ended while reading {what}")
    return buf


def load_model(path) -> SnnModel:
    """Read a model written by save_model; round trip is bit-exact."""
    with open(path, "rb") as fh:
        magic, version, H, width = struct.unpack("<4sIII", _read_exact(fh, 16, "header"))
        if magic != MODEL_MAGIC:
            raise BadMagicError(f"expected magic {MODEL_MAGIC!r}, found {magic!r}")
        if version != MODEL_VERSION:
            raise FormatVersionError(f"unsupported model format version {version}")
        w_in = np.frombuffer(_read_exact(fh, 8 * H * width, "input weights"), dtype="<f8")
        w_out = np.frombuffer(_read_exact(fh, 8 * 2 * H, "readout weights"), dtype="<f8")
        scalars = struct.unpack("<5d", _read_exact(fh, 40, "thresholds and time constants"))
        if fh.read(1):
            raise FileFormatError("trailing bytes after model payload")
    return SnnModel(
        input_weights=w_in.reshape(H, width).copy(),
        readout_weights=w_out.reshape(2, H).copy(),
        hidden_threshold=scalars[0],
        readout_threshold=scalars[1],
        tau_mem=scalars[2],
        tau_syn=scalars[3],
        tau_ref=scalars[4],
    )


def clone_model(model: SnnModel) -> SnnModel:
    """Deep copy; training updates never alias an existing model's arrays."""
    return replace(
        model,
        input_weights=model.input_weights.copy(),
        readout_weights=model.readout_weights.copy(),
    )
