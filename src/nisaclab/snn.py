"""Discrete-time spike-response network for the joint decode/detect receiver.

Topology is fixed: analog slot inputs drive one hidden spiking layer, which
drives two readout neurons (row 0 decodes the slot bit, row 1 votes on target
presence).  Each hidden neuron runs the per-step recursions:

    q <- exp(-1/tau_syn) * q + drive          fast synaptic trace
    r <- exp(-1/tau_mem) * r + q              slow trace; membrane input
    s <- exp(-1/tau_ref) * (s + prev_spike)   refractory trace
    o  = r - threshold * s                    membrane potential
    spike = 1 if o > threshold else 0

A readout neuron has the same q/r synapse and threshold 0, so it needs no
refractory trace: its potential is o = r, and it spikes when o > 0, where
its logistic probability sigmoid(o), which training fits, passes 1/2.

The cascaded q/r pair gives a double-exponential synaptic response with a
unit same-step term, so a pulse can influence the decision in its own slot;
the refractory trace reproduces reset-by-subtraction with an exponentially
fading penalty of threshold * exp(-k/tau_ref) k steps after a spike.  Analog
inputs enter the hidden synapses exactly as spikes would.

The q/r pair is linear, so it is computed as a filter, not stepped: unrolled,
r_t = sum_{m<=t} k(t-m) * drive_m with the impulse response
k(n) = sum_{j=0..n} a_syn^j * a_mem^(n-j), i.e. r = K @ drive for the
lower-triangular Toeplitz kernel K[t, m] = k(t-m).  K is applied in blocks of
_BLOCK steps, so a long frame never builds an (L x L) kernel, or of
_SHORT_BLOCK steps, a quarter of the flops, on _WIDE columns or more.
Eliminating q gives r_t = (a_syn + a_mem) r_{t-1} - a_syn a_mem r_{t-2} +
drive_t, so a block at t0 > 0 starts from rest once its first drive gains
(a_syn + a_mem) r_{t0-1} - a_syn a_mem r_{t0-2} and its second loses
a_syn a_mem r_{t0-1}, the last two outputs of the block before.  Only the
hidden refractory/spike recursion, which is nonlinear, is stepped.  The
readout never feeds back into the hidden layer, so each layer runs over the
whole frame before the next one starts.

At small B a step costs its five calls' overhead, and it reads the past only
through s + prev_spike.  So a long trace steps C time chunks side by side on
the batch axis, in passes that start each chunk from the s + prev_spike the
chunk before it ended with in the pass before, until each start equals that
end bit for bit.  Chunk 0 starts at rest, so by induction that fixed point
is the sequential result, bit for bit, within C passes.  A spike on a trace
below 2^-53 resets it exactly, and a silent trace underflows to exactly 0
within 745 tau_ref steps, 372 as shipped, so 80-step chunks settle in 6
passes; at a_ref >= 1/2 it never does: a_ref * 2^-1074 rounds to 2^-1074.

One batched engine, forward_batch, runs these recursions for every forward
pass; forward is its B=1 view.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidContentError
from .fileio import read_file, staged_path

COMM, SENSE = 0, 1  # readout rows

MODEL_MAGIC = b"NISM"
MODEL_VERSION = 1
_HEADER = struct.Struct("<4sIII")  # magic, version, H, input_width
# The five float64 scalars that end a NISM file, in file order.
_STORED_CONSTANTS = ("hidden_threshold", "readout_threshold", "tau_mem", "tau_syn", "tau_ref")

# Steps per synaptic-kernel block: an 80-slot frame is one block, and a long
# B=1 trace multiplies (80 x 80) blocks instead of one (L x L) kernel.
_BLOCK = 80
# From _WIDE columns (evaluation's 256-frame blocks) a filter runs blocks of
# _SHORT_BLOCK steps: 80 steps on one BLAS thread took 393 against 1014 us at
# 2,560 columns, 105 against 184 at 512 and 76 against 116 at 320 (2-core
# Xeon).  Training's 320 and 64 columns (B=32, H=10) keep _BLOCK, and its bytes.
_WIDE = 512
_SHORT_BLOCK = 16
# Values per call in a chunked spike-loop step: its five calls cost twice
# their overhead at ~600 values (3.0 us at 10, 6.3 us at 640; 2-core Xeon).
_STEP_WIDTH = 512


@dataclass
class SnnModel:
    """All trainable weights; the thresholds and time constants are fixed.

    Time constants are in units of SNN steps (= slots) and satisfy
    tau_mem > tau_syn > 0, so the synaptic kernel is well-formed.  The readout
    threshold is 0 by design (see the module docstring).
    """

    input_weights: np.ndarray   # (H, input_width)
    readout_weights: np.ndarray  # (2, H)
    # Short time constants keep the decode responsive at small bandwidth
    # expansion, and the sub-unit hidden threshold keeps several hidden units
    # participating per pulse while staying above the receiver noise floor at
    # 10 dB SNR.
    hidden_threshold: ClassVar[float] = 0.75
    readout_threshold: ClassVar[float] = 0.0
    tau_mem: ClassVar[float] = 1.0
    tau_syn: ClassVar[float] = 0.5
    tau_ref: ClassVar[float] = 0.5

    def __post_init__(self):
        self.input_weights = np.asarray(self.input_weights, dtype=np.float64)
        self.readout_weights = np.asarray(self.readout_weights, dtype=np.float64)
        if self.input_weights.ndim != 2 or self.readout_weights.shape != (2, self.input_weights.shape[0]):
            raise ValueError("weight shapes must be (H, input_width) and (2, H)")
        if self.input_weights.size == 0:
            raise ValueError("a model needs at least one hidden neuron and an input width of at least 1")
        if not (np.isfinite(self.input_weights).all() and np.isfinite(self.readout_weights).all()):
            raise ValueError("weights must be finite")

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


def init_model(hidden_count: int, L_b: int, rng: np.random.Generator) -> SnnModel:
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
    )


def forward(model: SnnModel, frame) -> ForwardTrace:
    """Run one (L, input_width) frame through the network: forward_batch on a
    batch of one.

    Hidden spikes reach the readout in the same step they are emitted, so the
    slot-l decisions depend on inputs up to and including slot l only.
    """
    return ForwardTrace(*(a[0] for a in forward_batch(model, np.asarray(frame)[None])))


@functools.lru_cache(maxsize=16)
def _synapse_kernel(a_syn: float, a_mem: float) -> np.ndarray:
    """The (_BLOCK x _BLOCK) lower-triangular kernel K[t, m] = k(t-m), with k
    the q/r recursion run on a unit impulse; read-only, as the cache shares it."""
    k = np.empty(_BLOCK)
    q = r = 0.0
    for t in range(_BLOCK):
        q = a_syn * q + (t == 0)
        r = a_mem * r + q
        k[t] = r
    lag = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
    K = np.where(lag >= 0, k[np.maximum(lag, 0)], 0.0)
    K.flags.writeable = False
    return K


def _synapse_filter(x: np.ndarray, a_syn: float, a_mem: float) -> np.ndarray:
    """Replace the time-major drive x (L, B, N) by the membrane input r it
    produces through the q/r synapse, in place; returns x.

    Filtering a time-reversed sequence applies K transposed, which is how the
    backward pass uses it.
    """
    K = _synapse_kernel(a_syn, a_mem)
    L = x.shape[0]
    flat = x.reshape(L, math.prod(x.shape[1:]))  # a view: x is contiguous
    step = _SHORT_BLOCK if flat.shape[1] >= _WIDE else _BLOCK
    for t0 in range(0, L, step):
        block = flat[t0 : t0 + step]
        if t0:
            block[0] += (a_syn + a_mem) * flat[t0 - 1] - a_syn * a_mem * flat[t0 - 2]
            block[1:2] -= a_syn * a_mem * flat[t0 - 1]  # empty for a one-step block
        n = len(block)
        block[...] = K[:n, :n] @ block
    return x


def _spike_layer(drive: np.ndarray, a_syn: float, a_mem: float, a_ref: float, threshold: float):
    """Potentials and spikes of the hidden layer from its time-major drive
    (L, B, H).  A step is five in-place calls into buffers made before the
    loop, with 0-d array scalars, so it allocates nothing and converts no
    Python float.  It steps C time chunks as (T, C, B*H) arrays, each from
    its carry s + b, where chunks span _BLOCK steps, C*B*H fits _STEP_WIDTH
    and C exceeds twice the passes a silent trace needs; else C = 1, in place
    on the drive array, which becomes the potential record."""
    potentials = _synapse_filter(drive, a_syn, a_mem)
    L, B, H = potentials.shape
    C = max(1, min(L // _BLOCK, _STEP_WIDTH // max(B * H, 1)))
    T = -(-L // C)
    if C == 1 or not 0 < a_ref < 0.5 or C <= 2 * (math.ceil(-745 / math.log(a_ref) / T) + 1):
        C, T = 1, L
    o = potentials.reshape(L, 1, B * H)
    if C > 1:  # the last chunk runs on zeros past L; those steps are dropped
        o = np.pad(o[:, 0], ((0, C * T - L), (0, 0))).reshape(C, T, -1).swapaxes(0, 1).copy()
    r, spikes, carry = o.copy() if C > 1 else o, np.empty_like(o), np.zeros(o.shape[1:])
    a_ref, th = np.array(a_ref), np.array(threshold)
    start = 0
    while True:
        s, b, penalty = carry[start:].copy(), np.zeros(()), np.empty_like(carry[start:])
        for o_t, b_next in zip(o[:, start:], spikes[:, start:]):
            np.add(s, b, s)
            np.multiply(s, a_ref, s)
            np.multiply(th, s, penalty)
            np.subtract(o_t, penalty, o_t)
            np.greater(o_t, th, b_next)
            b = b_next
        if start + 1 == C or not (stale := (carry[start + 1:] != s[:-1] + b[:-1]).any(axis=1)).any():
            return tuple(a.swapaxes(0, 1).reshape(C * T, B, H)[:L] for a in (o, spikes))
        carry[start + 1:] = s[:-1] + b[:-1]
        start += 1 + stale.argmax()
        o[:, start:] = r[:, start:]


def forward_batch(model: SnnModel, inputs: np.ndarray):
    """Vectorized forward over a batch of frames, recording only what training
    and evaluation need.

    inputs has shape (B, L, input_width).  Returns (hidden_potentials,
    hidden_spikes, readout_potentials, readout_spikes) with shapes (B, L, H) /
    (B, L, 2); they are views of time-major (L, B, .) records.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3 or inputs.shape[2] != model.input_width:
        raise ValueError(f"inputs of shape {inputs.shape} are not (B, L, {model.input_width}) for this model")
    B, L, _ = inputs.shape
    a_syn, a_mem, a_ref = model.decays()
    drive = inputs.transpose(1, 0, 2) @ model.input_weights.T
    oh, bh = _spike_layer(drive, a_syn, a_mem, a_ref, model.hidden_threshold)
    rdrive = (bh.reshape(L * B, model.hidden_count) @ model.readout_weights.T).reshape(L, B, 2)
    orr = _synapse_filter(rdrive, a_syn, a_mem)
    br = (orr > 0).astype(np.float64)
    return tuple(a.transpose(1, 0, 2) for a in (oh, bh, orr, br))


def save_model(model: SnnModel, path) -> None:
    """Write the model in the little-endian NISM binary layout."""
    header = _HEADER.pack(MODEL_MAGIC, MODEL_VERSION, model.hidden_count, model.input_width)
    tail = struct.pack("<5d", *(getattr(model, name) for name in _STORED_CONSTANTS))
    with staged_path(path) as tmp, open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(model.input_weights.astype("<f8").tobytes())
        fh.write(model.readout_weights.astype("<f8").tobytes())
        fh.write(tail)


def load_model(path) -> SnnModel:
    """Read a model written by save_model; round trip is bit-exact."""
    (H, width), payload = read_file(path, _HEADER, MODEL_MAGIC, MODEL_VERSION, "model",
                                    lambda H, width: 8 * (H * width + 2 * H + 5))
    n_in = H * width
    values = np.frombuffer(payload, dtype="<f8")
    w_in, w_out = values[:n_in], values[n_in:-5]
    for name, stored in zip(_STORED_CONSTANTS, values[-5:].tolist()):
        required = getattr(SnnModel, name)
        if stored != required:  # NaN differs too
            raise InvalidContentError(f"model file holds {name} {stored}; it must be {required}")
    try:
        return SnnModel(w_in.reshape(H, width).copy(), w_out.reshape(2, H).copy())
    except ValueError as exc:
        raise InvalidContentError(f"model file holds an invalid model: {exc}") from exc
