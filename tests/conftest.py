"""Shared test fixtures: acceptance-line recording for the terminal summary,
the step-by-step reference network every engine oracle checks against, the
throughput that evaluation scores for hand-built decode spikes,
hand-checkable neuron constants, the traced memory peak of a call, a file
loaded through a named pipe, and a check that no test leaves a child process
behind."""

import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

import nisaclab.metrics as metrics_module
from nisaclab.dataset import Dataset
from nisaclab.metrics import evaluate, evaluate_ssac
from nisaclab.snn import COMM, SnnModel

_criterion_lines: list[tuple[int, str]] = []


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Fail a test that leaves a child process unreaped, running or exited."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left a child process unreaped: {f'pid {pid}' if pid else 'still running'}")


@pytest.fixture
def criterion_line():
    """Record one pass/fail line for an acceptance criterion; printed at the end."""

    def record(index: int, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        _criterion_lines.append((index, f"criterion {index:2d}: {status}  {detail}"))

    return record


def _reference_forward(model: SnnModel, frame: np.ndarray, slope: float | None):
    """Step-by-step recursion from snn's module docstring on one (L, width)
    frame, one matvec per step.  slope=None runs the hard network; a float
    runs the smoothed network whose spikes are sigmoid(slope * (o - threshold))."""
    if slope is None:
        spike = lambda x: (x > 0).astype(float)
    else:
        spike = lambda x: 0.5 * (1.0 + np.tanh(0.5 * slope * x))
    a_syn, a_mem, a_ref = (math.exp(-1.0 / t) for t in (model.tau_syn, model.tau_mem, model.tau_ref))
    layers = [(model.input_weights, model.hidden_threshold), (model.readout_weights, model.readout_threshold)]
    state = [[np.zeros(w.shape[0]) for _ in range(4)] for w, _ in layers]  # q, r, s, spikes
    potentials, spikes = ([np.zeros((len(frame), w.shape[0])) for w, _ in layers] for _ in range(2))
    for l, x in enumerate(frame):
        for k, (w, th) in enumerate(layers):
            q, r, s, b = state[k]
            q = a_syn * q + w @ x
            r = a_mem * r + q
            s = a_ref * (s + b)
            o = r - th * s
            x = b = spike(o - th)  # this layer's spikes drive the next layer
            state[k] = [q, r, s, b]
            potentials[k][l], spikes[k][l] = o, b
    return potentials[0], spikes[0], potentials[1], spikes[1]


@pytest.fixture(scope="session")
def reference_forward():
    """reference_forward(model, inputs, slope=None): the oracle for
    forward_batch, and with a slope the smoothed network whose finite
    differences check backward.  Runs each (L, width) frame of the
    (B, L, width) inputs alone and returns forward_batch's four (B, L, .)
    records.  Session scope, as it holds no state: hypothesis tests may
    use it."""

    def run(model: SnnModel, inputs: np.ndarray, slope: float | None = None):
        frames = [_reference_forward(model, frame, slope) for frame in inputs]
        return tuple(np.stack(records) for records in zip(*frames))

    return run


@pytest.fixture
def neuron_constants(monkeypatch):
    """set(**values): replace SnnModel's hidden threshold and time constants
    for the rest of the test, for every model, as metrics._BLOCK is patched
    in its tests.  The synapse kernel cache is keyed on the decays, so a
    patched value gets its own kernel."""

    def set_constants(**values) -> None:
        for name, value in values.items():
            monkeypatch.setattr(SnnModel, name, value)

    return set_constants


@pytest.fixture
def scored_throughput(monkeypatch):
    """throughput(decisions, bits, alpha=None): what evaluate (alpha=None) or
    evaluate_ssac at alpha reports when the decode readout spikes are the
    (n, L) decisions and the dataset's bits are the (n, L) bits."""

    def throughput(decisions, bits, alpha=None) -> float:
        bits = np.asarray(bits, dtype=np.uint8)
        n, L = bits.shape
        readout = np.zeros((n, L, 2))
        readout[:, :, COMM] = decisions

        def decode_spikes(model, inputs):
            return np.zeros((n, L, 1)), np.zeros((n, L, 1)), np.zeros((n, L, 2)), readout

        monkeypatch.setattr(metrics_module, "forward_batch", decode_spikes)
        data = Dataset(np.zeros((n, L, 4)), bits, np.zeros(n), L_b=1, snr_db=10.0, master_seed=0)
        model = SnnModel(input_weights=np.zeros((1, 4)), readout_weights=np.zeros((2, 1)))
        if alpha is None:
            return evaluate(model, data).throughput
        return evaluate_ssac(model, model, data, alpha).throughput

    return throughput


@pytest.fixture
def peak_bytes():
    """peak_bytes(call): the most memory call() held at once beyond what was
    held when it started, as tracemalloc sees it; numpy reports its buffers
    to tracemalloc."""

    def measure(call) -> int:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture
def load_through_pipe(tmp_path):
    """load_through_pipe(load, path): load(pipe), where a writer thread feeds
    the bytes of path into the named pipe; the writer is joined before it
    returns.  Tests that use it skip where os.mkfifo is missing."""

    def through(load, path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()), daemon=True)
        writer.start()
        try:
            loaded = load(pipe)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        return loaded

    return through


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_criterion_lines):
        terminalreporter.write_line(line)
