"""Shared test fixtures: acceptance-line recording for the terminal summary,
the step-by-step reference network every engine oracle checks against,
channel taps rebuilt from numpy's own draws, the throughput that evaluation
scores for hand-built decode spikes, datasets built from zeroed NISD records,
hand-checkable neuron constants, the largest relative error of a gradient,
a stand-in CPU count, OpenBLAS's thread count set for a test, the traced
memory peak of a call and its resident-set growth, a file loaded through a
named pipe, and checks that no test leaves a child process behind or
OpenBLAS's thread count changed."""

import ctypes
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

import nisaclab.metrics as metrics_module
import nisaclab.workers as workers_module
from nisaclab.dataset import Dataset, _payload_dtype
from nisaclab.metrics import evaluate, evaluate_ssac
from nisaclab.snn import COMM, SnnModel

_criterion_lines: list[tuple[int, str]] = []
# the real getter, captured before any test stands one in for workers._openblas_threads
_get_blas_threads = (workers_module._openblas_threads() or (None,))[0]


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Fail a test that leaves a child process unreaped, running or exited."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left a child process unreaped: {f'pid {pid}' if pid else 'still running'}")


@pytest.fixture(autouse=True)
def blas_threads_kept():
    """Fail a test that leaves OpenBLAS's thread count other than it found it;
    without OpenBLAS's thread control there is nothing to check."""
    before = _get_blas_threads and _get_blas_threads()
    yield
    if _get_blas_threads and (after := _get_blas_threads()) != before:
        pytest.fail(f"the test left OpenBLAS on {after} threads, not {before}")


@pytest.fixture
def blas_threads():
    """The OpenBLAS thread count getter, with the count set to 3 for the test
    (not the default, so a restore cannot pass by resetting it) and put back
    after.  Tests that use it skip without OpenBLAS's thread control."""
    if (control := workers_module._openblas_threads()) is None:
        pytest.skip("needs OpenBLAS's thread control")
    get, set_threads = control
    old = get()
    set_threads(3)
    yield get
    set_threads(old)


@pytest.fixture
def affinity(monkeypatch):
    """affinity(cpus): os.sched_getaffinity reports cpus usable CPUs for the rest of the test."""

    def set_cpus(cpus: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    return set_cpus


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
def numpy_taps():
    """numpy_taps(rng, v): draw_channel's default-channel taps for indicator v, rebuilt from
    numpy's own Generator calls (normal, weibull, uniform(0, 2pi), integers(0, 5)) and summed
    term by term in draw order: the target, then clutter tap by tap."""

    def taps(rng, v):
        re, im = rng.normal(scale=math.sqrt(0.5), size=2)
        mags, phases = rng.weibull(2.0, size=5), rng.uniform(0.0, 2.0 * math.pi, size=5)
        delays = rng.integers(0, 5, size=5)
        expected = [0j] * 5
        expected[0] += int(v) * complex(re, im)
        for k in range(5):
            expected[delays[k]] += mags[k] * np.exp(1j * phases[k])
        return np.array(expected)

    return taps


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


@pytest.fixture(scope="session")
def max_rel_error():
    """max_rel_error(got, want): the largest |got - want| / |want| over the
    entries, with |want| floored at 1e-8."""

    def error(got: np.ndarray, want: np.ndarray) -> float:
        return float((np.abs(got - want) / np.maximum(np.abs(want), 1e-8)).max())

    return error


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


@pytest.fixture(scope="session")
def nisd_dataset():
    """nisd_dataset(n, L, L_b=1, snr_db=10.0, master_seed=0, **fields): a Dataset
    of n zeroed _payload_dtype(L, L_b) records, with the named fields (v, bits,
    inputs) set to the values given."""

    def build(n, L, L_b=1, snr_db=10.0, master_seed=0, **fields) -> Dataset:
        records = np.zeros(n, _payload_dtype(L, L_b))
        for name, value in fields.items():
            records[name] = value
        return Dataset(records, snr_db, master_seed)

    return build


@pytest.fixture
def scored_throughput(monkeypatch, nisd_dataset):
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
        data = nisd_dataset(n, L, bits=bits)
        model = SnnModel(input_weights=np.zeros((1, 4)), readout_weights=np.zeros((2, 1)))
        if alpha is None:
            return evaluate(model, data).throughput
        return evaluate_ssac(model, model, data, alpha).throughput

    return throughput


@pytest.fixture
def peak_bytes():
    """peak_bytes(call): the most memory call() held at once beyond what was
    held when it started, as tracemalloc sees it; numpy reports its arrays'
    buffers to tracemalloc, but not the buffers it makes inside a call (see
    rss_growth)."""

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
def rss_growth():
    """rss_growth(call): how far call() raised the peak resident set above the
    resident set it started with, in bytes, less the file pages (code) that it
    faulted in.  Unlike peak_bytes it sees numpy's internal buffers.  call runs
    in a forked child, whose peak starts at its own resident set, not at this
    process's peak, and which is reaped before this returns.  Free heap pages
    are returned to the system first, so an allocation cannot reuse them
    unseen; and fork does not copy the page table of code mappings, so the
    child faults in again the code it runs.  Tests that use it skip where
    os.fork, /proc or glibc's malloc_trim is missing."""
    if not (hasattr(os, "fork") and os.path.exists("/proc/self/status")):
        pytest.skip("needs os.fork and /proc")
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "malloc_trim"):
        pytest.skip("needs glibc's malloc_trim")
    libc.malloc_trim.argtypes, libc.malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int

    def status() -> dict:  # the resident set's peak, size and file pages, in bytes
        with open("/proc/self/status") as fh:
            fields = dict(line.split(":", 1) for line in fh)
        return {k: int(fields[k].split()[0]) * 1024 for k in ("VmHWM", "VmRSS", "RssFile")}

    def measure(call) -> int:
        read, write = os.pipe()
        libc.malloc_trim(0)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read)
                start = status()
                call()
                end = status()
                os.write(write, str(end["VmHWM"] - start["VmRSS"] - (end["RssFile"] - start["RssFile"])).encode())
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        with os.fdopen(read) as pipe:
            reported = pipe.read()
        _, code = os.waitpid(pid, 0)
        assert code == 0, "the measured call failed in the child"
        return int(reported)

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
