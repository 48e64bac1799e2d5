"""In-memory span tracer and the per-layer figures derived from its spans.

The tracer replaces a function in the module namespace where its caller looks
it up (for example ``nisaclab.training.forward_batch``), so every call made
through that name records a span: name, start, end, parent span, batch size
and a small info dict.  Nothing inside the package is edited, and restoring
the attributes removes all cost.  Spans stay in memory until the run ends.

Two root spans mark the phases: ``setup`` (built once) and ``iteration``
(one pass of the workload's commands, repeated).  Per-layer totals are
reported for one set-up plus one iteration: set-up spans count once, spans of
the n traced iterations count 1/n each.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    batch: int | None = None
    info: dict | None = None


def _describe_main(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return None, {"command": argv[0] if argv else ""}


def _describe_save_dataset(args, kwargs, result):
    return args[0].example_count, {"bytes": os.path.getsize(args[1])}


def _describe_load_dataset(args, kwargs, result):
    return result.example_count, {"bytes": os.path.getsize(args[0])}


def _describe_generate(args, kwargs, result):
    return result.example_count, None


def _describe_train(args, kwargs, result):
    dataset, cfg = args[1], args[2]
    return cfg.batch_size, {"frames": dataset.example_count, "epochs": cfg.epochs}


def _describe_evaluate(args, kwargs, result):
    dataset = args[2] if len(args) > 2 else args[1]
    return dataset.example_count, None


def _describe_forward_batch(args, kwargs, result):
    model, inputs = args[0], args[1]
    B, L, width = inputs.shape
    return B, {
        "steps": L, "hidden": model.hidden_count, "width": width,
        "hidden_spikes": float(result[1].sum()),
    }


def _describe_forward(args, kwargs, result):
    model = args[0]
    return 1, {
        "steps": len(result), "hidden": model.hidden_count, "width": model.input_width,
        "hidden_spikes": float(result.hidden_spikes.sum()),
    }


_GEN_LAYERS = (
    ("ppm_modulate", "modem.ppm_modulate"),
    ("draw_channel", "channel.draw_channel"),
    ("apply_channel", "channel.apply_channel"),
    ("frame_received", "channel.frame_received"),
)

# (module where the caller looks the name up, attribute, span name, describe)
TARGETS = [
    ("nisaclab.cli", "main", "cli.main", _describe_main),
    ("nisaclab.cli", "generate_dataset", "dataset.generate_dataset", _describe_generate),
    ("nisaclab.cli", "save_dataset", "dataset.save_dataset", _describe_save_dataset),
    ("nisaclab.cli", "load_dataset", "dataset.load_dataset", _describe_load_dataset),
    ("nisaclab.cli", "init_model", "snn.init_model", None),
    ("nisaclab.cli", "load_model", "snn.load_model", None),
    ("nisaclab.cli", "save_model", "snn.save_model", None),
    ("nisaclab.cli", "train", "training.train", _describe_train),
    ("nisaclab.cli", "evaluate", "metrics.evaluate", _describe_evaluate),
    ("nisaclab.cli", "evaluate_ssac", "metrics.evaluate_ssac", _describe_evaluate),
    ("nisaclab.cli", "forward", "snn.forward", _describe_forward),
    ("nisaclab.dataset", "example_rng", "dataset.example_rng", None),
    ("nisaclab.training", "forward_batch", "snn.forward_batch", _describe_forward_batch),
    ("nisaclab.training", "sgd_step", "training.sgd_step", None),
    ("nisaclab.metrics", "forward_batch", "snn.forward_batch", _describe_forward_batch),
]
TARGETS += [(mod, attr, name, None) for mod in ("nisaclab.cli", "nisaclab.dataset")
            for attr, name in _GEN_LAYERS]


class Tracer:
    """Records spans for calls made through patched module attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, describe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if describe is not None:
                span.batch, span.info = describe(args, kwargs, result)
            return result

        return traced

    def root(self, name: str, fn, *args):
        """Call fn(*args) inside a root span called name."""
        return self.wrap(fn, name)(*args)

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name, describe in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, describe))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """One JSON object per line; times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start - t0, "end": s.end - t0,
                    "parent": s.parent, "batch": s.batch, "info": s.info,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        for c in sorted(children[i], key=lambda k: spans[k].start):
            lo, hi = max(spans[c].start, cursor), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def _weights(spans: list[Span]) -> list[float]:
    """1 for a span under a set-up root, 1/n under one of n iteration roots."""
    root = [0] * len(spans)
    for i, s in enumerate(spans):
        root[i] = i if s.parent < 0 else root[s.parent]
    n_iter = sum(1 for s in spans if s.parent < 0 and s.name == "iteration")
    return [1.0 / n_iter if spans[r].name == "iteration" else 1.0 for r in root]


def layer_metrics(spans: list[Span], untraced_walls: list[float], traced_walls: list[float]) -> dict:
    """Per-layer figures for one set-up plus one iteration, as {name: (value, unit)}."""
    weight = _weights(spans)
    selfs = self_times(spans)

    def under(i: int, names: tuple[str, ...]) -> bool:
        p = spans[i].parent
        while p >= 0:
            if spans[p].name in names:
                return True
            p = spans[p].parent
        return False

    def total(name, value=lambda i: spans[i].end - spans[i].start, where=None):
        return sum((weight[i] * value(i) for i, s in enumerate(spans)
                    if s.name == name and (where is None or where(i))), 0.0)

    def info(key):
        return lambda i: (spans[i].info or {}).get(key, 0)

    def step_us(name, where=None):
        steps = total(name, info("steps"), where)
        return 1e6 * total(name, where=where) / steps if steps else 0.0

    def self_s(name):
        return total(name, lambda i: selfs[i])

    def calls(name):
        return total(name, lambda i: 1.0)

    def in_train(i):
        return under(i, ("training.train",))

    def in_eval(i):
        return under(i, ("metrics.evaluate", "metrics.evaluate_ssac"))

    def flop(i):
        f = spans[i].info
        if f is None:
            return 0
        H, D = f["hidden"], f["width"]
        return spans[i].batch * f["steps"] * (2 * D * H + 4 * H + 10 * (H + 2))

    def neuron_steps(i):
        f = spans[i].info
        return spans[i].batch * f["steps"] * f["hidden"] if f else 0

    def is_train_command(i):
        return i >= 0 and spans[i].name == "cli.main" and info("command")(i) == "train"

    # A training step runs from its forward_batch start to its sgd_step end.
    step_ms, forward_start = [], {}
    for s in spans:
        if s.name == "snn.forward_batch":
            forward_start[s.parent] = s.start
        elif s.name == "training.sgd_step" and s.parent in forward_start:
            step_ms.append(1e3 * (s.end - forward_start.pop(s.parent)))

    snn = ("snn.forward_batch", "snn.forward")
    hidden_rate_den = sum(total(n, neuron_steps) for n in snn)
    hidden_rate_num = sum(total(n, info("hidden_spikes")) for n in snn)
    train_cmd_wall = total("cli.main", where=is_train_command)
    train_in_cmd = total("training.train", where=lambda i: is_train_command(spans[i].parent))

    m = {
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "dataset.generate_dataset.self_s": (self_s("dataset.generate_dataset"), "s"),
        "dataset.example_rng.busy_s": (total("dataset.example_rng"), "s"),
        "dataset.frames": (total("dataset.generate_dataset", lambda i: spans[i].batch or 0), "frames"),
    }
    for _, name in _GEN_LAYERS:
        m[f"{name}.busy_s"] = (total(name), "s")
        m[f"{name}.calls"] = (calls(name), "count")
    for name in ("dataset.save_dataset", "dataset.load_dataset"):
        m[f"{name}.busy_s"] = (total(name), "s")
        m[f"{name}.bytes"] = (total(name, info("bytes")), "B")
    m.update({
        "snn.forward_batch.train_step_us": (step_us("snn.forward_batch", in_train), "us"),
        "snn.forward_batch.eval_step_us": (step_us("snn.forward_batch", in_eval), "us"),
        "snn.forward.step_us": (step_us("snn.forward"), "us"),
        "snn.forward_batch.flop": (total("snn.forward_batch", flop), "flop-computed"),
        "snn.hidden_spike_rate": (hidden_rate_num / hidden_rate_den if hidden_rate_den else 0.0, "fraction"),
        "training.train.self_s": (self_s("training.train"), "s"),
        "training.train.cmd_share": (train_in_cmd / train_cmd_wall if train_cmd_wall else 0.0, "fraction"),
        "training.sgd_step.busy_s": (total("training.sgd_step"), "s"),
        "training.steps": (calls("training.sgd_step"), "count"),
        "training.step_ms_p50": (percentile(step_ms, 50), "ms"),
        "training.step_ms_p90": (percentile(step_ms, 90), "ms"),
        "metrics.evaluate.self_s": (self_s("metrics.evaluate"), "s"),
        "metrics.evaluate_ssac.self_s": (self_s("metrics.evaluate_ssac"), "s"),
        "trace.overhead_s": (statistics.median(traced_walls) - statistics.median(untraced_walls), "s"),
    })
    return m


def layer_table(spans: list[Span], metrics: dict, header: str) -> str:
    """Markdown table of every traced layer plus the derived per-layer metrics."""
    weight = _weights(spans)
    selfs = self_times(spans)
    rows: dict[str, list[float]] = {}
    for i, s in enumerate(spans):
        if s.parent < 0:
            continue
        row = rows.setdefault(s.name, [0.0, 0.0, 0.0])
        row[0] += weight[i]
        row[1] += weight[i] * (s.end - s.start)
        row[2] += weight[i] * selfs[i]
    lines = [header, "", "Figures are for one set-up plus one iteration.", "",
             "| layer | calls | busy s | self s |", "| --- | ---: | ---: | ---: |"]
    for name, (n, busy_s, self_s) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"| {name} | {n:.1f} | {busy_s:.4f} | {self_s:.4f} |")
    lines += ["", "| metric | value | unit |", "| --- | ---: | --- |"]
    lines += [f"| {name} | {value:.6g} | {unit} |" for name, (value, unit) in metrics.items()]
    return "\n".join(lines) + "\n"
