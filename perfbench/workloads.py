"""The benchmark's workloads: what each sets up, runs, and checks.

Every command goes through ``nisaclab.cli.main`` in-process, looked up on the
module at call time so a tracer can wrap it.  The data every command reads
comes from the workload seed.  Model initialisation, the training shuffle
and the data the frozen score models learn from use MODEL_SEED instead: in a
trial with two-epoch models, spikes per slot spread by ~19% between seeds
with per-seed models and by 7-12% with a fixed model seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import nisaclab.cli
from nisaclab.channel import ChannelConfig, apply_channel, draw_channel, frame_received, noise_variance_from_snr
from nisaclab.dataset import example_rng, load_dataset, save_dataset
from nisaclab.metrics import evaluate
from nisaclab.modem import ppm_modulate
from nisaclab.snn import forward, forward_batch, init_model, load_model, save_model

L = 80
SNR_DB = 10.0
HIDDEN = 10
ALPHA = 0.5
DEFAULT_SEED = 0
MODEL_SEED = 0

# Eval results of the score workload at full size for DEFAULT_SEED, as
# (throughput, detection_error, mean_spike_count_per_slot).  They are ratios of
# counts, so they only move when a decision or a spike changes.
PINNED_SCORE = {
    "isac": (0.5096125, 0.486, 3.224421875),
    "ssac": (0.25481875000000004, 0.49075, 6.598109375),
}


class Ops:
    """Counts operations (CLI commands and output checks) and their failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.log: list[dict] = []

    def _record(self, op: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.log.append({"op": op, "detail": detail})

    def cli(self, *argv) -> float:
        """Run one command; returns its wall time.  A non-zero exit is a failure."""
        argv = [str(a) for a in argv]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = nisaclab.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
        except Exception:  # a leaked library error is a failed command, not a crashed run
            traceback.print_exc()
            code = "exception"
        wall = time.perf_counter() - t0
        self._record(f"cli {argv[0]}", code == 0, f"exit {code}")
        return wall

    def check(self, name: str, fn) -> None:
        """Run one output check; fn returns an error message or None."""
        try:
            error = fn()
        except Exception as exc:  # a check that cannot run has failed
            error = f"{type(exc).__name__}: {exc}"
        self._record(f"check {name}", error is None, error)


@dataclass
class IterationRecord:
    frames: float       # work units the rate counts
    rate_wall: float    # wall time the rate divides by
    wall: float         # wall time of every command in the iteration


def read_eval(path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        row = next(csv.DictReader(fh))
    return {
        "decode_throughput": float(row["throughput"]),
        "detection_error": float(row["detection_error"]),
        "spikes_per_slot": float(row["mean_spike_count_per_slot"]),
    }


def quality_error(q: dict) -> str | None:
    for key in ("decode_throughput", "detection_error"):
        if not 0.0 <= q[key] <= 1.0:
            return f"{key}={q[key]} outside [0, 1]"
    if not (math.isfinite(q["spikes_per_slot"]) and q["spikes_per_slot"] >= 0):
        return f"spikes_per_slot={q['spikes_per_slot']} is not a finite count"
    return None


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def sample_indices(seed: int, n: int, k: int) -> np.ndarray:
    return np.sort(np.random.default_rng([seed, n]).choice(n, size=min(k, n), replace=False))


class Workload:
    """One closed loop: set up once, then repeat iteration() while timed."""

    full: dict = {}
    toy: dict = {}
    reference = "small"  # calibrate.py's reference that tracks this work best

    def __init__(self, work: Path, seed: int, scale: str, ops: Ops):
        self.work = Path(work)
        self.seed = seed
        self.size = self.full if scale == "full" else self.toy
        self.scale = scale
        self.ops = ops

    def path(self, name: str) -> Path:
        return self.work / name

    def gen(self, train: str, test: str, n_train: int, n_test: int, L_b: int, *extra,
            seed: int | None = None) -> float:
        return self.ops.cli(
            "gen", "--n-train", n_train, "--n-test", n_test, "--L", L, "--Lb", L_b,
            "--snr-db", SNR_DB, "--out-train", self.path(train), "--out-test", self.path(test),
            "--seed", self.seed if seed is None else seed, *extra,
        )

    def train_cmd(self, data: str, out: str, epochs: int, *extra) -> float:
        return self.ops.cli(
            "train", "--data", self.path(data), "--out", self.path(out), "--hidden", HIDDEN,
            "--beta", 0.5, "--lr", 0.005, "--batch", 32, "--epochs", epochs,
            "--seed", MODEL_SEED, *extra,
        )

    def setup(self) -> None:
        """Build the files the iterations read."""

    def iteration(self) -> IterationRecord:
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        """Files one iteration writes; every iteration must write identical bytes."""
        raise NotImplementedError

    def quality(self) -> dict:
        raise NotImplementedError

    def checks(self) -> None:
        raise NotImplementedError


class Gen(Workload):
    """`nisaclab gen` at the acceptance scale; set-up builds nothing."""

    full = {"n_train": 4000, "n_test": 1000, "L_b": 4, "sample": 16}
    toy = {"n_train": 24, "n_test": 8, "L_b": 4, "sample": 4}
    reference = "draws"

    def iteration(self) -> IterationRecord:
        s = self.size
        wall = self.gen("gen_train.nisd", "gen_test.nisd", s["n_train"], s["n_test"], s["L_b"])
        return IterationRecord(s["n_train"] + s["n_test"], wall, wall)

    def outputs(self) -> list[Path]:
        return [self.path("gen_train.nisd"), self.path("gen_test.nisd")]

    def quality(self) -> dict:
        # A fixed, untrained probe receiver scores the generated test set, so a
        # change in the generated data shows up in the quality metrics.
        probe = init_model(HIDDEN, self.size["L_b"], np.random.default_rng(MODEL_SEED))
        r = evaluate(probe, load_dataset(self.path("gen_test.nisd")))
        return {
            "decode_throughput": r.throughput,
            "detection_error": r.detection_error,
            "spikes_per_slot": r.mean_spike_count_per_slot,
        }

    def checks(self) -> None:
        s = self.size
        splits = [("gen_train.nisd", s["n_train"], self.seed), ("gen_test.nisd", s["n_test"], self.seed + 1)]
        for name, n, seed in splits:
            self.ops.check(f"gen.reload_bit_exact[{name}]", lambda: self._reload_error(name, n, seed))
            self.ops.check(f"gen.regenerate[{name}]", lambda: self._regenerate_error(name, n, seed))

    def _reload_error(self, name: str, n: int, seed: int) -> str | None:
        ds = load_dataset(self.path(name))
        got = (ds.example_count, ds.slot_count, ds.L_b, ds.snr_db, ds.master_seed)
        want = (n, L, self.size["L_b"], SNR_DB, seed)
        if got != want:
            return f"header {got} != {want}"
        copy = self.path(name + ".copy")
        save_dataset(ds, copy)
        if copy.read_bytes() != self.path(name).read_bytes():
            return "save(load(file)) differs from file"
        return None

    def _regenerate_error(self, name: str, n: int, seed: int) -> str | None:
        """Redo sampled examples alone, in the draw order generate_dataset documents."""
        ds = load_dataset(self.path(name))
        cfg = ChannelConfig(snr_db=SNR_DB)
        noise_var = noise_variance_from_snr(cfg)
        L_b = self.size["L_b"]
        for i in sample_indices(seed, n, self.size["sample"]):
            rng = example_rng(seed, int(i))
            v = int(rng.integers(0, 2))
            bits = rng.integers(0, 2, size=L).astype(np.uint8)
            samples = apply_channel(ppm_modulate(bits, L_b), draw_channel(cfg, v, rng), noise_var, rng)
            inputs = frame_received(samples, L_b, noise_var).slot_inputs.astype(np.float32)
            if v != ds.targets[i] or not np.array_equal(bits, ds.bits[i]) \
                    or not np.array_equal(inputs.astype(np.float64), ds.inputs[i]):
                return f"example {i} differs from its regeneration"
        return None


class Train(Workload):
    """`nisaclab train` then `nisaclab eval` on data generated in set-up."""

    full = {"n_train": 4000, "n_test": 1000, "L_b": 4, "epochs": 1}
    toy = {"n_train": 64, "n_test": 16, "L_b": 4, "epochs": 1}

    def setup(self) -> None:
        s = self.size
        self.gen("train.nisd", "test.nisd", s["n_train"], s["n_test"], s["L_b"])

    def iteration(self) -> IterationRecord:
        s = self.size
        train_wall = self.train_cmd("train.nisd", "model.nism", s["epochs"], "--log", self.path("train_log.csv"))
        eval_wall = self.ops.cli(
            "eval", "--data", self.path("test.nisd"), "--model", self.path("model.nism"),
            "--out", self.path("eval.csv"),
        )
        return IterationRecord(s["n_train"] * s["epochs"], train_wall, train_wall + eval_wall)

    def outputs(self) -> list[Path]:
        return [self.path(n) for n in ("model.nism", "train_log.csv", "eval.csv")]

    def quality(self) -> dict:
        return read_eval(self.path("eval.csv"))

    def checks(self) -> None:
        self.ops.check("train.losses_finite", self._loss_error)
        self.ops.check("train.model_reloads", self._model_error)
        self.ops.check("train.metrics_in_range", lambda: quality_error(self.quality()))

    def _loss_error(self) -> str | None:
        with open(self.path("train_log.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.size["epochs"]:
            return f"{len(rows)} log rows for {self.size['epochs']} epochs"
        for row in rows:
            for key in ("comm_loss", "sense_loss", "total_loss"):
                if not math.isfinite(float(row[key])):
                    return f"epoch {row['epoch']}: {key}={row[key]}"
        return None

    def _model_error(self) -> str | None:
        model = load_model(self.path("model.nism"))
        if model.hidden_count != HIDDEN or model.input_width != 4 * self.size["L_b"]:
            return f"model shape H={model.hidden_count} D={model.input_width}"
        copy = self.path("model.copy.nism")
        save_model(model, copy)
        if copy.read_bytes() != self.path("model.nism").read_bytes():
            return "save(load(model)) differs from file"
        return None


class Score(Workload):
    """`nisaclab eval` (isac and ssac) on large sets plus one long `nisaclab trace`."""

    reference = "large"

    full = {"n_train": 500, "n_test": 4000, "L_b": 1, "epochs": 2,
            "frame_slots": 1000, "idle_slots": 2000, "sample": 16}
    toy = {"n_train": 64, "n_test": 24, "L_b": 1, "epochs": 1,
           "frame_slots": 20, "idle_slots": 40, "sample": 4}

    def setup(self) -> None:
        # The models learn from MODEL_SEED data; the frames they score come
        # from the workload seed (the test split, seeded seed + 1).
        s = self.size
        for mode in ("isac", "ssac"):
            extra = ("--mode", mode, "--alpha", ALPHA) if mode == "ssac" else ()
            self.gen(f"{mode}_train.nisd", "unused.nisd", s["n_train"], 1, s["L_b"], *extra, seed=MODEL_SEED)
            self.gen("unused.nisd", f"{mode}_test.nisd", 1, s["n_test"], s["L_b"], *extra)
        self.train_cmd("isac_train.nisd", "isac.nism", s["epochs"])
        self.train_cmd("ssac_train.nisd", "pair.nism", s["epochs"], "--mode", "ssac", "--alpha", ALPHA)

    def iteration(self) -> IterationRecord:
        s = self.size
        wall = self.ops.cli(
            "eval", "--data", self.path("isac_test.nisd"), "--model", self.path("isac.nism"),
            "--out", self.path("eval_isac.csv"),
        )
        wall += self.ops.cli(
            "eval", "--mode", "ssac", "--alpha", ALPHA, "--data", self.path("ssac_test.nisd"),
            "--model", self.path("pair.comm.nism"), "--model-sense", self.path("pair.sense.nism"),
            "--out", self.path("eval_ssac.csv"),
        )
        wall += self.ops.cli(
            "trace", "--model", self.path("isac.nism"), "--frame-slots", s["frame_slots"],
            "--idle-slots", s["idle_slots"], "--snr-db", SNR_DB, "--out", self.path("trace.csv"),
            "--seed", self.seed,
        )
        frames = 2 * s["n_test"] + self.trace_slots() / L
        return IterationRecord(frames, wall, wall)

    def trace_slots(self) -> int:
        return 2 * self.size["frame_slots"] + self.size["idle_slots"]

    def outputs(self) -> list[Path]:
        return [self.path(n) for n in ("eval_isac.csv", "eval_ssac.csv", "trace.csv")]

    def quality(self) -> dict:
        return read_eval(self.path("eval_isac.csv"))

    def checks(self) -> None:
        for name in ("eval_isac.csv", "eval_ssac.csv"):
            self.ops.check(f"score.metrics_in_range[{name}]", lambda: quality_error(read_eval(self.path(name))))
        self.ops.check("score.batched_equals_per_frame", self._batched_error)
        self.ops.check("score.trace_counts", self._trace_error)
        if self.scale == "full" and self.seed == DEFAULT_SEED:
            self.ops.check("score.pinned", self._pinned_error)

    def _batched_error(self) -> str | None:
        pairs = [
            ("isac.nism", "isac_test.nisd"),
            ("pair.comm.nism", "ssac_test.nisd"),
            ("pair.sense.nism", "ssac_test.nisd"),
        ]
        for model_name, data_name in pairs:
            model = load_model(self.path(model_name))
            ds = load_dataset(self.path(data_name))
            _, hidden, _, readout = forward_batch(model, ds.inputs)
            for i in sample_indices(self.seed, ds.example_count, self.size["sample"]):
                trace = forward(model, ds.inputs[i])
                if not (np.array_equal(trace.hidden_spikes, hidden[i])
                        and np.array_equal(trace.readout_spikes, readout[i])):
                    return f"{model_name}: frame {i} spikes differ between forward_batch and forward"
        return None

    def _trace_error(self) -> str | None:
        with open(self.path("trace.csv"), newline="", encoding="utf-8") as fh:
            counts = [int(row["spike_count"]) for row in csv.DictReader(fh)]
        if len(counts) != self.trace_slots():
            return f"{len(counts)} trace rows for {self.trace_slots()} slots"
        if min(counts) < 0 or max(counts) > HIDDEN + 2:
            return f"spike counts outside [0, {HIDDEN + 2}]"
        return None

    def _pinned_error(self) -> str | None:
        for mode in ("isac", "ssac"):
            q = read_eval(self.path(f"eval_{mode}.csv"))
            got = (q["decode_throughput"], q["detection_error"], q["spikes_per_slot"])
            if got != PINNED_SCORE[mode]:
                return f"{mode}: {got} != pinned {PINNED_SCORE[mode]}"
        return None


WORKLOADS = {"gen": Gen, "train": Train, "score": Score}
