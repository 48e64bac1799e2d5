"""Child process of the benchmark: one phase of one workload.

    python3 perfbench/worker.py --phase setup|measure|trace --workload NAME
        --seed N --seconds S --work DIR [--scale full|toy] [--out DIR]

``setup`` builds the workload's input files in DIR and exits.  ``measure``
repeats the workload's iteration for S seconds with tracing off, then checks
the outputs.  ``trace`` sets up in-process with tracing on, runs untraced
iterations for S/2 seconds and as many traced ones, and writes the spans and
a per-layer table to --out.  Each phase writes <phase>.json to DIR: its
operation counts and, for measure and trace, its figures and environment.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from calibrate import reference_time, scale
from tracing import Tracer, layer_metrics, layer_table
from workloads import WORKLOADS, Ops, file_digest

ROOT = Path(__file__).resolve().parent.parent
MIN_ITERATIONS = 3


def _blas() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                get = getattr(ctypes.CDLL(lib), fn)
            except (OSError, AttributeError):
                continue
            get.restype = ctypes.c_int
            threads = get()
            break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    """sha256 over the package sources, so a checkout without git is identified too."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload_seed": seed,
    }


class SetupOps(Ops):
    """Ops that also times the small reference before set-up and after each
    command, so a set-up of several seconds is scaled by the speed during it."""

    def __init__(self):
        super().__init__()
        self.refs: list[float] = []
        self.ref_seconds = 0.0
        self.reference()

    def reference(self) -> None:
        t0 = time.perf_counter()
        self.refs.append(reference_time("small"))
        self.ref_seconds += time.perf_counter() - t0

    def cli(self, *argv) -> float:
        wall = super().cli(*argv)
        self.reference()
        return wall


def run_iterations(workload, seconds: float | None = None, count: int | None = None, root=None):
    """Repeat the workload's iteration for `seconds` (at least MIN_ITERATIONS
    times) or exactly `count` times.  Returns the records, the reference time
    around each iteration and the output digests."""
    records, refs, digests = [], [], []
    t_end = time.perf_counter() + (seconds or 0.0)
    while (len(records) < count) if count is not None else \
            (len(records) < MIN_ITERATIONS or time.perf_counter() < t_end):
        before = reference_time(workload.reference)
        records.append(root(workload.iteration) if root else workload.iteration())
        refs.append((before, reference_time(workload.reference)))
        digests.append(file_digest(*workload.outputs()))
    return records, refs, digests


def _check_repeatable(ops: Ops, digests: list[str]) -> None:
    ops.check("repeatable", lambda: None if len(set(digests)) == 1 else
              f"{len(set(digests))} distinct outputs over {len(digests)} iterations")


def measure(workload, ops: Ops, seconds: float) -> dict:
    workload.iteration()  # warm-up: first-call costs and file cache
    records, refs, digests = run_iterations(workload, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _check_repeatable(ops, digests)
    workload.checks()
    raw_rates = [r.frames / r.rate_wall for r in records]
    rates = [r.frames / scale(r.rate_wall, workload.reference, ref) for r, ref in zip(records, refs)]
    return {
        "iterations": len(records),
        "rates": rates,
        "raw_rates": raw_rates,
        "reference": workload.reference,
        "reference_times": refs,
        "walls": [r.wall for r in records],
        "frames_per_s": statistics.median(rates),
        "raw_frames_per_s": statistics.median(raw_rates),
        "peak_rss_mb": peak_rss_mb,
        "quality": workload.quality(),
    }


def trace(workload, ops: Ops, seconds: float, out: Path, name: str, seed: int) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        tracer.root("setup", workload.setup)
    finally:
        tracer.uninstall()
    workload.iteration()  # warm-up, untraced
    untraced, _, digests = run_iterations(workload, seconds=seconds / 2)
    tracer.install()
    try:
        traced, _, more = run_iterations(
            workload, count=len(untraced), root=lambda fn: tracer.root("iteration", fn))
    finally:
        tracer.uninstall()
    _check_repeatable(ops, digests + more)
    workload.checks()
    metrics = layer_metrics(tracer.spans, [r.wall for r in untraced], [r.wall for r in traced])
    out.mkdir(parents=True, exist_ok=True)
    stem = out / f"{name}-seed{seed}"
    tracer.write(stem.with_suffix(".spans.jsonl"))
    header = (f"# Per-layer figures: workload `{name}`, seed {seed}, "
              f"{len(traced)} traced iterations")
    if tracer.missing:
        header += f"\n\nNot found, so not traced: {', '.join(tracer.missing)}"
    stem.with_suffix(".layers.md").write_text(layer_table(tracer.spans, metrics, header))
    return {
        "iterations": len(traced),
        "untraced_walls": [r.wall for r in untraced],
        "traced_walls": [r.wall for r in traced],
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans_file": str(stem.with_suffix(".spans.jsonl")),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--phase", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--scale", choices=("full", "toy"), default="full")
    p.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    args = p.parse_args(argv)

    ops = SetupOps() if args.phase == "setup" else Ops()
    workload = WORKLOADS[args.workload](args.work, args.seed, args.scale, ops)
    if args.phase == "setup":
        workload.setup()
        if len(ops.refs) == 1:
            ops.reference()
        result = {"refs": ops.refs, "ref_seconds": ops.ref_seconds}
    elif args.phase == "measure":
        result = measure(workload, ops, args.seconds)
    else:
        result = trace(workload, ops, args.seconds, args.out, args.workload, args.seed)
    result.update(attempted=ops.attempted, failed=ops.failed, failures=ops.log)
    if args.phase != "setup":
        result["env"] = environment(args.seed)
    (args.work / f"{args.phase}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
