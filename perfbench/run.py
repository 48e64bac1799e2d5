"""nisaclab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload gen|train|score --seed N --seconds S --trace 0|1

Run from the repository root (or any copy of it holding ``src/nisaclab``).
With ``--trace 0`` the workload is set up several times, each in a fresh
process, and then measured for S seconds in one more process; the last
stdout line holds the end-to-end metrics.  With ``--trace 1`` one process sets
up and measures with spans recorded; the last line holds the per-layer
metrics, and the span file and a per-layer table go to ``.bench_out/``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibrate import scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("gen", "train", "score")
# Set up at least this many times, and until this much set-up time is spent.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
# Every run must end within 180 s; keep a margin for start-up and clean-up.
BUDGET_S = 170.0


class BenchError(Exception):
    pass


def _child(phase: str, args, work: Path, deadline: float) -> tuple[dict, float]:
    """Run one worker phase; returns (its JSON record, its wall time)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--phase", phase,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--work", str(work), "--scale", args.scale, "--out", str(args.out),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    # The worker's stdout goes to our stderr: only the result line is ours.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
    # A blocking wait, not wait(timeout), which polls in 50 ms steps and
    # would quantise the set-up times.
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        returncode = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:  # interrupted: leave no worker running
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - t0
    if time.monotonic() >= deadline:
        raise BenchError(f"{phase} phase ran past the time budget")
    if returncode != 0:
        raise BenchError(f"{phase} phase exited with code {returncode}")
    return json.loads((work / f"{phase}.json").read_text()), wall


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> dict:
    deadline = time.monotonic() + BUDGET_S
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_walls, setup_scaled, attempted, failed = [], [], 0, 0
        if not args.trace:
            while len(setup_walls) < SETUP_REPEATS or sum(setup_walls) < SETUP_MIN_S:
                record, wall = _child("setup", args, work, deadline)
                setup_walls.append(wall)
                # Set-up is generation and B=32 training: overhead-bound work,
                # scaled by the reference times the child took between commands.
                setup_scaled.append(scale(wall - record["ref_seconds"], "small", record["refs"]))
                attempted += record["attempted"]
                failed += record["failed"]
        record, _ = _child("trace" if args.trace else "measure", args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted += record["attempted"]
    failed += record["failed"]
    if args.trace:
        metrics = record["layers"]
    else:
        q = record["quality"]
        metrics = {
            "setup_s": _metric(statistics.median(setup_scaled), "s"),
            "frames_per_s": _metric(record["frames_per_s"], "frames/s"),
            "peak_rss_mb": _metric(record["peak_rss_mb"], "MiB"),
            "ok_frac": _metric(1.0 - failed / attempted, "fraction"),
            "decode_throughput": _metric(q["decode_throughput"], "fraction"),
            "detection_error": _metric(q["detection_error"], "fraction"),
            "spikes_per_slot": _metric(q["spikes_per_slot"], "spikes"),
        }
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "setup_walls": setup_walls,
        "setup_scaled": setup_scaled,
        **record, "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1))
    print(json.dumps({"env": record["env"]}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True, help="workload seed; all inputs derive from it")
    p.add_argument("--seconds", type=int, required=True, help="how long the measured loop runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "toy"), default="full",
                   help="toy shrinks every size, for the benchmark's own tests")
    p.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                   help="where result records, span files and layer tables go")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63 or args.seconds < 1:
        p.error("need 0 <= seed < 2**63 and seconds >= 1")
    # Turn SIGTERM into SystemExit so the clean-up in run() still happens.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "nisaclab" / "__init__.py").is_file():
        print(f"error: no nisaclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
