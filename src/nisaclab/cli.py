"""Command-line experiment driver.

Subcommands cover the full pipeline: gen writes train/test datasets, train
fits a model (or the comm/sense pair in ssac mode), eval scores a model on a
dataset, sweep runs generate/train/eval across a parameter grid, and trace
records per-slot spike counts for an active/idle/active frame pattern.

Every command is deterministic given its flags; the seed is echoed in every
CSV so outputs are self-describing.  A JSON config file (--config) supplies
defaults by flag name; explicit flags win.  Exit codes: 2 for bad flags,
out-of-range values or inconsistent inputs, 3 for I/O failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .channel import ChannelConfig, apply_channel, draw_channel, frame_received, noise_variance_from_snr
from .dataset import Dataset, generate_dataset, load_dataset, save_dataset
from .errors import FileFormatError
from .fileio import staged_path
from .metrics import evaluate, evaluate_ssac
from .modem import ppm_modulate, ssac_data_slots
from .snn import SnnModel, forward, init_model, load_model, save_model, spike_count
from .training import TrainConfig, train

TRAIN_LOG_COLUMNS = [
    "epoch", "comm_loss", "sense_loss", "total_loss",
    "train_throughput", "train_det_error", "network", "seed",
]
EVAL_COLUMNS = [
    "mode", "alpha", "examples", "L", "L_b", "snr_db", "seed",
    "throughput", "detection_error", "mean_spike_count_per_slot",
]
SWEEP_COLUMNS = [
    "mode", "beta", "alpha", "L", "L_b", "snr_db", "hidden",
    "epochs", "lr", "batch", "n_train", "n_test", "seed",
    "throughput", "detection_error", "mean_spike_count_per_slot",
]
TRACE_COLUMNS = ["slot", "segment", "spike_count", "seed"]


class UsageError(Exception):
    """Inconsistent flag values or mismatched inputs; exits with code 2."""


def _write_csv(path, columns, rows) -> None:
    with staged_path(path) as tmp, open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _require_alpha(args) -> float:
    if args.alpha is None:
        raise UsageError("ssac mode requires --alpha")
    return args.alpha


def _lb_of(model: SnnModel) -> int:
    return model.input_width // 4


# --- gen -------------------------------------------------------------------

def cmd_gen(args) -> int:
    alpha = _require_alpha(args) if args.mode == "ssac" else None
    cfg = ChannelConfig(snr_db=args.snr_db)
    specs = [(args.out_train, args.n_train, args.seed), (args.out_test, args.n_test, args.seed + 1)]
    # check both splits before generating either
    for _, n, seed in specs:
        if n < 1:
            raise UsageError(f"split sizes must be positive, got {n}")
        if not 0 <= seed < 2**64:
            raise UsageError(f"split seed {seed} does not fit an unsigned 64-bit integer")
    datasets = [
        generate_dataset(cfg, args.L, args.Lb, n, mode=args.mode, master_seed=seed, alpha=alpha)
        for _, n, seed in specs
    ]
    # both files appear together or neither does
    with staged_path(args.out_train) as train_tmp, staged_path(args.out_test) as test_tmp:
        for ds, tmp in zip(datasets, (train_tmp, test_tmp)):
            save_dataset(ds, tmp)
    for path, n, seed in specs:
        print(
            f"wrote {path}: n={n} L={args.L} L_b={args.Lb} "
            f"snr_db={args.snr_db} mode={args.mode} seed={seed}"
        )
    return 0


# --- train -----------------------------------------------------------------

def _ssac_paths(out: str) -> tuple[Path, Path]:
    p = Path(out)
    return p.with_suffix(f".comm{p.suffix}"), p.with_suffix(f".sense{p.suffix}")


def _train_on(dataset: Dataset, args, mode: str, alpha: float | None):
    """Fit the model(s) for one configuration; returns {name: (model, history)}."""
    rng = np.random.default_rng(args.seed)
    base = dict(
        learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch,
        surrogate_slope=args.slope, seed=args.seed,
    )
    if mode == "isac":
        model = init_model(args.hidden, dataset.L_b, rng)
        model, history = train(model, dataset, TrainConfig(beta=args.beta, **base))
        return {"isac": (model, history)}
    n_data = ssac_data_slots(alpha, dataset.slot_count)
    comm = init_model(args.hidden, dataset.L_b, rng)
    sense = init_model(args.hidden, dataset.L_b, rng)
    comm, hist_c = train(comm, dataset, TrainConfig(beta=1.0, **base), data_slot_count=n_data)
    sense, hist_s = train(sense, dataset, TrainConfig(beta=0.0, **base), sense_slot_start=n_data)
    return {"comm": (comm, hist_c), "sense": (sense, hist_s)}


def _history_rows(name: str, history, seed: int):
    for ep in history:
        yield [
            ep.epoch, ep.comm_loss, ep.sense_loss, ep.total_loss,
            ep.throughput, ep.detection_error, name, seed,
        ]


def cmd_train(args) -> int:
    alpha = _require_alpha(args) if args.mode == "ssac" else None
    dataset = load_dataset(args.data)
    results = _train_on(dataset, args, args.mode, alpha)
    rows = []
    if args.mode == "isac":
        model, history = results["isac"]
        save_model(model, args.out)
        print(f"wrote {args.out}")
        rows.extend(_history_rows("isac", history, args.seed))
    else:
        comm_path, sense_path = _ssac_paths(args.out)
        for name, path in (("comm", comm_path), ("sense", sense_path)):
            model, history = results[name]
            save_model(model, path)
            print(f"wrote {path}")
            rows.extend(_history_rows(name, history, args.seed))
    if args.log:
        _write_csv(args.log, TRAIN_LOG_COLUMNS, rows)
        print(f"wrote {args.log}")
    return 0


# --- eval ------------------------------------------------------------------

def _check_width(model: SnnModel, dataset: Dataset, what: str) -> None:
    if model.input_width != 4 * dataset.L_b:
        raise UsageError(
            f"{what} expects input width {model.input_width} "
            f"(L_b={_lb_of(model)}), dataset has L_b={dataset.L_b}"
        )


def cmd_eval(args) -> int:
    dataset = load_dataset(args.data)
    if args.mode == "ssac":
        alpha = _require_alpha(args)
        if args.model_sense is None:
            raise UsageError("ssac mode requires --model-sense")
        comm = load_model(args.model)
        sense = load_model(args.model_sense)
        _check_width(comm, dataset, "decode model")
        _check_width(sense, dataset, "detection model")
        result = evaluate_ssac(comm, sense, dataset, alpha)
    else:
        model = load_model(args.model)
        _check_width(model, dataset, "model")
        result = evaluate(model, dataset)
    row = [
        args.mode, "" if args.mode == "isac" else args.alpha,
        dataset.example_count, dataset.slot_count, dataset.L_b,
        dataset.snr_db, dataset.master_seed,
        result.throughput, result.detection_error, result.mean_spike_count_per_slot,
    ]
    _write_csv(args.out, EVAL_COLUMNS, [row])
    print(
        f"throughput={result.throughput:.4f} detection_error={result.detection_error:.4f} "
        f"mean_spike_count_per_slot={result.mean_spike_count_per_slot:.4f}"
    )
    return 0


# --- sweep -----------------------------------------------------------------

def _parse_grid(raw: str, param: str) -> list[float]:
    values = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not values:
        raise UsageError("--values must name at least one grid point")
    try:
        if param == "lb":
            return [int(tok) for tok in values]
        return [float(tok) for tok in values]
    except ValueError as exc:
        raise UsageError(f"bad grid value: {exc}") from None


def _sweep_datasets(cache, cfg, L, L_b, n_train, n_test, mode, alpha, seed):
    key = (mode, L_b, None if mode == "isac" else alpha)
    if key not in cache:
        cache[key] = (
            generate_dataset(cfg, L, L_b, n_train, mode=mode, master_seed=seed, alpha=alpha),
            generate_dataset(cfg, L, L_b, n_test, mode=mode, master_seed=seed + 1, alpha=alpha),
        )
    return cache[key]


def cmd_sweep(args) -> int:
    grid = _parse_grid(args.values, args.param)
    cfg = ChannelConfig(snr_db=args.snr_db)
    cache: dict = {}
    rows = []

    def run_point(mode, beta, alpha, L_b):
        train_ds, test_ds = _sweep_datasets(
            cache, cfg, args.L, L_b, args.n_train, args.n_test, mode, alpha, args.seed
        )
        point = argparse.Namespace(**{**vars(args), "beta": beta, "alpha": alpha})
        results = _train_on(train_ds, point, mode, alpha)
        if mode == "isac":
            result = evaluate(results["isac"][0], test_ds)
        else:
            result = evaluate_ssac(results["comm"][0], results["sense"][0], test_ds, alpha)
        rows.append([
            mode, "" if mode == "ssac" else beta, "" if mode == "isac" else alpha,
            args.L, L_b, args.snr_db, args.hidden, args.epochs, args.lr, args.batch,
            args.n_train, args.n_test, args.seed,
            result.throughput, result.detection_error, result.mean_spike_count_per_slot,
        ])

    if args.param == "beta":
        for beta in grid:
            run_point("isac", beta, None, args.Lb)
    elif args.param == "alpha":
        for alpha in grid:
            run_point("ssac", None, alpha, args.Lb)
    else:
        alpha = _require_alpha(args)
        for L_b in grid:
            run_point("isac", args.beta, None, L_b)
            run_point("ssac", None, alpha, L_b)

    _write_csv(args.out, SWEEP_COLUMNS, rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


# --- trace -----------------------------------------------------------------

def cmd_trace(args) -> int:
    if args.frame_slots < 0 or args.idle_slots < 0:
        raise UsageError("--frame-slots and --idle-slots must be non-negative")
    if args.frame_slots == args.idle_slots == 0:
        raise UsageError("--frame-slots and --idle-slots are both 0: the trace has no slot")
    model = load_model(args.model)
    L_b = _lb_of(model)
    if model.input_width != 4 * L_b:
        raise UsageError(f"model input width {model.input_width} is not a multiple of 4")
    L = args.frame_slots
    cfg = ChannelConfig(snr_db=args.snr_db)
    noise_var = noise_variance_from_snr(cfg)
    rng = np.random.default_rng(args.seed)

    segments = []
    chips = []
    for label, slots, active in (
        ("active1", L, True), ("idle", args.idle_slots, False), ("active2", L, True),
    ):
        if slots == 0:
            continue
        segments.extend([label] * slots)
        if active:
            bits = rng.integers(0, 2, size=slots).astype(np.uint8)
            chips.append(ppm_modulate(bits, L_b))
        else:
            chips.append(np.zeros(2 * L_b * slots))

    taps = draw_channel(cfg, args.target, rng)
    samples = apply_channel(np.concatenate(chips), taps, noise_var, rng)
    trace = forward(model, frame_received(samples, L_b, noise_var).slot_inputs)
    counts = spike_count(trace)
    rows = [[slot, seg, int(c), args.seed] for slot, (seg, c) in enumerate(zip(segments, counts))]
    _write_csv(args.out, TRACE_COLUMNS, rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


# --- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nisaclab",
        description="Joint decode/detect receiver experiments: data generation, "
        "training, evaluation, parameter sweeps, spike traces.",
    )
    parser.add_argument("--config", help="JSON file of flag defaults (flags override)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")

    def add_train_flags(p):
        p.add_argument("--hidden", type=int, default=10, help="hidden neurons (default 10)")
        p.add_argument("--beta", type=float, default=0.5, help="decode loss weight (default 0.5)")
        p.add_argument("--epochs", type=int, default=50)
        p.add_argument("--lr", type=float, default=0.005)
        p.add_argument("--batch", type=int, default=32)
        p.add_argument("--slope", type=float, default=1.0, help="surrogate sigmoid slope")

    p = sub.add_parser("gen", help="generate train/test dataset files")
    p.add_argument("--n-train", type=int, required=True)
    p.add_argument("--n-test", type=int, required=True)
    p.add_argument("--L", type=int, default=80, help="slots per frame (default 80)")
    p.add_argument("--Lb", type=int, default=1, help="bandwidth expansion factor (default 1)")
    p.add_argument("--snr-db", type=float, default=10.0)
    p.add_argument("--mode", choices=("isac", "ssac"), default="isac")
    p.add_argument("--alpha", type=float, help="ssac data-slot fraction")
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train on a dataset file")
    p.add_argument("--data", required=True, help="training dataset (NISD)")
    p.add_argument("--mode", choices=("isac", "ssac"), default="isac")
    p.add_argument("--alpha", type=float, help="ssac data-slot fraction")
    p.add_argument("--out", required=True, help="model output path (NISM); "
                   "ssac writes <out>.comm/<out>.sense variants")
    p.add_argument("--log", help="training-log CSV path")
    add_train_flags(p)
    add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a dataset file")
    p.add_argument("--data", required=True, help="test dataset (NISD)")
    p.add_argument("--model", required=True, help="model (NISM); comm model in ssac mode")
    p.add_argument("--model-sense", help="detection model (NISM, ssac mode)")
    p.add_argument("--mode", choices=("isac", "ssac"), default="isac")
    p.add_argument("--alpha", type=float, help="ssac data-slot fraction")
    p.add_argument("--out", required=True, help="metrics CSV path")
    add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="generate/train/eval across a parameter grid")
    p.add_argument("--param", choices=("beta", "alpha", "lb"), required=True)
    p.add_argument("--values", required=True, help="comma-separated grid points")
    p.add_argument("--n-train", type=int, required=True)
    p.add_argument("--n-test", type=int, required=True)
    p.add_argument("--L", type=int, default=80)
    p.add_argument("--Lb", type=int, default=1, help="fixed L_b for beta/alpha sweeps")
    p.add_argument("--snr-db", type=float, default=10.0)
    p.add_argument("--alpha", type=float, help="fixed alpha for the lb sweep's ssac rows")
    p.add_argument("--out", required=True, help="results CSV path")
    add_train_flags(p)
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("trace", help="per-slot spike counts for active/idle/active frames")
    p.add_argument("--model", required=True, help="model (NISM)")
    p.add_argument("--frame-slots", type=int, default=80, help="slots per active frame")
    p.add_argument("--idle-slots", type=int, default=20, help="idle slots between frames")
    p.add_argument("--snr-db", type=float, default=10.0)
    p.add_argument("--target", type=int, choices=(0, 1), default=1)
    p.add_argument("--out", required=True, help="trace CSV path")
    add_common(p)
    p.set_defaults(func=cmd_trace)

    return parser


def _known_keys(parser: argparse.ArgumentParser) -> set[str]:
    keys = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sp in action.choices.values():
                keys.update(a.dest for a in sp._actions if a.dest != "help")
        elif action.dest != "help":
            keys.add(action.dest)
    keys.discard("func")
    return keys


def _config_value(parser: argparse.ArgumentParser, action: argparse.Action, value):
    """Parse a config value as its flag parses command-line text; exit 2 if it fails."""
    try:
        if action.type is None and not isinstance(value, str):
            raise ValueError
        parsed = action.type(str(value)) if action.type else value
        if action.choices is not None and parsed not in action.choices:
            raise ValueError
    except ValueError:
        parser.error(f"config value {json.dumps(value)} is not valid for {action.option_strings[0]}")
    return parsed


def _apply_config_defaults(parser: argparse.ArgumentParser, overrides: dict) -> None:
    # subcommands parse into a fresh namespace, so defaults must be set on
    # each subparser, not just the top-level parser; null keeps the built-in
    parser.set_defaults(**overrides)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sp in action.choices.values():
                for sub_action in sp._actions:
                    value = overrides.get(sub_action.dest)
                    if value is not None:
                        sp.set_defaults(**{sub_action.dest: _config_value(parser, sub_action, value)})
                        sub_action.required = False


def main(argv=None) -> int:
    parser = build_parser()
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config:
        try:
            with open(known.config, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 3
        except json.JSONDecodeError as exc:
            parser.error(f"config file is not valid JSON: {exc}")
        if not isinstance(overrides, dict):
            parser.error("config file must hold a JSON object")
        unknown = set(overrides) - _known_keys(parser)
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
        _apply_config_defaults(parser, overrides)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, FileFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
