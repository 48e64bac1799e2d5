"""Command-line experiment driver.

Subcommands cover the full pipeline: gen writes train/test datasets, train
fits a model (or the comm/sense pair in ssac mode), eval scores a model on a
dataset, sweep runs generate/train/eval across a parameter grid, and trace
records per-slot spike counts for an active/idle/active frame pattern.

Every command is deterministic given its flags; the seed is echoed in every
CSV so outputs are self-describing.  A JSON config file (--config) supplies
defaults by flag name; explicit flags win.  Exit codes: 2 for bad flags,
out-of-range values, inconsistent inputs or a diverging training loss, 3 for
I/O failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .channel import ChannelConfig, apply_channel, draw_channel, frame_received, noise_variance_from_snr
# save_dataset is unused here, but perfbench's tracer wraps it under this module's name
from .dataset import Dataset, generate_dataset, load_dataset, save_dataset, stream_dataset
from .errors import FileFormatError
from .fileio import staged_path
from .metrics import evaluate, evaluate_ssac
from .modem import ppm_modulate, slot_split
from .snn import SnnModel, forward, init_model, load_model, save_model
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


def _write_csv(path, columns, rows) -> None:
    with staged_path(path) as tmp, open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _distinct_outputs(args, outputs, inputs=()) -> None:
    """Exit 2 if one of the (flag, path) outputs names the same file as
    another output or as an input: one of the (flag, path) inputs or the
    --config file.  Inputs may repeat.  An existing file that is not a
    regular file, such as /dev/null, is written in place and may repeat."""
    inputs = [*inputs, ("--config", args.config)]
    seen = {}
    for i, (flag, path) in enumerate([*inputs, *outputs]):
        if path is None or (Path(path).exists() and not Path(path).is_file()):
            continue
        real = Path(path).resolve()
        if real in seen and i >= len(inputs):
            raise ValueError(f"{seen[real]} and {flag} name the same file {path}")
        seen.setdefault(real, flag)


def _alpha(args, mode: str) -> float | None:
    """The receiver below the parser: None is ISAC, else SSAC's data-slot fraction."""
    if mode == "isac":
        return None
    if args.alpha is None:
        raise ValueError("ssac mode requires --alpha")
    return args.alpha


def _lb_of(model: SnnModel, what: str, L_b: int | None = None) -> int:
    """The model's L_b; exit 2 unless its input width is 4*L_b (the dataset's, if given)."""
    width = model.input_width
    if width % 4:
        raise ValueError(f"{what} input width {width} is not a multiple of 4")
    if L_b is not None and width != 4 * L_b:
        raise ValueError(f"{what} expects input width {width} (L_b={width // 4}), dataset has L_b={L_b}")
    return width // 4


def _split_specs(args) -> list[tuple[int, int]]:
    """(n, seed) of the train and test splits; both are checked before either is drawn or written."""
    specs = [(args.n_train, args.seed), (args.n_test, args.seed + 1)]
    for n, seed in specs:
        if n < 1:
            raise ValueError(f"split sizes must be positive, got {n}")
        if not 0 <= seed < 2**64:
            raise ValueError(f"split seed {seed} does not fit an unsigned 64-bit integer")
    return specs


def _networks(alpha: float | None, beta: float | None) -> dict:
    """{name: beta} of the networks the receiver trains."""
    if alpha is None:
        return {"isac": beta}
    return {"comm": 1.0, "sense": 0.0}


def _train_config(args, beta: float) -> TrainConfig:
    """One network's training settings; checks every training flag, --hidden included."""
    if args.hidden < 1:
        raise ValueError("need at least one hidden neuron")
    return TrainConfig(
        beta=beta, learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch, seed=args.seed,
    )


def _train_on(dataset: Dataset, args, alpha: float | None, beta: float | None) -> dict:
    """Fit each network of the receiver; returns {name: (model, history)}."""
    cfgs = {name: _train_config(args, net_beta) for name, net_beta in _networks(alpha, beta).items()}
    rng = np.random.default_rng(args.seed)  # read only by init_model
    return {name: train(init_model(args.hidden, dataset.L_b, rng), dataset, cfg, alpha)
            for name, cfg in cfgs.items()}


def _score(models: dict, dataset: Dataset, alpha: float | None):
    """Score the receiver's networks, keyed as _networks names them."""
    if alpha is None:
        return evaluate(models["isac"], dataset)
    return evaluate_ssac(models["comm"], models["sense"], dataset, alpha)


# --- gen -------------------------------------------------------------------

def cmd_gen(args) -> int:
    alpha = _alpha(args, args.mode)
    _distinct_outputs(args, [("--out-train", args.out_train), ("--out-test", args.out_test)])
    cfg, specs = ChannelConfig(snr_db=args.snr_db), _split_specs(args)
    # both files appear together or neither does
    with staged_path(args.out_train) as train_tmp, staged_path(args.out_test) as test_tmp:
        for (n, seed), tmp in zip(specs, (train_tmp, test_tmp)):
            stream_dataset(tmp, cfg, args.L, args.Lb, n, seed, alpha)
    for path, (n, seed) in zip((args.out_train, args.out_test), specs):
        print(
            f"wrote {path}: n={n} L={args.L} L_b={args.Lb} "
            f"snr_db={args.snr_db} mode={args.mode} seed={seed}"
        )
    return 0


# --- train -----------------------------------------------------------------

def cmd_train(args) -> int:
    alpha = _alpha(args, args.mode)
    out = Path(args.out)
    # ssac writes <out>.comm and <out>.sense beside <out>
    paths = {name: args.out if alpha is None else out.with_suffix(f".{name}{out.suffix}")
             for name in _networks(alpha, None)}
    _distinct_outputs(args, [*(("--out", path) for path in paths.values()), ("--log", args.log)],
                      [("--data", args.data)])
    dataset = load_dataset(args.data)
    rows = []
    for name, (model, history) in _train_on(dataset, args, alpha, args.beta).items():
        save_model(model, paths[name])
        print(f"wrote {paths[name]}")
        rows += [
            [ep.epoch, ep.comm_loss, ep.sense_loss, ep.total_loss,
             ep.throughput, ep.detection_error, name, args.seed]
            for ep in history
        ]
    if args.log:
        _write_csv(args.log, TRAIN_LOG_COLUMNS, rows)
        print(f"wrote {args.log}")
    return 0


# --- eval ------------------------------------------------------------------

def cmd_eval(args) -> int:
    alpha = _alpha(args, args.mode)
    flags = {"isac": ("--model", args.model, "model"), "comm": ("--model", args.model, "decode model"),
             "sense": ("--model-sense", args.model_sense, "detection model")}
    named = {name: flags[name] for name in _networks(alpha, None)}
    if any(path is None for _, path, _ in named.values()):
        raise ValueError("ssac mode requires --model-sense")
    _distinct_outputs(args, [("--out", args.out)],
                      [("--data", args.data), *((flag, path) for flag, path, _ in named.values())])
    dataset = load_dataset(args.data)
    models = {name: load_model(path) for name, (_, path, _) in named.items()}
    for name, (_, _, what) in named.items():
        _lb_of(models[name], what, dataset.L_b)
    result = _score(models, dataset, alpha)
    row = [
        args.mode, alpha, dataset.example_count, dataset.slot_count, dataset.L_b,
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
        raise ValueError("--values must name at least one grid point")
    try:
        if param == "lb":
            return [int(tok) for tok in values]
        return [float(tok) for tok in values]
    except ValueError as exc:
        raise ValueError(f"bad grid value: {exc}") from None


def cmd_sweep(args) -> int:
    grid = _parse_grid(args.values, args.param)
    if args.param == "beta":
        points = [(beta, None, args.Lb) for beta in grid]
    elif args.param == "alpha":
        points = [(None, alpha, args.Lb) for alpha in grid]
    else:
        alpha = _alpha(args, "ssac")
        points = [pt for L_b in grid for pt in ((args.beta, None, L_b), (None, alpha, L_b))]
    # every grid point is checked, as gen and train would check it, before
    # the first split is drawn
    for beta, alpha, L_b in points:
        if args.L < 1 or L_b < 1:
            raise ValueError("L, L_b and n must all be positive")
        slot_split(alpha, args.L)
        for net_beta in _networks(alpha, beta).values():
            _train_config(args, net_beta)
    _distinct_outputs(args, [("--out", args.out)])

    cfg, cache, rows = ChannelConfig(snr_db=args.snr_db), {}, []
    for beta, alpha, L_b in points:
        if (L_b, alpha) not in cache:
            cache[L_b, alpha] = [generate_dataset(cfg, args.L, L_b, n, master_seed=seed, alpha=alpha)
                                 for n, seed in _split_specs(args)]
        train_ds, test_ds = cache[L_b, alpha]
        fits = _train_on(train_ds, args, alpha, beta)
        result = _score({name: model for name, (model, _) in fits.items()}, test_ds, alpha)
        # csv writes None, the beta of an ssac row or the alpha of an isac row, as ""
        rows.append([
            "isac" if alpha is None else "ssac", beta, alpha,
            args.L, L_b, args.snr_db, args.hidden, args.epochs, args.lr, args.batch,
            args.n_train, args.n_test, args.seed,
            result.throughput, result.detection_error, result.mean_spike_count_per_slot,
        ])

    _write_csv(args.out, SWEEP_COLUMNS, rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


# --- trace -----------------------------------------------------------------

def cmd_trace(args) -> int:
    if args.frame_slots < 0 or args.idle_slots < 0:
        raise ValueError("--frame-slots and --idle-slots must be non-negative")
    if args.frame_slots == args.idle_slots == 0:
        raise ValueError("--frame-slots and --idle-slots are both 0: the trace has no slot")
    if not 0 <= args.seed < 2**64:
        raise ValueError(f"--seed {args.seed} does not fit an unsigned 64-bit integer")
    _distinct_outputs(args, [("--out", args.out)], [("--model", args.model)])
    model = load_model(args.model)
    L_b = _lb_of(model, "model")
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

    taps = draw_channel(cfg, 1, rng)  # the target is present
    samples = apply_channel(np.concatenate(chips), taps, noise_var, rng)
    trace = forward(model, frame_received(samples, L_b, noise_var).slot_inputs)
    counts = trace.hidden_spikes.sum(axis=1) + trace.readout_spikes.sum(axis=1)
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

    # Each flag that several subcommands share is declared once, in a parent
    # parser.  A subcommand lists its parents' flags before its own, so sweep's
    # --param and --values sit in a parent too: they lead its required flags.
    grid, sizes, snr, mode, alpha, training, seed = (argparse.ArgumentParser(add_help=False) for _ in range(7))
    grid.add_argument("--param", choices=("beta", "alpha", "lb"), required=True,
                      help="grid axis; beta and alpha sweeps fix L_b at --Lb, and the lb sweep's "
                      "ssac rows use --alpha")
    grid.add_argument("--values", required=True, help="comma-separated grid points")
    sizes.add_argument("--n-train", type=int, required=True)
    sizes.add_argument("--n-test", type=int, required=True)
    sizes.add_argument("--L", type=int, default=80, help="slots per frame (default 80)")
    sizes.add_argument("--Lb", type=int, default=1, help="bandwidth expansion factor (default 1)")
    snr.add_argument("--snr-db", type=float, default=ChannelConfig.snr_db)
    mode.add_argument("--mode", choices=("isac", "ssac"), default="isac")
    alpha.add_argument("--alpha", type=float, help="ssac data-slot fraction")
    training.add_argument("--hidden", type=int, default=10, help="hidden neurons (default 10)")
    training.add_argument("--beta", type=float, default=0.5, help="decode loss weight (default 0.5)")
    training.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    training.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    training.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    seed.add_argument("--seed", type=int, default=0, help="master seed (default 0)")

    p = sub.add_parser("gen", parents=[sizes, snr, mode, alpha, seed],
                       help="generate train/test dataset files")
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", parents=[mode, alpha, training, seed], help="train on a dataset file")
    p.add_argument("--data", required=True, help="training dataset (NISD)")
    p.add_argument("--out", required=True, help="model output path (NISM); "
                   "ssac writes <out>.comm/<out>.sense variants")
    p.add_argument("--log", help="training-log CSV path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[mode, alpha], help="evaluate a model on a dataset file")
    p.add_argument("--data", required=True, help="test dataset (NISD)")
    p.add_argument("--model", required=True, help="model (NISM); comm model in ssac mode")
    p.add_argument("--model-sense", help="detection model (NISM, ssac mode)")
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", parents=[grid, sizes, snr, alpha, training, seed],
                       help="generate/train/eval across a parameter grid")
    p.add_argument("--out", required=True, help="results CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("trace", parents=[snr, seed],
                       help="per-slot spike counts for active/idle/active frames")
    p.add_argument("--model", required=True, help="model (NISM)")
    p.add_argument("--frame-slots", type=int, default=80, help="slots per active frame")
    p.add_argument("--idle-slots", type=int, default=20, help="idle slots between frames")
    p.add_argument("--out", required=True, help="trace CSV path")
    p.set_defaults(func=cmd_trace)

    return parser


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


def _apply_config(parser: argparse.ArgumentParser, overrides: dict) -> None:
    """Exit 2 on a key that no subcommand has as a flag, else set it as that
    flag's default.  Subcommands parse into a fresh namespace, so defaults
    are set on each subparser; null keeps the built-in."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = [(sp, a) for sp in commands.choices.values() for a in sp._actions if a.dest != "help"]
    unknown = set(overrides) - {action.dest for _, action in flags}
    if unknown:
        parser.error(f"unknown config keys: {sorted(unknown)}")
    for sp, action in flags:
        value = overrides.get(action.dest)
        if value is not None:
            sp.set_defaults(**{action.dest: _config_value(parser, action, value)})
            action.required = False


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
        _apply_config(parser, overrides)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, FileFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
