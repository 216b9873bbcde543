"""Command-line interface.

Subcommands: gen-dataset, train-detector, eval-detector, eval-localizer,
run-scenario, report-latency.  Exit code 0 on success; on failure a single
machine-readable line ``error: <kind>: <message>`` goes to stderr and the
exit code is nonzero.  A usage error is an InvalidParamsError line too.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..detect import ClassifierModel, TrainConfig, train_detector
from ..errors import CoexsimError, InvalidParamsError
from .datasets import (
    DEFAULT_SINR_SWEEP,
    KpmDatasetConfig,
    SpectrogramDatasetConfig,
    gen_kpm_dataset,
    gen_spectrogram_dataset,
    load_kpm_windows,
)
from .evaluate import (
    eval_detector,
    eval_localizer,
    pooled_localizer_metrics,
    write_detector_report,
    write_localizer_report,
)
from .scenario import run_scenario, scenario_from_yaml


def _sinr_list(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of "
                                         "numbers") from None


class _Parser(argparse.ArgumentParser):
    """Raises a usage error, for ``main`` to print as its one line, in place of
    printing the usage block and exiting; ``--help`` still prints and exits."""

    def error(self, message):
        raise InvalidParamsError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coexsim",
        description="Desk-scale closed-loop simulator for cellular-radar "
                    "spectrum coexistence.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-dataset", help="generate a labeled dataset")
    p.add_argument("--kind", choices=["kpm", "spectrogram"], required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sinrs", type=_sinr_list,
                   default=DEFAULT_SINR_SWEEP, help="comma-separated dB list")
    p.add_argument("--count", type=int, default=100,
                   help="items per class per SINR (kpm) or per SINR (spectrogram)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train-detector", help="train the KPM radar detector")
    p.add_argument("--data", required=True, help="kpm dataset directory")
    p.add_argument("--out", required=True, help="model file (.npz)")
    p.add_argument("--n-stack", type=int, default=1)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--learning-rate", type=float, default=0.001)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eval-detector", help="accuracy-vs-SINR table")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--n-stack", type=int, default=1)
    p.add_argument("--report", help="CSV output path")

    p = sub.add_parser("eval-localizer", help="recall/IoU-vs-SINR table")
    p.add_argument("--data", required=True, help="spectrogram dataset directory")
    p.add_argument("--report", help="CSV output path")
    p.add_argument("--min-sinr", type=float,
                   help="also print pooled metrics at/above this SINR")

    p = sub.add_parser("run-scenario", help="closed-loop scenario run")
    p.add_argument("--config", required=True, help="YAML scenario file")
    p.add_argument("--model", help="detector model (.npz); needed unless baseline")
    p.add_argument("--out", help="override output directory")
    p.add_argument("--seed", type=int, help="override seed")

    p = sub.add_parser("report-latency", help="print a scenario's latency table")
    p.add_argument("--scenario-out", required=True,
                   help="output directory of a previous run-scenario")
    return parser


def _cmd_gen_dataset(args) -> int:
    if args.kind == "kpm":
        cfg = KpmDatasetConfig(sinr_sweep_db=args.sinrs,
                               items_per_class_per_sinr=args.count,
                               seed=args.seed)
        gen_kpm_dataset(args.out, cfg)
    else:
        cfg = SpectrogramDatasetConfig(sinr_sweep_db=args.sinrs,
                                       items_per_sinr=args.count,
                                       seed=args.seed)
        gen_spectrogram_dataset(args.out, cfg)
    print(f"wrote {args.kind} dataset to {args.out}")
    return 0


def _cmd_train_detector(args) -> int:
    cfg = TrainConfig(learning_rate=args.learning_rate, epochs=args.epochs,
                      batch_size=args.batch_size, seed=args.seed)
    x, labels, _ = load_kpm_windows(args.data, args.n_stack)
    result = train_detector(x, labels, cfg)
    result.model.save(args.out)
    print(f"trained on {len(x)} windows (n_stack={args.n_stack}): "
          f"train acc {result.train_accuracy:.4f}, "
          f"val acc {result.val_accuracy:.4f}")
    print(f"wrote model to {args.out}")
    return 0


def _cmd_eval_detector(args) -> int:
    model = ClassifierModel.load(args.model)
    rows = eval_detector(model, args.data, args.n_stack)
    print("sinr_db  accuracy  n_windows")
    for r in rows:
        print(f"{r.sinr_db:+7.1f}  {r.accuracy:8.4f}  {r.n_windows:9d}")
    if args.report:
        write_detector_report(args.report, rows)
        print(f"wrote {args.report}")
    return 0


def _cmd_eval_localizer(args) -> int:
    # The pooled slice is computed first, so a bad --min-sinr fails before the table.
    m = None
    if args.min_sinr is not None:
        m = pooled_localizer_metrics(args.data, args.min_sinr)
    rows = eval_localizer(args.data)
    print("sinr_db  recall  precision  mean_iou  n_truth")
    for r in rows:
        print(f"{r.sinr_db:+7.1f}  {r.recall:6.4f}  {r.precision:9.4f}  "
              f"{r.mean_iou:8.4f}  {r.n_truth:7d}")
    if m is not None:
        print(f"pooled sinr >= {args.min_sinr:+.1f}: recall {m.recall:.4f}, "
              f"precision {m.precision:.4f}, mean IoU {m.mean_iou:.4f} "
              f"({m.n_truth} truth boxes)")
    if args.report:
        write_localizer_report(args.report, rows)
        print(f"wrote {args.report}")
    return 0


def _cmd_run_scenario(args) -> int:
    config = scenario_from_yaml(args.config)
    if args.out is not None:
        config.output_dir = args.out
    if args.seed is not None:
        config.seed = args.seed
    model = ClassifierModel.load(args.model) if args.model else None
    result = run_scenario(config, model)
    for key, value in result.summary.items():
        print(f"{key}={value}")
    if result.output_dir:
        print(f"logs in {result.output_dir}")
    return 0


def _cmd_report_latency(args) -> int:
    path = Path(args.scenario_out) / "latency_report.txt"
    if not path.exists():
        raise FileNotFoundError(f"{path} (run run-scenario with an output dir first)")
    print(path.read_text(), end="")
    return 0


_HANDLERS = {
    "gen-dataset": _cmd_gen_dataset,
    "train-detector": _cmd_train_detector,
    "eval-detector": _cmd_eval_detector,
    "eval-localizer": _cmd_eval_localizer,
    "run-scenario": _cmd_run_scenario,
    "report-latency": _cmd_report_latency,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except CoexsimError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing file, a directory, a permission
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
