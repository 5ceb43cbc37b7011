"""Command line front end.

Subcommands: run, grid, sweep-d0, verify, trace-toy. Exit codes: 0 on
success, 1 when a verification check fails or every grid point diverges,
2 on configuration errors and malformed dataset files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import reports_to_csv, verify_suite
from .core import ConfigError, csv_text
from .harness import (
    CSV_HEADER,
    ExperimentConfig,
    GridDiverged,
    _check_out,
    _write_atomic,
    apply_overrides,
    d0_sweep,
    grid_search,
    load_config,
    run_experiment,
    run_single,
)
from .problems import ParseError

__all__ = ["main"]


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, val = pair.partition("=")
        overrides[key.strip()] = val.strip()
    return overrides


def _config_from_args(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    if args.set:
        config = apply_overrides(config, _parse_overrides(args.set))
    return config


def _floats(csv_arg: str) -> list[float]:
    try:
        return [float(tok) for tok in csv_arg.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"expected comma-separated floats, got {csv_arg!r}") from None


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    result = run_experiment(config)
    print(f"config {result.config_hash}: {len(result.outputs)} run(s) -> {result.out_dir}")
    for metric, (m, se2) in result.aggregate.items():
        print(f"  {metric}: {m:.6g} +/- {se2:.2g}")
    n_diverged = sum(out.summary["diverged"] for out in result.outputs)
    if n_diverged:
        print(f"  diverged runs: {n_diverged}")
    return 0


def _cmd_grid(args) -> int:
    config = _config_from_args(args)
    result = grid_search(config, _floats(args.lrs), compare_algorithm=args.compare)
    print(result.out_path.read_text(), end="")
    print(f"best lr {result.best_lr!r} with mean final loss {result.best_f!r}")
    if result.compare_algorithm:
        print(f"{result.compare_algorithm} (no tuning): {result.compare_f!r}")
    print(f"table -> {result.out_path}")
    return 0


def _cmd_sweep_d0(args) -> int:
    config = _config_from_args(args)
    result = d0_sweep(config, _floats(args.d0s))
    print(result.out_path.read_text(), end="")
    print(f"relative spread of mean final loss: {result.relative_spread!r}")
    print(f"table -> {result.out_path}")
    return 0


def _cmd_verify(args) -> int:
    out = args.out and _check_out(Path(args.out))  # refused before the battery runs
    reports = verify_suite(args.suite, quick=not args.full)
    text = reports_to_csv(reports)
    if out:
        _write_atomic(out, text)
        print(f"report -> {args.out}")
    else:
        print(text, end="")
    n_failed = sum(1 for r in reports if not r.satisfied)
    n_skipped = sum(1 for r in reports if r.skipped)
    print(
        f"{len(reports)} checks: {len(reports) - n_failed - n_skipped} satisfied, "
        f"{n_skipped} skipped, {n_failed} failed",
        file=sys.stderr,
    )
    return 1 if n_failed else 0


def _cmd_trace_toy(args) -> int:
    # the steps CSV of `dadapt run --set d0=0.1 --set n_steps=<steps>`
    out = args.out and _check_out(Path(args.out))
    run = run_single(ExperimentConfig(d0=0.1, n_steps=args.steps), seed=0)
    text = csv_text(CSV_HEADER, run.rows)
    if out:
        _write_atomic(out, text)
        print(f"trace -> {args.out}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dadapt",
        description="Learning-rate-free convex optimization benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the config arguments of the subcommands that build an ExperimentConfig
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key = value config file")
    common.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    p_run = sub.add_parser(
        "run", parents=[common], help="run one experiment config across its seeds"
    )
    p_run.set_defaults(func=_cmd_run)

    p_grid = sub.add_parser("grid", parents=[common], help="step-size grid search for a baseline")
    p_grid.add_argument("--lrs", required=True, help="comma-separated multipliers")
    p_grid.add_argument(
        "--compare",
        help="also run this adaptive algorithm on the same problem for comparison",
    )
    p_grid.set_defaults(func=_cmd_grid)

    p_sweep = sub.add_parser(
        "sweep-d0", parents=[common], help="sensitivity sweep over the initial d"
    )
    p_sweep.add_argument("--d0s", required=True, help="comma-separated initial estimates")
    p_sweep.set_defaults(func=_cmd_sweep_d0)

    p_verify = sub.add_parser("verify", help="run the numerical verification battery")
    p_verify.add_argument("--suite", default="all", choices=["lemmas", "bounds", "all"])
    p_verify.add_argument("--out", help="write the CSV report here instead of stdout")
    p_verify.add_argument("--full", action="store_true", help="larger, slower battery")
    p_verify.set_defaults(func=_cmd_verify)

    p_toy = sub.add_parser("trace-toy", help="emit the 1-d absolute-value trace")
    p_toy.add_argument("--steps", type=int, default=100)
    p_toy.add_argument("--out", help="write the CSV trace here instead of stdout")
    p_toy.set_defaults(func=_cmd_trace_toy)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ParseError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except GridDiverged as err:
        print(f"grid failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
