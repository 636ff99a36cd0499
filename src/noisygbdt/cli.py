"""Command line entry point.

    noisygbdt run --config experiment.yaml [--stage 1|2|3] [--subsample n]
                  [--trials k] [--seed s] [--out dir] [--jobs j]
                  [--print-config]

The output directory resolves in order: --out flag, NOISYGBDT_OUT environment
variable, then the config file value. Exit code 0 on success; nonzero with a
single diagnostic line on stderr otherwise. A grid cell that fails leaves
error.txt in its directory; the rest of the grid and the later stages still
run, and the exit code is 1.
"""

from __future__ import annotations

import argparse
import os
import sys

import yaml

from . import __version__
from .experiment import (ExperimentError, load_config, run_stage1, run_stage2,
                         run_stage3, stage_cell_count)

OUT_DIR_ENV = "NOISYGBDT_OUT"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisygbdt",
        description="Label-noise experiments for gradient-boosted trees")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run experiment stages from a config")
    run.add_argument("--config", required=True, help="YAML experiment config")
    run.add_argument("--stage", choices=["1", "2", "3", "all"], default="all",
                     help="stage to run (default: all three in order)")
    run.add_argument("--subsample", type=int, default=None,
                     help="stratified row cap applied before splitting")
    run.add_argument("--trials", type=int, default=None,
                     help="repeat each cell with derived seeds")
    run.add_argument("--seed", type=int, default=None, help="master seed")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--jobs", type=int, default=None,
                     help="concurrent grid cells")
    run.add_argument("--print-config", action="store_true",
                     help="echo the fully resolved config and exit")
    return parser


def resolve_config(args):
    cfg = load_config(args.config)
    if args.subsample is not None:
        cfg.subsample = args.subsample
    if args.trials is not None:
        cfg.trials = args.trials
    if args.seed is not None:
        cfg.seed = args.seed
    if args.jobs is not None:
        cfg.jobs = args.jobs
    out = args.out or os.environ.get(OUT_DIR_ENV)
    if out:
        cfg.out_dir = out
    cfg.validate()
    return cfg


def cmd_run(args) -> int:
    cfg = resolve_config(args)
    if args.print_config:
        print(yaml.safe_dump(cfg.as_dict(), sort_keys=True,
                             default_flow_style=False), end="")
        return 0
    stages = [1, 2, 3] if args.stage == "all" else [int(args.stage)]
    failed = 0
    for stage in stages:
        if stage == 3:
            for kind in cfg.noise_kinds:
                tables = run_stage3(cfg, kind)
                print(f"stage 3: wrote {kind} comparison tables to "
                      f"{tables['out_dir']}")
            continue
        reports = (run_stage1 if stage == 1 else run_stage2)(cfg)
        print(f"stage {stage}: wrote {len(reports)} reports to {cfg.out_dir}")
        missing = stage_cell_count(cfg, stage) - len(reports)
        if missing:
            print(f"error: stage {stage}: {missing} cells failed; each "
                  "holds error.txt", file=sys.stderr)
        failed += missing
    return 1 if failed else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        raise ExperimentError(f"unknown command {args.command!r}")
    except (ExperimentError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
