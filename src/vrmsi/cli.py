"""Command-line entry point wiring all pipeline stages together.

Exit codes: 0 success, 2 configuration error, 3 missing upstream artifact,
4 numerical or data-integrity failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from vrmsi import __version__
from vrmsi.config import ConfigError, load_config
from vrmsi.core import ContainerError, DataIntegrityError
from vrmsi.learn import NumericalError
from vrmsi.pipeline import (
    STAGE_EVAL,
    MissingArtifactError,
    StageExistsError,
    cmd_acquire,
    cmd_eval,
    cmd_infer,
    cmd_phantom,
    cmd_recon,
    cmd_train,
    run_all,
)
from vrmsi.report import render_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERICAL = 4

_STAGES = {
    "phantom": cmd_phantom,
    "acquire": cmd_acquire,
    "recon": cmd_recon,
    "train": cmd_train,
    "infer": cmd_infer,
    "eval": cmd_eval,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, default=None, help="experiment INI file")
    sub.add_argument("--seed", type=int, default=None, help="override the experiment seed")
    sub.add_argument("--jobs", type=int, default=None, help="parallel workers within a stage")
    sub.add_argument("--out", type=Path, default=None, help="override the output directory")
    sub.add_argument("--force", action="store_true", help="rebuild even if outputs exist")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrmsi",
        description="Variable-resolution multi-spectral MRI simulation and evaluation",
    )
    parser.add_argument("--version", action="version", version=f"vrmsi {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("phantom", "generate the synthetic subject dataset"),
        ("acquire", "simulate spectral bins and multi-coil k-space"),
        ("recon", "run the conventional reconstructions"),
        ("train", "train the bin-inference models"),
        ("infer", "apply trained models to the test subjects"),
        ("eval", "score all methods and emit the evaluation report"),
        ("report", "render SVG plots and a markdown summary"),
        ("run-all", "run every stage in order"),
    ):
        _add_common(subs.add_parser(name, help=doc))
    return parser


def _overrides(args) -> dict:
    return {
        "experiment.seed": args.seed,
        "experiment.jobs": args.jobs,
        "experiment.out_dir": str(args.out) if args.out else None,
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides(args))
        if args.command in _STAGES:
            path = _STAGES[args.command](cfg, force=args.force)
        elif args.command == "report":
            path = render_report(Path(cfg.out_dir) / STAGE_EVAL, Path(cfg.out_dir) / "report")
        else:
            path = run_all(cfg, force=args.force)
        print(f"{args.command}: ok ({path})")
        return EXIT_OK
    except (ConfigError, StageExistsError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MissingArtifactError, FileNotFoundError) as exc:
        print(f"missing dependency: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (NumericalError, DataIntegrityError, ContainerError) as exc:
        kind = "malformed artifact" if isinstance(exc, ContainerError) else "numerical failure"
        print(f"{kind}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
