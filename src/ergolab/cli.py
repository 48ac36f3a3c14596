"""Command-line entry point: one subcommand per scenario of
``config.SCENARIOS``, whose help lists the scenario's stages.

    ergolab <scenario> [--config PATH] [--out-dir PATH] [--seed N]
                       [--set key=value ...]

Exit codes: 0 all checks passed, 1 a declared check failed, 2 configuration
error, 3 numerical failure. A configuration is refused (exit 2) only while it
is parsed, before any artifact; a run that starts writes ``summary.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import SCENARIOS, ConfigError, RunConfig, parse_config
from .runner import run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="Ergodic control laboratory: eigenpair solver, invariant "
        "measures, occupation-measure program, Monte Carlo verification.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name, stages in SCENARIOS.items():
        p = sub.add_parser(name, help="stages: " + " → ".join(stages))
        p.add_argument("--config", type=Path, help="JSON configuration file")
        p.add_argument("--out-dir", type=Path, default=None, help="artifact directory")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted-path config override, e.g. --set grid.spacing=0.02",
        )
    return parser


def _load(args) -> RunConfig:
    text = Path(args.config).read_text() if args.config is not None else "{}"
    overrides = [("scenario", json.dumps(args.scenario))]
    if args.seed is not None:
        overrides.append(("seed", str(args.seed)))
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides.append((key, value))
    return parse_config(text, overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out_dir if args.out_dir is not None else config["output"]["directory"]
    report = run_scenario(config, out_dir)
    results = report.payload["results"]
    if "headline" in results:
        for key, val in results["headline"].items():
            print(f"{key}: {val}")
    for name, chk in report.payload["checks"].items():
        status = "PASS" if chk["passed"] else "FAIL"
        print(f"[{status}] {name}: value={chk['value']} tolerance={chk['tolerance']}")
    for message in results["warnings"]:
        print(f"warning: {message}", file=sys.stderr)
    if "error" in results:
        print(f"numerical failure: {results['error']}", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
