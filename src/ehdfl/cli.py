"""Command-line front end.

Exit codes: 0 on success, 2 for configuration problems or failed verification
checks, 3 when a model exceeds its size budget.
"""

from __future__ import annotations

import argparse
import sys

from .config import parse_config, read_config
from .errors import BudgetExceeded, ConfigError
from .harness import run_experiment, verify_suite

KINDS = ("solve", "evaluate", "train", "sweep", "verify")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ehdfl",
        description="Transmission policies and training co-simulation for "
                    "device-to-device federated learning on harvested energy.")
    sub = ap.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=(kind != "verify"),
                       help="JSON experiment description")
        p.add_argument("--seed", type=int, default=None,
                       help="replace the config's seed list with this one seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for per-seed work")
        p.add_argument("--policy", default=None,
                       help="override the config's policy name")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.kind == "verify" and args.config is None:
            from pathlib import Path
            out = Path(args.out) if args.out else None
            return 0 if verify_suite(out) else 2

        raw = read_config(args.config)
        if isinstance(raw, dict):  # parse_config refuses anything else
            if args.seed is not None:
                raw["seeds"] = [args.seed]
            if args.out is not None:
                raw["out_dir"] = args.out
        config = parse_config(raw)
        for w in config.warnings:
            print(f"warning: {w}", file=sys.stderr)
        out = run_experiment(config, args.kind, jobs=args.jobs,
                             policy_name=args.policy)
        print(f"wrote {out}")
        return 0
    except ConfigError as exc:
        for item in exc.items:
            print(f"error: {item}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
