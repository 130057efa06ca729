"""Command line front end.

Exit codes: 0 on success, 2 for configuration problems, 3 when a run
observed a consensus safety violation.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config
from .scenario import run_scenario, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SAFETY = 3


def _parse_values(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"--values must be comma-separated integers, got {text!r}") from None
    if not values:
        raise ConfigError("--values must name at least one value")
    return values


def _print_run(summary: dict) -> None:
    print(f"seed {summary['seed']}: {summary['blocks_finalized']} blocks finalized")
    for kind, stats in sorted(summary.get("kinds", {}).items()):
        print(
            f"  {kind:16s} n={stats['count']:4d}  mean={stats['mean_ms']:8.1f}ms"
            f"  p95={stats['p95_ms']}ms  min={stats['min_ms']}ms  max={stats['max_ms']}ms"
        )
    if summary.get("unresolved_samples"):
        print(f"  warning: {summary['unresolved_samples']} samples never resolved")
    if not summary.get("completed", True):
        print("  warning: run hit the virtual time limit before completing")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="sim", description="service-agreement chain simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", required=True, type=int)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--trace", action="store_true")

    p_sweep = sub.add_parser("sweep", help="run one scenario across parameter values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, choices=["block-interval"])
    p_sweep.add_argument("--values", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--trace", action="store_true")

    p_val = sub.add_parser("validate-config", help="check a configuration file")
    p_val.add_argument("path")

    args = parser.parse_args(argv)

    try:
        if args.command == "validate-config":
            load_config(args.path)
            print(f"{args.path}: ok")
            return EXIT_OK

        if args.seed < 0:
            raise ConfigError("--seed must be a non-negative integer")
        config = load_config(args.config)
        if args.command == "run":
            result = run_scenario(config, args.seed, out_dir=args.out, trace=args.trace)
            _print_run(result.summary)
            if result.metrics.safety_violations:
                for v in result.metrics.safety_violations:
                    print(f"SAFETY VIOLATION at {v.node} height {v.height}: {v.detail}", file=sys.stderr)
                return EXIT_SAFETY
            return EXIT_OK

        values = _parse_values(args.values)
        results, comparison = run_sweep(config, args.seed, values, out_dir=args.out, trace=args.trace)
        for point in comparison["points"]:
            print(
                f"block-interval={point['value']}ms: public mean="
                f"{point['public_mean_ms']}ms, deploy mean={point['private_deploy_mean_ms']}ms"
            )
        if any(r.metrics.safety_violations for r in results):
            return EXIT_SAFETY
        return EXIT_OK

    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
