#!/usr/bin/env python3
"""Gate fusedp BENCH_*.json artifacts.

  tune-gate: enforce the tuner's never-pessimize contract on a single
        BENCH_tune.json: the fitted model's predicted-vs-measured Pearson
        correlation must not drop below the baseline's (beyond --epsilon,
        default 1e-6), and every measured-rung A/B must be bit-identical.

            bench_compare.py tune-gate BENCH_tune.json [--epsilon=1e-6]

Exit codes: 0 clean, 1 gate failure, 2 usage or bad artifact.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def cmd_tune_gate(args):
    doc = load(args.artifact)
    tune = doc.get("tune")
    if tune is None:
        print("bench_compare: artifact has no 'tune' block", file=sys.stderr)
        return 2
    failed = []
    before = tune.get("correlation_before")
    after = tune.get("correlation_after")
    if before is None or after is None:
        print("bench_compare: tune block lacks correlation fields",
              file=sys.stderr)
        return 2
    print(f"  samples: {tune.get('samples', '?')}")
    print(f"  correlation: {before:+.4f} -> {after:+.4f}")
    if tune.get("fit_ok", True) and after < before - args.epsilon:
        failed.append(f"correlation dropped {before:+.4f} -> {after:+.4f}")
    for p in doc.get("pipelines", []):
        name = p.get("name", "?")
        if p.get("skipped"):
            print(f"  {name:<12} skipped")
            continue
        ident = p.get("bit_identical")
        changed = p.get("schedule_changed", False)
        speedup = p.get("speedup", 0.0)
        print(f"  {name:<12} measured/model speedup {speedup:5.2f}x"
              f"{'  (schedule changed)' if changed else ''}"
              f"{'' if ident else '  NOT BIT-IDENTICAL'}")
        if ident is False:
            failed.append(f"{name} outputs not bit-identical")
    if failed:
        print("bench_compare: tune gate FAILED: " + "; ".join(failed))
        return 1
    print("bench_compare: tune gate passed (fitted model never pessimizes, "
          "all outputs bit-identical)")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)

    t = sub.add_parser("tune-gate",
                       help="tuner never-pessimize gate on BENCH_tune")
    t.add_argument("artifact")
    t.add_argument("--epsilon", type=float, default=1e-6,
                   help="allowed correlation slack (default 1e-6)")
    t.set_defaults(func=cmd_tune_gate)

    args = ap.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
