#!/usr/bin/env python3
"""Solver-order and distributional-transfer study on the analytic 2-D mixture pair."""

import argparse
import sys

from timbrebridge.cli import main as cli


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="results/convergence")
    ap.add_argument("--seed", type=int, default=1)
    args, extra = ap.parse_known_args()
    sys.exit(cli(["convergence-study", "--out", args.out, "--seed", str(args.seed), *extra]))


if __name__ == "__main__":
    main()
