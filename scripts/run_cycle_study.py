#!/usr/bin/env python3
"""Cycle-consistency vs step count for the trained flute/violin pair."""

import argparse
import sys

from timbrebridge.cli import main as cli


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--testbed", default="testbed")
    ap.add_argument("--out", default="results/cycle_study")
    ap.add_argument("--seed", type=int, default=1)
    args, extra = ap.parse_known_args()
    tb = args.testbed
    sys.exit(cli([
        "cycle-study", "--out", args.out, "--seed", str(args.seed),
        "--source-ckpt", f"{tb}/ckpt/flute_like-100.tbc",
        "--target-ckpt", f"{tb}/ckpt/violin_like-100.tbc",
        "--data", f"{tb}/data/flute_like",
        *extra,
    ]))


if __name__ == "__main__":
    main()
