#!/usr/bin/env python3
"""Pitch-shift study (flute -> bassoon, octave-mismatched registers)."""

import argparse
import sys

from timbrebridge.cli import main as cli


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--testbed", default="testbed")
    ap.add_argument("--out", default="results/shift_study")
    ap.add_argument("--seed", type=int, default=1)
    args, extra = ap.parse_known_args()
    tb = args.testbed
    sys.exit(cli([
        "shift-study", "--out", args.out, "--seed", str(args.seed),
        "--source-data", f"{tb}/data/flute_like",
        "--target-data", f"{tb}/data/bassoon_like",
        "--classifier-ckpt", f"{tb}/ckpt/classifier.tbc",
        "--ckpt", f"{tb}/ckpt/flute_like-100.tbc",
        "--ckpt", f"{tb}/ckpt/bassoon_like-100.tbc",
        *extra,
    ]))


if __name__ == "__main__":
    main()
