#!/usr/bin/env python3
"""Coupling ablation: retrains flute/violin under (0,0), (4,0), (4,8) chunking."""

import argparse
import sys

from timbrebridge.cli import main as cli


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--testbed", default="testbed")
    ap.add_argument("--out", default="results/coupling_ablation")
    ap.add_argument("--seed", type=int, default=1)
    args, extra = ap.parse_known_args()
    tb = args.testbed
    sys.exit(cli([
        "coupling-ablation", "--out", args.out, "--seed", str(args.seed),
        "--source-data", f"{tb}/data/flute_like",
        "--target-data", f"{tb}/data/violin_like",
        "--classifier-ckpt", f"{tb}/ckpt/classifier.tbc",
        *extra,
    ]))


if __name__ == "__main__":
    main()
