#!/usr/bin/env python3
"""Sigma ablation (flute -> violin) over a built testbed (see build_testbed.py)."""

import argparse
import sys

from timbrebridge.cli import main as cli


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--testbed", default="testbed")
    ap.add_argument("--out", default="results/sigma_ablation")
    ap.add_argument("--seed", type=int, default=1)
    args, extra = ap.parse_known_args()
    tb = args.testbed
    sys.exit(cli([
        "sigma-ablation", "--out", args.out, "--seed", str(args.seed),
        "--source-data", f"{tb}/data/flute_like",
        "--target-data", f"{tb}/data/violin_like",
        "--classifier-ckpt", f"{tb}/ckpt/classifier.tbc",
        "--ckpt", f"{tb}/ckpt/flute_like-100.tbc",
        "--ckpt", f"{tb}/ckpt/violin_like-100.tbc",
        "--ckpt", f"{tb}/ckpt/flute_like-5.tbc",
        "--ckpt", f"{tb}/ckpt/violin_like-5.tbc",
        "--pairs", "100:100,100:50,100:20,100:5,5:5",
        *extra,
    ]))


if __name__ == "__main__":
    main()
