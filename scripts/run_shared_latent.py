#!/usr/bin/env python3
"""Shared-latent study: same latent through two instrument models vs independent latents."""

import argparse
import sys

from timbrebridge.cli import main as cli


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--testbed", default="testbed")
    ap.add_argument("--out", default="results/shared_latent")
    ap.add_argument("--seed", type=int, default=1)
    args, extra = ap.parse_known_args()
    tb = args.testbed
    sys.exit(cli([
        "shared-latent", "--out", args.out, "--seed", str(args.seed),
        "--a-data", f"{tb}/data/flute_like",
        "--b-data", f"{tb}/data/violin_like",
        "--classifier-ckpt", f"{tb}/ckpt/classifier.tbc",
        "--ckpt", f"{tb}/ckpt/flute_like-100.tbc",
        "--ckpt", f"{tb}/ckpt/violin_like-100.tbc",
        *extra,
    ]))


if __name__ == "__main__":
    main()
