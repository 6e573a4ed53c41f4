#!/usr/bin/env python3
"""Build the default experiment testbed: datasets, denoisers, classifier.

Produces under OUT (default ./testbed):
  data/<instrument>/            dataset directories
  ckpt/<instrument>-100.tbc     denoisers trained at sigma_max=100
  ckpt/<instrument>-5.tbc       flute/violin denoisers at sigma_max=5
  ckpt/classifier.tbc           3-class timbre classifier

The flute corpus is trained with the downward pitch-shift augmentation so
the octave-mismatch study has in-distribution shifted inputs.
"""

import argparse
import sys

from timbrebridge.cli import main as cli


def sh(*args) -> None:
    code = cli([str(a) for a in args])
    if code != 0:
        sys.exit(code)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="testbed")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--clips", type=int, help="training clips (default: synth-data's)")
    ap.add_argument("--test-clips", type=int, default=200)
    ap.add_argument("--train-steps", type=int, help="steps per denoiser (default: train's)")
    args = ap.parse_args()
    out = args.out
    clips = ["--clips", args.clips] if args.clips else []
    steps = ["--train-steps", args.train_steps] if args.train_steps else []

    for k, name in enumerate(("flute_like", "violin_like", "bassoon_like")):
        extra = ["--augment-probability", "0.35"] if name == "flute_like" else []
        sh("synth-data", "--instrument", name, *clips,
           "--test-clips", args.test_clips, "--seed", args.seed * 1000 + k,
           "--out", f"{out}/data/{name}", *extra)
    for k, name in enumerate(("flute_like", "violin_like", "bassoon_like")):
        sh("train", "--data", f"{out}/data/{name}",
           "--out-ckpt", f"{out}/ckpt/{name}-100.tbc", *steps,
           "--seed", args.seed * 100 + k)
    for k, name in enumerate(("flute_like", "violin_like")):
        sh("train", "--data", f"{out}/data/{name}",
           "--out-ckpt", f"{out}/ckpt/{name}-5.tbc", *steps, "--sigma-max", "5",
           "--seed", 50 + args.seed * 100 + k)
    sh("train-classifier",
       "--data", f"{out}/data/flute_like",
       "--data", f"{out}/data/violin_like",
       "--data", f"{out}/data/bassoon_like",
       "--out-ckpt", f"{out}/ckpt/classifier.tbc", "--seed", args.seed)


if __name__ == "__main__":
    main()
