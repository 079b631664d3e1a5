#!/usr/bin/env python3
"""End-to-end experiment on synthetic albums: does the latent selector find
the salient photos it was never directly supervised on?

Runs `hatstory synth`, then `train`, `eval-summ` (the hard selector against
the planted salient photos) and `eval-retrieval` (albums ranked by story
likelihood) for the full model with the ranking term on, and optionally for
a rank-weight-0 contrast model and the two sequence-to-sequence baselines.
Each run's directory holds its checkpoint and reports.
"""

import argparse
import json
import sys
from pathlib import Path

from hatstory import cli
from hatstory.data import write_atomically


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--albums", type=int, default=20)
    ap.add_argument("--photos", type=int, default=10)
    ap.add_argument("--k", type=int, default=16)
    ap.add_argument("--epochs", type=int, default=300)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="runs/latent-selection")
    ap.add_argument("--with-contrast", action="store_true",
                    help="also train a rank-weight-0 model")
    ap.add_argument("--with-baselines", action="store_true",
                    help="also train the two sequence-to-sequence baselines")
    args = ap.parse_args()

    out, data = Path(args.out), str(Path(args.out) / "data.jsonl")
    base = dict(k=args.k, epochs=args.epochs, seed=args.seed, learning_rate=3e-3,
                batch_size=5, enc_init_gain=0.5)
    # (run directory, config, summarization label or None, retrieval label)
    hier = "hier rank_weight=3.0"
    runs = [("hier-ranked", dict(rank_weight=3.0), hier, hier)]
    if args.with_contrast:
        runs.append(("hier-unranked", dict(rank_weight=0.0), "hier rank_weight=0",
                     "hier rank_weight=0"))
    if args.with_baselines:
        runs += [("enc-dec", dict(variant="enc_dec", rank_weight=0.0), None, "enc-dec"),
                 ("enc-attn-dec", dict(variant="enc_attn_dec", rank_weight=0.0),
                  "attention-aggregation top-5", "enc-attn-dec")]

    if cli.main(["synth", "--albums", str(args.albums), "--photos", str(args.photos),
                 "--k", str(args.k), "--seed", str(args.seed), "--out", data]):
        return 1
    for name, overrides, summ, retrieval in runs:
        config, run_dir = out / f"{name}.json", out / name
        text = json.dumps({**base, **overrides}, sort_keys=True, indent=2)
        write_atomically(config, [text, "\n"])
        ckpt = ["--ckpt", str(run_dir / "checkpoint.hat"), "--data", data, "--out", str(run_dir)]
        steps = [(f"[{name}] train", ["train", "--data", data, "--config", str(config),
                                      "--out", str(out), "--run-name", name])]
        if summ:
            steps.append((f"[summ] {summ}", ["eval-summ", *ckpt]))
        steps.append((f"[retrieval] {retrieval}", ["eval-retrieval", *ckpt]))
        for label, argv in steps:
            print(label)
            if cli.main(argv):
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
