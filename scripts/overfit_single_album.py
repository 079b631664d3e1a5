#!/usr/bin/env python3
"""Memorization sanity check: train on one album until the story's negative
log-likelihood is tiny, then verify greedy decoding reproduces the story.

A model that cannot overfit a single example has a broken gradient path
somewhere; this is the fastest whole-system probe short of a full run.
"""

import argparse
import sys

from hatstory.data import SynthSpec, synth_generate
from hatstory.model import ModelDims, generate_story, init_model, variant_log_prob
from hatstory.tensor import Rng
from hatstory.training import TrainConfig, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--max-epochs", type=int, default=600)
    ap.add_argument("--target-nll", type=float, default=0.05)
    args = ap.parse_args()

    spec = SynthSpec(albums=1, n=8, k=16, seed=args.seed)
    albums, vocab = synth_generate(spec)
    album = albums[0]
    story = album.stories[0]

    cfg = TrainConfig(k=16, epochs=args.max_epochs, seed=args.seed,
                      learning_rate=3e-3, batch_size=1, rank_weight=0.0)
    dims = ModelDims(k=cfg.k, d_s=cfg.d_s, d_g=cfg.d_g, d_w=cfg.d_w,
                     vocab_size=vocab.size)
    params = init_model(dims, Rng(cfg.seed), carry_state=cfg.carry_state)

    def reached_target(row):
        if row["epoch"] % 25 == 0:
            print(f"epoch {row['epoch']}: nll={row['mean_gen_loss']:.4f}")
        return row["mean_gen_loss"] < args.target_nll

    curve = train(params, albums, cfg, early_stop=reached_target)
    nll = -variant_log_prob(params, album.features, story, cfg.variant).item()
    print(f"stopped after epoch {curve[-1]['epoch']}; exact story nll={nll:.4f}")
    if nll >= args.target_nll:
        print(f"did not reach target nll within {args.max_epochs} epochs")
        return 1

    generated = generate_story(params, album.features, beam=1,
                               max_len=cfg.max_sentence_len)
    ok = generated.sentences == story.sentences
    print("greedy decode reproduces the training story:", ok)
    for sent in generated.sentences:
        print(" ", vocab.decode(sent))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
