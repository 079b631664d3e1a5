#!/usr/bin/env python3
"""End-to-end experiment on synthetic albums: does the latent selector find
the salient photos it was never directly supervised on?

Generates a dataset, trains the full model with the ranking term on, then
reports summarization precision/recall of the hard selector against the
planted salient photos, and album retrieval by story likelihood. Generation
quality (BLEU, CIDEr) is `hatstory eval-gen` on a saved checkpoint.
Optionally trains a rank-weight-0 contrast model and the two
sequence-to-sequence baselines for comparison.
"""

import argparse
import json
import sys
from pathlib import Path

from hatstory.checkpoint import save_checkpoint
from hatstory.data import SynthSpec, save_dataset, synth_generate
from hatstory.metrics import evaluate_retrieval, evaluate_summaries
from hatstory.model import ModelDims, init_model
from hatstory.tensor import Rng
from hatstory.training import TrainConfig, train, write_loss_curve


def train_variant(albums, vocab, cfg, run_dir, name):
    run_dir = Path(run_dir) / name
    run_dir.mkdir(parents=True, exist_ok=True)
    dims = ModelDims(k=cfg.k, d_s=cfg.d_s, d_g=cfg.d_g, d_w=cfg.d_w, vocab_size=vocab.size)
    params = init_model(dims, Rng(cfg.seed), carry_state=cfg.carry_state,
                        enc_init_gain=cfg.enc_init_gain)
    (run_dir / "resolved_config.json").write_text(
        json.dumps(cfg.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"[{name}] training ({cfg.variant}, rank_weight={cfg.rank_weight}, "
          f"{cfg.epochs} epochs)")
    curve = train(params, albums, cfg, log=lambda msg: print(f"[{name}] {msg}"))
    write_loss_curve(curve, run_dir / "loss_curve.csv")
    save_checkpoint(params, vocab, cfg.to_dict(), run_dir / "checkpoint.hat")
    print(f"[{name}] final loss {curve[-1]['mean_loss']:.4f}")
    return params


def eval_summarization(params, albums, cfg, label):
    agg, _ = evaluate_summaries(params, albums, cfg.variant, cfg.beam_size, cfg.max_sentence_len)
    print(f"[summ] {label}: precision={agg['precision']:.3f} recall={agg['recall']:.3f}")


def eval_retrieval(params, albums, variant, label):
    agg, _ = evaluate_retrieval(params, albums, variant)
    print(f"[retrieval] {label}: R@1={agg['recall_at_1']:.3f} "
          f"R@5={agg['recall_at_5']:.3f} MedR={agg['median_rank']:.1f}")


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

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    spec = SynthSpec(albums=args.albums, n=args.photos, k=args.k, seed=args.seed)
    albums, vocab = synth_generate(spec)
    save_dataset(albums, spec.k, out / "data.jsonl")
    print(f"dataset: {len(albums)} albums, vocab {vocab.size}")

    base = dict(k=args.k, epochs=args.epochs, seed=args.seed, learning_rate=3e-3,
                batch_size=5, enc_init_gain=0.5)
    cfg = TrainConfig(rank_weight=3.0, **base)
    params = train_variant(albums, vocab, cfg, out, "hier-ranked")
    eval_summarization(params, albums, cfg, f"hier rank_weight={cfg.rank_weight}")
    eval_retrieval(params, albums, "hier", f"hier rank_weight={cfg.rank_weight}")

    if args.with_contrast:
        cfg0 = TrainConfig(rank_weight=0.0, **base)
        params0 = train_variant(albums, vocab, cfg0, out, "hier-unranked")
        eval_summarization(params0, albums, cfg0, "hier rank_weight=0")
        eval_retrieval(params0, albums, "hier", "hier rank_weight=0")

    if args.with_baselines:
        cfg_ed = TrainConfig(variant="enc_dec", rank_weight=0.0, **base)
        p_ed = train_variant(albums, vocab, cfg_ed, out, "enc-dec")
        eval_retrieval(p_ed, albums, "enc_dec", "enc-dec")
        cfg_ad = TrainConfig(variant="enc_attn_dec", rank_weight=0.0, **base)
        p_ad = train_variant(albums, vocab, cfg_ad, out, "enc-attn-dec")
        eval_summarization(p_ad, albums, cfg_ad, "attention-aggregation top-5")
        eval_retrieval(p_ad, albums, "enc_attn_dec", "enc-attn-dec")

    return 0


if __name__ == "__main__":
    sys.exit(main())
