"""Command-line harness: dataset synthesis, training, generation, the three
evaluation tasks, and the finite-difference self-check.

Every run prints (and, where it writes a run directory, records) its fully
resolved configuration and seed; reruns with the same inputs reproduce
output files byte for byte. No command mutates its inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .checkpoint import file_sha256, load_checkpoint, save_checkpoint
from .data import SynthSpec, load_dataset, save_dataset, synth_generate, write_atomically
from .diagnostics import run_all
from .errors import ConfigurationError, HatstoryError, check_int
from .metrics import MetricReport, bleu_n, cider, evaluate_retrieval, evaluate_summaries
from .model import ModelDims, SelectionResult, from_json_object, generate, init_model
from .tensor import Rng
from .training import TrainConfig, train, write_loss_curve


def load_config(path):
    """Read a TrainConfig from JSON whose keys mirror the field names."""
    with open(path, encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except ValueError as e:
            raise ConfigurationError(f"config: not valid JSON: {e}") from None
    return from_json_object(TrainConfig, raw, "config", ConfigurationError)


def _write_report(ck, args, task, aggregate, per_item):
    """Print an evaluation's aggregate, then write its report as JSON and CSV
    into --out, fingerprinted by the checkpoint's seed, dims and hash."""
    cfg = ck.config or {}
    fingerprint = {"seed": cfg.get("seed"), "checkpoint_sha256": file_sha256(str(args.ckpt)),
                   "dims": {x: cfg.get(x) for x in ("k", "d_s", "d_g", "d_w")}}
    report = MetricReport(task, aggregate, per_item, fingerprint)
    print(json.dumps(aggregate, sort_keys=True))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    jpath, cpath = out_dir / f"report_{task}.json", out_dir / f"report_{task}.csv"
    write_atomically(jpath, [report.to_json(), "\n"])
    write_atomically(cpath, [report.to_csv()])
    print(f"wrote {jpath} and {cpath}")
    return 0


def _load_for_eval(args):
    """The checkpoint, the dataset read with its vocabulary and checked for its
    k, and the checkpoint's stored config as a TrainConfig."""
    ck = load_checkpoint(args.ckpt)
    if ck.fitted_vocab() is None:
        raise ConfigurationError("checkpoint carries no vocabulary; cannot evaluate text")
    cfg = from_json_object(TrainConfig, ck.config or {}, "checkpoint config", ConfigurationError)
    albums, _ = load_dataset(args.data, vocab=ck.vocab)
    _check_width(albums, ck.params.dims.k, "checkpoint")
    return ck, albums, cfg


def _check_width(albums, k, owner):
    """A ConfigurationError unless every album's features are k wide."""
    widths = sorted({a.features.shape[1] for a in albums})
    if widths not in ([], [k]):
        raise ConfigurationError(f"{owner} k={k} does not match dataset feature width {widths}")


def _generate_for_album(ck, album, cfg, beam, oracle):
    """The album's story, and the photo ids hard selection chose for it
    (None under oracle selection and for the baselines)."""
    indices = None
    if oracle:
        if not album.gt_summaries:
            raise ConfigurationError(f"album {album.album_id} has no ground-truth summary")
        indices = [album.photo_ids.index(pid) for pid in album.gt_summaries[0]]
    story, decided = generate(
        ck.params, album.features, cfg.variant, beam, cfg.max_sentence_len, indices
    )
    if oracle or not isinstance(decided, SelectionResult):
        return story, None
    return story, [album.photo_ids[i] for i in decided.indices[0]]


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args):
    spec = SynthSpec(
        albums=args.albums, n=args.photos, k=args.k, classes=args.classes,
        seed=args.seed, noise_sigma=args.noise_sigma,
    )
    albums, vocab = synth_generate(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(albums, spec.k, out)
    print(f"spec: {spec}")
    print(f"wrote {len(albums)} albums, vocab size {vocab.size}, to {out}")
    return 0


def cmd_train(args):
    cfg = load_config(args.config) if args.config else TrainConfig()
    albums, vocab = load_dataset(args.data, min_count=cfg.min_count)
    _check_width(albums, cfg.k, "config")
    dims = ModelDims(k=cfg.k, d_s=cfg.d_s, d_g=cfg.d_g, d_w=cfg.d_w, vocab_size=vocab.size)
    run_name = args.run_name or f"run-{time.strftime('%Y%m%d-%H%M%S')}-seed{cfg.seed}"
    run_dir = Path(args.out) / run_name
    resolved = cfg.to_dict()
    print(f"run directory: {run_dir}")
    print(f"resolved config: {json.dumps(resolved, sort_keys=True)}")
    params = init_model(dims, Rng(cfg.seed), carry_state=cfg.carry_state,
                        enc_init_gain=cfg.enc_init_gain)
    curve = train(params, albums, cfg, log=print)  # a failed run makes no run directory
    run_dir.mkdir(parents=True, exist_ok=True)
    write_atomically(run_dir / "resolved_config.json",
                     [json.dumps(resolved, sort_keys=True, indent=2), "\n"])
    write_loss_curve(curve, run_dir / "loss_curve.csv")
    save_checkpoint(params, vocab, resolved, run_dir / "checkpoint.hat")
    print(f"checkpoint: {run_dir / 'checkpoint.hat'}")
    return 0


def cmd_generate(args):
    check_int("--beam", args.beam, 1)
    ck, albums, cfg = _load_for_eval(args)
    results = []
    for album in albums:
        story, selected = _generate_for_album(ck, album, cfg, args.beam, args.oracle_selection)
        rec = {
            "album_id": album.album_id,
            "sentences": [ck.vocab.decode(s) for s in story.sentences],
            "token_ids": story.sentences,
        }
        if selected is not None:
            rec["selected_photo_ids"] = selected
        results.append(rec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_atomically(out, [json.dumps(results, sort_keys=True, indent=2), "\n"])
    print(f"generated stories for {len(results)} albums -> {out}")
    return 0


def cmd_eval_gen(args):
    check_int("--beam", args.beam, 1)
    ck, albums, cfg = _load_for_eval(args)
    hyps, refs, per_item = [], [], []
    for album in albums:
        if not album.stories:
            continue
        story, _ = _generate_for_album(ck, album, cfg, args.beam, False)
        hyp_tokens = ck.vocab.decode([t for s in story.sentences for t in s]).split()
        ref_token_lists = [
            ck.vocab.decode([t for s in st.sentences for t in s]).split()
            for st in album.stories
        ]
        hyps.append(hyp_tokens)
        refs.append(ref_token_lists)
        per_item.append({"album_id": album.album_id, "hyp_len": len(hyp_tokens)})
    if not hyps:
        raise ConfigurationError("eval-gen: no albums with reference stories")
    aggregate = {
        "bleu_1": bleu_n(hyps, refs, 1),
        "bleu_2": bleu_n(hyps, refs, 2),
        "bleu_3": bleu_n(hyps, refs, 3),
        "cider": cider(hyps, refs),
        "albums": len(hyps),
        "beam": args.beam,
    }
    return _write_report(ck, args, "generation", aggregate, per_item)


def cmd_eval_summ(args):
    ck, albums, cfg = _load_for_eval(args)
    aggregate, per_item = evaluate_summaries(
        ck.params, albums, cfg.variant, cfg.beam_size, cfg.max_sentence_len
    )
    return _write_report(ck, args, "summarization", aggregate, per_item)


def cmd_eval_retrieval(args):
    check_int("--pool-size", args.pool_size, 0)
    ck, albums, cfg = _load_for_eval(args)
    pool = albums[: args.pool_size] if args.pool_size else albums
    pool = [a for a in pool if a.stories]
    aggregate, per_item = evaluate_retrieval(ck.params, pool, cfg.variant)
    return _write_report(ck, args, "retrieval", aggregate, per_item)


def cmd_gradcheck(args):
    started = time.perf_counter()
    checks = run_all(args.seed)
    ok = True
    for check in checks:
        rep = check.report
        status = "pass" if rep.passed else "FAIL"
        print(f"{check.name}: max_rel_err={rep.max_rel_err:.3e} {status}")
        ok = ok and rep.passed
    print(f"overall: {'pass' if ok else 'FAIL'} ({time.perf_counter() - started:.1f}s)")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def build_parser():
    p = argparse.ArgumentParser(
        prog="hatstory",
        description="Five-sentence album stories with learned latent photo selection.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic dataset file")
    s.add_argument("--albums", type=int, required=True)
    s.add_argument("--photos", type=int, default=10)
    s.add_argument("--k", type=int, default=16)
    s.add_argument("--classes", type=int, default=5)
    s.add_argument("--noise-sigma", type=float, default=0.05)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("train", help="train a model")
    s.add_argument("--data", required=True)
    s.add_argument("--config", help="JSON file mirroring TrainConfig fields")
    s.add_argument("--out", required=True, help="parent directory for the run")
    s.add_argument("--run-name", help="run directory name (default: timestamp+seed)")
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("generate", help="generate stories for every album")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--beam", type=int, default=3, help="beam width, at least 1")
    s.add_argument("--oracle-selection", action="store_true",
                   help="decode from the first ground-truth summary")
    s.add_argument("--out", required=True, help="output JSON path")
    s.set_defaults(func=cmd_generate)

    s = sub.add_parser("eval-gen", help="BLEU and CIDEr of generated stories")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--beam", type=int, default=3, help="beam width, at least 1")
    s.add_argument("--out", required=True, help="report directory")
    s.set_defaults(func=cmd_eval_gen)

    s = sub.add_parser("eval-summ", help="summarization precision/recall of the "
                       "checkpoint's selector, or of its attention for enc_attn_dec")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True, help="report directory")
    s.set_defaults(func=cmd_eval_summ)

    s = sub.add_parser("eval-retrieval", help="album retrieval by story likelihood")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--pool-size", type=int, default=0, help="0 = all albums")
    s.add_argument("--out", required=True, help="report directory")
    s.set_defaults(func=cmd_eval_retrieval)

    s = sub.add_parser("gradcheck", help="finite-difference self-check")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_gradcheck)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HatstoryError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
