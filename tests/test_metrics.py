"""Metric tests: exact hand-worked BLEU values, an independent CIDEr
recomputation, set-overlap summarization scoring, and retrieval ranking.
"""

import csv
import hashlib
import io
import json
import math

import numpy as np
import pytest

from hatstory.data import Story, SynthSpec, synth_generate
from hatstory.errors import ContractError
from hatstory.metrics import (
    MetricReport,
    attention_aggregate_topk,
    bleu_n,
    cider,
    hard_selection_ids,
    median_rank,
    rank_of,
    recall_at_k,
    retrieval_scores,
    summary_precision_recall,
)
from hatstory.errors import DimensionError
from hatstory.model import (
    ModelDims,
    conditioner,
    encode_album,
    init_model,
    select_summary,
    story_log_prob,
)
from hatstory.tensor import Rng
from hatstory.training import VARIANTS, variant_log_prob


def toks(text):
    return text.split()


# ---------------------------------------------------------------------------
# BLEU


def test_bleu3_hand_example():
    # hyp "a b c d" vs ref "a b c e":
    #   p1 = 3/4, p2 = 2/3, p3 = 1/2 -> geometric mean = 0.25^(1/3)
    #   equal lengths -> brevity penalty 1
    value = bleu_n([toks("a b c d")], [[toks("a b c e")]], n=3)
    assert abs(value - 0.25 ** (1.0 / 3.0)) < 1e-12
    assert abs(value - 0.62996) < 1e-5


def test_bleu_identical_corpus_scores_one():
    hyps = [toks("the cat sat"), toks("a dog ran far")]
    refs = [[toks("the cat sat")], [toks("a dog ran far")]]
    for n in (1, 2, 3, 4):
        assert bleu_n(hyps, refs, n=n) == 1.0


def test_bleu_zero_matches_at_counted_order_is_zero():
    # all unigrams match but no bigram does
    assert bleu_n([toks("a b c")], [[toks("c b a")]], n=2) == 0.0


def test_bleu_brevity_penalty_short_hypothesis():
    value = bleu_n([toks("a b")], [[toks("a b c d")]], n=2)
    assert abs(value - math.exp(1.0 - 4.0 / 2.0)) < 1e-12


def test_bleu_brevity_tie_prefers_shorter_reference():
    # |refs| at lengths 2 and 4 are equally close to the length-3 hypothesis;
    # picking the shorter one (r=2 < c=3) leaves the penalty at 1
    value = bleu_n([toks("a b c")], [[toks("a b"), toks("a b c d")]], n=3)
    assert value == 1.0


def test_bleu_orders_without_hypothesis_ngrams_are_skipped():
    # a one-token corpus has no bigrams or trigrams; only p1 counts
    assert bleu_n([["a"]], [[["a"]]], n=3) == 1.0


def test_bleu_multi_reference_clipping():
    # "a a" against refs "a" and "a a a": best count for "a" is 3 -> p1 = 1
    value = bleu_n([toks("a a")], [[toks("a"), toks("a a a")]], n=1)
    # closest ref length to 2: |1-2| == |3-2| -> shorter (1) -> c=2 > r=1 -> bp=1
    assert value == 1.0
    # against only the short reference the count clips at 1 -> p1 = 1/2,
    # and a longer-than-reference hypothesis pays no brevity penalty
    value = bleu_n([toks("a a")], [[toks("a")]], n=1)
    assert value == 0.5


def test_bleu_validation():
    with pytest.raises(ContractError):
        bleu_n([], [])
    with pytest.raises(ContractError):
        bleu_n([["a"]], [])
    with pytest.raises(ContractError):
        bleu_n([["a"]], [[]])
    with pytest.raises(ContractError):
        bleu_n([["a"]], [[["a"]]], n=0)


# ---------------------------------------------------------------------------
# CIDEr


def cider_reference(hyps, refs_list, max_order=4):
    """Independent recomputation: same definition, different code path
    (ratio-form idf, explicit gram unions, numpy cosines)."""
    num = len(hyps)
    df = [dict() for _ in range(max_order)]
    for refs in refs_list:
        for order in range(1, max_order + 1):
            grams = set()
            for r in refs:
                grams.update(
                    tuple(r[i : i + order]) for i in range(len(r) - order + 1)
                )
            for g in grams:
                df[order - 1][g] = df[order - 1].get(g, 0) + 1

    def tfidf(tokens, order):
        counts = {}
        for i in range(len(tokens) - order + 1):
            g = tuple(tokens[i : i + order])
            counts[g] = counts.get(g, 0) + 1
        return {
            g: c * math.log(num / max(df[order - 1].get(g, 0), 1))
            for g, c in counts.items()
        }

    def cosine(a, b):
        grams = sorted(set(a) | set(b))
        va = np.array([a.get(g, 0.0) for g in grams])
        vb = np.array([b.get(g, 0.0) for g in grams])
        na, nb = np.linalg.norm(va), np.linalg.norm(vb)
        if na == 0.0 or nb == 0.0:
            return 0.0
        return float(va @ vb / (na * nb))

    scores = []
    for hyp, refs in zip(hyps, refs_list):
        per_order = []
        for order in range(1, max_order + 1):
            hv = tfidf(hyp, order)
            sims = [cosine(hv, tfidf(r, order)) for r in refs]
            per_order.append(sum(sims) / len(sims))
        scores.append(10.0 * sum(per_order) / max_order)
    return sum(scores) / num


def test_cider_matches_independent_recomputation():
    hyps = [
        toks("the cat sat on the mat"),
        toks("a dog ran"),
        toks("birds fly high"),
    ]
    refs = [
        [toks("the cat sat on a mat"), toks("a cat was sitting on the mat")],
        [toks("the dog ran fast"), toks("a dog ran")],
        [toks("the birds fly so high")],
    ]
    ours = cider(hyps, refs)
    theirs = cider_reference(hyps, refs)
    assert abs(ours - theirs) < 1e-9
    assert 0.0 < ours < 10.0


def test_cider_disjoint_perfect_matches_score_ten():
    # per-item vocabularies never overlap, so every gram has df = 1 and a
    # positive idf; identical hypothesis and reference -> cosine 1 everywhere
    hyps = [toks("w0a w0b w0c w0d"), toks("w1a w1b w1c w1d"), toks("w2a w2b w2c w2d")]
    refs = [[list(h)] for h in hyps]
    assert abs(cider(hyps, refs) - 10.0) < 1e-12


def test_cider_single_item_corpus_degenerates_to_zero():
    # with N = 1 every reference gram has idf = log(1/1) = 0
    assert cider([toks("a b c d")], [[toks("a b c d")]]) == 0.0


def test_cider_validation():
    with pytest.raises(ContractError):
        cider([], [])
    with pytest.raises(ContractError):
        cider([["a"]], [[]])


# ---------------------------------------------------------------------------
# summarization scoring


def test_summary_precision_recall_counting():
    gt = [["A", "B", "C", "D", "E"], ["D", "E", "F", "G", "H"]]
    precision, recall = summary_precision_recall(["A", "B", "D", "F", "X"], gt)
    assert precision == 4 / 5
    assert recall == 4 / 8  # union has 8 photos, 4 were hit
    precision, recall = summary_precision_recall(["A", "B", "C", "D", "E"], [gt[0]])
    assert precision == 1.0 and recall == 1.0
    precision, recall = summary_precision_recall(["x1", "x2", "x3", "x4", "x5"], [gt[0]])
    assert precision == 0.0 and recall == 0.0


def test_summary_precision_recall_validation():
    gt = [["A", "B", "C", "D", "E"]]
    with pytest.raises(ContractError):
        summary_precision_recall(["A", "B", "C", "D"], gt)
    with pytest.raises(ContractError):
        summary_precision_recall(["A", "A", "B", "C", "D"], gt)
    with pytest.raises(ContractError):
        summary_precision_recall(["A", "B", "C", "D", "E"], [])


def test_attention_aggregate_topk_sorts_column_sums_with_tie_rule():
    sums = np.array([1.0, 2.0, 2.0, 0.5, 3.0, 1.0])
    attention = np.stack([sums * 0.25, sums * 0.75])
    assert attention_aggregate_topk(attention, k=5) == [4, 1, 2, 0, 5]
    assert attention_aggregate_topk(attention, k=6) == [4, 1, 2, 0, 5, 3]


def test_attention_aggregate_topk_validation():
    with pytest.raises(ContractError):
        attention_aggregate_topk(np.ones(5))
    with pytest.raises(ContractError):
        attention_aggregate_topk(np.ones((2, 4)), k=5)


# ---------------------------------------------------------------------------
# retrieval ranking


def test_rank_of_descending_with_ties_to_lower_index():
    scores = [-1.0, -2.0, -1.0, -3.0]
    assert rank_of(scores, 0) == 1
    assert rank_of(scores, 2) == 2  # tied with index 0, which counts first
    assert rank_of(scores, 1) == 3
    assert rank_of(scores, 3) == 4
    with pytest.raises(ContractError):
        rank_of(scores, 4)


def test_recall_at_k_and_median_rank():
    ranks = [1, 2, 3, 10]
    assert recall_at_k(ranks, 1) == 0.25
    assert recall_at_k(ranks, 3) == 0.75
    assert recall_at_k(ranks, 10) == 1.0
    assert median_rank(ranks) == 2.5  # even count: mean of the middle two
    assert median_rank([1, 3, 7]) == 3.0
    with pytest.raises(ContractError):
        recall_at_k([], 1)
    with pytest.raises(ContractError):
        median_rank([])


# Batched products round differently from one row's vector products.
SCORE_RTOL = 1e-12


def assert_close_to_variant_log_probs(params, story, pool, scores, variant="hier"):
    assert len(scores) == len(pool)
    for features, score in zip(pool, scores):
        direct = float(variant_log_prob(params, features, story, variant).data)
        assert abs(score - direct) <= SCORE_RTOL * abs(direct)


def test_retrieval_scores_are_per_album_log_probs():
    albums, vocab = synth_generate(SynthSpec(albums=3, n=5, k=6, classes=5, seed=1))
    dims = ModelDims(k=6, d_s=4, d_g=4, d_w=3, vocab_size=vocab.size)
    params = init_model(dims, Rng(0))
    story = albums[1].stories[0]
    pool = [a.features for a in albums]
    scores = retrieval_scores(params, story, pool)
    assert_close_to_variant_log_probs(params, story, pool, scores)
    with pytest.raises(ContractError):
        retrieval_scores(params, story, [])


@pytest.mark.parametrize("carry_state", [True, False], ids=["carry", "reset"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_retrieval_matches_each_album_scored_alone(variant, carry_state):
    albums, vocab = synth_generate(SynthSpec(albums=6, n=7, k=8, classes=5, seed=4))
    dims = ModelDims(k=8, d_s=6, d_g=5, d_w=4, vocab_size=vocab.size)
    params = init_model(dims, Rng(2), carry_state=carry_state)
    story = albums[2].stories[0]
    pool = [a.features for a in albums]
    scores = retrieval_scores(params, story, pool, variant)
    assert_close_to_variant_log_probs(params, story, pool, scores, variant)


@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_retrieval_keeps_pool_order_across_photo_counts(variant):
    pool, story = [], None
    for n, seed in ((7, 11), (5, 12), (10, 13)):
        albums, _ = synth_generate(SynthSpec(albums=2, n=n, k=6, classes=5, seed=seed))
        pool.extend(a.features for a in albums)
        story = story or albums[0].stories[0]
    pool = pool[::2] + pool[1::2]  # photo counts 7, 5, 10, 7, 5, 10
    dims = ModelDims(k=6, d_s=4, d_g=4, d_w=3, vocab_size=30)
    params = init_model(dims, Rng(5))
    scores = retrieval_scores(params, story, pool, variant)
    assert_close_to_variant_log_probs(params, story, pool, scores, variant)
    assert len(set(scores)) == len(scores)


# The scores of every variant, carry_state on then off, over the pool below,
# as float64 bytes: pinned when each sentence was its own decoder op, so a
# story scored as one op gives the same scores bit for bit.
POOL_SCORES_SHA256 = "f64b0d8f9b06e19e8e35fba4a45c6cbe5b78beafd958c29d123b7660619f193f"


def test_retrieval_scores_are_pinned_bitwise():
    pool, story = [], None
    for n, seed in ((7, 31), (5, 32)):
        albums, _ = synth_generate(SynthSpec(albums=3, n=n, k=6, classes=5, seed=seed))
        pool.extend(a.features for a in albums)
        story = story or albums[0].stories[0]
    dims = ModelDims(k=6, d_s=4, d_g=4, d_w=3, vocab_size=30)
    digest = hashlib.sha256()
    for carry_state in (True, False):
        params = init_model(dims, Rng(8), carry_state=carry_state)
        for variant in VARIANTS:
            digest.update(np.asarray(retrieval_scores(params, story, pool, variant)).tobytes())
    assert digest.hexdigest() == POOL_SCORES_SHA256


def test_batched_retrieval_keeps_its_error_types():
    albums, vocab = synth_generate(SynthSpec(albums=2, n=5, k=6, classes=5, seed=1))
    params = init_model(ModelDims(k=6, d_s=4, d_g=4, d_w=3, vocab_size=vocab.size), Rng(0))
    story = albums[0].stories[0]
    pool = [a.features for a in albums]
    for variant in VARIANTS:
        with pytest.raises(ContractError):
            retrieval_scores(params, story, [], variant)
        with pytest.raises(DimensionError):
            retrieval_scores(params, story, [pool[0], pool[1][:, :4]], variant)
        with pytest.raises(ContractError):
            retrieval_scores(params, Story(sentences=story.sentences[:4]), pool, variant)
        with pytest.raises(ContractError, match="story_log_prob: story 0 has an empty sentence 0"):
            retrieval_scores(params, Story(sentences=[[]] * 5), pool, variant)


def test_hard_selection_ids_and_soft_log_prob_helpers():
    albums, vocab = synth_generate(SynthSpec(albums=1, n=6, k=6, classes=5, seed=2))
    dims = ModelDims(k=6, d_s=4, d_g=4, d_w=3, vocab_size=vocab.size)
    params = init_model(dims, Rng(3))
    album = albums[0]
    ids = hard_selection_ids(params, album)
    enc = encode_album(params, album.features[None])
    sel = select_summary(params, enc, "hard")
    assert ids == [album.photo_ids[i] for i in sel.indices[0]]
    condition, _ = conditioner(params, enc, "hier")
    lp = story_log_prob(params, condition, [album.stories[0]])
    one = variant_log_prob(params, album.features, album.stories[0])
    assert float(lp.data[0]) == float(one.data)


# ---------------------------------------------------------------------------
# report container


def test_metric_report_json_and_csv():
    report = MetricReport(
        task="eval",
        aggregate={"bleu3": 0.5, "cider": 1.25},
        per_item=[{"bleu3": 0.4}, {"bleu3": 0.6, "extra": ["a, b", "c"]}],
        fingerprint={"seed": 7},
    )
    parsed = json.loads(report.to_json())
    assert parsed["task"] == "eval"
    assert parsed["aggregate"] == {"bleu3": 0.5, "cider": 1.25}
    assert parsed["fingerprint"] == {"seed": 7}

    csv_text = report.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "row,bleu3,extra"
    assert lines[1].startswith("0,")
    assert lines[-1].startswith("aggregate,")
    assert "bleu3=0.5" in lines[-1]
    # a comma inside a field is quoted, so every row reads back as wide as the header
    assert [len(fields) for fields in csv.reader(io.StringIO(csv_text))] == [3, 3, 3, 3]
