"""Evaluation: summarization precision/recall, n-gram generation metrics
(corpus BLEU and CIDEr, both from first principles), and album retrieval
by generation likelihood."""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError
from .model import (
    album_row,
    enc_attn_dec_generate,
    encode_album,
    group_by_photo_count,
    select_summary,
    variant_log_prob,
)


# ---------------------------------------------------------------------------
# summarization


def summary_precision_recall(predicted, gt_sets):
    """Set overlap of 5 predicted photo ids against the union of the
    ground-truth summaries: precision = |hit| / 5, recall = |hit| / |union|."""
    predicted = list(predicted)
    if len(predicted) != 5 or len(set(predicted)) != 5:
        raise ContractError(f"summary_precision_recall: need 5 distinct ids, got {predicted}")
    union = set().union(*gt_sets)
    if not union:
        raise ContractError("summary_precision_recall: ground-truth union is empty")
    hits = len(set(predicted) & union)
    return hits / 5.0, hits / len(union)


def attention_aggregate_topk(attention, k=5):
    """Photo indices with the largest column sums of a (T, n) attention
    matrix; ties go to the lower index."""
    attention = np.asarray(attention, dtype=np.float64)
    if attention.ndim != 2 or attention.shape[0] < 1:
        raise ContractError(f"attention_aggregate_topk: need (T, n), got {attention.shape}")
    n = attention.shape[1]
    if n < k:
        raise ContractError(f"attention_aggregate_topk: only {n} photos for top-{k}")
    sums = attention.sum(axis=0)
    return sorted(range(n), key=lambda i: (-sums[i], i))[:k]


# ---------------------------------------------------------------------------
# corpus BLEU


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_n(hypotheses, references, n=3):
    """Corpus-level BLEU with clipped n-gram precision.

    `references[i]` is the list of reference token sequences for item i.
    Geometric mean of p_1..p_n over orders that have any hypothesis n-grams;
    0.0 outright if some counted order has zero matches. Brevity penalty
    exp(1 - r/c) when the hypothesis corpus is not longer than the closest
    reference lengths r (ties toward the shorter reference)."""
    if not hypotheses or len(hypotheses) != len(references):
        raise ContractError("bleu_n: need equally many hypotheses and reference lists")
    if n < 1:
        raise ContractError("bleu_n: n must be >= 1")
    matches = [0] * n
    totals = [0] * n
    hyp_len = 0
    ref_len = 0
    for hyp, refs in zip(hypotheses, references):
        if not refs:
            raise ContractError("bleu_n: every item needs at least one reference")
        hyp = list(hyp)
        hyp_len += len(hyp)
        ref_len += min((len(r) for r in refs), key=lambda L: (abs(L - len(hyp)), L))
        for order in range(1, n + 1):
            hc = _ngrams(hyp, order)
            if not hc:
                continue
            best = Counter()  # each n-gram's largest count in one reference
            for r in refs:
                best |= _ngrams(list(r), order)
            totals[order - 1] += sum(hc.values())
            matches[order - 1] += sum(min(c, best[gram]) for gram, c in hc.items())
    precisions = []
    for m, t in zip(matches, totals):
        if t == 0:
            continue  # no hypothesis n-grams of this order anywhere in the corpus
        if m == 0:
            return 0.0
        precisions.append(m / t)
    if not precisions or hyp_len == 0:
        return 0.0
    geo = math.exp(sum(math.log(p) for p in precisions) / len(precisions))
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * geo


# ---------------------------------------------------------------------------
# CIDEr


def _tfidf_vector(tokens, order, doc_freq, num_items):
    counts = _ngrams(tokens, order)
    return {
        gram: c * (math.log(num_items) - math.log(max(doc_freq.get(gram, 0), 1)))
        for gram, c in counts.items()
    }


def _cosine(a, b):
    na = math.sqrt(sum(x * x for x in a.values()))
    nb = math.sqrt(sum(x * x for x in b.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    dot = sum(v * b[g] for g, v in a.items() if g in b)
    return dot / (na * nb)


def cider(hypotheses, references, max_order=4):
    """Mean over items of 10 x average over n = 1..4 of the TF-IDF cosine
    between hypothesis and each reference (averaged over references).

    IDF counts, per n-gram, the number of items whose reference set
    contains it: idf = log(N / max(df, 1)). No length penalty."""
    if not hypotheses or len(hypotheses) != len(references):
        raise ContractError("cider: need equally many hypotheses and reference lists")
    num_items = len(hypotheses)
    doc_freq = [Counter() for _ in range(max_order)]
    for refs in references:
        if not refs:
            raise ContractError("cider: every item needs at least one reference")
        for order in range(1, max_order + 1):
            doc_freq[order - 1].update(set().union(*(_ngrams(list(r), order) for r in refs)))
    item_scores = []
    for hyp, refs in zip(hypotheses, references):
        per_order = []
        for order in range(1, max_order + 1):
            hv = _tfidf_vector(list(hyp), order, doc_freq[order - 1], num_items)
            sims = [
                _cosine(hv, _tfidf_vector(list(r), order, doc_freq[order - 1], num_items))
                for r in refs
            ]
            per_order.append(sum(sims) / len(sims))
        item_scores.append(10.0 * sum(per_order) / max_order)
    return sum(item_scores) / num_items


# ---------------------------------------------------------------------------
# retrieval


def retrieval_scores(params, story, album_features_list, variant="hier"):
    """Story log-likelihood against each candidate album (soft selection for
    the full model), in pool order, without the tape. Each group of albums
    with one photo count is one `variant_log_prob` over (A, n, k) rows, every
    row reading the same story. The values equal per-album calls up to
    rounding, because a matrix product over rows may round differently from
    the vector products of one row."""
    if not album_features_list:
        raise ContractError("retrieval_scores: empty album pool")
    scores = [0.0] * len(album_features_list)
    for rows, features in group_by_photo_count(params, album_features_list):
        lps = variant_log_prob(params, features, [story] * len(rows), variant)
        for i, lp in zip(rows, lps.data.tolist()):
            scores[i] = lp
    return scores


def rank_of(scores, true_index):
    """1-based rank of the true album under descending score; a tie counts
    the lower album index first."""
    if not 0 <= true_index < len(scores):
        raise ContractError(f"rank_of: true index {true_index} outside pool")
    s = scores[true_index]
    ahead = sum(1 for x in scores if x > s)
    tied_before = sum(1 for i, x in enumerate(scores[:true_index]) if x == s)
    return 1 + ahead + tied_before


def recall_at_k(ranks, k):
    if not ranks:
        raise ContractError("recall_at_k: no ranks")
    return sum(1 for r in ranks if r <= k) / len(ranks)


def median_rank(ranks):
    if not ranks:
        raise ContractError("median_rank: no ranks")
    ordered, mid = sorted(ranks), len(ranks) // 2
    return float(ordered[mid]) if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def evaluate_retrieval(params, pool, variant="hier"):
    """Rank every album of the pool by the likelihood of its first story
    against all of them. Returns (aggregate, per_item)."""
    if not pool:
        raise ContractError("evaluate_retrieval: no albums with stories")
    features = [a.features for a in pool]
    per_item = []
    for i, album in enumerate(pool):
        scores = retrieval_scores(params, album.stories[0], features, variant)
        per_item.append({"album_id": album.album_id, "rank": rank_of(scores, i)})
    ranks = [item["rank"] for item in per_item]
    aggregate = {
        "recall_at_1": recall_at_k(ranks, 1),
        "recall_at_5": recall_at_k(ranks, 5),
        "recall_at_10": recall_at_k(ranks, 10),
        "median_rank": median_rank(ranks),
        "pool_size": len(pool),
    }
    return aggregate, per_item


# ---------------------------------------------------------------------------
# report container


@dataclass
class MetricReport:
    task: str
    aggregate: dict
    per_item: list = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def to_csv(self):
        """Flat per-item table, its fields quoted where CSV needs it;
        aggregate values appear as a final row."""
        keys = sorted({k for item in self.per_item for k in item})
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["row"] + keys)
        for i, item in enumerate(self.per_item):
            writer.writerow([i] + [repr(item.get(k, "")) for k in keys])
        agg = ";".join(f"{k}={v!r}" for k, v in sorted(self.aggregate.items()))
        writer.writerow(["aggregate", agg] + [""] * (len(keys) - 1))
        return out.getvalue()


def hard_selection_ids(params, album):
    """Predicted summary photo ids under hard selection, the album as one row."""
    enc = encode_album(params, album_row(params, album.features))
    sel = select_summary(params, enc, "hard")
    return [album.photo_ids[i] for i in sel.indices[0]]


def evaluate_summaries(params, albums, variant="hier", beam=3, max_len=12):
    """Summary precision/recall of every album with ground-truth summaries,
    the photos picked as the model variant picks them. The full model's come
    from hard selection; the attention baseline's are its top 5 photos by
    attention summed over the sentences it generates with the given beam and
    length cap. The flat baseline picks no photos: a ConfigurationError.
    Returns (aggregate, per_item)."""
    methods = {"hier": "hard-selection", "enc_attn_dec": "attn-agg"}
    if variant not in methods:
        raise ConfigurationError(f"summarization needs a model that picks photos (hier or "
                                 f"enc_attn_dec), not the {variant!r} variant")
    per_item = []
    for album in albums:
        if not album.gt_summaries:
            continue
        if variant == "enc_attn_dec":
            _, attn = enc_attn_dec_generate(params, album.features, beam, max_len)
            pred = [album.photo_ids[i] for i in attention_aggregate_topk(attn, 5)]
        else:
            pred = hard_selection_ids(params, album)
        p, r = summary_precision_recall(pred, album.gt_summaries)
        per_item.append(
            {"album_id": album.album_id, "precision": p, "recall": r, "predicted": pred}
        )
    if not per_item:
        raise ContractError("evaluate_summaries: no albums with ground-truth summaries")
    precisions = [item["precision"] for item in per_item]
    recalls = [item["recall"] for item in per_item]
    aggregate = {
        "precision": sum(precisions) / len(precisions),
        "recall": sum(recalls) / len(recalls),
        "albums": len(per_item),
        "method": methods[variant],
    }
    return aggregate, per_item
