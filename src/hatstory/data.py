"""Dataset types, tokenization, the JSON-lines album format, and the
synthetic album generator used for desk-scale experiments.

File format ("hatstory-v1"): UTF-8 JSON lines. Line 1 is a header
{"format": "hatstory-v1", "k": <int>}; every following line is one album:

    {"album_id": str,
     "photos": [{"photo_id": str, "features": [k floats]}, ...],
     "gt_summaries": [[5 photo_ids], ...],          # 0-2 lists
     "stories": [{"sentences": [5 strings]}, ...]}
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError, DataError, check_int, check_number
from .tensor import Rng

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")

SENTENCES_PER_STORY = 5
MIN_PHOTOS, MAX_PHOTOS = SENTENCES_PER_STORY, 50  # photos an album file may hold

_NUMBER_TYPES = {int, float}  # what JSON numbers parse to

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def word_tokens(text):
    """Lowercase and split on whitespace/punctuation boundaries."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Vocabulary:
    """Token ids: fixed specials 0-3, then corpus tokens with count >=
    min_count, ordered by descending frequency and then lexicographically."""

    id_to_token: list
    min_count: int = 1
    token_to_id: dict = field(init=False, repr=False)

    def __post_init__(self):
        if list(self.id_to_token[:4]) != list(SPECIAL_TOKENS):
            raise ContractError("Vocabulary: ids 0-3 must be the special tokens")
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ContractError("Vocabulary: duplicate token")

    @property
    def size(self):
        return len(self.id_to_token)

    @classmethod
    def build(cls, sentences, min_count=1):
        if min_count < 1:
            raise ConfigurationError("Vocabulary: min_count must be >= 1")
        counts = Counter()
        for text in sentences:
            counts.update(word_tokens(text))
        kept = sorted(
            (t for t, c in counts.items() if c >= min_count),
            key=lambda t: (-counts[t], t),
        )
        return cls(list(SPECIAL_TOKENS) + kept, min_count=min_count)

    def encode(self, text):
        """Token ids with unknowns mapped to UNK, EOS appended."""
        ids = [self.token_to_id.get(t, UNK_ID) for t in word_tokens(text)]
        ids.append(EOS_ID)
        return ids

    def decode(self, ids):
        """Plain-text rendering; specials other than UNK are dropped."""
        words = []
        for i in ids:
            if i in (PAD_ID, BOS_ID, EOS_ID):
                continue
            words.append(self.id_to_token[i] if 0 <= i < self.size else "<bad>")
        return " ".join(words)


@dataclass
class Story:
    """Exactly five sentences as EOS-terminated token-id lists; `texts`
    keeps the raw strings when the story came from (or goes to) a file."""

    sentences: list
    texts: list | None = None


@dataclass
class Album:
    album_id: str
    photo_ids: list
    features: np.ndarray  # (n, k) float64
    gt_summaries: list  # 0-2 lists of 5 photo_ids each
    stories: list  # list[Story]


def validate_story(story, album_id="?"):
    if len(story.sentences) != SENTENCES_PER_STORY:
        raise DataError(
            f"album {album_id}: story must have exactly {SENTENCES_PER_STORY} sentences, "
            f"got {len(story.sentences)}"
        )
    for sent in story.sentences:
        if not sent or sent[-1] != EOS_ID:
            raise DataError(f"album {album_id}: sentence must end with EOS")


# ---------------------------------------------------------------------------
# JSON-lines reading and writing

FORMAT_NAME = "hatstory-v1"


def _parse_header(line):
    try:
        header = json.loads(line)
    except json.JSONDecodeError:
        raise DataError("line 1: header is not valid JSON") from None
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise DataError(f'line 1: header must declare "format": "{FORMAT_NAME}"')
    k = header.get("k")
    if type(k) is not int or k < 1:  # bool is a subclass of int
        raise DataError("line 1: header needs a positive integer feature width k")
    return k


def _parse_album(obj, k, lineno):
    album_id = obj.get("album_id") if isinstance(obj, dict) else None
    where = f"line {lineno}" + (f" (album {album_id})" if album_id else "")
    if not isinstance(obj, dict) or not isinstance(album_id, str):
        raise DataError(f"{where}: album record must be an object with a string album_id")
    photos = obj.get("photos")
    if not isinstance(photos, list):
        raise DataError(f"{where}: missing photos list")
    if not MIN_PHOTOS <= len(photos) <= MAX_PHOTOS:
        raise DataError(
            f"{where}: photo count {len(photos)} outside allowed range "
            f"[{MIN_PHOTOS}, {MAX_PHOTOS}]"
        )
    photo_ids, rows = [], []
    for i, p in enumerate(photos):
        if not isinstance(p, dict) or not isinstance(p.get("photo_id"), str):
            raise DataError(f"{where}: photo {i} must have a string photo_id")
        fv = p.get("features")
        if not isinstance(fv, list) or len(fv) != k:
            raise DataError(
                f"{where}: photo {p['photo_id']} feature width "
                f"{len(fv) if isinstance(fv, list) else '?'} != header k={k}"
            )
        # numpy would also take numeric strings and booleans, so check types
        # first; exact types, because bool is a subclass of int
        if not set(map(type, fv)) <= _NUMBER_TYPES:
            j = next(j for j, x in enumerate(fv) if type(x) not in _NUMBER_TYPES)
            raise DataError(
                f"{where}: photo {p['photo_id']} features[{j}] is {fv[j]!r}, "
                "not a JSON number"
            )
        rows.append(fv)
        photo_ids.append(p["photo_id"])
    try:
        feats = np.array(rows, dtype=np.float64)
    except OverflowError:  # an integer literal beyond the float range
        feats = np.array([[x if abs(x) <= sys.float_info.max else math.inf for x in fv]
                          for fv in rows])
    bad = np.argwhere(~np.isfinite(feats))
    if bad.size:
        i, j = bad[0]
        raise DataError(
            f"{where}: photo {photo_ids[i]} features[{j}] is "
            f"{photos[i]['features'][j]!r}, not finite"
        )
    if len(set(photo_ids)) != len(photo_ids):
        raise DataError(f"{where}: duplicate photo_id")
    gt = obj.get("gt_summaries", [])
    if not isinstance(gt, list) or len(gt) > 2:
        raise DataError(f"{where}: gt_summaries must be a list of at most 2 summaries")
    for i, s in enumerate(gt):
        if not isinstance(s, list):
            raise DataError(f"{where}: each gt summary must list 5 distinct photo_ids")
        for j, pid in enumerate(s):
            if not isinstance(pid, str):
                raise DataError(
                    f"{where}: gt_summaries[{i}][{j}] is {pid!r}, not a photo_id string"
                )
        if len(s) != 5 or len(set(s)) != 5:
            raise DataError(f"{where}: each gt summary must list 5 distinct photo_ids")
        for pid in s:
            if pid not in photo_ids:
                raise DataError(f"{where}: gt summary references unknown photo {pid!r}")
    stories = obj.get("stories", [])
    if not isinstance(stories, list):
        raise DataError(f"{where}: stories must be a list")
    texts = []
    for s in stories:
        sents = s.get("sentences") if isinstance(s, dict) else None
        if not isinstance(sents, list) or len(sents) != SENTENCES_PER_STORY or not all(
            isinstance(x, str) for x in sents
        ):
            raise DataError(
                f"{where}: each story needs exactly {SENTENCES_PER_STORY} string sentences"
            )
        texts.append(list(sents))
    return album_id, photo_ids, feats, [list(s) for s in gt], texts


def load_dataset(path, min_count=1, vocab=None):
    """Read a hatstory-v1 file.

    Returns (albums, vocabulary). When `vocab` is given (e.g. from a
    checkpoint) it is used for tokenization instead of building a fresh one,
    so ids stay aligned with the model that will consume the stories.
    """
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except UnicodeDecodeError as e:  # reading the whole file decodes all its bytes at once
        lineno = e.object.count(b"\n", 0, e.start) + 1
        raise DataError(f"line {lineno}: not UTF-8 text") from None
    if not lines:
        raise DataError("line 1: empty file, expected format header")
    k = _parse_header(lines[0])
    parsed = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            raise DataError(f"line {lineno}: invalid JSON") from None
        parsed.append(_parse_album(obj, k, lineno))
    return _albums(parsed, vocab, min_count)


def _albums(records, vocab=None, min_count=1):
    """(albums, vocabulary) from (album_id, photo_ids, features, ground truth,
    story texts) records, the vocabulary built from every sentence unless given."""
    if vocab is None:
        vocab = Vocabulary.build([t for *_, texts in records for story in texts for t in story],
                                 min_count=min_count)
    return [Album(album_id, photo_ids, feats, gt,
                  [Story(sentences=[vocab.encode(t) for t in story], texts=list(story))
                   for story in texts])
            for album_id, photo_ids, feats, gt, texts in records], vocab


def save_dataset(albums, k, path):
    """Write albums (which must carry raw story texts and finite features) as
    hatstory-v1; an album that `load_dataset` would reject writes nothing."""
    lines = [json.dumps({"format": FORMAT_NAME, "k": int(k)}, sort_keys=True)]
    for album in albums:
        if album.features.shape[1] != k:
            raise ContractError(
                f"save_dataset: album {album.album_id} feature width "
                f"{album.features.shape[1]} != k={k}"
            )
        bad = np.argwhere(~np.isfinite(album.features))
        if bad.size:  # JSON has no infinities; the file would not load
            i, j = bad[0]
            raise ContractError(
                f"save_dataset: album {album.album_id} photo {album.photo_ids[i]} "
                f"features[{j}] is {float(album.features[i, j])}, not finite"
            )
        for story in album.stories:
            if story.texts is None:
                raise ContractError(
                    f"save_dataset: album {album.album_id} story lacks raw texts"
                )
        rec = {
            "album_id": album.album_id,
            "photos": [
                {"photo_id": pid, "features": features}
                for pid, features in zip(album.photo_ids,
                                         album.features.astype(np.float64, copy=False).tolist())
            ],
            "gt_summaries": album.gt_summaries,
            "stories": [{"sentences": story.texts} for story in album.stories],
        }
        lines.append(json.dumps(rec, sort_keys=True))
    write_atomically(path, ["\n".join(lines), "\n"])


def write_atomically(path, parts, mode="w"):
    """Write `parts`, strings (`mode` "w", UTF-8) or bytes ("wb"), to `path`
    all or nothing: into a new file in the same directory, which then
    replaces `path`. On a failure that file is removed, and the old one left
    as it was."""
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, mode.replace("w", "x"), encoding=None if "b" in mode else "utf-8") as f:
            f.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# synthetic albums

_CLASS_NOUNS = [
    "beach", "forest", "castle", "market", "garden",
    "harbor", "museum", "meadow", "bridge", "tower",
]

_TEMPLATES = [
    "we saw the {noun} .",
    "the {noun} was lovely .",
    "here is the {noun} .",
    "a quiet {noun} .",
]


def class_noun(c):
    return _CLASS_NOUNS[c] if c < len(_CLASS_NOUNS) else f"place{c}"


@dataclass
class SynthSpec:
    """Synthetic data knobs. Salient photos carry a unit class indicator in
    coordinates [0, classes) plus Gaussian noise; the rest are noise only."""

    albums: int
    n: int = 10
    k: int = 16
    classes: int = 5
    seed: int = 0
    noise_sigma: float = 0.05

    def __post_init__(self):
        check_int("albums", self.albums, 1)
        check_int("n", self.n, MIN_PHOTOS, MAX_PHOTOS)  # what a dataset file may hold
        check_int("classes", self.classes, 1)
        check_int("k", self.k, self.classes + 1)
        check_number("noise_sigma", self.noise_sigma, 0)


def synth_generate(spec):
    """Deterministically generate albums from a SynthSpec.

    Each album plants 5 distinct salient positions (in temporal order) with
    one class each; its single story tells one templated sentence per
    salient photo. Returns (albums, vocabulary).
    """
    rng = Rng(spec.seed)
    raw = []
    for a in range(spec.albums):
        album_id = f"synth-{a:03d}"
        positions = rng.sample_distinct(spec.n, SENTENCES_PER_STORY)
        classes = [rng.integers(0, spec.classes) for _ in positions]
        try:
            feats = rng.normal(spec.noise_sigma, (spec.n, spec.k))
        except (MemoryError, ValueError) as e:  # numpy refused the shape or its bytes
            raise ConfigurationError(f"k={spec.k} features for each of {spec.n} photos "
                                     f"are more than can be allocated ({e})") from None
        for pos, c in zip(positions, classes):
            feats[pos, c] += 1.0
        photo_ids = [f"{album_id}-p{i:02d}" for i in range(spec.n)]
        sentences = [
            _TEMPLATES[rng.integers(0, len(_TEMPLATES))].format(noun=class_noun(c))
            for c in classes
        ]
        gt = [[photo_ids[p] for p in positions]]
        raw.append((album_id, photo_ids, feats, gt, [sentences]))
    return _albums(raw)
