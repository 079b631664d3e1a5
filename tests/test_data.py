"""Data-layer tests: tokenization, vocabulary construction, JSON-lines
dataset IO with precise error reporting, and the synthetic album generator.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatstory.data import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    SENTENCES_PER_STORY,
    SPECIAL_TOKENS,
    UNK_ID,
    Album,
    Story,
    SynthSpec,
    Vocabulary,
    class_noun,
    load_dataset,
    save_dataset,
    synth_generate,
    validate_story,
    word_tokens,
)
from hatstory.errors import ConfigurationError, ContractError, DataError, HatstoryError
from conftest import byte_edits, json_edits, template_sentences


# ---------------------------------------------------------------------------
# tokenization and vocabulary


def test_word_tokens_lowercases_and_splits_punctuation():
    assert word_tokens("The dog ran.") == ["the", "dog", "ran", "."]
    assert word_tokens("Hello,   world!") == ["hello", ",", "world", "!"]
    assert word_tokens("") == []


def test_vocabulary_orders_by_count_then_token():
    vocab = Vocabulary.build(["b b b", "a a", "c a"])
    # a and b tie at 3 -> alphabetical; ids start after the four specials
    assert vocab.id_to_token[:4] == list(SPECIAL_TOKENS)
    assert vocab.id_to_token[4:] == ["a", "b", "c"]
    assert vocab.size == 7


def test_vocabulary_min_count_maps_rare_words_to_unk():
    vocab = Vocabulary.build(["a a b"], min_count=2)
    assert "b" not in vocab.token_to_id
    assert vocab.encode("a b") == [vocab.token_to_id["a"], UNK_ID, EOS_ID]
    with pytest.raises(ConfigurationError):
        Vocabulary.build(["a"], min_count=0)


def test_vocabulary_encode_appends_eos():
    vocab = Vocabulary.build(["the dog ."])
    ids = vocab.encode("The dog .")
    assert ids[-1] == EOS_ID
    assert len(ids) == 4  # the, dog, ., EOS
    assert all(i >= 4 for i in ids[:-1])
    assert vocab.encode("") == [EOS_ID]


def test_vocabulary_decode_drops_structural_specials():
    vocab = Vocabulary.build(["the dog ."])
    ids = [BOS_ID] + vocab.encode("the dog .") + [PAD_ID]
    assert vocab.decode(ids) == "the dog ."
    assert vocab.decode([UNK_ID, EOS_ID]) == "<unk>"
    assert vocab.decode([99]) == "<bad>"


def test_vocabulary_requires_special_prefix_and_unique_tokens():
    with pytest.raises(ContractError):
        Vocabulary(["a", "b", "c", "d"])
    with pytest.raises(ContractError):
        Vocabulary(list(SPECIAL_TOKENS) + ["a", "a"])


def test_validate_story_contract():
    with pytest.raises(DataError):
        validate_story(Story(sentences=[[2]] * 4), "al")
    with pytest.raises(DataError):
        validate_story(Story(sentences=[[4, 2]] * 4 + [[4]]), "al")
    validate_story(Story(sentences=[[4, 2]] * 5), "al")  # no error


# ---------------------------------------------------------------------------
# dataset files


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def header(k=4):
    return json.dumps({"format": "hatstory-v1", "k": k})


def album_record(n=5, k=4, album_id="a1", **overrides):
    rec = {
        "album_id": album_id,
        "photos": [
            {"photo_id": f"{album_id}-p{i}", "features": [float(i)] * k}
            for i in range(n)
        ],
        "gt_summaries": [[f"{album_id}-p{i}" for i in range(5)]] if n >= 5 else [],
        "stories": [{"sentences": ["we saw it ."] * SENTENCES_PER_STORY}],
    }
    rec.update(overrides)
    return rec


def test_load_dataset_happy_path(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [header(), json.dumps(album_record())])
    albums, vocab = load_dataset(path)
    assert len(albums) == 1
    album = albums[0]
    assert album.album_id == "a1"
    assert album.photo_ids == [f"a1-p{i}" for i in range(5)]
    assert album.features.shape == (5, 4)
    assert album.features.dtype == np.float64
    assert len(album.stories) == 1
    assert len(album.stories[0].sentences) == SENTENCES_PER_STORY
    assert all(s[-1] == EOS_ID for s in album.stories[0].sentences)
    assert album.gt_summaries == [[f"a1-p{i}" for i in range(5)]]
    assert vocab.decode(album.stories[0].sentences[0]) == "we saw it ."


def test_load_dataset_reports_empty_and_bad_header(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("")
    with pytest.raises(DataError, match="line 1"):
        load_dataset(path)
    write_lines(path, ["{not json"])
    with pytest.raises(DataError, match="line 1.*JSON"):
        load_dataset(path)
    write_lines(path, [json.dumps({"format": "other", "k": 4})])
    with pytest.raises(DataError, match="format"):
        load_dataset(path)
    write_lines(path, [json.dumps({"format": "hatstory-v1", "k": 0})])
    with pytest.raises(DataError, match="k"):
        load_dataset(path)
    # read as k = 1, a boolean k would load this album
    write_lines(path, [json.dumps({"format": "hatstory-v1", "k": True}),
                       json.dumps(album_record(k=1))])
    with pytest.raises(DataError, match="line 1: header needs a positive integer feature width k"):
        load_dataset(path)


def test_load_dataset_reports_photo_count_with_location(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [header(), json.dumps(album_record(n=4))])
    with pytest.raises(DataError, match=r"line 2.*a1.*photo count 4"):
        load_dataset(path)
    write_lines(path, [header(), json.dumps(album_record(n=51))])
    with pytest.raises(DataError, match=r"photo count 51 outside allowed range \[5, 50\]"):
        load_dataset(path)


def test_load_dataset_reports_feature_width_mismatch(tmp_path):
    path = tmp_path / "d.jsonl"
    rec = album_record()
    rec["photos"][2]["features"] = [1.0, 2.0, 3.0]
    write_lines(path, [header(), json.dumps(rec)])
    with pytest.raises(DataError, match="feature width 3"):
        load_dataset(path)
    # a width no array could hold is read as a mismatch, not allocated
    write_lines(path, [header(k=10**400), json.dumps(album_record())])
    with pytest.raises(DataError, match="photo a1-p0 feature width 4 != header k=1000"):
        load_dataset(path)


@pytest.mark.parametrize(
    "value, problem",
    [("x", "not a JSON number"), ("1.5", "not a JSON number"),
     (True, "not a JSON number"), (float("nan"), "not finite"),
     (10**400, "not finite")],
    ids=["string", "numeric-string", "boolean", "nan", "integer-beyond-float-range"],
)
def test_load_dataset_names_a_feature_that_is_not_a_finite_number(tmp_path, value, problem):
    path = tmp_path / "d.jsonl"
    rec = album_record()
    rec["photos"][3]["features"][2] = value
    write_lines(path, [header(), json.dumps(rec)])
    with pytest.raises(DataError, match=rf"line 2 \(album a1\): photo a1-p3 features\[2\] .*{problem}"):
        load_dataset(path)


def test_load_dataset_names_a_gt_summary_entry_that_is_not_a_string(tmp_path):
    path = tmp_path / "d.jsonl"
    rec = album_record(gt_summaries=[["a1-p0", "a1-p1", ["a1-p2"], "a1-p3", "a1-p4"]])
    write_lines(path, [header(), json.dumps(rec)])
    with pytest.raises(DataError, match=r"line 2 \(album a1\): gt_summaries\[0\]\[2\] .*not a photo_id"):
        load_dataset(path)


def test_load_dataset_rejects_malformed_records(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [header(), "{oops"])
    with pytest.raises(DataError, match="line 2.*JSON"):
        load_dataset(path)
    path.write_bytes(header().encode() + b"\n" + json.dumps(album_record()).encode()[:-1] + b"\xff}\n")
    with pytest.raises(DataError, match="line 2: not UTF-8 text"):
        load_dataset(path)

    cases = [
        album_record(album_id=None),
        album_record(photos="nope"),
        album_record(gt_summaries=[["a1-p0"] * 5]),  # repeated photo
        album_record(gt_summaries=[["x"] + [f"a1-p{i}" for i in range(4)]]),
        album_record(gt_summaries=[[f"a1-p{i}" for i in range(5)]] * 3),  # > 2
        album_record(stories=[{"sentences": ["hi ."] * 4}]),  # too few
    ]
    for rec in cases:
        write_lines(path, [header(), json.dumps(rec)])
        with pytest.raises(DataError):
            load_dataset(path)

    rec = album_record()
    rec["photos"][1]["photo_id"] = rec["photos"][0]["photo_id"]
    write_lines(path, [header(), json.dumps(rec)])
    with pytest.raises(DataError, match="duplicate photo_id"):
        load_dataset(path)


def test_load_dataset_skips_blank_lines(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [header(), "", json.dumps(album_record()), "  "])
    albums, _ = load_dataset(path)
    assert len(albums) == 1


def test_load_dataset_with_external_vocab_keeps_ids_aligned(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [header(), json.dumps(album_record())])
    external = Vocabulary.build(["we saw ."])  # no "it"
    albums, vocab = load_dataset(path, vocab=external)
    assert vocab is external
    sentence = albums[0].stories[0].sentences[0]
    assert sentence == [
        external.token_to_id["we"],
        external.token_to_id["saw"],
        UNK_ID,
        external.token_to_id["."],
        EOS_ID,
    ]


def test_save_load_round_trip_is_structurally_identical(tmp_path):
    albums, _ = synth_generate(SynthSpec(albums=3, n=7, k=6, classes=5, seed=5))
    path_a = tmp_path / "a.jsonl"
    save_dataset(albums, 6, path_a)
    loaded, vocab = load_dataset(path_a)

    assert [a.album_id for a in loaded] == [a.album_id for a in albums]
    for orig, back in zip(albums, loaded):
        assert back.photo_ids == orig.photo_ids
        assert np.array_equal(back.features, orig.features)
        assert back.gt_summaries == orig.gt_summaries
        assert [s.texts for s in back.stories] == [s.texts for s in orig.stories]
        assert [s.sentences for s in back.stories] == [s.sentences for s in orig.stories]

    # a second save of the loaded data is byte-identical
    path_b = tmp_path / "b.jsonl"
    save_dataset(loaded, 6, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_save_dataset_writes_the_pinned_bytes(tmp_path):
    # digests of files written by the per-coordinate float() formatter that
    # the one-call-per-album tolist() replaced; the edge values are signed
    # zero, subnormals and the largest and smallest normal magnitudes
    albums, _ = synth_generate(SynthSpec(albums=3, n=7, k=6, classes=3, seed=11, noise_sigma=0.3))
    path = tmp_path / "x.jsonl"
    save_dataset(albums, 6, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "da3c122c7ffc9b1e8051ad22de6574791731ad9cec9c9489e0576f60a07d6715")
    edges = np.array([[-0.0, 5e-324, 1e300, -1e-300, 0.1, 1.0],
                      [-1e300, 1e-300, 1.5e-323, -1.7976931348623157e308, 1 / 3, -2.5]])
    save_dataset([Album("odd", ["p0", "p1"], edges, [], albums[0].stories)], 6, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "77cb3dd490ac41bf0c8617b1e073be06520f8a66f40b376cba5bd8778d70fabc")
    assert '"features": [-0.0, 5e-324, 1e+300, -1e-300, 0.1, 1.0]' in path.read_text()


def test_save_dataset_validation(tmp_path):
    albums, _ = synth_generate(SynthSpec(albums=1, n=5, k=6, classes=5, seed=0))
    with pytest.raises(ContractError, match="feature width"):
        save_dataset(albums, 8, tmp_path / "x.jsonl")
    albums[0].stories[0].texts = None
    with pytest.raises(ContractError, match="raw texts"):
        save_dataset(albums, 6, tmp_path / "x.jsonl")


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_save_dataset_rejects_non_finite_features_before_writing(tmp_path, value):
    albums, _ = synth_generate(SynthSpec(albums=2, n=5, k=6, classes=5, seed=0))
    albums[1].features[3, 2] = value
    path = tmp_path / "x.jsonl"
    with pytest.raises(ContractError, match=rf"^save_dataset: album synth-001 photo synth-001-p03 "
                                            rf"features\[2\] is {value}, not finite$"):
        save_dataset(albums, 6, path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_sentences_come_from_the_class_grammar():
    albums, _ = synth_generate(SynthSpec(albums=6, n=9, k=8, classes=5, seed=2,
                                         noise_sigma=0.0))
    for album in albums:
        story = album.stories[0]
        positions = [album.photo_ids.index(pid) for pid in album.gt_summaries[0]]
        for pos, text in zip(positions, story.texts):
            # noiseless salient photos are exact class indicators
            c = int(np.argmax(album.features[pos]))
            assert album.features[pos, c] == 1.0
            assert text in template_sentences(c)


def test_synth_noiseless_salience_is_recoverable_by_feature_sum():
    spec = SynthSpec(albums=8, n=10, k=16, classes=5, seed=4, noise_sigma=0.0)
    albums, _ = synth_generate(spec)
    for album in albums:
        scores = album.features[:, : spec.classes].sum(axis=1)
        top5 = set(np.argsort(-scores)[:5])
        gt = {album.photo_ids.index(pid) for pid in album.gt_summaries[0]}
        assert top5 == gt


def test_synth_salient_positions_are_temporal_and_distinct():
    albums, _ = synth_generate(SynthSpec(albums=5, n=10, k=6, classes=5, seed=9))
    for album in albums:
        positions = [album.photo_ids.index(pid) for pid in album.gt_summaries[0]]
        assert positions == sorted(positions)
        assert len(set(positions)) == 5
        assert len(album.gt_summaries) == 1
        assert len(album.stories) == 1
        assert len(album.stories[0].sentences) == SENTENCES_PER_STORY


def test_synth_same_seed_same_dataset_different_seed_differs():
    spec = dict(albums=3, n=8, k=6, classes=5)
    a1, v1 = synth_generate(SynthSpec(seed=11, **spec))
    a2, v2 = synth_generate(SynthSpec(seed=11, **spec))
    a3, _ = synth_generate(SynthSpec(seed=12, **spec))
    assert v1.id_to_token == v2.id_to_token
    for x, y in zip(a1, a2):
        assert np.array_equal(x.features, y.features)
        assert x.gt_summaries == y.gt_summaries
        assert [s.texts for s in x.stories] == [s.texts for s in y.stories]
    assert any(not np.array_equal(x.features, z.features) for x, z in zip(a1, a3))


def test_synth_spec_validation():
    with pytest.raises(ConfigurationError):
        SynthSpec(albums=0)
    with pytest.raises(ConfigurationError):
        SynthSpec(albums=1, n=4)
    with pytest.raises(ConfigurationError):
        SynthSpec(albums=1, classes=0)
    with pytest.raises(ConfigurationError):
        SynthSpec(albums=1, k=5, classes=5)
    with pytest.raises(ConfigurationError):
        SynthSpec(albums=1, noise_sigma=-0.1)
    for sigma in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="noise_sigma must be a finite number"):
            SynthSpec(albums=1, noise_sigma=sigma)


def test_synth_features_too_large_to_allocate_are_a_configuration_error():
    with pytest.raises(ConfigurationError, match=r"^k=1000000000000 features for each of 6 "
                                                 r"photos are more than can be allocated \("):
        synth_generate(SynthSpec(albums=2, n=6, k=10**12))


def test_class_noun_has_a_fallback_past_the_list():
    assert class_noun(0) == "beach"
    assert class_noun(99) == "place99"
    assert len(template_sentences(1)) == 4


# ---------------------------------------------------------------------------
# fuzzing the file boundary: a mutated dataset file loads or raises a
# HatstoryError, and whatever loads saves to a file that reloads to itself
# (an unmutated file's byte-for-byte round trip is tested above)

@pytest.fixture(scope="module")
def dataset_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "base.jsonl"
    save_dataset(synth_generate(SynthSpec(albums=2, n=5, k=6, seed=3))[0], 6, path)
    return path.read_bytes()


def _load_or_fail_cleanly(path, blob):
    """Load `blob` written to `path`; None when it is rejected, and a
    HatstoryError is the only way to be rejected."""
    path.write_bytes(blob)
    try:
        return load_dataset(path)[0]
    except HatstoryError:
        return None


def _saves_to_a_fixed_point(path, albums):
    k = albums[0].features.shape[1] if albums else 1
    save_dataset(albums, k, path)
    first = path.read_bytes()
    save_dataset(load_dataset(path)[0], k, path)
    assert path.read_bytes() == first


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_dataset_bytes_load_or_raise_a_hatstory_error(tmp_path_factory, dataset_bytes,
                                                              data):
    blob = data.draw(byte_edits(dataset_bytes))
    path = tmp_path_factory.getbasetemp() / "bytes.jsonl"
    albums = _load_or_fail_cleanly(path, blob)
    if albums is not None:
        _saves_to_a_fixed_point(path, albums)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_dataset_values_load_or_raise_a_hatstory_error(tmp_path_factory, dataset_bytes,
                                                               data):
    text = data.draw(json_edits(dataset_bytes.decode("utf-8")))
    path = tmp_path_factory.getbasetemp() / "values.jsonl"
    albums = _load_or_fail_cleanly(path, text.encode("utf-8"))
    if albums is not None:
        _saves_to_a_fixed_point(path, albums)
