"""Checkpoint container tests: bit-exact round trips and precise failure
modes for damaged or mismatched files.
"""

import errno
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatstory.checkpoint import (
    MAGIC,
    file_sha256,
    load_checkpoint,
    save_checkpoint,
)
from hatstory import model
from hatstory.data import SynthSpec, Vocabulary, SPECIAL_TOKENS, save_dataset, synth_generate
from hatstory.errors import ContractError, CorruptionError, FormatError, HatstoryError
from hatstory.model import ModelDims, ModelParams, init_model
from hatstory.tensor import Rng
from hatstory.training import TrainConfig, train, write_loss_curve
from conftest import byte_edits, json_edits


def small_model(seed=0, carry_state=True):
    dims = ModelDims(k=4, d_s=3, d_g=3, d_w=2, vocab_size=8, t_steps=5)
    return init_model(dims, Rng(seed), carry_state=carry_state)


def small_vocab():
    return Vocabulary(list(SPECIAL_TOKENS) + ["dog", "ran", ".", "far"])


def saved(tmp_path, name="m.hat", seed=0, vocab=None, config=None, carry_state=True):
    path = tmp_path / name
    params = small_model(seed, carry_state)
    save_checkpoint(params, vocab, config, path)
    return params, path


def test_round_trip_restores_every_tensor_bit_exactly(tmp_path):
    config = {"learning_rate": 0.001, "seed": 7}
    params, path = saved(tmp_path, vocab=small_vocab(), config=config)
    loaded = load_checkpoint(path)
    for (name_a, t_a), (name_b, t_b) in zip(
        params.named_tensors(), loaded.params.named_tensors()
    ):
        assert name_a == name_b
        assert t_a.data.dtype == t_b.data.dtype == np.float64
        assert np.array_equal(t_a.data, t_b.data)
        assert np.array_equal(
            t_a.data.view(np.uint64), t_b.data.view(np.uint64)
        )  # bitwise, not merely numerically equal
    assert loaded.params.dims == params.dims
    assert loaded.params.carry_state == params.carry_state
    assert loaded.config == config
    assert loaded.vocab.id_to_token == small_vocab().id_to_token
    assert loaded.vocab.min_count == 1


def test_save_load_save_is_byte_identical(tmp_path):
    _, path_a = saved(tmp_path, "a.hat", seed=3, vocab=small_vocab(), config={"x": 1})
    loaded = load_checkpoint(path_a)
    path_b = tmp_path / "b.hat"
    save_checkpoint(loaded.params, loaded.vocab, loaded.config, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert file_sha256(path_a) == file_sha256(path_b)


def test_same_model_saves_identically_different_model_differs(tmp_path):
    _, path_a = saved(tmp_path, "a.hat", seed=5)
    _, path_b = saved(tmp_path, "b.hat", seed=5)
    _, path_c = saved(tmp_path, "c.hat", seed=6)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert path_a.read_bytes() != path_c.read_bytes()


def test_carry_state_and_none_fields_round_trip(tmp_path):
    _, path = saved(tmp_path, carry_state=False)
    loaded = load_checkpoint(path)
    assert loaded.params.carry_state is False
    assert loaded.vocab is None
    assert loaded.config is None


def test_bad_magic_is_a_format_error(tmp_path):
    _, path = saved(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_truncations_are_corruption_errors(tmp_path):
    _, path = saved(tmp_path)
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, len(MAGIC))
    cut_points = [
        len(MAGIC) + 4,                      # inside the length field
        len(MAGIC) + 8 + header_len // 2,    # inside the header
        len(blob) - 17,                      # inside the tensor payload
    ]
    for cut in cut_points:
        path.write_bytes(blob[:cut])
        with pytest.raises(CorruptionError):
            load_checkpoint(path)


def test_header_json_corruption_is_detected(tmp_path):
    _, path = saved(tmp_path)
    blob = bytearray(path.read_bytes())
    header_start = len(MAGIC) + 8
    blob[header_start] = ord("X")  # breaks the opening brace
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptionError, match="JSON"):
        load_checkpoint(path)


def rewrite_header(path, mutate):
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, len(MAGIC))
    start = len(MAGIC) + 8
    header = json.loads(blob[start : start + header_len].decode("utf-8"))
    payload = blob[start + header_len :]
    mutate(header)
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(new_header)) + new_header + payload)
    return header


def test_unsupported_version_is_a_format_error(tmp_path):
    _, path = saved(tmp_path)
    rewrite_header(path, lambda h: h.update(version=99))
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(path)


def test_manifest_name_mismatch_is_a_format_error(tmp_path):
    _, path = saved(tmp_path)

    def swap_names(header):
        header["manifest"][0][0] = "imposter.w"

    rewrite_header(path, swap_names)
    with pytest.raises(FormatError, match="manifest"):
        load_checkpoint(path)


def test_header_that_is_not_an_object_is_a_format_error(tmp_path):
    _, path = saved(tmp_path)
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, len(MAGIC))
    payload = blob[len(MAGIC) + 8 + header_len :]
    for header in (b"[1,2]", b"null", b"7"):
        path.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header + payload)
        with pytest.raises(FormatError, match="JSON object"):
            load_checkpoint(path)


@pytest.mark.parametrize("key", ["dims", "manifest"])
def test_missing_dims_or_manifest_is_a_format_error(tmp_path, key):
    _, path = saved(tmp_path)
    rewrite_header(path, lambda h: h.pop(key))
    with pytest.raises(FormatError, match=key):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda d: d.update(depth=3), "dims: unknown keys \\['depth'\\]"),
        (lambda d: d.pop("d_g"), "dims: missing keys \\['d_g'\\]"),
        (lambda d: d.update(k="16"), "dims: k must be an integer >= 1, got '16'"),
    ],
)
def test_bad_dims_are_format_errors_naming_the_key(tmp_path, mutate, match):
    _, path = saved(tmp_path)
    rewrite_header(path, lambda h: mutate(h["dims"]))
    with pytest.raises(FormatError, match=match):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda h: h.update(carry_state="false"), "carry_state must be true or false, got 'false'"),
        (lambda h: h.update(carry_state=0), "carry_state must be true or false, got 0"),
        (lambda h: h.update(vocab="dog ran"), "vocab must be an object"),
        (lambda h: h.update(vocab={}), "vocab must be an object"),
        (lambda h: h["vocab"].update(tokens="dog"), "vocab must be an object"),
        (lambda h: h["vocab"]["tokens"].__setitem__(5, 3), "vocab.tokens must all be strings"),
        (lambda h: h["vocab"]["tokens"].__setitem__(5, "dog"), "vocab.tokens: .*duplicate"),
        (lambda h: h["vocab"].update(min_count="1"), "vocab.min_count must be an integer"),
        (lambda h: h.update(config=[1, 2]), "config must be a JSON object or null"),
        (lambda h: h.update(config="seed=7"), "config must be a JSON object or null"),
    ],
)
def test_bad_header_fields_are_format_errors_naming_the_field(tmp_path, mutate, match):
    _, path = saved(tmp_path, vocab=small_vocab(), config={"seed": 7})
    rewrite_header(path, mutate)
    with pytest.raises(FormatError, match=match):
        load_checkpoint(path)


def test_a_stored_vocabulary_must_fit_the_model_to_turn_ids_into_text(tmp_path):
    """The model has 8 output words; a checkpoint may store 8 tokens or none,
    and one storing 4 still loads but cannot decode text."""
    for vocab, fits in ((small_vocab(), True), (None, True),
                        (Vocabulary(list(SPECIAL_TOKENS)), False)):
        _, path = saved(tmp_path, vocab=vocab)
        loaded = load_checkpoint(path)
        if fits:
            assert loaded.fitted_vocab() is loaded.vocab
        else:
            with pytest.raises(FormatError, match="holds 4 tokens, dims.vocab_size is 8"):
                loaded.fitted_vocab()


def test_malformed_manifest_entries_are_a_format_error(tmp_path):
    _, path = saved(tmp_path)
    rewrite_header(path, lambda h: h["manifest"].__setitem__(0, "enc_fwd.w_z"))
    with pytest.raises(FormatError, match="manifest"):
        load_checkpoint(path)


@pytest.mark.parametrize("dim", [4.0, "4", [4], True, -4])
def test_manifest_shape_that_is_not_a_list_of_integers_is_a_format_error(tmp_path, dim):
    _, path = saved(tmp_path)
    # enc_fwd.w_z is (4, 2) in the small model
    rewrite_header(path, lambda h: h["manifest"][0].__setitem__(1, [dim, 2]))
    with pytest.raises(FormatError, match="tensor enc_fwd.w_z has shape"):
        load_checkpoint(path)


def test_payload_length_mismatch_is_a_corruption_error(tmp_path):
    _, path = saved(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)  # trailing garbage
    with pytest.raises(CorruptionError, match="payload"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_weight_is_refused_on_load_and_on_save(tmp_path, value):
    params, path = small_model(), tmp_path / "m.hat"
    params.proj_b.data[5] = 0.375  # no other weight of the file holds this value
    save_checkpoint(params, None, None, path)
    blob = path.read_bytes()
    assert blob.count(struct.pack("<d", 0.375)) == 1
    path.write_bytes(blob.replace(struct.pack("<d", 0.375), struct.pack("<d", value)))
    with pytest.raises(CorruptionError, match="tensor proj.b holds a non-finite value"):
        load_checkpoint(path)
    params.proj_b.data[5] = value
    with pytest.raises(ContractError, match="tensor proj.b holds a non-finite value"):
        save_checkpoint(params, None, None, tmp_path / "refused.hat")
    assert not (tmp_path / "refused.hat").exists()


def test_a_store_of_finite_weights_whose_sum_overflows_saves_and_loads(tmp_path):
    params, path = small_model(), tmp_path / "m.hat"
    params.store[:] = 1e308
    params.store[::3] = -1e308  # every weight finite, their sum not
    with np.errstate(over="ignore"):
        assert not np.isfinite(params.store.sum())
    save_checkpoint(params, None, None, path)
    assert np.array_equal(load_checkpoint(path).params.store, params.store)


def test_a_nan_in_the_last_tensor_is_named(tmp_path):
    params, path = small_model(), tmp_path / "m.hat"
    last, tensor = params.named_tensors()[-1]
    tensor.data.flat[-1] = float("nan")
    with pytest.raises(ContractError, match=f"tensor {re.escape(last)} holds a non-finite value"):
        save_checkpoint(params, None, None, path)
    tensor.data.flat[-1] = 0.375
    save_checkpoint(params, None, None, path)
    blob = path.read_bytes()
    assert blob.endswith(struct.pack("<d", 0.375))
    path.write_bytes(blob[:-8] + struct.pack("<d", float("nan")))
    with pytest.raises(CorruptionError, match=f"tensor {re.escape(last)} holds a non-finite"):
        load_checkpoint(path)


@pytest.mark.parametrize("dims", [dict(k=4, d_s=3, d_g=3, d_w=2, vocab_size=8),
                                  dict(k=16, d_s=8, d_g=24, d_w=12, vocab_size=40, t_steps=3)])
def test_the_layout_from_dims_is_the_built_models(dims):
    dims = ModelDims(**dims)
    built = init_model(dims, Rng(0)).manifest()
    assert ModelParams.layout(dims) == [(name, view.shape) for name, view in built]


@pytest.mark.parametrize("key", ["vocab_size", "d_w"])
@pytest.mark.parametrize("size", [10**400, 10**12])
def test_dims_too_large_for_memory_fail_before_any_weight_is_built(tmp_path, key, size):
    """Neither an overflow nor a terabyte allocation: the header's dims are
    compared with the manifest, and the manifest with the payload, first."""
    _, path = saved(tmp_path)
    rewrite_header(path, lambda h: h["dims"].update({key: size}))
    with pytest.raises(FormatError, match="model wants"):
        load_checkpoint(path)

    def both(h):  # a manifest that agrees with the dims leaves the payload short
        h["dims"].update({key: size})
        h["manifest"] = [[name, list(shape)] for name, shape in ModelParams.layout(
            ModelDims(**h["dims"]))]
    rewrite_header(path, both)
    with pytest.raises(CorruptionError, match="payload"):
        load_checkpoint(path)


def test_a_model_whose_training_state_exceeds_physical_memory_fails_to_load(tmp_path,
                                                                             monkeypatch):
    params, path = saved(tmp_path)
    count = params.store.size
    monkeypatch.setattr(model, "physical_memory", lambda: 32 * count - 1)
    with pytest.raises(FormatError, match=rf"^model {re.escape(str(params.dims))} has {count:,} "
                       rf"weights, more than can be allocated \({32 * count:,} bytes"):
        load_checkpoint(path)
    monkeypatch.setattr(model, "physical_memory", lambda: 32 * count)
    assert np.array_equal(load_checkpoint(path).params.store, params.store)


# A checkpoint written by the per-tensor payload code that the flat store
# replaced: the small model below after `trained_small_model`'s three epochs,
# trained by the GRU step of that time.
SMALL_TRAINED = Path(__file__).parent / "data" / "small-trained.hat"
SMALL_TRAINED_SHA256 = "47cffd2595f0e903bc5dd7afbd323ea7111fcfe5d7a2b9cbaedd5706dc9382a0"
# The same training by today's GRU step (0.5 tanh(0.5 a) + 0.5 gates, biases
# folded into the input products), saved: pins every weight of the run. Its
# clip norm is one dot product over the flat gradients, which follow the
# store's layout, GRU weights side by side, so it rounds in that order (in
# manifest order it pinned 1b4aa494c9475ea940b199ba6498815e28816c9b3ec9d5fbd1cdad992a431603;
# without the clip both layouts train bitwise alike).
SMALL_RETRAINED_SHA256 = "dc0aaabc2381a06c6f81020c7c280566a360cdf39f19f7de42224b188b836f88"


def small_training_config():
    return TrainConfig(k=6, d_s=4, d_g=4, d_w=3, epochs=3, batch_size=2, seed=0,
                       learning_rate=1e-2, grad_clip=0.5)


def trained_small_model():
    albums, vocab = synth_generate(SynthSpec(albums=2, n=5, k=6, classes=5, seed=3))
    cfg = small_training_config()
    params = init_model(ModelDims(k=6, d_s=4, d_g=4, d_w=3, vocab_size=vocab.size),
                        Rng(cfg.seed))
    train(params, albums, cfg)
    return params, vocab, cfg


def test_an_earlier_checkpoint_loads_and_resaves_byte_for_byte(tmp_path):
    assert file_sha256(SMALL_TRAINED) == SMALL_TRAINED_SHA256
    loaded = load_checkpoint(SMALL_TRAINED)
    _, vocab = synth_generate(SynthSpec(albums=2, n=5, k=6, classes=5, seed=3))
    assert loaded.config == small_training_config().to_dict()
    assert loaded.vocab.id_to_token == vocab.id_to_token
    assert loaded.params.dims == ModelDims(k=6, d_s=4, d_g=4, d_w=3, vocab_size=vocab.size)
    save_checkpoint(loaded.params, loaded.vocab, loaded.config, tmp_path / "again.hat")
    assert (tmp_path / "again.hat").read_bytes() == SMALL_TRAINED.read_bytes()


def test_the_small_training_saves_the_pinned_checkpoint(tmp_path):
    params, vocab, cfg = trained_small_model()
    save_checkpoint(params, vocab, cfg.to_dict(), tmp_path / "fresh.hat")
    assert file_sha256(tmp_path / "fresh.hat") == SMALL_RETRAINED_SHA256
    loaded = load_checkpoint(tmp_path / "fresh.hat")
    assert np.array_equal(loaded.params.store.view(np.uint64), params.store.view(np.uint64))


def test_a_write_cut_short_leaves_the_old_files_whole_and_no_temporary_file(tmp_path):
    """A child process whose files may not grow past 1 KiB (RLIMIT_FSIZE, on
    that process only) saves a checkpoint, a dataset and a loss curve, each
    longer than that, over earlier ones: each save fails with the limit's
    error, and each earlier file is left byte for byte, with nothing beside it."""
    save_checkpoint(small_model(), small_vocab(), None, tmp_path / "m.hat")
    save_dataset(synth_generate(SynthSpec(albums=1, n=5, k=6, classes=5, seed=3))[0], 6,
                 tmp_path / "albums.jsonl")
    write_loss_curve([], tmp_path / "loss_curve.csv")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    child = f"""
import resource
from hatstory import SynthSpec, init_model, ModelDims, Rng, save_checkpoint, save_dataset
from hatstory import synth_generate
from hatstory.training import write_loss_curve
albums = synth_generate(SynthSpec(albums=4, n=5, k=6, classes=5, seed=4))[0]
curve = [dict(epoch=e, mean_loss=1 / 3, mean_gen_loss=1 / 7, mean_rank_loss=0.0) for e in range(50)]
model = init_model(ModelDims(k=4, d_s=3, d_g=3, d_w=2, vocab_size=8), Rng(1))
resource.setrlimit(resource.RLIMIT_FSIZE, (1024, 1024))
for save in (lambda: save_checkpoint(model, None, None, {str(tmp_path / "m.hat")!r}),
             lambda: save_dataset(albums, 6, {str(tmp_path / "albums.jsonl")!r}),
             lambda: write_loss_curve(curve, {str(tmp_path / "loss_curve.csv")!r})):
    try:
        save()
        print("saved")
    except OSError as e:
        print(e.errno)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(errno.EFBIG)] * 3
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_file_sha256_matches_content(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"hello")
    import hashlib

    assert file_sha256(path) == hashlib.sha256(b"hello").hexdigest()


# ---------------------------------------------------------------------------
# fuzzing the file boundary: mutated checkpoint bytes load or raise a
# HatstoryError, and whatever loads saves to a file that reloads to itself
# (an unmutated file's byte-for-byte round trip is tested above)


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    _, path = saved(tmp_path_factory.mktemp("fuzz"), vocab=small_vocab(),
                    config={"seed": 7, "learning_rate": 0.001})
    return path.read_bytes()


def _resaved(path, blob):
    """The bytes that loading `blob` and saving it again writes, or None when
    the load fails, which only a HatstoryError may do."""
    path.write_bytes(blob)
    try:
        loaded = load_checkpoint(path)
    except HatstoryError:
        return None
    save_checkpoint(loaded.params, loaded.vocab, loaded.config, path)
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_bytes_load_or_raise_a_hatstory_error(tmp_path_factory,
                                                                 checkpoint_bytes, data):
    path = tmp_path_factory.getbasetemp() / "mutated.hat"
    first = _resaved(path, data.draw(byte_edits(checkpoint_bytes)))
    if first is not None:
        assert _resaved(path, first) == first


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_headers_load_or_raise_a_hatstory_error(tmp_path_factory,
                                                                   checkpoint_bytes, data):
    """Edits of the header's values, behind a length field that fits them."""
    start = len(MAGIC) + 8
    (length,) = struct.unpack_from("<Q", checkpoint_bytes, len(MAGIC))
    header = data.draw(json_edits(checkpoint_bytes[start:start + length].decode())).encode()
    path = tmp_path_factory.getbasetemp() / "header.hat"
    first = _resaved(path, MAGIC + struct.pack("<Q", len(header)) + header
                     + checkpoint_bytes[start + length:])
    if first is not None:
        assert _resaved(path, first) == first
