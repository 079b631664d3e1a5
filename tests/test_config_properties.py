"""Property tests of the JSON config readers: `load_config` for a training
config file and `load_checkpoint` for a checkpoint header's model dims.

Each test mutates a valid object: it drops, adds or renames keys, or puts
values of the wrong type or range in place. The reader must then either
return or raise a HatstoryError, never anything else. The runs are
derandomized, so every test run sees the same examples.
"""

import json
import struct
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatstory.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from hatstory.cli import load_config
from hatstory.errors import HatstoryError
from hatstory.model import ModelDims, init_model
from hatstory.tensor import Rng
from hatstory.training import TrainConfig

FUZZ = settings(max_examples=150, derandomize=True, deadline=None, database=None)

SMALL_DIMS = asdict(ModelDims(k=4, d_s=3, d_g=3, d_w=2, vocab_size=8))

VALUES = st.one_of(
    st.sampled_from(["3", "0.1", "", 12.0, -0.5, True, False, None, [], [1], {}, -5, 0]),
    st.integers(-3, 40),  # small, so a dims mutation that loads builds a small model
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)


@st.composite
def mutated(draw, base):
    """`base` after one to three key or value edits, or now and then a
    value that is not an object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(VALUES)
    obj = dict(base)
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(base)))
        edit = draw(st.sampled_from(["drop", "add", "rename", "set"]))
        if edit == "drop":
            obj.pop(key, None)
        elif edit == "add":
            obj[draw(st.text(min_size=1, max_size=8))] = draw(VALUES)
        elif edit == "rename" and key in obj:
            obj[key + draw(st.text(min_size=1, max_size=3))] = obj.pop(key)
        else:
            obj[key] = draw(VALUES)
    return obj


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("config-properties")


@pytest.fixture(scope="module")
def header_and_payload(workdir):
    path = workdir / "base.hat"
    save_checkpoint(init_model(ModelDims(**SMALL_DIMS), Rng(0)), None, None, path)
    blob = path.read_bytes()
    (length,) = struct.unpack_from("<Q", blob, len(MAGIC))
    start = len(MAGIC) + 8
    return json.loads(blob[start : start + length]), blob[start + length :]


@FUZZ
@given(raw=mutated(TrainConfig().to_dict()))
def test_load_config_returns_or_raises_a_hatstory_error(workdir, raw):
    path = workdir / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    try:
        cfg = load_config(path)
    except HatstoryError:
        return
    assert cfg == TrainConfig(**raw)
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    assert load_config(path) == cfg


@FUZZ
@given(dims=mutated(SMALL_DIMS))
def test_load_checkpoint_dims_return_or_raise_a_hatstory_error(workdir, header_and_payload,
                                                               dims):
    header, payload = header_and_payload
    text = json.dumps({**header, "dims": dims}, sort_keys=True).encode("utf-8")
    path = workdir / "mutated.hat"
    path.write_bytes(MAGIC + struct.pack("<Q", len(text)) + text + payload)
    try:
        loaded = load_checkpoint(path)
    except HatstoryError:
        return
    assert loaded.params.dims == ModelDims(**dims)
