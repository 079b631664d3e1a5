"""Model checkpoints.

Layout: the 9-byte magic "HATSTORY1", a little-endian u64 byte length, a
UTF-8 JSON header (model dimensions, vocabulary, the resolved training
config, and an ordered name/shape manifest), then every entry's float64
payload little-endian in manifest order, row-major: the store's weights,
each GRU's nine gates cut from its blocks (`ModelParams.manifest`). Saving,
loading and saving again is byte-identical; a save replaces its file whole or not at all.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import struct
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .data import Vocabulary, write_atomically
from .errors import ConfigurationError, ContractError, CorruptionError, FormatError
from .model import ModelDims, ModelParams, build_model, from_json_object

MAGIC = b"HATSTORY1"
VERSION = 1


def _header_dict(params, vocab, config):
    return {
        "version": VERSION,
        "dims": asdict(params.dims),
        "carry_state": params.carry_state,
        "config": config,
        "vocab": None
        if vocab is None
        else {"tokens": list(vocab.id_to_token), "min_count": vocab.min_count},
        "manifest": [[name, list(view.shape)] for name, view in params.manifest()],
    }


@np.errstate(over="ignore", invalid="ignore")
def _non_finite(params):
    """The name of the first manifest entry that holds a non-finite value, or
    None; the entries are scanned only when the store's sum is not finite."""
    if np.isfinite(params.store.sum()):
        return None
    return next((name for name, view in params.manifest() if not np.isfinite(view).all()), None)


def _check_config(config, where, error):
    """The one rule for a header's config, run on save and on load: null, or
    a JSON object whose keys are strings at every depth and whose numbers
    are all finite, as standard JSON holds them, so it reads back as it was
    written. Errors start with `where` and name the offending key."""
    if config is not None and not isinstance(config, dict):
        raise error(f"{where} must be a JSON object or null")
    todo, seen = [("", config)], set()
    for name, value in todo:  # grows as it goes: breadth first, in key order
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{where}: {name} must be a finite number, got {value!r}")
        if not isinstance(value, (dict, list)) or id(value) in seen:
            continue  # a container met again is checked once (json refuses a cycle)
        seen.add(id(value))
        if isinstance(value, list):
            todo.extend((f"{name}[{i}]", item) for i, item in enumerate(value))
            continue
        for key, item in value.items():
            if not isinstance(key, str):
                raise error(f"{where}: {name + ': ' if name else ''}key {key!r} must be a string")
            todo.append((f"{name}.{key}" if name else key, item))


def save_checkpoint(params, vocab, config, path):
    """`config` is None or a dict that JSON encodes as it is (`_check_config`);
    `vocab` may be None for throwaway models. A non-finite weight or another
    config raises a ContractError and writes nothing, so every file saved
    loads (a `Vocabulary` keeps the rules of the header's "vocab" itself)."""
    bad = _non_finite(params)
    if bad:
        raise ContractError(f"save_checkpoint: tensor {bad} holds a non-finite value")
    _check_config(config, "save_checkpoint: config", ContractError)
    try:  # the config is the one part of the header the caller chooses
        header = json.dumps(_header_dict(params, vocab, config), sort_keys=True,
                            separators=(",", ":"), allow_nan=False).encode("utf-8")
    except (TypeError, ValueError) as e:
        raise ContractError(f"save_checkpoint: config cannot be written as JSON: {e}") from None
    head = [MAGIC, struct.pack("<Q", len(header)), header]
    tensors = (np.ascontiguousarray(view, dtype="<f8") for _, view in params.manifest())
    write_atomically(path, itertools.chain(head, tensors), "wb")


def _header_vocab(header):
    """The header's vocabulary, or None."""
    raw = header.get("vocab")
    if raw is None:
        return None
    if not isinstance(raw, dict) or not isinstance(raw.get("tokens"), list):
        raise FormatError("checkpoint: vocab must be an object with a \"tokens\" list")
    try:
        return Vocabulary(raw["tokens"], min_count=raw.get("min_count", 1))
    except (ContractError, ConfigurationError) as e:
        raise FormatError(f"checkpoint: {e}") from None


@dataclass
class LoadedCheckpoint:
    params: ModelParams
    vocab: Vocabulary | None
    config: dict | None

    def fitted_vocab(self):
        """The stored vocabulary, or None; a FormatError unless it holds one
        token per output word of the model, as turning ids into text needs."""
        if self.vocab is not None and self.vocab.size != self.params.dims.vocab_size:
            raise FormatError(f"checkpoint: vocab.tokens holds {self.vocab.size} tokens, "
                              f"dims.vocab_size is {self.params.dims.vocab_size}")
        return self.vocab


def load_checkpoint(path):
    """The checkpoint at `path`. Its header is read and checked first, then
    its payload goes straight into the new model's store, so the weights
    are held once."""
    with open(path, "rb") as f:
        return _load(f, os.fstat(f.fileno()).st_size)


def _load(f, size):
    """Load from the open file f of `size` bytes."""
    if f.read(len(MAGIC)) != MAGIC:
        raise FormatError("checkpoint: bad magic, not a model checkpoint")
    length = f.read(8)
    if len(length) < 8:
        raise CorruptionError("checkpoint: truncated before header length")
    (header_len,) = struct.unpack("<Q", length)
    offset = len(MAGIC) + 8 + header_len
    if size < offset:  # checked first: the length field may claim more than memory holds
        raise CorruptionError("checkpoint: truncated header")
    try:
        header = json.loads(f.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise CorruptionError("checkpoint: header is not valid JSON") from None
    if not isinstance(header, dict):
        raise FormatError("checkpoint: header must be a JSON object")
    if header.get("version") != VERSION:
        raise FormatError(f"checkpoint: unsupported version {header.get('version')!r}")
    dims = from_json_object(ModelDims, header.get("dims"), "checkpoint dims", FormatError)
    carry_state = header.get("carry_state", True)
    if type(carry_state) is not bool:
        raise FormatError(f"checkpoint: carry_state must be true or false, got {carry_state!r}")
    config = header.get("config")
    _check_config(config, "checkpoint config", FormatError)
    vocab = _header_vocab(header)
    manifest = header.get("manifest")
    if not isinstance(manifest, list) or not all(
        isinstance(m, list) and len(m) == 2 and isinstance(m[1], list) for m in manifest
    ):
        raise FormatError("checkpoint: header needs a \"manifest\" list of [name, shape] pairs")
    # the layout comes from the dims without building the model, so dims too
    # large for the payload or for memory fail here, before the store is allocated
    layout = ModelParams.layout(dims)
    if [m[0] for m in manifest] != [name for name, _ in layout]:
        raise FormatError("checkpoint: manifest does not match the model layout")
    for (name, shape), (_, want) in zip(manifest, layout):
        # exact ints: 16.0 == 16 and True == 1 would pass the comparison
        if any(type(d) is not int for d in shape) or shape != list(want):
            raise FormatError(
                f"checkpoint: tensor {name} has shape {shape!r}, model wants {list(want)}"
            )
    expected = sum(math.prod(shape) * 8 for _, shape in layout)
    if size - offset != expected:
        raise CorruptionError(
            f"checkpoint: payload holds {size - offset} bytes, manifest expects {expected}"
        )
    params = build_model(dims, FormatError, carry_state)
    # into each entry's view, a GRU gate's a row at a time, as each row is contiguous
    got = sum(f.readinto(part.view(np.uint8)) for _, view in params.manifest()
              for part in ([view] if view.flags.c_contiguous else view))
    if got != expected:  # the file shrank since it was opened
        raise CorruptionError(f"checkpoint: payload holds {got} bytes, manifest expects {expected}")
    if sys.byteorder == "big":  # the payload is little-endian
        params.store.byteswap(inplace=True)
    bad = _non_finite(params)
    if bad:
        raise CorruptionError(f"checkpoint: tensor {bad} holds a non-finite value")
    return LoadedCheckpoint(params=params, vocab=vocab, config=config)


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
