"""Model checkpoints.

Layout: the 9-byte magic "HATSTORY1", a little-endian u64 byte length, a
UTF-8 JSON header (model dimensions, vocabulary, the resolved training
config, and an ordered name/shape manifest), then every tensor's float64
payload little-endian in manifest order, row-major: the store's weights,
reordered where the store keeps a GRU's gates side by side. Saving, loading
and saving again is byte-identical; a save replaces its file whole or not at all.
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
from .errors import ContractError, CorruptionError, FormatError
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
        "manifest": [[name, list(t.shape)] for name, t in params.named_tensors()],
    }


@np.errstate(over="ignore", invalid="ignore")
def _non_finite(params):
    """The name of the first tensor that holds a non-finite value, or None; the
    tensors are scanned only when the store's sum is not finite."""
    if np.isfinite(params.store.sum()):
        return None
    return next((name for name, t in params.named_tensors() if not np.isfinite(t.data).all()),
                None)


def save_checkpoint(params, vocab, config, path):
    """`config` is a plain JSON-safe dict (or None); `vocab` may be None for
    throwaway models. A non-finite weight writes nothing."""
    bad = _non_finite(params)
    if bad:
        raise ContractError(f"save_checkpoint: tensor {bad} holds a non-finite value")
    header = json.dumps(
        _header_dict(params, vocab, config), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    head = [MAGIC, struct.pack("<Q", len(header)), header]
    tensors = (np.ascontiguousarray(t.data, dtype="<f8") for _, t in params.named_tensors())
    write_atomically(path, itertools.chain(head, tensors), "wb")


def _header_vocab(header):
    """The header's vocabulary, or None."""
    raw = header.get("vocab")
    if raw is None:
        return None
    if not isinstance(raw, dict) or not isinstance(raw.get("tokens"), list):
        raise FormatError("checkpoint: vocab must be an object with a \"tokens\" list")
    tokens, min_count = raw["tokens"], raw.get("min_count", 1)
    if not all(isinstance(t, str) for t in tokens):
        raise FormatError("checkpoint: vocab.tokens must all be strings")
    if type(min_count) is not int:
        raise FormatError(f"checkpoint: vocab.min_count must be an integer, got {min_count!r}")
    try:
        return Vocabulary(tokens, min_count=min_count)
    except ContractError as e:
        raise FormatError(f"checkpoint: vocab.tokens: {e}") from None


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
    if config is not None and not isinstance(config, dict):
        raise FormatError("checkpoint: config must be a JSON object or null")
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
    params = build_model(dims, lambda name, view: None, FormatError, carry_state)
    # into each tensor's view, a GRU gate's a row at a time, as each row is contiguous
    got = sum(f.readinto(part.view(np.uint8)) for _, t in params.named_tensors()
              for part in ([t.data] if t.data.flags.c_contiguous else t.data))
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
