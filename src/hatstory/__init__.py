"""Five-sentence album stories with learned latent photo selection.

A from-scratch float64 tensor library with reverse-mode autodiff, a
bidirectional-GRU album encoder, a pointer-style photo selector, a GRU story
decoder with beam search, two sequence-to-sequence baselines, and evaluation
for generation quality, photo summarization, and album retrieval.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .data import Album, Story, SynthSpec, Vocabulary, load_dataset, save_dataset, synth_generate
from .errors import (
    ConfigurationError,
    ContractError,
    CorruptionError,
    DataError,
    DeterminismError,
    DimensionError,
    FormatError,
    HatstoryError,
    IndexRangeError,
    NumericDomainError,
    StateError,
)
from .model import ModelDims, ModelParams, encode_album, generate_story, init_model, select_summary
from .tensor import Rng, Tape, Tensor, backward, grad_check
from .training import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "Album",
    "ConfigurationError",
    "ContractError",
    "CorruptionError",
    "DataError",
    "DeterminismError",
    "DimensionError",
    "FormatError",
    "HatstoryError",
    "IndexRangeError",
    "ModelDims",
    "ModelParams",
    "NumericDomainError",
    "Rng",
    "StateError",
    "Story",
    "SynthSpec",
    "Tape",
    "Tensor",
    "TrainConfig",
    "Vocabulary",
    "backward",
    "encode_album",
    "generate_story",
    "grad_check",
    "init_model",
    "load_checkpoint",
    "load_dataset",
    "save_checkpoint",
    "save_dataset",
    "select_summary",
    "synth_generate",
    "train",
]
