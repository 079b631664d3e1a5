"""The weights of the recurrent and feed-forward blocks: a GRU's nine gate
tensors and a small MLP's affine layers. Every parameter is a plain Tensor,
so the gradient tape sees everything; the fused ops of `tensor` run them
(`gru_sequence`, which takes the encoder's two GRUs, `sentence_log_prob`,
`soft_select` and `attention`). A GRU's gate tensors are views of three
blocks, which the ops read as they are, without a copy."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ContractError, DimensionError
from .tensor import Tensor

GATES = ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h", "b_z", "b_r", "b_h")


@dataclass
class GruParams:
    """Gated recurrent unit weights: w_* map the input (d_in, d_h), u_* the
    hidden state (d_h, d_h), b_* are biases (d_h,). Each is a view of cell
    `cell` of its layer's `blocks`, as `model.flat_views` cuts them (None
    only in the stand-in of `ModelParams.layout`)."""

    w_z: Tensor
    w_r: Tensor
    w_h: Tensor
    u_z: Tensor
    u_r: Tensor
    u_h: Tensor
    b_z: Tensor
    b_r: Tensor
    b_h: Tensor
    blocks: tuple = field(repr=False, compare=False)
    cell: int = 0

    def __post_init__(self):
        d_in, d_h = self.w_z.shape
        for name, t in self.named():
            want = {"w": (d_in, d_h), "u": (d_h, d_h), "b": (d_h,)}[name[0]]
            if t.shape != want:
                raise DimensionError(f"GruParams: {name} has shape {t.shape}, want {want}")

    def sides(self):
        """The blocks of this cell, [W | b] (d_in + 1, 3 d_h), [U_z | U_r] and
        U_h: views, not copies, so they show every change to the weights."""
        return self.blocks[0][self.cell], self.blocks[1][self.cell], self.blocks[2][self.cell]

    def named(self):
        return [(name, getattr(self, name)) for name in GATES]


@dataclass
class MlpParams:
    """Affine stack: tanh on every hidden layer, linear output."""

    layers: list  # [(w, b), ...] with w (d_in, d_out) and b (d_out,)

    def __post_init__(self):
        if not self.layers:
            raise ContractError("MlpParams: needs at least one layer")
        for w, b in self.layers:
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise DimensionError(
                    f"MlpParams: layer shapes {w.shape} / {b.shape} inconsistent"
                )

    def named(self):
        out = []
        for i, (w, b) in enumerate(self.layers):
            out.append((f"{i}.w", w))
            out.append((f"{i}.b", b))
        return out
