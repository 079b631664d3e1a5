"""The weights of the recurrent and feed-forward blocks: a GRU's nine gate
tensors and a small MLP's affine layers. Every parameter is a plain Tensor,
so the gradient tape sees everything; the fused ops of `tensor` run them
(`gru_sequence`, which takes the encoder's two GRUs, `sentence_log_prob`,
`soft_select` and `attention`)."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ContractError, DimensionError
from .tensor import Tensor, gru_sides


@dataclass
class GruParams:
    """Gated recurrent unit weights.

    w_* map the input (d_in, d_h), u_* map the hidden state (d_h, d_h),
    b_* are biases (d_h,).
    """

    w_z: Tensor
    w_r: Tensor
    w_h: Tensor
    u_z: Tensor
    u_r: Tensor
    u_h: Tensor
    b_z: Tensor
    b_r: Tensor
    b_h: Tensor
    _sides: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        d_in, d_h = self.w_z.shape
        for name, t in self.named():
            want = (d_in, d_h) if name.startswith("w") else (
                (d_h, d_h) if name.startswith("u") else (d_h,)
            )
            if t.shape != want:
                raise DimensionError(f"GruParams: {name} has shape {t.shape}, want {want}")

    def sides(self):
        """The weights side by side, `tensor.gru_sides`, copied afresh on each
        call into arrays that this GRU keeps, so no call allocates them."""
        self._sides = gru_sides([t.data for _, t in self.named()], self._sides)
        return self._sides

    def named(self):
        return [
            ("w_z", self.w_z), ("w_r", self.w_r), ("w_h", self.w_h),
            ("u_z", self.u_z), ("u_r", self.u_r), ("u_h", self.u_h),
            ("b_z", self.b_z), ("b_r", self.b_r), ("b_h", self.b_h),
        ]


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
