"""Recurrent and feed-forward building blocks: GRU weights and step, and
small MLPs. Every parameter is a plain Tensor, so the gradient tape sees
everything. A GRU step is written with one tape op per arithmetic step; the
program runs whole GRUs as one `tensor.gru_sequence` op over the same
`GruParams`, whose values are bitwise a `gru_step` chain's."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError, DimensionError
from .tensor import (
    Tensor,
    matmul,
    mul,
    seeded_init,
    sigmoid,
    tanh,
    tile_rows,
    vecmat,
    zeros,
)


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

    def __post_init__(self):
        d_in, d_h = self.w_z.shape
        for name, t in self.named():
            want = (d_in, d_h) if name.startswith("w") else (
                (d_h, d_h) if name.startswith("u") else (d_h,)
            )
            if t.shape != want:
                raise DimensionError(f"GruParams: {name} has shape {t.shape}, want {want}")

    def named(self):
        return [
            ("w_z", self.w_z), ("w_r", self.w_r), ("w_h", self.w_h),
            ("u_z", self.u_z), ("u_r", self.u_r), ("u_h", self.u_h),
            ("b_z", self.b_z), ("b_r", self.b_r), ("b_h", self.b_h),
        ]

    @classmethod
    def create(cls, rng, d_in, d_h):
        """Xavier weights, zero biases."""
        w = lambda shape: seeded_init(rng, shape)
        return cls(
            w_z=w((d_in, d_h)), w_r=w((d_in, d_h)), w_h=w((d_in, d_h)),
            u_z=w((d_h, d_h)), u_r=w((d_h, d_h)), u_h=w((d_h, d_h)),
            b_z=zeros(d_h, requires_grad=True),
            b_r=zeros(d_h, requires_grad=True),
            b_h=zeros(d_h, requires_grad=True),
        )


def gru_step(params, x, h):
    """One GRU update of the state h (d_h,) from the input x (d_in,), the
    step of `tensor.gru_step_array` in composed ops."""
    z = sigmoid(vecmat(x, params.w_z) + vecmat(h, params.u_z) + params.b_z)
    r = sigmoid(vecmat(x, params.w_r) + vecmat(h, params.u_r) + params.b_r)
    cand = tanh(vecmat(x, params.w_h) + vecmat(mul(r, h), params.u_h) + params.b_h)
    return (1.0 - z) * h + z * cand


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

    @property
    def d_in(self):
        return self.layers[0][0].shape[0]

    @classmethod
    def create(cls, rng, sizes):
        """sizes = [d_in, hidden..., d_out]; xavier weights, zero biases."""
        if len(sizes) < 2:
            raise ContractError("MlpParams.create: needs input and output sizes")
        layers = []
        for a, b in zip(sizes, sizes[1:]):
            layers.append(
                (seeded_init(rng, (a, b)), zeros(b, requires_grad=True))
            )
        return cls(layers)


def mlp(params, x):
    """Apply the stack to a vector (d_in,) -> (d_out,) or row-wise to a
    matrix (n, d_in) -> (n, d_out)."""
    if x.ndim not in (1, 2):
        raise DimensionError(f"mlp: input must be 1-D or 2-D, got shape {x.shape}")
    if x.shape[-1] != params.d_in:
        raise DimensionError(f"mlp: input width {x.shape[-1]}, want {params.d_in}")
    for i, (w, b) in enumerate(params.layers):
        x = vecmat(x, w) + b if x.ndim == 1 else matmul(x, w) + tile_rows(b, x.shape[0])
        if i < len(params.layers) - 1:
            x = tanh(x)
    return x
