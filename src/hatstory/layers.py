"""The weights of the recurrent and feed-forward blocks: a GRU layer's three
blocks and a small MLP's affine layers. Every parameter is a plain Tensor,
so the gradient tape sees everything; the fused ops of `tensor` run them
(`gru_sequence`, which takes the encoder's two GRUs, `sentence_log_prob`,
`soft_select` and `attention`). A GRU's nine gates exist only here, as
views of its blocks, for the checkpoint's manifest (`ModelParams.manifest`)."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError, DimensionError
from .tensor import Tensor

GATES = ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h", "b_z", "b_r", "b_h")


def gate_views(w, u_zr, u_h):
    """A GRU's nine gates, in `GATES` order, as views of its blocks
    [W_z | W_r | W_h] over [b_z | b_r | b_h], [U_z | U_r] and U_h."""
    d = u_h.shape[-1]
    return [w[:-1, :d], w[:-1, d:2 * d], w[:-1, 2 * d:], u_zr[:, :d], u_zr[:, d:], u_h,
            w[-1, :d], w[-1, d:2 * d], w[-1, 2 * d:]]


def gate_shapes(d_in, d_h):
    """The shapes of the views `gate_views` cuts, from the widths alone."""
    return 3 * [(d_in, d_h)] + 3 * [(d_h, d_h)] + 3 * [(d_h,)]


@dataclass
class GruParams:
    """Cell `cell` of a GRU layer whose D cells share three blocks, each with
    a leading cell axis: w = [W_z | W_r | W_h] over [b_z | b_r | b_h] (D,
    d_in + 1, 3 d_h), so [x, 1] w = x W + b, u_zr = [U_z | U_r] (D, d_h,
    2 d_h) and u_h (D, d_h, d_h)."""

    w: Tensor
    u_zr: Tensor
    u_h: Tensor
    cell: int = 0

    def __post_init__(self):
        cells, rows, width = self.w.shape if len(self.w.shape) == 3 else (0, 0, 0)
        d = width // 3
        want = (cells, rows, 3 * d), (cells, d, 2 * d), (cells, d, d)
        if (self.w.shape, self.u_zr.shape, self.u_h.shape) != want or not 0 <= self.cell < cells:
            raise DimensionError(f"GruParams: blocks {self.w.shape}, {self.u_zr.shape} and "
                                 f"{self.u_h.shape} hold no layer with a cell {self.cell}")

    def sides(self):
        """This cell's blocks, [W | b] (d_in + 1, 3 d_h), [U_z | U_r] and U_h:
        views, not copies, so they show every change to the weights."""
        return self.w.data[self.cell], self.u_zr.data[self.cell], self.u_h.data[self.cell]

    def gates(self):
        """{gate: view} of this cell's nine gates, in `GATES` order."""
        return dict(zip(GATES, gate_views(*self.sides())))

    def named(self):
        return [("w", self.w), ("u_zr", self.u_zr), ("u_h", self.u_h)]


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
