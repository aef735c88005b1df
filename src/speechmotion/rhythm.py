"""Rhythm branch: audio features to per-frame motion offsets.

A stack of same-padded temporal convolutions maps the (T, D_S) feature rows
of a clip to (T, D_M) offsets around the clip's mean posture. The branch is
deterministic; all the stochasticity of generation lives in the pose-mode
branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import autodiff as ad
from . import nn


@dataclass(frozen=True)
class RhythmConfig:
    t_frames: int
    d_s: int
    d_m: int
    hidden: int = 128
    n_layers: int = 4
    kernel: int = 5
    activation: str = "tanh"

    def __post_init__(self) -> None:
        if min(self.t_frames, self.d_s, self.d_m, self.hidden, self.n_layers) < 1:
            raise ValueError("all rhythm sizes must be positive")


class RhythmBranch:
    def __init__(self, config: RhythmConfig):
        self.config = config
        self.net = nn.TemporalConv(
            c_in=config.d_s,
            c_out=config.d_m,
            hidden=config.hidden,
            n_layers=config.n_layers,
            kernel=config.kernel,
            activation=config.activation,
        )

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Layout keyed `rhythm.<layer>`."""
        return {f"rhythm.{key}": shape for key, shape in self.net.param_shapes().items()}

    def forward_v(self, pv: Mapping[str, ad.Var], x: ad.Var) -> ad.Var:
        """Tape-level forward on a (B, T, D_S) batch."""
        return self.net.apply(pv, x, "rhythm.")
