"""Rhythm branch: audio features to per-frame motion offsets.

A stack of same-padded temporal convolutions maps the (T, D_S) feature rows
of a clip to (T, D_M) offsets around the clip's mean posture. The branch is
sized by a RunConfig alone: D_S is `config.mfcc.d_s`, D_M is `config.d_m`,
and the depth, width, kernel and activation come from `config.model`. It is
deterministic; all the stochasticity of generation lives in the pose-mode
branch.
"""

from __future__ import annotations

from typing import Mapping

from . import autodiff as ad
from . import nn
from .config import RunConfig


class RhythmBranch:
    def __init__(self, config: RunConfig):
        self.config = config
        m = config.model
        self.net = nn.TemporalConv(
            c_in=config.mfcc.d_s,
            c_out=config.d_m,
            hidden=m.rhythm_hidden,
            n_layers=m.rhythm_layers,
            kernel=m.rhythm_kernel,
            activation=m.activation,
        )

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Layout keyed `rhythm.<layer>`."""
        return {f"rhythm.{key}": shape for key, shape in self.net.param_shapes().items()}

    def forward_v(self, pv: Mapping[str, ad.Var], x: ad.Var) -> ad.Var:
        """Tape-level forward on a (B, T, D_S) batch."""
        return self.net.apply(pv, x, "rhythm.")
