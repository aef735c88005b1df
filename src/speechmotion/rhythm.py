"""Rhythm branch: audio features to per-frame motion offsets.

A stack of same-padded temporal convolutions maps the (T, D_S) feature rows
of a clip to (T, D_M) offsets around the clip's mean posture. The branch is
deterministic; all the stochasticity of generation lives in the pose-mode
branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from . import nn
from .audio import AudioClip
from .motion import MotionClip, RhythmOffset


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

    def init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Initial weights keyed `rhythm.<layer>`."""
        return {f"rhythm.{key}": value for key, value in self.net.init_params(rng).items()}

    @property
    def n_params(self) -> int:
        return self.net.n_params

    def forward_v(self, pv: Mapping[str, ad.Var], x: ad.Var) -> ad.Var:
        """Tape-level forward on a (B, T, D_S) batch."""
        return self.net.apply(pv, x, "rhythm.")

    def generate(self, params: Mapping[str, np.ndarray], audio: AudioClip) -> RhythmOffset:
        """Predict offsets for one clip of aligned audio features."""
        cfg = self.config
        if audio.features.shape != (cfg.t_frames, cfg.d_s):
            raise ValueError(
                f"audio features shape {audio.features.shape} does not match"
                f" configured ({cfg.t_frames}, {cfg.d_s})"
            )
        out = self.forward_v(nn.param_vars(params), ad.Var(audio.features[None]))
        return RhythmOffset(out.data[0])


def loss_rhythm(pred: RhythmOffset, gt: MotionClip) -> float:
    """Mean-absolute error against the ground-truth offsets of a clip.

    The target is the clip minus its own temporal mean, so the branch is
    never asked to reproduce posture, only residual motion.
    """
    if pred.offsets.shape != gt.frames.shape:
        raise ValueError(
            f"offset shape {pred.offsets.shape} does not match clip shape {gt.frames.shape}"
        )
    target = gt.frames - gt.frames.mean(axis=0)
    return float(np.mean(np.abs(pred.offsets - target)))
