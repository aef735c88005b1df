"""Both branches of one RunConfig, plus the one-step forward that runs them together."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from . import autodiff as ad
from . import nn
from .config import RunConfig
from .posemode import PoseModeBranch
from .rhythm import RhythmBranch


def build_branches(config: RunConfig) -> tuple[PoseModeBranch, RhythmBranch]:
    return PoseModeBranch(config), RhythmBranch(config)


def one_step(
    pose: PoseModeBranch,
    rhythm: RhythmBranch,
    params: Mapping[str, np.ndarray],
    x_prev: np.ndarray,
    z: np.ndarray,
    audio: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched one-step generation on constants: the two branch outputs apart.

    params holds both branches' weights. z (B, d_z) are latent codes,
    already gated by the mode labels. x_prev (B or 1, T*D_M) are the
    flattened previous clips and audio (B or 1, T, D_S) the standardized
    features; a single row serves the whole batch and is run through its
    network once.

    Returns the pose-mode clips (B, T*D_M) and the rhythm offsets
    (B or 1, T, D_M); the composed clip is their sum.
    """
    pv = nn.param_vars(params)
    e_prev = pose.encode_v(pv, ad.Var(x_prev)).data
    e_prev = np.broadcast_to(e_prev, (len(z), e_prev.shape[1]))
    e_star = pose.decode_transition_v(pv, ad.Var(z), ad.Var(e_prev))
    pose_flat = pose.decode_v(pv, e_star).data
    offsets = rhythm.forward_v(pv, ad.Var(audio)).data
    return pose_flat, offsets
