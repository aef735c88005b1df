"""Glue from RunConfig to concrete branch objects, plus the one-step forward."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from . import autodiff as ad
from . import nn
from .config import RunConfig
from .posemode import PoseModeBranch, PoseModeConfig
from .rhythm import RhythmBranch, RhythmConfig


def build_branches(config: RunConfig) -> tuple[PoseModeBranch, RhythmBranch]:
    m = config.model
    pose = PoseModeBranch(
        PoseModeConfig(
            t_frames=config.t_frames,
            d_m=config.d_m,
            d_e=m.d_e,
            d_z=m.d_z,
            enc_hidden=tuple(m.enc_hidden),
            latent_hidden=tuple(m.latent_hidden),
            activation=m.activation,
        ),
        fps=config.fps,
        joint_spec=config.joint_spec,
    )
    rhythm = RhythmBranch(
        RhythmConfig(
            t_frames=config.t_frames,
            d_s=config.mfcc.d_s,
            d_m=config.d_m,
            hidden=m.rhythm_hidden,
            n_layers=m.rhythm_layers,
            kernel=m.rhythm_kernel,
            activation=m.activation,
        )
    )
    return pose, rhythm


def one_step(
    pose: PoseModeBranch,
    pose_params: Mapping[str, np.ndarray],
    rhythm: RhythmBranch,
    rhythm_params: Mapping[str, np.ndarray],
    x_prev: np.ndarray,
    z: np.ndarray,
    audio: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched one-step generation on constants: the two branch outputs apart.

    z (B, d_z) are latent codes, already gated by the mode labels. x_prev
    (B or 1, T*D_M) are the flattened previous clips and audio
    (B or 1, T, D_S) the standardized features; a single row serves the
    whole batch and is run through its network once.

    Returns the pose-mode clips (B, T*D_M) and the rhythm offsets
    (B or 1, T, D_M); the composed clip is their sum.
    """
    pv = nn.param_vars(pose_params)
    e_prev = pose.encode_v(pv, ad.Var(x_prev)).data
    e_prev = np.broadcast_to(e_prev, (len(z), e_prev.shape[1]))
    e_star = pose.decode_transition_v(pv, ad.Var(z), ad.Var(e_prev))
    pose_flat = pose.decode_v(pv, e_star).data
    offsets = rhythm.forward_v(nn.param_vars(rhythm_params), ad.Var(audio)).data
    return pose_flat, offsets
