"""The model of one RunConfig: its parameter layout and the one-step forward.

A model is a `(config, params)` pair. The config sizes both branches, and
`param_shapes(config)` is the one layout of their joint parameters; each
forward caller builds the two branch objects from the config it is given.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from . import autodiff as ad
from . import nn
from .config import RunConfig
from .posemode import PoseModeBranch
from .rhythm import RhythmBranch


def param_shapes(config: RunConfig) -> dict[str, tuple[int, ...]]:
    """Both branches' layout: the `pose.*` keys, then the `rhythm.*` keys.

    `nn.init_params` draws in this key order, so the order is part of every
    trained checkpoint's values.
    """
    return {**PoseModeBranch(config).param_shapes(), **RhythmBranch(config).param_shapes()}


def one_step(
    config: RunConfig,
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
    pose, rhythm = PoseModeBranch(config), RhythmBranch(config)
    pv = nn.param_vars(params)
    e_prev = pose.encode_v(pv, ad.Var(x_prev)).data
    e_prev = np.broadcast_to(e_prev, (len(z), e_prev.shape[1]))
    e_star = pose.decode_transition_v(pv, ad.Var(z), ad.Var(e_prev))
    pose_flat = pose.decode_v(pv, e_star).data
    offsets = rhythm.forward_v(pv, ad.Var(audio)).data
    return pose_flat, offsets
