"""The model of one RunConfig: its parameter layout and its two inference streams.

A model is a `(config, params)` pair. The config sizes both branches, and
`param_shapes(config)` is the one layout of their joint parameters; each
forward caller builds the two branch objects from the config it is given.
The streams are independent until they are composed: `pose_step` runs the
pose-mode chain one step, `rhythm_offsets` maps audio clips to offsets, and
`one_step` runs both on one batch.
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


def pose_step(
    config: RunConfig, pv: Mapping[str, ad.Var], x_prev: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """The pose stream, one batched step on constants: the pose-mode clips (B, T*D_M).

    pv are the weights as tape Vars (`nn.param_vars`), so a loop over steps
    wraps them once. z (B, d_z) are latent codes, already gated by the mode
    labels, and x_prev (B or 1, T*D_M) the flattened previous clips; a
    single row serves the whole batch and is encoded once.
    """
    pose = PoseModeBranch(config)
    e_prev = pose.encode_v(pv, ad.Var(x_prev)).data
    e_prev = np.broadcast_to(e_prev, (len(z), e_prev.shape[1]))
    e_star = pose.decode_transition_v(pv, ad.Var(z), ad.Var(e_prev))
    return pose.decode_v(pv, e_star).data


def rhythm_offsets(config: RunConfig, pv: Mapping[str, ad.Var], audio: np.ndarray) -> np.ndarray:
    """The rhythm stream on constants: (B, T, D_S) standardized features to
    (B, T, D_M) offsets. It reads no pose state; pv is as in `pose_step`."""
    return RhythmBranch(config).forward_v(pv, ad.Var(audio)).data


def one_step(
    config: RunConfig,
    params: Mapping[str, np.ndarray],
    x_prev: np.ndarray,
    z: np.ndarray,
    audio: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Both streams on one batch: pose-mode clips (B, T*D_M) and offsets
    (B or 1, T, D_M), whose sum is the composed clip.

    params holds both branches' weights; x_prev and z are as in
    `pose_step`, and audio (B or 1, T, D_S) as in `rhythm_offsets`.
    """
    pv = nn.param_vars(params)
    return pose_step(config, pv, x_prev, z), rhythm_offsets(config, pv, audio)
