"""Sequence generation: mode schedules plus autoregressive clip stacking.

A run of n steps consumes n aligned audio clips and a schedule of n 0/1 mode
labels: `keyword_schedule` or `interval_schedule` builds one, or the caller
gives the labels outright. The paper's two streams are independent until
they are composed, so they run apart. The rhythm stream maps every step's
audio to offsets first, in blocks of `_RHYTHM_BLOCK` steps, before any pose
is drawn. The pose chain then runs step by step: it embeds the previous
pose-mode clip, draws (or zeroes) a latent code under the step's label and
decodes the next pose-mode clip. A run's result is these two outputs as
arrays, kept apart; the motion is their sum. The autoregression feeds the
pose-mode clip forward, not the composed one, so rhythm never leaks into
posture. Several seeds run as one batch: the pose-mode chain runs once per
step for all of them, and the seed-independent offsets are computed once and
shared. Each seed has its own generator, seeded once and consumed only at
steps whose label is 1, so a prefix of the schedule reproduces a prefix of
the output.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import nn
from .audio import Transcript
from .config import RunConfig
from .errors import DataError, NumericError
from .model import pose_step, rhythm_offsets

# Steps whose offsets one rhythm forward computes. At the paper size, blocks
# of 12-16 steps ran fastest: one step at a time pays the per-call overhead
# 16 times over, and all of a long run at once spills the activations out of
# L2. A step's offsets do not depend on the blocking.
_RHYTHM_BLOCK = 16


def keyword_schedule(
    transcript: Transcript, n_steps: int, clip_duration_s: float, keywords: Sequence[str]
) -> tuple[int, ...]:
    """Label 1 for every step whose span [i*dur, (i+1)*dur) holds the start
    of a keyword token, matched ignoring case and surrounding punctuation."""
    if not clip_duration_s > 0:  # NaN fails this too
        raise ValueError(f"clip_duration_s must be positive, got {clip_duration_s}")
    wanted = {w.lower() for w in keywords}
    # step i spans [i*dur, (i+1)*dur), with the bounds computed exactly so
    edges = [i * clip_duration_s for i in range(n_steps + 1)]
    labels = [0] * n_steps
    for word, start, _ in transcript.tokens:
        i = bisect_right(edges, start) - 1
        if i < n_steps and word.lower().strip(".,!?;:") in wanted:
            labels[i] = 1
    return tuple(labels)


def interval_schedule(n_steps: int, interval: int) -> tuple[int, ...]:
    """Label 1 on every interval-th step: steps i with (i + 1) % interval == 0."""
    if interval < 1:
        raise ValueError(f"interval must be at least 1, got {interval}")
    return tuple(int((i + 1) % interval == 0) for i in range(n_steps))


@dataclass(frozen=True)
class GenerationResult:
    """One seed's run: the two branch outputs of every step, kept apart.

    z (n_steps, d_z) are the seed's latent codes (zero rows where the label
    is 0) and pose (n_steps, T, D) its pose-mode clips. offsets
    (n_steps, T, D) are the rhythm offsets: they do not depend on the seed,
    and every result of one call shares the same read-only array.
    """

    seed: int
    labels: tuple[int, ...]
    z: np.ndarray
    pose: np.ndarray
    offsets: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.labels)

    @property
    def motion(self) -> np.ndarray:
        """Composed motion, the steps stacked to (n_steps * T, D)."""
        return (self.pose + self.offsets).reshape(-1, self.pose.shape[-1])


def generate_sequence(
    initial_pose: np.ndarray,
    audio: np.ndarray,
    schedule: Sequence[int],
    config: RunConfig,
    params: Mapping[str, np.ndarray],
    *,
    seeds: Sequence[int] = (0,),
) -> list[GenerationResult]:
    """Run the autoregressive loop over aligned audio clips, for every seed at once.

    Args:
        initial_pose: (T, D) frames standing in for the step-0 "previous motion".
        audio: (n_steps, T, D_S) standardized features, one clip per step.
        schedule: the mode label (0 or 1) of every step.
        config: the run configuration sizing both branches.
        params: both branches' weights.
        seeds: one generator per seed, each drawing that seed's latent codes.

    Returns:
        One GenerationResult per seed, in order. Seeds match their own
        single-seed runs to rounding (batched and single-row matrix products
        may round differently); rows before the first label-1 step are
        bit-identical across seeds.

    Raises:
        DataError when there is no audio clip, or a feature or an initial
        pose value is not finite.
        NumericError naming the first step whose pose-mode clips or offsets
        hold a non-finite value.
    """
    audio = np.asarray(audio, dtype=np.float64)
    if not len(audio):
        raise DataError("generation needs at least one audio clip")
    if any(c not in (0, 1) for c in schedule):
        raise ValueError("schedule labels must all be 0 or 1")
    labels = tuple(int(c) for c in schedule)
    if len(audio) != len(labels):
        raise ValueError(
            f"schedule length {len(labels)} does not match {len(audio)} audio clips"
        )
    seeds = list(seeds)
    if not seeds:
        raise ValueError("generation needs at least one seed")
    t, d_z = config.t_frames, config.model.d_z
    if audio.shape[1:] != (t, config.mfcc.d_s):
        raise ValueError(
            f"audio features shape {audio.shape[1:]} does not match"
            f" configured ({t}, {config.mfcc.d_s})"
        )
    if not np.isfinite(audio).all():
        raise DataError("audio features contain non-finite values")
    initial_pose = np.asarray(initial_pose, dtype=np.float64)
    if initial_pose.shape != (t, config.d_m):
        raise ValueError(
            f"initial pose shape {initial_pose.shape} does not match"
            f" configured ({t}, {config.d_m})"
        )
    if not np.isfinite(initial_pose).all():
        raise DataError("initial pose contains non-finite values")
    n = len(labels)
    pv = nn.param_vars(params)
    offsets = np.concatenate([
        rhythm_offsets(config, pv, audio[i : i + _RHYTHM_BLOCK])
        for i in range(0, n, _RHYTHM_BLOCK)
    ])
    offsets.flags.writeable = False
    rngs = [np.random.default_rng(seed) for seed in seeds]
    x_prev = initial_pose.reshape(1, -1)
    z_steps, pose_steps = [], []
    for c in labels:
        if c:
            z = np.stack([rng.standard_normal(d_z) for rng in rngs])
        else:
            z = np.zeros((len(seeds), d_z))
        x_prev = pose_step(config, pv, x_prev, z)
        z_steps.append(z)
        pose_steps.append(x_prev)
    z = np.stack(z_steps, axis=1)
    pose_clips = np.stack(pose_steps, axis=1).reshape(len(seeds), n, t, -1)
    finite = np.isfinite(pose_clips).all(axis=(0, 2, 3)) & np.isfinite(offsets).all(axis=(1, 2))
    if not finite.all():
        raise NumericError(
            f"generation produced non-finite motion at step {int(np.argmin(finite))} of {n}"
        )
    return [
        GenerationResult(seed, labels, z[i], pose_clips[i], offsets)
        for i, seed in enumerate(seeds)
    ]
