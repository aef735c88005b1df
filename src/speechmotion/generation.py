"""Sequence generation: mode schedules plus autoregressive clip stacking.

A run of n steps consumes n aligned audio clips and n mode labels. Each step
embeds the previous pose-mode clip, draws (or zeroes) a latent code under
the step's label, decodes the next pose-mode clip and computes the rhythm
branch's offsets for the step's audio. A run's result is these two outputs
as arrays, kept apart; the motion is their sum. The autoregression feeds
the pose-mode clip forward, not the composed one, so rhythm never leaks into
posture. Several seeds run as one batch: the pose-mode chain runs
once per step for all of them, and the seed-independent rhythm offsets are
computed once per step and shared. Each seed has its own generator, seeded
once and consumed only at steps whose label is 1, so a prefix of the
schedule reproduces a prefix of the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .audio import Transcript
from .errors import DataError, NumericError
from .model import one_step
from .posemode import PoseModeBranch
from .rhythm import RhythmBranch

_POLICIES = ("keyword", "fixed-interval", "explicit")


@dataclass(frozen=True)
class ModeSchedule:
    """Binary mode labels per generation step and where they came from."""

    labels: tuple[int, ...]
    provenance: str

    def __post_init__(self) -> None:
        if any(c not in (0, 1) for c in self.labels):
            raise ValueError("schedule labels must all be 0 or 1")
        if self.provenance not in _POLICIES:
            raise ValueError(f"provenance must be one of {_POLICIES}")

    def __len__(self) -> int:
        return len(self.labels)


def mode_schedule(
    transcript: Transcript | None,
    n_steps: int,
    policy: str,
    *,
    clip_duration_s: float | None = None,
    keywords=(),
    interval: int = 4,
    explicit=None,
) -> ModeSchedule:
    """Build the per-step mode labels for a run of n_steps clips.

    keyword: label 1 for every step whose time span [i*dur, (i+1)*dur)
        contains the start of a keyword token.
    fixed-interval: label 1 on every interval-th step (steps i with
        (i + 1) % interval == 0).
    explicit: labels given outright; must match n_steps.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    if policy == "keyword":
        if transcript is None:
            raise ValueError("keyword policy needs a transcript")
        if clip_duration_s is None or clip_duration_s <= 0:
            raise ValueError("keyword policy needs a positive clip duration")
        wanted = {w.lower() for w in keywords}
        if not wanted:
            raise ValueError("keyword policy needs a non-empty keyword list")
        labels = []
        for i in range(n_steps):
            words = transcript.words_between(i * clip_duration_s, (i + 1) * clip_duration_s)
            labels.append(int(any(w.lower().strip(".,!?;:") in wanted for w in words)))
        return ModeSchedule(tuple(labels), "keyword")
    if policy == "fixed-interval":
        if interval < 1:
            raise ValueError("interval must be at least 1")
        return ModeSchedule(tuple(int((i + 1) % interval == 0) for i in range(n_steps)), "fixed-interval")
    if policy == "explicit":
        if explicit is None:
            raise ValueError("explicit policy needs labels")
        labels = tuple(int(c) for c in explicit)
        if len(labels) != n_steps:
            raise ValueError(f"explicit labels have length {len(labels)}, expected {n_steps}")
        return ModeSchedule(labels, "explicit")
    raise ValueError(f"unknown policy {policy!r}; expected one of {_POLICIES}")


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
    schedule: ModeSchedule,
    pose: PoseModeBranch,
    rhythm: RhythmBranch,
    params: Mapping[str, np.ndarray],
    *,
    seeds: Sequence[int] = (0,),
) -> list[GenerationResult]:
    """Run the autoregressive loop over aligned audio clips, for every seed at once.

    Args:
        initial_pose: (T, D) frames standing in for the step-0 "previous motion".
        audio: (n_steps, T, D_S) standardized features, one clip per step.
        schedule: mode labels, one per step.
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
    if len(audio) != len(schedule):
        raise ValueError(
            f"schedule length {len(schedule)} does not match {len(audio)} audio clips"
        )
    seeds = list(seeds)
    if not seeds:
        raise ValueError("generation needs at least one seed")
    t, d_z = pose.config.t_frames, pose.config.model.d_z
    if audio.shape[1:] != (t, rhythm.config.mfcc.d_s):
        raise ValueError(
            f"audio features shape {audio.shape[1:]} does not match"
            f" configured ({t}, {rhythm.config.mfcc.d_s})"
        )
    if not np.isfinite(audio).all():
        raise DataError("audio features contain non-finite values")
    initial_pose = np.asarray(initial_pose, dtype=np.float64)
    if initial_pose.shape != (t, pose.config.d_m):
        raise ValueError(
            f"initial pose shape {initial_pose.shape} does not match"
            f" configured ({t}, {pose.config.d_m})"
        )
    if not np.isfinite(initial_pose).all():
        raise DataError("initial pose contains non-finite values")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    x_prev = initial_pose.reshape(1, -1)
    z_steps, pose_steps, offset_steps = [], [], []
    for i, c in enumerate(schedule.labels):
        if c:
            z = np.stack([rng.standard_normal(d_z) for rng in rngs])
        else:
            z = np.zeros((len(seeds), d_z))
        x_prev, offsets = one_step(pose, rhythm, params, x_prev, z, audio[i : i + 1])
        z_steps.append(z)
        pose_steps.append(x_prev)
        offset_steps.append(offsets[0])
    n = len(schedule)
    z = np.stack(z_steps, axis=1)
    pose_clips = np.stack(pose_steps, axis=1).reshape(len(seeds), n, t, -1)
    offsets = np.stack(offset_steps)
    offsets.flags.writeable = False
    finite = np.isfinite(pose_clips).all(axis=(0, 2, 3)) & np.isfinite(offsets).all(axis=(1, 2))
    if not finite.all():
        raise NumericError(
            f"generation produced non-finite motion at step {int(np.argmin(finite))} of {n}"
        )
    return [
        GenerationResult(seed, schedule.labels, z[i], pose_clips[i], offsets)
        for i, seed in enumerate(seeds)
    ]
