"""2D landmark motion: containers and the posture/rhythm decomposition.

A motion sequence is an (N, D) float64 array of per-frame landmark
coordinates, D = 2 * number of joints, laid out (x0, y0, x1, y1, ...)
according to a JointSpec. Sequences are cut into fixed-length clips, and
every clip splits exactly into a time-averaged posture plus zero-mean
per-frame offsets:

    frames == mean_posture + offsets        (rows of `offsets` sum to ~0)

The two generation branches are built around that identity: one predicts
the posture part, the other predicts the offsets, and composition is a
plain addition. All functions here are pure and operate in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

DEFAULT_FPS = 15.0


@dataclass(frozen=True)
class JointSpec:
    """Names and roles of the tracked joints.

    Attributes:
        names: joint names in storage order; coordinates of joint j occupy
            columns 2j (x) and 2j + 1 (y).
        hand_indices: indices of the joints that count as "hands" for the
            mode-change pseudo-labeling rule.
        root: joint subtracted per frame by skeleton normalization.
        scale_pair: bone whose mean length defines the sequence scale unit.
    """

    names: tuple[str, ...]
    hand_indices: tuple[int, ...]
    root: str = "neck"
    scale_pair: tuple[str, str] = ("neck", "nose")

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError("joint names must be unique")
        for idx in self.hand_indices:
            if not 0 <= idx < len(self.names):
                raise ValueError(f"hand index {idx} out of range")
        for name in (self.root, *self.scale_pair):
            if name not in self.names:
                raise ValueError(f"joint {name!r} not in joint names")
        if self.scale_pair[0] == self.scale_pair[1]:
            raise ValueError("scale pair must name two distinct joints")

    @property
    def n_joints(self) -> int:
        return len(self.names)

    @property
    def d_m(self) -> int:
        """Width of a frame row: two coordinates per joint."""
        return 2 * len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def xy(self, name_or_index: str | int) -> slice:
        """Column slice holding the (x, y) pair of one joint."""
        j = name_or_index if isinstance(name_or_index, int) else self.index(name_or_index)
        return slice(2 * j, 2 * j + 2)


# Upper-body set used throughout: nose + neck + both arms + two points per hand.
DEFAULT_JOINTS = JointSpec(
    names=(
        "nose",
        "neck",
        "right_shoulder",
        "right_elbow",
        "right_wrist",
        "left_shoulder",
        "left_elbow",
        "left_wrist",
        "right_palm",
        "right_fingertip",
        "left_palm",
        "left_fingertip",
    ),
    hand_indices=(8, 9, 10, 11),
)

DEFAULT_MODE_THRESHOLD = 0.25


def _as_frames(array, d_m: int | None = None) -> np.ndarray:
    frames = np.asarray(array, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError(f"expected a 2-D frame array, got shape {frames.shape}")
    if d_m is not None and frames.shape[1] != d_m:
        raise ValueError(f"frame width {frames.shape[1]} does not match joint spec ({d_m})")
    if not np.all(np.isfinite(frames)):
        raise DataError("frame array contains non-finite values")
    return frames


@dataclass(frozen=True)
class MotionClip:
    """Fixed-length window of landmark frames.

    frames: (T, D) float64, T >= 2. The array is copied and frozen so clips
    can be shared without defensive copies downstream.
    """

    frames: np.ndarray
    fps: float = DEFAULT_FPS
    joint_spec: JointSpec = field(default=DEFAULT_JOINTS)

    def __post_init__(self) -> None:
        frames = _as_frames(self.frames, self.joint_spec.d_m).copy()
        if frames.shape[0] < 2:
            raise ValueError("a clip needs at least two frames")
        if not self.fps > 0:
            raise ValueError("fps must be positive")
        frames.flags.writeable = False
        object.__setattr__(self, "frames", frames)

    @property
    def t(self) -> int:
        return self.frames.shape[0]

    @property
    def d_m(self) -> int:
        return self.frames.shape[1]

    @property
    def duration_s(self) -> float:
        return self.t / self.fps


@dataclass(frozen=True)
class MeanPosture:
    """Per-clip time average of the frames; one row of width D."""

    posture: np.ndarray

    def __post_init__(self) -> None:
        posture = np.asarray(self.posture, dtype=np.float64).copy()
        if posture.ndim != 1:
            raise ValueError(f"posture must be 1-D, got shape {posture.shape}")
        if not np.all(np.isfinite(posture)):
            raise DataError("posture contains non-finite values")
        posture.flags.writeable = False
        object.__setattr__(self, "posture", posture)

    @property
    def d_m(self) -> int:
        return self.posture.shape[0]


@dataclass(frozen=True)
class RhythmOffset:
    """Per-frame residuals around a clip's mean posture, (T, D)."""

    offsets: np.ndarray

    def __post_init__(self) -> None:
        offsets = _as_frames(self.offsets).copy()
        offsets.flags.writeable = False
        object.__setattr__(self, "offsets", offsets)

    @property
    def t(self) -> int:
        return self.offsets.shape[0]

    @property
    def d_m(self) -> int:
        return self.offsets.shape[1]


def chunk_sequence(
    sequence,
    t_frames: int,
    *,
    joint_spec: JointSpec = DEFAULT_JOINTS,
) -> np.ndarray:
    """Cut a sequence into consecutive non-overlapping clips of t_frames.

    Returns the (count, t_frames, D) reshape of the sequence's first
    count * t_frames frames; the trailing remainder of fewer than t_frames
    frames is dropped. A sequence shorter than one clip is a data error.
    """
    if t_frames < 2:
        raise ValueError("t_frames must be at least 2")
    frames = _as_frames(sequence, joint_spec.d_m)
    n = frames.shape[0]
    if n < t_frames:
        raise DataError(f"sequence of {n} frames is shorter than one clip ({t_frames})")
    count = n // t_frames
    return frames[: count * t_frames].reshape(count, t_frames, -1)


def normalize_skeleton(sequence, joint_spec: JointSpec = DEFAULT_JOINTS) -> np.ndarray:
    """Remove global translation and scale from a landmark sequence.

    Per frame, the root joint is moved to the origin; then every coordinate
    is divided by the mean length of the reference bone over the sequence,
    so that bone has mean length 1. Applying the function twice changes
    nothing (up to float rounding), and any uniform scale + constant
    translation of the input maps to the same output.
    """
    frames = _as_frames(sequence, joint_spec.d_m)
    root = frames[:, joint_spec.xy(joint_spec.root)]
    centered = frames - np.tile(root, joint_spec.n_joints)
    a, b = joint_spec.scale_pair
    bone = frames[:, joint_spec.xy(a)] - frames[:, joint_spec.xy(b)]
    scale = float(np.mean(np.hypot(bone[:, 0], bone[:, 1])))
    if scale < 1e-8:
        raise DataError(
            f"degenerate reference bone {a}->{b}: mean length {scale:.3e} is too small to scale by"
        )
    return centered / scale


def temporal_mean(clip: MotionClip) -> MeanPosture:
    """Time average of a clip's frames."""
    return MeanPosture(clip.frames.mean(axis=0))


def decompose(clip: MotionClip) -> tuple[MeanPosture, RhythmOffset]:
    """Split a clip into its mean posture and zero-mean per-frame offsets."""
    mean = clip.frames.mean(axis=0)
    return MeanPosture(mean), RhythmOffset(clip.frames - mean)


def compose(
    mean: MeanPosture,
    offset: RhythmOffset,
    *,
    fps: float = DEFAULT_FPS,
    joint_spec: JointSpec = DEFAULT_JOINTS,
) -> MotionClip:
    """Rebuild a clip by adding a mean posture to every offset row."""
    if mean.d_m != offset.d_m:
        raise ValueError(
            f"posture width {mean.d_m} does not match offset width {offset.d_m}"
        )
    return MotionClip(mean.posture + offset.offsets, fps=fps, joint_spec=joint_spec)


def swap_dynamics(a: MotionClip, b: MotionClip) -> tuple[MotionClip, MotionClip]:
    """Exchange the rhythmic offsets of two clips, keeping each mean posture.

    Requires matching frame counts and widths. Swapping twice restores the
    originals, and temporal means are preserved exactly.
    """
    if a.frames.shape != b.frames.shape:
        raise ValueError(f"clip shapes differ: {a.frames.shape} vs {b.frames.shape}")
    mean_a, off_a = decompose(a)
    mean_b, off_b = decompose(b)
    swapped_a = compose(mean_a, off_b, fps=a.fps, joint_spec=a.joint_spec)
    swapped_b = compose(mean_b, off_a, fps=b.fps, joint_spec=b.joint_spec)
    return swapped_a, swapped_b


def label_mode_change(
    prev,
    cur,
    joint_spec: JointSpec,
    threshold: float = DEFAULT_MODE_THRESHOLD,
) -> np.ndarray:
    """Pseudo-label whether the base posture switches between paired clips.

    prev and cur are (N, T, D) stacks of clip pairs; the result holds one
    int64 label per pair, (N,). A label is 1 when the hand joints of the two
    mean postures are far apart: the Euclidean displacement per hand joint,
    averaged over hand joints, strictly exceeds `threshold` (in normalized
    skeleton units). Rhythmic motion averages out of the mean postures, so
    within-posture pairs stay well below any sensible threshold.
    """
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    prev = np.asarray(prev, dtype=np.float64)
    cur = np.asarray(cur, dtype=np.float64)
    if prev.shape != cur.shape:
        raise ValueError(f"clip shapes differ: {prev.shape} vs {cur.shape}")
    if prev.ndim < 2 or prev.shape[-1] != joint_spec.d_m:
        raise ValueError(
            f"clips of shape {prev.shape} do not fit the joint spec ({joint_spec.d_m} wide)"
        )
    if not (np.isfinite(prev).all() and np.isfinite(cur).all()):
        raise DataError("clip frames contain non-finite values")
    if not joint_spec.hand_indices:
        raise DataError("joint spec defines no hand joints to label with")
    delta = prev.mean(axis=-2) - cur.mean(axis=-2)
    x_cols = 2 * np.array(joint_spec.hand_indices)
    dists = np.hypot(delta[..., x_cols], delta[..., x_cols + 1])
    return (dists.mean(axis=-1) > threshold).astype(np.int64)
