"""Containers passed between the dataset builder, trainer, and evaluator."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audio import AudioClip, FeatureStats
from .config import RunConfig
from .motion import MotionClip


@dataclass(frozen=True)
class TrainingSample:
    """One supervised step: consecutive clips plus the aligned audio of the
    current clip and the mode-change pseudo-label between them."""

    m_prev: MotionClip
    m_cur: MotionClip
    s_cur: AudioClip
    c: int
    speaker_id: str
    segment_id: str

    def __post_init__(self) -> None:
        if self.c not in (0, 1):
            raise ValueError(f"mode label must be 0 or 1, got {self.c!r}")
        if self.m_prev.frames.shape != self.m_cur.frames.shape:
            raise ValueError("consecutive clips must share shape")
        if self.s_cur.t != self.m_cur.t:
            raise ValueError(
                f"audio rows ({self.s_cur.t}) must match motion frames ({self.m_cur.t})"
            )


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint train/val/test sample lists, split by segment, plus the
    feature statistics fit on the training portion."""

    train: tuple[TrainingSample, ...]
    val: tuple[TrainingSample, ...]
    test: tuple[TrainingSample, ...]
    feature_stats: FeatureStats

    def __post_init__(self) -> None:
        seen: dict[str, str] = {}
        for name in ("train", "val", "test"):
            for sample in getattr(self, name):
                prior = seen.setdefault(sample.segment_id, name)
                if prior != name:
                    raise ValueError(
                        f"segment {sample.segment_id} appears in both {prior} and {name}"
                    )


@dataclass
class Checkpoint:
    """Everything needed to run a trained model.

    params holds both branches' weights, keyed as their param_shapes lay
    them out (`pose.f_enc.w0`, ..., `rhythm.head.b`).
    """

    params: dict[str, np.ndarray]
    config: RunConfig
    feature_stats: FeatureStats
    rest_posture: np.ndarray
    seed: int
    epoch: int
    val_lvd: float | None = None
    extra: dict = field(default_factory=dict)
