"""Containers passed between the dataset builder, trainer, and evaluator."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .audio import FeatureStats
from .config import RunConfig
from .errors import DataError


_LAYOUT = {  # field: (dtype, ndim)
    "m_prev": (np.float64, 3),
    "m_cur": (np.float64, 3),
    "audio": (np.float64, 3),
    "c": (np.int64, 1),
    "speaker": (str, 1),
    "segment": (str, 1),
}


@dataclass(frozen=True)
class SampleSet:
    """N supervised steps, stacked as `split/1` stores them.

    Row i pairs the previous clip m_prev[i] with the current clip m_cur[i],
    the aligned audio features of the current clip and the mode-change
    pseudo-label between the two:

        m_prev, m_cur  (N, T, D) float64
        audio          (N, T, D_S) float64
        c              (N,) int64, each 0 or 1
        speaker, segment  (N,) str

    Every array is read-only; writeable inputs are copied, read-only ones
    shared. A slice or an index array gives the set of those rows.
    """

    m_prev: np.ndarray
    m_cur: np.ndarray
    audio: np.ndarray
    c: np.ndarray
    speaker: np.ndarray
    segment: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.c)
        for name, (dtype, ndim) in _LAYOUT.items():
            array = np.asarray(getattr(self, name), dtype=dtype)
            if array.flags.writeable:
                array = array.copy()
                array.flags.writeable = False
            if array.ndim != ndim or len(array) != n:
                raise ValueError(f"{name} has shape {array.shape}, expected {ndim}-D with {n} rows")
            if dtype is np.float64 and not np.isfinite(array).all():
                raise DataError(f"{name} contains non-finite values")
            object.__setattr__(self, name, array)
        if self.m_prev.shape != self.m_cur.shape or self.audio.shape[1] != self.m_cur.shape[1]:
            raise ValueError(
                f"clip shapes disagree: m_prev {self.m_prev.shape}, m_cur {self.m_cur.shape},"
                f" audio {self.audio.shape}"
            )
        bad = self.c[(self.c != 0) & (self.c != 1)]
        if bad.size:
            raise ValueError(f"mode label must be 0 or 1, got {bad[0]}")

    def __len__(self) -> int:
        return len(self.c)

    def __getitem__(self, rows) -> "SampleSet":
        arrays = [getattr(self, name)[rows] for name in _LAYOUT]
        for array in arrays:  # a fresh gather or a view of frozen rows: no copy needed
            array.flags.writeable = False
        return SampleSet(*arrays)

    @classmethod
    def concatenate(cls, sets) -> "SampleSet":
        """The rows of every set, in order; needs at least one set."""
        return cls(*(np.concatenate([getattr(s, name) for s in sets]) for name in _LAYOUT))

    def standardized(self, stats: FeatureStats) -> "SampleSet":
        """The same rows with the audio standardized by each row's speaker."""
        audio = np.empty_like(self.audio)
        for speaker in np.unique(self.speaker):
            rows = self.speaker == speaker
            audio[rows] = stats.transform(self.audio[rows], str(speaker))
        return replace(self, audio=audio)


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint train/val/test sample sets, split by segment, plus the
    feature statistics fit on the training portion."""

    train: SampleSet
    val: SampleSet
    test: SampleSet
    feature_stats: FeatureStats

    def __post_init__(self) -> None:
        seen: dict[str, str] = {}
        for name in ("train", "val", "test"):
            for segment in np.unique(getattr(self, name).segment):
                prior = seen.setdefault(str(segment), name)
                if prior != name:
                    raise ValueError(f"segment {segment} appears in both {prior} and {name}")


@dataclass
class Checkpoint:
    """Everything needed to run a trained model.

    params holds both branches' weights, keyed as `model.param_shapes`
    lays them out (`pose.f_enc.w0`, ..., `rhythm.head.b`).
    """

    params: dict[str, np.ndarray]
    config: RunConfig
    feature_stats: FeatureStats
    rest_posture: np.ndarray
    seed: int
    epoch: int
    val_lvd: float | None = None
