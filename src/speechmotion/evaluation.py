"""Checkpoint evaluation: per-speaker metric rows over a sample set.

Each sample is scored by one-step generation: the ground-truth previous clip
is encoded, the latent code is drawn under the sample's mode label, and the
composed prediction is compared to the ground-truth current clip. Diversity
redraws the latent code many times for each speaker's first four rows;
quality pits the generated clips against the real ones.
"""

from __future__ import annotations

import numpy as np

from .data import Checkpoint, SampleSet
from .errors import DataError
from .metrics import (
    MetricReport,
    SpeakerMetrics,
    baseline_last_step,
    baseline_mean_velocity,
    diversity,
    lvd,
    quality_score,
)
from .config import RunConfig
from .model import one_step
from .training import one_step_predictions

_DIVERSITY_AUDIOS = 4  # rows of each speaker that diversity redraws latent codes for


def sample_diversity(
    samples: SampleSet,
    config: RunConfig,
    params: dict[str, np.ndarray],
    *,
    n_samples: int = 64,
    seed: int = 0,
) -> float:
    """Mean over a standardized set's rows of the diversity of repeated
    latent draws (c = 1) for the row's previous clip and audio; row i draws
    its codes from the generator seeded with seed + i."""
    values = []
    for i, (prev, audio) in enumerate(zip(samples.m_prev, samples.audio)):
        z = np.random.default_rng(seed + i).standard_normal((n_samples, config.model.d_z))
        pose_flat, offsets = one_step(config, params, prev.reshape(1, -1), z, audio[None])
        values.append(diversity(pose_flat.reshape(n_samples, *prev.shape) + offsets))
    return float(np.mean(values))


def evaluate_checkpoint(
    ckpt: Checkpoint,
    samples: SampleSet,
    *,
    seed: int = 0,
    meta: dict | None = None,
) -> MetricReport:
    """Score a checkpoint on a sample set, one metric row per speaker."""
    if not samples:
        raise DataError("no samples to evaluate")
    config = ckpt.config
    standardized = samples.standardized(ckpt.feature_stats)

    rows = []
    for speaker in sorted(set(samples.speaker.tolist())):
        group = standardized[np.flatnonzero(samples.speaker == speaker)]
        rng = np.random.default_rng([seed, len(group)])
        generated = one_step_predictions(group, config, ckpt.params, rng)
        lvd_model = lvd(generated, group.m_cur)
        lvd_last = lvd(baseline_last_step(group.m_prev, group.m_cur.shape[1]), group.m_cur)
        lvd_mean = lvd(baseline_mean_velocity(group.m_cur), group.m_cur)
        diversity_value = sample_diversity(
            group[:_DIVERSITY_AUDIOS], config, ckpt.params,
            n_samples=config.evaluate.diversity_samples, seed=seed,
        )
        if len(group) >= 4:
            quality = quality_score(
                group.m_cur, generated, seed=seed, epochs=config.evaluate.quality_epochs
            )
        else:  # too few clips to train the classifier for this speaker
            quality = float("nan")
        rows.append(
            SpeakerMetrics(
                speaker_id=speaker,
                n_samples=len(group),
                lvd_model=lvd_model,
                lvd_last_step=lvd_last,
                lvd_mean_velocity=lvd_mean,
                diversity=diversity_value,
                quality=quality,
            )
        )
    report_meta = {"seed": seed, "config_hash": config.config_hash()}
    if meta:
        report_meta.update(meta)
    return MetricReport(rows=tuple(rows), meta=report_meta)
