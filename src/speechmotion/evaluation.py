"""Checkpoint evaluation: per-speaker metric rows over a sample list.

Each sample is scored by one-step generation: the ground-truth previous clip
is encoded, the latent code is drawn under the sample's mode label, and the
composed prediction is compared to the ground-truth current clip. Diversity
redraws the latent code many times for a handful of audios; quality pits the
generated clips against the real ones.
"""

from __future__ import annotations

import numpy as np

from .data import Checkpoint, TrainingSample
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
from .model import build_branches, one_step
from .training import one_step_predictions


def sample_diversity(
    ckpt: Checkpoint,
    sample: TrainingSample,
    n_samples: int = 64,
    seed: int = 0,
) -> float:
    """Diversity over repeated latent draws (c = 1) for one audio/prev pair."""
    if n_samples < 2:
        raise ValueError("need at least two draws")
    pose, rhythm = build_branches(ckpt.config)
    rng = np.random.default_rng(seed)
    x_prev = sample.m_prev.frames.reshape(1, -1)
    z = rng.standard_normal((n_samples, pose.config.d_z))
    audio = ckpt.feature_stats.transform(sample.s_cur.features, sample.speaker_id)
    pose_flat, offsets = one_step(pose, rhythm, ckpt.params, x_prev, z, audio[None])
    return diversity(list(pose_flat.reshape(n_samples, *sample.m_cur.frames.shape) + offsets))


def evaluate_checkpoint(
    ckpt: Checkpoint,
    samples,
    *,
    seed: int = 0,
    meta: dict | None = None,
) -> MetricReport:
    """Score a checkpoint on a sample list, one metric row per speaker."""
    samples = list(samples)
    if not samples:
        raise DataError("no samples to evaluate")
    ev = ckpt.config.evaluate
    pose, rhythm = build_branches(ckpt.config)
    by_speaker: dict[str, list[TrainingSample]] = {}
    for s in samples:
        by_speaker.setdefault(s.speaker_id, []).append(s)

    rows = []
    for speaker in sorted(by_speaker):
        group = by_speaker[speaker]
        rng = np.random.default_rng([seed, len(group)])
        generated = one_step_predictions(
            group, pose, rhythm, ckpt.params, ckpt.feature_stats, rng
        )
        t = group[0].m_cur.t
        lvd_model = float(
            np.mean([lvd(generated[i], s.m_cur.frames) for i, s in enumerate(group)])
        )
        lvd_last = float(
            np.mean(
                [lvd(baseline_last_step(s.m_prev, t), s.m_cur.frames) for s in group]
            )
        )
        lvd_mean = float(
            np.mean(
                [lvd(baseline_mean_velocity(s.m_cur.frames), s.m_cur.frames) for s in group]
            )
        )
        div_values = [
            sample_diversity(ckpt, s, n_samples=ev.diversity_samples, seed=seed + i)
            for i, s in enumerate(group[: ev.diversity_audios])
        ]
        if len(group) >= 4:
            quality = quality_score(
                [s.m_cur.frames for s in group],
                list(generated),
                seed=seed,
                hidden=ev.quality_hidden,
                n_layers=ev.quality_layers,
                epochs=ev.quality_epochs,
                lr=ev.quality_lr,
                train_frac=ev.quality_train_frac,
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
                diversity=float(np.mean(div_values)),
                quality=quality,
            )
        )
    report_meta = {"seed": seed, "config_hash": ckpt.config.config_hash()}
    if meta:
        report_meta.update(meta)
    return MetricReport(rows=tuple(rows), meta=report_meta)
