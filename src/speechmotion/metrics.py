"""Evaluation: velocity difference, sample diversity, adversarial quality,
and the two trivial prediction baselines.

All metrics are plain functions over (N, D) float64 landmark sequences.
The quality score trains a small temporal-conv classifier to separate real
from generated sequences and reports the mean predicted-real probability on
held-out generated ones, so 0.5 means indistinguishable and 0 means the
fakes are trivially spotted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import nn
from .errors import DataError
from .motion import MotionClip


def _seq(array, name: str, min_rows: int = 1) -> np.ndarray:
    seq = np.asarray(array, dtype=np.float64)
    if seq.ndim != 2:
        raise ValueError(f"{name} must be 2-D (frames, coords), got shape {seq.shape}")
    if seq.shape[0] < min_rows:
        raise ValueError(f"{name} needs at least {min_rows} frames, got {seq.shape[0]}")
    return seq


def lvd(generated, ground_truth) -> float:
    """Landmark velocity difference: mean |v_gen - v_gt| over all entries.

    Velocities are first differences along time; both sequences must share
    the same (N >= 2, D) shape. Adding a constant posture to both inputs
    changes nothing; scaling both by a factor scales the result by it.
    """
    gen = _seq(generated, "generated", 2)
    gt = _seq(ground_truth, "ground_truth", 2)
    if gen.shape != gt.shape:
        raise ValueError(f"sequence shapes differ: {gen.shape} vs {gt.shape}")
    return float(np.mean(np.abs(np.diff(gen, axis=0) - np.diff(gt, axis=0))))


def diversity(sequences) -> float:
    """Mean pairwise MAE over all unordered pairs of equally-shaped sequences."""
    seqs = [_seq(s, f"sequences[{i}]") for i, s in enumerate(sequences)]
    if len(seqs) < 2:
        raise ValueError("diversity needs at least two sequences")
    shape = seqs[0].shape
    if any(s.shape != shape for s in seqs):
        raise ValueError("all sequences must share one shape")
    stack = np.stack(seqs)
    total = 0.0
    for i in range(len(seqs)):
        total += np.mean(np.abs(stack[i + 1 :] - stack[i]), axis=(1, 2)).sum()
    count = len(seqs) * (len(seqs) - 1) / 2
    return float(total / count)


def baseline_last_step(prev_clip: MotionClip, horizon: int) -> np.ndarray:
    """Extrapolate the last observed velocity for `horizon` frames.

    Frame k of the prediction is last_frame + (k + 1) * last_velocity.
    horizon 0 yields an empty (0, D) array.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    last = prev_clip.frames[-1]
    velocity = prev_clip.frames[-1] - prev_clip.frames[-2]
    steps = np.arange(1, horizon + 1)[:, None]
    return last + steps * velocity


def baseline_mean_velocity(gt_sequence) -> np.ndarray:
    """Constant-velocity prediction using the sequence's own mean velocity.

    Starts at the first ground-truth frame; every frame-to-frame velocity of
    the prediction equals the mean ground-truth velocity.
    """
    gt = _seq(gt_sequence, "gt_sequence", 2)
    mean_v = np.diff(gt, axis=0).mean(axis=0)
    steps = np.arange(gt.shape[0])[:, None]
    return gt[0] + steps * mean_v


# -- adversarial quality --------------------------------------------------------


def _stack_truncated(sequences, name: str) -> np.ndarray:
    seqs = [_seq(s, f"{name}[{i}]", 2) for i, s in enumerate(sequences)]
    width = seqs[0].shape[1]
    if any(s.shape[1] != width for s in seqs):
        raise ValueError(f"{name} sequences must share coordinate width")
    t_min = min(s.shape[0] for s in seqs)
    return np.stack([s[:t_min] for s in seqs])


def quality_score(
    real_set,
    generated_set,
    *,
    seed: int = 0,
    hidden: int = 8,
    n_layers: int = 2,
    kernel: int = 5,
    epochs: int = 200,
    lr: float = 1e-2,
    train_frac: float = 0.7,
    weight_decay: float = 1e-2,
) -> float:
    """Mean predicted-real probability of held-out generated sequences.

    A small temporal-conv classifier is trained on a 70/30 split of both
    sets (subsampled to equal class sizes) with logistic loss, then applied
    to the held-out generated sequences. Deterministic for a fixed seed.
    """
    real = _stack_truncated(real_set, "real_set")
    gen = _stack_truncated(generated_set, "generated_set")
    if real.shape[2] != gen.shape[2]:
        raise ValueError("real and generated sequences must share coordinate width")
    t_min = min(real.shape[1], gen.shape[1])
    real, gen = real[:, :t_min], gen[:, :t_min]
    if not 0 < train_frac < 1:
        raise ValueError("train_frac must be strictly between 0 and 1")

    rng = np.random.default_rng(seed)
    n_class = min(len(real), len(gen))
    if n_class < 4:
        raise DataError("quality_score needs at least 4 sequences per class")
    real = real[rng.permutation(len(real))[:n_class]]
    gen = gen[rng.permutation(len(gen))[:n_class]]
    n_train = max(1, min(n_class - 1, int(round(train_frac * n_class))))

    train_x = np.concatenate([real[:n_train], gen[:n_train]])
    train_y = np.concatenate([np.ones(n_train), np.zeros(n_train)])
    held_gen = gen[n_train:]

    mean = train_x.mean(axis=(0, 1))
    std = train_x.std(axis=(0, 1))
    scale = np.where(std < 1e-6, 1.0, std)
    train_x = (train_x - mean) / scale
    held_gen = (held_gen - mean) / scale

    net = nn.TemporalConv(
        c_in=train_x.shape[2], c_out=1, hidden=hidden, n_layers=n_layers, kernel=kernel
    )
    params = nn.init_params(net.param_shapes(), rng)
    optimizer = nn.Adam(params, lr=lr)
    y = train_y[:, None]

    t_pool = 1.0 / train_x.shape[1]

    for _ in range(epochs):
        pv = nn.param_vars(params)
        logits = t_pool * ad.sum(net.apply(pv, ad.Var(train_x)), axis=1)
        # logistic loss via softplus: mean(softplus(logit) - y * logit)
        loss = ad.mean(ad.softplus(logits) - ad.Var(y) * logits)
        if weight_decay:
            penalty = None
            for v in pv.values():
                term = ad.sum(v * v)
                penalty = term if penalty is None else penalty + term
            loss = loss + weight_decay * penalty
        loss.backward()
        optimizer.step(params, nn.gradients(pv))

    pv = nn.param_vars(params)
    held_logits = (1.0 / held_gen.shape[1]) * np.sum(
        net.apply(pv, ad.Var(held_gen)).data, axis=1
    )
    return float(np.mean(1.0 / (1.0 + np.exp(-held_logits))))


@dataclass(frozen=True)
class SpeakerMetrics:
    speaker_id: str
    n_samples: int
    lvd_model: float
    lvd_last_step: float
    lvd_mean_velocity: float
    diversity: float
    quality: float

    def to_dict(self) -> dict:
        return {
            "speaker_id": self.speaker_id,
            "n_samples": self.n_samples,
            "lvd_model": self.lvd_model,
            "lvd_last_step": self.lvd_last_step,
            "lvd_mean_velocity": self.lvd_mean_velocity,
            "diversity": self.diversity,
            "quality": self.quality,
        }


@dataclass(frozen=True)
class MetricReport:
    """Per-speaker metric rows plus sample-weighted overall aggregates."""

    rows: tuple[SpeakerMetrics, ...]
    meta: dict = field(default_factory=dict)

    def overall(self) -> dict:
        total = sum(r.n_samples for r in self.rows)
        if total == 0:
            raise DataError("metric report has no samples")

        def avg(name):
            # rows can carry NaN (e.g. quality for a speaker with too few
            # clips); average over the rows that do have the metric
            pairs = [
                (getattr(r, name), r.n_samples)
                for r in self.rows
                if not np.isnan(getattr(r, name))
            ]
            weight = sum(n for _, n in pairs)
            if weight == 0:
                return float("nan")
            return sum(v * n for v, n in pairs) / weight

        return {
            "n_samples": total,
            "lvd_model": avg("lvd_model"),
            "lvd_last_step": avg("lvd_last_step"),
            "lvd_mean_velocity": avg("lvd_mean_velocity"),
            "diversity": avg("diversity"),
            "quality": avg("quality"),
        }

    def to_dict(self) -> dict:
        return {
            "format": "report/1",
            "per_speaker": [r.to_dict() for r in self.rows],
            "overall": self.overall(),
            "meta": self.meta,
        }
