"""Evaluation: velocity difference, sample diversity, adversarial quality,
and the two trivial prediction baselines.

All metrics are plain functions over float64 clips stacked as (N, T, D)
arrays. `lvd` and the baselines work along the frame axis, -2, so one
(T, D) clip goes through the same code. The quality score trains a small
temporal-conv classifier to separate real from generated clips and reports
the mean predicted-real probability on held-out generated ones, so 0.5
means indistinguishable and 0 means the fakes are trivially spotted. The
classifier's shape, step size and split are fixed by the protocol; only its
seed and epoch count are arguments.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import nn
from .errors import DataError


def _frames(array, name: str, min_frames: int = 1, ndim: int | None = None) -> np.ndarray:
    """`array` as float64 (..., T, D) frames: `ndim` axes if given, at least two."""
    frames = np.asarray(array, dtype=np.float64)
    if frames.ndim < 2 or ndim not in (None, frames.ndim):
        raise ValueError(
            f"{name} must be {ndim or '>= 2'}-D (..., frames, coords), got shape {frames.shape}"
        )
    if frames.shape[-2] < min_frames:
        raise ValueError(f"{name} needs at least {min_frames} frames, got {frames.shape[-2]}")
    return frames


def lvd(generated, ground_truth) -> float:
    """Landmark velocity difference: the mean over clips of each clip's mean
    |v_gen - v_gt| over all its entries.

    Velocities are first differences along the frame axis (-2); both inputs
    must share one (..., T >= 2, D) shape. Adding a constant posture to both
    inputs changes nothing; scaling both by a factor scales the result by it.
    """
    gen = _frames(generated, "generated", 2)
    gt = _frames(ground_truth, "ground_truth", 2)
    if gen.shape != gt.shape:
        raise ValueError(f"sequence shapes differ: {gen.shape} vs {gt.shape}")
    per_clip = np.abs(np.diff(gen, axis=-2) - np.diff(gt, axis=-2)).mean(axis=(-2, -1))
    return float(per_clip.mean())


def diversity(clips) -> float:
    """Mean pairwise MAE over all unordered pairs of an (N >= 2, T, D) stack."""
    stack = _frames(clips, "clips", ndim=3)
    n = len(stack)
    if n < 2:
        raise ValueError("diversity needs at least two sequences")
    diff = np.empty((n - 1,) + stack.shape[1:])
    total = 0.0
    for i in range(n - 1):
        d = diff[: n - 1 - i]
        np.abs(np.subtract(stack[i + 1 :], stack[i], out=d), out=d)
        total += np.mean(d, axis=(1, 2)).sum()
    count = n * (n - 1) / 2
    return float(total / count)


def baseline_last_step(prev_frames, horizon: int) -> np.ndarray:
    """Extrapolate the last observed velocity of (..., T >= 2, D) frames for
    `horizon` frames.

    Frame k of the prediction is last_frame + (k + 1) * last_velocity.
    horizon 0 yields an empty (..., 0, D) array.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    prev = _frames(prev_frames, "prev_frames", 2)
    last = prev[..., -1:, :]
    velocity = last - prev[..., -2:-1, :]
    steps = np.arange(1, horizon + 1)[:, None]
    return last + steps * velocity


def baseline_mean_velocity(gt_frames) -> np.ndarray:
    """Constant-velocity prediction using each clip's own mean velocity.

    Starts at the clip's first ground-truth frame; every frame-to-frame
    velocity of the prediction equals the clip's mean ground-truth velocity.
    """
    gt = _frames(gt_frames, "gt_frames", 2)
    mean_v = np.diff(gt, axis=-2).mean(axis=-2, keepdims=True)
    steps = np.arange(gt.shape[-2])[:, None]
    return gt[..., :1, :] + steps * mean_v


# -- adversarial quality --------------------------------------------------------

_QUALITY_HIDDEN = 8  # channels of each hidden convolution
_QUALITY_LAYERS = 2  # hidden convolutions
_QUALITY_KERNEL = 5  # frames each classifier convolution spans
_QUALITY_LR = 1e-2  # Adam step size
_QUALITY_TRAIN_FRAC = 0.7  # share of each class the classifier trains on
_QUALITY_WEIGHT_DECAY = 1e-2  # L2 penalty on every classifier weight


def quality_score(real_set, generated_set, *, seed: int = 0, epochs: int = 200) -> float:
    """Mean predicted-real probability of held-out generated clips.

    Both sets are (N, T, D) stacks of one clip shape. A small temporal-conv
    classifier (two hidden layers of 8 channels, kernel 5) is trained for
    `epochs` Adam steps on a 70/30 split of both sets (subsampled to equal
    class sizes) with logistic loss, then applied to the held-out generated
    clips. Deterministic for a fixed seed.
    """
    real = _frames(real_set, "real_set", 2, ndim=3)
    gen = _frames(generated_set, "generated_set", 2, ndim=3)
    if real.shape[1:] != gen.shape[1:]:
        raise ValueError(
            f"real and generated clips differ in shape: {real.shape[1:]} vs {gen.shape[1:]}"
        )

    rng = np.random.default_rng(seed)
    n_class = min(len(real), len(gen))
    if n_class < 4:
        raise DataError("quality_score needs at least 4 sequences per class")
    real = real[rng.permutation(len(real))[:n_class]]
    gen = gen[rng.permutation(len(gen))[:n_class]]
    n_train = max(1, min(n_class - 1, int(round(_QUALITY_TRAIN_FRAC * n_class))))

    train_x = np.concatenate([real[:n_train], gen[:n_train]])
    train_y = np.concatenate([np.ones(n_train), np.zeros(n_train)])
    held_gen = gen[n_train:]

    mean = train_x.mean(axis=(0, 1))
    std = train_x.std(axis=(0, 1))
    scale = np.where(std < 1e-6, 1.0, std)
    train_x = (train_x - mean) / scale
    held_gen = (held_gen - mean) / scale

    net = nn.TemporalConv(train_x.shape[2], 1, _QUALITY_HIDDEN, _QUALITY_LAYERS, _QUALITY_KERNEL)
    params = nn.init_params(net.param_shapes(), rng)
    optimizer = nn.Adam(params, lr=_QUALITY_LR)
    x_const = ad.constant(train_x)
    y = ad.constant(train_y[:, None])

    t_pool = 1.0 / train_x.shape[1]

    for _ in range(epochs):
        pv = nn.param_vars(params)
        logits = t_pool * ad.sum(net.apply(pv, x_const), axis=1)
        # logistic loss via softplus: mean(softplus(logit) - y * logit)
        ad.mean(ad.softplus(logits) - y * logits).backward()
        grads = nn.gradients(pv)
        # gradient of wd * sum(w * w), summed in the tape's order: the data
        # gradient, then wd * w once per factor (2 * wd * w rounds differently)
        for key, w in params.items():
            grads[key] = grads[key] + _QUALITY_WEIGHT_DECAY * w + _QUALITY_WEIGHT_DECAY * w
        optimizer.step(params, grads)

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
        return asdict(self)


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

        # every field after speaker_id and n_samples is a metric
        metrics = [f.name for f in fields(SpeakerMetrics)][2:]
        return {"n_samples": total, **{name: avg(name) for name in metrics}}

    def to_dict(self) -> dict:
        return {
            "format": "report/1",
            "per_speaker": [r.to_dict() for r in self.rows],
            "overall": self.overall(),
            "meta": self.meta,
        }
