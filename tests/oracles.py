"""Single-sample references for the batched model code.

The package runs both branches only through their batched tape methods
(`encode_v`, `posterior_v`, `forward_v`, ...) via `model.one_step` and
`training._batch_loss`. The helpers here re-derive the same quantities one
clip or one vector at a time, in plain numpy or through a batch of one, so
the tests can check the batched core against them.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

import numpy as np

from speechmotion import autodiff as ad
from speechmotion import nn
from speechmotion.audio import AudioClip, FeatureStats
from speechmotion.data import TrainingSample
from speechmotion.motion import MotionClip, RhythmOffset
from speechmotion.posemode import PoseModeBranch
from speechmotion.rhythm import RhythmBranch
from speechmotion.training import LossWeights, _batch_loss, _make_batch


# -- pose-mode branch ------------------------------------------------------------


class LatentPosterior(NamedTuple):
    """Diagonal Gaussian over latent codes; sigma is strictly positive."""

    mu: np.ndarray
    sigma: np.ndarray


def transition_feature(e_prev: np.ndarray, e_cur: np.ndarray) -> np.ndarray:
    """Difference of consecutive clip embeddings; antisymmetric by construction."""
    e_prev = np.asarray(e_prev, dtype=np.float64)
    e_cur = np.asarray(e_cur, dtype=np.float64)
    if e_prev.shape != e_cur.shape:
        raise ValueError(f"embedding shapes differ: {e_prev.shape} vs {e_cur.shape}")
    return e_cur - e_prev


def loss_vae(posterior: LatentPosterior, c: int) -> float:
    """Latent regularizer, gated by the mode label.

    c = 1: closed-form KL divergence from the posterior to the standard
    normal, 0.5 * sum(mu^2 + sigma^2 - 1 - log sigma^2). Zero exactly at
    mu = 0, sigma = 1.
    c = 0: pull the posterior toward a point mass at the origin instead:
    ||mu||_2 + ||sigma||_2.
    """
    _check_label(c)
    mu = np.asarray(posterior.mu, dtype=np.float64)
    sigma = np.asarray(posterior.sigma, dtype=np.float64)
    if np.any(sigma <= 0):
        raise ValueError("posterior sigma must be strictly positive")
    if c == 1:
        return float(0.5 * np.sum(mu**2 + sigma**2 - 1.0 - 2.0 * np.log(sigma)))
    return float(np.linalg.norm(mu) + np.linalg.norm(sigma))


def _check_label(c: int) -> None:
    if c not in (0, 1):
        raise ValueError(f"mode label must be 0 or 1, got {c!r}")


def _flat(pose: PoseModeBranch, clip: MotionClip) -> np.ndarray:
    cfg = pose.config
    if clip.frames.shape != (cfg.t_frames, cfg.d_m):
        raise ValueError(
            f"clip shape {clip.frames.shape} does not match configured ({cfg.t_frames}, {cfg.d_m})"
        )
    return clip.frames.reshape(1, cfg.flat_dim)


def encode_motion(pose: PoseModeBranch, params: Mapping[str, np.ndarray], clip: MotionClip) -> np.ndarray:
    """Embed one clip; returns a (d_e,) vector."""
    out = pose.encode_v(nn.param_vars(params), ad.Var(_flat(pose, clip)))
    return out.data[0]


def decode_motion(
    pose: PoseModeBranch, params: Mapping[str, np.ndarray], embedding: np.ndarray
) -> MotionClip:
    """Decode a (d_e,) embedding into a clip."""
    embedding = np.asarray(embedding, dtype=np.float64)
    if embedding.shape != (pose.config.d_e,):
        raise ValueError(f"embedding shape {embedding.shape}, expected ({pose.config.d_e},)")
    out = pose.decode_v(nn.param_vars(params), ad.Var(embedding[None, :]))
    frames = out.data[0].reshape(pose.config.t_frames, pose.config.d_m)
    return MotionClip(frames, fps=pose.fps, joint_spec=pose.joint_spec)


def posterior(pose: PoseModeBranch, params: Mapping[str, np.ndarray], tau: np.ndarray) -> LatentPosterior:
    """Gaussian posterior for one transition feature."""
    tau = np.asarray(tau, dtype=np.float64)
    if tau.shape != (pose.config.d_e,):
        raise ValueError(f"transition feature shape {tau.shape}, expected ({pose.config.d_e},)")
    if not np.all(np.isfinite(tau)):
        raise ValueError("transition feature contains non-finite values")
    mu, logvar = pose.posterior_v(nn.param_vars(params), ad.Var(tau[None, :]))
    return LatentPosterior(mu.data[0], np.exp(0.5 * logvar.data[0]))


def sample_latent(
    pose: PoseModeBranch,
    c: int,
    posterior: LatentPosterior | None = None,
    rng: np.random.Generator | None = None,
    mode: str = "infer",
) -> np.ndarray:
    """Draw a latent code under the mode label.

    c = 0 returns the zero vector in both modes and consumes no
    randomness. c = 1 draws mu + sigma * eps from the posterior when
    training, and a standard normal when inferring.
    """
    _check_label(c)
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    if c == 0:
        return np.zeros(pose.config.d_z)
    if rng is None:
        raise ValueError("sampling with c = 1 needs a random generator")
    if mode == "train":
        if posterior is None:
            raise ValueError("training-mode sampling needs the posterior")
        eps = rng.standard_normal(pose.config.d_z)
        return posterior.mu + posterior.sigma * eps
    return rng.standard_normal(pose.config.d_z)


def loss_reg(
    pose: PoseModeBranch,
    params: Mapping[str, np.ndarray],
    m_prev: MotionClip,
    m_cur: MotionClip,
) -> float:
    """Mean-absolute autoencoding error of both clips through f_dec(f_enc(.))."""
    pv = nn.param_vars(params)
    x = ad.Var(np.concatenate([_flat(pose, m_cur), _flat(pose, m_prev)], axis=0))
    recon = pose.decode_v(pv, pose.encode_v(pv, x))
    err = np.abs(recon.data - x.data)
    return float(err[0].mean() + err[1].mean())


# -- rhythm branch -------------------------------------------------------------------


def rhythm_generate(rhythm: RhythmBranch, params: Mapping[str, np.ndarray], audio: AudioClip) -> RhythmOffset:
    """Predict offsets for one clip of aligned audio features."""
    cfg = rhythm.config
    if audio.features.shape != (cfg.t_frames, cfg.d_s):
        raise ValueError(
            f"audio features shape {audio.features.shape} does not match"
            f" configured ({cfg.t_frames}, {cfg.d_s})"
        )
    out = rhythm.forward_v(nn.param_vars(params), ad.Var(audio.features[None]))
    return RhythmOffset(out.data[0])


def loss_rhythm(pred: RhythmOffset, gt: MotionClip) -> float:
    """Mean-absolute error against the ground-truth offsets of a clip.

    The target is the clip minus its own temporal mean, so the branch is
    never asked to reproduce posture, only residual motion.
    """
    if pred.offsets.shape != gt.frames.shape:
        raise ValueError(
            f"offset shape {pred.offsets.shape} does not match clip shape {gt.frames.shape}"
        )
    target = gt.frames - gt.frames.mean(axis=0)
    return float(np.mean(np.abs(pred.offsets - target)))


# -- combined objective ------------------------------------------------------------------


def total_loss(
    sample: TrainingSample,
    pose: PoseModeBranch,
    rhythm: RhythmBranch,
    params: dict[str, np.ndarray],
    weights: LossWeights,
    rng: np.random.Generator | None = None,
    feature_stats: FeatureStats | None = None,
) -> tuple[float, dict[str, float]]:
    """Combined objective of one sample; returns (total, unweighted breakdown).

    The weighted sum of the breakdown equals the total. A generator is only
    consumed when the sample has c = 1 and reconstruction is active.
    """
    batch = _make_batch([sample], feature_stats)
    total, breakdown = _batch_loss(pose, rhythm, nn.param_vars(params), batch, weights, rng)
    return float(total.data), breakdown
