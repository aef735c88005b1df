"""Single-sample references for the batched model code.

The package holds its model as `(config, params)` and runs both branches
only through their batched tape methods (`encode_v`, `posterior_v`,
`forward_v`, ...) via `model.one_step` and `training._batch_loss`. The
helpers here take a branch built from that config and re-derive the same
quantities one clip or one vector at a time, in plain numpy or through a
batch of one, so the tests can check the batched core against them. The
metric and label references walk a clip stack one row or pair at a time, as
the package did before its metrics took stacked arrays. `make_batch` stacks
a training batch and its rhythm targets one sample at a time, `conv1d_same`
is the plain per-sample form of the tape's convolution, `backward` the tape
walk that leaves the graph intact, and `WholeArrayAdam` the optimizer update
on whole arrays with fresh temporaries.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

import numpy as np

from speechmotion import autodiff as ad
from speechmotion import nn
from speechmotion.audio import FeatureStats
from speechmotion.data import SampleSet
from speechmotion.motion import JointSpec
from speechmotion.posemode import PoseModeBranch
from speechmotion.rhythm import RhythmBranch
from speechmotion.config import RunConfig, TrainSettings
from speechmotion.training import _batch_loss


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


def _flat(pose: PoseModeBranch, clip: np.ndarray) -> np.ndarray:
    cfg = pose.config
    clip = np.asarray(clip, dtype=np.float64)
    if clip.shape != (cfg.t_frames, cfg.d_m):
        raise ValueError(
            f"clip shape {clip.shape} does not match configured ({cfg.t_frames}, {cfg.d_m})"
        )
    return clip.reshape(1, cfg.t_frames * cfg.d_m)


def encode_motion(pose: PoseModeBranch, params: Mapping[str, np.ndarray], clip: np.ndarray) -> np.ndarray:
    """Embed one (T, D) clip; returns a (d_e,) vector."""
    out = pose.encode_v(nn.param_vars(params), ad.Var(_flat(pose, clip)))
    return out.data[0]


def decode_motion(
    pose: PoseModeBranch, params: Mapping[str, np.ndarray], embedding: np.ndarray
) -> np.ndarray:
    """Decode a (d_e,) embedding into a (T, D) clip."""
    embedding = np.asarray(embedding, dtype=np.float64)
    if embedding.shape != (pose.config.model.d_e,):
        raise ValueError(f"embedding shape {embedding.shape}, expected ({pose.config.model.d_e},)")
    out = pose.decode_v(nn.param_vars(params), ad.Var(embedding[None, :]))
    return out.data[0].reshape(pose.config.t_frames, pose.config.d_m)


def posterior(pose: PoseModeBranch, params: Mapping[str, np.ndarray], tau: np.ndarray) -> LatentPosterior:
    """Gaussian posterior for one transition feature."""
    tau = np.asarray(tau, dtype=np.float64)
    if tau.shape != (pose.config.model.d_e,):
        raise ValueError(
            f"transition feature shape {tau.shape}, expected ({pose.config.model.d_e},)"
        )
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
        return np.zeros(pose.config.model.d_z)
    if rng is None:
        raise ValueError("sampling with c = 1 needs a random generator")
    if mode == "train":
        if posterior is None:
            raise ValueError("training-mode sampling needs the posterior")
        eps = rng.standard_normal(pose.config.model.d_z)
        return posterior.mu + posterior.sigma * eps
    return rng.standard_normal(pose.config.model.d_z)


def loss_reg(
    pose: PoseModeBranch,
    params: Mapping[str, np.ndarray],
    m_prev: np.ndarray,
    m_cur: np.ndarray,
) -> float:
    """Mean-absolute autoencoding error of both (T, D) clips through f_dec(f_enc(.))."""
    pv = nn.param_vars(params)
    x = ad.Var(np.concatenate([_flat(pose, m_cur), _flat(pose, m_prev)], axis=0))
    recon = pose.decode_v(pv, pose.encode_v(pv, x))
    err = np.abs(recon.data - x.data)
    return float(err[0].mean() + err[1].mean())


# -- rhythm branch -------------------------------------------------------------------


def rhythm_generate(rhythm: RhythmBranch, params: Mapping[str, np.ndarray], features: np.ndarray) -> np.ndarray:
    """Predict (T, D) offsets for one clip of aligned (T, D_S) audio features."""
    cfg = rhythm.config
    if features.shape != (cfg.t_frames, cfg.mfcc.d_s):
        raise ValueError(
            f"audio features shape {features.shape} does not match"
            f" configured ({cfg.t_frames}, {cfg.mfcc.d_s})"
        )
    out = rhythm.forward_v(nn.param_vars(params), ad.Var(features[None]))
    return out.data[0]


def loss_rhythm(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean-absolute error of (T, D) offsets against the ground-truth offsets
    of a (T, D) clip.

    The target is the clip minus its own temporal mean, so the branch is
    never asked to reproduce posture, only residual motion.
    """
    pred, gt = np.asarray(pred, dtype=np.float64), np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"offset shape {pred.shape} does not match clip shape {gt.shape}")
    target = gt - gt.mean(axis=0)
    return float(np.mean(np.abs(pred - target)))


# -- combined objective ------------------------------------------------------------------


def make_batch(
    samples: SampleSet, rows, stats: FeatureStats | None
) -> tuple[SampleSet, np.ndarray]:
    """The set of the given rows and their flattened (B, T*D) rhythm
    targets, stacked one sample at a time.

    Each sample's audio is standardized by its own speaker (left as it is
    when stats is None) and its rhythm target is the clip minus the clip's
    own temporal mean.
    """
    rows = list(rows)
    if stats is None:
        audio = [samples.audio[i] for i in rows]
    else:
        audio = [stats.transform(samples.audio[i], str(samples.speaker[i])) for i in rows]
    batch = SampleSet(
        m_prev=np.stack([samples.m_prev[i] for i in rows]),
        m_cur=np.stack([samples.m_cur[i] for i in rows]),
        audio=np.stack(audio),
        c=[samples.c[i] for i in rows],
        speaker=[samples.speaker[i] for i in rows],
        segment=[samples.segment[i] for i in rows],
    )
    offsets = np.stack(
        [(samples.m_cur[i] - samples.m_cur[i].mean(axis=0)).reshape(-1) for i in rows]
    )
    return batch, offsets


def total_loss(
    sample: SampleSet,
    config: RunConfig,
    params: dict[str, np.ndarray],
    weights: TrainSettings,
    rng: np.random.Generator | None = None,
) -> tuple[float, dict[str, float]]:
    """Combined objective of a one-row set under `weights`; returns (total,
    unweighted breakdown).

    The weighted sum of the breakdown equals the total. A generator is only
    consumed when the sample has c = 1 and reconstruction is active.
    """
    batch, _ = make_batch(sample, [0], None)
    total, breakdown = _batch_loss(
        config.replace(train=weights), nn.param_vars(params), batch, rng
    )
    return float(total.data), breakdown


# -- metrics and mode labels, one clip or pair at a time ---------------------------------


def chunk_clips(frames: np.ndarray, t_frames: int) -> np.ndarray:
    """Consecutive t_frames clips of a (N, D) sequence, sliced out one by one."""
    count = len(frames) // t_frames
    return np.stack([frames[i * t_frames : (i + 1) * t_frames] for i in range(count)])


def clip_lvd(generated: np.ndarray, ground_truth: np.ndarray) -> float:
    """Mean |v_gen - v_gt| of one (T, D) clip pair."""
    return float(np.mean(np.abs(np.diff(generated, axis=0) - np.diff(ground_truth, axis=0))))


def mean_lvd(generated: np.ndarray, ground_truth: np.ndarray) -> float:
    """Mean over the rows of two (N, T, D) stacks of each row's `clip_lvd`."""
    return float(np.mean([clip_lvd(gen, gt) for gen, gt in zip(generated, ground_truth)]))


def last_step(prev: np.ndarray, horizon: int) -> np.ndarray:
    """One (T, D) clip's last velocity extrapolated for `horizon` frames."""
    steps = np.arange(1, horizon + 1)[:, None]
    return prev[-1] + steps * (prev[-1] - prev[-2])


def mean_velocity(gt: np.ndarray) -> np.ndarray:
    """One (T, D) clip's constant-velocity prediction from its first frame."""
    mean_v = np.diff(gt, axis=0).mean(axis=0)
    return gt[0] + np.arange(gt.shape[0])[:, None] * mean_v


def pair_label(prev: np.ndarray, cur: np.ndarray, spec: JointSpec, threshold: float) -> int:
    """Mode-change label of one (T, D) clip pair: the mean over hand joints of
    each joint's displacement between the two mean postures, above threshold."""
    mp = prev.mean(axis=0)
    mc = cur.mean(axis=0)
    dists = [float(np.hypot(*(mp[spec.xy(j)] - mc[spec.xy(j)]))) for j in spec.hand_indices]
    return int(np.mean(dists) > threshold)


# -- tape ops --------------------------------------------------------------------------


def conv1d_same(x: ad.Var, w: ad.Var, b: ad.Var) -> ad.Var:
    """Same-padded temporal convolution the plain way: `np.pad`, one GEMM per
    sample and tap, and `np.tensordot` for the weight gradient.

    `ad.conv1d_same` must match it bit for bit, forward and gradients.
    """
    k = w.data.shape[0]
    pad = (k - 1) // 2
    t = x.data.shape[1]
    xp = np.pad(x.data, ((0, 0), (pad, pad), (0, 0)))
    y = np.broadcast_to(b.data, x.data.shape[:2] + (w.data.shape[2],)).copy()
    for i in range(k):
        y += xp[:, i : i + t, :] @ w.data[i]

    def vjp(g):
        gb = g.sum(axis=(0, 1))
        gw = np.empty_like(w.data)
        gxp = np.zeros_like(xp)
        for i in range(k):
            seg = xp[:, i : i + t, :]
            gw[i] = np.tensordot(seg, g, axes=([0, 1], [0, 1]))
            gxp[:, i : i + t, :] += g @ w.data[i].T
        return gxp[:, pad : pad + t, :], gw, gb

    return ad.Var(y, (x, w, b), vjp)


def backward(root: ad.Var) -> None:
    """The reverse-topological walk of `Var.backward`, leaving the graph intact.

    Every reached node, intermediates included, keeps its `.grad`. Fan-in
    accumulates out of place: each arrival after the first allocates
    `parent.grad + g`.
    """
    order: list[ad.Var] = []
    seen: set[int] = set()
    stack: list[tuple[ad.Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    root.grad = np.ones(())
    for node in reversed(order):
        if node._vjp is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            if g is None or type(parent) is ad._Constant:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g


# -- optimizer -----------------------------------------------------------------------------


class WholeArrayAdam:
    """Adam on whole arrays, allocating each intermediate afresh.

    `nn.Adam` must match it bit for bit: parameters and both moments.
    """

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self._m = {k: np.zeros_like(v) for k, v in params.items()}
        self._v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads) -> None:
        self.step_count += 1
        t = self.step_count
        for key, g in grads.items():
            m = self._m[key]
            v = self._v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
