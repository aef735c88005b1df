"""Pose-mode branch: a conditional VAE over clip-to-clip transitions.

Clips are embedded by an encoder MLP; the *transition feature* is the
difference between consecutive clip embeddings. A latent head turns that
difference into a diagonal Gaussian posterior, and a decoder head maps
(latent code, previous embedding) back to a predicted embedding, which the
motion decoder turns into a clip. The binary mode label c gates the latent
code: c = 0 pins z to the zero vector (deterministic continuation, the
posture holds), c = 1 samples z (a free posture switch).

Everything below the public surface runs on the autodiff tape with a batch
dimension; public helpers take single clips/vectors and return numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from . import autodiff as ad
from . import nn
from .motion import DEFAULT_FPS, DEFAULT_JOINTS, JointSpec, MotionClip


@dataclass(frozen=True)
class PoseModeConfig:
    """Sizes of the four networks in the branch."""

    t_frames: int
    d_m: int
    d_e: int = 128
    d_z: int = 64
    enc_hidden: tuple[int, ...] = (512, 256)
    latent_hidden: tuple[int, ...] = (128,)
    activation: str = "tanh"

    def __post_init__(self) -> None:
        if min(self.t_frames, self.d_m, self.d_e, self.d_z) < 1:
            raise ValueError("all pose-mode sizes must be positive")

    @property
    def flat_dim(self) -> int:
        return self.t_frames * self.d_m


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


class PoseModeBranch:
    """Encoder/decoder pair plus latent heads; parameters travel separately."""

    def __init__(
        self,
        config: PoseModeConfig,
        fps: float = DEFAULT_FPS,
        joint_spec: JointSpec = DEFAULT_JOINTS,
    ):
        if config.d_m != joint_spec.d_m:
            raise ValueError(
                f"config d_m {config.d_m} does not match joint spec width {joint_spec.d_m}"
            )
        self.config = config
        self.fps = fps
        self.joint_spec = joint_spec
        act = config.activation
        flat = config.flat_dim
        self.f_enc = nn.MLP((flat, *config.enc_hidden, config.d_e), act)
        self.f_dec = nn.MLP((config.d_e, *reversed(config.enc_hidden), flat), act)
        self.h_enc = nn.MLP((config.d_e, *config.latent_hidden, 2 * config.d_z), act)
        self.h_dec = nn.MLP((config.d_z + config.d_e, *config.latent_hidden, config.d_e), act)

    def init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Initial weights keyed `pose.<network>.<layer>`, drawn in network order."""
        params: dict[str, np.ndarray] = {}
        for prefix, net in (
            ("pose.f_enc", self.f_enc),
            ("pose.f_dec", self.f_dec),
            ("pose.h_enc", self.h_enc),
            ("pose.h_dec", self.h_dec),
        ):
            for key, value in net.init_params(rng).items():
                params[f"{prefix}.{key}"] = value
        return params

    @property
    def n_params(self) -> int:
        return self.f_enc.n_params + self.f_dec.n_params + self.h_enc.n_params + self.h_dec.n_params

    # -- tape-level pieces (batched, shapes (B, ...)) --------------------

    def encode_v(self, pv: Mapping[str, ad.Var], x: ad.Var) -> ad.Var:
        return self.f_enc.apply(pv, x, "pose.f_enc.")

    def decode_v(self, pv: Mapping[str, ad.Var], e: ad.Var) -> ad.Var:
        return self.f_dec.apply(pv, e, "pose.f_dec.")

    def posterior_v(self, pv: Mapping[str, ad.Var], tau: ad.Var) -> tuple[ad.Var, ad.Var]:
        """Posterior head on transition features: (mu, logvar), each (B, d_z)."""
        out = self.h_enc.apply(pv, tau, "pose.h_enc.")
        d_z = self.config.d_z
        stats = out.data.shape[-1]
        if stats != 2 * d_z:
            raise ValueError(f"posterior head emitted width {stats}, expected {2 * d_z}")
        mu = ad.Var(out.data[:, :d_z], (out,), lambda g: (np.pad(g, ((0, 0), (0, d_z))),))
        logvar = ad.Var(out.data[:, d_z:], (out,), lambda g: (np.pad(g, ((0, 0), (d_z, 0))),))
        return mu, logvar

    def decode_transition_v(self, pv: Mapping[str, ad.Var], z: ad.Var, e_prev: ad.Var) -> ad.Var:
        return self.h_dec.apply(pv, ad.concat([z, e_prev], axis=1), "pose.h_dec.")

    # -- public single-sample surface ------------------------------------

    def _flat(self, clip: MotionClip) -> np.ndarray:
        cfg = self.config
        if clip.frames.shape != (cfg.t_frames, cfg.d_m):
            raise ValueError(
                f"clip shape {clip.frames.shape} does not match configured ({cfg.t_frames}, {cfg.d_m})"
            )
        return clip.frames.reshape(1, cfg.flat_dim)

    def encode_motion(self, params: Mapping[str, np.ndarray], clip: MotionClip) -> np.ndarray:
        """Embed one clip; returns a (d_e,) vector."""
        out = self.encode_v(nn.param_vars(params), ad.Var(self._flat(clip)))
        return out.data[0]

    def decode_motion(self, params: Mapping[str, np.ndarray], embedding: np.ndarray) -> MotionClip:
        """Decode a (d_e,) embedding into a clip."""
        embedding = np.asarray(embedding, dtype=np.float64)
        if embedding.shape != (self.config.d_e,):
            raise ValueError(f"embedding shape {embedding.shape}, expected ({self.config.d_e},)")
        out = self.decode_v(nn.param_vars(params), ad.Var(embedding[None, :]))
        frames = out.data[0].reshape(self.config.t_frames, self.config.d_m)
        return MotionClip(frames, fps=self.fps, joint_spec=self.joint_spec)

    def posterior(self, params: Mapping[str, np.ndarray], tau: np.ndarray) -> LatentPosterior:
        """Gaussian posterior for one transition feature."""
        tau = np.asarray(tau, dtype=np.float64)
        if tau.shape != (self.config.d_e,):
            raise ValueError(f"transition feature shape {tau.shape}, expected ({self.config.d_e},)")
        if not np.all(np.isfinite(tau)):
            raise ValueError("transition feature contains non-finite values")
        mu, logvar = self.posterior_v(nn.param_vars(params), ad.Var(tau[None, :]))
        return LatentPosterior(mu.data[0], np.exp(0.5 * logvar.data[0]))

    def sample_latent(
        self,
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
            return np.zeros(self.config.d_z)
        if rng is None:
            raise ValueError("sampling with c = 1 needs a random generator")
        if mode == "train":
            if posterior is None:
                raise ValueError("training-mode sampling needs the posterior")
            eps = rng.standard_normal(self.config.d_z)
            return posterior.mu + posterior.sigma * eps
        return rng.standard_normal(self.config.d_z)

    def loss_reg(
        self,
        params: Mapping[str, np.ndarray],
        m_prev: MotionClip,
        m_cur: MotionClip,
    ) -> float:
        """Mean-absolute autoencoding error of both clips through f_dec(f_enc(.))."""
        pv = nn.param_vars(params)
        x = ad.Var(np.concatenate([self._flat(m_cur), self._flat(m_prev)], axis=0))
        recon = self.decode_v(pv, self.encode_v(pv, x))
        err = np.abs(recon.data - x.data)
        return float(err[0].mean() + err[1].mean())
