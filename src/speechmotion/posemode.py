"""Pose-mode branch: a conditional VAE over clip-to-clip transitions.

Clips are embedded by an encoder MLP; the *transition feature* is the
difference between consecutive clip embeddings. A latent head turns that
difference into a diagonal Gaussian posterior, and a decoder head maps
(latent code, previous embedding) back to a predicted embedding, which the
motion decoder turns into a clip. The binary mode label c gates the latent
code: c = 0 pins z to the zero vector (deterministic continuation, the
posture holds), c = 1 samples z (a free posture switch).

Every method runs on the autodiff tape with a batch dimension; training and
generation reach them through `training._batch_loss` and `model.one_step`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from . import nn
from .motion import DEFAULT_FPS, DEFAULT_JOINTS, JointSpec


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

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Layout keyed `pose.<network>.<layer>`, in network order."""
        return {
            f"{prefix}.{key}": shape
            for prefix, net in (
                ("pose.f_enc", self.f_enc),
                ("pose.f_dec", self.f_dec),
                ("pose.h_enc", self.h_enc),
                ("pose.h_dec", self.h_dec),
            )
            for key, shape in net.param_shapes().items()
        }

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

        def half(lo: int) -> ad.Var:
            def vjp(g):
                g_out = np.zeros(out.data.shape)
                g_out[:, lo : lo + d_z] = g
                return (g_out,)

            return ad.Var(out.data[:, lo : lo + d_z], (out,), vjp)

        return half(0), half(d_z)

    def decode_transition_v(self, pv: Mapping[str, ad.Var], z: ad.Var, e_prev: ad.Var) -> ad.Var:
        return self.h_dec.apply(pv, ad.concat([z, e_prev], axis=1), "pose.h_dec.")
