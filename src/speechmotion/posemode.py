"""Pose-mode branch: a conditional VAE over clip-to-clip transitions.

Clips are embedded by an encoder MLP; the *transition feature* is the
difference between consecutive clip embeddings. A latent head turns that
difference into a diagonal Gaussian posterior, and a decoder head maps
(latent code, previous embedding) back to a predicted embedding, which the
motion decoder turns into a clip. The binary mode label c gates the latent
code: c = 0 pins z to the zero vector (deterministic continuation, the
posture holds), c = 1 samples z (a free posture switch).

The branch is sized by a RunConfig alone: the clip shape (`t_frames`,
`d_m`) and `config.model`'s widths. Every method runs on the
autodiff tape with a batch dimension. Callers hold the model as
`(config, params)`: `training._batch_loss` and `model.pose_step` build the
branch from the config they are given, and `model.param_shapes` joins its
layout with the rhythm branch's.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from . import autodiff as ad
from . import nn
from .config import RunConfig


class PoseModeBranch:
    """Encoder/decoder pair plus latent heads; parameters travel separately."""

    def __init__(self, config: RunConfig):
        self.config = config
        m = config.model
        flat = config.t_frames * config.d_m
        self.f_enc = nn.MLP((flat, *m.enc_hidden, m.d_e))
        self.f_dec = nn.MLP((m.d_e, *reversed(m.enc_hidden), flat))
        self.h_enc = nn.MLP((m.d_e, *m.latent_hidden, 2 * m.d_z))
        self.h_dec = nn.MLP((m.d_z + m.d_e, *m.latent_hidden, m.d_e))

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
        d_z = self.config.model.d_z

        def half(lo: int) -> ad.Var:
            def vjp(g):
                g_out = np.zeros(out.data.shape)
                g_out[:, lo : lo + d_z] = g
                return (g_out,)

            return ad.Var(out.data[:, lo : lo + d_z], (out,), vjp)

        return half(0), half(d_z)

    def decode_transition_v(self, pv: Mapping[str, ad.Var], z: ad.Var, e_prev: ad.Var) -> ad.Var:
        return self.h_dec.apply(pv, ad.concat([z, e_prev], axis=1), "pose.h_dec.")
