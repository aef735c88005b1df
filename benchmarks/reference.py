"""Plain-numpy references for the benchmark's output checks.

Nothing here imports speechmotion. The forward passes, the MFCC front end
and the LVD baselines are written from the model and metric definitions
(README of the package, the `generation` module docstring), so a check that
compares the program against them compares two independent computations.

Parameter dicts are keyed as in a `checkpoint/1` file with the
`param.pose.` / `param.rhythm.` prefix removed: `f_enc.w0`, `conv2.b`, ...
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

WINDOW_S = 0.025  # MFCC analysis window
HOP_S = 0.010  # MFCC frame hop
N_MELS = 40
N_MFCC = 13
CHUNK_FRAMES = 4096  # MFCC frames transformed at once
POWER_FLOOR = 1e-10  # absolute floor on mel-band power before the log
STD_FLOOR = 1e-6  # feature std below this is centred but not rescaled


# -- networks ------------------------------------------------------------------


def mlp(params: dict, prefix: str, x: np.ndarray) -> np.ndarray:
    """Dense stack `prefix`w0, b0, w1, ...: tanh between layers, linear output."""
    n = sum(1 for key in params if key.startswith(prefix + "w"))
    for i in range(n):
        x = x @ params[f"{prefix}w{i}"] + params[f"{prefix}b{i}"]
        if i < n - 1:
            x = np.tanh(x)
    return x


def tcn(params: dict, x: np.ndarray) -> np.ndarray:
    """Same-padded tanh conv stack conv0..convL-1 plus a per-frame head.

    x: (B, T, C_in) -> (B, T, C_out). Each conv is a window sum over the
    K taps, out[t] = sum_k xpad[t + k] @ w[k], written as one tensordot over
    sliding windows rather than a loop over taps.
    """
    i = 0
    while f"conv{i}.w" in params:
        w = params[f"conv{i}.w"]  # (K, C_in, C_out)
        pad = (w.shape[0] - 1) // 2
        xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
        windows = sliding_window_view(xp, w.shape[0], axis=1)  # (B, T, C_in, K)
        x = np.tanh(np.tensordot(windows, w, axes=([3, 2], [0, 1])) + params[f"conv{i}.b"])
        i += 1
    return x @ params["head.w"] + params["head.b"]


# -- audio front end -------------------------------------------------------------


def mfcc(wave: np.ndarray, rate: int) -> np.ndarray:
    """13 cepstra plus regression deltas per 10 ms hop, (F, 2 * N_MFCC).

    Hann-windowed power spectrum, HTK-mel triangles spanning 0..rate/2,
    natural log with an absolute floor, orthonormal DCT-II, deltas over +/-2
    frames with clamped edges. Frames are processed in chunks so memory stays
    flat in the audio length.
    """
    win = int(round(WINDOW_S * rate))
    hop = int(round(HOP_S * rate))
    n_frames = 1 + (len(wave) - win) // hop
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / (win - 1))

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    edges = 700.0 * (10.0 ** (np.linspace(0.0, to_mel(rate / 2.0), N_MELS + 2) / 2595.0) - 1.0)
    freqs = np.arange(win // 2 + 1) * rate / win
    lo, mid, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    bank = np.maximum(0.0, np.minimum((freqs - lo) / (mid - lo), (hi - freqs) / (hi - mid)))

    k = np.arange(N_MFCC)[:, None]
    m = np.arange(N_MELS)[None, :]
    dct = np.sqrt(2.0 / N_MELS) * np.cos(np.pi * k * (2 * m + 1) / (2 * N_MELS))
    dct[0] /= np.sqrt(2.0)

    frames = sliding_window_view(wave, win)[::hop][:n_frames]
    cep = np.empty((n_frames, N_MFCC))
    for s in range(0, n_frames, CHUNK_FRAMES):
        spec = np.fft.rfft(frames[s : s + CHUNK_FRAMES] * hann, axis=1)
        power = spec.real**2 + spec.imag**2
        cep[s : s + CHUNK_FRAMES] = np.log(np.maximum(power @ bank.T, POWER_FLOOR)) @ dct.T
    p = np.pad(cep, ((2, 2), (0, 0)), mode="edge")
    deltas = ((p[3:-1] - p[1:-3]) + 2.0 * (p[4:] - p[:-4])) / 10.0
    return np.concatenate([cep, deltas], axis=1)


def motion_rate_features(feats: np.ndarray, n_frames: int, fps: float) -> np.ndarray:
    """The feature row nearest in time to each motion frame."""
    idx = np.rint((np.arange(n_frames) / fps) / HOP_S).astype(int)
    return feats[np.clip(idx, 0, len(feats) - 1)]


def standardize(feats: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (feats - mean) / np.where(std < STD_FLOOR, 1.0, std)


# -- generation ------------------------------------------------------------------


def keyword_labels(tokens, n_steps: int, clip_s: float, keywords) -> list[int]:
    """1 for every step whose span [i*clip_s, (i+1)*clip_s) holds a keyword start."""
    wanted = {w.lower() for w in keywords}
    return [
        int(any(i * clip_s <= start < (i + 1) * clip_s and word.lower().strip(".,!?;:") in wanted
                for word, start in tokens))
        for i in range(n_steps)
    ]


def generate(pose: dict, rhythm: dict, rest: np.ndarray, audio: np.ndarray, labels,
             seeds) -> np.ndarray:
    """Autoregressive motion for every seed at once, (n_seeds, n_steps * T, D).

    audio: standardized features per motion frame, (n_steps * T, D_S).
    Step i embeds the previous pose-mode clip, sets z = 0 when labels[i] is 0
    and otherwise takes one standard_normal(d_z) draw from the seed's own
    generator, decodes the next pose-mode clip, and adds the rhythm offsets
    of the step's audio. The pose-mode clip, not the composed one, is fed
    forward.
    """
    n_steps = len(labels)
    d = rest.shape[0]
    t = audio.shape[0] // n_steps
    d_z = pose["h_dec.w0"].shape[0] - _out_width(pose, "f_enc.")  # h_dec reads [z, e_prev]
    offsets = tcn(rhythm, audio.reshape(n_steps, t, -1))
    rngs = [np.random.default_rng(s) for s in seeds]
    prev = np.tile(rest, (len(seeds), t))
    out = np.empty((len(seeds), n_steps * t, d))
    for i, c in enumerate(labels):
        e_prev = mlp(pose, "f_enc.", prev)
        z = np.stack([r.standard_normal(d_z) for r in rngs]) if c else np.zeros((len(seeds), d_z))
        e_star = mlp(pose, "h_dec.", np.concatenate([z, e_prev], axis=1))
        prev = mlp(pose, "f_dec.", e_star)
        out[:, i * t : (i + 1) * t] = prev.reshape(len(seeds), t, d) + offsets[i]
    return out


def _out_width(params: dict, prefix: str) -> int:
    n = sum(1 for key in params if key.startswith(prefix + "w"))
    return params[f"{prefix}w{n - 1}"].shape[1]


# -- metrics ---------------------------------------------------------------------


def lvd_baselines(m_prev: np.ndarray, m_cur: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample LVD of the last-step and mean-velocity baselines, closed form.

    Both baselines move at a constant velocity, so their LVD is the mean
    |v - v_gt| over the ground-truth velocities: v is the last observed
    velocity of the previous clip, or the clip's own mean velocity
    (last frame - first frame) / (T - 1).
    """
    v_gt = np.diff(m_cur, axis=1)
    last_v = m_prev[:, -1] - m_prev[:, -2]
    mean_v = (m_cur[:, -1] - m_cur[:, 0]) / (m_cur.shape[1] - 1)
    last = np.abs(v_gt - last_v[:, None]).mean(axis=(1, 2))
    mean = np.abs(v_gt - mean_v[:, None]).mean(axis=(1, 2))
    return last, mean


# -- work --------------------------------------------------------------------------


def train_flops_per_sample(pose: dict, rhythm: dict, t_frames: int, weights: dict) -> int:
    """Multiply-add FLOPs (2 per MAC) of one training sample, forward plus backward.

    Worked out from the parameter shapes. The forward runs the encoder on
    both clips, the posterior head, the transition decoder and one clip
    decoder for the reconstruction term, two more clip decoders for the
    autoencoding term, and the TCN; zero-weight terms drop their networks
    as the trainer does. The tape's backward of every matmul and conv forms
    both the input and the weight gradient, so a sample costs 3x its
    forward.
    """
    def macs(params, prefix, per_frame=1):
        return per_frame * sum(v.size for k, v in params.items()
                               if k.startswith(prefix) and v.ndim >= 2)

    enc, dec = macs(pose, "f_enc."), macs(pose, "f_dec.")
    rec, rhy, reg, vae = (weights[k] > 0 for k in ("rec", "rhythm", "reg", "vae"))
    forward = 0
    if rec or reg or vae:
        forward += 2 * enc
    if rec or vae:
        forward += macs(pose, "h_enc.")
    if rec or rhy:
        forward += macs(rhythm, "", per_frame=t_frames)
    if rec:
        forward += macs(pose, "h_dec.") + dec
    if reg:
        forward += 2 * dec
    return 3 * 2 * forward
