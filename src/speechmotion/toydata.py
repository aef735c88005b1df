"""Synthetic speech/motion corpus with known structure.

Each segment is a run of fixed-length clips grouped into blocks. Within a
block the skeleton holds one of three base postures while the arm joints
oscillate at the block's beat frequency (1.25, 2 or 3 Hz); the audio is a
tone whose loudness envelope is phase-locked to that oscillation, so the
rhythm branch has a real cue to learn. Posture switches happen exactly at
scripted block boundaries, far enough apart in hand space that the
mode-change pseudo-label recovers the script, and each switch plants a
keyword token in the transcript at the boundary time. Transitions pick
uniformly among the other postures, so clip-to-clip continuation is
genuinely multimodal and the latent code has something to encode. The
postures, amplitudes and beats are constants; `config.toy` sets only the
corpus's size.

Skeleton units are pre-normalized: the neck sits at the origin and the
neck-nose bone has length exactly 1, so normalize_skeleton is an identity
on this data.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .audio import Transcript
from .config import RunConfig
from .io import save_json, save_landmarks, save_transcript, save_wav
from .motion import JointSpec

_FILLERS = ("and", "the", "a", "to", "of", "in", "we", "it")

# Wrist anchor per posture; palms and fingertips hang off the wrist.
_WRIST_BY_POSTURE = (
    (1.35, -1.9),  # rest: hands down
    (1.6, 0.4),  # raised: hands up
    (0.35, -1.0),  # center: hands pulled in
)
_RHYTHM_AMP = 0.08  # x amplitude of the arm oscillation; y swings half as far
_WANDER_AMP = 0.01  # amplitude of each joint's slow drift
_BEAT_CHOICES = (1.25, 2.0, 3.0)  # beat frequencies (Hz) a block draws from

_OSCILLATING = (
    "right_elbow",
    "right_wrist",
    "right_palm",
    "right_fingertip",
    "left_elbow",
    "left_wrist",
    "left_palm",
    "left_fingertip",
)


def base_posture(index: int, joint_spec: JointSpec) -> np.ndarray:
    """One row of joint coordinates for a scripted base posture."""
    if not 0 <= index < len(_WRIST_BY_POSTURE):
        raise ValueError(f"no base posture {index}")
    wx, wy = _WRIST_BY_POSTURE[index]
    coords = {
        "nose": (0.0, 1.0),
        "neck": (0.0, 0.0),
        "right_shoulder": (-1.1, -0.25),
        "left_shoulder": (1.1, -0.25),
    }
    for side, sign in (("right", -1.0), ("left", 1.0)):
        shoulder = np.array(coords[f"{side}_shoulder"])
        wrist = np.array([sign * wx, wy])
        elbow = shoulder + 0.55 * (wrist - shoulder) + np.array([sign * 0.25, -0.1])
        coords[f"{side}_elbow"] = tuple(elbow)
        coords[f"{side}_wrist"] = tuple(wrist)
        coords[f"{side}_palm"] = (wrist[0] + sign * 0.12, wrist[1] - 0.08)
        coords[f"{side}_fingertip"] = (wrist[0] + sign * 0.24, wrist[1] - 0.12)
    row = np.zeros(joint_spec.d_m)
    for name, (x, y) in coords.items():
        row[joint_spec.xy(name)] = (x, y)
    return row


def _segment_blocks(n_clips: int, rng: np.random.Generator):
    """Block lengths (in clips) and the posture index of each block."""
    lengths: list[int] = []
    while sum(lengths) < n_clips:
        lengths.append(int(rng.choice((2, 3))))
    lengths[-1] -= sum(lengths) - n_clips
    if lengths[-1] == 0:
        lengths.pop()
    postures = [int(rng.integers(len(_WRIST_BY_POSTURE)))]
    for _ in lengths[1:]:
        choices = [p for p in range(len(_WRIST_BY_POSTURE)) if p != postures[-1]]
        postures.append(int(rng.choice(choices)))
    return lengths, postures


def _envelope(t_local: np.ndarray, beat_hz: float) -> np.ndarray:
    return np.sin(np.pi * beat_hz * t_local) ** 2


def make_toy_dataset(out_dir: str | Path, config: RunConfig, seed: int = 0) -> dict:
    """Write the corpus under out_dir and return (and save) its manifest.

    Layout: landmarks/<segment>.npz, audio/<segment>.wav,
    transcripts/<segment>.txt, and toy_script.json holding the scripted
    posture blocks and ground-truth mode-change labels per segment.
    """
    out_dir = Path(out_dir)
    spec = config.joint_spec
    toy = config.toy
    for name in ("landmarks", "audio", "transcripts"):
        (out_dir / name).mkdir(parents=True, exist_ok=True)

    t_frames, fps = config.t_frames, config.fps
    sr = config.mfcc.sample_rate
    clip_s = t_frames / fps
    phases = np.arange(len(_OSCILLATING)) * (2.0 * np.pi / len(_OSCILLATING))
    meta_common = {"seed": seed, "config_hash": config.config_hash()}
    segments = []

    for spk_idx in range(toy.speakers):
        speaker = f"spk{spk_idx}"
        for seg_idx in range(toy.segments_per_speaker):
            segment_id = f"{speaker}_seg{seg_idx:02d}"
            rng = np.random.default_rng([seed, spk_idx, seg_idx])
            lengths, postures = _segment_blocks(toy.clips_per_segment, rng)
            beats = [float(rng.choice(_BEAT_CHOICES)) for _ in lengths]

            n_frames = toy.clips_per_segment * t_frames
            t_motion = np.arange(n_frames) / fps
            frames = np.zeros((n_frames, spec.d_m))
            n_samples = int(round(toy.clips_per_segment * clip_s * sr))
            t_audio = np.arange(n_samples) / sr
            amplitude = np.zeros(n_samples)

            start_clip = 0
            for length, posture, beat in zip(lengths, postures, beats):
                begin = start_clip * t_frames
                end = (start_clip + length) * t_frames
                rows = slice(begin, end)
                frames[rows] = base_posture(posture, spec)
                t_local = t_motion[rows] - t_motion[begin]
                for j, name in enumerate(_OSCILLATING):
                    osc = np.sin(2.0 * np.pi * beat * t_local + phases[j])
                    cols = spec.xy(name)
                    frames[rows, cols.start] += _RHYTHM_AMP * osc
                    frames[rows, cols.start + 1] += 0.5 * _RHYTHM_AMP * osc
                a_begin = int(round(begin / fps * sr))
                a_end = min(int(round(end / fps * sr)), n_samples)
                amplitude[a_begin:a_end] = _envelope(
                    t_audio[a_begin:a_end] - t_audio[a_begin], beat
                )
                start_clip += length

            # Slow per-joint wander keeps frames from repeating exactly without
            # disturbing the mode labels.
            for j, name in enumerate(spec.names):
                if name in ("nose", "neck"):
                    continue
                for axis in range(2):
                    freq = rng.uniform(0.05, 0.15)
                    phase = rng.uniform(0.0, 2.0 * np.pi)
                    frames[:, 2 * j + axis] += _WANDER_AMP * np.sin(
                        2.0 * np.pi * freq * t_motion + phase
                    )

            waveform = np.sin(2.0 * np.pi * 220.0 * t_audio) * (0.08 + 0.9 * amplitude)

            tokens = []
            boundary_clip = 0
            keywords = config.generate.keywords
            for i, length in enumerate(lengths[:-1]):
                boundary_clip += length
                t0 = boundary_clip * clip_s
                word = keywords[i % len(keywords)]
                tokens.append((word, round(t0 + 0.02, 3), round(t0 + 0.32, 3)))
            filler_times = np.arange(0.25, toy.clips_per_segment * clip_s - 0.3, 0.45)
            switch_times = {round(tok[1], 3) for tok in tokens}
            for i, t0 in enumerate(filler_times):
                if any(abs(t0 - st) < 0.2 for st in switch_times):
                    continue
                tokens.append((_FILLERS[i % len(_FILLERS)], round(float(t0), 3), round(float(t0) + 0.2, 3)))
            tokens.sort(key=lambda tok: tok[1])

            meta = {**meta_common, "speaker": speaker, "segment": segment_id}
            save_landmarks(out_dir / "landmarks" / f"{segment_id}.npz", frames, fps, spec, meta)
            save_wav(out_dir / "audio" / f"{segment_id}.wav", waveform, sr)
            save_transcript(
                out_dir / "transcripts" / f"{segment_id}.txt", Transcript(tuple(tokens))
            )

            clip_posture = [p for length, p in zip(lengths, postures) for _ in range(length)]
            labels = [
                int(clip_posture[i] != clip_posture[i - 1])
                for i in range(1, toy.clips_per_segment)
            ]
            segments.append(
                {
                    "segment_id": segment_id,
                    "speaker": speaker,
                    "block_lengths": lengths,
                    "block_postures": postures,
                    "block_beats_hz": beats,
                    "mode_labels": labels,
                }
            )

    manifest = {
        "format": "toy-script/1",
        "seed": seed,
        "config_hash": config.config_hash(),
        "segments": segments,
    }
    save_json(out_dir / "toy_script.json", manifest)
    return manifest
