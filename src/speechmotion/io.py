"""Versioned on-disk containers.

Every numeric container is a plain .npz (no pickling) with a `format` field
naming the layout and its version; every writer embeds a JSON `meta` blob
carrying at least the seed and config hash of the run that produced the
file. Round-trips are lossless: float64 in, bit-equal float64 out.

Formats (documented here and in the README):
  landmarks/1   frames (N, D) float64, fps, joint_names, hand_indices, meta
  waveform/1    samples (N,) float64 in [-1, 1], sample_rate, meta
  split/1       stacked sample arrays of one dataset split + meta
  checkpoint/1  param.<branch>.* arrays, stats.*, config, meta
  report/1      JSON metric report with per-speaker rows (not an npz)
Transcripts are text: one `word start_s end_s` row per line, '#' comments.
WAV audio is mono 16-bit PCM via scipy.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .audio import AudioClip, FeatureStats, Transcript
from .config import RunConfig
from .data import Checkpoint, TrainingSample
from .errors import DataError
from .model import build_branches
from .motion import JointSpec, MotionClip


def _meta_json(meta: dict | None) -> str:
    return json.dumps(meta or {}, sort_keys=True)


def _check_format(npz, expected: str, path) -> None:
    found = str(npz["format"]) if "format" in npz else "<missing>"
    if found != expected:
        raise DataError(f"{path}: format {found!r}, expected {expected!r}")


def _load_npz(path):
    try:
        return np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise DataError(f"{path}: no such file") from None
    except (ValueError, OSError) as exc:
        raise DataError(f"{path}: not a readable npz container ({exc})") from None


# -- landmark sequences -------------------------------------------------


def save_landmarks(
    path,
    frames: np.ndarray,
    fps: float,
    joint_spec: JointSpec,
    meta: dict | None = None,
) -> None:
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != joint_spec.d_m:
        raise ValueError(f"frames shape {frames.shape} does not fit the joint spec")
    np.savez(
        path,
        format="landmarks/1",
        frames=frames,
        fps=np.float64(fps),
        joint_names=np.array(joint_spec.names),
        hand_indices=np.array(joint_spec.hand_indices, dtype=np.int64),
        meta=_meta_json(meta),
    )


def load_landmarks(path) -> tuple[np.ndarray, float, JointSpec, dict]:
    """Read a landmarks/1 file.

    Raises:
        DataError naming the file: frames that do not fit its joint spec, or
        non-finite frame values.
    """
    npz = _load_npz(path)
    _check_format(npz, "landmarks/1", path)
    spec = JointSpec(
        names=tuple(str(n) for n in npz["joint_names"]),
        hand_indices=tuple(int(i) for i in npz["hand_indices"]),
    )
    frames = np.asarray(npz["frames"], dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != spec.d_m:
        raise DataError(f"{path}: frames shape {frames.shape} does not fit its joint spec")
    if not np.all(np.isfinite(frames)):
        raise DataError(f"{path}: frames contain non-finite values")
    return frames, float(npz["fps"]), spec, json.loads(str(npz["meta"]))


# -- waveforms -----------------------------------------------------------


def save_waveform(path, samples: np.ndarray, sample_rate: int, meta: dict | None = None) -> None:
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ValueError("waveform must be mono 1-D")
    np.savez(
        path,
        format="waveform/1",
        samples=samples,
        sample_rate=np.int64(sample_rate),
        meta=_meta_json(meta),
    )


def load_waveform(path) -> tuple[np.ndarray, int]:
    """Read audio from a waveform/1 npz or a mono 16-bit PCM WAV file.

    Raises:
        DataError naming the file: unreadable, not mono, non-finite npz
        samples, or a sample rate that is not positive.
    """
    path = Path(path)
    if path.suffix.lower() == ".wav":
        try:
            rate, data = wavfile.read(path)
        except FileNotFoundError:
            raise DataError(f"{path}: no such file") from None
        except ValueError as exc:
            raise DataError(f"{path}: unreadable WAV ({exc})") from None
        if data.ndim != 1:
            raise DataError(f"{path}: expected mono audio, got shape {data.shape}")
        if data.dtype != np.int16:
            raise DataError(f"{path}: expected 16-bit PCM, got {data.dtype}")
        samples, rate = data.astype(np.float64) / 32768.0, int(rate)
    else:
        npz = _load_npz(path)
        _check_format(npz, "waveform/1", path)
        samples, rate = np.asarray(npz["samples"], dtype=np.float64), int(npz["sample_rate"])
        if samples.ndim != 1:
            raise DataError(f"{path}: expected mono 1-D samples, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise DataError(f"{path}: samples contain non-finite values")
    if rate <= 0:
        raise DataError(f"{path}: sample rate must be positive, got {rate}")
    return samples, rate


def save_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    samples = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    wavfile.write(path, int(sample_rate), np.round(samples * 32767.0).astype(np.int16))


# -- transcripts -----------------------------------------------------------


def load_transcript(path) -> Transcript:
    """Parse `word start_s end_s` rows; blank lines and '#' comments allowed."""
    tokens: list[tuple[str, float, float]] = []
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise DataError(f"{path}: no such file") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 'word start end', got {raw!r}")
        word, start_s, end_s = parts
        try:
            tokens.append((word, float(start_s), float(end_s)))
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad timestamps in {raw!r}") from None
    return Transcript(tuple(tokens))


def save_transcript(path, transcript: Transcript) -> None:
    lines = [f"{w} {s:.3f} {e:.3f}" for w, s, e in transcript.tokens]
    Path(path).write_text("\n".join(lines) + "\n")


# -- dataset splits --------------------------------------------------------


def save_split(path, samples, fps: float, joint_spec: JointSpec, meta: dict | None = None) -> None:
    if not samples:
        raise ValueError("refusing to write an empty split")
    np.savez(
        path,
        format="split/1",
        m_prev=np.stack([s.m_prev.frames for s in samples]),
        m_cur=np.stack([s.m_cur.frames for s in samples]),
        s_cur=np.stack([s.s_cur.features for s in samples]),
        c=np.array([s.c for s in samples], dtype=np.int64),
        speaker=np.array([s.speaker_id for s in samples]),
        segment=np.array([s.segment_id for s in samples]),
        sample_rate=np.int64(samples[0].s_cur.sample_rate),
        fps=np.float64(fps),
        joint_names=np.array(joint_spec.names),
        hand_indices=np.array(joint_spec.hand_indices, dtype=np.int64),
        meta=_meta_json(meta),
    )


def load_split(path) -> list[TrainingSample]:
    npz = _load_npz(path)
    _check_format(npz, "split/1", path)
    spec = JointSpec(
        names=tuple(str(n) for n in npz["joint_names"]),
        hand_indices=tuple(int(i) for i in npz["hand_indices"]),
    )
    fps = float(npz["fps"])
    rate = int(npz["sample_rate"])
    out = []
    for prev, cur, feats, c, spk, seg in zip(
        npz["m_prev"], npz["m_cur"], npz["s_cur"], npz["c"], npz["speaker"], npz["segment"]
    ):
        out.append(
            TrainingSample(
                m_prev=MotionClip(prev, fps=fps, joint_spec=spec),
                m_cur=MotionClip(cur, fps=fps, joint_spec=spec),
                s_cur=AudioClip(feats, sample_rate=rate),
                c=int(c),
                speaker_id=str(spk),
                segment_id=str(seg),
            )
        )
    return out


def _stats_arrays(stats: FeatureStats) -> dict[str, np.ndarray]:
    return {
        "stats.speakers": np.array(stats.speakers),
        "stats.means": stats.means,
        "stats.stds": stats.stds,
        "stats.pooled_mean": stats.pooled_mean,
        "stats.pooled_std": stats.pooled_std,
    }


def _stats_from(npz) -> FeatureStats:
    return FeatureStats(
        speakers=tuple(str(s) for s in npz["stats.speakers"]),
        means=np.asarray(npz["stats.means"], dtype=np.float64),
        stds=np.asarray(npz["stats.stds"], dtype=np.float64),
        pooled_mean=np.asarray(npz["stats.pooled_mean"], dtype=np.float64),
        pooled_std=np.asarray(npz["stats.pooled_std"], dtype=np.float64),
    )


def save_stats(path, stats: FeatureStats, meta: dict | None = None) -> None:
    np.savez(path, format="stats/1", meta=_meta_json(meta), **_stats_arrays(stats))


def load_stats(path) -> FeatureStats:
    npz = _load_npz(path)
    _check_format(npz, "stats/1", path)
    return _stats_from(npz)


# -- checkpoints -------------------------------------------------------------


def _check_params(path, params: dict[str, np.ndarray], config: RunConfig) -> None:
    """Keys and shapes must be those of the stored config's branches; values finite."""
    pose, rhythm = build_branches(config)
    layout = {**pose.param_shapes(), **rhythm.param_shapes()}
    missing = sorted(layout.keys() - params.keys())
    if missing:
        raise DataError(f"{path}: checkpoint lacks parameter(s) {', '.join(missing)}")
    extra = sorted(params.keys() - layout.keys())
    if extra:
        raise DataError(
            f"{path}: checkpoint has parameter(s) {', '.join(extra)} its config does not define"
        )
    for key, expected in layout.items():
        if params[key].shape != expected:
            raise DataError(
                f"{path}: parameter {key} has shape {params[key].shape},"
                f" its config needs {expected}"
            )
        if not np.all(np.isfinite(params[key])):
            raise DataError(f"{path}: parameter {key} contains non-finite values")


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    arrays = {f"param.{key}": value for key, value in ckpt.params.items()}
    arrays.update(_stats_arrays(ckpt.feature_stats))
    meta = {
        "seed": ckpt.seed,
        "epoch": ckpt.epoch,
        "val_lvd": ckpt.val_lvd,
        "config_hash": ckpt.config.config_hash(),
        **ckpt.extra,
    }
    np.savez(
        path,
        format="checkpoint/1",
        config=json.dumps(ckpt.config.to_dict(), sort_keys=True),
        rest_posture=ckpt.rest_posture,
        meta=_meta_json(meta),
        **arrays,
    )


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint/1 file.

    Raises:
        DataError naming the file: a stored config whose hash is not the one
        recorded in meta, a parameter missing from it, one its config does
        not define, a shape that does not fit the config, or a non-finite
        value.
    """
    npz = _load_npz(path)
    _check_format(npz, "checkpoint/1", path)
    config = RunConfig.from_dict(json.loads(str(npz["config"])))
    meta = json.loads(str(npz["meta"]))
    recorded, actual = meta.get("config_hash"), config.config_hash()
    if recorded != actual:
        raise DataError(
            f"{path}: meta.config_hash {recorded} does not match {actual},"
            " the hash of its stored config"
        )
    params = {
        key.removeprefix("param."): np.asarray(npz[key], dtype=np.float64)
        for key in npz.files
        if key.startswith("param.")
    }
    _check_params(path, params, config)
    known = {"seed", "epoch", "val_lvd", "config_hash"}
    return Checkpoint(
        params=params,
        config=config,
        feature_stats=_stats_from(npz),
        rest_posture=np.asarray(npz["rest_posture"], dtype=np.float64),
        seed=int(meta["seed"]),
        epoch=int(meta["epoch"]),
        val_lvd=None if meta.get("val_lvd") is None else float(meta["val_lvd"]),
        extra={k: v for k, v in meta.items() if k not in known},
    )


# -- reports and sidecars ------------------------------------------------------


def save_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise DataError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None
