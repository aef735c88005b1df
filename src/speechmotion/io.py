"""Versioned on-disk containers.

Every numeric container is a plain .npz (no pickling) with a `format` field
naming the layout and its version; every writer embeds a JSON `meta` blob
carrying at least the seed and config hash of the run that produced the
file. Round-trips are lossless: float64 in, bit-equal float64 out.

Formats (documented here and in the README):
  landmarks/1   frames (N, D) float64, fps, joint_names, hand_indices, meta
  waveform/1    samples (N,) float64 in [-1, 1], sample_rate, meta
  split/1       m_prev, m_cur (N, T, D), s_cur (N, T, D_S), c, speaker,
                segment (N,), sample_rate, fps, joint_names, hand_indices,
                meta: one dataset split, read back as a SampleSet
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

from .audio import FeatureStats, Transcript
from .config import RunConfig, plain_hash
from .data import Checkpoint, SampleSet
from .errors import DataError, NumericError
from .model import param_shapes
from .motion import JointSpec, normalize_skeleton


def _meta_json(meta: dict | None) -> str:
    return json.dumps(meta or {}, sort_keys=True)


def _check_format(npz, expected: str, path) -> None:
    found = str(npz["format"]) if "format" in npz else "<missing>"
    if found != expected:
        raise DataError(f"{path}: format {found!r}, expected {expected!r}")


class _Container:
    """The fields of a file: an open npz, or the JSON meta object stored in
    one. A field that is missing, or that does not convert to the type asked
    for, raises DataError naming the file and the field."""

    def __init__(self, fields, path, prefix: str = ""):
        self._fields, self._path, self._prefix = fields, path, prefix
        self.files = list(fields)

    def __contains__(self, key: str) -> bool:
        return key in self._fields

    def __getitem__(self, key: str):
        try:
            return self._fields[key]
        except KeyError:
            raise DataError(f"{self._path}: container has no field '{self._prefix}{key}'") from None

    def scalar(self, key: str, kind: type):
        """Field `key` as one `kind` (float, int, ...)."""
        value = self[key]
        try:
            return kind(value)
        except (TypeError, ValueError):
            raise DataError(
                f"{self._path}: field '{self._prefix}{key}' holds {value!r}, not one {kind.__name__}"
            ) from None

    def meta(self) -> dict:
        """The JSON object in field `meta`."""
        try:
            meta = json.loads(str(self["meta"]))
        except json.JSONDecodeError as exc:
            raise DataError(f"{self._path}: field 'meta' is not valid JSON ({exc})") from None
        if not isinstance(meta, dict):
            raise DataError(f"{self._path}: field 'meta' is not a JSON object")
        return meta


def _load_npz(path) -> _Container:
    try:
        return _Container(np.load(path, allow_pickle=False), path)
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
    """Write a landmarks/1 file.

    Raises:
        NumericError naming the file, before anything is written: frames
        with non-finite values, which `load_landmarks` would reject.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != joint_spec.d_m:
        raise ValueError(f"frames shape {frames.shape} does not fit the joint spec")
    if not np.all(np.isfinite(frames)):
        raise NumericError(f"{path}: refusing to write non-finite frames")
    np.savez(
        path,
        format="landmarks/1",
        frames=frames,
        fps=np.float64(fps),
        joint_names=np.array(joint_spec.names),
        hand_indices=np.array(joint_spec.hand_indices, dtype=np.int64),
        meta=_meta_json(meta),
    )


def _joints(npz, path) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The file's joint names and hand indices, each index one of its joints."""
    names, hands = tuple(str(n) for n in npz["joint_names"]), npz["hand_indices"]
    try:
        hand_indices = tuple(int(i) for i in hands)
        if not all(0 <= i < len(names) for i in hand_indices):
            raise ValueError
    except (TypeError, ValueError):
        raise DataError(
            f"{path}: field 'hand_indices' holds {hands.tolist()!r},"
            f" not indices of its {len(names)} joints"
        ) from None
    return names, hand_indices


def load_landmarks(path) -> tuple[np.ndarray, float, JointSpec, dict]:
    """Read a landmarks/1 file.

    Raises:
        DataError naming the file: joint names or hand indices that make no
        joint spec, frames that do not fit its joint spec, non-finite frame
        values, or an fps that is not finite and positive.
    """
    npz = _load_npz(path)
    _check_format(npz, "landmarks/1", path)
    names, hand_indices = _joints(npz, path)
    try:
        spec = JointSpec(names=names, hand_indices=hand_indices)
    except ValueError as exc:
        raise DataError(f"{path}: field 'joint_names' holds {list(names)!r}: {exc}") from None
    frames = np.asarray(npz["frames"], dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != spec.d_m:
        raise DataError(f"{path}: frames shape {frames.shape} does not fit its joint spec")
    if not np.all(np.isfinite(frames)):
        raise DataError(f"{path}: frames contain non-finite values")
    fps = npz.scalar("fps", float)
    if not (np.isfinite(fps) and fps > 0):
        raise DataError(f"{path}: fps must be finite and positive, got {fps}")
    return frames, fps, spec, npz.meta()


def load_normalized_landmarks(path, config: RunConfig) -> tuple[np.ndarray, dict]:
    """A landmarks/1 file that must fit `config`: its frames through
    `normalize_skeleton`, and its meta.

    Raises:
        DataError naming the file: whatever `load_landmarks` rejects, joint
        names, hand joints or an fps other than the config's, or a reference
        bone too short to scale by.
    """
    frames, fps, spec, meta = load_landmarks(path)
    if spec.names != tuple(config.joint_names):
        raise DataError(f"{path}: joint names do not match the configured skeleton")
    hands = [spec.names[i] for i in spec.hand_indices]
    if hands != list(config.hand_joints):
        raise DataError(f"{path}: hand joints {hands} do not match configured {list(config.hand_joints)}")
    if abs(fps - config.fps) > 1e-9:
        raise DataError(f"{path}: fps {fps} does not match configured {config.fps}")
    try:
        return normalize_skeleton(frames, spec), meta
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


# -- waveforms -----------------------------------------------------------


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
        samples, rate = np.asarray(npz["samples"], dtype=np.float64), npz.scalar("sample_rate", int)
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


def save_split(path, samples: SampleSet, config: RunConfig, meta: dict | None = None) -> None:
    """Write a split/1 file: the set's arrays plus the config's fps, skeleton
    and audio sample rate."""
    if not samples:
        raise ValueError("refusing to write an empty split")
    np.savez(
        path,
        format="split/1",
        m_prev=samples.m_prev,
        m_cur=samples.m_cur,
        s_cur=samples.audio,
        c=samples.c,
        # rebuilt from the strings, so the width is that of this set's longest id
        speaker=np.array(samples.speaker.tolist()),
        segment=np.array(samples.segment.tolist()),
        sample_rate=np.int64(config.mfcc.sample_rate),
        fps=np.float64(config.fps),
        joint_names=np.array(config.joint_spec.names),
        hand_indices=np.array(config.joint_spec.hand_indices, dtype=np.int64),
        meta=_meta_json(meta),
    )


def load_split(path, config: RunConfig) -> SampleSet:
    """Read a split/1 file written under a config that `config` can use.

    Raises:
        DataError naming the file: arrays whose rows or frames disagree, a
        mode label other than 0 or 1, non-finite values, hand indices that
        are not indices of its joints, or clips, audio, joints, hand joints
        or frame rate that do not fit `config`.
    """
    npz = _load_npz(path)
    _check_format(npz, "split/1", path)
    arrays = [npz[key] for key in ("m_prev", "m_cur", "s_cur", "c", "speaker", "segment")]
    try:
        samples = SampleSet(*arrays)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    names, hand_indices = _joints(npz, path)
    for what, found, needed in (
        ("clip frames", samples.m_cur.shape[1], config.t_frames),
        ("joint names", names, tuple(config.joint_names)),
        ("hand joints", tuple(names[i] for i in hand_indices), tuple(config.hand_joints)),
        ("motion width", samples.m_cur.shape[2], config.d_m),
        ("audio width", samples.audio.shape[2], config.mfcc.d_s),
        ("fps", npz.scalar("fps", float), config.fps),
        ("audio sample rate", npz.scalar("sample_rate", int), config.mfcc.sample_rate),
    ):
        if found != needed:
            raise DataError(f"{path}: split has {what} {found}, the config needs {needed}")
    return samples


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
    """Keys and shapes must be those of the stored config's layout; values finite."""
    layout = param_shapes(config)
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
    """Read a checkpoint/1 file; meta keys it does not read are ignored.

    Raises:
        DataError naming the file: a missing field or meta field, a meta
        value of the wrong type, a stored config that does not validate or
        whose hash (of the dict as written) is not the one recorded in meta,
        a parameter missing from it, one its config does not define, a shape
        that does not fit the config, a non-finite value, or a rest posture
        that is not one finite frame of the config's width.
    """
    npz = _load_npz(path)
    _check_format(npz, "checkpoint/1", path)
    text = str(npz["config"])
    try:
        stored = json.loads(text)
        config = RunConfig.from_dict(stored)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: stored config is invalid: {exc}") from None
    meta = _Container(npz.meta(), path, "meta.")
    recorded, actual = meta["config_hash"], plain_hash(stored)
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
    rest_posture = np.asarray(npz["rest_posture"], dtype=np.float64)
    if rest_posture.shape != (config.d_m,):
        raise DataError(
            f"{path}: rest posture has shape {rest_posture.shape}, its config needs ({config.d_m},)"
        )
    if not np.all(np.isfinite(rest_posture)):
        raise DataError(f"{path}: rest posture contains non-finite values")
    return Checkpoint(
        params=params,
        config=config,
        feature_stats=_stats_from(npz),
        rest_posture=rest_posture,
        seed=meta.scalar("seed", int),
        epoch=meta.scalar("epoch", int),
        val_lvd=None if meta["val_lvd"] is None else meta.scalar("val_lvd", float),
    )


# -- reports and sidecars ------------------------------------------------------


def save_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

