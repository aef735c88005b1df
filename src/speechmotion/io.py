"""Versioned on-disk containers.

Every numeric container is a plain .npz (no pickling) whose `format` field
names its layout and version; every writer embeds a JSON `meta` with the
seed and config hash of the run. Round-trips are bit-exact. `_FORMATS`
declares each npz format's fields once; a loader reads them with `_read`,
builds what the file holds and checks it against the config with `_fit`, so
every bad file is a DataError naming the file and the field. report/1 is
JSON; transcripts are `word start_s end_s` rows; WAV is mono 16-bit PCM.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np
from numpy.lib.npyio import NpzFile
from scipy.io import wavfile

from .audio import FeatureStats, Transcript
from .config import RunConfig, plain_hash
from .data import Checkpoint, SampleSet
from .errors import DataError, NumericError
from .model import param_shapes
from .motion import JointSpec, normalize_skeleton


def _meta_json(meta: dict | None) -> str:
    return json.dumps(meta or {}, sort_keys=True)


@dataclass(frozen=True)
class _Field:
    """One npz field: kind "str", "int", "float" (ints accepted; finite) or
    "json" (a JSON object; `keys` types the entries read); one symbol or size
    per axis, none empty; if it must be positive; the field it indexes; the
    config setting it must equal and what messages call that; what messages
    call it, if not its key. No writer stores numbers as text, so a numeric
    field holding a string is refused."""

    kind: str
    shape: tuple = ()
    positive: bool = False
    within: str | None = None
    config: tuple[str, str] | None = None
    label: str | None = None
    keys: dict | None = None


_KINDS = {"str": "U", "json": "U", "int": "iu", "float": "iuf"}
# Shape symbols N rows, T clip frames, J joints, D = 2J, D_S, S speakers, H hands; those a config fixes:
_SIZES = {"T": "clip frames", "J": "joints", "D": "motion width", "D_S": "audio width"}
_META = _Field("json")
_STATS = {
    "stats.speakers": _Field("str", ("S",)),
    "stats.means": _Field("float", ("S", "D_S")),
    "stats.stds": _Field("float", ("S", "D_S")),
    "stats.pooled_mean": _Field("float", ("D_S",)),
    "stats.pooled_std": _Field("float", ("D_S",)),
}
_FORMATS = {
    "landmarks/1": {
        "joint_names": _Field("str", ("J",)),
        "hand_indices": _Field("int", ("H",), within="joint_names"),
        "frames": _Field("float", ("N", "D")),
        "fps": _Field("float", positive=True),
        "meta": _META,
    },
    "waveform/1": {"samples": _Field("float", ("N",)), "sample_rate": _Field("int", positive=True), "meta": _META},
    "split/1": {
        "m_prev": _Field("float", ("N", "T", "D")),
        "m_cur": _Field("float", ("N", "T", "D")),
        "s_cur": _Field("float", ("N", "T", "D_S")),
        "c": _Field("int", ("N",)),
        "speaker": _Field("str", ("N",)),
        "segment": _Field("str", ("N",)),
        "sample_rate": _Field("int", config=("mfcc.sample_rate", "audio sample rate")),
        "fps": _Field("float", config=("fps", "fps")),
        "joint_names": _Field("str", ("J",), config=("joint_names", "joint names")),
        "hand_indices": _Field("int", ("H",), within="joint_names", config=("hand_joints", "hand joints")),
        "meta": _META,
    },
    "stats/1": {**_STATS, "meta": _META},
    # plus one float field param.<key> per entry of its stored config's layout
    "checkpoint/1": {
        "config": _Field("str"),
        "rest_posture": _Field("float", ("D",), label="rest posture"),
        **_STATS,
        "meta": _Field("json", keys={"seed": (int,), "epoch": (int,), "config_hash": (str,),
                                     "val_lvd": (float, int, type(None))}),
    },
}


def _read(path, fmt: str, layout=None) -> dict:
    """The fields format `fmt`, then `layout(fields)`, declare, each read
    once and checked alone (see `_field`); a field not declared is refused.
    0-d fields come back as Python values (a dict for json), floats as float64."""
    try:
        npz = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise DataError(f"{path}: no such file") from None
    except (ValueError, OSError) as exc:
        raise DataError(f"{path}: not a readable npz container ({exc})") from None
    if not isinstance(npz, NpzFile):
        raise DataError(f"{path}: not an npz container")
    with npz:
        fields = {}
        for key, field in {"format": _Field("str"), **_FORMATS[fmt]}.items():
            fields[key] = _field(path, npz, key, field, fields)
            if key == "format" and fields[key] != fmt:
                raise DataError(f"{path}: field 'format' holds {fields[key]!r}, expected {fmt!r}")
        for key, field in (layout(fields) if layout else {}).items():
            fields[key] = _field(path, npz, key, field, fields)
        extra = sorted(set(npz.files) - set(fields))
    if extra:
        raise DataError(f"{path}: field '{extra[0]}' is not part of {fmt}")
    return fields


def _field(path, npz: NpzFile, key: str, field: _Field, fields: dict):
    """Present, of its kind and rank with no empty axis, then positive,
    finite and in range as declared; else DataError naming file and field."""
    name = field.label or key
    if key not in npz.files:
        raise DataError(f"{path}: container has no field '{key}'")
    try:
        value = npz[key]
    except ValueError as exc:  # an object array, which would need unpickling
        raise DataError(f"{path}: field '{key}' is not a plain array ({exc})") from None
    if value.dtype.kind not in _KINDS[field.kind]:
        shown = repr(value.item()) if value.ndim == 0 else f"an array of {value.dtype}"
        raise DataError(f"{path}: field '{key}' holds {shown}, not {field.kind}")
    if value.ndim != len(field.shape):
        raise DataError(f"{path}: {name} has shape {value.shape}, expected ({', '.join(map(str, field.shape))})")
    if 0 in value.shape:
        raise DataError(f"{path}: {name} is empty (shape {value.shape})")
    if field.kind == "float":
        value = float(value) if value.ndim == 0 else np.asarray(value, dtype=np.float64)
    elif value.ndim == 0:
        value = value.item()
    if field.kind == "json":
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: field '{key}' is not valid JSON ({exc})") from None
        if not isinstance(value, dict):
            raise DataError(f"{path}: field '{key}' is not a JSON object")
        for entry, types in (field.keys or {}).items():
            if entry not in value:
                raise DataError(f"{path}: container has no field '{key}.{entry}'")
            if type(value[entry]) not in types:
                raise DataError(f"{path}: field '{key}.{entry}' holds {value[entry]!r}, not one {types[0].__name__}")
    if field.positive and not (np.isfinite(value) and value > 0):
        raise DataError(f"{path}: {name} must be finite and positive, got {value}")
    if field.kind == "float" and not np.all(np.isfinite(value)):
        raise DataError(f"{path}: {name} contains non-finite values")
    n = len(fields.get(field.within, ()))
    if field.within and not np.all((value >= 0) & (value < n)):
        raise DataError(f"{path}: field '{key}' holds {value.tolist()!r}, not indices of its {n} {field.within}")
    return value


def _fit(path, fmt: str, fields: dict, built, config: RunConfig | None = None, layout=None):
    """`built`, once the fields' shapes agree: each symbol has one size
    across them (the config's T, J, D and D_S where `config` is given), and
    each field declaring a setting equals the config's. Else DataError
    naming the file and the field."""
    noun = fmt.split("/")[0]
    given = {} if config is None else {"T": config.t_frames, "J": len(config.joint_names), "D": config.d_m,
                                       "D_S": config.mfcc.d_s}
    sizes = dict(given)
    for key, field in {**_FORMATS[fmt], **(layout or {})}.items():
        name, shape = field.label or key, np.shape(fields[key])
        for axis, size in zip(field.shape, shape):
            want = axis if isinstance(axis, int) else sizes.setdefault(axis, size)
            if axis == "J":  # two coordinates per joint
                sizes.setdefault("D", 2 * size)
            if size != want and axis in given:
                raise DataError(f"{path}: {noun} has {_SIZES[axis]} {size}, the config needs {want} ({name})")
            if size != want:
                expected = ", ".join(str(sizes.get(a, a)) for a in field.shape)
                raise DataError(f"{path}: {name} has shape {shape}, expected ({expected})")
        if field.config and config is not None:
            setting, what = field.config
            found = fields[field.within][fields[key]] if field.within else fields[key]
            found = tuple(found.tolist()) if isinstance(found, np.ndarray) else found
            if found != (needed := attrgetter(setting)(config)):
                raise DataError(f"{path}: {noun} has {what} {found}, the config needs {needed}")
    return built


def _built(path, make, *args):
    """make(*args), its ValueError (DataError included) as a DataError naming the file."""
    try:
        return make(*args)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


# -- landmark sequences -------------------------------------------------


def save_landmarks(path, frames: np.ndarray, fps: float, joint_spec: JointSpec, meta: dict | None = None) -> None:
    """Write a landmarks/1 file.

    Raises, naming the file, before anything is written, what
    `load_landmarks` would reject: NumericError for frames with non-finite
    values, ValueError for an fps that is not finite and positive.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != joint_spec.d_m:
        raise ValueError(f"frames shape {frames.shape} does not fit the joint spec")
    if not np.all(np.isfinite(frames)):
        raise NumericError(f"{path}: refusing to write non-finite frames")
    if not (np.isfinite(fps) and fps > 0):
        raise ValueError(f"{path}: refusing to write fps {fps}; it must be finite and positive")
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
    """Read a landmarks/1 file: its frames, fps, joint spec and meta.
    DataError naming the file and the field for a bad field (`_read`),
    joint names and hand indices that make no joint spec, or frames whose
    width is not two columns per joint."""
    fields = _read(path, "landmarks/1")
    names = tuple(fields["joint_names"].tolist())
    try:
        spec = JointSpec(names=names, hand_indices=tuple(fields["hand_indices"].tolist()))
    except ValueError as exc:
        raise DataError(f"{path}: field 'joint_names' holds {list(names)!r}: {exc}") from None
    return _fit(path, "landmarks/1", fields, (fields["frames"], fields["fps"], spec, fields["meta"]))


def load_normalized_landmarks(path, config: RunConfig) -> tuple[np.ndarray, dict]:
    """A landmarks/1 file's frames through `normalize_skeleton`, and its
    meta; DataError naming the file for what `load_landmarks` rejects, joint
    names, hand joints or an fps other than `config`'s, or a reference bone
    too short to scale by."""
    frames, fps, spec, meta = load_landmarks(path)
    if spec.names != tuple(config.joint_names):
        raise DataError(f"{path}: joint names do not match the configured skeleton")
    hands = [spec.names[i] for i in spec.hand_indices]
    if hands != list(config.hand_joints):
        raise DataError(f"{path}: hand joints {hands} do not match configured {list(config.hand_joints)}")
    if abs(fps - config.fps) > 1e-9:
        raise DataError(f"{path}: fps {fps} does not match configured {config.fps}")
    return _built(path, normalize_skeleton, frames, spec), meta


# -- waveforms -----------------------------------------------------------


def load_waveform(path) -> tuple[np.ndarray, int]:
    """Audio from a waveform/1 npz or a mono 16-bit PCM WAV file; DataError
    naming the file for a bad npz field or an unreadable or other WAV."""
    path = Path(path)
    if path.suffix.lower() != ".wav":
        fields = _read(path, "waveform/1")
        return fields["samples"], fields["sample_rate"]
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
    if rate <= 0:
        raise DataError(f"{path}: sample rate must be positive, got {rate}")
    return data.astype(np.float64) / 32768.0, int(rate)


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
    return _built(path, Transcript, tuple(tokens))


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
    DataError naming the file for a bad field (`_read`), rows or frames that
    disagree or a mode label other than 0 or 1 (`SampleSet`), or clips,
    audio, joints, hand joints or frame rate that do not fit `config`."""
    fields = _read(path, "split/1")
    arrays = (fields[key] for key in ("m_prev", "m_cur", "s_cur", "c", "speaker", "segment"))
    return _fit(path, "split/1", fields, _built(path, SampleSet, *arrays), config)


def _stats_arrays(stats: FeatureStats) -> dict:
    return {key: getattr(stats, key.removeprefix("stats.")) for key in _STATS}


def _stats_from(path, fields: dict) -> FeatureStats:
    speakers, *arrays = (fields[key] for key in _STATS)
    return _built(path, FeatureStats, tuple(speakers.tolist()), *arrays)


def save_stats(path, stats: FeatureStats, meta: dict | None = None) -> None:
    np.savez(path, format="stats/1", meta=_meta_json(meta), **_stats_arrays(stats))


def load_stats(path) -> FeatureStats:
    """Read a stats/1 file; DataError naming the file for a bad field."""
    return _stats_from(path, _read(path, "stats/1"))


# -- checkpoints -------------------------------------------------------------


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


def _param_fields(config: RunConfig) -> dict:
    return {f"param.{key}": _Field("float", shape) for key, shape in param_shapes(config).items()}


def _stored_config(path, fields: dict) -> dict:
    """The parameter fields of the stored config's layout, once the config
    validates and hashes as written to meta.config_hash; it replaces the
    JSON text in `fields`."""
    try:
        stored = json.loads(fields["config"])
        fields["config"] = RunConfig.from_dict(stored)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: stored config is invalid: {exc}") from None
    recorded, actual = fields["meta"]["config_hash"], plain_hash(stored)
    if recorded != actual:
        raise DataError(f"{path}: meta.config_hash {recorded} does not match {actual}, the hash of its stored config")
    return _param_fields(fields["config"])


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint/1 file; meta keys it does not read are ignored.
    DataError naming the file and the field for a bad field (`_read`), a
    stored config that does not validate or whose hash is not meta's, or a
    parameter, rest posture or stats block that does not fit that config."""
    fields = _read(path, "checkpoint/1", lambda fields: _stored_config(path, fields))
    config, meta, layout = fields["config"], fields["meta"], _param_fields(fields["config"])
    params = {key.removeprefix("param."): fields[key] for key in layout}
    val_lvd = None if meta["val_lvd"] is None else float(meta["val_lvd"])
    ckpt = Checkpoint(params, config, _stats_from(path, fields), fields["rest_posture"],
                      meta["seed"], meta["epoch"], val_lvd)
    return _fit(path, "checkpoint/1", fields, ckpt, config, layout)


# -- reports and sidecars ------------------------------------------------------


def save_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

