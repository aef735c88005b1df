"""Run configuration: one frozen dataclass tree holding every setting a run
can change. Fixed parts of the method, such as the quality classifier's
shape, are constants in the modules that use them.

Configs load from JSON with strict key checking (a typo is a usage error,
not a silent default), serialize back to the identical dict, and hash to a
short hex digest that every output file embeds next to the seed. A config
written before some settings were retired still loads: each retired key is
accepted at the one value the code now uses, and dropped (`_RETIRED`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

from .motion import DEFAULT_JOINTS, DEFAULT_MODE_THRESHOLD, JointSpec

DEFAULT_KEYWORDS = ("so", "now", "but", "next", "first", "then", "okay", "well")


def _at_least(settings, prefix: str, **least: int) -> None:
    """Each named setting, or each entry of a tuple setting, is at least its bound."""
    for name, low in least.items():
        value = getattr(settings, name)
        if min(value if isinstance(value, tuple) else (value,), default=low) < low:
            raise ValueError(f"{prefix}{name} must be at least {low}, got {value}")


def _positive(settings, prefix: str, *names: str) -> None:
    for name in names:
        if not getattr(settings, name) > 0:  # NaN fails this too
            raise ValueError(f"{prefix}{name} must be positive, got {getattr(settings, name)}")


@dataclass(frozen=True)
class MfccSettings:
    """Knobs of the MFCC front end; d_s is the resulting row width."""

    sample_rate: int = 16000
    window_s: float = 0.025
    hop_s: float = 0.010
    n_mels: int = 40
    n_mfcc: int = 13
    deltas: bool = True

    def __post_init__(self) -> None:
        _positive(self, "mfcc.", "sample_rate", "window_s", "hop_s")
        _at_least(self, "mfcc.", n_mfcc=1)
        if self.n_mfcc > self.n_mels:
            raise ValueError(f"mfcc.n_mfcc must be at most mfcc.n_mels ({self.n_mels}), got {self.n_mfcc}")

    @property
    def d_s(self) -> int:
        return self.n_mfcc * (2 if self.deltas else 1)

    @property
    def window_samples(self) -> int:
        return int(round(self.window_s * self.sample_rate))

    @property
    def hop_samples(self) -> int:
        return int(round(self.hop_s * self.sample_rate))


@dataclass(frozen=True)
class ModelSettings:
    """Network sizes for both branches."""

    d_e: int = 128
    d_z: int = 64
    enc_hidden: tuple[int, ...] = (512, 256)
    latent_hidden: tuple[int, ...] = (128,)
    rhythm_hidden: int = 128
    rhythm_layers: int = 4
    rhythm_kernel: int = 5

    def __post_init__(self) -> None:
        _at_least(self, "model.", d_e=1, d_z=1, enc_hidden=1, latent_hidden=1, rhythm_hidden=1,
                  rhythm_layers=1, rhythm_kernel=1)
        if self.rhythm_kernel % 2 == 0:
            raise ValueError(f"model.rhythm_kernel must be odd for same padding, got {self.rhythm_kernel}")


@dataclass(frozen=True)
class TrainSettings:
    """The KL weight ramps up over the first `kl_anneal_frac` of all steps (0:
    no anneal); the test split takes what train and val leave."""

    lr: float = 1e-4
    batch_size: int = 32
    epochs: int = 100
    lambda_rec: float = 1.0
    lambda_vae: float = 0.01
    lambda_rhythm: float = 1.0
    lambda_reg: float = 1.0
    kl_anneal_frac: float = 0.1
    split_train: float = 0.8
    split_val: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        _at_least(self, "train.", batch_size=1, epochs=1, seed=0)
        for name in ("lambda_rec", "lambda_vae", "lambda_rhythm", "lambda_reg", "kl_anneal_frac"):
            if getattr(self, name) < 0:
                raise ValueError(f"train.{name} must be non-negative, got {getattr(self, name)}")
        if self.split_train <= 0 or self.split_val < 0 or self.split_train + self.split_val > 1 + 1e-9:
            raise ValueError(
                f"train.split_train ({self.split_train}) must be positive, train.split_val"
                f" ({self.split_val}) non-negative, and their sum at most 1"
            )


@dataclass(frozen=True)
class GenerateSettings:
    """Words that raise a mode change under the keyword schedule; the toy
    corpus plants them in its transcripts, one word to a token."""

    keywords: tuple[str, ...] = DEFAULT_KEYWORDS

    def __post_init__(self) -> None:
        if not self.keywords or any(not isinstance(w, str) or w.split() != [w] for w in self.keywords):
            raise ValueError(
                "generate.keywords must be one or more words without whitespace,"
                f" got {json.dumps(list(self.keywords))}"
            )


@dataclass(frozen=True)
class EvalSettings:
    diversity_samples: int = 64
    quality_epochs: int = 200

    def __post_init__(self) -> None:
        _at_least(self, "evaluate.", diversity_samples=2, quality_epochs=1)


@dataclass(frozen=True)
class ToySettings:
    """Size of the synthetic dataset the toy generator emits."""

    speakers: int = 2
    segments_per_speaker: int = 6
    clips_per_segment: int = 9

    def __post_init__(self) -> None:
        _at_least(self, "toy.", speakers=1, segments_per_speaker=1, clips_per_segment=1)


@dataclass(frozen=True)
class RunConfig:
    t_frames: int = 64
    fps: float = 15.0
    joint_names: tuple[str, ...] = DEFAULT_JOINTS.names
    hand_joints: tuple[str, ...] = tuple(DEFAULT_JOINTS.names[i] for i in DEFAULT_JOINTS.hand_indices)
    mode_threshold: float = DEFAULT_MODE_THRESHOLD
    mfcc: MfccSettings = field(default_factory=MfccSettings)
    model: ModelSettings = field(default_factory=ModelSettings)
    train: TrainSettings = field(default_factory=TrainSettings)
    generate: GenerateSettings = field(default_factory=GenerateSettings)
    evaluate: EvalSettings = field(default_factory=EvalSettings)
    toy: ToySettings = field(default_factory=ToySettings)

    def __post_init__(self) -> None:
        _at_least(self, "", t_frames=2)
        _positive(self, "", "fps", "mode_threshold")
        missing = [h for h in self.hand_joints if h not in self.joint_names]
        if missing:
            raise ValueError(f"hand joints {missing} not in joint names")
        try:
            self.joint_spec  # built, checked and cached once
        except ValueError as exc:
            raise ValueError(f"config key joint_names: {exc}") from None

    @cached_property
    def joint_spec(self) -> JointSpec:
        return JointSpec(
            names=tuple(self.joint_names),
            hand_indices=tuple(self.joint_names.index(h) for h in self.hand_joints),
        )

    @property
    def d_m(self) -> int:
        return 2 * len(self.joint_names)

    def to_dict(self) -> dict:
        return _to_plain(self)

    def config_hash(self) -> str:
        return plain_hash(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return _from_plain(cls, data, path="")

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        """A JSON file's config; a ValueError naming the file if it does not validate."""
        with open(path) as fh:
            try:
                return cls.from_dict(json.load(fh))
            except ValueError as exc:  # a json.JSONDecodeError too
                raise ValueError(f"{path}: {exc}") from None

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)


def plain_hash(data: dict) -> str:
    """Short hex digest of a config dict's canonical JSON, exactly as typed."""
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# Retired settings, each accepted only at the one value the code now uses.
_RETIRED = {
    "model.activation": "tanh",
    "train.kl_anneal": True,
    "generate.condition_on_composed": False,
    "generate.recenter_offsets": False,
    "train.split_test": "1 - split_train - split_val",
    "generate.interval": 4,
    "evaluate.diversity_audios": 4,
    "evaluate.quality_hidden": 8,
    "evaluate.quality_layers": 2,
    "evaluate.quality_lr": 0.01,
    "evaluate.quality_train_frac": 0.7,
    "toy.n_postures": 3,
    "toy.rhythm_amp": 0.08,
    "toy.wander_amp": 0.01,
    "toy.beat_choices": [1.25, 2.0, 3.0],
}


def _drop_retired(data: dict, path: str) -> dict:
    """`data` without its retired keys, each checked against its one value."""
    kept = {key: value for key, value in data.items() if path + key not in _RETIRED}
    for key in data.keys() - kept.keys():
        name, value, accepted = path + key, data[key], _RETIRED[path + key]
        if name == "train.split_test":
            train, val = (kept.get(k, getattr(TrainSettings, k)) for k in ("split_train", "split_val"))
            ok = type(value) in (int, float) and abs(train + val + value - 1.0) <= 1e-9
        else:
            ok, accepted = type(value) is type(accepted) and value == accepted, json.dumps(accepted)
        if not ok:
            hint = "; train.kl_anneal_frac=0 turns the KL anneal off" if key == "kl_anneal" else ""
            raise ValueError(
                f"config key {name} is retired and accepts only {accepted}, got {json.dumps(value)}{hint}"
            )
    return kept


def _default(f: dataclasses.Field):
    return f.default_factory() if f.default_factory is not dataclasses.MISSING else f.default


def _typed(default, value):
    """An int as a float where the default is one: `fps=15` hashes as `fps=15.0`."""
    return float(value) if isinstance(default, float) and type(value) is int else value


def _to_plain(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: _to_plain(_typed(_default(f), getattr(obj, f.name))) for f in fields(obj)}
    if isinstance(obj, tuple):
        return [_to_plain(v) for v in obj]
    return obj


def _from_plain(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ValueError(f"config section {path[:-1] or '<root>'} must be an object")
    data = _drop_retired(data, path)
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown} in section {path or '<root>'}")
    kwargs = {}
    for name, value in data.items():
        # Field types are strings under `from __future__ import annotations`;
        # resolve nested dataclasses and tuples by the declared default instead.
        default = _default(known[name])
        if dataclasses.is_dataclass(default):
            kwargs[name] = _from_plain(type(default), value, f"{path}{name}.")
        elif isinstance(default, tuple):
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"config key {path}{name} must be a list")
            item = default[0] if default else None
            kwargs[name] = tuple(
                tuple(v) if isinstance(v, list) else _number(item, v, f"{path}{name}") for v in value
            )
        else:
            kwargs[name] = _typed(default, _number(default, value, f"{path}{name}"))
    return cls(**kwargs)


def _number(default, value, key: str):
    """A numeric setting takes a JSON number, not a bool or a string: finite,
    and whole where the setting is an int (`t_frames=16.0` is 16)."""
    if type(default) not in (int, float):
        return value
    if type(value) not in (int, float):
        raise ValueError(f"config key {key} must be a number, got {json.dumps(value)}")
    if not math.isfinite(value):
        raise ValueError(f"config key {key} must be finite, got {value}")
    if type(default) is int and not float(value).is_integer():
        raise ValueError(f"config key {key} must be a whole number, got {value}")
    return int(value) if type(default) is int else value
