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
from pathlib import Path

from .audio import MfccSettings
from .motion import DEFAULT_JOINTS, DEFAULT_MODE_THRESHOLD

DEFAULT_KEYWORDS = ("so", "now", "but", "next", "first", "then", "okay", "well")


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
        sizes = (self.d_e, self.d_z, self.rhythm_hidden, self.rhythm_layers, self.rhythm_kernel)
        if min(*sizes, *self.enc_hidden, *self.latent_hidden) < 1:
            raise ValueError("all model sizes must be positive")


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
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch size and epochs must be positive")
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
    keywords: tuple[str, ...] = DEFAULT_KEYWORDS


@dataclass(frozen=True)
class EvalSettings:
    diversity_samples: int = 64
    quality_epochs: int = 200


@dataclass(frozen=True)
class ToySettings:
    """Size of the synthetic dataset the toy generator emits."""

    speakers: int = 2
    segments_per_speaker: int = 6
    clips_per_segment: int = 9


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
        if self.t_frames < 2:
            raise ValueError("t_frames must be at least 2")
        if not self.fps > 0:  # NaN fails this too
            raise ValueError("fps must be positive")
        missing = [h for h in self.hand_joints if h not in self.joint_names]
        if missing:
            raise ValueError(f"hand joints {missing} not in joint names")

    @property
    def joint_spec(self):
        from .motion import JointSpec

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
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: not valid JSON ({exc})") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path}: top level must be a JSON object")
        return cls.from_dict(data)

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
        raise ValueError(f"config section {path or '<root>'} must be an object")
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
    """A JSON float given for a numeric setting must be finite, and whole where
    the setting is an int (`t_frames=16.0` is 16)."""
    if type(default) not in (int, float) or not isinstance(value, float):
        return value
    if not math.isfinite(value):
        raise ValueError(f"config key {key} must be finite, got {value}")
    if type(default) is int:
        if not value.is_integer():
            raise ValueError(f"config key {key} must be a whole number, got {value}")
        return int(value)
    return value
