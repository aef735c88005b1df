"""Run configuration: one frozen dataclass tree holding every tunable.

Configs load from JSON with strict key checking (a typo is a usage error,
not a silent default), serialize back to the identical dict, and hash to a
short hex digest that every output file embeds next to the seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
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
    activation: str = "tanh"

    def __post_init__(self) -> None:
        sizes = (self.d_e, self.d_z, self.rhythm_hidden, self.rhythm_layers, self.rhythm_kernel)
        if min(*sizes, *self.enc_hidden, *self.latent_hidden) < 1:
            raise ValueError("all model sizes must be positive")


@dataclass(frozen=True)
class TrainSettings:
    lr: float = 1e-4
    batch_size: int = 32
    epochs: int = 100
    lambda_rec: float = 1.0
    lambda_vae: float = 0.01
    lambda_rhythm: float = 1.0
    lambda_reg: float = 1.0
    kl_anneal: bool = True
    kl_anneal_frac: float = 0.1
    split_train: float = 0.8
    split_val: float = 0.1
    split_test: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch size and epochs must be positive")
        total = self.split_train + self.split_val + self.split_test
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"split fractions sum to {total}, expected 1")


@dataclass(frozen=True)
class GenerateSettings:
    keywords: tuple[str, ...] = DEFAULT_KEYWORDS
    interval: int = 4
    condition_on_composed: bool = False
    recenter_offsets: bool = False


@dataclass(frozen=True)
class EvalSettings:
    diversity_samples: int = 64
    diversity_audios: int = 4
    quality_hidden: int = 8
    quality_layers: int = 2
    quality_epochs: int = 200
    quality_lr: float = 1e-2
    quality_train_frac: float = 0.7


@dataclass(frozen=True)
class ToySettings:
    """Shape of the synthetic dataset the toy generator emits."""

    speakers: int = 2
    segments_per_speaker: int = 6
    clips_per_segment: int = 9
    n_postures: int = 3
    rhythm_amp: float = 0.08
    wander_amp: float = 0.01
    beat_choices: tuple[float, ...] = (1.25, 2.0, 3.0)


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
        if self.fps <= 0:
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


def _to_plain(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: _to_plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, tuple):
        return [_to_plain(v) for v in obj]
    return obj


def _from_plain(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ValueError(f"config section {path or '<root>'} must be an object")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown} in section {path or '<root>'}")
    kwargs = {}
    for name, value in data.items():
        f = known[name]
        sub = f.type if isinstance(f.type, type) else None
        # Field types are strings under `from __future__ import annotations`;
        # resolve nested dataclasses by the declared default instead.
        default = f.default_factory() if f.default_factory is not dataclasses.MISSING else f.default
        if dataclasses.is_dataclass(default):
            kwargs[name] = _from_plain(type(default), value, f"{path}{name}.")
        elif isinstance(default, tuple) or (sub is tuple):
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"config key {path}{name} must be a list")
            kwargs[name] = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        elif isinstance(default, float) and type(value) is int:
            # one hash per value: `fps=15` and `fps=15.0` are the same config
            kwargs[name] = float(value)
        else:
            kwargs[name] = value
    return cls(**kwargs)
