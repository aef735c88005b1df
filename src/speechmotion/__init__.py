"""Speech-driven upper-body motion generation.

The model splits every short motion clip into a mean posture and zero-mean
rhythmic offsets around it.  A variational branch proposes posture
transitions between consecutive clips, gated by a binary mode label; a
temporal convolution branch maps audio features to the offsets.  Adding the
two branch outputs reassembles a full clip.
"""

from .audio import (
    FeatureStats,
    Transcript,
    align_audio_to_motion,
    extract_mfcc,
    mel_filterbank,
)
from .config import (
    EvalSettings,
    GenerateSettings,
    MfccSettings,
    ModelSettings,
    RunConfig,
    ToySettings,
    TrainSettings,
)
from .data import Checkpoint, DatasetSplit, SampleSet
from .errors import DataError, NumericError
from .evaluation import evaluate_checkpoint, sample_diversity
from .generation import (
    GenerationResult,
    generate_sequence,
    interval_schedule,
    keyword_schedule,
)
from .metrics import (
    MetricReport,
    SpeakerMetrics,
    baseline_last_step,
    baseline_mean_velocity,
    diversity,
    lvd,
    quality_score,
)
from .motion import (
    DEFAULT_JOINTS,
    DEFAULT_MODE_THRESHOLD,
    JointSpec,
    chunk_sequence,
    compose,
    decompose,
    label_mode_change,
    normalize_skeleton,
    swap_dynamics,
    temporal_mean,
)
from .posemode import PoseModeBranch
from .rhythm import RhythmBranch
from .toydata import make_toy_dataset
from .training import TrainResult, build_dataset, train, validation_lvd

__version__ = "0.1.0"

__all__ = [
    "Checkpoint",
    "DataError",
    "DatasetSplit",
    "DEFAULT_JOINTS",
    "DEFAULT_MODE_THRESHOLD",
    "EvalSettings",
    "FeatureStats",
    "GenerateSettings",
    "GenerationResult",
    "JointSpec",
    "MetricReport",
    "MfccSettings",
    "ModelSettings",
    "NumericError",
    "PoseModeBranch",
    "RhythmBranch",
    "RunConfig",
    "SampleSet",
    "SpeakerMetrics",
    "ToySettings",
    "TrainResult",
    "TrainSettings",
    "Transcript",
    "align_audio_to_motion",
    "baseline_last_step",
    "baseline_mean_velocity",
    "build_dataset",
    "chunk_sequence",
    "compose",
    "decompose",
    "diversity",
    "evaluate_checkpoint",
    "extract_mfcc",
    "generate_sequence",
    "interval_schedule",
    "keyword_schedule",
    "label_mode_change",
    "lvd",
    "make_toy_dataset",
    "mel_filterbank",
    "normalize_skeleton",
    "quality_score",
    "sample_diversity",
    "swap_dynamics",
    "temporal_mean",
    "train",
    "validation_lvd",
]
