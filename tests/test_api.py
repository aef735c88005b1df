"""The package's public names: additions and removals are deliberate. The
README's Python examples run against them."""

import re
from pathlib import Path

import speechmotion

PUBLIC = {
    "Checkpoint", "DataError", "DatasetSplit", "DEFAULT_JOINTS",
    "DEFAULT_MODE_THRESHOLD", "EvalSettings", "FeatureStats", "GenerateSettings",
    "GenerationResult", "JointSpec", "MetricReport", "MfccSettings", "ModelSettings",
    "NumericError", "PoseModeBranch", "RhythmBranch", "RunConfig", "SampleSet",
    "SpeakerMetrics", "ToySettings", "TrainResult", "TrainSettings",
    "Transcript", "align_audio_to_motion", "baseline_last_step",
    "baseline_mean_velocity", "build_dataset", "chunk_sequence", "compose",
    "decompose", "diversity", "evaluate_checkpoint", "extract_mfcc", "generate_sequence",
    "interval_schedule", "keyword_schedule", "label_mode_change", "lvd", "make_toy_dataset",
    "mel_filterbank", "normalize_skeleton", "quality_score", "sample_diversity",
    "swap_dynamics", "temporal_mean", "train", "validation_lvd",
}


def test_public_names_are_pinned():
    assert len(speechmotion.__all__) == len(set(speechmotion.__all__)) == 47
    assert set(speechmotion.__all__) == PUBLIC
    for name in speechmotion.__all__:
        assert getattr(speechmotion, name) is not None


def test_readme_python_blocks_run():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})
