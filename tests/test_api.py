"""The package's public names: additions and removals are deliberate."""

import speechmotion

PUBLIC = {
    "Checkpoint", "DataError", "DatasetSplit", "DEFAULT_FPS", "DEFAULT_JOINTS",
    "DEFAULT_MODE_THRESHOLD", "EvalSettings", "FeatureStats", "GenerateSettings",
    "GenerationResult", "JointSpec", "MeanPosture", "MetricReport",
    "MfccSettings", "ModeSchedule", "ModelSettings", "MotionClip", "NumericError",
    "PoseModeBranch", "RhythmBranch", "RhythmOffset",
    "RunConfig", "SampleSet", "SpeakerMetrics", "ToySettings", "TrainResult", "TrainSettings",
    "Transcript", "align_audio_to_motion", "baseline_last_step",
    "baseline_mean_velocity", "build_dataset", "chunk_sequence", "compose",
    "decompose", "diversity", "evaluate_checkpoint", "extract_mfcc", "generate_sequence",
    "label_mode_change", "lvd", "make_toy_dataset", "mel_filterbank", "mode_schedule",
    "normalize_skeleton", "quality_score", "sample_diversity", "swap_dynamics",
    "temporal_mean", "train", "validation_lvd",
}


def test_public_names_are_pinned():
    assert len(speechmotion.__all__) == len(set(speechmotion.__all__)) == 51
    assert set(speechmotion.__all__) == PUBLIC
    for name in speechmotion.__all__:
        assert getattr(speechmotion, name) is not None
