"""File containers: lossless round trips and format guards."""

import dataclasses
import json

import numpy as np
import pytest

from speechmotion import (
    AudioClip,
    Checkpoint,
    DataError,
    FeatureStats,
    JointSpec,
    MotionClip,
    RunConfig,
    Transcript,
    TrainingSample,
    build_branches,
    generate_sequence,
    io,
    mode_schedule,
    nn,
)

SPEC = JointSpec(names=("nose", "neck", "right_palm"), hand_indices=(2,))


def test_landmarks_round_trip(tmp_path):
    frames = np.random.default_rng(0).normal(size=(10, 6))
    path = tmp_path / "seg.npz"
    io.save_landmarks(path, frames, 15.0, SPEC, {"speaker": "a", "segment": "seg"})
    loaded, fps, spec, meta = io.load_landmarks(path)
    np.testing.assert_array_equal(loaded, frames)  # bit-exact
    assert fps == 15.0
    assert spec == SPEC
    assert meta == {"speaker": "a", "segment": "seg"}


def test_landmarks_reject_foreign_file(tmp_path):
    path = tmp_path / "other.npz"
    np.savez(path, stuff=np.zeros(3))
    with pytest.raises(DataError):
        io.load_landmarks(path)


def test_waveform_npz_round_trip(tmp_path):
    wave = np.random.default_rng(2).normal(size=4000)
    path = tmp_path / "w.npz"
    io.save_waveform(path, wave, 16000)
    loaded, rate = io.load_waveform(path)
    np.testing.assert_array_equal(loaded, wave)
    assert rate == 16000


def test_wav_round_trip_within_quantization(tmp_path):
    wave = 0.5 * np.sin(2 * np.pi * 440 * np.arange(1600) / 16000)
    path = tmp_path / "w.wav"
    io.save_wav(path, wave, 16000)
    loaded, rate = io.load_waveform(path)
    assert rate == 16000
    assert loaded.shape == wave.shape
    assert np.abs(loaded - wave).max() < 1.0 / 32000  # 16-bit quantization step


def test_wav_rejects_stereo(tmp_path):
    from scipy.io import wavfile

    path = tmp_path / "stereo.wav"
    wavfile.write(path, 16000, np.zeros((100, 2), dtype=np.int16))
    with pytest.raises(DataError):
        io.load_waveform(path)


def test_transcript_round_trip_and_comments(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# header comment\nso 1.0 1.2\nnow 2.5 2.75\n\n")
    tr = io.load_transcript(path)
    assert tr.tokens == (("so", 1.0, 1.2), ("now", 2.5, 2.75))
    out = tmp_path / "out.txt"
    io.save_transcript(out, tr)
    assert io.load_transcript(out).tokens == tr.tokens


def test_transcript_bad_line_reports_location(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("so 1.0 1.2\nnot-enough-fields\n")
    with pytest.raises(DataError, match="bad.txt:2"):
        io.load_transcript(path)


def _sample(seed, c=0):
    rng = np.random.default_rng(seed)
    return TrainingSample(
        m_prev=MotionClip(rng.normal(size=(4, 6)), joint_spec=SPEC),
        m_cur=MotionClip(rng.normal(size=(4, 6)), joint_spec=SPEC),
        s_cur=AudioClip(rng.normal(size=(4, 3))),
        c=c,
        speaker_id=f"spk{seed % 2}",
        segment_id=f"seg{seed}",
    )


def test_split_round_trip(tmp_path):
    samples = [_sample(i, c=i % 2) for i in range(5)]
    path = tmp_path / "train.npz"
    io.save_split(path, samples, 15.0, SPEC, {"note": "test"})
    loaded = io.load_split(path)
    assert len(loaded) == 5
    for a, b in zip(samples, loaded):
        np.testing.assert_array_equal(a.m_prev.frames, b.m_prev.frames)
        np.testing.assert_array_equal(a.m_cur.frames, b.m_cur.frames)
        np.testing.assert_array_equal(a.s_cur.features, b.s_cur.features)
        assert (a.c, a.speaker_id, a.segment_id) == (b.c, b.speaker_id, b.segment_id)


def test_stats_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    stats = FeatureStats.fit({"a": rng.normal(size=(30, 4)), "b": rng.normal(size=(20, 4))})
    path = tmp_path / "stats.npz"
    io.save_stats(path, stats)
    loaded = io.load_stats(path)
    assert loaded.speakers == stats.speakers
    np.testing.assert_array_equal(loaded.means, stats.means)
    np.testing.assert_array_equal(loaded.stds, stats.stds)
    np.testing.assert_array_equal(loaded.pooled_mean, stats.pooled_mean)
    np.testing.assert_array_equal(loaded.pooled_std, stats.pooled_std)


def _checkpoint():
    rng = np.random.default_rng(4)
    base = RunConfig()
    config = base.replace(
        t_frames=4,
        model=dataclasses.replace(
            base.model, d_e=4, d_z=2, enc_hidden=(8,), latent_hidden=(4,),
            rhythm_hidden=4, rhythm_layers=1,
        ),
    )
    pose, rhythm = build_branches(config)
    stats = FeatureStats.fit({"a": rng.normal(size=(30, config.mfcc.d_s))})
    return Checkpoint(
        params=nn.init_params({**pose.param_shapes(), **rhythm.param_shapes()}, rng),
        config=config,
        feature_stats=stats,
        rest_posture=rng.normal(size=config.d_m),
        seed=7,
        epoch=12,
        val_lvd=0.25,
        extra={"note": "hello"},
    )


def test_checkpoint_round_trip(tmp_path):
    ckpt = _checkpoint()
    path = tmp_path / "ck.npz"
    io.save_checkpoint(path, ckpt)
    loaded = io.load_checkpoint(path)
    assert set(loaded.params) == set(ckpt.params)
    for k in ckpt.params:
        np.testing.assert_array_equal(loaded.params[k], ckpt.params[k])
    assert loaded.config.to_dict() == ckpt.config.to_dict()
    assert loaded.seed == 7 and loaded.epoch == 12 and loaded.val_lvd == 0.25
    assert loaded.extra["note"] == "hello"
    np.testing.assert_array_equal(loaded.rest_posture, ckpt.rest_posture)
    assert loaded.feature_stats.speakers == ckpt.feature_stats.speakers


def test_checkpoint_missing_branch_is_data_error(tmp_path):
    ckpt = _checkpoint()
    path = tmp_path / "ck.npz"
    io.save_checkpoint(path, ckpt)
    data = dict(np.load(path, allow_pickle=False))
    stripped = {k: v for k, v in data.items() if not k.startswith("param.rhythm.")}
    np.savez(tmp_path / "broken.npz", **stripped)
    with pytest.raises(DataError):
        io.load_checkpoint(tmp_path / "broken.npz")


# the parameter names checkpoint/1 stores for _checkpoint()'s config; other readers
# of the files (the benchmark's reference forward among them) rely on them
CHECKPOINT_1_PARAMS = (
    *(f"param.pose.{net}.{kind}{layer}" for net in ("f_enc", "f_dec", "h_enc", "h_dec")
      for layer in (0, 1) for kind in "wb"),
    "param.rhythm.conv0.w", "param.rhythm.conv0.b", "param.rhythm.head.w", "param.rhythm.head.b",
)


def test_checkpoint_parameter_keys_unchanged(tmp_path):
    path = tmp_path / "ck.npz"
    io.save_checkpoint(path, _checkpoint())
    with np.load(path) as npz:
        assert {k for k in npz.files if k.startswith("param.")} == set(CHECKPOINT_1_PARAMS)


def test_checkpoint_1_file_generates_same_motion(tmp_path):
    ckpt = _checkpoint()
    path = tmp_path / "ck.npz"
    io.save_checkpoint(path, ckpt)
    with np.load(path) as npz:
        others = {k: npz[k] for k in npz.files if not k.startswith("param.")}
    # every parameter array written under its checkpoint/1 name, not by save_checkpoint
    arrays = {key: ckpt.params[key.removeprefix("param.")] for key in CHECKPOINT_1_PARAMS}
    np.savez(tmp_path / "old.npz", **others, **arrays)
    loaded = io.load_checkpoint(tmp_path / "old.npz")

    config = ckpt.config
    pose, rhythm = build_branches(config)
    rng = np.random.default_rng(8)
    initial = MotionClip(rng.normal(size=(config.t_frames, config.d_m)),
                         joint_spec=config.joint_spec)
    audio = [AudioClip(rng.normal(size=(config.t_frames, config.mfcc.d_s))) for _ in range(3)]
    schedule = mode_schedule(None, 3, "explicit", explicit=[0, 1, 1])
    expected = generate_sequence(initial, audio, schedule, pose, rhythm, ckpt.params, seeds=[1, 2])
    got = generate_sequence(initial, audio, schedule, pose, rhythm, loaded.params, seeds=[1, 2])
    for a, b in zip(expected, got):
        np.testing.assert_array_equal(a.motion, b.motion)


def test_json_round_trip(tmp_path):
    path = tmp_path / "r.json"
    io.save_json(path, {"a": 1, "b": [1, 2]})
    assert io.load_json(path) == {"a": 1, "b": [1, 2]}


# -- run config --------------------------------------------------------------------------


def test_config_defaults():
    config = RunConfig()
    assert config.t_frames == 64
    assert config.fps == 15.0
    assert config.d_m == 24
    assert config.mfcc.d_s == 26
    assert config.model.d_e == 128
    assert config.model.d_z == 64
    assert config.train.lr == 1e-4
    assert config.train.batch_size == 32
    assert (config.train.lambda_rec, config.train.lambda_vae) == (1.0, 0.01)
    assert (config.train.lambda_rhythm, config.train.lambda_reg) == (1.0, 1.0)
    assert config.mode_threshold == 0.25


def test_config_json_round_trip(tmp_path):
    config = RunConfig().replace(t_frames=32)
    path = tmp_path / "c.json"
    config.save(path)
    loaded = RunConfig.load(path)
    assert loaded.to_dict() == config.to_dict()
    assert loaded.config_hash() == config.config_hash()


def test_config_hash_changes_with_values():
    a = RunConfig()
    b = a.replace(t_frames=32)
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() == RunConfig().config_hash()


def test_config_rejects_unknown_keys():
    tree = RunConfig().to_dict()
    tree["train"]["warmup_steps"] = 10
    with pytest.raises(ValueError, match="warmup_steps.*train"):
        RunConfig.from_dict(tree)
    with pytest.raises(ValueError, match="bogus"):
        RunConfig.from_dict({"bogus": 1})


def test_config_rejects_bad_splits():
    from speechmotion.config import TrainSettings

    with pytest.raises(ValueError):
        TrainSettings(split_train=0.9, split_val=0.2, split_test=0.1)


def test_config_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValueError):
        RunConfig.load(path)
