"""File containers: lossless round trips and format guards."""

import dataclasses
import json
import re
import struct

import numpy as np
import pytest
from scipy.io import wavfile

from speechmotion import (
    Checkpoint,
    DataError,
    FeatureStats,
    JointSpec,
    MfccSettings,
    NumericError,
    RunConfig,
    SampleSet,
    Transcript,
    generate_sequence,
    io,
    nn,
)
from speechmotion.config import TrainSettings, plain_hash
from speechmotion.model import param_shapes

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


def test_save_landmarks_refuses_non_finite_frames(tmp_path):
    frames = np.random.default_rng(0).normal(size=(10, 6))
    frames[4, 2] = np.inf
    path = tmp_path / "bad.npz"
    with pytest.raises(NumericError) as exc:
        io.save_landmarks(path, frames, 15.0, SPEC)
    assert str(path) in str(exc.value)
    assert not path.exists()


@pytest.mark.parametrize("shape", [(4, 5), (4,), (2, 4, 6)])
def test_save_landmarks_refuses_frames_that_do_not_fit_the_joint_spec(tmp_path, shape):
    path = tmp_path / "bad.npz"
    with pytest.raises(ValueError, match=re.escape(f"frames shape {shape} does not fit the joint spec")):
        io.save_landmarks(path, np.zeros(shape), 15.0, SPEC)
    assert not path.exists()


@pytest.mark.parametrize("fps", [np.nan, np.inf, 0.0, -15.0])
def test_save_landmarks_refuses_fps_not_finite_and_positive(tmp_path, fps):
    path = tmp_path / "bad.npz"
    with pytest.raises(ValueError, match=rf"bad\.npz: refusing to write fps {fps}"):
        io.save_landmarks(path, np.zeros((4, 6)), fps, SPEC)
    assert not path.exists()


@pytest.mark.parametrize("fps", [np.nan, np.inf, 0.0, -15.0])
def test_landmarks_with_fps_not_finite_and_positive_names_file(tmp_path, fps):
    # save_landmarks refuses such an fps, so write the landmarks/1 keys directly
    path = tmp_path / "seg.npz"
    io.save_landmarks(path, np.zeros((4, 6)), 15.0, SPEC)
    with np.load(path) as npz:
        arrays = dict(npz)
    np.savez(path, **{**arrays, "fps": np.float64(fps)})
    with pytest.raises(DataError, match=rf"seg\.npz: fps must be finite and positive, got {fps}"):
        io.load_landmarks(path)


def test_landmarks_reject_foreign_file(tmp_path):
    path = tmp_path / "other.npz"
    np.savez(path, stuff=np.zeros(3))
    with pytest.raises(DataError):
        io.load_landmarks(path)


def test_waveform_npz_round_trip(tmp_path):
    wave = np.random.default_rng(2).normal(size=4000)
    path = tmp_path / "w.npz"
    np.savez(path, format="waveform/1", samples=wave, sample_rate=np.int64(16000), meta="{}")
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


def _wav_bytes(rate: int) -> bytes:
    """A mono 16-bit PCM WAV file of eight silent samples at any sample rate,
    0 included, which scipy's writer would refuse."""
    fmt = struct.pack("<HHIIHH", 1, 1, rate, 2 * rate, 2, 16)
    body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", 16) + bytes(16)
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize("write, problem", [
    (lambda path: path.write_bytes(b"RIFF....not a wave file"), "unreadable WAV"),
    (lambda path: wavfile.write(path, 16000, np.zeros((100, 2), dtype=np.int16)),
     "expected mono audio, got shape (100, 2)"),
    (lambda path: wavfile.write(path, 16000, np.zeros(100, dtype=np.float32)), "expected 16-bit PCM, got float32"),
    (lambda path: path.write_bytes(_wav_bytes(0)), "sample rate must be positive, got 0"),
    (lambda path: None, "no such file"),
])
def test_bad_wav_names_file(tmp_path, write, problem):
    path = tmp_path / "a.wav"
    write(path)
    with pytest.raises(DataError) as info:
        io.load_waveform(path)
    assert str(info.value).startswith(f"{path}: {problem}")


@pytest.mark.parametrize("text, problem", [
    (None, ": no such file"),
    ("so 1.0\n", ":1: expected 'word start end', got 'so 1.0'"),
    ("so 1.0 late\n", ":1: bad timestamps in 'so 1.0 late'"),
    ("so 2.0 1.0\n", ": bad token timing for 'so': [2.0, 1.0]"),
])
def test_bad_transcript_names_file(tmp_path, text, problem):
    path = tmp_path / "t.txt"
    if text is not None:
        path.write_text(text)
    with pytest.raises(DataError) as info:
        io.load_transcript(path)
    assert str(info.value).startswith(f"{path}{problem}")


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


# the skeleton, clip length and audio width of the split files below
SPLIT_CONFIG = RunConfig().replace(
    t_frames=4, joint_names=SPEC.names, hand_joints=("right_palm",),
    mfcc=MfccSettings(n_mfcc=3, deltas=False),
)


def _samples(n=5):
    rng = np.random.default_rng(0)
    return SampleSet(
        m_prev=rng.normal(size=(n, 4, 6)),
        m_cur=rng.normal(size=(n, 4, 6)),
        audio=rng.normal(size=(n, 4, 3)),
        c=[i % 2 for i in range(n)],
        speaker=[f"spk{i % 2}" for i in range(n)],
        segment=[f"seg{i}" for i in range(n)],
    )


@pytest.mark.parametrize("spec, message", [
    (JointSpec(names=("nose", "neck", "left_palm"), hand_indices=(2,)),
     "joint names do not match the configured skeleton"),
    (JointSpec(names=SPEC.names, hand_indices=(0,)), "hand joints ['nose'] do not match configured ['right_palm']"),
])
def test_landmarks_of_another_skeleton_name_file(tmp_path, spec, message):
    path = tmp_path / "seg.npz"
    io.save_landmarks(path, np.random.default_rng(0).normal(size=(8, 6)), 15.0, spec)
    with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
        io.load_normalized_landmarks(path, SPLIT_CONFIG)


def test_save_split_refuses_an_empty_set(tmp_path):
    path = tmp_path / "train.npz"
    with pytest.raises(ValueError, match="refusing to write an empty split"):
        io.save_split(path, _samples()[:0], SPLIT_CONFIG)
    assert not path.exists()


def test_split_round_trip(tmp_path):
    samples = _samples()
    path = tmp_path / "train.npz"
    io.save_split(path, samples, SPLIT_CONFIG, {"note": "test"})
    loaded = io.load_split(path, SPLIT_CONFIG)
    assert len(loaded) == 5
    for name in ("m_prev", "m_cur", "audio", "c", "speaker", "segment"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(samples, name))


def _rewrite_split(tmp_path, **changes):
    """A split/1 file with some of its arrays replaced."""
    good = tmp_path / "good.npz"
    io.save_split(good, _samples(), SPLIT_CONFIG)
    with np.load(good) as npz:
        arrays = {key: npz[key] for key in npz.files}
    arrays.update(changes)
    path = tmp_path / "bad.npz"
    np.savez(path, **arrays)
    return path


def test_split_with_non_finite_values_names_file(tmp_path):
    m_cur = _samples().m_cur.copy()
    m_cur[2, 1, 3] = np.nan
    path = _rewrite_split(tmp_path, m_cur=m_cur)
    with pytest.raises(DataError, match=r"bad\.npz: m_cur contains non-finite values"):
        io.load_split(path, SPLIT_CONFIG)


def test_split_with_an_object_array_names_file_and_field(tmp_path):
    path = _rewrite_split(tmp_path, speaker=np.array(["spk0", 1], dtype=object))
    with pytest.raises(DataError, match=r"bad\.npz: field 'speaker' is not a plain array"):
        io.load_split(path, SPLIT_CONFIG)


def test_split_with_label_other_than_0_or_1_names_file(tmp_path):
    path = _rewrite_split(tmp_path, c=np.array([0, 1, 2, 0, 1]))
    with pytest.raises(DataError, match=r"bad\.npz: mode label must be 0 or 1, got 2"):
        io.load_split(path, SPLIT_CONFIG)


def test_split_with_disagreeing_rows_names_file(tmp_path):
    path = _rewrite_split(tmp_path, c=np.array([0, 1, 0, 1]))
    with pytest.raises(DataError, match=r"bad\.npz: m_prev has shape \(5, 4, 6\), expected 3-D with 4 rows"):
        io.load_split(path, SPLIT_CONFIG)


def test_split_with_disagreeing_frames_names_file(tmp_path):
    path = _rewrite_split(tmp_path, s_cur=np.zeros((5, 3, 3)))
    with pytest.raises(DataError, match=r"bad\.npz: clip shapes disagree: .* audio \(5, 3, 3\)"):
        io.load_split(path, SPLIT_CONFIG)


@pytest.mark.parametrize(
    "changes, what",
    [
        ({"t_frames": 8}, "clip frames 4"),
        ({"joint_names": ("nose", "neck", "left_palm"), "hand_joints": ("left_palm",)}, "joint names"),
        ({"mfcc": MfccSettings(n_mfcc=3)}, "audio width 3"),
        ({"fps": 30.0}, "fps 15.0"),
        ({"mfcc": MfccSettings(sample_rate=8000, n_mfcc=3, deltas=False)}, "audio sample rate 16000"),
    ],
)
def test_split_that_does_not_fit_the_config_names_file(tmp_path, changes, what):
    path = tmp_path / "train.npz"
    io.save_split(path, _samples(), SPLIT_CONFIG)
    with pytest.raises(DataError, match=rf"train\.npz: split has {what}"):
        io.load_split(path, SPLIT_CONFIG.replace(**changes))


def test_split_of_other_hand_joints_names_file(tmp_path):
    # written with the default skeleton's hands (joints 8-11), read under a config whose hand is the nose
    config = SPLIT_CONFIG.replace(joint_names=RunConfig().joint_names, hand_joints=RunConfig().hand_joints)
    rng = np.random.default_rng(0)
    samples = dataclasses.replace(
        _samples(), m_prev=rng.normal(size=(5, 4, 24)), m_cur=rng.normal(size=(5, 4, 24))
    )
    path = tmp_path / "train.npz"
    io.save_split(path, samples, config)
    with pytest.raises(
        DataError,
        match=r"train\.npz: split has hand joints \('right_palm', 'right_fingertip', 'left_palm',"
        r" 'left_fingertip'\), the config needs \('nose',\)",
    ):
        io.load_split(path, config.replace(hand_joints=("nose",)))


def test_preprocess_split_round_trips_byte_identically(tmp_path):
    from speechmotion.cli import main

    config = RunConfig().replace(
        t_frames=16,
        toy=dataclasses.replace(RunConfig().toy, speakers=2, segments_per_speaker=3, clips_per_segment=4),
    )
    config.save(tmp_path / "config.json")
    common = ["--config", str(tmp_path / "config.json")]
    assert main(["make-toy", *common, "--out", str(tmp_path / "toy"), "--seed", "5"]) == 0
    assert main(["preprocess", *common, "--landmarks", str(tmp_path / "toy" / "landmarks"),
                 "--audio", str(tmp_path / "toy" / "audio"), "--out", str(tmp_path / "data")]) == 0
    with np.load(tmp_path / "data" / "train.npz") as npz:
        meta = json.loads(str(npz["meta"]))
    for path in sorted((tmp_path / "data").glob("*.npz")):
        if path.name == "stats.npz":
            continue
        again = tmp_path / f"again_{path.name}"
        io.save_split(again, io.load_split(path, config), config, meta)
        assert again.read_bytes() == path.read_bytes(), path.name


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
    stats = FeatureStats.fit({"a": rng.normal(size=(30, config.mfcc.d_s))})
    return Checkpoint(
        params=nn.init_params(param_shapes(config), rng),
        config=config,
        feature_stats=stats,
        rest_posture=rng.normal(size=config.d_m),
        seed=7,
        epoch=12,
        val_lvd=0.25,
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


# the parameter names checkpoint/1 stores for _checkpoint()'s config, in layout
# order; other readers of the files (the benchmark's reference forward among
# them) rely on the names, and init_params draws in the order
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
    assert [f"param.{key}" for key in param_shapes(_checkpoint().config)] == list(CHECKPOINT_1_PARAMS)


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
    rng = np.random.default_rng(8)
    initial = rng.normal(size=(config.t_frames, config.d_m))
    audio = np.stack([rng.normal(size=(config.t_frames, config.mfcc.d_s)) for _ in range(3)])
    schedule = [0, 1, 1]
    expected = generate_sequence(initial, audio, schedule, config, ckpt.params, seeds=[1, 2])
    got = generate_sequence(initial, audio, schedule, config, loaded.params, seeds=[1, 2])
    for a, b in zip(expected, got):
        np.testing.assert_array_equal(a.motion, b.motion)


def test_checkpoint_with_int_typed_config_loads(tmp_path):
    # written before numbers were coerced: `fps` stored, and hashed, as the int 15
    path = tmp_path / "ck.npz"
    io.save_checkpoint(path, _checkpoint())
    arrays = dict(np.load(path, allow_pickle=False))
    tree = json.loads(str(arrays["config"]))
    tree["fps"] = 15
    meta = json.loads(str(arrays["meta"]))
    meta["config_hash"] = plain_hash(tree)
    arrays["config"], arrays["meta"] = json.dumps(tree, sort_keys=True), json.dumps(meta)
    np.savez(path, **arrays)
    loaded = io.load_checkpoint(path)
    assert type(loaded.config.fps) is float
    assert loaded.config.config_hash() == _checkpoint().config.config_hash()


def _write(kind, path):
    """A valid file of each container kind, and the loader that reads it."""
    if kind == "landmarks":
        io.save_landmarks(path, np.zeros((4, 6)), 15.0, SPEC)
        return io.load_landmarks
    if kind == "waveform":
        np.savez(path, format="waveform/1", samples=np.zeros(400), sample_rate=np.int64(16000))
        return io.load_waveform
    if kind == "split":
        io.save_split(path, _samples(), SPLIT_CONFIG)
        return lambda p: io.load_split(p, SPLIT_CONFIG)
    if kind == "stats":
        io.save_stats(path, FeatureStats.fit({"a": np.random.default_rng(0).normal(size=(9, 3))}))
        return io.load_stats
    io.save_checkpoint(path, _checkpoint())
    return io.load_checkpoint


STATS_FIELDS = ("stats.speakers", "stats.means", "stats.stds", "stats.pooled_mean", "stats.pooled_std")
READ_FIELDS = {
    "landmarks": ("frames", "fps", "joint_names", "hand_indices", "meta"),
    "waveform": ("samples", "sample_rate"),
    "split": ("m_prev", "m_cur", "s_cur", "c", "speaker", "segment", "joint_names",
              "hand_indices", "fps", "sample_rate"),
    "stats": STATS_FIELDS,
    "checkpoint": ("config", "meta", "rest_posture", *STATS_FIELDS),
}


@pytest.mark.parametrize(
    "kind, field", [(kind, field) for kind, fields in READ_FIELDS.items() for field in fields]
)
def test_container_without_a_field_names_file_and_field(tmp_path, kind, field):
    good = tmp_path / "good.npz"
    load = _write(kind, good)
    arrays = dict(np.load(good, allow_pickle=False))
    del arrays[field]
    path = tmp_path / "bad.npz"
    np.savez(path, **arrays)
    with pytest.raises(DataError, match=f"{path}: container has no field '{field}'"):
        load(path)


# a field holding what does not convert, per container kind
BAD_SCALARS = [("landmarks", "fps", "fast"), ("landmarks", "hand_indices", ["x"]),
               ("landmarks", "hand_indices", [70]), ("landmarks", "joint_names", ["nose"] * 3),
               ("waveform", "sample_rate", "x"),
               ("split", "hand_indices", ["x"]), ("split", "hand_indices", [70]),
               ("split", "fps", "fast"), ("split", "sample_rate", "x")]


@pytest.mark.parametrize("kind, field, value", BAD_SCALARS)
def test_container_with_a_mistyped_field_names_file_and_field(tmp_path, kind, field, value):
    good = tmp_path / "good.npz"
    load = _write(kind, good)
    arrays = dict(np.load(good, allow_pickle=False))
    arrays[field] = value
    path = tmp_path / "bad.npz"
    np.savez(path, **arrays)
    with pytest.raises(DataError, match=f"{path}: field '{field}' holds"):
        load(path)


META_PROBLEMS = {"{not json": "is not valid JSON", "[1, 2]": "is not a JSON object"}


@pytest.mark.parametrize("kind", ["landmarks", "checkpoint", "waveform"])
@pytest.mark.parametrize("meta", list(META_PROBLEMS))
def test_meta_that_is_not_a_json_object_names_file(tmp_path, kind, meta):
    good = tmp_path / "good.npz"
    load = _write(kind, good)
    arrays = dict(np.load(good, allow_pickle=False))
    arrays["meta"] = meta
    path = tmp_path / "bad.npz"
    np.savez(path, **arrays)
    with pytest.raises(DataError, match=f"{path}: field 'meta' {META_PROBLEMS[meta]}"):
        load(path)


def _write_npy(path):
    with open(path, "wb") as fh:  # np.save on a path would append .npy
        np.save(fh, np.zeros(3))


@pytest.mark.parametrize("write, problem", [
    (lambda path: path.write_bytes(b"not a zip archive"), "not a readable npz container"),
    (_write_npy, "not an npz container"),
    (lambda path: None, "no such file"),
])
def test_file_that_is_no_npz_container_names_file(tmp_path, write, problem):
    path = tmp_path / "stats.npz"
    write(path)
    with pytest.raises(DataError, match=f"{path}: {problem}"):
        io.load_stats(path)


def _checkpoint_with_meta(tmp_path, edit):
    path = tmp_path / "ck.npz"
    io.save_checkpoint(path, _checkpoint())
    arrays = dict(np.load(path, allow_pickle=False))
    meta = json.loads(str(arrays["meta"]))
    edit(meta)
    arrays["meta"] = json.dumps(meta)
    np.savez(path, **arrays)
    return path


@pytest.mark.parametrize("key", ["seed", "epoch", "val_lvd", "config_hash"])
def test_checkpoint_meta_without_a_field_names_file_and_field(tmp_path, key):
    path = _checkpoint_with_meta(tmp_path, lambda meta: meta.pop(key))
    with pytest.raises(DataError, match=f"{path}: container has no field 'meta.{key}'"):
        io.load_checkpoint(path)


@pytest.mark.parametrize("key, value", [("seed", "x"), ("epoch", None), ("val_lvd", "low")])
def test_checkpoint_meta_with_a_mistyped_field_names_file_and_field(tmp_path, key, value):
    path = _checkpoint_with_meta(tmp_path, lambda meta: meta.update({key: value}))
    with pytest.raises(DataError, match=f"{path}: field 'meta.{key}' holds"):
        io.load_checkpoint(path)


def test_checkpoint_meta_ignores_unknown_keys(tmp_path):
    path = _checkpoint_with_meta(tmp_path, lambda meta: meta.update(note="hello"))
    assert io.load_checkpoint(path).seed == 7


def test_json_round_trip(tmp_path):
    path = tmp_path / "r.json"
    io.save_json(path, {"a": 1, "b": [1, 2]})
    assert json.loads(path.read_text()) == {"a": 1, "b": [1, 2]}


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


def test_config_numbers_take_the_type_of_their_field():
    as_int, as_float = RunConfig.from_dict({"fps": 15}), RunConfig.from_dict({"fps": 15.0})
    assert type(as_int.fps) is float
    assert as_int.config_hash() == as_float.config_hash() == RunConfig().config_hash()
    assert RunConfig.from_dict({"train": {"lambda_rhythm": 0}}).train.lambda_rhythm == 0.0
    with pytest.raises(ValueError, match="config key mode_threshold must be a number, got true"):
        RunConfig.from_dict({"mode_threshold": True})
    assert type(RunConfig.from_dict({"t_frames": 16}).t_frames) is int


@pytest.mark.parametrize("section, key", [("model", "d_z"), ("model", "d_e"),
                                          ("model", "rhythm_layers"), ("mfcc", "n_mfcc")])
def test_config_rejects_non_positive_sizes(section, key):
    tree = RunConfig().to_dict()
    tree[section][key] = 0
    with pytest.raises(ValueError):
        RunConfig.from_dict(tree)


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
        TrainSettings(split_train=0.9, split_val=0.2)


def test_config_set_in_python_hashes_like_the_cli():
    assert RunConfig().replace(fps=30).config_hash() == RunConfig().replace(fps=30.0).config_hash()
    assert RunConfig().replace(fps=30).config_hash() == RunConfig.from_dict({"fps": 30}).config_hash()
    as_int = RunConfig(train=TrainSettings(lr=1))
    assert type(as_int.to_dict()["train"]["lr"]) is float
    assert as_int.config_hash() == RunConfig(train=TrainSettings(lr=1.0)).config_hash()


# the fifteen settings the default config held before they were retired
RETIRED_DEFAULTS = {
    "model": {"activation": "tanh"},
    "train": {"kl_anneal": True, "split_test": 0.1},
    "generate": {"condition_on_composed": False, "recenter_offsets": False, "interval": 4},
    "evaluate": {"diversity_audios": 4, "quality_hidden": 8, "quality_layers": 2,
                 "quality_lr": 0.01, "quality_train_frac": 0.7},
    "toy": {"n_postures": 3, "rhythm_amp": 0.08, "wander_amp": 0.01,
            "beat_choices": [1.25, 2.0, 3.0]},
}


def test_config_with_retired_keys_at_their_one_value_loads():
    tree = RunConfig().to_dict()
    for section, keys in RETIRED_DEFAULTS.items():
        tree[section].update(keys)
    assert plain_hash(tree) == "ce1a7f48eccb236f"  # the default config's hash as it was
    assert RunConfig.from_dict(tree) == RunConfig()
    tree["train"].update(split_train=0.7, split_val=0.0, split_test=0.3)
    assert RunConfig.from_dict(tree).train.split_train == 0.7


def test_config_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValueError, match=re.escape(f"{path}: config section <root> must be an object")):
        RunConfig.load(path)


def test_config_load_errors_name_the_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match=f"{path}: Expecting property name"):
        RunConfig.load(path)
    path.write_text('{"train": {"epochs": 0}}')
    with pytest.raises(ValueError, match=f"{path}: train.epochs must be at least 1, got 0"):
        RunConfig.load(path)


# a setting out of its range or of the wrong shape, and the start of the message that names it
BAD_TREES = [
    ({"model": 5}, "config section model must be an object"),
    ({"model": {"enc_hidden": 5}}, "config key model.enc_hidden must be a list"),
    ({"t_frames": 1}, "t_frames must be at least 2"),
    ({"fps": 0}, "fps must be positive"),
    ({"fps": -15}, "fps must be positive, got -15.0"),
    ({"mode_threshold": 0}, "mode_threshold must be positive, got 0.0"),
    ({"hand_joints": ["thumb"]}, "hand joints ['thumb'] not in joint names"),
    ({"joint_names": ["a", "b"], "hand_joints": ["a"]},
     "config key joint_names: joint 'neck' not in joint names"),
    ({"joint_names": ["neck", "nose", "neck"], "hand_joints": []},
     "config key joint_names: joint names must be unique"),
    ({"model": {"rhythm_kernel": 4}}, "model.rhythm_kernel must be odd for same padding, got 4"),
    ({"train": {"epochs": 0}}, "train.epochs must be at least 1, got 0"),
    ({"train": {"batch_size": 0}}, "train.batch_size must be at least 1, got 0"),
    ({"evaluate": {"diversity_samples": 1}}, "evaluate.diversity_samples must be at least 2, got 1"),
    ({"evaluate": {"quality_epochs": 0}}, "evaluate.quality_epochs must be at least 1, got 0"),
    ({"toy": {"speakers": 0}}, "toy.speakers must be at least 1, got 0"),
    ({"toy": {"segments_per_speaker": 0}}, "toy.segments_per_speaker must be at least 1, got 0"),
    ({"toy": {"clips_per_segment": 0}}, "toy.clips_per_segment must be at least 1, got 0"),
]


@pytest.mark.parametrize("tree, message", BAD_TREES)
def test_config_rejects_bad_settings_naming_them(tree, message):
    with pytest.raises(ValueError) as info:
        RunConfig.from_dict(tree)
    assert str(info.value).startswith(message)
