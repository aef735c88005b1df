"""Toy corpus generator: determinism and ground-truth consistency."""

import dataclasses
import json

import numpy as np
import pytest

from speechmotion import RunConfig, io, toydata
from speechmotion.motion import chunk_sequence, label_mode_change, normalize_skeleton


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    config = RunConfig().replace(
        t_frames=16,
        toy=dataclasses.replace(
            RunConfig().toy, speakers=2, segments_per_speaker=3, clips_per_segment=5
        ),
    )
    root = tmp_path_factory.mktemp("toy")
    manifest = toydata.make_toy_dataset(root, config, seed=5)
    return root, config, manifest


def test_layout_and_counts(toy_dir):
    root, config, manifest = toy_dir
    n_segments = config.toy.speakers * config.toy.segments_per_speaker
    assert len(manifest["segments"]) == n_segments
    assert len(list((root / "landmarks").glob("*.npz"))) == n_segments
    assert len(list((root / "audio").glob("*.wav"))) == n_segments
    assert len(list((root / "transcripts").glob("*.txt"))) == n_segments
    assert json.loads((root / "toy_script.json").read_text()) == manifest


def test_same_seed_reproduces_files(toy_dir, tmp_path):
    root, config, manifest = toy_dir
    again = toydata.make_toy_dataset(tmp_path, config, seed=5)
    assert again == manifest
    for sub in ("landmarks", "audio", "transcripts"):
        for path in sorted((root / sub).iterdir()):
            assert (tmp_path / sub / path.name).read_bytes() == path.read_bytes()


def test_different_seed_differs(toy_dir, tmp_path):
    _, config, manifest = toy_dir
    other = toydata.make_toy_dataset(tmp_path, config, seed=6)
    assert other != manifest


def test_landmarks_are_pre_normalized(toy_dir):
    root, config, _ = toy_dir
    path = next(iter(sorted((root / "landmarks").glob("*.npz"))))
    frames, fps, spec, _ = io.load_landmarks(path)
    assert fps == config.fps
    assert frames.shape == (config.toy.clips_per_segment * config.t_frames, spec.d_m)
    normalized = normalize_skeleton(frames, spec)
    np.testing.assert_allclose(normalized, frames, atol=1e-9)


def test_mode_labels_match_script(toy_dir):
    root, config, manifest = toy_dir
    spec = config.joint_spec
    for entry in manifest["segments"]:
        frames, _, _, _ = io.load_landmarks(root / "landmarks" / f"{entry['segment_id']}.npz")
        clips = chunk_sequence(frames, config.t_frames, joint_spec=spec)
        labels = label_mode_change(clips[:-1], clips[1:], spec, config.mode_threshold)
        assert labels.tolist() == entry["mode_labels"], entry["segment_id"]


def test_script_blocks_are_consistent(toy_dir):
    _, config, manifest = toy_dir
    for entry in manifest["segments"]:
        assert sum(entry["block_lengths"]) == config.toy.clips_per_segment
        assert len(entry["block_postures"]) == len(entry["block_lengths"])
        assert len(entry["block_beats_hz"]) == len(entry["block_lengths"])
        for a, b in zip(entry["block_postures"], entry["block_postures"][1:]):
            assert a != b  # consecutive blocks always switch posture
        for beat in entry["block_beats_hz"]:
            assert beat in (1.25, 2.0, 3.0)


def test_keywords_sit_on_block_boundaries(toy_dir):
    root, config, manifest = toy_dir
    clip_s = config.t_frames / config.fps
    keywords = set(config.generate.keywords)
    for entry in manifest["segments"]:
        tr = io.load_transcript(root / "transcripts" / f"{entry['segment_id']}.txt")
        boundaries = np.cumsum(entry["block_lengths"][:-1]) * clip_s
        keyword_starts = sorted(t0 for word, t0, _ in tr.tokens if word in keywords)
        assert len(keyword_starts) == len(boundaries)
        for t0, boundary in zip(keyword_starts, sorted(boundaries)):
            assert abs(t0 - boundary) < 0.1


def test_audio_is_in_wav_range(toy_dir):
    root, _, manifest = toy_dir
    path = root / "audio" / f"{manifest['segments'][0]['segment_id']}.wav"
    wave, rate = io.load_waveform(path)
    assert rate == 16000
    assert np.abs(wave).max() <= 1.0


def test_base_posture_bounds():
    spec = RunConfig().joint_spec
    rows = [toydata.base_posture(i, spec) for i in range(3)]
    for a in range(3):
        for b in range(a + 1, 3):
            assert np.linalg.norm(rows[a] - rows[b]) > 0.5  # postures well separated
    with pytest.raises(ValueError):
        toydata.base_posture(3, spec)
