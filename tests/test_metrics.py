"""Evaluation metrics: velocity difference, diversity, baselines, quality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from speechmotion import (
    DataError,
    RunConfig,
    baseline_last_step,
    baseline_mean_velocity,
    diversity,
    io,
    label_mode_change,
    lvd,
    make_toy_dataset,
    normalize_skeleton,
    quality_score,
)
from speechmotion.metrics import MetricReport, SpeakerMetrics
from speechmotion.motion import chunk_sequence


def _col(values):
    return np.asarray(values, dtype=float)[:, None]


# -- lvd ----------------------------------------------------------------------------------


def test_lvd_identity_is_zero():
    seq = np.random.default_rng(0).normal(size=(10, 4))
    assert lvd(seq, seq) == 0.0


def test_lvd_worked_example():
    assert abs(lvd(_col([0, 1, 3]), _col([0, 2, 3])) - 1.0) < 1e-12


def test_lvd_symmetry():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    assert abs(lvd(a, b) - lvd(b, a)) < 1e-15


@given(scale=st.floats(-5.0, 5.0), seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_lvd_absolute_homogeneity(scale, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
    assert abs(lvd(scale * a, scale * b) - abs(scale) * lvd(a, b)) < 1e-9


def test_lvd_errors():
    with pytest.raises(ValueError):
        lvd(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        lvd(np.zeros((1, 2)), np.zeros((1, 2)))


# -- diversity ------------------------------------------------------------------------------


def test_diversity_identical_sequences_is_zero():
    seq = np.random.default_rng(2).normal(size=(4, 3))
    assert diversity([seq, seq.copy(), seq.copy()]) == 0.0


def test_diversity_worked_example():
    a = np.array([[0.0]])
    b = np.array([[2.0]])
    assert abs(diversity([a, b]) - 2.0) < 1e-12


def test_diversity_permutation_invariant():
    rng = np.random.default_rng(3)
    seqs = [rng.normal(size=(5, 2)) for _ in range(4)]
    base = diversity(seqs)
    assert abs(diversity(seqs[::-1]) - base) < 1e-12
    assert abs(diversity([seqs[2], seqs[0], seqs[3], seqs[1]]) - base) < 1e-12


def test_diversity_hand_check_three_sequences():
    seqs = [np.full((2, 1), v) for v in (0.0, 1.0, 3.0)]
    # pairwise mean |diff|: |0-1|=1, |0-3|=3, |1-3|=2 -> mean 2
    assert abs(diversity(seqs) - 2.0) < 1e-12


@pytest.mark.parametrize(
    "shape, seed, expected_hex",
    [
        ((64, 64, 24), 1, "0x1.1fbd2f45eca98p+0"),
        ((8, 6912, 24), 2, "0x1.20ce09179a37ap+0"),
        ((2, 5, 3), 3, "0x1.6e0feeb32f9dfp+0"),
        ((3, 1, 1), 4, "0x1.8b2e667b41ba8p+0"),
    ],
)
def test_diversity_is_pinned(shape, seed, expected_hex):
    # values recorded from the loop that built a fresh difference array per i
    seqs = list(np.random.default_rng(seed).normal(size=shape))
    assert diversity(seqs).hex() == expected_hex


def test_diversity_errors():
    with pytest.raises(ValueError):
        diversity([np.zeros((2, 2))])
    with pytest.raises(ValueError):
        diversity([np.zeros((2, 2)), np.zeros((3, 2))])


# -- baselines -------------------------------------------------------------------------------


def test_last_step_constant_clip_stays_constant():
    clip = np.tile([1.0, 2.0, 0.5, 0.0], (4, 1))
    out = baseline_last_step(clip, 3)
    np.testing.assert_allclose(out, np.tile([1.0, 2.0, 0.5, 0.0], (3, 1)))


def test_last_step_advances_by_final_velocity():
    frames = np.zeros((3, 4))
    frames[1, 0] = 0.5
    frames[2, 0] = 1.5  # final velocity (1.0, 0, 0, 0)
    out = baseline_last_step(frames, 2)
    np.testing.assert_allclose(out[:, 0], [2.5, 3.5])
    np.testing.assert_allclose(out[:, 1:], 0.0)


def test_last_step_zero_horizon_is_empty():
    assert baseline_last_step(np.zeros((3, 4)), 0).shape == (0, 4)


def test_mean_velocity_constant_velocity_is_exact():
    t = np.arange(6.0)[:, None]
    gt = np.concatenate([2.0 * t, -1.0 * t], axis=1)
    pred = baseline_mean_velocity(gt)
    np.testing.assert_allclose(pred, gt, atol=1e-12)
    assert lvd(pred, gt) < 1e-12


def test_mean_velocity_worked_example():
    pred = baseline_mean_velocity(_col([0, 1, 3]))
    np.testing.assert_allclose(pred[:, 0], [0.0, 1.5, 3.0])


def test_mean_velocity_oscillation_collapses_to_constant():
    gt = _col([0.0, 1.0, 0.0, 1.0, 0.0])  # net displacement zero
    pred = baseline_mean_velocity(gt)
    np.testing.assert_allclose(pred, 0.0, atol=1e-12)


def test_baseline_errors():
    with pytest.raises(ValueError):
        baseline_mean_velocity(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        baseline_last_step(np.zeros((2, 4)), -1)


# -- quality ----------------------------------------------------------------------------------


def _rhythmic_set(rng, n, t=12, d=4, freq=1.0):
    phase = rng.uniform(0, 2 * np.pi, size=n)
    out = []
    for p in phase:
        base = np.sin(freq * np.arange(t) + p)[:, None] * np.ones(d)
        out.append(base + 0.05 * rng.normal(size=(t, d)))
    return out


def test_quality_self_test_near_half():
    # halves of one pool are indistinguishable; score sits at chance
    rng = np.random.default_rng(4)
    pool = _rhythmic_set(rng, 48)
    score = quality_score(pool[:24], pool[24:], seed=0, epochs=150)
    assert 0.4 <= score <= 0.6


def test_quality_separable_case_near_zero():
    rng = np.random.default_rng(5)
    real = _rhythmic_set(rng, 16)
    fake = [seq + 100.0 for seq in _rhythmic_set(rng, 16)]
    score = quality_score(real, fake, seed=0, epochs=150)
    assert score < 0.1


def test_quality_deterministic():
    rng = np.random.default_rng(6)
    pool = _rhythmic_set(rng, 16)
    a = quality_score(pool[:8], pool[8:], seed=3, epochs=60)
    b = quality_score(pool[:8], pool[8:], seed=3, epochs=60)
    assert abs(a - b) < 1e-6
    assert 0.0 <= a <= 1.0


@pytest.mark.parametrize(
    "weight_decay, expected_hex",
    [(None, "0x1.13396c7070633p-5"), (0.0, "0x1.14b50a75a135dp-10")],
)
def test_quality_score_is_pinned(weight_decay, expected_hex):
    # 8 + 8 clips of 64 x 24: the evaluate classifier's shapes; values recorded
    # from the tape that carried the weight-decay penalty as graph nodes
    rng = np.random.default_rng(8)
    real = _rhythmic_set(rng, 8, t=64, d=24)
    fake = _rhythmic_set(rng, 8, t=64, d=24, freq=1.1)
    kwargs = {} if weight_decay is None else {"weight_decay": weight_decay}
    assert quality_score(real, fake, seed=5, **kwargs).hex() == expected_hex


def test_quality_too_small_sets():
    seqs = [np.zeros((4, 2))] * 3
    with pytest.raises(DataError):
        quality_score(seqs, seqs)


@pytest.mark.parametrize("t, d", [(10, 4), (12, 3)])
def test_quality_rejects_sets_of_different_shape(t, d):
    rng = np.random.default_rng(7)
    real = _rhythmic_set(rng, 8, t=12)
    fake = [s[:t, :d] for s in _rhythmic_set(rng, 8, t=12)]
    with pytest.raises(ValueError, match="differ in shape"):
        quality_score(real, fake, seed=0, epochs=30)


# -- stacked forms against the per-row references ----------------------------------------


@pytest.fixture(scope="module")
def toy_sequences(tmp_path_factory):
    """Every normalized landmark sequence of the default toy corpus (seed 0)."""
    root = tmp_path_factory.mktemp("toy")
    config = RunConfig()
    manifest = make_toy_dataset(root, config, seed=0)
    sequences = []
    for entry in manifest["segments"]:
        frames, _, spec, _ = io.load_landmarks(root / "landmarks" / f"{entry['segment_id']}.npz")
        sequences.append(normalize_skeleton(frames, spec))
    return config, sequences


@pytest.mark.parametrize("t_frames", [16, 30, 64])
def test_stacked_forms_match_per_row_oracles(toy_sequences, t_frames):
    config, sequences = toy_sequences
    spec = config.joint_spec
    prevs, curs = [], []
    for frames in sequences:
        clips = chunk_sequence(frames, t_frames, joint_spec=spec)
        assert np.array_equal(clips, oracles.chunk_clips(frames, t_frames))
        labels = label_mode_change(clips[:-1], clips[1:], spec, config.mode_threshold)
        assert labels.dtype == np.int64
        expected = [
            oracles.pair_label(p, c, spec, config.mode_threshold) for p, c in zip(clips, clips[1:])
        ]
        assert np.array_equal(labels, expected)
        prevs.append(clips[:-1])
        curs.append(clips[1:])
    prev, cur = np.concatenate(prevs), np.concatenate(curs)

    last = baseline_last_step(prev, t_frames)
    assert np.array_equal(last, np.stack([oracles.last_step(p, t_frames) for p in prev]))
    mean_v = baseline_mean_velocity(cur)
    assert np.array_equal(mean_v, np.stack([oracles.mean_velocity(c) for c in cur]))
    for generated in (prev, last, mean_v):
        assert lvd(generated, cur) == oracles.mean_lvd(generated, cur)
    assert lvd(prev[0], cur[0]) == oracles.clip_lvd(prev[0], cur[0])


# -- report containers -------------------------------------------------------------------------


def _row(speaker, n, q=0.5):
    return SpeakerMetrics(
        speaker_id=speaker,
        n_samples=n,
        lvd_model=1.0,
        lvd_last_step=2.0,
        lvd_mean_velocity=3.0,
        diversity=0.1,
        quality=q,
    )


def test_report_overall_weights_by_samples():
    report = MetricReport(rows=(_row("a", 1), _row("b", 3)), meta={})
    overall = report.overall()
    assert overall["n_samples"] == 4
    assert abs(overall["lvd_model"] - 1.0) < 1e-12
    assert abs(overall["quality"] - 0.5) < 1e-12


def test_report_overall_skips_nan_quality():
    report = MetricReport(rows=(_row("a", 2, q=float("nan")), _row("b", 2, q=0.25)), meta={})
    assert abs(report.overall()["quality"] - 0.25) < 1e-12


def test_report_to_dict_structure():
    report = MetricReport(rows=(_row("a", 2),), meta={"seed": 0})
    d = report.to_dict()
    assert d["format"] == "report/1"
    assert d["meta"]["seed"] == 0
    assert d["per_speaker"][0]["speaker_id"] == "a"
    assert "overall" in d
