"""Clip frames, skeleton normalization and the posture/offset decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechmotion import (
    DEFAULT_JOINTS,
    DataError,
    JointSpec,
    chunk_sequence,
    compose,
    decompose,
    label_mode_change,
    normalize_skeleton,
    swap_dynamics,
    temporal_mean,
)

ONE_JOINT = JointSpec(names=("nose", "neck"), hand_indices=(0,), scale_pair=("neck", "nose"))


# -- worked examples, frozen -----------------------------------------------------


def test_decompose_two_frame_example():
    posture, offsets = decompose([[1.0, 1.0, 0.0, 0.0], [3.0, 3.0, 0.0, 0.0]])
    np.testing.assert_array_equal(posture, [2.0, 2.0, 0.0, 0.0])
    np.testing.assert_array_equal(offsets, [[-1.0, -1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]])


def test_compose_two_frame_example():
    clip = compose([2.0, 2.0, 0.0, 0.0], [[-1.0, -1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(clip, [[1.0, 1.0, 0.0, 0.0], [3.0, 3.0, 0.0, 0.0]])


def test_temporal_mean_examples():
    np.testing.assert_array_equal(temporal_mean([[5.0, -1.0, 2.0, 2.0]] * 3), [5.0, -1.0, 2.0, 2.0])

    clip = np.array([[1.0, 1.0, 0.0, 0.0], [3.0, 3.0, 0.0, 0.0]])
    np.testing.assert_array_equal(temporal_mean(clip), [2.0, 2.0, 0.0, 0.0])
    np.testing.assert_array_equal(temporal_mean(clip), temporal_mean(clip[::-1]))


def test_constant_clip_has_zero_offsets():
    _, offsets = decompose([[1.0, 2.0, 3.0, 4.0]] * 5)
    np.testing.assert_array_equal(offsets, np.zeros((5, 4)))


# -- chunking ---------------------------------------------------------------------


def test_chunk_128_frames_into_two_clips():
    seq = np.arange(128 * 24, dtype=float).reshape(128, 24)
    clips = chunk_sequence(seq, 64)
    assert clips.shape == (2, 64, 24)
    np.testing.assert_array_equal(clips[0], seq[:64])
    np.testing.assert_array_equal(clips[1], seq[64:])


def test_chunk_exact_fit_is_identity():
    seq = np.random.default_rng(0).normal(size=(64, 24))
    (clip,) = chunk_sequence(seq, 64)
    np.testing.assert_array_equal(clip, seq)


def test_chunk_drops_remainder():
    seq = np.random.default_rng(1).normal(size=(100, 24))
    clips = chunk_sequence(seq, 64)
    assert len(clips) == 1
    np.testing.assert_array_equal(clips[0], seq[:64])


def test_chunk_too_short_is_data_error():
    with pytest.raises(DataError):
        chunk_sequence(np.zeros((63, 24)), 64)


@given(n=st.integers(2, 300), t=st.integers(2, 64))
@settings(max_examples=60, deadline=None)
def test_chunk_count_is_floor(n, t):
    if n < t:
        with pytest.raises(DataError):
            chunk_sequence(np.zeros((n, 4)), t, joint_spec=ONE_JOINT)
        return
    clips = chunk_sequence(np.zeros((n, 4)), t, joint_spec=ONE_JOINT)
    assert len(clips) == n // t


# -- decomposition properties ------------------------------------------------------


@given(seed=st.integers(0, 2**32 - 1), t=st.integers(2, 32))
@settings(max_examples=60, deadline=None)
def test_decompose_compose_round_trip(seed, t):
    rng = np.random.default_rng(seed)
    clip = rng.normal(scale=3.0, size=(t, 4))
    posture, offsets = decompose(clip)
    back = compose(posture, offsets)
    assert np.abs(back - clip).max() < 1e-9
    assert np.abs(offsets.sum(axis=0)).max() < 1e-6 * t


def test_decompose_stack_equals_each_clip():
    clips = np.random.default_rng(2).normal(size=(5, 7, 4))
    posture, offsets = decompose(clips)
    for clip, clip_posture, clip_offsets in zip(clips, posture, offsets):
        alone_posture, alone_offsets = decompose(clip)
        assert np.array_equal(clip_posture, alone_posture)
        assert np.array_equal(clip_offsets, alone_offsets)


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose([1.0, 2.0], np.zeros((3, 4)))
    with pytest.raises(ValueError):
        compose(np.zeros((2, 4)), np.zeros((3, 3, 4)))


# -- normalization ------------------------------------------------------------------


def _plausible_sequence(rng, n=20):
    # neck wandering, nose above it, hand off to the side
    seq = np.zeros((n, 6))
    neck = rng.normal(size=(n, 2))
    seq[:, 2:4] = neck
    seq[:, 0:2] = neck + [0.1, 1.7] + 0.05 * rng.normal(size=(n, 2))
    seq[:, 4:6] = neck + [2.0, -0.5] + 0.3 * rng.normal(size=(n, 2))
    return seq


def test_normalize_idempotent(small_spec):
    seq = _plausible_sequence(np.random.default_rng(3))
    once = normalize_skeleton(seq, small_spec)
    twice = normalize_skeleton(once, small_spec)
    assert np.abs(twice - once).max() < 1e-6


def test_normalize_similarity_invariance(small_spec):
    seq = _plausible_sequence(np.random.default_rng(4))
    moved = 3.0 * seq + np.tile([5.0, 7.0], 3)
    a = normalize_skeleton(seq, small_spec)
    b = normalize_skeleton(moved, small_spec)
    assert np.abs(a - b).max() < 1e-6


def test_normalize_degenerate_bone(small_spec):
    with pytest.raises(DataError):
        normalize_skeleton(np.ones((4, 6)), small_spec)


# -- swap --------------------------------------------------------------------------


def test_swap_self_is_identity(clip_factory):
    a = clip_factory(seed=5)
    sa, sb = swap_dynamics(a, a)
    np.testing.assert_allclose(sa, a, atol=1e-12)
    np.testing.assert_allclose(sb, a, atol=1e-12)


def test_swap_constant_clip_takes_other_offsets(small_spec):
    posture = np.array([1.0, 2.0, 0.0, 0.0, -1.0, 0.5])
    a = np.tile(posture, (4, 1))
    b = np.random.default_rng(6).normal(size=(4, small_spec.d_m))
    sa, _ = swap_dynamics(a, b)
    _, b_off = decompose(b)
    np.testing.assert_allclose(sa, posture + b_off, atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_swap_involution_and_mean_preservation(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(6, 4))
    b = rng.normal(size=(6, 4))
    sa, sb = swap_dynamics(a, b)
    assert np.abs(temporal_mean(sa) - temporal_mean(a)).max() < 1e-9
    assert np.abs(temporal_mean(sb) - temporal_mean(b)).max() < 1e-9
    aa, bb = swap_dynamics(sa, sb)
    assert np.abs(aa - a).max() < 1e-9
    assert np.abs(bb - b).max() < 1e-9


def test_swap_stack_equals_each_pair():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(2, 3, 5, 4))
    sa, sb = swap_dynamics(a, b)
    for i in range(3):
        alone_a, alone_b = swap_dynamics(a[i], b[i])
        assert np.array_equal(sa[i], alone_a)
        assert np.array_equal(sb[i], alone_b)


def test_swap_shape_mismatch(clip_factory):
    with pytest.raises(ValueError):
        swap_dynamics(clip_factory(t=4), clip_factory(t=6))


# -- mode-change labels --------------------------------------------------------------


def _hand_shifted(spec, shift):
    base = np.zeros((4, spec.d_m))
    base[:, 0:2] = [0.0, 1.0]  # nose above neck
    moved = base.copy()
    moved[:, spec.xy("right_palm")] += shift
    return base, moved


def test_label_identical_clips_is_zero(small_spec):
    prev, _ = _hand_shifted(small_spec, [0.0, 0.0])
    assert label_mode_change(prev, prev, small_spec, 0.25) == 0


def test_label_double_threshold_is_one(small_spec):
    prev, cur = _hand_shifted(small_spec, [0.5, 0.0])
    assert label_mode_change(prev, cur, small_spec, 0.25) == 1


def test_label_exact_threshold_is_zero(small_spec):
    prev, cur = _hand_shifted(small_spec, [0.25, 0.0])
    assert label_mode_change(prev, cur, small_spec, 0.25) == 0


def test_label_scale_invariance(small_spec):
    prev, cur = _hand_shifted(small_spec, [0.4, 0.3])
    for factor in (0.5, 2.0, 10.0):
        assert label_mode_change(prev, cur, small_spec, 0.25) == label_mode_change(
            prev * factor, cur * factor, small_spec, 0.25 * factor
        )


def test_label_mean_posture_ignores_rhythm(small_spec):
    # zero-mean oscillation on the hand must not flip the label
    prev, cur = _hand_shifted(small_spec, [0.1, 0.0])
    wobble = np.zeros((4, small_spec.d_m))
    wobble[:, small_spec.xy("right_palm")] = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
    assert label_mode_change(prev, cur + wobble, small_spec, 0.25) == 0


def test_label_requires_hand_joints():
    spec = JointSpec(names=("nose", "neck"), hand_indices=())
    clip = np.zeros((4, 4))
    with pytest.raises(DataError):
        label_mode_change(clip, clip, spec, 0.25)


def test_label_requires_positive_threshold(clip_factory, small_spec):
    clip = clip_factory()
    with pytest.raises(ValueError):
        label_mode_change(clip, clip, small_spec, 0.0)


# -- frame validation ---------------------------------------------------------------------


def test_clip_needs_two_frames(small_spec):
    with pytest.raises(ValueError, match="at least 2"):
        chunk_sequence(np.zeros((4, 6)), 1, joint_spec=small_spec)


def test_clip_rejects_nan(small_spec):
    frames = np.zeros((4, 6))
    frames[2, 3] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        chunk_sequence(frames, 2, joint_spec=small_spec)
    with pytest.raises(DataError, match="non-finite"):
        normalize_skeleton(frames, small_spec)
    with pytest.raises(DataError, match="non-finite"):
        label_mode_change(np.zeros((1, 4, 6)), frames[None], small_spec, 0.25)


def test_clip_width_must_match_spec(small_spec):
    with pytest.raises(ValueError, match="does not match joint spec"):
        chunk_sequence(np.zeros((4, 8)), 2, joint_spec=small_spec)
    with pytest.raises(ValueError, match="does not match joint spec"):
        normalize_skeleton(np.zeros((4, 8)), small_spec)


def test_default_joint_spec_shape():
    assert DEFAULT_JOINTS.n_joints == 12
    assert DEFAULT_JOINTS.d_m == 24
    assert len(DEFAULT_JOINTS.hand_indices) == 4


def test_joint_spec_validation():
    with pytest.raises(ValueError, match="^joint names must be unique"):
        JointSpec(names=("nose", "nose"), hand_indices=())
    with pytest.raises(ValueError, match="^hand index 7 out of range"):
        JointSpec(names=("nose", "neck"), hand_indices=(7,))


SPEC3 = JointSpec(names=("nose", "neck", "right_palm"), hand_indices=(2,))


@pytest.mark.parametrize("call, error, message", [
    (lambda: JointSpec(names=("nose", "head"), hand_indices=()), ValueError, "joint 'neck' not in joint names"),
    (lambda: JointSpec(names=("nose", "neck"), hand_indices=(), scale_pair=("neck", "neck")), ValueError,
     "scale pair must name two distinct joints"),
    (lambda: chunk_sequence(np.zeros(6), 2, joint_spec=SPEC3), ValueError,
     "expected a 2-D frame array, got shape (6,)"),
    (lambda: chunk_sequence(np.zeros((3, 6)), 4, joint_spec=SPEC3), DataError,
     "sequence of 3 frames is shorter than one clip (4)"),
    (lambda: normalize_skeleton(np.zeros((3, 6)), SPEC3), DataError, "degenerate reference bone neck->nose"),
    (lambda: compose([1.0, 2.0], np.zeros((3, 4))), ValueError,
     "posture shape (2,) does not fit offsets of shape (3, 4)"),
    (lambda: swap_dynamics(np.zeros((4, 6)), np.zeros((6, 6))), ValueError, "clip shapes differ: (4, 6) vs (6, 6)"),
    (lambda: label_mode_change(np.zeros((1, 4, 6)), np.zeros((1, 4, 6)), SPEC3, 0.0), ValueError,
     "threshold must be positive"),
    (lambda: label_mode_change(np.zeros((1, 4, 6)), np.zeros((2, 4, 6)), SPEC3), ValueError,
     "clip shapes differ: (1, 4, 6) vs (2, 4, 6)"),
    (lambda: label_mode_change(np.zeros((1, 4, 8)), np.zeros((1, 4, 8)), SPEC3), ValueError,
     "clips of shape (1, 4, 8) do not fit the joint spec (6 wide)"),
    (lambda: label_mode_change(np.zeros(6), np.zeros(6), SPEC3), ValueError,
     "clips of shape (6,) do not fit the joint spec (6 wide)"),
    (lambda: label_mode_change(np.zeros((4, 4)), np.zeros((4, 4)), JointSpec(("nose", "neck"), ())), DataError,
     "joint spec defines no hand joints to label with"),
])
def test_bad_motion_arguments_say_what_is_wrong(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(message)
