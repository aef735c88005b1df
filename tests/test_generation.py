"""Mode schedules and the autoregressive generation loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechmotion import (
    DataError,
    JointSpec,
    ModeSchedule,
    NumericError,
    Transcript,
    diversity,
    generate_sequence,
    mode_schedule,
)
from speechmotion import autodiff as ad
from speechmotion import nn
from speechmotion.generation import _RHYTHM_BLOCK
from speechmotion.model import param_shapes
from speechmotion.posemode import PoseModeBranch
from speechmotion.rhythm import RhythmBranch

from oracles import decode_motion, encode_motion, rhythm_generate, sample_latent
from sizes import sized_config

CLIP_S = 64 / 15.0  # duration of one default clip


# -- schedules ----------------------------------------------------------------------


def test_empty_keyword_list_rejected():
    tr = Transcript((("so", 1.0, 1.2),))
    with pytest.raises(ValueError):
        mode_schedule(tr, 3, "keyword", clip_duration_s=CLIP_S, keywords=())


def test_keyword_in_first_clip_span():
    tr = Transcript((("now", 3.2, 3.4),))
    sched = mode_schedule(tr, 2, "keyword", clip_duration_s=CLIP_S, keywords=("now",))
    assert sched.labels == (1, 0)  # 3.2 s falls inside [0, 4.267) s


def test_keyword_matching_ignores_case_and_punctuation():
    tr = Transcript((("So,", 0.5, 0.7), ("NOW!", 5.0, 5.2)))
    sched = mode_schedule(tr, 2, "keyword", clip_duration_s=CLIP_S, keywords=("so", "now"))
    assert sched.labels == (1, 1)


def test_keyword_no_matches_is_all_zero():
    tr = Transcript((("hello", 1.0, 1.2),))
    sched = mode_schedule(tr, 3, "keyword", clip_duration_s=CLIP_S, keywords=("now",))
    assert sched.labels == (0, 0, 0)


def _scan_keyword_labels(transcript, n_steps, dur, keywords):
    # the per-step scan: every step looks at every token
    return tuple(
        int(any(w.lower().strip(".,!?;:") in keywords
                for w in transcript.words_between(i * dur, (i + 1) * dur)))
        for i in range(n_steps)
    )


@given(
    dur=st.sampled_from([CLIP_S, 16 / 15.0, 0.1, 1.0, 2.5, 1 / 3]),
    n_steps=st.integers(1, 12),
    # (step, fraction of a clip, word): fraction 0 puts a start exactly on a clip boundary
    tokens=st.lists(st.tuples(st.integers(0, 14), st.sampled_from([0.0, 0.0, 0.3, 0.999999, 1.0]),
                              st.sampled_from(["so", "Now,", "hello", "then!", "uh"])),
                    max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_keyword_schedule_equals_per_step_scan(dur, n_steps, tokens):
    # starts are i * dur as the scan computes them, or nudged a fraction of a clip off it
    starts = sorted((i * dur if f == 0.0 else (i + f) * dur, w) for i, f, w in tokens)
    tr = Transcript(tuple((w, s, s + 0.1) for s, w in starts))
    keywords = ("so", "now", "then")
    got = mode_schedule(tr, n_steps, "keyword", clip_duration_s=dur, keywords=keywords)
    assert got.labels == _scan_keyword_labels(tr, n_steps, dur, set(keywords))


def test_keyword_on_a_clip_boundary_opens_the_later_clip():
    dur = 16 / 15.0
    tr = Transcript((("so", 3 * dur, 3 * dur + 0.1),))
    sched = mode_schedule(tr, 5, "keyword", clip_duration_s=dur, keywords=("so",))
    assert sched.labels == (0, 0, 0, 1, 0)


def test_keyword_requires_transcript():
    with pytest.raises(ValueError, match="^keyword policy needs a transcript"):
        mode_schedule(None, 3, "keyword", clip_duration_s=CLIP_S, keywords=("now",))


def test_fixed_interval_example():
    assert mode_schedule(None, 4, "fixed-interval", interval=2).labels == (0, 1, 0, 1)


def test_fixed_interval_every_step():
    assert mode_schedule(None, 3, "fixed-interval", interval=1).labels == (1, 1, 1)


def test_explicit_passthrough_and_length_check():
    sched = mode_schedule(None, 3, "explicit", explicit=[1, 0, 1])
    assert sched.labels == (1, 0, 1)
    assert sched.provenance == "explicit"
    with pytest.raises(ValueError, match="^explicit labels have length 2, expected 3"):
        mode_schedule(None, 3, "explicit", explicit=[1, 0])


def test_unknown_policy():
    with pytest.raises(ValueError, match="^unknown policy 'random'"):
        mode_schedule(None, 3, "random")


def test_schedule_validation():
    with pytest.raises(ValueError, match="^schedule labels must all be 0 or 1"):
        ModeSchedule((0, 2, 1), "explicit")
    with pytest.raises(ValueError, match="^provenance must be one of"):
        ModeSchedule((0, 1), "vibes")


@pytest.mark.parametrize("call, message", [
    (lambda: mode_schedule(None, 0, "fixed-interval"), "n_steps must be positive"),
    (lambda: mode_schedule(Transcript(()), 3, "keyword", keywords=("so",)),
     "keyword policy needs a positive clip duration"),
    (lambda: mode_schedule(Transcript(()), 3, "keyword", clip_duration_s=-1.0, keywords=("so",)),
     "keyword policy needs a positive clip duration"),
    (lambda: mode_schedule(Transcript(()), 3, "keyword", clip_duration_s=CLIP_S),
     "keyword policy needs a non-empty keyword list"),
    (lambda: mode_schedule(None, 3, "fixed-interval", interval=0), "interval must be at least 1"),
    (lambda: mode_schedule(None, 3, "explicit"), "explicit policy needs labels"),
])
def test_bad_schedule_arguments_say_what_is_wrong(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value).startswith(message)


# -- generation loop -------------------------------------------------------------------


@pytest.fixture
def gen_setup(tiny_config, tiny_pose, tiny_rhythm, small_spec):
    rng = np.random.default_rng(100)
    initial = rng.normal(size=(4, small_spec.d_m))
    clips = np.stack([rng.normal(size=(4, 3)) for _ in range(3)])
    return tiny_config, {**tiny_pose[1], **tiny_rhythm[1]}, initial, clips


def _run(setup, labels, seed=0):
    config, params, initial, clips = setup
    sched = ModeSchedule(tuple(labels), "explicit")
    return generate_sequence(
        initial, clips[: len(labels)], sched, config, params, seeds=[seed]
    )[0]


def test_zero_schedule_bit_identical_and_seed_independent(gen_setup):
    a = _run(gen_setup, (0, 0, 0), seed=0)
    b = _run(gen_setup, (0, 0, 0), seed=0)
    c = _run(gen_setup, (0, 0, 0), seed=12345)
    assert np.array_equal(a.motion, b.motion)
    assert np.array_equal(a.motion, c.motion)


def test_ones_schedule_seeds_differ(gen_setup):
    outs = [_run(gen_setup, (1, 1, 1), seed=s).motion for s in range(8)]
    for i in range(len(outs)):
        for j in range(i + 1, len(outs)):
            assert np.abs(outs[i] - outs[j]).max() > 0
    assert diversity(outs) > 0


def test_output_shape_and_per_step(gen_setup):
    result = _run(gen_setup, (0, 1, 0), seed=3)
    assert result.motion.shape == (3 * 4, 6)
    assert result.n_steps == 3
    assert list(result.labels) == [0, 1, 0]
    # composed rows = pose + rhythm per step
    for i in range(result.n_steps):
        np.testing.assert_array_equal(
            result.motion[i * 4 : (i + 1) * 4],
            result.pose[i] + result.offsets[i],
        )
    assert np.array_equal(result.z[0], np.zeros(3))


def test_single_step_equals_component_calls(gen_setup):
    config, params, initial, clips = gen_setup
    pose = PoseModeBranch(config)
    seed = 5
    result = _run(gen_setup, (1,), seed=seed)
    e_prev = encode_motion(pose, params, initial)
    z = sample_latent(pose, 1, rng=np.random.default_rng(seed), mode="infer")
    e_star = pose.decode_transition_v(
        nn.param_vars(params), ad.Var(z[None, :]), ad.Var(e_prev[None, :])
    ).data[0]
    expected_pose = decode_motion(pose, params, e_star)
    expected_rhythm = rhythm_generate(RhythmBranch(config), params, clips[0])
    np.testing.assert_array_equal(result.motion, expected_pose + expected_rhythm)


def test_each_step_offsets_come_from_its_own_audio(gen_setup):
    config, params, initial, clips = gen_setup
    result = _run(gen_setup, (0, 1, 0), seed=2)
    for audio, offsets in zip(clips, result.offsets):
        np.testing.assert_array_equal(offsets, rhythm_generate(RhythmBranch(config), params, audio))


def test_prefix_stability(gen_setup):
    full = _run(gen_setup, (1, 0, 1), seed=9)
    prefix = _run(gen_setup, (1, 0), seed=9)
    np.testing.assert_array_equal(full.motion[:8], prefix.motion)


def test_zeroed_rhythm_keeps_pose_clips(gen_setup):
    config, params, initial, clips = gen_setup
    zeroed = {k: np.zeros_like(v) if k.startswith("rhythm.") else v for k, v in params.items()}
    sched = ModeSchedule((0, 1, 1), "explicit")
    (with_rhythm,) = generate_sequence(initial, clips, sched, config, params, seeds=[4])
    (without,) = generate_sequence(initial, clips, sched, config, zeroed, seeds=[4])
    assert np.abs(with_rhythm.motion - without.motion).max() > 0
    for a_pose, b_pose, b_offsets in zip(with_rhythm.pose, without.pose, without.offsets):
        np.testing.assert_array_equal(a_pose, b_pose)
        np.testing.assert_array_equal(b_offsets, 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_non_finite_step_is_numeric_error_naming_it(tiny_config, tiny_pose, tiny_rhythm, small_spec):
    _, pp = tiny_pose
    _, rp = tiny_rhythm
    # offsets are 1e308 * (1 + tanh(10 tanh(10 a))) for audio channel a: finite
    # where a is negative, overflowing where it is positive (step 2 only)
    rp = {k: np.zeros_like(v) for k, v in rp.items()}
    rp["rhythm.conv0.w"][1, 0, 0] = 10.0
    rp["rhythm.conv1.w"][1, 0, 0] = 10.0
    rp["rhythm.head.w"][0] = 1e308
    rp["rhythm.head.b"][:] = 1e308
    clips = np.stack([np.full((4, 3), a) for a in (-1.0, -1.0, 1.0, -1.0)])
    initial = np.zeros((4, small_spec.d_m))
    sched = ModeSchedule((0, 1, 0, 1), "explicit")
    with pytest.raises(NumericError, match="non-finite motion at step 2 of 4"):
        generate_sequence(initial, clips, sched, tiny_config, {**pp, **rp}, seeds=[0, 1])


def test_empty_audio_is_data_error(gen_setup):
    config, params, initial, _ = gen_setup
    with pytest.raises(DataError):
        generate_sequence(initial, [], ModeSchedule((), "explicit"), config, params)


def test_schedule_length_mismatch(gen_setup):
    config, params, initial, clips = gen_setup
    with pytest.raises(ValueError):
        generate_sequence(
            initial, clips, ModeSchedule((0, 1), "explicit"), config, params
        )


def test_empty_seed_list_rejected(gen_setup):
    config, params, initial, clips = gen_setup
    with pytest.raises(ValueError):
        generate_sequence(
            initial, clips, ModeSchedule((0, 1, 0), "explicit"), config, params,
            seeds=[],
        )


def test_audio_width_mismatch_rejected(gen_setup):
    config, params, initial, _ = gen_setup
    with pytest.raises(ValueError, match="audio features shape"):
        generate_sequence(
            initial, np.zeros((1, 4, 5)), ModeSchedule((0,), "explicit"),
            config, params,
        )


def test_audio_validation(gen_setup):
    config, params, initial, clips = gen_setup
    sched = ModeSchedule((0, 0, 0), "explicit")
    with pytest.raises(ValueError, match="audio features shape"):
        generate_sequence(initial, np.zeros(3), sched, config, params)
    clips = clips.copy()
    clips[1, 2, 0] = np.nan
    with pytest.raises(DataError, match="audio features contain non-finite values"):
        generate_sequence(initial, clips, sched, config, params)


def test_initial_pose_shape_mismatch_rejected(gen_setup, small_spec):
    config, params, _, clips = gen_setup
    wrong = np.zeros((6, small_spec.d_m))
    with pytest.raises(ValueError, match=r"initial pose shape \(6, 6\) does not match configured \(4, 6\)"):
        generate_sequence(
            wrong, clips[:1], ModeSchedule((0,), "explicit"), config, params,
        )


def test_non_finite_initial_pose_rejected(gen_setup):
    config, params, initial, clips = gen_setup
    initial = initial.copy()
    initial[1, 2] = np.inf
    with pytest.raises(DataError, match="initial pose contains non-finite values"):
        generate_sequence(
            initial, clips[:1], ModeSchedule((0,), "explicit"), config, params,
        )


# -- seeds in one batch ------------------------------------------------------------------

MIXED = (0, 0, 1, 0, 1, 1, 0)  # first label-1 step is step 2


@pytest.fixture(scope="module")
def batch_setup():
    """A model wide enough that its GEMMs take BLAS's blocked kernels, not toy sizes."""
    spec = JointSpec(names=("nose", "neck", "right_palm"), hand_indices=(2,))
    config = sized_config(
        spec, t_frames=16, d_s=5, d_e=32, d_z=8, enc_hidden=(64,), latent_hidden=(32,),
        rhythm_hidden=16, rhythm_layers=2,
    )
    rng = np.random.default_rng(21)
    params = nn.init_params(param_shapes(config), rng)
    initial = rng.normal(size=(16, 6))
    clips = np.stack([rng.normal(size=(16, 5)) for _ in MIXED])
    return config, params, initial, clips


@pytest.mark.parametrize("n_seeds", [1, 3, 8, 9])
def test_batched_seeds_match_single_seed_runs(batch_setup, n_seeds):
    config, params, initial, clips = batch_setup
    sched = ModeSchedule(MIXED, "explicit")
    seeds = [100 + s for s in range(n_seeds)]
    batched = generate_sequence(initial, clips, sched, config, params, seeds=seeds)
    assert [r.seed for r in batched] == seeds
    for seed, got in zip(seeds, batched):
        (alone,) = generate_sequence(
            initial, clips, sched, config, params, seeds=[seed]
        )
        scale = np.abs(alone.motion).max()
        assert np.abs(got.motion - alone.motion).max() <= 1e-12 * scale
        for i in range(got.n_steps):
            assert got.labels[i] == alone.labels[i]
            np.testing.assert_array_equal(got.z[i], alone.z[i])
            np.testing.assert_array_equal(got.offsets[i], alone.offsets[i])


@pytest.mark.parametrize("n_seeds", [1, 3, 8, 9])
def test_batched_rows_before_first_draw_identical_across_seeds(batch_setup, n_seeds):
    config, params, initial, clips = batch_setup
    sched = ModeSchedule(MIXED, "explicit")
    results = generate_sequence(
        initial, clips, sched, config, params, seeds=range(n_seeds)
    )
    t = len(initial)
    before = MIXED.index(1) * t
    for r in results:
        np.testing.assert_array_equal(r.motion[:before], results[0].motion[:before])
    if n_seeds > 1:
        assert np.abs(results[1].motion[before:] - results[0].motion[before:]).max() > 0


# -- the rhythm stream in blocks ------------------------------------------------------------

# a schedule that runs into a third rhythm block
LONG = tuple(int(i % 5 == 3) for i in range(2 * _RHYTHM_BLOCK + 3))


@pytest.fixture(scope="module")
def long_setup(batch_setup):
    config, params, initial, _ = batch_setup
    rng = np.random.default_rng(22)
    clips = rng.normal(size=(len(LONG), config.t_frames, config.mfcc.d_s))
    return config, params, initial, clips


@pytest.mark.parametrize("n_steps", [_RHYTHM_BLOCK - 1, _RHYTHM_BLOCK, _RHYTHM_BLOCK + 1,
                                     2 * _RHYTHM_BLOCK + 1])
def test_prefix_bit_identical_across_rhythm_blocks(long_setup, n_steps):
    config, params, initial, clips = long_setup
    full = generate_sequence(initial, clips, ModeSchedule(LONG, "explicit"), config, params,
                             seeds=[3, 4])
    prefix = generate_sequence(initial, clips[:n_steps], ModeSchedule(LONG[:n_steps], "explicit"),
                               config, params, seeds=[3, 4])
    for a, b in zip(full, prefix):
        assert np.array_equal(a.motion[: n_steps * config.t_frames], b.motion)
        assert np.array_equal(a.offsets[:n_steps], b.offsets)


def test_offsets_equal_one_clip_forward_across_block_boundaries(long_setup):
    config, params, initial, clips = long_setup
    (result,) = generate_sequence(initial, clips, ModeSchedule(LONG, "explicit"), config, params)
    rhythm = RhythmBranch(config)
    for i in (0, _RHYTHM_BLOCK - 1, _RHYTHM_BLOCK, 2 * _RHYTHM_BLOCK - 1, 2 * _RHYTHM_BLOCK,
              len(LONG) - 1):
        assert np.array_equal(result.offsets[i], rhythm_generate(rhythm, params, clips[i])), i


@pytest.mark.parametrize("labels, n_clips, seeds, error, message", [
    ((), 0, [0], DataError, "generation needs at least one audio clip"),
    ((0, 1), 3, [0], ValueError, "schedule length 2 does not match 3 audio clips"),
    ((0, 1, 0), 3, [], ValueError, "generation needs at least one seed"),
])
def test_bad_generation_arguments_say_what_is_wrong(gen_setup, labels, n_clips, seeds, error, message):
    config, params, initial, clips = gen_setup
    with pytest.raises(error, match=message):
        generate_sequence(initial, clips[:n_clips], ModeSchedule(labels, "explicit"), config, params,
                          seeds=seeds)
