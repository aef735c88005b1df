"""Audio front end: MFCC extraction, alignment, standardization, transcripts.

The MFCC pipeline is checked against a from-scratch reference written with
plain loops and an explicit cosine-transform matrix, sharing only the
framing convention with the implementation under test.
"""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from speechmotion import (
    DataError,
    FeatureStats,
    MfccSettings,
    Transcript,
    align_audio_to_motion,
    extract_mfcc,
    mel_filterbank,
)
from speechmotion.audio import _BLOCK_FRAMES, check_coverage, motion_features

SETTINGS = MfccSettings()


def _samples_for_frames(n_frames, settings=SETTINGS):
    return settings.window_samples + settings.hop_samples * (n_frames - 1)


# -- independent reference implementation --------------------------------------------


def _reference_mel_bank(sr, n_fft, n_mels):
    n_bins = n_fft // 2 + 1
    mel_lo, mel_hi = 0.0, 2595.0 * np.log10(1.0 + (sr / 2.0) / 700.0)
    mels = np.linspace(mel_lo, mel_hi, n_mels + 2)
    hz = 700.0 * (10.0 ** (mels / 2595.0) - 1.0)
    bank = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        for k in range(n_bins):
            f = k * sr / n_fft
            if hz[m] <= f <= hz[m + 1]:
                bank[m, k] = (f - hz[m]) / (hz[m + 1] - hz[m])
            elif hz[m + 1] < f <= hz[m + 2]:
                bank[m, k] = (hz[m + 2] - f) / (hz[m + 2] - hz[m + 1])
    return bank


def _reference_dct_matrix(n):
    # orthonormal type-II DCT as an explicit matrix
    mat = np.zeros((n, n))
    for k in range(n):
        for j in range(n):
            mat[k, j] = np.cos(np.pi * k * (2 * j + 1) / (2 * n))
    mat[0] *= np.sqrt(1.0 / n)
    mat[1:] *= np.sqrt(2.0 / n)
    return mat


def _reference_mfcc(wave, settings):
    win, hop = settings.window_samples, settings.hop_samples
    n_frames = 1 + (len(wave) - win) // hop
    window = np.hanning(win)
    bank = _reference_mel_bank(settings.sample_rate, win, settings.n_mels)
    dct_mat = _reference_dct_matrix(settings.n_mels)
    rows = []
    for f in range(n_frames):
        frame = wave[f * hop : f * hop + win] * window
        power = np.abs(np.fft.rfft(frame)) ** 2
        mel = bank @ power
        log_mel = np.log(np.maximum(mel, 1e-10))
        rows.append((dct_mat @ log_mel)[: settings.n_mfcc])
    cepstra = np.array(rows)
    if not settings.deltas:
        return cepstra
    deltas = np.zeros_like(cepstra)
    for t in range(n_frames):
        num = np.zeros(settings.n_mfcc)
        for n in (1, 2):
            later = cepstra[min(t + n, n_frames - 1)]
            earlier = cepstra[max(t - n, 0)]
            num += n * (later - earlier)
        deltas[t] = num / 10.0
    return np.concatenate([cepstra, deltas], axis=1)


# -- worked examples -------------------------------------------------------------------


def test_silence_is_constant_with_closed_form_first_coefficient():
    feats = extract_mfcc(np.zeros(16000), 16000, SETTINGS)
    assert np.abs(feats - feats[0]).max() == 0.0  # every frame identical
    expected_c0 = np.sqrt(SETTINGS.n_mels) * np.log(1e-10)
    assert abs(feats[0, 0] - expected_c0) < 1e-9
    assert np.abs(feats[0, 1:]).max() < 1e-9  # higher cepstra and all deltas vanish


@pytest.mark.parametrize(
    "n_samples",
    [4000] + [_samples_for_frames(f) for f in
              (_BLOCK_FRAMES - 1, _BLOCK_FRAMES, _BLOCK_FRAMES + 1, 2 * _BLOCK_FRAMES + 1)],
    ids=["4000-samples", "block-1", "block", "block+1", "2block+1"],
)
def test_matches_independent_reference(n_samples):
    rng = np.random.default_rng(7)
    t = np.arange(n_samples)
    wave = 0.3 * np.sin(2 * np.pi * 250 * t / 16000) + 0.05 * rng.normal(size=n_samples)
    ours = extract_mfcc(wave, 16000, SETTINGS)
    theirs = _reference_mfcc(wave, SETTINGS)
    assert ours.shape == theirs.shape
    assert np.abs(ours - theirs).max() < 1e-9


def test_prefix_gives_prefix_across_blocks():
    # the prefix ends a few frames into a second block, so a rounding that
    # depends on a row's place in its block, or on a block's row count, shows
    rng = np.random.default_rng(11)
    wave = 0.2 * rng.normal(size=_samples_for_frames(2 * _BLOCK_FRAMES + 500))
    full = extract_mfcc(wave, 16000, SETTINGS)
    n_frames = _BLOCK_FRAMES + 5
    prefix = extract_mfcc(wave[: _samples_for_frames(n_frames)], 16000, SETTINGS)
    assert prefix.shape == (n_frames, SETTINGS.d_s)
    # deltas of the last two rows clamp at the prefix's edge; the rest is bit-equal
    assert np.array_equal(prefix[:-2], full[: n_frames - 2])
    assert np.array_equal(prefix[:, : SETTINGS.n_mfcc], full[:n_frames, : SETTINGS.n_mfcc])


def test_memory_grows_only_with_output():
    rng = np.random.default_rng(2)
    peaks = {}
    for seconds in (60, 240):
        wave = 0.1 * rng.normal(size=16000 * seconds)
        tracemalloc.start()
        try:
            extract_mfcc(wave, 16000, SETTINGS)
            peaks[seconds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    mb_per_s = (peaks[240] - peaks[60]) / 1e6 / 180
    assert mb_per_s < 0.15, f"traced peak grows {mb_per_s:.3f} MB per second of audio"


def test_selected_rows_equal_their_all_frames_rows():
    rng = np.random.default_rng(4)
    wave = 0.2 * rng.normal(size=_samples_for_frames(2 * _BLOCK_FRAMES + 100))
    full = extract_mfcc(wave, 16000, SETTINGS)
    picks = [len(full) - 1, 0, 5, 5, _BLOCK_FRAMES, 1]  # unsorted, repeated, both edges
    got = extract_mfcc(wave, 16000, SETTINGS, rows=lambda n_frames: picks)
    assert np.array_equal(got, full[picks])


# -- motion-rate features ------------------------------------------------------------------


def _wave(seconds, rate, seed=9):
    t = np.arange(int(seconds * rate)) / rate
    noise = np.random.default_rng(seed).normal(size=len(t))
    return 0.3 * np.sin(2 * np.pi * 180 * t) * (1 + np.sin(2 * np.pi * 3 * t)) + 0.05 * noise


@pytest.mark.parametrize(
    "seconds, rate, fps, settings",
    [
        (3.0, 16000, 15.0, SETTINGS),  # shorter than one MFCC block
        (50.0, 16000, 15.0, SETTINGS),  # several MFCC blocks
        (50.0, 22050, 15.0, SETTINGS),  # resampled
        (12.0, 16000, 25.0, SETTINGS),
        (12.0, 16000, 30.0, SETTINGS),
        (12.0, 16000, 15.0, MfccSettings(deltas=False)),
    ],
    ids=["short", "blocks", "22.05kHz", "25fps", "30fps", "no-deltas"],
)
def test_motion_features_equal_aligned_all_frames(seconds, rate, fps, settings):
    wave = _wave(seconds, rate)
    full = extract_mfcc(wave, rate, settings)
    # every motion frame the audio covers
    n_motion = int(np.floor((len(full) * settings.hop_s) * fps)) + 1
    got, n_audio = motion_features(wave, rate, settings, fps, n_motion)
    assert n_audio == len(full)
    check_coverage(n_audio, settings.hop_s, fps, n_motion)
    expected = align_audio_to_motion(full, settings.hop_s, fps, n_motion)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("fps", [15.0, 25.0, 30.0])
@pytest.mark.parametrize("spare", [0, 1])
def test_motion_features_clamp_at_first_and_last_frames(fps, spare):
    # the audio ends `spare` frames after the one the last motion frame reads,
    # so that row's deltas clamp at the last frame as the first row's do at frame 0
    n_motion = 100
    last = int(np.rint((n_motion - 1) / fps / SETTINGS.hop_s))
    wave = 0.2 * np.random.default_rng(6).normal(size=_samples_for_frames(last + 1 + spare))
    full = extract_mfcc(wave, 16000, SETTINGS)
    got, n_audio = motion_features(wave, 16000, SETTINGS, fps, n_motion)
    check_coverage(n_audio, SETTINGS.hop_s, fps, n_motion)
    assert np.array_equal(got, align_audio_to_motion(full, SETTINGS.hop_s, fps, n_motion))
    assert np.array_equal(got[0], full[0])
    assert np.array_equal(got[-1], full[-1 - spare])


@pytest.mark.parametrize("n_motion", [1, 2, 40])
def test_few_motion_frames_over_a_long_input(n_motion):
    # a handful of rows out of thousands of frames
    wave = _wave(50.0, 16000)
    full = extract_mfcc(wave, 16000, SETTINGS)
    got, _ = motion_features(wave, 16000, SETTINGS, 15.0, n_motion)
    assert np.array_equal(got, align_audio_to_motion(full, SETTINGS.hop_s, 15.0, n_motion))


def test_motion_features_errors_come_from_extraction():
    with pytest.raises(DataError, match="shorter than one window"):
        motion_features(np.zeros(SETTINGS.window_samples - 1), 16000, SETTINGS, 15.0, 10)
    with pytest.raises(DataError, match="mono 1-D"):
        motion_features(np.zeros((100, 2)), 16000, SETTINGS, 15.0, 10)


def test_no_delta_variant_width():
    settings = MfccSettings(deltas=False)
    feats = extract_mfcc(np.zeros(1600), 16000, settings)
    assert feats.shape[1] == settings.n_mfcc == settings.d_s


def test_determinism_bit_identical():
    wave = np.sin(2 * np.pi * 440 * np.arange(8000) / 16000)
    a = extract_mfcc(wave, 16000, SETTINGS)
    b = extract_mfcc(wave.copy(), 16000, SETTINGS)
    assert np.array_equal(a, b)


def test_sines_440_880_differ():
    t = np.arange(8000) / 16000
    a = extract_mfcc(np.sin(2 * np.pi * 440 * t), 16000, SETTINGS)
    b = extract_mfcc(np.sin(2 * np.pi * 880 * t), 16000, SETTINGS)
    assert np.linalg.norm(a - b) > 0


def test_resampling_path_runs():
    wave = np.sin(2 * np.pi * 440 * np.arange(8000) / 8000)
    feats = extract_mfcc(wave, 8000, SETTINGS)
    # one second at any input rate is ~98 frames after resampling to 16 kHz
    assert feats.shape == (98, SETTINGS.d_s)


def test_too_short_waveform_is_data_error():
    with pytest.raises(DataError):
        extract_mfcc(np.zeros(SETTINGS.window_samples - 1), 16000, SETTINGS)


def test_non_mono_waveform_is_data_error():
    with pytest.raises(DataError):
        extract_mfcc(np.zeros((100, 2)), 16000, SETTINGS)


@pytest.mark.parametrize("call, error, message", [
    (lambda: MfccSettings(sample_rate=0), ValueError, "mfcc.sample_rate must be positive, got 0"),
    (lambda: MfccSettings(window_s=float("nan")), ValueError, "mfcc.window_s must be positive, got nan"),
    (lambda: MfccSettings(hop_s=0.0), ValueError, "mfcc.hop_s must be positive, got 0.0"),
    (lambda: MfccSettings(n_mfcc=41), ValueError, "mfcc.n_mfcc must be at most mfcc.n_mels (40), got 41"),
    (lambda: extract_mfcc(np.full(1000, np.nan), 16000, SETTINGS), DataError, "waveform contains non-finite"),
    (lambda: extract_mfcc(np.zeros(1000), 0, SETTINGS), ValueError, "sample_rate_hz must be positive"),
    (lambda: check_coverage(10, 0.0, 15.0, 5), ValueError, "hop, fps, and frame count must be positive"),
    (lambda: check_coverage(10, 0.01, 15.0, 0), ValueError, "hop, fps, and frame count must be positive"),
    (lambda: align_audio_to_motion(np.zeros(10), 0.01, 15.0, 5), ValueError, "features must be 2-D"),
])
def test_bad_front_end_arguments_say_what_is_wrong(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_mel_filterbank_shape_and_coverage():
    bank = mel_filterbank(SETTINGS)
    assert bank.shape == (SETTINGS.n_mels, SETTINGS.window_samples // 2 + 1)
    assert bank.min() >= 0.0
    assert (bank.sum(axis=1) > 0).all()  # no empty filters


# -- alignment ---------------------------------------------------------------------------


def test_align_matched_rates_is_identity():
    feats = np.arange(40, dtype=float).reshape(10, 4)
    out = align_audio_to_motion(feats, 1.0 / 15.0, 15.0, 10)
    np.testing.assert_array_equal(out, feats)


def test_align_half_hop_selects_every_second_row():
    feats = np.arange(80, dtype=float).reshape(20, 4)
    out = align_audio_to_motion(feats, 1.0 / 30.0, 15.0, 10)
    np.testing.assert_array_equal(out, feats[::2])


def test_align_short_audio_is_coverage_error():
    feats = np.zeros((54, 4))  # 64 motion frames need ~64 audio hops at matched rates
    with pytest.raises(DataError):
        align_audio_to_motion(feats, 1.0 / 15.0, 15.0, 64)


def test_align_indices_monotone():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(997, 1))
    feats[:, 0] = np.arange(997)  # encode the index in the value
    out = align_audio_to_motion(feats, 0.01, 15.0, 120)
    assert (np.diff(out[:, 0]) >= 0).all()


# -- standardization -----------------------------------------------------------------------


def test_feature_stats_standardize_train_split():
    rng = np.random.default_rng(5)
    frames = {"a": rng.normal(3.0, 2.0, size=(400, 6)), "b": rng.normal(-1.0, 0.5, size=(300, 6))}
    stats = FeatureStats.fit(frames)
    za = stats.transform(frames["a"], "a")
    assert np.abs(za.mean(axis=0)).max() < 1e-9
    assert np.abs(za.std(axis=0) - 1.0).max() < 1e-9


def test_feature_stats_unknown_speaker_uses_pooled():
    frames = {"a": np.ones((10, 2)) * 4.0, "b": np.zeros((10, 2))}
    stats = FeatureStats.fit(frames)
    out = stats.transform(np.full((3, 2), 2.0), "someone_new")
    np.testing.assert_allclose(out, np.zeros((3, 2)))  # pooled mean is 2.0


def test_feature_stats_constant_coefficient_not_rescaled():
    frames = {"a": np.column_stack([np.full(50, 7.0), np.random.default_rng(0).normal(size=50)])}
    stats = FeatureStats.fit(frames)
    out = stats.transform(frames["a"], "a")
    np.testing.assert_allclose(out[:, 0], 0.0)  # centered, scale left at 1


def test_feature_stats_empty_is_data_error():
    with pytest.raises(DataError):
        FeatureStats.fit({})


@pytest.mark.parametrize("change, message", [
    ({"speakers": ()}, "need speakers and a 1-D pooled_mean, got 0"),
    ({"pooled_mean": np.float64(0.0)}, "need speakers and a 1-D pooled_mean, got 2 and shape ()"),
    ({"means": np.zeros((3, 4))}, "means has shape (3, 4), expected (2, 4)"),
    ({"pooled_std": np.zeros(5)}, "pooled_std has shape (5,), expected (4,)"),
    ({"stds": np.full((2, 4), np.inf)}, "stds contains non-finite values"),
])
def test_feature_stats_check_their_shapes_and_values(change, message):
    rng = np.random.default_rng(0)
    stats = FeatureStats.fit({"a": rng.normal(size=(9, 4)), "b": rng.normal(size=(7, 4))})
    with pytest.raises(DataError, match=re.escape(message)):
        dataclasses.replace(stats, **change)


# -- containers and transcripts ----------------------------------------------------------------


def test_transcript_rejects_bad_tokens():
    with pytest.raises(DataError):
        Transcript((("so", 2.0, 1.0),))  # end before start
    with pytest.raises(DataError):
        Transcript((("b", 2.0, 2.5), ("a", 1.0, 1.5)))  # out of order
    with pytest.raises(DataError):
        Transcript((("", 1.0, 1.5),))
