"""Audio features: MFCC extraction, timeline alignment, standardization.

The rhythm branch consumes one feature row per motion frame, so the pipeline
here is: resample to the configured rate, frame with a Hann window, mel
filterbank on the power spectrum, log with an absolute floor, orthonormal
DCT, optional delta coefficients, then nearest-timestamp selection onto the
motion frame grid.

`extract_mfcc` computes cepstra only at the analysis frames asked for and the
neighbours their deltas read. `motion_features` asks for the frames the
motion grid samples: at 15 fps and a 10 ms hop that is about three in four
frames, and each row equals its row of the all-frames output. Extraction
works through the frames in blocks of at most `_BLOCK_FRAMES`: apart from
the input waveform, its memory is one block's spectra plus arrays the size
of the output, however long the audio. Every row goes through the same
arithmetic as a whole-waveform pass, so the output does not depend on the
blocking or on which rows are asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import MfccSettings
from .errors import DataError

# Absolute floor applied to mel-band power before the log. Silence therefore
# maps to log(POWER_FLOOR) in every band, and after the orthonormal DCT only
# coefficient 0 is nonzero: sqrt(n_mels) * log(POWER_FLOOR).
POWER_FLOOR = 1e-10

# Most analysis frames whose spectra are held at once. At the default
# 400-sample window a block's framed copy, complex spectrum and power take
# about 15 MB; smaller blocks measured no faster. Frames are split into equal
# blocks, not full ones plus a remainder, so that beyond one block every mel
# GEMM has at least 1024 rows: OpenBLAS sends GEMMs of a few dozen rows to a
# small-matrix kernel that rounds differently, and a short last block would
# change the output of its rows.
_BLOCK_FRAMES = 2048
# Fewest frames whose cepstra are computed (or all, if fewer): a selection
# of fewer frames is padded with the first ones, so that its mel GEMM does
# not take the small-matrix kernel either.
_MIN_GEMM_ROWS = _BLOCK_FRAMES // 2
# Deltas are regression slopes over +/- this many frames, clamped at the edges.
_DELTA_REACH = 2


@dataclass(frozen=True)
class Transcript:
    """Word timeline: (word, start_s, end_s) tuples with non-decreasing starts."""

    tokens: tuple[tuple[str, float, float], ...]

    def __post_init__(self) -> None:
        last_start = -np.inf
        for word, start, end in self.tokens:
            if not word:
                raise DataError("transcript contains an empty word")
            if not (np.isfinite(start) and np.isfinite(end)) or start < 0 or end < start:
                raise DataError(f"bad token timing for {word!r}: [{start}, {end}]")
            if start < last_start:
                raise DataError("transcript tokens are not sorted by start time")
            last_start = start


def mel_filterbank(settings: MfccSettings) -> np.ndarray:
    """Triangular mel filters, (n_mels, n_fft_bins) for the configured window."""
    n_fft = settings.window_samples
    n_bins = n_fft // 2 + 1
    f_max = settings.sample_rate / 2.0

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)

    edges_hz = from_mel(np.linspace(to_mel(0.0), to_mel(f_max), settings.n_mels + 2))
    bin_hz = np.arange(n_bins) * settings.sample_rate / n_fft
    bank = np.zeros((settings.n_mels, n_bins))
    for m in range(settings.n_mels):
        lo, mid, hi = edges_hz[m : m + 3]
        up = (bin_hz - lo) / (mid - lo)
        down = (hi - bin_hz) / (hi - mid)
        bank[m] = np.maximum(0.0, np.minimum(up, down))
    return bank


def extract_mfcc(
    waveform, sample_rate_hz: int, settings: MfccSettings = MfccSettings(), rows=None
) -> np.ndarray:
    """Mel-frequency cepstra (plus deltas) for a mono waveform.

    Args:
        waveform: 1-D float array; resampled if sample_rate_hz differs from
            the configured rate.
        sample_rate_hz: rate of `waveform` in Hz.
        settings: front-end configuration.
        rows: the analysis frames to return. None returns all F of them;
            otherwise a function that receives F once the waveform is
            accepted and returns the frame indices wanted, each in [0, F).

    Returns:
        (number of rows, settings.d_s) float64 array, one row per selected
        analysis frame, each bit-equal to its row of the all-frames output:
        cepstra are computed only at the selected frames and the neighbours
        their deltas read. Deterministic. Frames are processed in blocks, so
        beyond the (resampled) waveform the memory used is one fixed-size
        block plus output-sized arrays; the blocking does not change the
        output.

    Raises:
        DataError: waveform shorter than one analysis window, or not 1-D.
    """
    wave = np.asarray(waveform, dtype=np.float64)
    if wave.ndim != 1:
        raise DataError(f"waveform must be mono 1-D, got shape {wave.shape}")
    if not np.all(np.isfinite(wave)):
        raise DataError("waveform contains non-finite values")
    if sample_rate_hz <= 0:
        raise ValueError("sample_rate_hz must be positive")
    if sample_rate_hz != settings.sample_rate:
        # imported here: scipy.signal adds about 47 MB and 0.6 s to a process, and 16 kHz input never needs it
        from scipy.signal import resample_poly

        g = gcd(settings.sample_rate, int(sample_rate_hz))
        wave = resample_poly(wave, settings.sample_rate // g, int(sample_rate_hz) // g)

    win, hop = settings.window_samples, settings.hop_samples
    if len(wave) < win:
        raise DataError(f"waveform of {len(wave)} samples is shorter than one window ({win})")
    frames = sliding_window_view(wave, win)[::hop]
    n_frames = len(frames)
    wanted = np.arange(n_frames) if rows is None else np.asarray(rows(n_frames), dtype=np.intp)
    # taps[i] are the frames wanted[i] - reach ... wanted[i] + reach, clamped at the edges
    reach = _DELTA_REACH if settings.deltas else 0
    taps = np.clip(wanted[:, None] + np.arange(-reach, reach + 1), 0, n_frames - 1)
    computed = np.zeros(n_frames, dtype=bool)
    computed[taps] = True
    if computed.sum() < _MIN_GEMM_ROWS:
        computed[:_MIN_GEMM_ROWS] = True
    needed = np.flatnonzero(computed)
    at = (np.cumsum(computed) - 1)[taps]  # each tap's row of `cepstra`

    from scipy.fft import dct  # imported here so that commands that compute no MFCCs never load scipy

    window = np.hanning(win)
    bank_t = mel_filterbank(settings).T
    n_mfcc = settings.n_mfcc
    cepstra = np.empty((len(needed), n_mfcc))
    n_blocks = -(-len(needed) // _BLOCK_FRAMES)
    edges = [i * len(needed) // n_blocks for i in range(n_blocks + 1)]
    for start, stop in zip(edges[:-1], edges[1:]):
        windowed = frames[needed[start:stop]]  # a gathered copy: window it in place
        windowed *= window
        power = np.abs(np.fft.rfft(windowed, axis=1)) ** 2
        log_mel = np.log(np.maximum(power @ bank_t, POWER_FLOOR))
        cepstra[start:stop] = dct(log_mel, type=2, norm="ortho", axis=1)[:, :n_mfcc]
    out = np.empty((len(wanted), settings.d_s))
    out[:, :n_mfcc] = cepstra[at[:, reach]]
    if settings.deltas:
        deltas = np.zeros((len(wanted), n_mfcc))
        for n in range(1, reach + 1):
            deltas += n * (cepstra[at[:, reach + n]] - cepstra[at[:, reach - n]])
        out[:, n_mfcc:] = deltas / (2.0 * sum(n * n for n in range(1, reach + 1)))
    return out


def _motion_rows(n_audio: int, audio_hop_s: float, motion_fps: float, n_motion_frames: int) -> np.ndarray:
    """The audio frame nearest each motion frame, clamped to [0, n_audio): the
    rows `align_audio_to_motion` reads once `check_coverage` has passed."""
    times = np.arange(n_motion_frames) / motion_fps
    return np.clip(np.rint(times / audio_hop_s).astype(int), 0, n_audio - 1)


def check_coverage(n_audio: int, audio_hop_s: float, motion_fps: float, n_motion_frames: int) -> None:
    """The audio timeline must cover the motion timeline to within one hop.

    Raises:
        ValueError: hop, fps or frame count not positive.
        DataError: audio too short to cover the motion frames.
    """
    if audio_hop_s <= 0 or motion_fps <= 0 or n_motion_frames <= 0:
        raise ValueError("hop, fps, and frame count must be positive")
    last_motion_s = (n_motion_frames - 1) / motion_fps
    covered_s = (n_audio - 1) * audio_hop_s + audio_hop_s
    if last_motion_s > covered_s:
        raise DataError(
            f"audio covers {covered_s:.3f}s but motion runs to {last_motion_s:.3f}s"
        )


def align_audio_to_motion(
    features: np.ndarray,
    audio_hop_s: float,
    motion_fps: float,
    n_motion_frames: int,
) -> np.ndarray:
    """Select one feature row per motion frame by nearest timestamp.

    Audio frame f sits at f * audio_hop_s, motion frame t at t / motion_fps.
    The audio timeline must cover the motion timeline to within one hop.

    Raises:
        DataError: audio too short to cover the motion frames.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {feats.shape}")
    check_coverage(len(feats), audio_hop_s, motion_fps, n_motion_frames)
    return feats[_motion_rows(len(feats), audio_hop_s, motion_fps, n_motion_frames)]


def motion_features(
    waveform, sample_rate_hz: int, settings: MfccSettings, motion_fps: float, n_motion_frames: int
) -> tuple[np.ndarray, int]:
    """MFCC rows on the motion frame grid, and the analysis frame count F.

    The rows equal `align_audio_to_motion(extract_mfcc(waveform, ...),
    settings.hop_s, motion_fps, n_motion_frames)`, but only the frames they
    read are computed, and coverage is left to `check_coverage(F, ...)`.
    """
    n_audio = []

    def rows(n_frames: int) -> np.ndarray:
        n_audio.append(n_frames)
        return _motion_rows(n_frames, settings.hop_s, motion_fps, n_motion_frames)

    return extract_mfcc(waveform, sample_rate_hz, settings, rows), n_audio[0]


@dataclass(frozen=True)
class FeatureStats:
    """Per-speaker standardization statistics fit on the training split.

    Coefficients with (near-)zero variance are centered but not rescaled.
    `speakers` indexes the rows of `means`/`stds`; the pooled row serves
    speakers unseen at fit time.
    """

    speakers: tuple[str, ...]
    means: np.ndarray
    stds: np.ndarray
    pooled_mean: np.ndarray
    pooled_std: np.ndarray

    _STD_FLOOR = 1e-6

    def __post_init__(self) -> None:
        """means and stds (S, D_S), pooled_mean and pooled_std (D_S,), for
        S >= 1 speakers and D_S >= 1 coefficients, all finite; else DataError."""
        n, width = len(self.speakers), np.shape(self.pooled_mean)
        if not n or len(width) != 1 or not width[0]:
            raise DataError(f"need speakers and a 1-D pooled_mean, got {n} and shape {width}")
        for name, shape in (("pooled_std", width), ("means", (n, *width)), ("stds", (n, *width))):
            if np.shape(getattr(self, name)) != shape:
                raise DataError(f"{name} has shape {np.shape(getattr(self, name))}, expected {shape}")
        for name in ("means", "stds", "pooled_mean", "pooled_std"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DataError(f"{name} contains non-finite values")

    @classmethod
    def fit(cls, frames_by_speaker: dict[str, np.ndarray]) -> "FeatureStats":
        if not frames_by_speaker:
            raise DataError("cannot fit feature statistics on an empty split")
        speakers = tuple(sorted(frames_by_speaker))
        means = np.stack([frames_by_speaker[s].mean(axis=0) for s in speakers])
        stds = np.stack([frames_by_speaker[s].std(axis=0) for s in speakers])
        pooled = np.concatenate([frames_by_speaker[s] for s in speakers], axis=0)
        return cls(speakers, means, stds, pooled.mean(axis=0), pooled.std(axis=0))

    def _row(self, speaker: str | None) -> tuple[np.ndarray, np.ndarray]:
        if speaker is not None and speaker in self.speakers:
            i = self.speakers.index(speaker)
            return self.means[i], self.stds[i]
        return self.pooled_mean, self.pooled_std

    def transform(self, features: np.ndarray, speaker: str | None = None) -> np.ndarray:
        mean, std = self._row(speaker)
        scale = np.where(std < self._STD_FLOOR, 1.0, std)
        return (np.asarray(features, dtype=np.float64) - mean) / scale
