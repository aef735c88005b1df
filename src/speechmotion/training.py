"""Dataset assembly and joint training of the two branches.

The combined objective per batch is

    lambda_rec * rec + lambda_vae * vae + lambda_rhythm * rhythm + lambda_reg * reg

where rec is the mean-absolute error of the composed clip (pose-mode output
plus rhythm offsets) against the current clip, vae is the mode-gated latent
regularizer, rhythm is the offset regression error, and reg is the
autoencoding error of both clips. The weights are `config.train.lambda_*`.
Setting a weight to zero removes the term entirely: it is neither computed
nor differentiated. The model is `(config, params)`, and a batch is a set
of rows of the once-standardized training `SampleSet`. Batches are
partitioned by mode label so each sample contributes exactly one latent
term. The vae weight is annealed from 0 over the first
`train.kl_anneal_frac` of all steps (Bowman et al., arXiv 1511.06349); a
fraction of 0 leaves it at full weight from the first step.
"""

from __future__ import annotations

import copy
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import nn
from .audio import FeatureStats, check_coverage, motion_features
from .config import RunConfig
from .data import Checkpoint, DatasetSplit, SampleSet
from .errors import DataError, NumericError
from .io import load_normalized_landmarks, load_waveform
from .metrics import lvd
from .model import one_step, param_shapes
from .motion import chunk_sequence, decompose, label_mode_change, temporal_mean
from .posemode import PoseModeBranch
from .rhythm import RhythmBranch


# -- dataset -----------------------------------------------------------------


def _pair_by_stem(landmark_files, audio_files) -> tuple[list[tuple[Path, Path]], list[str]]:
    audio_by_stem = {Path(p).stem: Path(p) for p in audio_files}
    pairs, errors = [], []
    seen = set()
    for lm in sorted(Path(p) for p in landmark_files):
        stem = lm.stem
        seen.add(stem)
        if stem not in audio_by_stem:
            errors.append(f"{lm}: no audio file with stem {stem!r}")
            continue
        pairs.append((lm, audio_by_stem[stem]))
    for stem, path in sorted(audio_by_stem.items()):
        if stem not in seen:
            errors.append(f"{path}: no landmark file with stem {stem!r}")
    return pairs, errors


def _segment_samples(lm_path: Path, audio_path: Path, config: RunConfig) -> SampleSet:
    normalized, meta = load_normalized_landmarks(lm_path, config)

    wave, rate = load_waveform(audio_path)
    try:
        aligned, n_audio = motion_features(wave, rate, config.mfcc, config.fps, len(normalized))
        check_coverage(n_audio, config.mfcc.hop_s, config.fps, len(normalized))
    except DataError as exc:
        raise DataError(f"{audio_path}: {exc}") from None

    try:
        clips = chunk_sequence(normalized, config.t_frames, joint_spec=config.joint_spec)
        if len(clips) < 2:
            raise DataError("segment too short for a clip pair")
        n, t = len(clips) - 1, config.t_frames
        return SampleSet(
            m_prev=clips[:-1],
            m_cur=clips[1:],
            audio=aligned[t : (n + 1) * t].reshape(n, t, -1),
            c=label_mode_change(clips[:-1], clips[1:], config.joint_spec, config.mode_threshold),
            speaker=[str(meta.get("speaker", lm_path.stem.split("_")[0]))] * n,
            segment=[str(meta.get("segment", lm_path.stem))] * n,
        )
    except DataError as exc:
        raise DataError(f"{lm_path}: {exc}") from None


def build_dataset(
    landmark_files,
    audio_files,
    config: RunConfig,
) -> tuple[DatasetSplit, list[str]]:
    """Pair files by stem, preprocess each segment, split by segment.

    Returns the split plus a list of per-file error strings for inputs that
    were skipped. Raises DataError when nothing usable remains.
    """
    pairs, errors = _pair_by_stem(landmark_files, audio_files)
    by_segment: dict[str, list[SampleSet]] = {}
    for lm_path, audio_path in pairs:
        try:
            samples = _segment_samples(lm_path, audio_path, config)
        except DataError as exc:
            errors.append(str(exc))
            continue
        by_segment.setdefault(str(samples.segment[0]), []).append(samples)
    if not by_segment:
        raise DataError(
            "no usable segments; " + (errors[0] if errors else "no input files given")
        )

    segments = sorted(by_segment)
    order = np.random.default_rng(config.train.seed).permutation(len(segments))
    n = len(segments)
    # floor proportions, but never starve the training split
    n_train = max(1, int(n * config.train.split_train))
    n_val = min(int(n * config.train.split_val), n - n_train)
    shuffled = [segments[i] for i in order]

    # an empty set in front gives empty splits their shapes
    empty = next(iter(by_segment.values()))[0][:0]

    def collect(names) -> SampleSet:
        return SampleSet.concatenate([empty] + [p for seg in sorted(names) for p in by_segment[seg]])

    train = collect(shuffled[:n_train])
    d_s = train.audio.shape[2]
    stats = FeatureStats.fit(
        {str(spk): train.audio[train.speaker == spk].reshape(-1, d_s) for spk in np.unique(train.speaker)}
    )
    split = DatasetSplit(
        train=train,
        val=collect(shuffled[n_train : n_train + n_val]),
        test=collect(shuffled[n_train + n_val :]),
        feature_stats=stats,
    )
    return split, errors


# -- batched objective ---------------------------------------------------------


def one_step_predictions(
    samples: SampleSet,
    config: RunConfig,
    params: dict[str, np.ndarray],
    rng: np.random.Generator,
) -> np.ndarray:
    """Composed (N, T, D) one-step generations for a standardized sample set.

    Each sample's previous clip is encoded and its latent code is zero,
    except for c = 1 samples, whose codes are drawn from rng in sample order.
    """
    z = np.zeros((len(samples), config.model.d_z))
    c1 = np.flatnonzero(samples.c == 1)
    if len(c1):
        z[c1] = rng.standard_normal((len(c1), config.model.d_z))
    x_prev = samples.m_prev.reshape(len(samples), -1)
    pose_flat, offsets = one_step(config, params, x_prev, z, samples.audio)
    return pose_flat.reshape(offsets.shape) + offsets


def _batch_loss(
    config: RunConfig,
    pv: dict[str, ad.Var],
    batch: SampleSet,
    rng: np.random.Generator | None,
    vae_scale: float = 1.0,
) -> tuple[ad.Var, dict[str, float]]:
    """Weighted objective over the rows of a standardized set, on the tape.

    The weights are `config.train.lambda_*`. Terms with zero weight are
    skipped outright; the returned breakdown reports unweighted per-term
    values (0.0 for skipped terms).
    """
    pose, rhythm, weights = PoseModeBranch(config), RhythmBranch(config), config.train
    b = len(batch)
    c0 = np.flatnonzero(batch.c == 0)
    c1 = np.flatnonzero(batch.c == 1)
    d_z = config.model.d_z

    need_embeddings = weights.lambda_rec > 0 or weights.lambda_vae > 0 or weights.lambda_reg > 0
    need_posterior = weights.lambda_vae > 0 or (weights.lambda_rec > 0 and len(c1) > 0)
    need_rhythm = weights.lambda_rec > 0 or weights.lambda_rhythm > 0

    terms: dict[str, ad.Var] = {}
    if need_embeddings:
        x_prev = ad.constant(batch.m_prev.reshape(b, -1))
        x_cur = ad.constant(batch.m_cur.reshape(b, -1))
        e_prev = pose.encode_v(pv, x_prev)
        e_cur = pose.encode_v(pv, x_cur)
    if need_posterior:
        mu, logvar = pose.posterior_v(pv, e_cur - e_prev)

    if need_rhythm:
        rhythm_out = rhythm.forward_v(pv, ad.constant(batch.audio))
        rhythm_flat = ad.reshape(rhythm_out, (b, -1))

    if weights.lambda_vae > 0:
        parts = []
        if len(c1):
            mu1 = ad.take_rows(mu, c1)
            lv1 = ad.take_rows(logvar, c1)
            parts.append(0.5 * ad.sum(mu1 * mu1 + ad.exp(lv1) - 1.0 - lv1))
        if len(c0):
            mu0 = ad.take_rows(mu, c0)
            lv0 = ad.take_rows(logvar, c0)
            parts.append(ad.sum(ad.sqrt(ad.sum(mu0 * mu0, axis=1))))
            parts.append(ad.sum(ad.sqrt(ad.sum(ad.exp(lv0), axis=1))))
        acc = parts[0]
        for p in parts[1:]:
            acc = acc + p
        terms["vae"] = (1.0 / b) * acc

    if weights.lambda_rec > 0:
        if len(c1):
            if rng is None:
                raise ValueError("reconstruction with c = 1 samples needs a generator")
            eps = rng.standard_normal((len(c1), d_z))
            mu1r = ad.take_rows(mu, c1)
            lv1r = ad.take_rows(logvar, c1)
            z1 = mu1r + ad.exp(0.5 * lv1r) * ad.constant(eps)
            z_full = ad.scatter_rows(z1, c1, b)
        else:
            z_full = ad.constant(np.zeros((b, d_z)))
        e_star = pose.decode_transition_v(pv, z_full, e_prev)
        pose_flat = pose.decode_v(pv, e_star)
        terms["rec"] = ad.mean(ad.absolute(pose_flat + rhythm_flat - x_cur))

    if weights.lambda_rhythm > 0:
        _, offsets = decompose(batch.m_cur)
        terms["rhythm"] = ad.mean(ad.absolute(rhythm_flat - ad.constant(offsets.reshape(b, -1))))

    if weights.lambda_reg > 0:
        rec_cur = pose.decode_v(pv, e_cur)
        rec_prev = pose.decode_v(pv, e_prev)
        terms["reg"] = ad.mean(ad.absolute(rec_cur - x_cur)) + ad.mean(
            ad.absolute(rec_prev - x_prev)
        )

    weight_of = {name: getattr(weights, f"lambda_{name}") for name in terms}
    weight_of["vae"] = weights.lambda_vae * vae_scale
    total: ad.Var | None = None
    for name, term in terms.items():
        piece = weight_of[name] * term
        total = piece if total is None else total + piece
    if total is None:  # all weights zero: a legal, if pointless, objective
        total = ad.Var(0.0)
    breakdown = {
        name: float(terms[name].data) if name in terms else 0.0
        for name in ("rec", "vae", "rhythm", "reg")
    }
    return total, breakdown


# -- validation metric -----------------------------------------------------------


def validation_lvd(
    samples: SampleSet,
    config: RunConfig,
    params: dict[str, np.ndarray],
    seed,
) -> float:
    """Mean velocity-difference between one-step generations and ground
    truth, over a standardized sample set."""
    if not samples:
        return float("nan")
    composed = one_step_predictions(samples, config, params, np.random.default_rng(seed))
    return lvd(composed, samples.m_cur)


# -- training loop ------------------------------------------------------------------


def _finite_gradients(pv: dict[str, ad.Var], epoch: int, step: int) -> dict[str, np.ndarray]:
    """The gradients after backward(), or NumericError naming a non-finite one."""
    grads = nn.gradients(pv)
    for key, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericError(f"gradient of {key} is not finite at epoch {epoch} step {step}")
    return grads


@dataclass
class TrainResult:
    final: Checkpoint
    best: Checkpoint
    history: list[dict]


def train(
    dataset: DatasetSplit,
    config: RunConfig,
    log_path: str | Path | None = None,
    progress: bool = False,
) -> TrainResult:
    """Minibatch Adam over the combined objective.

    Deterministic for a fixed config and dataset: parameter init, batch
    order, latent draws, and validation draws all derive from the config
    seed. Divergence (a non-finite loss, or a non-finite gradient before the
    update) raises NumericError with the epoch and step.
    """
    if not dataset.train:
        raise DataError("training split is empty")
    tcfg = config.train
    rng = np.random.default_rng(tcfg.seed)
    params = nn.init_params(param_shapes(config), rng)
    optimizer = nn.Adam(params, lr=tcfg.lr)

    stats = dataset.feature_stats
    train_set = dataset.train.standardized(stats)
    val_set = dataset.val.standardized(stats)
    n = len(dataset.train)
    batch_size = min(tcfg.batch_size, n)
    steps_per_epoch = (n + batch_size - 1) // batch_size
    total_steps = tcfg.epochs * steps_per_epoch
    warmup = int(round(tcfg.kl_anneal_frac * total_steps))

    rest_posture = temporal_mean(dataset.train.m_cur).mean(axis=0)

    def checkpoint(epoch: int, val: float | None) -> Checkpoint:
        return Checkpoint(
            params=copy.deepcopy(params),
            config=config,
            feature_stats=stats,
            rest_posture=rest_posture.copy(),
            seed=tcfg.seed,
            epoch=epoch,
            val_lvd=val,
        )

    history: list[dict] = []
    best: Checkpoint | None = None
    log_fh = open(log_path, "w") if log_path is not None else None
    step = 0
    started = time.monotonic()
    try:
        for epoch in range(1, tcfg.epochs + 1):
            order = rng.permutation(n)
            sums = {"total": 0.0, "rec": 0.0, "vae": 0.0, "rhythm": 0.0, "reg": 0.0}
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                vae_scale = min(1.0, (step + 1) / warmup) if warmup else 1.0
                pv = nn.param_vars(params)
                total, breakdown = _batch_loss(config, pv, train_set[idx], rng, vae_scale)
                value = float(total.data)
                if not np.isfinite(value):
                    raise NumericError(
                        f"loss diverged to {value} at epoch {epoch} step {step}"
                    )
                total.backward()
                # not bound to a local: the gradients free right after the
                # update instead of living through the next step's forward
                optimizer.step(params, _finite_gradients(pv, epoch, step))
                step += 1
                frac = len(idx) / n
                sums["total"] += value * frac
                for key in ("rec", "vae", "rhythm", "reg"):
                    sums[key] += breakdown[key] * frac

            val = validation_lvd(
                val_set, config, params, seed=[tcfg.seed, 7919, epoch]
            ) if val_set else None
            record = {"epoch": epoch, **{k: sums[k] for k in sums}, "val_lvd": val}
            history.append(record)
            if log_fh is not None:
                log_fh.write(json.dumps(record) + "\n")
                log_fh.flush()
            if progress and (epoch == 1 or epoch % 25 == 0 or epoch == tcfg.epochs):
                elapsed = time.monotonic() - started
                print(
                    f"epoch {epoch}/{tcfg.epochs} loss {sums['total']:.5f}"
                    + (f" val_lvd {val:.5f}" if val is not None else "")
                    + f" [{elapsed:.0f}s]"
                )
            if val is not None and (best is None or best.val_lvd is None or val < best.val_lvd):
                best = checkpoint(epoch, val)
    finally:
        if log_fh is not None:
            log_fh.close()

    final = checkpoint(tcfg.epochs, history[-1]["val_lvd"])
    if best is None:
        best = final
    return TrainResult(final=final, best=best, history=history)
