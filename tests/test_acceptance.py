"""Shipping checklist: nine end-to-end criteria, one test each.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion plus the measured numbers. The training criteria (6, 7) use a
reduced model on the synthetic corpus with fixed seeds; everything here is
deterministic on one machine.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from speechmotion import (
    JointSpec,
    ModeSchedule,
    MotionClip,
    RunConfig,
    SampleSet,
    baseline_mean_velocity,
    compose,
    decompose,
    diversity,
    generate_sequence,
    io,
    lvd,
    quality_score,
    swap_dynamics,
)
from speechmotion import nn
from speechmotion.evaluation import evaluate_checkpoint, sample_diversity
from speechmotion.motion import chunk_sequence, label_mode_change
from speechmotion.toydata import make_toy_dataset
from speechmotion.config import TrainSettings
from speechmotion.model import param_shapes
from speechmotion.training import _batch_loss, build_dataset, train

from oracles import LatentPosterior, loss_vae
from sizes import sized_config

pytestmark = pytest.mark.acceptance

SPEC2 = JointSpec(names=("nose", "neck"), hand_indices=(0,))
SPEC4 = JointSpec(names=("nose", "neck", "right_palm", "left_palm"), hand_indices=(2, 3))


def _reduced_config(epochs: int, seed: int = 0, **train_overrides) -> RunConfig:
    """Default corpus shape, smaller networks, the calibrated optimizer."""
    base = RunConfig()
    return base.replace(
        model=dataclasses.replace(
            base.model,
            d_e=32,
            d_z=16,
            enc_hidden=(128, 64),
            latent_hidden=(32,),
            rhythm_hidden=64,
            rhythm_layers=4,
        ),
        train=dataclasses.replace(
            base.train, epochs=epochs, lr=1e-3, batch_size=16, seed=seed, **train_overrides
        ),
    )


@pytest.fixture(scope="module")
def toy_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_toy")
    config = _reduced_config(epochs=500)
    manifest = make_toy_dataset(root, config, seed=0)
    landmarks = sorted((root / "landmarks").glob("*.npz"))
    audio = sorted((root / "audio").glob("*.wav"))
    return root, config, manifest, landmarks, audio


def test_criterion_1_decomposition_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    config = RunConfig()
    t, d = config.t_frames, config.d_m
    spec = config.joint_spec
    worst_round_trip = 0.0
    worst_mean = 0.0
    clips = []
    for _ in range(1000):
        clip = MotionClip(rng.normal(size=(t, d)), joint_spec=spec)
        clips.append(clip)
        posture, offsets = decompose(clip)
        rebuilt = compose(posture, offsets)
        worst_round_trip = max(worst_round_trip, np.abs(rebuilt.frames - clip.frames).max())
        worst_mean = max(worst_mean, np.abs(offsets.offsets.mean(axis=0)).max())
    worst_swap = 0.0
    worst_swap_mean = 0.0
    for a, b in zip(clips[:500], clips[500:]):
        sa, sb = swap_dynamics(a, b)
        back_a, back_b = swap_dynamics(sa, sb)
        worst_swap = max(
            worst_swap,
            np.abs(back_a.frames - a.frames).max(),
            np.abs(back_b.frames - b.frames).max(),
        )
        worst_swap_mean = max(
            worst_swap_mean,
            np.abs(sa.frames.mean(0) - a.frames.mean(0)).max(),
            np.abs(sb.frames.mean(0) - b.frames.mean(0)).max(),
        )
    elapsed = time.perf_counter() - t0
    ok = (
        worst_round_trip < 1e-9
        and worst_mean < 1e-6 * t
        and worst_swap < 1e-9
        and worst_swap_mean < 1e-9
        and elapsed < 10.0
    )
    line = (
        f"[criterion 1] {'PASS' if ok else 'FAIL'}: round-trip {worst_round_trip:.2e}, "
        f"offset mean {worst_mean:.2e}, swap involution {worst_swap:.2e}, "
        f"swap posture drift {worst_swap_mean:.2e}, {elapsed:.1f}s"
    )
    print("\n" + line)
    assert ok, line


def _mc_kl(mu, sigma, n=100_000, seed=0):
    rng = np.random.default_rng(seed)
    z = mu + sigma * rng.standard_normal((n, mu.size))
    log_q = -0.5 * np.sum(((z - mu) / sigma) ** 2 + np.log(2 * np.pi) + 2 * np.log(sigma), axis=1)
    log_p = -0.5 * np.sum(z**2 + np.log(2 * np.pi), axis=1)
    return float(np.mean(log_q - log_p))


def test_criterion_2_kl_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(50):
        mu = rng.normal(size=6)
        sigma = rng.uniform(0.3, 2.0, size=6)
        closed = loss_vae(LatentPosterior(mu, sigma), 1)
        estimate = _mc_kl(mu, sigma, seed=i)
        worst = max(worst, abs(closed - estimate) / closed)
    standard = loss_vae(LatentPosterior(np.zeros(6), np.ones(6)), 1)
    elapsed = time.perf_counter() - t0
    ok = worst < 0.01 and standard == 0.0 and elapsed < 30.0
    line = (
        f"[criterion 2] {'PASS' if ok else 'FAIL'}: worst MC deviation {worst:.4%}, "
        f"standard-normal loss {standard!r}, {elapsed:.1f}s"
    )
    print("\n" + line)
    assert ok, line


def test_criterion_3_gradient_checks():
    t0 = time.perf_counter()
    config = sized_config(
        SPEC2, t_frames=2, d_s=2, d_e=4, d_z=2, enc_hidden=(), latent_hidden=(),
        rhythm_hidden=2, rhythm_layers=1, rhythm_kernel=3,
    )
    n_params = sum(math.prod(s) for s in param_shapes(config).values())
    assert n_params <= 200

    rng = np.random.default_rng(3)
    params = nn.init_params(param_shapes(config), rng)
    samples = []
    for i, c in enumerate((1, 0)):
        data = np.random.default_rng(20 + i)
        samples.append(
            SampleSet(
                m_prev=data.normal(size=(1, 2, 4)),
                m_cur=data.normal(size=(1, 2, 4)),
                audio=data.normal(size=(1, 2, 2)),
                c=[c],
                speaker=["s"],
                segment=[f"seg{i}"],
            )
        )
    batch = SampleSet.concatenate(samples)

    def loss_value(params, weights):
        # identical generator per call so the latent draw replays under FD
        total, _ = _batch_loss(
            config.replace(train=weights),
            nn.param_vars(params),
            batch,
            np.random.default_rng(7),
        )
        return total

    cases = {
        "vae": TrainSettings(lambda_rec=0.0, lambda_vae=1.0, lambda_rhythm=0.0, lambda_reg=0.0),
        "reg": TrainSettings(lambda_rec=0.0, lambda_vae=0.0, lambda_rhythm=0.0, lambda_reg=1.0),
        "rhythm": TrainSettings(lambda_rec=0.0, lambda_vae=0.0, lambda_rhythm=1.0, lambda_reg=0.0),
        "total": TrainSettings(lambda_rec=1.0, lambda_vae=0.01, lambda_rhythm=1.0, lambda_reg=1.0),
    }
    h = 1e-5
    report = {}
    for name, weights in cases.items():
        pv = nn.param_vars(params)
        total, _ = _batch_loss(config.replace(train=weights), pv, batch, np.random.default_rng(7))
        total.backward()
        analytic = nn.gradients(pv)
        worst = 0.0
        for key, value in params.items():
            flat = value.reshape(-1)
            for j in range(flat.size):
                keep = flat[j]
                flat[j] = keep + h
                up = float(loss_value(params, weights).data)
                flat[j] = keep - h
                down = float(loss_value(params, weights).data)
                flat[j] = keep
                fd = (up - down) / (2 * h)
                a = analytic[key].reshape(-1)[j]
                # the absolute floor keeps FD cancellation noise on
                # parameters a term never touches (gradient exactly 0)
                # from registering as relative error
                worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-4))
        report[name] = worst
    elapsed = time.perf_counter() - t0
    summary = ", ".join(f"{k} {v:.2e}" for k, v in report.items())
    ok = max(report.values()) < 1e-3 and elapsed < 60.0
    line = (
        f"[criterion 3] {'PASS' if ok else 'FAIL'}: {n_params} params, "
        f"worst rel err: {summary}, {elapsed:.1f}s"
    )
    print("\n" + line)
    assert ok, line


def _tiny_generation_setup():
    config = sized_config(
        SPEC4, t_frames=8, d_s=3, d_e=6, d_z=3, enc_hidden=(12,), latent_hidden=(8,),
        rhythm_hidden=6, rhythm_layers=2, rhythm_kernel=3,
    )
    rng = np.random.default_rng(17)
    params = nn.init_params(param_shapes(config), rng)
    initial = rng.normal(size=(8, 8))
    audio = np.stack([rng.normal(size=(8, 3)) for _ in range(3)])
    return config, params, initial, audio


def test_criterion_4_zero_code_determinism():
    t0 = time.perf_counter()
    config, params, initial, audio = _tiny_generation_setup()

    zeros = ModeSchedule(labels=(0, 0, 0), provenance="explicit")
    runs = [
        generate_sequence(initial, audio, zeros, config, params, seeds=[s])[0]
        for s in (0, 0, 12345)
    ]
    same_seed = np.array_equal(runs[0].motion, runs[1].motion)
    seed_free = np.array_equal(runs[0].motion, runs[2].motion)  # no draws on c=0

    ones = ModeSchedule(labels=(1, 1, 1), provenance="explicit")
    motions = [
        r.motion
        for r in generate_sequence(initial, audio, ones, config, params, seeds=range(64))
    ]
    distinct = len({m.tobytes() for m in motions})
    spread = diversity(motions)
    elapsed = time.perf_counter() - t0
    ok = same_seed and seed_free and distinct == 64 and spread > 0.0 and elapsed < 60.0
    line = (
        f"[criterion 4] {'PASS' if ok else 'FAIL'}: zero-schedule repeat {same_seed}, "
        f"seed-independent {seed_free}, 64 seeds: {distinct} distinct, "
        f"diversity {spread:.4f}, {elapsed:.1f}s"
    )
    print("\n" + line)
    assert ok, line


def test_criterion_5_branch_decoupling():
    config, params, initial, audio = _tiny_generation_setup()
    schedule = ModeSchedule(labels=(0, 1, 1), provenance="explicit")
    zeroed = {k: np.zeros_like(v) if k.startswith("rhythm.") else v for k, v in params.items()}
    (with_rhythm,) = generate_sequence(initial, audio, schedule, config, params, seeds=[5])
    (without_rhythm,) = generate_sequence(initial, audio, schedule, config, zeroed, seeds=[5])
    pose_identical = all(
        np.array_equal(a, b) for a, b in zip(with_rhythm.pose, without_rhythm.pose)
    )
    composed_differ = not np.array_equal(with_rhythm.motion, without_rhythm.motion)
    ok = pose_identical and composed_differ
    line = (
        f"[criterion 5] {'PASS' if ok else 'FAIL'}: pose clips bit-identical {pose_identical}, "
        f"composed outputs differ {composed_differ}"
    )
    print("\n" + line)
    assert ok, line


def test_criterion_6_toy_training(toy_corpus):
    t0 = time.perf_counter()
    _, config, _, landmarks, audio = toy_corpus
    split, errors = build_dataset(landmarks, audio, config)
    assert errors == []
    result = train(split, config, progress=False)
    rec_first = result.history[0]["rec"]
    rec_last = result.history[-1]["rec"]
    report = evaluate_checkpoint(result.best, split.val, seed=0)
    overall = report.overall()
    elapsed = time.perf_counter() - t0
    ratio = rec_first / rec_last
    ok = (
        ratio >= 10.0
        and overall["lvd_model"] < overall["lvd_mean_velocity"]
        and elapsed < 900.0
    )
    line = (
        f"[criterion 6] {'PASS' if ok else 'FAIL'}: rec {rec_first:.4f} -> {rec_last:.4f} "
        f"({ratio:.1f}x), val lvd {overall['lvd_model']:.4f} vs "
        f"mean-velocity {overall['lvd_mean_velocity']:.4f}, {elapsed:.0f}s"
    )
    print("\n" + line)
    assert ok, line


def test_criterion_7_ablation_directions(toy_corpus):
    t0 = time.perf_counter()
    _, base_config, _, landmarks, audio = toy_corpus
    config = base_config.replace(
        train=dataclasses.replace(base_config.train, epochs=250)
    )
    split, _ = build_dataset(landmarks, audio, config)  # split fixed across seeds

    medians = {}
    for name, overrides in (
        ("full", {}),
        ("no_rhythm_loss", {"lambda_rhythm": 0.0}),
        ("no_reg_loss", {"lambda_reg": 0.0}),
    ):
        lvds, divs = [], []
        for seed in (0, 1, 2):
            cfg = config.replace(
                train=dataclasses.replace(config.train, seed=seed, **overrides)
            )
            result = train(split, cfg, progress=False)
            overall = evaluate_checkpoint(result.best, split.val, seed=0).overall()
            lvds.append(overall["lvd_model"])
            val = split.val.standardized(result.best.feature_stats)
            divs.append(
                sample_diversity(val, cfg, result.best.params, n_samples=64, seed=0)
            )
        medians[name] = (float(np.median(lvds)), float(np.median(divs)))
    elapsed = time.perf_counter() - t0
    rhythm_worse = medians["no_rhythm_loss"][0] > medians["full"][0]  # offset loss aids sync
    reg_narrower = medians["no_reg_loss"][1] < medians["full"][1]  # autoencoding aids diversity
    ok = rhythm_worse and reg_narrower
    detail = ", ".join(f"{k}: lvd {v[0]:.4f} div {v[1]:.4f}" for k, v in medians.items())
    line = (
        f"[criterion 7] {'PASS' if ok else 'FAIL'}: medians over 3 seeds: {detail}, {elapsed:.0f}s"
    )
    print("\n" + line)
    assert ok, line


def test_criterion_8_metric_oracles():
    t0 = time.perf_counter()
    col = lambda values: np.asarray(values, dtype=float)[:, None]

    ramp = np.outer(np.arange(10.0), np.array([0.3, -1.0, 2.0]))
    exact = (
        abs(lvd(col([0, 1, 3]), col([0, 2, 3])) - 1.0) < 1e-9
        and abs(diversity([np.zeros((4, 2)), np.full((4, 2), 2.0)]) - 2.0) < 1e-9
        and np.allclose(baseline_mean_velocity(col([0, 1, 3])), col([0, 1.5, 3]), atol=1e-12)
        and lvd(baseline_mean_velocity(ramp), ramp) < 1e-9
    )

    rng = np.random.default_rng(4)
    pool = []
    for phase in rng.uniform(0, 2 * np.pi, size=48):
        base = np.sin(np.arange(12) + phase)[:, None] * np.ones(4)
        pool.append(base + 0.05 * rng.normal(size=(12, 4)))
    score = quality_score(pool[:24], pool[24:], seed=0, epochs=150)
    elapsed = time.perf_counter() - t0
    ok = exact and 0.4 <= score <= 0.6 and elapsed < 120.0
    line = (
        f"[criterion 8] {'PASS' if ok else 'FAIL'}: worked examples exact {exact}, "
        f"quality self-test {score:.3f}, {elapsed:.1f}s"
    )
    print("\n" + line)
    assert ok, line


def test_criterion_9_pseudo_label_recovery(toy_corpus):
    root, config, manifest, _, _ = toy_corpus
    spec = config.joint_spec
    agree = 0
    total = 0
    for entry in manifest["segments"]:
        frames, _, _, _ = io.load_landmarks(root / "landmarks" / f"{entry['segment_id']}.npz")
        clips = chunk_sequence(frames, config.t_frames, joint_spec=spec)
        labels = label_mode_change(clips[:-1], clips[1:], spec, config.mode_threshold)
        agree += sum(int(a == b) for a, b in zip(labels, entry["mode_labels"]))
        total += len(labels)
    rate = agree / total
    ok = rate >= 0.95
    line = f"[criterion 9] {'PASS' if ok else 'FAIL'}: label agreement {agree}/{total} = {rate:.1%}"
    print("\n" + line)
    assert ok, line
