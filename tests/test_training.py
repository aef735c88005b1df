"""Objective assembly, dataset splitting, and the optimization loop."""

import hashlib
import json

import numpy as np
import pytest

from speechmotion import (
    DEFAULT_JOINTS,
    DataError,
    DatasetSplit,
    FeatureStats,
    JointSpec,
    MotionClip,
    NumericError,
    RunConfig,
    SampleSet,
    build_dataset,
    make_toy_dataset,
    train,
    validation_lvd,
)
from speechmotion import autodiff as ad
from speechmotion import nn
from speechmotion.config import ModelSettings, ToySettings, TrainSettings
from speechmotion.model import param_shapes
from speechmotion.posemode import PoseModeBranch
from speechmotion.rhythm import RhythmBranch
from speechmotion.training import _batch_loss

import oracles
from oracles import encode_motion, loss_vae, posterior, total_loss
from sizes import sized_config

SPEC = JointSpec(names=("nose", "neck", "right_palm"), hand_indices=(2,))


def _tiny_model(seed=0):
    config = sized_config(
        SPEC, t_frames=4, d_s=3, d_e=5, d_z=3, enc_hidden=(8,), latent_hidden=(6,),
        rhythm_hidden=4, rhythm_layers=2, rhythm_kernel=3,
    )
    return config, nn.init_params(param_shapes(config), np.random.default_rng(seed))


def _sample(seed=0, c=0):
    rng = np.random.default_rng(seed)
    return SampleSet(
        m_prev=rng.normal(size=(1, 4, 6)),
        m_cur=rng.normal(size=(1, 4, 6)),
        audio=rng.normal(size=(1, 4, 3)),
        c=[c],
        speaker=["s"],
        segment=["seg"],
    )


# -- loss weights --------------------------------------------------------------------


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        TrainSettings(lambda_rec=-0.1)


# -- total_loss ----------------------------------------------------------------------


def test_all_weights_zero_gives_zero():
    config, params = _tiny_model()
    total, breakdown = total_loss(
        _sample(), config, params, TrainSettings(lambda_rec=0.0, lambda_vae=0.0, lambda_rhythm=0.0, lambda_reg=0.0)
    )
    assert total == 0.0
    assert breakdown == {"rec": 0.0, "vae": 0.0, "rhythm": 0.0, "reg": 0.0}


def test_perfect_model_on_zero_clip_reconstructs():
    config, params = _tiny_model()
    params = {k: np.zeros_like(v) for k, v in params.items()}
    zero = SampleSet(
        m_prev=np.zeros((1, 4, 6)),
        m_cur=np.zeros((1, 4, 6)),
        audio=np.zeros((1, 4, 3)),
        c=[0],
        speaker=["s"],
        segment=["seg"],
    )
    total, breakdown = total_loss(
        zero, config, params, TrainSettings(lambda_rec=1.0, lambda_vae=0.0, lambda_rhythm=0.0, lambda_reg=0.0)
    )
    assert total == 0.0
    assert breakdown["rec"] == 0.0


def test_breakdown_additivity():
    config, params = _tiny_model()
    weights = TrainSettings(lambda_rec=1.0, lambda_vae=0.01, lambda_rhythm=1.0, lambda_reg=1.0)
    for c, seed in ((0, 1), (1, 2)):
        total, breakdown = total_loss(
            _sample(seed, c), config, params, weights, rng=np.random.default_rng(0)
        )
        weighted = (
            weights.lambda_rec * breakdown["rec"]
            + weights.lambda_vae * breakdown["vae"]
            + weights.lambda_rhythm * breakdown["rhythm"]
            + weights.lambda_reg * breakdown["reg"]
        )
        assert abs(total - weighted) < 1e-9


def test_weight_zeroing_identity():
    # weighted total with one lambda zeroed equals the sum of the other terms
    config, params = _tiny_model()
    full = TrainSettings(lambda_rec=1.0, lambda_vae=1.0, lambda_rhythm=1.0, lambda_reg=1.0)
    sample = _sample(3, c=1)
    _, breakdown = total_loss(sample, config, params, full, rng=np.random.default_rng(5))
    for dropped in ("rec", "vae", "rhythm", "reg"):
        weights = TrainSettings(
            **{f"lambda_{k}": 0.0 if k == dropped else 1.0 for k in ("rec", "vae", "rhythm", "reg")}
        )
        total, sub = total_loss(sample, config, params, weights, rng=np.random.default_rng(5))
        assert sub[dropped] == 0.0
        expected = sum(breakdown[k] for k in breakdown if k != dropped)
        assert abs(total - expected) < 1e-9


def test_indicator_semantics_of_vae_term(tiny_pose=None):
    config, params = _tiny_model()
    pose = PoseModeBranch(config)
    for c in (0, 1):
        sample = _sample(seed=4, c=c)
        _, breakdown = total_loss(
            sample, config, params, TrainSettings(lambda_rec=0.0, lambda_vae=1.0, lambda_rhythm=0.0, lambda_reg=0.0)
        )
        e_prev = encode_motion(pose, params, MotionClip(sample.m_prev[0], joint_spec=SPEC))
        e_cur = encode_motion(pose, params, MotionClip(sample.m_cur[0], joint_spec=SPEC))
        post = posterior(pose, params, e_cur - e_prev)
        assert abs(breakdown["vae"] - loss_vae(post, c)) < 1e-9


def test_total_loss_matches_hand_traced_forward():
    config, params = _tiny_model(seed=9)
    sample = _sample(seed=10, c=1)
    weights = TrainSettings(lambda_rec=1.0, lambda_vae=0.01, lambda_rhythm=1.0, lambda_reg=1.0)
    got_total, got_parts = total_loss(
        sample, config, params, weights, rng=np.random.default_rng(21)
    )

    # independent forward pass in plain numpy
    def mlp(prefix, x, n_layers):
        for i in range(n_layers):
            x = x @ params[f"{prefix}.w{i}"] + params[f"{prefix}.b{i}"]
            if i < n_layers - 1:
                x = np.tanh(x)
        return x

    x_prev = sample.m_prev.reshape(1, -1)
    x_cur = sample.m_cur.reshape(1, -1)
    e_prev = mlp("pose.f_enc", x_prev, 2)
    e_cur = mlp("pose.f_enc", x_cur, 2)
    stats = mlp("pose.h_enc", e_cur - e_prev, 2)
    mu, logvar = stats[:, :3], stats[:, 3:]

    vae = float(0.5 * np.sum(mu**2 + np.exp(logvar) - 1.0 - logvar))

    eps = np.random.default_rng(21).standard_normal((1, 3))
    z = mu + np.exp(0.5 * logvar) * eps
    e_star = mlp("pose.h_dec", np.concatenate([z, e_prev], axis=1), 2)
    pose_flat = mlp("pose.f_dec", e_star, 2)

    audio = sample.audio
    h = audio
    for i in range(2):
        w, b_ = params[f"rhythm.conv{i}.w"], params[f"rhythm.conv{i}.b"]
        pad = np.pad(h, ((0, 0), (1, 1), (0, 0)))
        h = sum(pad[:, k : k + 4] @ w[k] for k in range(3)) + b_
        h = np.tanh(h)
    rhythm_out = h @ params["rhythm.head.w"] + params["rhythm.head.b"]
    rhythm_flat = rhythm_out.reshape(1, -1)

    rec = float(np.abs(pose_flat + rhythm_flat - x_cur).mean())
    gt_off = sample.m_cur[0] - sample.m_cur[0].mean(axis=0)
    rhythm_term = float(np.abs(rhythm_out[0] - gt_off).mean())
    reg = float(
        np.abs(mlp("pose.f_dec", e_cur, 2) - x_cur).mean()
        + np.abs(mlp("pose.f_dec", e_prev, 2) - x_prev).mean()
    )
    expected_total = rec + 0.01 * vae + rhythm_term + reg

    assert abs(got_parts["rec"] - rec) < 1e-6
    assert abs(got_parts["vae"] - vae) < 1e-6
    assert abs(got_parts["rhythm"] - rhythm_term) < 1e-6
    assert abs(got_parts["reg"] - reg) < 1e-6
    assert abs(got_total - expected_total) < 1e-6


def test_c1_reconstruction_needs_rng():
    config, params = _tiny_model()
    with pytest.raises(ValueError):
        total_loss(_sample(c=1), config, params, TrainSettings(lambda_rec=1.0, lambda_vae=0.0, lambda_rhythm=0.0, lambda_reg=0.0))


# -- dataset assembly ------------------------------------------------------------------


def _toy_config(**kwargs):
    defaults = dict(
        t_frames=16,
        toy=ToySettings(speakers=2, segments_per_speaker=5, clips_per_segment=5),
        model=ModelSettings(
            d_e=8, d_z=4, enc_hidden=(16,), latent_hidden=(8,), rhythm_hidden=8, rhythm_layers=2
        ),
        train=TrainSettings(epochs=2, batch_size=8, lr=1e-3),
    )
    defaults.update(kwargs)
    return RunConfig().replace(**defaults)


@pytest.fixture(scope="module")
def toy_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    config = _toy_config()
    make_toy_dataset(out, config, seed=0)
    landmarks = sorted((out / "landmarks").glob("*.npz"))
    audio = sorted((out / "audio").glob("*.wav"))
    return out, config, landmarks, audio


def test_build_dataset_counts_and_determinism(toy_corpus):
    _, config, landmarks, audio = toy_corpus
    split_a, errors_a = build_dataset(landmarks, audio, config)
    split_b, errors_b = build_dataset(landmarks, audio, config)
    assert errors_a == errors_b == []
    # 10 segments -> 8 train, 1 val, 1 test; 4 samples per 5-clip segment
    assert len(split_a.train) == 32
    assert len(split_a.val) == 4
    assert len(split_a.test) == 4
    np.testing.assert_array_equal(split_a.train.m_cur, split_b.train.m_cur)
    np.testing.assert_array_equal(split_a.train.segment, split_b.train.segment)
    np.testing.assert_array_equal(split_a.train.c, split_b.train.c)


def test_split_segments_disjoint(toy_corpus):
    _, config, landmarks, audio = toy_corpus
    split, _ = build_dataset(landmarks, audio, config)
    groups = [set(split.train.segment), set(split.val.segment), set(split.test.segment)]
    assert not (groups[0] & groups[1] or groups[0] & groups[2] or groups[1] & groups[2])


def test_labels_match_pseudo_rule(toy_corpus):
    _, config, landmarks, audio = toy_corpus
    split, _ = build_dataset(landmarks, audio, config)
    every = SampleSet.concatenate([split.train, split.val, split.test])
    for prev, cur, c in zip(every.m_prev, every.m_cur, every.c):
        assert c == oracles.pair_label(prev, cur, config.joint_spec, config.mode_threshold)


def test_single_pair_segment(tmp_path):
    # one segment of exactly 2 clips -> one sample
    config = _toy_config(toy=ToySettings(speakers=1, segments_per_speaker=1, clips_per_segment=2))
    make_toy_dataset(tmp_path, config, seed=1)
    split, errors = build_dataset(
        sorted((tmp_path / "landmarks").glob("*.npz")),
        sorted((tmp_path / "audio").glob("*.wav")),
        config,
    )
    assert errors == []
    assert len(split.train) + len(split.val) + len(split.test) == 1


def test_short_segment_reported_not_fatal(tmp_path, toy_corpus):
    src, config, landmarks, audio = toy_corpus
    # corrupt one landmark file to be shorter than two clips
    import shutil

    from speechmotion import io as smio

    work = tmp_path / "data"
    shutil.copytree(src, work)
    victim = sorted((work / "landmarks").glob("*.npz"))[0]
    frames, fps, spec, meta = smio.load_landmarks(victim)
    smio.save_landmarks(victim, frames[: config.t_frames], fps, spec, meta)
    split, errors = build_dataset(
        sorted((work / "landmarks").glob("*.npz")),
        sorted((work / "audio").glob("*.wav")),
        config,
    )
    assert len(errors) == 1 and victim.name in errors[0]
    assert len(split.train) > 0


def test_unpaired_files_reported(toy_corpus):
    _, config, landmarks, audio = toy_corpus
    split, errors = build_dataset(landmarks, audio[:-1], config)
    assert len(errors) == 1
    assert audio[-1].stem in errors[0]


def test_empty_inputs_is_data_error():
    with pytest.raises(DataError):
        build_dataset([], [], _toy_config())


def test_dataset_split_rejects_leaky_segments():
    a, b = _sample(1), _sample(2)
    with pytest.raises(ValueError):
        DatasetSplit(train=a, val=b, test=a[:0], feature_stats=None)


# -- sample sets and batches ---------------------------------------------------------------


def _sample_set(n=3, t=4, **changes):
    rng = np.random.default_rng(n)
    arrays = dict(
        m_prev=rng.normal(size=(n, t, 6)),
        m_cur=rng.normal(size=(n, t, 6)),
        audio=rng.normal(size=(n, t, 3)),
        c=[i % 2 for i in range(n)],
        speaker=[f"spk{i % 2}" for i in range(n)],
        segment=[f"seg{i}" for i in range(n)],
    )
    arrays.update(changes)
    return SampleSet(**arrays)


def test_sample_set_holds_read_only_copies():
    m_prev = np.zeros((3, 4, 6))
    samples = _sample_set(m_prev=m_prev)
    m_prev[0] = 1.0
    assert not samples.m_prev.any()
    with pytest.raises(ValueError):
        samples.m_prev[0, 0, 0] = 1.0
    rows = samples[[2, 0]]
    np.testing.assert_array_equal(rows.audio, samples.audio[[2, 0]])
    assert list(rows.segment) == ["seg2", "seg0"] and len(samples[:0]) == 0


@pytest.mark.parametrize("name", ["m_prev", "m_cur", "audio"])
def test_sample_set_rejects_non_finite_values(name):
    values = getattr(_sample_set(), name).copy()
    values[1, 2, 0] = np.inf
    with pytest.raises(DataError, match=f"{name} contains non-finite values"):
        _sample_set(**{name: values})


def test_sample_set_rejects_labels_other_than_0_or_1():
    with pytest.raises(ValueError, match="mode label must be 0 or 1, got -1"):
        _sample_set(c=[0, -1, 1])


def test_sample_set_rejects_rows_or_frames_that_disagree():
    with pytest.raises(ValueError, match=r"speaker has shape \(2,\), expected 1-D with 3 rows"):
        _sample_set(speaker=["a", "b"])
    with pytest.raises(ValueError, match=r"clip shapes disagree: .* audio \(3, 5, 3\)"):
        _sample_set(audio=np.zeros((3, 5, 3)))
    with pytest.raises(ValueError, match=r"clip shapes disagree: m_prev \(3, 4, 4\)"):
        _sample_set(m_prev=np.zeros((3, 4, 4)))


@pytest.mark.parametrize("t", [4, 16, 64])
def test_batches_match_per_sample_stacking(t):
    """Rows of the once-standardized set, and the rhythm targets the objective
    builds from them, are the batches stacked sample by sample."""
    rng = np.random.default_rng(t)
    n = 40
    samples = _sample_set(
        n=n,
        t=t,
        m_prev=rng.normal(size=(n, t, 24)) + rng.normal(scale=3.0, size=(n, 1, 24)),
        m_cur=rng.normal(size=(n, t, 24)) + rng.normal(scale=3.0, size=(n, 1, 24)),
        audio=rng.normal(-4.0, 5.0, size=(n, t, 26)),
        speaker=[f"spk{i % 3}" for i in range(n)],
    )
    train_rows = samples.speaker != "spk2"  # spk2 is unseen: standardized by the pooled row
    stats = FeatureStats.fit({
        str(spk): samples.audio[samples.speaker == spk].reshape(-1, 26)
        for spk in np.unique(samples.speaker[train_rows])
    })
    whole = samples.standardized(stats)
    # only the rhythm term, whose target is the one thing the objective derives
    config = sized_config(
        DEFAULT_JOINTS, t_frames=t, d_s=26, d_e=4, d_z=2, enc_hidden=(), latent_hidden=(),
        rhythm_hidden=4, rhythm_layers=1,
    ).replace(train=TrainSettings(lambda_rec=0.0, lambda_vae=0.0, lambda_reg=0.0))
    pv = nn.param_vars(nn.init_params(param_shapes(config), np.random.default_rng(0)))
    for size in (1, 5, 16, 32):
        idx = rng.permutation(n)[:size]
        got, (expected, targets) = whole[idx], oracles.make_batch(samples, idx, stats)
        for field in ("m_prev", "m_cur", "audio", "c"):
            assert np.array_equal(getattr(got, field), getattr(expected, field)), field
        _, parts = _batch_loss(config, pv, got, None)
        offsets = RhythmBranch(config).forward_v(pv, ad.Var(got.audio)).data.reshape(size, -1)
        assert parts["rhythm"] == np.mean(np.abs(offsets - targets))


# -- training loop -------------------------------------------------------------------------


def _digest(params) -> str:
    h = hashlib.sha256()
    for key, value in params.items():
        h.update(key.encode())
        h.update(str(value.shape).encode())
        h.update(value.tobytes())
    return h.hexdigest()


def test_init_values_pinned():
    """Initial weights of the small CLI-test model and of the quality classifier.

    The digests were recorded from the per-layer draws that `nn.init_params`
    replaced; a change here changes every trained checkpoint.
    """
    base = RunConfig()
    config = base.replace(
        t_frames=16,
        model=ModelSettings(d_e=8, d_z=4, enc_hidden=(16,), latent_hidden=(8,),
                            rhythm_hidden=8, rhythm_layers=2),
    )
    params = nn.init_params(param_shapes(config), np.random.default_rng(0))
    assert len(params) == 22
    assert _digest(params) == "537e42c867bfa170f6df5338e98fcf5ab0fe7a4ae0301504b29e8b52dc8aa5a1"
    quality = nn.TemporalConv(c_in=24, c_out=1, hidden=8, n_layers=2, kernel=5)
    params = nn.init_params(quality.param_shapes(), np.random.default_rng(1))
    assert _digest(params) == "ada5cce229443b80704439e0c65e6c15a9a0c5f8464dfec16b3ec8357e703913"



def test_train_reproducible_and_logs(toy_corpus, tmp_path):
    _, config, landmarks, audio = toy_corpus
    split, _ = build_dataset(landmarks, audio, config)
    log = tmp_path / "log.jsonl"
    r1 = train(split, config, log_path=log)
    r2 = train(split, config)
    assert r1.history[0]["total"] == r2.history[0]["total"]  # bit-identical rerun
    assert abs(r1.history[0]["total"] - r2.history[0]["total"]) < 1e-6
    p1, p2 = r1.final.params, r2.final.params
    for key in p1:
        np.testing.assert_array_equal(p1[key], p2[key])

    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(lines) == config.train.epochs
    assert {"epoch", "total", "rec", "vae", "rhythm", "reg", "val_lvd"} <= set(lines[0])
    assert r1.final.epoch == config.train.epochs
    assert r1.best.val_lvd is not None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_train_divergence_aborts(toy_corpus):
    _, config, landmarks, audio = toy_corpus
    split, _ = build_dataset(landmarks, audio, config)
    bad = config.replace(train=TrainSettings(epochs=3, batch_size=8, lr=1e9))
    with pytest.raises(NumericError):
        train(split, bad)


def test_train_non_finite_gradient_aborts_naming_parameter(toy_corpus, monkeypatch):
    _, config, landmarks, audio = toy_corpus
    split, _ = build_dataset(landmarks, audio, config)
    real_gradients = nn.gradients

    def poisoned(pv):
        grads = real_gradients(pv)
        grads["rhythm.conv1.w"][0, 0, 0] = np.nan
        return grads

    monkeypatch.setattr(nn, "gradients", poisoned)
    with pytest.raises(NumericError, match=r"rhythm\.conv1\.w .*epoch 1 step 0"):
        train(split, config)


def test_batch_loss_leaf_gradients_match_intact_graph_walk(toy_corpus):
    """The consuming `backward` gives the leaves what the intact walk gives."""
    _, config, landmarks, audio = toy_corpus
    split, _ = build_dataset(landmarks, audio, config)
    params = nn.init_params(param_shapes(config), np.random.default_rng(4))
    batch = split.train[:8].standardized(split.feature_stats)
    assert set(batch.c) == {0, 1}
    grads = []
    for walk in (ad.Var.backward, oracles.backward):
        pv = nn.param_vars(params)
        total, _ = _batch_loss(config, pv, batch, np.random.default_rng(5), 0.5)
        walk(total)
        grads.append(nn.gradients(pv))
    for key in params:
        assert np.array_equal(grads[0][key], grads[1][key]), key


def test_train_loss_decreases(toy_corpus):
    _, config, landmarks, audio = toy_corpus
    split, _ = build_dataset(landmarks, audio, config)
    result = train(split, config.replace(train=TrainSettings(epochs=10, batch_size=8, lr=3e-3)))
    assert result.history[-1]["total"] < result.history[0]["total"]


def test_validation_lvd_empty_is_nan():
    config, params = _tiny_model()
    assert np.isnan(validation_lvd([], config, params, seed=0))


def test_validation_lvd_positive(toy_corpus):
    _, config, landmarks, audio = toy_corpus
    split, _ = build_dataset(landmarks, audio, config)
    sized = sized_config(
        config.joint_spec, t_frames=16, d_s=26, d_e=8, d_z=4, enc_hidden=(16,),
        latent_hidden=(8,), rhythm_hidden=8, rhythm_layers=2,
    )
    rng = np.random.default_rng(0)
    value = validation_lvd(
        split.val.standardized(split.feature_stats), sized,
        nn.init_params(param_shapes(sized), rng),
        seed=0,
    )
    assert value > 0
