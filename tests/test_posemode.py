"""Pose-mode branch: latent losses, sampling rules, and the embedding round trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechmotion import JointSpec, MotionClip, nn
from speechmotion.model import one_step
from speechmotion.posemode import PoseModeBranch

from oracles import (
    LatentPosterior,
    decode_motion,
    encode_motion,
    loss_reg,
    loss_vae,
    posterior,
    rhythm_generate,
    sample_latent,
    transition_feature,
)
from sizes import sized_config


def _mc_kl(mu, sigma, n=100_000, seed=0):
    """Monte-Carlo KL(N(mu, diag sigma^2) || N(0, I)) via the log-density ratio."""
    rng = np.random.default_rng(seed)
    z = mu + sigma * rng.standard_normal((n, mu.size))
    log_q = -0.5 * np.sum(((z - mu) / sigma) ** 2 + np.log(2 * np.pi) + 2 * np.log(sigma), axis=1)
    log_p = -0.5 * np.sum(z**2 + np.log(2 * np.pi), axis=1)
    return float(np.mean(log_q - log_p))


# -- loss_vae worked examples ------------------------------------------------------


def test_standard_normal_posterior_has_zero_kl():
    post = LatentPosterior(np.zeros(4), np.ones(4))
    assert loss_vae(post, 1) == 0.0


def test_unit_mean_shift_is_half():
    post = LatentPosterior(np.array([1.0]), np.array([1.0]))
    assert abs(loss_vae(post, 1) - 0.5) < 1e-12


def test_c0_norm_sum_example():
    sigma = np.array([1e-9, 1e-9])
    post = LatentPosterior(np.array([3.0, 4.0]), sigma)
    expected = 5.0 + np.linalg.norm(sigma)
    assert abs(loss_vae(post, 0) - expected) < 1e-12


def test_kl_matches_monte_carlo():
    rng = np.random.default_rng(42)
    for i in range(5):
        mu = rng.normal(size=6)
        sigma = rng.uniform(0.3, 2.0, size=6)
        closed = loss_vae(LatentPosterior(mu, sigma), 1)
        estimate = _mc_kl(mu, sigma, seed=i)
        assert abs(closed - estimate) / max(closed, 1e-12) < 0.01


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_kl_nonnegative(seed):
    rng = np.random.default_rng(seed)
    post = LatentPosterior(rng.normal(size=5), rng.uniform(0.05, 5.0, size=5))
    assert loss_vae(post, 1) >= 0.0


def test_loss_vae_validates_inputs():
    with pytest.raises(ValueError):
        loss_vae(LatentPosterior(np.zeros(2), np.array([1.0, 0.0])), 1)
    with pytest.raises(ValueError):
        loss_vae(LatentPosterior(np.zeros(2), np.ones(2)), 2)


# -- transition features ---------------------------------------------------------------


def test_transition_feature_examples():
    np.testing.assert_array_equal(transition_feature(np.ones(3), np.ones(3)), np.zeros(3))
    np.testing.assert_array_equal(
        transition_feature(np.array([1.0, 2.0]), np.array([4.0, 6.0])), [3.0, 4.0]
    )


def test_transition_feature_antisymmetry():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=4), rng.normal(size=4)
    np.testing.assert_array_equal(transition_feature(a, b), -transition_feature(b, a))


def test_transition_feature_length_mismatch():
    with pytest.raises(ValueError):
        transition_feature(np.zeros(3), np.zeros(4))


# -- branch surface -----------------------------------------------------------------------


def test_encode_decode_deterministic(tiny_pose, clip_factory):
    branch, params = tiny_pose
    clip = clip_factory(seed=1)
    e1 = encode_motion(branch, params, clip)
    e2 = encode_motion(branch, params, clip)
    np.testing.assert_array_equal(e1, e2)
    assert e1.shape == (branch.config.model.d_e,)
    d1 = decode_motion(branch, params, e1)
    d2 = decode_motion(branch, params, e1)
    np.testing.assert_array_equal(d1.frames, d2.frames)


def test_decode_is_continuous_in_embedding(tiny_pose, clip_factory):
    branch, params = tiny_pose
    e = encode_motion(branch, params, clip_factory(seed=2))
    base = decode_motion(branch, params, e).frames
    for h in (1e-4, 1e-6):
        bumped = decode_motion(branch, params, e + h).frames
        assert np.abs(bumped - base).max() < 1e3 * h  # bounded sensitivity


def test_shape_validation(tiny_pose, small_spec):
    branch, params = tiny_pose
    wrong = MotionClip(np.zeros((6, small_spec.d_m)), joint_spec=small_spec)
    with pytest.raises(ValueError):
        encode_motion(branch, params, wrong)
    with pytest.raises(ValueError):
        decode_motion(branch, params, np.zeros(branch.config.model.d_e + 1))
    with pytest.raises(ValueError):
        posterior(branch, params, np.zeros(branch.config.model.d_e + 2))


def test_posterior_deterministic_and_positive(tiny_pose):
    branch, params = tiny_pose
    rng = np.random.default_rng(9)
    for _ in range(100):
        tau = rng.normal(size=branch.config.model.d_e)
        post = posterior(branch, params, tau)
        again = posterior(branch, params, tau)
        np.testing.assert_array_equal(post.mu, again.mu)
        np.testing.assert_array_equal(post.sigma, again.sigma)
        assert (post.sigma > 0).all()


def test_posterior_rejects_non_finite(tiny_pose):
    branch, params = tiny_pose
    tau = np.zeros(branch.config.model.d_e)
    tau[0] = np.inf
    with pytest.raises(ValueError):
        posterior(branch, params, tau)


# -- latent sampling ------------------------------------------------------------------------


def test_sample_latent_c0_is_zero_and_consumes_no_randomness(tiny_pose):
    branch, _ = tiny_pose
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    z = sample_latent(branch, 0, rng=rng, mode="infer")
    np.testing.assert_array_equal(z, np.zeros(branch.config.model.d_z))
    assert rng.bit_generator.state == before
    np.testing.assert_array_equal(sample_latent(branch, 0, mode="train"), z)


def test_sample_latent_degenerate_sigma_returns_mu(tiny_pose):
    branch, _ = tiny_pose
    mu = np.arange(branch.config.model.d_z, dtype=float)
    post = LatentPosterior(mu, np.full(branch.config.model.d_z, 1e-12))
    z = sample_latent(branch, 1, post, np.random.default_rng(0), mode="train")
    assert np.abs(z - mu).max() < 1e-8


def test_sample_latent_infer_reproducible_and_standard(tiny_pose):
    branch, _ = tiny_pose
    a = sample_latent(branch, 1, rng=np.random.default_rng(7), mode="infer")
    b = sample_latent(branch, 1, rng=np.random.default_rng(7), mode="infer")
    np.testing.assert_array_equal(a, b)

    rng = np.random.default_rng(0)
    draws = np.stack([sample_latent(branch, 1, rng=rng, mode="infer") for _ in range(20000)])
    assert np.abs(draws.mean(axis=0)).max() < 0.02


def test_sample_latent_error_paths(tiny_pose):
    branch, _ = tiny_pose
    with pytest.raises(ValueError):
        sample_latent(branch, 1, mode="train", rng=np.random.default_rng(0))  # no posterior
    with pytest.raises(ValueError):
        sample_latent(branch, 1, mode="infer")  # no rng
    with pytest.raises(ValueError):
        sample_latent(branch, 0, mode="hybrid")


# -- autoencoding loss ------------------------------------------------------------------------


def test_loss_reg_zero_for_identity_autoencoder():
    spec = JointSpec(names=("nose", "neck"), hand_indices=(0,))
    branch = PoseModeBranch(
        sized_config(spec, t_frames=2, d_s=1, d_e=8, d_z=2, enc_hidden=(), latent_hidden=())
    )
    params = nn.init_params(branch.param_shapes(), np.random.default_rng(0))
    params["pose.f_enc.w0"] = np.eye(8)
    params["pose.f_enc.b0"] = np.zeros(8)
    params["pose.f_dec.w0"] = np.eye(8)
    params["pose.f_dec.b0"] = np.zeros(8)
    rng = np.random.default_rng(1)
    a = MotionClip(rng.normal(size=(2, 4)), joint_spec=spec)
    b = MotionClip(rng.normal(size=(2, 4)), joint_spec=spec)
    assert loss_reg(branch, params, a, b) == 0.0


def test_loss_reg_matches_hand_computation(tiny_pose, clip_factory):
    branch, params = tiny_pose
    a, b = clip_factory(seed=3), clip_factory(seed=4)
    got = loss_reg(branch, params, a, b)
    expected = 0.0
    for clip in (b, a):
        e = encode_motion(branch, params, clip)
        recon = decode_motion(branch, params, e)
        expected += np.abs(recon.frames - clip.frames).mean()
    assert abs(got - expected) < 1e-12


# -- one-step generation ------------------------------------------------------------------------


def _pose_step(branch, params, tiny_rhythm, prev, z):
    """Pose-mode clips of one core step from one previous clip, one row per latent code."""
    rhythm, rhythm_params = tiny_rhythm
    x_prev = prev.frames.reshape(1, -1)
    audio = np.zeros((1, prev.t, rhythm.config.mfcc.d_s))
    pose_flat, _ = one_step(branch.config, {**params, **rhythm_params}, x_prev, z, audio)
    return pose_flat.reshape(len(z), *prev.frames.shape)


def test_generate_pose_mode_c0_deterministic(tiny_pose, tiny_rhythm, clip_factory):
    branch, params = tiny_pose
    prev = clip_factory(seed=6)
    z = sample_latent(branch, 0)[None, :]
    a = _pose_step(branch, params, tiny_rhythm, prev, z)
    b = _pose_step(branch, params, tiny_rhythm, prev, z)
    np.testing.assert_array_equal(a, b)


def test_generate_pose_mode_matches_component_chain(tiny_pose, tiny_rhythm, clip_factory):
    branch, params = tiny_pose
    rhythm, rhythm_params = tiny_rhythm
    prev = clip_factory(seed=7)
    audio = np.random.default_rng(14).normal(size=(4, 3))
    seed = 13
    z_rows = np.random.default_rng(seed).standard_normal((1, branch.config.model.d_z))
    got_pose, got_offsets = one_step(
        branch.config, {**params, **rhythm_params}, prev.frames.reshape(1, -1), z_rows, audio[None],
    )

    from speechmotion import autodiff as ad
    from speechmotion import nn

    e_prev = encode_motion(branch, params, prev)
    z = sample_latent(branch, 1, rng=np.random.default_rng(seed), mode="infer")
    e_star = branch.decode_transition_v(
        nn.param_vars(params), ad.Var(z[None, :]), ad.Var(e_prev[None, :])
    ).data[0]
    expected = decode_motion(branch, params, e_star)
    np.testing.assert_array_equal(got_pose[0].reshape(prev.frames.shape), expected.frames)
    np.testing.assert_array_equal(got_offsets[0], rhythm_generate(rhythm, rhythm_params, audio).offsets)


def test_generate_pose_mode_c1_draws_differ(tiny_pose, tiny_rhythm, clip_factory):
    branch, params = tiny_pose
    prev = clip_factory(seed=8)
    z = np.stack([np.random.default_rng(s).standard_normal(branch.config.model.d_z) for s in range(12)])
    outs = _pose_step(branch, params, tiny_rhythm, prev, z)
    for i in range(len(outs)):
        for j in range(i + 1, len(outs)):
            assert np.abs(outs[i] - outs[j]).max() > 0
