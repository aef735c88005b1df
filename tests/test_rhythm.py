"""Rhythmic branch: shape contract, shift equivariance, offset loss."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechmotion import JointSpec, decompose, nn
from speechmotion.rhythm import RhythmBranch

from oracles import loss_rhythm, rhythm_generate
from sizes import sized_config

TWO_JOINTS = JointSpec(names=("nose", "neck"), hand_indices=())


def test_generate_shape_and_determinism(tiny_rhythm):
    branch, params = tiny_rhythm
    audio = np.random.default_rng(0).normal(size=(4, 3))
    a = rhythm_generate(branch, params, audio)
    b = rhythm_generate(branch, params, audio)
    assert a.shape == (4, branch.config.d_m)
    np.testing.assert_array_equal(a, b)


def test_generate_rejects_wrong_shape(tiny_rhythm):
    branch, params = tiny_rhythm
    with pytest.raises(ValueError):
        rhythm_generate(branch, params, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        rhythm_generate(branch, params, np.zeros((6, 3)))


def test_finite_output_for_random_inputs(tiny_rhythm):
    branch, params = tiny_rhythm
    rng = np.random.default_rng(1)
    for _ in range(10):
        out = rhythm_generate(branch, params, rng.normal(scale=10.0, size=(4, 3)))
        assert np.all(np.isfinite(out))


def test_circular_shift_equivariance_interior():
    # long clip so interior rows sit outside every layer's padded border
    config = sized_config(
        TWO_JOINTS, t_frames=64, d_s=3, rhythm_hidden=6, rhythm_layers=2, rhythm_kernel=5
    )
    branch = RhythmBranch(config)
    params = nn.init_params(branch.param_shapes(), np.random.default_rng(2))
    x = np.random.default_rng(3).normal(size=(64, 3))
    k = 7
    out = rhythm_generate(branch, params, x)
    out_shifted = rhythm_generate(branch, params, np.roll(x, k, axis=0))
    # receptive field reaches (kernel//2)*n_layers = 4 rows past each border
    margin = (config.model.rhythm_kernel // 2) * config.model.rhythm_layers + k
    interior = slice(margin, 64 - margin)
    assert np.abs(out_shifted[k:][interior] - out[interior]).max() < 1e-6


# -- loss ----------------------------------------------------------------------------


def test_loss_zero_for_perfect_prediction(clip_factory):
    gt = clip_factory(seed=4)
    _, offsets = decompose(gt)
    assert loss_rhythm(offsets, gt) == 0.0


def test_loss_zero_prediction_constant_clip(small_spec):
    gt = np.tile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], (4, 1))
    pred = np.zeros((4, small_spec.d_m))
    assert loss_rhythm(pred, gt) == 0.0


def test_loss_zero_prediction_two_frame_example():
    gt = np.array([[1.0, 1.0, 1.0, 1.0], [3.0, 3.0, 3.0, 3.0]])
    pred = np.zeros((2, 4))
    assert abs(loss_rhythm(pred, gt) - 1.0) < 1e-12


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_loss_invariant_to_constant_posture_shift(seed):
    rng = np.random.default_rng(seed)
    gt = rng.normal(size=(5, 4))
    pred = rng.normal(size=(5, 4))
    shift = rng.normal(scale=10.0, size=4)
    shifted = gt + shift
    assert abs(loss_rhythm(pred, gt) - loss_rhythm(pred, shifted)) < 1e-9


def test_loss_shape_mismatch(clip_factory):
    gt = clip_factory(seed=5)
    with pytest.raises(ValueError):
        loss_rhythm(np.zeros((3, 6)), gt)


def test_loss_gradient_matches_finite_differences():
    # <= 200 parameter net: conv (3*3*4 + 4) + head (4*4 + 4) = 60
    branch = RhythmBranch(sized_config(
        TWO_JOINTS, t_frames=6, d_s=3, rhythm_hidden=4, rhythm_layers=1, rhythm_kernel=3
    ))
    params = nn.init_params(branch.param_shapes(), np.random.default_rng(6))
    rng = np.random.default_rng(7)
    audio = rng.normal(size=(1, 6, 3))
    target = rng.normal(size=(1, 6, 4))

    from speechmotion import autodiff as ad

    def loss_value(p):
        out = branch.forward_v(nn.param_vars(p), ad.Var(audio))
        return float(ad.mean(ad.absolute(out - ad.Var(target))).data)

    pv = nn.param_vars(params)
    loss = ad.mean(ad.absolute(branch.forward_v(pv, ad.Var(audio)) - ad.Var(target)))
    loss.backward()

    h = 1e-5
    worst = 0.0
    for key, value in params.items():
        flat = value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_value(params)
            flat[i] = orig - h
            lo = loss_value(params)
            flat[i] = orig
            fd = (hi - lo) / (2 * h)
            an = pv[key].grad.reshape(-1)[i]
            worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-8))
    assert worst < 1e-3
