"""Shared fixtures: small joint specs and tiny branch configurations.

Unit tests run on deliberately tiny networks; anything sized for real use
lives only in the acceptance suite.
"""

import numpy as np
import pytest

from speechmotion import JointSpec, MotionClip, nn
from speechmotion.posemode import PoseModeBranch, PoseModeConfig
from speechmotion.rhythm import RhythmBranch, RhythmConfig


@pytest.fixture
def small_spec() -> JointSpec:
    # 3 joints -> D = 6; one hand joint for labeling rules.
    return JointSpec(names=("nose", "neck", "right_palm"), hand_indices=(2,))


@pytest.fixture
def tiny_pose(small_spec):
    config = PoseModeConfig(
        t_frames=4,
        d_m=small_spec.d_m,
        d_e=5,
        d_z=3,
        enc_hidden=(8,),
        latent_hidden=(6,),
    )
    branch = PoseModeBranch(config, fps=15.0, joint_spec=small_spec)
    params = nn.init_params(branch.param_shapes(), np.random.default_rng(11))
    return branch, params


@pytest.fixture
def tiny_rhythm(small_spec):
    config = RhythmConfig(
        t_frames=4, d_s=3, d_m=small_spec.d_m, hidden=4, n_layers=2, kernel=3
    )
    branch = RhythmBranch(config)
    params = nn.init_params(branch.param_shapes(), np.random.default_rng(12))
    return branch, params


@pytest.fixture
def clip_factory(small_spec):
    def make(seed: int = 0, t: int = 4, scale: float = 1.0) -> MotionClip:
        rng = np.random.default_rng(seed)
        return MotionClip(
            scale * rng.normal(size=(t, small_spec.d_m)), fps=15.0, joint_spec=small_spec
        )

    return make
