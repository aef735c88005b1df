"""Shared fixtures: small joint specs and a tiny branch configuration.

Unit tests run on deliberately tiny networks; anything sized for real use
lives only in the acceptance suite.
"""

import numpy as np
import pytest

from speechmotion import JointSpec, nn
from speechmotion.posemode import PoseModeBranch
from speechmotion.rhythm import RhythmBranch

from sizes import sized_config


@pytest.fixture
def small_spec() -> JointSpec:
    # 3 joints -> D = 6; one hand joint for labeling rules.
    return JointSpec(names=("nose", "neck", "right_palm"), hand_indices=(2,))


@pytest.fixture
def tiny_config(small_spec):
    return sized_config(
        small_spec, t_frames=4, d_s=3, d_e=5, d_z=3, enc_hidden=(8,), latent_hidden=(6,),
        rhythm_hidden=4, rhythm_layers=2, rhythm_kernel=3,
    )


@pytest.fixture
def tiny_pose(tiny_config):
    branch = PoseModeBranch(tiny_config)
    params = nn.init_params(branch.param_shapes(), np.random.default_rng(11))
    return branch, params


@pytest.fixture
def tiny_rhythm(tiny_config):
    branch = RhythmBranch(tiny_config)
    params = nn.init_params(branch.param_shapes(), np.random.default_rng(12))
    return branch, params


@pytest.fixture
def clip_factory(small_spec):
    def make(seed: int = 0, t: int = 4, scale: float = 1.0) -> np.ndarray:
        """A (t, D) clip of random frames."""
        rng = np.random.default_rng(seed)
        return scale * rng.normal(size=(t, small_spec.d_m))

    return make
