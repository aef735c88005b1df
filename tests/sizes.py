"""One RunConfig sized for a small test network.

Both branches read their sizes from a RunConfig, so every hand-built test
branch starts here: the joint spec fixes D_M, `d_s` fixes the MFCC row
width and the remaining keywords are `ModelSettings` fields.
"""

from speechmotion import JointSpec, MfccSettings, ModelSettings, RunConfig


def sized_config(spec: JointSpec, *, t_frames: int, d_s: int, **model) -> RunConfig:
    return RunConfig(
        t_frames=t_frames,
        joint_names=spec.names,
        hand_joints=tuple(spec.names[i] for i in spec.hand_indices),
        mfcc=MfccSettings(n_mfcc=d_s, deltas=False),
        model=ModelSettings(**model),
    )
