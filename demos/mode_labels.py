"""Where do mode-change labels come from? Hand displacement between postures."""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np

from speechmotion import RunConfig, io, label_mode_change
from speechmotion.motion import chunk_sequence
from speechmotion.toydata import base_posture, make_toy_dataset

config = RunConfig()
spec = config.joint_spec

# the three scripted base postures differ mostly in the hands
for i in range(3):
    row = base_posture(i, spec)
    palm = row[spec.xy("right_palm")]
    print(f"posture {i}: right palm at ({palm[0]:+.2f}, {palm[1]:+.2f})")

# two clips holding the same posture: hands barely move, label 0
hold = np.tile(base_posture(0, spec), (2 * config.t_frames, 1))
hold += 0.02 * np.sin(np.arange(2 * config.t_frames) / 3)[:, None]  # wiggle, not a switch
a, b = chunk_sequence(hold, config.t_frames, joint_spec=spec)
print("hold -> label", label_mode_change(a, b, spec, config.mode_threshold))

# a switch between postures moves the hand average past the threshold
switch = np.concatenate(
    [
        np.tile(base_posture(0, spec), (config.t_frames, 1)),
        np.tile(base_posture(1, spec), (config.t_frames, 1)),
    ]
)
a, b = chunk_sequence(switch, config.t_frames, joint_spec=spec)
print("switch -> label", label_mode_change(a, b, spec, config.mode_threshold))

# on the synthetic corpus the labels recover the generation script exactly
small = config.replace(
    toy=dataclasses.replace(config.toy, speakers=1, segments_per_speaker=2)
)
with tempfile.TemporaryDirectory() as tmp:
    manifest = make_toy_dataset(tmp, small, seed=0)
    hits = total = 0
    for entry in manifest["segments"]:
        frames, _, _, _ = io.load_landmarks(
            Path(tmp) / "landmarks" / f"{entry['segment_id']}.npz"
        )
        # (n_clips, T, D): every consecutive pair labelled at once
        clips = chunk_sequence(frames, small.t_frames, joint_spec=spec)
        labels = label_mode_change(clips[:-1], clips[1:], spec, small.mode_threshold)
        hits += int(np.sum(labels == entry["mode_labels"]))
        total += len(labels)
print(f"label agreement with the script: {hits}/{total}")
