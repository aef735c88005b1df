"""Split motion clips into posture and rhythm, then trade the rhythm."""

import numpy as np

from speechmotion import compose, decompose, swap_dynamics

# two (T, D) clips of three joints (nose, neck, right palm) with visibly
# different postures and different wiggle
t = np.arange(32)
calm = np.tile([0.0, 1.0, 0.0, 0.0, 0.6, -0.8], (32, 1))
calm[:, 4] += 0.05 * np.sin(2 * np.pi * t / 16)
excited = np.tile([0.0, 1.0, 0.0, 0.0, 0.9, 0.5], (32, 1))
excited[:, 4] += 0.25 * np.sin(2 * np.pi * t / 4)

posture, offsets = decompose(calm)
print("posture of calm (palm x, y):", posture[4:6])
print("offset column means:", offsets.mean(axis=0).round(12))
print("round trip exact:", np.array_equal(compose(posture, offsets), calm))

# a (N, T, D) stack decomposes in one call, clip by clip
postures, _ = decompose(np.stack([calm, excited]))
print("stacked postures match:", np.array_equal(postures[0], posture))

# swapping keeps each clip's mean posture but moves the oscillation across
sa, sb = swap_dynamics(calm, excited)
print("calm still has its posture:", np.allclose(sa.mean(axis=0), calm.mean(axis=0)))
print("calm now has excited's wiggle amplitude:", float(np.ptp(sa[:, 4])))
print("excited now has calm's wiggle amplitude:", float(np.ptp(sb[:, 4])))

back_a, back_b = swap_dynamics(sa, sb)
print("swap twice returns the originals:", np.allclose(back_a, calm) and np.allclose(back_b, excited))
