"""Output checks. Each returns a list of problems; an empty list is a pass.

The checks take plain data (parsed logs, reports, arrays), so the self-test
can feed them deliberately perturbed outputs.
"""

from __future__ import annotations

import math

import numpy as np

import reference

LOSS_KEYS = ("total", "rec", "vae", "rhythm", "reg", "val_lvd")
RTOL = 1e-9  # relative tolerance of every comparison with a reference


def train_log(records: list[dict], epochs: int) -> list[str]:
    """Every logged loss is finite and the last epoch's rec is below epoch 1's."""
    if len(records) != epochs:
        return [f"{len(records)} epoch records, expected {epochs}"]
    problems = [
        f"epoch {r['epoch']}: {key} = {r[key]}"
        for r in records
        for key in LOSS_KEYS
        if r[key] is None or not math.isfinite(r[key])
    ]
    if not records[-1]["rec"] < records[0]["rec"]:
        problems.append(f"rec did not fall: {records[0]['rec']} -> {records[-1]['rec']}")
    return problems


def report(payload: dict, m_prev: np.ndarray, m_cur: np.ndarray, speakers: np.ndarray) -> list[str]:
    """Baseline LVDs match the closed form on the split; model metrics are in range."""
    last, mean = reference.lvd_baselines(m_prev, m_cur)
    problems = []
    rows = payload["per_speaker"]
    if sorted(r["speaker_id"] for r in rows) != sorted(set(speakers.tolist())):
        problems.append("report speakers differ from the split's")
    for row in rows:
        mask = speakers == row["speaker_id"]
        expected = {
            "n_samples": int(mask.sum()),
            "lvd_last_step": float(last[mask].mean()),
            "lvd_mean_velocity": float(mean[mask].mean()),
        }
        problems += _compare(row, expected, row["speaker_id"])
    problems += _compare(
        payload["overall"],
        {"n_samples": len(speakers), "lvd_last_step": float(last.mean()),
         "lvd_mean_velocity": float(mean.mean())},
        "overall",
    )
    for row in [*rows, payload["overall"]]:
        where = row.get("speaker_id", "overall")
        if not (math.isfinite(row["lvd_model"]) and row["lvd_model"] >= 0):
            problems.append(f"{where}: lvd_model {row['lvd_model']}")
        if not row["diversity"] > 0:
            problems.append(f"{where}: diversity {row['diversity']}")
        if not 0.0 <= row["quality"] <= 1.0:
            problems.append(f"{where}: quality {row['quality']}")
    return problems


def _compare(row: dict, expected: dict, where: str) -> list[str]:
    return [
        f"{where}: {key} = {row[key]!r}, closed form gives {value!r}"
        for key, value in expected.items()
        if not abs(row[key] - value) <= RTOL * abs(value)
    ]


def motion(written: list[np.ndarray], expected: np.ndarray, t_frames: int) -> list[str]:
    """Every seed's every step matches the reference to RTOL of the step's scale."""
    if len(written) != len(expected):
        return [f"{len(written)} motion files, expected {len(expected)}"]
    problems = []
    for s, (got, want) in enumerate(zip(written, expected)):
        if got.shape != want.shape:
            problems.append(f"seed {s}: shape {got.shape}, expected {want.shape}")
            continue
        for i in range(0, len(want), t_frames):
            step = slice(i, i + t_frames)
            err = np.max(np.abs(got[step] - want[step]))
            if not err <= RTOL * np.max(np.abs(want[step])):
                problems.append(f"seed {s} step {i // t_frames}: max abs error {err:.3e}")
    return problems


def shared_prefix(written: list[np.ndarray], labels, t_frames: int) -> list[str]:
    """Steps before the first c = 1 step are bit-identical across seeds."""
    first = labels.index(1) if 1 in labels else len(labels)
    rows = first * t_frames
    return [
        f"seed {s} differs from seed 0 before step {first}"
        for s in range(1, len(written))
        if not np.array_equal(written[s][:rows], written[0][:rows])
    ]
