"""Self-test of the benchmark, run from the root of a checkout:

    python3 benchmarks/selftest.py

1. Every workload runs at a tiny size, untraced and traced, passes every
   check, and reports exactly the metrics BENCHMARK.json names.
2. Every output check fails when fed a deliberately perturbed output: one
   generated clip nudged, one report value changed, one loss made
   non-finite. This shows the checks are not vacuous.
3. run.py exits non-zero, printing no result, where there is no source tree.

Exits 0 when everything holds; prints each failure otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT
failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        failures.append(what)


def tiny_runs(workloads, work: Path) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in workloads.WORKLOADS:
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            session, metrics, _ = workloads.run(name, 3, 0.0, trace, work / name, workloads.TINY)
            expect(not session.problems and session.failed == 0,
                   f"{name} trace={int(trace)}: all {session.attempted} operations pass"
                   + "".join(f"\n     {p}" for p in session.problems))
            expect(sorted(metrics) == sorted(m["name"] for m in wanted)
                   and all(metrics[m["name"]][1] == m["unit"] for m in wanted),
                   f"{name} trace={int(trace)}: reports the metrics BENCHMARK.json names")


def perturbed_outputs(workloads, checks, work: Path) -> None:
    import numpy as np

    s = workloads.Session(work / "perturb", 3, workloads.TINY)
    s.set_up(True, workloads.Measurements())
    t = s.size.t_frames

    log = [json.loads(line) for line in (s.work / "setup" / "train_log.jsonl").read_text().splitlines()]
    epochs = len(log)
    expect(checks.train_log(log, epochs) == [], "train log passes as written")
    bad = [dict(r) for r in log]
    bad[0]["vae"] = math.nan
    expect(checks.train_log(bad, epochs) != [], "train log with one NaN loss fails")
    bad = [dict(r) for r in log]
    bad[-1]["rec"] = bad[0]["rec"]
    expect(checks.train_log(bad, epochs) != [], "train log whose rec did not fall fails")

    audio = s.long_audio()
    s.generate("setup", audio)
    written = []
    for i in range(workloads.N_SEEDS):
        with np.load(s.work / "motion" / f"motion_seed{s.seed + i}.npz") as npz:
            written.append(npz["frames"])
    expected = s.reference_motion("setup", audio)
    expect(checks.motion(written, expected, t) == [], "generated motion matches the reference")
    nudged = [w.copy() for w in written]
    step = len(audio.labels) - 1
    nudged[5][step * t : (step + 1) * t] += 1e-6
    expect(checks.motion(nudged, expected, t) != [], "one clip nudged by 1e-6 fails the motion check")
    first = audio.labels.index(1) if 1 in audio.labels else len(audio.labels)
    expect(first > 0, f"the tiny input has a shared prefix ({first} steps before the first c = 1)")
    nudged = [w.copy() for w in written]
    nudged[2][0, 0] = np.nextafter(nudged[2][0, 0], np.inf)
    expect(checks.shared_prefix(written, audio.labels, t) == [], "seeds share the prefix as written")
    expect(checks.shared_prefix(nudged, audio.labels, t) != [],
           "one prefix value moved by one ulp fails the prefix check")

    s.evaluate("setup")
    report = json.loads((s.work / "report.json").read_text())
    with np.load(s.data / "test.npz") as test:
        split = test["m_prev"], test["m_cur"], test["speaker"]
    expect(checks.report(report, *split) == [], "evaluate report passes as written")
    for where, key, value in (
        ("overall", "lvd_last_step", report["overall"]["lvd_last_step"] * (1 + 1e-6)),
        ("row", "lvd_mean_velocity", report["per_speaker"][0]["lvd_mean_velocity"] * (1 - 1e-6)),
        ("row", "quality", 1.5),
        ("row", "diversity", 0.0),
        ("overall", "lvd_model", math.nan),
    ):
        changed = json.loads(json.dumps(report))
        (changed["overall"] if where == "overall" else changed["per_speaker"][0])[key] = value
        expect(checks.report(changed, *split) != [], f"report with {where} {key} = {value!r} fails")


def bare_directory(work: Path) -> None:
    bare = work / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmarks").mkdir(parents=True)
    for path in Path(run.__file__).parent.glob("*.py"):
        shutil.copy(path, bare / "benchmarks")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "train-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"run.py without a source tree exits {proc.returncode} and prints no result")


def main() -> int:
    work = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    run.pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import workloads

    try:
        tiny_runs(workloads, work)
        perturbed_outputs(workloads, checks, work)
        bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
