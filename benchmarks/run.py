"""Benchmark of the speechmotion command line on its built-in synthetic corpus.

    python3 benchmarks/run.py --workload train-paper --seed 1 --seconds 34 --trace 0

Run from the root of a checkout; the package is imported from `src/` of
that checkout. Workloads: train-paper, train-small, generate-long (see
README.md). With `--trace 0` the end-to-end metrics are reported, with
`--trace 1` the per-layer ones. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; the line before
it records the environment. Everything the run writes goes under
`.bench_work/` in the current directory; its scratch directory is removed
at the end and a record of the run is kept in `.bench_work/records/`.

BLAS threads are capped at the number of cores the process may use before
numpy loads, so the process never runs more threads than cores.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    nproc = str(len(os.sched_getaffinity(0)))
    for name in THREAD_VARIABLES:
        os.environ[name] = nproc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train-paper", "train-small", "generate-long"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "speechmotion" / "__init__.py").is_file():
        print(f"run.py: no speechmotion package under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(src))
    import workloads  # noqa: E402  (needs the thread cap and src/ on the path first)

    seed = args.seed % 2**31  # the program's generators take non-negative seeds
    bench = ROOT / ".bench_work"
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    work = bench / f"{stem}-{os.getpid()}"
    records = bench / "records"
    records.mkdir(parents=True, exist_ok=True)
    try:
        session, metrics, record = workloads.run(
            args.workload, seed, args.seconds, bool(args.trace), work,
            spans_path=records / f"{stem}-spans.npz")
    except workloads.CommandFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (records / f"{stem}.json").write_text(
        json.dumps(record, indent=1, default=float) + "\n")
    for problem in session.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("# env " + json.dumps({**record["env"], "gemm": record["gemm"],
                                 "config_hashes": record["config_hashes"],
                                 "workload_hash": record["workload_hash"]}))
    print(json.dumps({
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
