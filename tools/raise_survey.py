"""Which `raise` statements in `src/speechmotion` does the test suite pin?

Each `raise` is replaced with `pass`, one at a time, in a copy of the tree,
and the fast suite (`pytest -q -x -m "not acceptance"`, one BLAS thread) is
run against the copy. A raise whose deletion still lets the suite pass is a
*survivor*: no test notices it is gone.

    python tools/raise_survey.py                # survey every raise, compare with the list
    python tools/raise_survey.py --write        # ... and rewrite the list's entries
    python tools/raise_survey.py --self-check   # two runs: one pinned raise, one survivor

The committed list, `tools/raise_survivors.json`, keys each survivor by
module, enclosing function and the raised expression's source (not by line
number, so edits elsewhere do not stale it), with the reason it stays. A
survey exits 1 when it finds a survivor the list does not hold, or the list
holds one the survey no longer finds. `--self-check` deletes the first raise
on the list (none, if the list is empty) and expects the suite to pass, then
the first raise off it and expects the suite to fail, so a survey that can
no longer tell the two apart fails.

Needs nothing beyond pytest. Runs at most one worker per CPU this process
may use; each worker has its own copy of the repository (without `.git`
and caches) under a temporary directory. A survey first checks that the
unchanged suite passes in a copy, and stops if it does not.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src/speechmotion")
SURVIVORS = ROOT / "tools/raise_survivors.json"
COPY_SKIPS = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work", ".benchmarks")
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-m", "not acceptance", "-p", "no:cacheprovider"]


@dataclass(frozen=True)
class Raise:
    module: str  # "io", "cli", ...
    function: str  # enclosing qualname, "<module>" at top level
    message: str  # source of the raised expression; "#2" appended to a repeat
    line: int
    start: tuple[int, int]  # (line, col) of the statement, 1-based lines
    end: tuple[int, int]

    @property
    def key(self) -> tuple[str, str, str]:
        return self.module, self.function, self.message


def find_raises(root: Path = ROOT) -> list[Raise]:
    """Every raise statement under the package, in module then line order."""
    found = []
    for path in sorted((root / PACKAGE).glob("*.py")):
        tree = ast.parse(path.read_text())
        seen: dict[tuple[str, str], int] = {}

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, scope + [child.name])
                    continue
                if isinstance(child, ast.Raise):
                    function = ".".join(scope) or "<module>"
                    message = ast.unparse(child.exc) if child.exc else "<re-raise>"
                    n = seen[function, message] = seen.get((function, message), 0) + 1
                    found.append(Raise(
                        path.stem, function, message if n == 1 else f"{message} #{n}", child.lineno,
                        (child.lineno, child.col_offset), (child.end_lineno, child.end_col_offset),
                    ))
                visit(child, scope)

        visit(tree, [])
    return sorted(found, key=lambda r: (r.module, r.line))


def without(source: str, r: Raise) -> str:
    """`source` with the raise replaced by `pass`; later lines keep their numbers."""
    lines = source.splitlines(keepends=True)
    (l0, c0), (l1, c1) = r.start, r.end
    head = "".join(lines[: l0 - 1]) + lines[l0 - 1][:c0]
    tail = lines[l1 - 1][c1:] + "".join(lines[l1:])
    return head + "pass" + "\n" * (l1 - l0) + tail


class Worker:
    """A private copy of the tree that runs the suite with one raise deleted."""

    def __init__(self, parent: Path):
        self.dir = Path(tempfile.mkdtemp(prefix="worker", dir=parent)) / "tree"
        shutil.copytree(ROOT, self.dir, ignore=shutil.ignore_patterns(*COPY_SKIPS))

    def suite_passes(self, r: Raise | None = None) -> bool:
        """Whether the suite passes with `r` deleted (with nothing deleted if None)."""
        path = self.dir / PACKAGE / f"{r.module}.py" if r else None
        original = path.read_text() if path else None
        env = {**os.environ, "PYTHONPATH": str(self.dir / "src"), "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            if path:
                path.write_text(without(original, r))
            return subprocess.run(PYTEST, cwd=self.dir, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL).returncode == 0
        finally:
            if path:
                path.write_text(original)


def survey(raises: list[Raise], jobs: int) -> set[tuple[str, str, str]]:
    """Keys of the raises whose deletion the suite does not notice."""
    with tempfile.TemporaryDirectory(prefix="raise_survey") as tmp:
        free = queue.SimpleQueue()  # workers not running a suite
        for _ in range(jobs):
            free.put(Worker(Path(tmp)))
        baseline = free.get()
        if not baseline.suite_passes():
            sys.exit(f"the unchanged suite fails in a copy of {ROOT}; nothing to survey")
        free.put(baseline)
        start = time.monotonic()

        def run(numbered: tuple[int, Raise]) -> bool:
            i, r = numbered
            worker = free.get()
            try:
                passed = worker.suite_passes(r)
            finally:
                free.put(worker)
            print(f"[{i + 1}/{len(raises)} {time.monotonic() - start:.0f}s] {r.module}:{r.line} {r.function}:"
                  f" {'SURVIVES' if passed else 'pinned'}", file=sys.stderr, flush=True)
            return passed

        with ThreadPoolExecutor(jobs) as pool:
            passes = list(pool.map(run, enumerate(raises)))
    return {r.key for r, passed in zip(raises, passes) if passed}


def load_list() -> list[dict]:
    return json.loads(SURVIVORS.read_text()) if SURVIVORS.exists() else []


def counts(raises: list[Raise], survivors: set) -> dict[str, str]:
    modules = sorted({r.module for r in raises})
    return {m: f"{sum(r.key in survivors for r in raises if r.module == m)}/"
               f"{sum(r.module == m for r in raises)}" for m in modules}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the list from this survey")
    parser.add_argument("--self-check", action="store_true", help="two runs instead of the survey")
    args = parser.parse_args(argv)
    raises = find_raises()
    listed = load_list()
    listed_keys = {(e["module"], e["function"], e["message"]) for e in listed}

    if args.self_check:
        pinned = next(r for r in raises if r.key not in listed_keys)
        # the survivor first: the suite passing shows the copy runs at all
        survivor = next((r for r in raises if r.key in listed_keys), None)
        failures = 0
        with tempfile.TemporaryDirectory(prefix="raise_survey") as tmp:
            worker = Worker(Path(tmp))
            for r, expect_pass in ((survivor, True), (pinned, False)):
                passed = worker.suite_passes(r)
                failures += passed != expect_pass
                what = f"without {r.module}:{r.line} {r.function} ({r.message})" if r else "unchanged"
                print(f"{'ok' if passed == expect_pass else 'FAIL'}: {what}, the suite"
                      f" {'passes' if passed else 'fails'}, expected it to {'pass' if expect_pass else 'fail'}")
        return 1 if failures else 0

    survivors = survey(raises, len(os.sched_getaffinity(0)))
    print(f"{len(survivors)} of {len(raises)} raises survive; by module: "
          + ", ".join(f"{m} {c}" for m, c in counts(raises, survivors).items()))
    new = [r for r in raises if r.key in survivors and r.key not in listed_keys]
    gone = [e for e in listed if (e["module"], e["function"], e["message"]) not in survivors]
    for r in new:
        print(f"not on the list: {r.module}:{r.line} {r.function}: {r.message}")
    for e in gone:
        print(f"on the list, no longer surviving: {e['module']} {e['function']}: {e['message']}")
    if args.write:
        reasons = {(e["module"], e["function"], e["message"]): e["reason"] for e in listed}
        entries = [{"module": r.module, "function": r.function, "message": r.message,
                    "reason": reasons.get(r.key, "TODO")} for r in raises if r.key in survivors]
        SURVIVORS.write_text(json.dumps(entries, indent=2) + "\n")
        print(f"wrote {SURVIVORS.relative_to(ROOT)}")
    return 1 if new or gone else 0


if __name__ == "__main__":
    sys.exit(main())
