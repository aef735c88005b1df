"""Spans and counts around the layers of the speechmotion package.

The tracer wraps, from outside the package, every public function and
every public method of each `speechmotion` module, at each name a caller
looks it up by: `cli.generate_sequence` as well as
`generation.generate_sequence`, `toydata.save_landmarks` as well as
`io.save_landmarks`, `nn.Adam.step`, `rhythm.RhythmBranch.forward_v`, ...
A call made through a reference stored before wrapping (the activation
table in `nn`, for one) is not seen. `autodiff.Var.__init__` is counted,
not timed, to give the number of tape nodes built.

Spans (name, start, end, parent span, phase) and counts are kept in memory
while recording and written out once at the end with `save`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import pkgutil
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self, package):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.counts: dict[str, Counter] = {}
        self._stack: list[int] = []
        self._phase = ""
        self._patches: list[tuple] = []  # (owner, attribute, original, wrapper)
        self._hooks = {
            "generation.generate_sequence": lambda a: self._count(
                "generation.steps", len(a["schedule"])),
            "audio.extract_mfcc": lambda a: self._count(
                "audio.mfcc_audio_s", len(a["waveform"]) / a["sample_rate_hz"]),
            "io.save_split": lambda a: self._count("io.split_bytes", os.path.getsize(a["path"])),
        }
        self._install_plan(package)

    # -- wrapping --------------------------------------------------------------

    def _install_plan(self, package) -> None:
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if not info.name.startswith("_")
        ]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{name}")
                elif inspect.isclass(obj):
                    for attr, fn in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            self._patches.append(
                                (obj, attr, fn, self._wrap(fn, f"{short}.{name}.{attr}")))
        for mod in modules:
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patches.append((mod, name, obj, wrappers[id(obj)]))

        var = package.autodiff.Var
        init = var.__init__

        def counted_init(node, *args, **kwargs):
            self._count("autodiff.vars_created", 1)
            init(node, *args, **kwargs)

        self._patches.append((var, "__init__", init, counted_init))

    def _wrap(self, fn, name: str):
        index = len(self.names)
        self.names.append(name)
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[span] = (index, start, time.perf_counter(), parent, self._phase)
                stack.pop()
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments)
            return result

        return wrapper

    def _count(self, name: str, amount) -> None:
        self.counts.setdefault(self._phase, Counter())[name] += amount

    @contextlib.contextmanager
    def recording(self, phase: str):
        """Wrappers are installed only inside this context; spans carry `phase`."""
        self._phase = phase
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def totals(self, phase: str) -> dict[str, dict]:
        """Per span name in one phase: calls, inclusive seconds, self seconds."""
        out: dict[str, dict] = {}
        child = Counter()
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (index, start, end, _, span_phase) in enumerate(self.spans):
            if span_phase != phase:
                continue
            row = out.setdefault(self.names[index], {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        for name, value in self.counts.get(phase, {}).items():
            out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})["count"] = value
        return out

    def save(self, path) -> None:
        spans = np.array([s[:4] for s in self.spans], dtype=np.float64).reshape(-1, 4)
        phases = np.array([s[4] for s in self.spans], dtype=str)
        np.savez_compressed(path, names=np.array(self.names), name_index=spans[:, 0].astype(int),
                            start=spans[:, 1], end=spans[:, 2], parent=spans[:, 3].astype(int),
                            phase=phases)
