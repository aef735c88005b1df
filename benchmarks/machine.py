"""The machine a run measured on: versions, BLAS, threads and in-run GEMM rates."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import time

import numpy as np
import scipy


def _blas_threads() -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": _blas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _rate(flops: float, run, repeats: int) -> float:
    """GFLOP/s of the fastest of `repeats` timed calls, after one warm-up call."""
    run()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return flops / best / 1e9


def gemm_rates() -> dict:
    """Peak GFLOP/s of a square float64 GEMM and of the TCN's conv-shaped GEMMs.

    The conv-shaped one is what `conv1d_same` does per layer at the paper
    size (batch 32, 64 frames, 128 channels, 5 taps): K strided
    (B, T, C) @ (C, C) products over a padded input. The fastest call is
    taken, as a roofline ceiling is a peak.
    """
    rng = np.random.default_rng(0)
    n = 768
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    batch, frames, channels, taps = 32, 64, 128, 5
    xp = rng.standard_normal((batch, frames + taps - 1, channels))
    w = rng.standard_normal((taps, channels, channels))

    def conv():
        y = np.zeros((batch, frames, channels))
        for i in range(taps):
            y += xp[:, i : i + frames] @ w[i]

    return {
        "gemm_gflops_per_s": _rate(2.0 * n**3, lambda: a @ b, 9),
        "conv_gemm_gflops_per_s": _rate(2.0 * batch * frames * channels**2 * taps, conv, 15),
    }
