"""Machine fingerprint stamped on every benchmark result."""

from __future__ import annotations

import glob
import os
import platform


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return ""


def _cpu() -> tuple[str, list[str]]:
    model, flags = "", []
    for line in _read("/proc/cpuinfo").splitlines():
        key, _, value = line.partition(":")
        key = key.strip()
        if key == "model name" and not model:
            model = value.strip()
        elif key == "flags" and not flags:
            flags = value.split()
    return model or platform.processor(), flags


def _caches() -> dict[str, str]:
    """Cache sizes of CPU 0 by level and type, e.g. {"L2": "2048K"}."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level"))
        kind = _read(os.path.join(index, "type"))
        size = _read(os.path.join(index, "size"))
        if level and size:
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            out[f"L{level}{suffix}"] = size
    return out


def fingerprint(blas_threads: int) -> dict:
    import numpy as np

    model, flags = _cpu()
    caches = _caches()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cpu_model": model,
        "cpu_flags": " ".join(flags),
        "nproc": len(os.sched_getaffinity(0)),
        "l2": caches.get("L2", ""),
        "l3": caches.get("L3", ""),
        "blas": blas.get("name", ""),
        "blas_version": blas.get("version", ""),
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
