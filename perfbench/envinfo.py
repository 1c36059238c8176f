"""The environment block written into every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches():
    """{'L2': size, 'L3': size} of the first CPU's data/unified caches."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def _blas():
    """Vendor of numpy's BLAS and the thread count each loaded OpenBLAS reports."""
    import numpy as np

    info = {"vendor": None, "threads": {}}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["vendor"] = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"][os.path.basename(lib)] = fn()
                break
    return info


def _git_commit(root: Path):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy
    import yaml

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "ram_gib": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 ** 30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas": _blas(),
        "curvband_threads_set": "CURVBAND_THREADS" in os.environ,
        "git_commit": _git_commit(root),
        "seed": seed,
    }
