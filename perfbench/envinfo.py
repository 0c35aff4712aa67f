"""The machine and software a result was measured on."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
from pathlib import Path

import numpy as np

# Entry points that report OpenBLAS's thread count, by build flavour.
_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads_in_use():
    """Ask the loaded OpenBLAS how many threads it runs, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path):
    if not (root / ".git").exists() or shutil.which("git") is None:
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_sha256(root: Path) -> str:
    """Digest of the library sources: identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "histlstm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def collect(root: Path, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_requested": blas_threads,
        "blas_threads_in_use": _blas_threads_in_use(),
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(root),
    }
