"""The host block printed with every result.

Records what makes two recordings comparable: CPU count, interpreter and
library versions, the OpenBLAS builds loaded and their thread counts, the
source revision, and every ``REPRO_*`` / ``*_NUM_THREADS`` variable — so a
pinned-BLAS or 1-CPU recording is never mistaken for an unpinned 2-CPU one.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List, Optional

__all__ = ["host_block"]

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _openblas() -> List[Dict[str, object]]:
    """Every loaded OpenBLAS library with its build string and thread count."""
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted(
                {line.split()[-1] for line in handle if "openblas" in line.lower()}
            )
    except OSError:
        return []
    found = []
    for path in paths:
        entry: Dict[str, object] = {"library": Path(path).name}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            found.append(entry)
            continue
        for symbol in _CONFIG_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                entry["config"] = fn().decode(errors="replace")
                break
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                entry["threads"] = int(fn())
                break
        found.append(entry)
    return found


def _git_sha(root: Path) -> Optional[str]:
    """HEAD's sha read from ``.git`` directly (None outside a git checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def host_block(root: Path) -> Dict[str, object]:
    """Describe this host; call after numpy/scipy are imported."""
    import numpy
    import scipy

    env = {
        key: value
        for key, value in sorted(os.environ.items())
        if key.startswith("REPRO_")
        or key.endswith("_NUM_THREADS")
        or key == "PYTHONHASHSEED"
    }
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "git_sha": _git_sha(root),
        "env": env,
    }
