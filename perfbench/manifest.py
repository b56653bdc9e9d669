"""Environment manifest written into every result.

Flop and byte figures elsewhere in the result are computed from shapes.
No bandwidth is reported: the VM reports a 300 MiB L3, so a bandwidth
test with arrays of at least 4x the last-level cache is not meaningful
on it.
"""

import hashlib
import os
import platform
import subprocess
import sys

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_sha(root):
    """HEAD of the repository rooted at root, else None (benchmark
    checkouts are not git repositories, and git is not asked to look
    above root)."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_sha256(root):
    """sha256 over the package sources, in path order: identifies the code
    measured when there is no git sha."""
    h = hashlib.sha256()
    pkg = root / "src" / "sdeim"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and p.suffix in (".py", ".json")):
        h.update(str(path.relative_to(pkg)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def collect(root):
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    keep = ("name", "version", "openblas configuration")
    libs = {lib: {k: info[k] for k in keep if k in info} for lib, info in deps.items()}
    blas = libs.get("blas", {})
    return {
        "git_sha": git_sha(root),
        "src_sha256": src_sha256(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": libs,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "executable_version": sys.version,
        "units_note": "flop and byte figures are computed from shapes, not measured",
    }
