"""Run provenance: the environment block every telemetry run records.

One canonical implementation of the environment/provenance fields shared
by the perf-bench harness (``benchmarks/perf/harness.py``), the NDJSON
sink's run manifests, and ``scripts/loadgen.py`` — a recorded number is
only meaningful if the run can be traced back to the exact revision,
interpreter, and knob settings that produced it.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
import sys
import time
from typing import Dict, Optional


def repo_root() -> str:
    """The checkout root (three levels above ``src/repro/obs/``)."""
    return os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", ".."))


def git_sha(root: Optional[str] = None) -> str:
    """The checkout's short commit SHA (``+dirty`` with local edits).

    Degrades to ``"unknown"`` outside a git checkout (exported tarballs).
    """
    root = root if root is not None else repo_root()
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        return f"{sha}+dirty" if dirty else sha
    except Exception:
        return "unknown"


def blas_block() -> Dict[str, object]:
    """BLAS vendor, version and live OpenBLAS thread count — read, never set.

    The BLAS pool's thread count changes GEMM timings as much as
    ``REPRO_NUM_THREADS`` does, so it is read back from the loaded library
    (``ctypes``) rather than inferred from ``OPENBLAS_NUM_THREADS``, which
    is recorded alongside.  Fields degrade to ``"unavailable (...)"``
    strings on builds without a bundled OpenBLAS.
    """
    import numpy as np

    info: Dict[str, object] = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas_vendor"] = blas.get("name")
        info["blas_version"] = blas.get("version")
    except (KeyError, TypeError, ValueError) as error:
        info["blas_vendor"] = f"unknown ({error})"
        info["blas_version"] = "unknown"
    libs = glob.glob(
        os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "libscipy_openblas*")
    )
    threads: object = "unavailable"
    if libs:
        try:
            getter = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
            getter.argtypes = []
            getter.restype = ctypes.c_int
            threads = getter()
        except (OSError, AttributeError) as error:
            threads = f"unavailable ({error})"
    info["blas_threads"] = threads
    info["openblas_num_threads_env"] = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return info


def environment_block() -> Dict[str, object]:
    """Interpreter + machine + compute-runtime metadata recorded per run.

    The thread configuration is part of a result's identity: runs recorded
    at different ``REPRO_NUM_THREADS`` (or on hosts with different core
    counts) must never be silently compared, so both are recorded — as are
    the arena, int-GEMM, and telemetry knobs, the BLAS build and its live
    thread count (:func:`blas_block`), and the git SHA of the checkout that
    produced the numbers.
    """
    import numpy as np

    try:
        from repro.runtime import num_threads
        threads: object = num_threads()
    except Exception:  # library not importable (foreign checkout): raw env
        threads = os.environ.get("REPRO_NUM_THREADS", "unset")
    block: Dict[str, object] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "repro_num_threads": threads,
        "repro_num_threads_env": os.environ.get("REPRO_NUM_THREADS", "unset"),
        "repro_arena": os.environ.get("REPRO_ARENA", "unset"),
        "repro_int_gemm": os.environ.get("REPRO_INT_GEMM", "unset"),
        "repro_telemetry": os.environ.get("REPRO_TELEMETRY", "unset"),
    }
    block.update(blas_block())
    return block


#: Fields a run manifest must carry for the run to count as reproducible
#: (the loadgen self-check and the tier-1 smoke assert these).
REQUIRED_MANIFEST_FIELDS = ("label", "created_unix", "environment", "params")
REQUIRED_ENVIRONMENT_FIELDS = (
    "git_sha", "numpy", "cpu_count",
    "repro_num_threads", "repro_arena", "repro_int_gemm",
)


def run_manifest(label: str, params: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """A provenance manifest for one telemetry run."""
    return {
        "schema_version": 1,
        "label": label,
        "created_unix": time.time(),
        "argv": list(sys.argv),
        "environment": environment_block(),
        "params": dict(params or {}),
    }


def validate_manifest(manifest: Dict[str, object]) -> list:
    """Missing required field names (empty list == complete manifest)."""
    missing = [field for field in REQUIRED_MANIFEST_FIELDS if field not in manifest]
    environment = manifest.get("environment")
    if isinstance(environment, dict):
        missing.extend(
            f"environment.{field}"
            for field in REQUIRED_ENVIRONMENT_FIELDS
            if field not in environment
        )
    return missing
