"""Machine facts for every benchmark run record.

Run as a script, this prints (as JSON) what a `vif` stage process sees after
importing numpy and scipy.linalg: the OpenBLAS libraries actually loaded,
their build configuration, and the BLAS thread count in effect, read through
ctypes because threadpoolctl is not a dependency.  `host_facts()` covers the
rest (CPU count and model, cache sizes, inherited threading variables) and
needs no import of the program.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys

# Variables that change BLAS threading or logging; recorded as inherited,
# never set by the benchmark.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "VIF_LOG",
)

# Symbol spellings across OpenBLAS builds: scipy-openblas prefixes `scipy_`
# and the 64-bit-integer build appends `64_`.
_NUM_THREADS_SYMS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_SYMS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    info = _read("/proc/cpuinfo") or ""
    for line in info.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict:
    """Sizes of cpu0's caches by level, e.g. {"L1d": "48K", "L2": "2048K"}."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        if not entry.startswith("index"):
            continue
        level = _read(f"{base}/{entry}/level")
        kind = _read(f"{base}/{entry}/type") or ""
        size = _read(f"{base}/{entry}/size")
        if level is None or size is None:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def host_facts() -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {
        "nproc": affinity or os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "loadavg": _read("/proc/loadavg"),
    }


def _loaded_blas_paths() -> list[str]:
    maps = _read("/proc/self/maps") or ""
    paths = set()
    for line in maps.splitlines():
        parts = line.split()
        if len(parts) >= 6 and "openblas" in os.path.basename(parts[-1]).lower():
            paths.add(parts[-1])
    return sorted(paths)


def _call(lib, names, restype):
    """Call the first of the no-argument functions `names` that lib exports."""
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def blas_facts() -> dict:
    """Loaded BLAS libraries as the program's process sees them."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    libs = []
    for path in _loaded_blas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError as exc:
            libs.append({"path": path, "error": str(exc)})
            continue
        threads = _call(lib, _NUM_THREADS_SYMS, ctypes.c_int)
        config = _call(lib, _CONFIG_SYMS, ctypes.c_char_p)
        libs.append(
            {
                "path": path,
                "num_threads": threads,
                "config": config.decode() if config else None,
            }
        )
    blas_cfg = {}
    try:
        blas_cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": {k: blas_cfg.get(k) for k in ("name", "version")},
        "blas_libraries": libs,
        "blas_threads_in_effect": sorted(
            {lib["num_threads"] for lib in libs if lib.get("num_threads") is not None}
        ),
    }


if __name__ == "__main__":
    facts = blas_facts()
    try:
        import vifkit

        facts["vifkit"] = {"version": vifkit.__version__, "file": vifkit.__file__}
    except ImportError as exc:
        facts["vifkit"] = {"error": str(exc)}
    json.dump(facts, sys.stdout)
    sys.stdout.write("\n")
