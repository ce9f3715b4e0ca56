"""Backend selection for the scan kernels.

The kernel source lives in _impl.py and is written so the same functions run
either interpreted or under numba's njit; the vectorized kernels named in
NUMPY_KERNELS are not jitted, so both tables run the same numpy code. The
active backend is chosen once at import time from the PERIWORDS_BACKEND
environment variable:

    PERIWORDS_BACKEND=numba    compiled kernels (default when numba imports)
    PERIWORDS_BACKEND=python   pure-Python/NumPy fallback, no compilation

Both tables stay available in one process (python_kernels / numba_kernels),
which is what the parity tests and perfbench/run.py --micro rely on.
"""

import importlib.util
import os

from . import _impl as _pure_impl

ENV_FLAG = "PERIWORDS_BACKEND"

KERNEL_NAMES = (
    "border_table",
    "period_of",
    "shortest_border_length",
    "local_period_finite",
    "local_periods_finite",
    "local_period_stream",
    "local_periods_stream",
    "oracle_local_period",
    "oracle_sweep",
    "cft_sweep",
    "occurrence_list",
    "max_power",
    "max_run_exponent",
    "least_rotation_index",
)
# vectorized numpy code outside numba's subset
NUMPY_KERNELS = ("local_periods_stream",)

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a hard dependency, but degrade politely
    numba = None
    HAVE_NUMBA = False

_jitted_module = None


def _pick_backend():
    choice = os.environ.get(ENV_FLAG, "").strip().lower()
    if choice in ("python", "numpy", "nojit"):
        return "python"
    if choice == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError(
                f"{ENV_FLAG}=numba requested but numba is not importable"
            )
        return "numba"
    if choice:
        raise RuntimeError(f"unknown {ENV_FLAG} value {choice!r}")
    return "numba" if HAVE_NUMBA else "python"


def python_kernels():
    """The interpreted kernel table (always available)."""
    return _pure_impl


def numba_kernels():
    """A jitted copy of the kernel table, compiled lazily and kept for reuse."""
    global _jitted_module
    if not HAVE_NUMBA:
        raise RuntimeError("numba is not importable; only the python backend exists")
    if _jitted_module is None:
        spec = importlib.util.find_spec("periwords._impl")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        jit = numba.njit(cache=True)
        # rebind every kernel before first call so cross-kernel references
        # resolve to dispatchers at compile time
        for name in KERNEL_NAMES:
            if name not in NUMPY_KERNELS:
                setattr(mod, name, jit(getattr(mod, name)))
        _jitted_module = mod
    return _jitted_module


BACKEND = _pick_backend()
active = numba_kernels() if BACKEND == "numba" else python_kernels()
