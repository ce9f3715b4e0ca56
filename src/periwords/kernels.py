"""The scan kernel table.

The kernels live in _impl.py, which is the one table. The names below stay
because other code reads them:

  active        the table every caller goes through, and the one swap point:
                perfbench/tracing.py replaces it with a timing proxy
  KERNEL_NAMES  the live kernels; the benchmark's tracer wraps each one and
                its set-up probe calls each one
  python_kernels()     the table itself, for perfbench's self-test and micro.py
  BACKEND, HAVE_NUMBA  run metadata; the benchmark's baseline records "python"
"""

from . import _impl

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
BACKEND = "python"
HAVE_NUMBA = False  # no jitted table exists; read by the benchmark's metadata
active = _impl


def python_kernels():
    """The kernel table."""
    return _impl
