"""Per-layer micro table: word generation and every live kernel, two sizes each.

Run from the repository root with ``python3 perfbench/run.py --micro``.  The
table is reported, not gated.  Each row gives the median and the best of K
timed repeats.  When numba imports, a second table times the same kernel
calls on the python and the jitted kernel tables (compile time apart);
otherwise it says why that section was skipped.
"""

import json
import statistics
import time

from periwords import kernels
from periwords.words import BINARY, parse_descriptor

REPEATS = 3
PREFIX_SIZES = (10_000, 100_000)
FAMILIES = (
    "fibonacci",
    "thue-morse",
    "periodic:aababbab",
    "morphic:a=aab,b=a;seed=a",
    "holub:n=2,3;tail=repeat",
    "holub-formula:n=2,3;tail=repeat",
    "toeplitz:n=2,3;tail=repeat;stage=8",
)


def _timed(fn, repeats=REPEATS) -> tuple[float, float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), min(times)


def _ranks(descriptor: str, n: int):
    return parse_descriptor(descriptor).ranks(n)


def kernel_cases():
    """(kernel, size label, call taking a kernel table) for every live kernel."""
    cases = []
    for n in (1_000, 10_000):
        fib = _ranks("fibonacci", n)
        cases += [
            ("border_table", n, lambda k, w=fib: k.border_table(w)),
            ("period_of", n, lambda k, w=fib: k.period_of(w)),
            ("shortest_border_length", n, lambda k, w=fib: k.shortest_border_length(w)),
            ("local_period_finite", n, lambda k, w=fib: k.local_period_finite(w, len(w) // 2)),
            ("max_run_exponent", n, lambda k, w=_ranks("thue-morse", n): k.max_run_exponent(w, 64)),
        ]
    for n in (10_000, 100_000):
        fib = _ranks("fibonacci", n)
        needle = BINARY.encode("aab")
        cases += [
            ("occurrence_list", n, lambda k, s=fib: k.occurrence_list(needle, s)),
            ("max_power", n, lambda k, s=fib: k.max_power(BINARY.encode("ab"), s)),
        ]
    for n in (256, 1024):
        fib = _ranks("fibonacci", n)
        cases += [
            ("local_periods_finite", n, lambda k, w=fib: k.local_periods_finite(w)),
            ("least_rotation_index", n, lambda k, w=fib: k.least_rotation_index(w)),
        ]
    for n in (256, 512):
        tm = _ranks("thue-morse", 5 * n + 64)
        cases += [
            ("local_period_stream", n, lambda k, b=tm, i=n: k.local_period_stream(b, i, 4 * i + 64)),
            ("local_periods_stream", n, lambda k, b=tm, i=n: k.local_periods_stream(b, i, 4 * i + 64)),
        ]
    for n in (8, 12):
        w = _ranks("thue-morse", n)
        cases.append(("oracle_local_period", n, lambda k, w=w: k.oracle_local_period(w, len(w) // 2, 2)))
    for n in (8, 9):
        cases.append(("oracle_sweep", n, lambda k, m=n: k.oracle_sweep(m, 2)))
    for n in (10, 11):
        cases.append(("cft_sweep", n, lambda k, m=n: k.cft_sweep(m, 2)))
    return cases


def main() -> None:
    rows = []
    print(f"{'layer':<8} {'item':<34} {'size':>8} {'median_ms':>11} {'best_ms':>10} {'k':>3}")
    for family in FAMILIES:
        for n in PREFIX_SIZES:
            med, best = _timed(lambda: parse_descriptor(family).prefix(n))
            rows.append({"layer": "words", "item": family, "size": n, "median_s": med,
                         "best_s": best, "k": REPEATS})
    table = kernels.active
    for name, n, call in kernel_cases():
        med, best = _timed(lambda: call(table))
        rows.append({"layer": "kernels", "item": name, "size": n, "median_s": med,
                     "best_s": best, "k": REPEATS})
    for r in rows:
        print(f"{r['layer']:<8} {r['item']:<34} {r['size']:>8} {r['median_s'] * 1e3:>11.3f} "
              f"{r['best_s'] * 1e3:>10.3f} {r['k']:>3}")

    backends = []
    if not kernels.HAVE_NUMBA:
        print("numba section skipped: numba is not importable, only the python backend runs")
    else:
        py, nb = kernels.python_kernels(), kernels.numba_kernels()
        t0 = time.perf_counter()
        for _, _, call in kernel_cases():  # compile every kernel the timed loop touches
            call(nb)
        print(f"jit warmup: {time.perf_counter() - t0:.2f}s")
        print(f"{'kernel':<24} {'size':>8} {'python_ms':>10} {'jitted_ms':>10} {'speedup':>8}")
        for name, n, call in kernel_cases():
            tp, _ = _timed(lambda: call(py))
            tn, _ = _timed(lambda: call(nb))
            backends.append({"kernel": name, "size": n, "python_s": tp, "numba_s": tn})
            print(f"{name:<24} {n:>8} {tp * 1e3:>10.3f} {tn * 1e3:>10.3f} {tp / tn:>7.1f}x")
    print(json.dumps({"backend": kernels.BACKEND, "micro": rows, "backends": backends}))
