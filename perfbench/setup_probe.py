"""Set-up probe, run in a fresh interpreter by run.py.

    python3 perfbench/setup_probe.py SRC_DIR OPS_JSON

Imports periwords from SRC_DIR (which picks the kernel backend), compiles
the kernels when that backend is numba (its kernels compile on first call),
then parses every op's config and word descriptor, and prints its timings as
JSON.
"""

import json
import sys
import time


def call_every_kernel(table) -> None:
    """Call each live kernel of table once on a tiny input of the dtype the
    library passes, so a jitted table compiles all of them here."""
    from periwords.words import BINARY, parse_descriptor

    w = parse_descriptor("fibonacci").ranks(16)
    tm = parse_descriptor("thue-morse").ranks(64)
    table.border_table(w)
    table.period_of(w)
    table.shortest_border_length(w)
    table.local_period_finite(w, 8)
    table.local_periods_finite(w)
    table.local_period_stream(tm, 8, 40)
    table.local_periods_stream(tm, 8, 40)
    table.oracle_local_period(w[:6], 3, 2)
    table.oracle_sweep(3, 2)
    table.cft_sweep(3, 2)
    table.occurrence_list(BINARY.encode("ab"), w)
    table.max_power(BINARY.encode("ab"), w)
    table.max_run_exponent(tm, 8)
    table.least_rotation_index(w)


def main(src: str, ops_path: str) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from periwords import cli, kernels
    from periwords.words import parse_descriptor

    if kernels.BACKEND == "numba":
        call_every_kernel(kernels.active)
    t1 = time.perf_counter()
    with open(ops_path, encoding="utf-8") as f:
        for op in json.load(f):
            cfg = cli.ExperimentConfig.from_json(op).resolved()
            if cfg.word:
                parse_descriptor(cfg.word)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
